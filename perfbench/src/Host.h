//===- perfbench/src/Host.h - Host fingerprint ------------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of a result's host fingerprint only the program can see: core
/// count, whether the hardware-transaction tier can run, the build type,
/// and every OTM_* variable set in the environment. run.py adds the rest
/// (CPU model, governor, load, commit). A result from an RTM host or with
/// an OTM_* override is never compared against one without.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>

namespace perfbench {

/// The fingerprint as one JSON object.
std::string hostFingerprintJson();

/// \p S as a quoted JSON string.
std::string jsonString(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
