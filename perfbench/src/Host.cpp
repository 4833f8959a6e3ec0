//===- perfbench/src/Host.cpp - Host fingerprint --------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workload.h"

#include "txn/Htm.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char **environ;

namespace perfbench {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string hostFingerprintJson() {
  std::string Json = "{\"nproc\":";
  Json += std::to_string(std::thread::hardware_concurrency());
  Json += ",\"htm_available\":";
  Json += otm::txn::htm::HtmRuntime::instance().available() ? "true" : "false";
  Json += ",\"build_type\":";
  Json += jsonString(PERFBENCH_BUILD_TYPE);
  Json += ",\"otm_env\":{";
  bool First = true;
  for (char **E = environ; *E; ++E) {
    const char *Eq = std::strchr(*E, '=');
    if (std::strncmp(*E, "OTM_", 4) != 0 || !Eq)
      continue;
    if (!First)
      Json += ',';
    First = false;
    Json += jsonString(std::string(*E, static_cast<std::size_t>(Eq - *E)));
    Json += ':';
    Json += jsonString(Eq + 1);
  }
  return Json + "}}";
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so under a
  // launcher it reports the launcher's peak when that is the larger one.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

} // namespace perfbench
