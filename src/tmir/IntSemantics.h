//===- tmir/IntSemantics.h - TMIR integer arithmetic -----------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The defined meaning of TMIR's i64 arithmetic, shared by constant folding
/// and the interpreter so a folded result always equals the interpreted
/// one:
///
///   - add, sub and mul wrap modulo 2^64 (two's complement);
///   - div and rem truncate toward zero; a zero divisor traps (the caller
///     reports it), and INT64_MIN / -1 wraps to INT64_MIN with remainder 0;
///   - shl and shr use the low six bits of the shift amount; shr is a
///     logical (zero-filling) shift.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_INTSEMANTICS_H
#define OTM_TMIR_INTSEMANTICS_H

#include <cstdint>

namespace otm {
namespace tmir {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// True for the divisors the hardware divide cannot take: 0 (traps) and -1
/// (INT64_MIN / -1 overflows). One compare, for the interpreter's fast path.
inline bool isZeroOrMinusOne(int64_t B) {
  return static_cast<uint64_t>(B) + 1 <= 1;
}

/// Quotient for a non-zero divisor \p B.
inline int64_t divNonZero(int64_t A, int64_t B) {
  return B == -1 ? wrapSub(0, A) : A / B;
}

/// Remainder for a non-zero divisor \p B.
inline int64_t remNonZero(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

inline int64_t shiftLeft(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63));
}

inline int64_t shiftRight(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63));
}

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_INTSEMANTICS_H
