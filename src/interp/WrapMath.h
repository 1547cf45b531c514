//===- interp/WrapMath.h - Wrapping integer semantics -----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniC integer semantics shared by the reference switch engine and the
/// direct-threaded engine: a 64-bit two's-complement machine word whose
/// arithmetic wraps on overflow, and a float-to-int conversion that
/// saturates. Computing through uint64_t keeps the wraparound well-defined
/// (signed overflow is UB and aborts sanitized builds). Both engines must
/// agree bit-for-bit — the differential test compares their results over
/// the fuzz corpus.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_INTERP_WRAPMATH_H
#define RAP_INTERP_WRAPMATH_H

#include <cmath>
#include <cstdint>
#include <limits>

namespace rap::interp {

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
// INT64_MIN / -1 (and % -1) is the one overflowing division; it traps on
// x86, so define it to the wrapped quotient INT64_MIN (remainder 0).
inline int64_t wrapDiv(int64_t A, int64_t B) {
  if (B == -1)
    return wrapSub(0, A);
  return A / B;
}
inline int64_t wrapMod(int64_t A, int64_t B) {
  if (B == -1)
    return 0;
  return A % B;
}
// f2i: casting a double that is NaN or outside int64 is undefined, so define
// it: NaN -> 0, >= 2^63 -> INT64_MAX, < -2^63 -> INT64_MIN, otherwise
// truncate toward zero.
inline int64_t saturatingF2I(double D) {
  constexpr double TwoTo63 = 9223372036854775808.0;
  if (std::isnan(D))
    return 0;
  if (D >= TwoTo63)
    return std::numeric_limits<int64_t>::max();
  if (D < -TwoTo63)
    return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(D);
}

} // namespace rap::interp

#endif // RAP_INTERP_WRAPMATH_H
