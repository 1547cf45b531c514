//===- support/CmdLine.h - Strict integer flag parsing ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag parsing shared by the command-line drivers (rapcc, rapfuzz, rapd,
/// rapc): the one integer parser, where a flag value is the whole argument
/// or a usage error ("2x", "-1", " 5" and values past the flag's range are
/// rejected, never truncated or wrapped into a different number), and the
/// `--name=` prefix test.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_CMDLINE_H
#define RAP_SUPPORT_CMDLINE_H

#include <charconv>
#include <cstring>
#include <limits>
#include <type_traits>

namespace rap {

/// Upper bound on a worker count read from outside input (rapcc --threads,
/// rapd --shards). Each worker is an OS thread, so a larger value is a usage
/// error, rejected before any thread exists.
constexpr unsigned MaxWorkerThreads = 256;

/// True when \p S begins with \p Prefix.
inline bool startsWith(const char *S, const char *Prefix) {
  return std::strncmp(S, Prefix, std::strlen(Prefix)) == 0;
}

/// Parses all of \p Text as a decimal integer in [\p Min, \p Max] into
/// \p Out. Rejects an empty string, a sign, whitespace, trailing characters
/// and out-of-range values, leaving \p Out untouched.
template <typename T>
bool parseUnsigned(const char *Text, T &Out, std::type_identity_t<T> Min = 0,
                   std::type_identity_t<T> Max =
                       std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>);
  const char *End = Text + std::strlen(Text);
  T V = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || Ptr != End || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace rap

#endif // RAP_SUPPORT_CMDLINE_H
