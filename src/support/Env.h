//===- support/Env.h - Centralized environment access -----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single gateway for environment-variable configuration. Every
/// recognized variable is read *once* per process (first query wins) and the
/// value is cached behind a mutex, so concurrent allocator threads see one
/// consistent answer and repeated hot-path queries never rescan `environ`.
///
/// Recognized variables are documented in README.md ("Environment
/// variables"): RAP_VERIFY_LIVENESS, RAP_FAULT_INJECT, RAP_INTERP.
///
/// Call sites that sit on hot paths should additionally latch the result in
/// a function-local `static const` (see `Liveness.cpp`), which also pins the
/// read to the first *use* rather than static initialization — tests that
/// `setenv` from a file-scope initializer rely on that ordering.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_ENV_H
#define RAP_SUPPORT_ENV_H

#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace rap {
namespace env {

/// The value of \p Name at first query, or nullopt when unset. Cached for
/// the process lifetime; thread-safe.
inline const std::optional<std::string> &get(const std::string &Name) {
  static std::mutex M;
  static std::map<std::string, std::optional<std::string>> Cache;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    const char *Raw = std::getenv(Name.c_str());
    It = Cache
             .emplace(Name, Raw ? std::optional<std::string>(Raw)
                                : std::nullopt)
             .first;
  }
  return It->second;
}

/// True when \p Name is set (to anything, including empty). Cached.
inline bool flag(const std::string &Name) { return get(Name).has_value(); }

} // namespace env
} // namespace rap

#endif // RAP_SUPPORT_ENV_H
