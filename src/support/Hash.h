//===- support/Hash.h - Stable content hashing ------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable 64-bit content hash (FNV-1a with a strengthening finalizer) for
/// the compile server's allocation cache. Stability matters more than raw
/// speed here: the fingerprint of a function's lowered ILOC must be
/// identical across processes, thread counts, and repeated runs, because
/// cache-hit determinism (warm responses byte-identical to cold compiles)
/// is an advertised invariant. Do not swap in std::hash — its values are
/// unspecified and may differ between libstdc++ versions.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_HASH_H
#define RAP_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace rap {

/// Incremental FNV-1a over bytes, with mix() providing avalanche on the
/// final value. Usage: Hasher H; H.bytes(...); H.u64(...); H.value().
class Hasher {
public:
  Hasher &bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Len; ++I) {
      State ^= P[I];
      State *= 0x100000001b3ULL; // FNV prime
    }
    return *this;
  }
  Hasher &str(const std::string &S) {
    // Length-prefix so ("ab","c") and ("a","bc") hash differently.
    u64(S.size());
    return bytes(S.data(), S.size());
  }
  Hasher &u64(uint64_t V) { return bytes(&V, sizeof(V)); }
  Hasher &u32(uint32_t V) { return bytes(&V, sizeof(V)); }
  Hasher &boolean(bool B) { return u32(B ? 1u : 0u); }

  /// The finalized hash: FNV-1a state pushed through splitmix64's mixer so
  /// short, similar inputs (one flag bit apart) still differ everywhere.
  uint64_t value() const {
    uint64_t Z = State;
    Z ^= Z >> 30;
    Z *= 0xbf58476d1ce4e5b9ULL;
    Z ^= Z >> 27;
    Z *= 0x94d049bb133111ebULL;
    Z ^= Z >> 31;
    return Z;
  }

private:
  uint64_t State = 0xcbf29ce484222325ULL; // FNV offset basis
};

/// Renders a hash the way the rapd protocol transmits it: 16 lowercase hex
/// digits, no prefix.
inline std::string hashHex(uint64_t H) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[H & 0xF];
    H >>= 4;
  }
  return Out;
}

} // namespace rap

#endif // RAP_SUPPORT_HASH_H
