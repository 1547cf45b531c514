//===- server/AllocCache.h - Content-hash allocation cache ------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's memoization layer: per-function allocation results
/// keyed by a content hash of the function's *lowered, unallocated* ILOC
/// plus every AllocOptions field that can change the allocator's decisions.
/// Allocation is a pure function of (body, options) — functions share no
/// mutable state and the allocators are deterministic — so a hit may replay
/// the stored result verbatim:
///
///   value = deep clone of the allocated body (cloneFunction preserves the
///           linearized code text exactly) + the AllocOutcome that produced
///           it (stats, status, error).
///
/// Hits hand back a fresh clone, never the stored body, so concurrent
/// requests and later mutation of the program cannot corrupt the cache.
/// The rewrite of a cached function is therefore bit-identical to a cold
/// compile — the invariant the warm-vs-cold determinism test enforces.
///
/// Eviction is LRU over an approximate byte budget. All bookkeeping is
/// under one mutex: the protected section is pointer splicing plus a hash
/// lookup, orders of magnitude cheaper than the graph coloring a hit
/// replaces, and a single lock keeps hit/evict ordering deterministic when
/// the service inserts in function order.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_ALLOCCACHE_H
#define RAP_SERVER_ALLOCCACHE_H

#include "ir/IlocFunction.h"
#include "regalloc/AllocOutcome.h"
#include "regalloc/Allocator.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace rap {
namespace server {

/// Stable fingerprint of (lowered function, allocation request). Includes
/// the linearized body text, the region-tree shape (RAP's input), the
/// register/label/slot namespaces, and the options that steer allocation
/// (allocator kind, k, phase toggles, coalescing, verification). Two
/// functions with equal fingerprints allocate identically.
uint64_t fingerprintFunction(const IlocFunction &F, AllocatorKind Kind,
                             const AllocOptions &Options);

/// Approximate retained-heap cost of caching \p F, used for the byte
/// budget. Deterministic (counts instructions/operands, not malloc blocks).
size_t estimateFunctionBytes(const IlocFunction &F);

/// What a hit replays: the allocated body plus the outcome of the original
/// allocation. Stats are the *allocation-time* counters — a replayed hit
/// reports the same ledger a cold compile would — except the wall clocks
/// (GraphBuildSeconds, LivenessSeconds), which read 0: a hit spent none.
struct CachedAllocation {
  std::unique_ptr<IlocFunction> Body;
  AllocOutcome Outcome;
};

struct CacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0; ///< current retained estimate
};

class AllocCache {
public:
  /// \p BudgetBytes caps the summed estimateFunctionBytes of resident
  /// entries; 0 disables caching entirely (every lookup misses, inserts are
  /// dropped), which is the cold-path baseline the load bench compares
  /// against.
  explicit AllocCache(size_t BudgetBytes) : Budget(BudgetBytes) {}

  /// On hit: bumps the entry to most-recently-used and returns a deep clone
  /// of the stored body plus the stored outcome. On miss: returns nullptr
  /// Body. Counts the hit/miss either way.
  CachedAllocation lookup(uint64_t Key);

  /// Stores \p Allocated (cloned; the caller keeps its instance) and
  /// \p Outcome, its wall clocks zeroed, under \p Key, then evicts LRU
  /// entries until the budget holds. Re-inserting an existing key refreshes
  /// its recency and replaces the value (the bodies are identical by
  /// construction — same fingerprint, deterministic allocator — so
  /// replacing is as good as keeping). An entry larger than the whole
  /// budget is dropped immediately rather than thrashing the cache.
  void insert(uint64_t Key, const IlocFunction &Allocated,
              const AllocOutcome &Outcome);

  CacheCounters counters() const;
  size_t budgetBytes() const { return Budget; }

private:
  struct Entry {
    uint64_t Key = 0;
    std::unique_ptr<IlocFunction> Body;
    AllocOutcome Outcome;
    size_t Bytes = 0;
  };

  void evictToBudgetLocked();

  const size_t Budget;
  mutable std::mutex M;
  std::list<Entry> Lru; ///< front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
  CacheCounters Stats;
};

} // namespace server
} // namespace rap

#endif // RAP_SERVER_ALLOCCACHE_H
