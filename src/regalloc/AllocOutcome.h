//===- regalloc/AllocOutcome.h - Per-function allocation results -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured results of the fault-isolated allocation driver: per-function
/// AllocStats (measurement counters, listed once in the AllocCounters
/// table), the AllocOutcome that records whether a function allocated
/// cleanly, degraded to the spill-everything fallback, or failed hard, and
/// the program-level aggregate. Outcomes are ordered by function position
/// and independent of thread scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCOUTCOME_H
#define RAP_REGALLOC_ALLOCOUTCOME_H

#include "regalloc/AllocError.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace rap {

/// Per-function allocation measurements: the one record of every allocator
/// count. The rap-stats-v1 "alloc" section, the rapd cache entry and the
/// telemetry counters are all views of it (see AllocCounters below).
struct AllocStats {
  unsigned GraphBuilds = 0;    ///< interference graphs constructed
  unsigned SpilledVRegs = 0;   ///< virtual registers sent to memory
  unsigned MaxGraphNodes = 0;  ///< largest interference graph (space claim)
  unsigned RegionsProcessed = 0;
  unsigned SpillRounds = 0;  ///< coloring rounds that ended in spilling
  unsigned HoistedLoads = 0; ///< phase 2
  unsigned SunkStores = 0;   ///< phase 2
  unsigned MovementRemovedLoads = 0;  ///< in-loop ldm deleted by phase 2
  unsigned MovementRemovedStores = 0; ///< in-loop stm deleted by phase 2
  unsigned PeepholeRemovedLoads = 0;
  unsigned PeepholeRemovedStores = 0;
  unsigned PeepholeLoadsToCopies = 0; ///< Figure 6 pattern 2 (ldm -> mv)
  unsigned CleanupRemovedLoads = 0;  ///< dataflow extension
  unsigned CleanupRemovedStores = 0; ///< dataflow extension
  unsigned CopiesDeleted = 0; ///< mv rX, rX removed after assignment

  //===------------------------------------------------------------------===//
  // Spill-instruction ledger. Every LdSpill/StSpill an allocator creates is
  // counted at its creation site; every one a cleanup pass deletes (or
  // rewrites to a copy) is counted above. The telemetry test suite holds
  // the books to the final code:
  //
  //   #ldm in output == SpillLoadsInserted + HoistedLoads
  //                     - MovementRemovedLoads - PeepholeRemovedLoads
  //                     - PeepholeLoadsToCopies - CleanupRemovedLoads
  //
  // and symmetrically for stores (SunkStores / *RemovedStores).
  //===------------------------------------------------------------------===//
  unsigned SpillLoadsInserted = 0;  ///< ldm created during spilling
  unsigned SpillStoresInserted = 0; ///< stm created during spilling

  // Coloring and cleanup detail: telemetry counters, not in "alloc".
  unsigned ColorInvocations = 0;  ///< colorGraph calls
  unsigned ColorNodes = 0;        ///< nodes colorGraph saw, over all calls
  unsigned ColorBlockedPicks = 0; ///< cost-forced simplify picks
  unsigned ColorOptimistic = 0;   ///< blocked picks colored anyway (Briggs)
  unsigned ColorSpilledNodes = 0; ///< nodes sent to the spill list
  unsigned CleanupIterations = 0; ///< dataflow cleanup fixpoint iterations
  /// The part of CleanupRemovedLoads rewritten to a copy, not deleted.
  unsigned CleanupLoadsToCopies = 0;

  //===------------------------------------------------------------------===//
  // Cost instrumentation (excluded from determinism comparisons: wall time
  // varies run to run; see structuralEq).
  //===------------------------------------------------------------------===//
  double GraphBuildSeconds = 0;  ///< time in interference construction
  double LivenessSeconds = 0;    ///< time in liveness (re)computation
  size_t PeakGraphBytes = 0;     ///< largest adjacency footprint seen

  /// Equality over the deterministic counters, ignoring the timing
  /// instrumentation. Used by the parallel-driver determinism check.
  bool structuralEq(const AllocStats &O) const;

  /// Folds another function's stats in (AllocCounter::Max says how).
  void accumulate(const AllocStats &O);
};

/// One row of the AllocStats counter table.
struct AllocCounter {
  unsigned AllocStats::*Member;
  const char *Key; ///< rap-stats-v1 "alloc" key; null = not in the document
  bool Max;        ///< folds across functions by max, not by sum
};

/// Every unsigned AllocStats counter, exactly once. The comparison, the
/// fold, the stats document and the rapd cache codec all walk this table,
/// so a new row grows the cache entry: bump CacheStore's FormatVersion.
inline constexpr AllocCounter AllocCounters[] = {
    {&AllocStats::GraphBuilds, "graph_builds", false},
    {&AllocStats::SpilledVRegs, "spilled_vregs", false},
    {&AllocStats::MaxGraphNodes, "max_graph_nodes", true},
    {&AllocStats::RegionsProcessed, "regions_processed", false},
    {&AllocStats::SpillRounds, "spill_rounds", false},
    {&AllocStats::HoistedLoads, "hoisted_loads", false},
    {&AllocStats::SunkStores, "sunk_stores", false},
    {&AllocStats::MovementRemovedLoads, "movement_removed_loads", false},
    {&AllocStats::MovementRemovedStores, "movement_removed_stores", false},
    {&AllocStats::PeepholeRemovedLoads, "peephole_removed_loads", false},
    {&AllocStats::PeepholeRemovedStores, "peephole_removed_stores", false},
    {&AllocStats::PeepholeLoadsToCopies, "peephole_loads_to_copies", false},
    {&AllocStats::CleanupRemovedLoads, "cleanup_removed_loads", false},
    {&AllocStats::CleanupRemovedStores, "cleanup_removed_stores", false},
    {&AllocStats::CopiesDeleted, "copies_deleted", false},
    {&AllocStats::SpillLoadsInserted, "spill_loads_inserted", false},
    {&AllocStats::SpillStoresInserted, "spill_stores_inserted", false},
    {&AllocStats::ColorInvocations, nullptr, false},
    {&AllocStats::ColorNodes, nullptr, false},
    {&AllocStats::ColorBlockedPicks, nullptr, false},
    {&AllocStats::ColorOptimistic, nullptr, false},
    {&AllocStats::ColorSpilledNodes, nullptr, false},
    {&AllocStats::CleanupIterations, nullptr, false},
    {&AllocStats::CleanupLoadsToCopies, nullptr, false},
};

inline bool AllocStats::structuralEq(const AllocStats &O) const {
  for (const AllocCounter &C : AllocCounters)
    if (this->*C.Member != O.*C.Member)
      return false;
  return PeakGraphBytes == O.PeakGraphBytes;
}

inline void AllocStats::accumulate(const AllocStats &O) {
  for (const AllocCounter &C : AllocCounters) {
    unsigned &Slot = this->*C.Member;
    Slot = C.Max ? std::max(Slot, O.*C.Member) : Slot + O.*C.Member;
  }
  GraphBuildSeconds += O.GraphBuildSeconds;
  LivenessSeconds += O.LivenessSeconds;
  PeakGraphBytes = std::max(PeakGraphBytes, O.PeakGraphBytes);
}

enum class AllocStatus {
  Allocated, ///< the requested allocator succeeded
  Fallback,  ///< it failed; the spill-everything fallback allocated instead
  Failed,    ///< it failed and fallback was disabled (error rethrown)
};

/// What happened to one function's allocation.
struct AllocOutcome {
  std::string Function;
  AllocStatus Status = AllocStatus::Allocated;
  AllocStats Stats;

  /// Failure details (meaningful for Fallback/Failed).
  AllocErrorKind ErrorKind = AllocErrorKind::Internal;
  std::string Error; ///< rendered AllocError text, empty when Allocated

  bool degraded() const { return Status != AllocStatus::Allocated; }
};

/// allocateProgramChecked's aggregate: stats folded in function order plus
/// one outcome per function (same order as IlocProgram::functions()).
struct ProgramAllocResult {
  AllocStats Total;
  std::vector<AllocOutcome> Outcomes;

  unsigned numFallbacks() const {
    unsigned N = 0;
    for (const AllocOutcome &O : Outcomes)
      N += O.Status == AllocStatus::Fallback;
    return N;
  }
  bool allClean() const { return numFallbacks() == 0; }

  /// Human-readable per-function degradation report (empty when clean):
  /// one "function: kind: message" line per degraded function.
  std::string summary() const {
    std::string Out;
    for (const AllocOutcome &O : Outcomes) {
      if (!O.degraded())
        continue;
      Out += O.Function + ": degraded to spill-everything fallback (" +
             O.Error + ")\n";
    }
    return Out;
  }
};

} // namespace rap

#endif // RAP_REGALLOC_ALLOCOUTCOME_H
