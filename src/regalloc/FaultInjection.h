//===- regalloc/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, countdown-driven fault injection for the allocation
/// pipeline, so the degradation path (error -> spill-everything fallback) is
/// itself testable end-to-end. A FaultPlan arms one or more sites; each
/// function's allocation run owns a private FaultInjector counting hits per
/// site, so triggering is reproducible and independent of thread scheduling.
///
/// Plans parse from the syntax used by the RAP_FAULT_INJECT environment
/// variable:
///
///   RAP_FAULT_INJECT=<site>:<n>[@<function>][,<site>:<n>[@<function>]...]
///
/// where <site> is an allocator site — `color` (before a graph coloring),
/// `spill` (before a spill-code insertion), `rewrite` (before the physical
/// rewrite), `region` (at entry of a RAP region's allocation) — or a server
/// site — `parse` (protocol dispatch), `cache-insert`
/// (allocation-cache insertion), `stall` (a worker ignores its cancel token
/// for a while), `shutdown` (the server's stop flag flips mid-request) —
/// and the fault fires on the <n>-th hit of that site: in every function,
/// or only in <function> when the @ suffix is given (server sites ignore
/// the suffix). Injection points sit at IR-consistent boundaries (before
/// the operation edits any code). Allocator sites fire by throwing
/// AllocError via hit(); server sites use the non-throwing fires() and let
/// the call site decide the failure mode (a stall sleeps, a shutdown flips
/// a flag, the others raise contained errors).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_FAULTINJECTION_H
#define RAP_REGALLOC_FAULTINJECTION_H

#include "regalloc/AllocError.h"

#include <string>
#include <vector>

namespace rap {

/// Each site's spec name sits at its position in SiteNames
/// (FaultInjection.cpp), so a new site goes at the same place in both.
enum class FaultSite {
  Coloring,        ///< immediately before a colorGraph call
  SpillInsert,     ///< immediately before spill-code insertion
  PhysicalRewrite, ///< immediately before rewriteToPhysical
  RegionAlloc,     ///< at entry of a RAP region allocation

  // Server-layer chaos sites (rapd; DESIGN.md §13). These never fire inside
  // an allocator run — rapd counts them on one injector, its
  // CompileService's.
  ProtocolParse,   ///< during request dispatch, after JSON parsing
  CacheInsert,     ///< before an AllocCache::insert
  WorkerStall,     ///< a shard worker stalls, ignoring its cancel token
  MidShutdown,     ///< the server's shutdown flag flips mid-request
};

const char *faultSiteName(FaultSite S);

/// A deterministic fault schedule shared by every function of a program run
/// (each function counts its own hits).
struct FaultPlan {
  struct Arm {
    FaultSite Site = FaultSite::Coloring;
    unsigned Nth = 1;     ///< fire on the Nth hit of Site (1-based)
    std::string Function; ///< empty = every function
  };
  std::vector<Arm> Arms;

  bool empty() const { return Arms.empty(); }

  /// Parses the RAP_FAULT_INJECT syntax. Throws std::invalid_argument on
  /// malformed input.
  static FaultPlan fromString(const std::string &Spec);
};

/// Per-function-run injection state. Default-constructed injectors are
/// disarmed and cost one branch per hit check.
class FaultInjector {
public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan &Plan, std::string Function);

  bool armed() const { return !Counters.empty(); }

  /// Registers one hit of \p S; throws AllocError(InjectedFault) when an arm
  /// scheduled for this run reaches its countdown.
  void hit(FaultSite S) {
    if (!Counters.empty())
      hitSlow(S);
  }

  /// Non-throwing variant for the server sites: registers one hit of \p S
  /// and returns true when a countdown fired. The call site chooses the
  /// failure mode (sleep, flag flip, contained error) — server faults must
  /// degrade to structured responses, not exceptions racing across threads.
  bool fires(FaultSite S) { return !Counters.empty() && firesSlow(S); }

private:
  void hitSlow(FaultSite S);
  bool firesSlow(FaultSite S);

  struct Counter {
    FaultSite Site;
    unsigned Remaining; ///< hits left before firing
  };
  std::vector<Counter> Counters;
  std::string Function;
};

/// The process-wide plan parsed once from RAP_FAULT_INJECT (empty when the
/// variable is unset or malformed; malformed input warns on stderr).
const FaultPlan &envFaultPlan();

} // namespace rap

#endif // RAP_REGALLOC_FAULTINJECTION_H
