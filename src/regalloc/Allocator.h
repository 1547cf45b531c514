//===- regalloc/Allocator.h - Public allocation entry points ----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public register-allocation API. Two allocators are provided:
///
/// * GRA — the paper's baseline (§4): Chaitin's global graph coloring with
///   the Briggs optimistic enhancement, no coalescing, no rematerialization,
///   whole-procedure unweighted spill costs.
/// * RAP — the paper's contribution (§3): hierarchical allocation over the
///   PDG region tree (bottom-up region coloring with combine), spill-code
///   movement out of loops, and a peephole cleanup of redundant spill
///   loads/stores.
///
/// Both rewrite the function in place to use physical registers 0..k-1 and
/// delete copies whose operands received the same register.
///
/// Failures (invariant violations, resource-guard breaches, verifier
/// rejections in checked mode, injected faults, a stop requested through
/// AllocOptions::Cancel) surface as AllocError.
/// allocateFunction is the one per-function fault-isolation boundary, used
/// by rapcc through allocateProgramChecked and by rapd's pool tasks: with
/// AllocOptions::FallbackOnError the failing function alone degrades to a
/// guaranteed-correct spill-everything allocation (see SpillEverything.h)
/// while every other function allocates normally.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCATOR_H
#define RAP_REGALLOC_ALLOCATOR_H

#include "ir/IlocFunction.h"
#include "ir/IlocProgram.h"
#include "regalloc/AllocOutcome.h"
#include "regalloc/FaultInjection.h"
#include "support/Deadline.h"

#include <string>

namespace rap {

namespace telemetry {
class Telemetry;
class FunctionScope;
} // namespace telemetry

enum class AllocatorKind {
  None, ///< leave virtual registers (reference runs)
  Gra,
  Rap,
};

/// The largest k that rapcc and rapd accept from outside the program.
/// colorGraph's per-color vectors, the cleanup's slot x register bit sets
/// and the interpreter's register frames all grow with k; nothing in the
/// repository uses more than 32.
constexpr unsigned MaxK = 256;

struct AllocOptions {
  unsigned K = 5; ///< number of physical registers (paper uses 3, 5, 7, 9)

  /// RAP phase 2 (spill-code movement out of loops). Ablation toggle.
  bool SpillMovement = true;

  /// RAP phase 3 (Figure 6 peephole). Ablation toggle.
  bool Peephole = true;

  /// Dataflow extension of phase 3 (cross-block redundant-reload and dead
  /// spill-store elimination; the paper's §5 future work). Ablation toggle.
  bool GlobalCleanup = true;

  /// Worker threads for allocateProgramChecked. Functions are allocated
  /// independently; 0 or 1 means serial. Results are byte-identical to a
  /// serial run (stats aggregate in function order) regardless of the value.
  unsigned Threads = 1;

  /// Ablation: also run the Figure 6 peephole on GRA output (the paper does
  /// not; this isolates how much of RAP's win the cleanup alone provides).
  bool PeepholeForGra = false;

  /// Extension (paper §5 future work): conservative Briggs coalescing of
  /// copies, applied by whichever allocator runs. Off for Table 1, which
  /// reproduces the paper's no-coalescing setup.
  bool Coalesce = false;

  //===------------------------------------------------------------------===//
  // Robustness controls (see DESIGN.md "Robustness architecture").
  //===------------------------------------------------------------------===//

  /// Spill/color round budget: per region for RAP, per function for GRA.
  /// Exceeding it raises AllocError(NonConvergence) instead of looping.
  unsigned MaxSpillRounds = 100;

  /// Cap on one interference graph's adjacency footprint in bytes
  /// (InterferenceGraph::memoryBytes); 0 = unlimited. Exceeding it raises
  /// AllocError(ResourceLimit) instead of growing without bound.
  size_t MaxGraphBytes = 0;

  /// The compile's one stop condition: a cooperative cancel token checked
  /// by both allocators at their round boundaries. Its deadline bounds the
  /// wall clock of everything that shares the token (a rapd request, one
  /// fuzz configuration's compile). An expired deadline raises
  /// AllocError(DeadlineExceeded), an explicit cancel (graceful drain)
  /// raises AllocError(Cancelled); both degrade cleanly through the
  /// spill-everything fallback. Wall-clock triggering is machine-dependent,
  /// so runs relying on byte-identical output leave it null or pair it with
  /// FallbackOnError (the fallback itself is deterministic). Null (the
  /// default, and the rapcc path) costs one pointer test per check.
  /// Excluded from cache fingerprints: like Threads, it never steers
  /// allocation decisions, only whether the run finishes.
  const CancelToken *Cancel = nullptr;

  /// Checked mode: run the independent AssignmentVerifier on the coloring
  /// before the physical rewrite; violations raise
  /// AllocError(VerifierReject). The spill-everything fallback self-checks
  /// the same way when this is set.
  bool VerifyAssignments = false;

  /// Per-function graceful degradation in allocateFunction: on AllocError
  /// the function's pristine body is restored and allocated with the
  /// guaranteed-correct spill-everything allocator; other functions are
  /// unaffected. When off, the error propagates (from
  /// allocateProgramChecked deterministically, lowest function index first).
  bool FallbackOnError = false;

  /// Deterministic fault injection for testing the degradation path. When
  /// empty, the process-wide RAP_FAULT_INJECT plan (if any) applies. The
  /// fallback allocator always runs fault-free.
  FaultPlan Faults;

  //===------------------------------------------------------------------===//
  // Telemetry (see support/Stats.h and DESIGN.md §9). Null pointers mean
  // disabled: every instrumentation point inlines to a pointer test and
  // the hot paths allocate nothing.
  //===------------------------------------------------------------------===//

  /// Program-level registry. allocateFunction gives each function a
  /// FunctionScope sharing this registry's epoch and commits it keyed by
  /// function index, so the aggregate (and trace content modulo
  /// timestamps/lane ids) is identical at any thread count. Once every
  /// function is done allocateProgramChecked sets the registry's named
  /// counters, a view of the program's AllocStats total.
  telemetry::Telemetry *Telem = nullptr;

  /// Per-function sink consumed by allocateGra/allocateRap (phase timers
  /// and the per-region slice log; counts go to AllocStats). Set internally
  /// by the program driver; set it directly only when calling the
  /// per-function entry points yourself.
  telemetry::FunctionScope *Scope = nullptr;
};

/// Round-boundary guard shared by GRA and RAP: throws AllocError once the
/// cancel token requests a stop (its deadline expired, or a drain cancel).
/// The throw leaves the function at an IR-consistent boundary so the
/// spill-everything fallback applies.
inline void checkAllocBudget(const AllocOptions &Options,
                             const std::string &Function, int Region = -1) {
  if (Options.Cancel && Options.Cancel->stopRequested()) {
    bool DeadlineHit = Options.Cancel->expired();
    throwAllocError(DeadlineHit ? AllocErrorKind::DeadlineExceeded
                                : AllocErrorKind::Cancelled,
                    DeadlineHit ? "request deadline exceeded"
                                : "request cancelled (server drain)",
                    Function, Region);
  }
}

/// Allocates registers for \p F with the baseline allocator. \p F must be
/// unallocated. Throws AllocError on failure.
AllocStats allocateGra(IlocFunction &F, const AllocOptions &Options);

/// Allocates registers for \p F with RAP. Throws AllocError on failure.
AllocStats allocateRap(IlocFunction &F, const AllocOptions &Options);

/// Allocates function \p I of \p Prog with \p Kind (Gra or Rap), isolated
/// from the rest of the program. With Options.FallbackOnError, any
/// AllocError (or std::exception) from the allocator discards the
/// half-edited body, puts a pristine clone taken up front back in slot
/// \p I, and allocates that with the spill-everything fallback; the outcome
/// records the error's kind and text. Without it the error propagates. A
/// throw from the fallback itself always propagates. \p Worker is the
/// telemetry lane. Safe to call concurrently for distinct \p I.
AllocOutcome allocateFunction(IlocProgram &Prog, unsigned I,
                              AllocatorKind Kind, const AllocOptions &Options,
                              unsigned Worker = 0);

/// Allocates every function of \p Prog with \p Kind (no-op for None),
/// returning per-function outcomes plus stats aggregated in function order.
/// Worker-thread failures are captured per function slot; with
/// Options.FallbackOnError the affected functions degrade in place,
/// otherwise the lowest-index failure is rethrown after the pool joins.
ProgramAllocResult allocateProgramChecked(IlocProgram &Prog,
                                          AllocatorKind Kind,
                                          const AllocOptions &Options);

/// Parses "gra"/"rap"/"none" (for tools).
AllocatorKind allocatorKindFromString(const std::string &Name);

} // namespace rap

#endif // RAP_REGALLOC_ALLOCATOR_H
