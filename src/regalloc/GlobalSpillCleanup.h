//===- regalloc/GlobalSpillCleanup.h - Dataflow spill cleanup ---*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow generalization of RAP's phase 3. The paper's Figure 6
/// cleanup is basic-block local; its §5 future work asks for "better
/// placement of spill code" across region boundaries. Two classic, sound
/// passes on physical code deliver exactly that for the frame-local spill
/// slots (which nothing else can alias):
///
/// * Available-reload elimination: a forward dataflow tracks which physical
///   registers hold the current value of which slot across block
///   boundaries; a reload whose value is already in the target register is
///   deleted, one available in another register becomes a copy.
/// * Dead spill-store elimination: a backward dataflow finds stores to
///   slots that can never be read again (spill slots die with the frame).
///
/// Both passes are toggled separately from the Figure 6 peephole so the
/// ablation bench can measure the paper-exact configuration against the
/// extended one.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_GLOBALSPILLCLEANUP_H
#define RAP_REGALLOC_GLOBALSPILLCLEANUP_H

#include "ir/IlocFunction.h"

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

struct GlobalCleanupResult {
  unsigned RemovedLoads = 0;
  unsigned LoadsToCopies = 0;
  unsigned RemovedStores = 0;
  unsigned Iterations = 0; ///< fixpoint iterations, the final idle one too
};

/// Runs both dataflow passes to a fixpoint over \p F, which must be in
/// physical registers. Returns the number of removed/rewritten operations.
/// With a telemetry \p Scope, the pass is timed as a "cleanup" slice.
GlobalCleanupResult globalSpillCleanup(IlocFunction &F,
                                       telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_GLOBALSPILLCLEANUP_H
