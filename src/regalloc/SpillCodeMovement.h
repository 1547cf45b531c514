//===- regalloc/SpillCodeMovement.h - RAP phase 2 ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP phase 2 (paper §3.2): a top-down pass that moves spill loads above
/// loops and spill stores below them. A slot's traffic may leave a loop
/// region when (a) all accesses inside the loop are through a single virtual
/// register, (b) that register was not combined with another one in the
/// loop's saved interference graph — the paper's condition, meaning the
/// register's color belongs to it alone inside the loop — and (c) no other
/// virtual register referenced in the loop received the same final color
/// (which guards the hierarchy against a parent-level first-fit merge of two
/// non-interfering loop nodes). Hoisted code lands in fresh spill nodes
/// immediately before the loop head and immediately after the loop exit,
/// the paper's "special spill nodes".
///
/// Outermost loops are processed first so spill code leaves an entire nest
/// when possible.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_SPILLCODEMOVEMENT_H
#define RAP_REGALLOC_SPILLCODEMOVEMENT_H

#include "ir/IlocFunction.h"
#include "regalloc/InterferenceGraph.h"

#include <map>

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

struct MovementResult {
  unsigned HoistedLoads = 0;  ///< pre-loop loads inserted
  unsigned SunkStores = 0;    ///< post-loop stores inserted
  unsigned RemovedLoads = 0;  ///< in-loop loads deleted
  unsigned RemovedStores = 0; ///< in-loop stores deleted

  unsigned removedOps() const { return RemovedLoads + RemovedStores; }
};

/// Runs the movement pass over \p F (still in virtual registers, colored by
/// \p Final). \p SavedGraphs must contain the combined interference graph
/// of every loop region. With a telemetry \p Scope, the pass is timed as a
/// "movement" slice.
MovementResult moveSpillCodeOutOfLoops(
    IlocFunction &F, const InterferenceGraph &Final,
    const std::map<const PdgNode *, InterferenceGraph> &SavedGraphs,
    telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_SPILLCODEMOVEMENT_H
