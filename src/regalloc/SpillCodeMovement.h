//===- regalloc/SpillCodeMovement.h - RAP phase 2 ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP phase 2 (paper §3.2): a top-down pass that moves spill loads above
/// loops and spill stores below them. A slot's traffic may leave a loop
/// region when every register its in-loop loads and stores write or read
/// (its accessors, renamed pieces of one virtual register) received the
/// same final color, and no other register the loop references has that
/// color. That is the paper's condition that the register "was not
/// combined with another virtual register" in the loop, read off the final
/// assignment, so no saved loop graph is consulted. The accessors are then
/// renamed to one of them. Hoisted code lands in fresh spill nodes
/// immediately before the loop head and immediately after the loop exit,
/// the paper's "special spill nodes".
///
/// Outermost loops are processed first so spill code leaves an entire nest
/// when possible. Each loop is decided from one index of its code, built
/// after the enclosing loops' moves: per color, the registers the loop
/// references with it.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_SPILLCODEMOVEMENT_H
#define RAP_REGALLOC_SPILLCODEMOVEMENT_H

#include "ir/IlocFunction.h"
#include "regalloc/AllocOutcome.h"
#include "regalloc/InterferenceGraph.h"

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

/// Runs the movement pass over \p F (still in virtual registers, colored by
/// \p Final) and counts into \p Stats the pre-loop loads it inserts
/// (HoistedLoads), the post-loop stores (SunkStores) and the in-loop loads
/// and stores it deletes (MovementRemovedLoads/Stores). With a telemetry
/// \p Scope, the pass is timed as a "movement" slice.
void moveSpillCodeOutOfLoops(IlocFunction &F, const InterferenceGraph &Final,
                             AllocStats &Stats,
                             telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_SPILLCODEMOVEMENT_H
