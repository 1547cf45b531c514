//===- regalloc/Peephole.h - Figure 6 spill cleanup -------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP phase 3 (paper §3.3, Figure 6): a per-basic-block cleanup of
/// redundant spill loads/stores that the hierarchical allocation can leave
/// behind when renamed pieces of one virtual register land in the same
/// physical register. A forward scan tracks which physical registers hold
/// the current value of which spill slot; it subsumes the paper's five
/// patterns:
///
///   (1) ldm r2,s ... ldm r2,s          -> second load deleted
///   (2) ldm r2,s ... ldm r3,s          -> second load becomes mv r3,r2
///   (3) ldm r2,s ... stm s,r2          -> store deleted
///   (4) stm s,r2 ... ldm r2,s          -> load deleted
///   (5) stm s,r2 ... mv r3,r2 ... stm s,r3 -> second store deleted
///
/// (each "..." contains no redefinition of the registers involved and no
/// other store to the slot). Spill slots are frame-local, so calls and
/// global-memory operations do not invalidate the tracked equivalences.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_PEEPHOLE_H
#define RAP_REGALLOC_PEEPHOLE_H

#include "ir/IlocFunction.h"
#include "regalloc/AllocOutcome.h"

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

/// Runs the cleanup over every basic block of \p F, which must already be
/// rewritten to physical registers, and counts into \p Stats the ldm it
/// deletes (PeepholeRemovedLoads, patterns 1 and 4), the stm it deletes
/// (PeepholeRemovedStores, patterns 3 and 5) and the ldm it rewrites to mv
/// (PeepholeLoadsToCopies, pattern 2). With a telemetry \p Scope, the pass
/// is timed as a "peephole" slice.
void peepholeSpillCleanup(IlocFunction &F, AllocStats &Stats,
                          telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_PEEPHOLE_H
