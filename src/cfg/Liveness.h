//===- cfg/Liveness.h - Block-level liveness --------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness dataflow over virtual registers. This is the single
/// liveness oracle shared by both allocators: interference construction,
/// the region-level live-in/live-out queries of RAP's calc_spill_costs
/// (paper Figure 5), and spill-code placement all read from here.
///
/// Only the block-level Use/Def/In/Out sets are solved and stored. A
/// per-position answer is derived on demand: the first query in a block
/// walks that block backward from its Out set and keeps the sets it passes,
/// packed in one buffer per block, until the object is discarded. Answers
/// are views into those buffers and the block sets, valid as long as the
/// object. The walk reads a snapshot of each
/// position's definition and uses taken at construction, not the
/// instructions themselves: RAP's lazy refresh renames operands in place
/// and still queries the old solution, which must keep answering for the
/// code it was built from. The cache makes queries non-const underneath,
/// so one Liveness must not be queried from two threads at once.
///
/// Because structured regions are single-entry and fall through to their
/// linear successor, LiveIn(region) = liveBefore(LinBegin) and
/// LiveOut(region) = liveBefore(LinEnd).
///
/// Liveness is computed once per function and *reused* across code edits:
/// given a previous solution, the constructor re-seeds the block-level
/// fixpoint from it, resetting only the registers whose block use/def sets
/// changed (liveness is bitwise-independent per register, so untouched
/// registers are already at their least fixpoint). Spill insertion edits
/// straight-line code only, so the block structure — and therefore the old
/// solution's shape — survives; when it does not (block count or branch
/// structure changed), the constructor falls back to a cold solve. Setting
/// RAP_VERIFY_LIVENESS in the environment cross-checks every incremental
/// result against a cold recompute.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CFG_LIVENESS_H
#define RAP_CFG_LIVENESS_H

#include "cfg/Cfg.h"
#include "ir/RegionTree.h"
#include "support/BitVector.h"

#include <cassert>
#include <vector>

namespace rap {

class Liveness {
public:
  /// Computes liveness for \p Code (a linearization of a function with
  /// \p NumVRegs virtual registers) over \p G, which must outlive this
  /// object. When \p Prev (a solution for the same function before an
  /// edit, whose Cfg is still alive) is given, the fixpoint warm-starts
  /// from it and consumes its block sets; the result is exactly the cold
  /// solution.
  Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs,
           Liveness *Prev = nullptr);

  /// Registers live immediately before instruction position \p Pos. The
  /// position may equal the instruction count (function end: empty set).
  BitSetView liveBefore(unsigned Pos) const;

  /// Registers live immediately after instruction position \p Pos. For a
  /// block terminator this is the union of the successors' live-ins, not the
  /// live-before of the next linear position.
  BitSetView liveAfter(unsigned Pos) const;

  /// Region-level queries (see file comment).
  BitSetView liveInOf(const PdgNode &Region) const {
    return liveBefore(Region.LinBegin);
  }
  BitSetView liveOutOf(const PdgNode &Region) const {
    return liveBefore(Region.LinEnd);
  }

  /// Walks block \p B backward from its Out set with one running set,
  /// calling \p Fn(Pos, LiveAfter) for each position from the block's last
  /// to its first. Stores nothing: a caller that visits every position once
  /// (a whole-function graph build) pays no per-position sets.
  template <typename FnT> void walkBlock(unsigned B, FnT &&Fn) const {
    const BasicBlock &BB = Graph->block(B);
    BitVector Live = Out[B];
    for (unsigned P = BB.End; P-- > BB.Begin;) {
      Fn(P, static_cast<const BitVector &>(Live));
      if (DefAt[P] != NoReg)
        Live.reset(DefAt[P]);
      for (unsigned U = UseBegin[P]; U != UseBegin[P + 1]; ++U)
        Live.set(Uses[U]);
    }
    assert(Live == In[B] && "backward walk disagrees with block dataflow");
  }

  /// True when the last construction reused a previous block solution
  /// instead of solving from scratch (exposed for tests).
  bool reusedPreviousSolution() const { return WarmStarted; }

  /// Equal block-level solutions; every per-position answer follows from
  /// them and the (identical) code.
  bool operator==(const Liveness &O) const {
    return In == O.In && Out == O.Out;
  }

private:
  void computeBlockSets(const LinearCode &Code, unsigned NumVRegs);
  /// Runs the backward fixpoint over In/Out from their current contents.
  void solve();
  /// True when \p Prev's solution has the same block structure and may seed
  /// this one.
  bool sameShape(const Liveness &Prev) const;
  /// The live-after set of position \p Pos of block \p B, which must not be
  /// the block's last; walks the block on the first call.
  BitSetView walkedAfter(unsigned B, unsigned Pos) const;

  const Cfg *Graph;
  /// Block-level sets, kept so the next computation can diff and re-seed
  /// from them.
  std::vector<BitVector> Use, Def, In, Out;
  /// Construction-time snapshot of the code: the register each position
  /// defines (NoReg if none), and its uses at
  /// Uses[UseBegin[P], UseBegin[P + 1]).
  std::vector<Reg> DefAt;
  std::vector<unsigned> UseBegin;
  std::vector<Reg> Uses;
  /// Per block, filled by walkedAfter(): the live-after sets of its
  /// positions but the last in one buffer, Begin + i's set at word
  /// i * Empty.numWords().
  mutable std::vector<std::vector<uint64_t>> Walked;
  BitVector Empty; ///< live before the function end
  bool WarmStarted = false;
};

} // namespace rap

#endif // RAP_CFG_LIVENESS_H
