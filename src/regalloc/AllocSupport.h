//===- regalloc/AllocSupport.h - Shared allocator utilities -----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by GRA and RAP: the analysis bundle recomputed after
/// every code edit (linearization, CFG, liveness), per-register reference
/// maps, the spill-code writer, and the per-graph accounting and size
/// guard.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCSUPPORT_H
#define RAP_REGALLOC_ALLOCSUPPORT_H

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "ir/IlocFunction.h"
#include "ir/Linearize.h"
#include "pdg/DataDependence.h"
#include "regalloc/Allocator.h"
#include "regalloc/InterferenceGraph.h"

#include <string>
#include <vector>

namespace rap {

/// Linearization + CFG + liveness of one function. Invalidated by any code
/// edit; allocators rebuild it after each spill round, passing the stale
/// CodeInfo so the liveness fixpoint warm-starts from the previous block
/// solution instead of solving from scratch (see Liveness). Liveness keeps
/// only block sets and walks a block on its first per-position query, so a
/// rebuild costs the block-level solve, not a set per instruction.
struct CodeInfo {
  LinearCode Code;
  Cfg Graph;
  double LivenessSeconds = 0; ///< wall time of the Liveness construction
  Liveness Live;

  /// \p Prev's liveness block sets are consumed; callers replace the old
  /// CodeInfo with this one immediately after.
  explicit CodeInfo(IlocFunction &F, CodeInfo *Prev = nullptr)
      : Code(linearize(F)), Graph(Code),
        Live(timedLiveness(*this, F.numVRegs(),
                           Prev ? &Prev->Live : nullptr)) {}

private:
  static Liveness timedLiveness(CodeInfo &CI, unsigned NumVRegs,
                                Liveness *Prev);
};

/// A view of consecutive linear positions (ascending) in RefInfo's flat
/// storage.
struct PosSpan {
  const unsigned *First = nullptr;
  const unsigned *Last = nullptr;
  const unsigned *begin() const { return First; }
  const unsigned *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
};

/// Use/def positions per virtual register over one linearization. Stored in
/// compressed-sparse-row form — two flat arrays, not one heap vector per
/// register — because a RefInfo is rebuilt on every refresh after a spill.
class RefInfo {
public:
  RefInfo(const LinearCode &Code, unsigned NumVRegs);

  PosSpan usePositions(Reg R) const {
    return {UsePos.data() + UseStart[R], UsePos.data() + UseStart[R + 1]};
  }
  PosSpan defPositions(Reg R) const {
    return {DefPos.data() + DefStart[R], DefPos.data() + DefStart[R + 1]};
  }

  bool isReferenced(Reg R) const {
    return !usePositions(R).empty() || !defPositions(R).empty();
  }

  /// True if every reference of \p R lies in the linear range
  /// [\p Begin, \p End) — i.e. R is *local* to the region covering that
  /// range (paper §3.1). Checks only the ends of the sorted spans.
  bool allRefsWithin(Reg R, unsigned Begin, unsigned End) const;

  /// True if some use/def of \p R lies in [\p Begin, \p End).
  bool usedWithin(Reg R, unsigned Begin, unsigned End) const;
  bool definedWithin(Reg R, unsigned Begin, unsigned End) const;
  bool referencedWithin(Reg R, unsigned Begin, unsigned End) const {
    return usedWithin(R, Begin, End) || definedWithin(R, Begin, End);
  }

  /// The flow dependences of \p R over \p G (the CFG of the linearization
  /// this RefInfo indexes), sorted by (def, use): exactly the entries for
  /// \p R of DataDependence::flowDeps(). A use reached by a definition
  /// earlier in its own block depends on the last such definition alone;
  /// otherwise a backward walk over predecessor blocks collects each
  /// block's last definition of \p R, walking past blocks that define
  /// none. No dataflow solve, and no scan of code that does not define or
  /// use \p R.
  std::vector<FlowDep> flowDeps(Reg R, const Cfg &G) const;

private:
  /// CSR layout: positions of register R occupy [Start[R], Start[R+1]) of
  /// the flat position array, ascending within each register.
  std::vector<unsigned> UseStart, DefStart;
  std::vector<unsigned> UsePos, DefPos;
};

/// Creates an unplaced `ldm` of spill slot \p Slot into \p Dst: the one
/// constructor of spill loads, used by CodeEditor and by phase 2's
/// loop-boundary loads.
Instr *newSpillLoad(IlocFunction &F, Reg Dst, int Slot);

/// Creates an unplaced `stm` of \p Src to spill slot \p Slot (see
/// newSpillLoad).
Instr *newSpillStore(IlocFunction &F, Reg Src, int Slot);

/// Writes the spill code of GRA, RAP and the spill-everything fallback into
/// a function's region tree. Each method creates one `ldm` or `stm`, places
/// it, counts it in the spill ledger (AllocStats::SpillLoadsInserted /
/// SpillStoresInserted) at creation, and returns it. Anchors must exist in
/// the tree. The owner map is indexed by the function-unique instruction
/// id, so lookups are O(1) and construction walks the tree once.
class CodeEditor {
public:
  CodeEditor(IlocFunction &F, AllocStats &Stats);

  /// Loads \p Slot into \p Into just before \p User and makes \p User read
  /// \p Into wherever it read \p V (a reload in place when they are equal).
  /// When \p User is a predicate's branch, the load goes at the end of the
  /// predicate's condition code.
  Instr *reloadBeforeUse(Instr *User, Reg V, Reg Into, int Slot);

  /// Makes \p Def define \p From and stores \p From to \p Slot just after
  /// it. \p Def must not be a branch.
  Instr *storeAfterDef(Instr *Def, Reg From, int Slot);

  /// Loads \p Slot into \p Into in a spill node at the entry of region \p V
  /// (before the loop head for loop regions — the paper's pre-loop spill
  /// node position).
  Instr *reloadAtRegionEntry(PdgNode *V, Reg Into, int Slot);

  /// Stores \p From to \p Slot in a spill node at the entry of region \p V:
  /// parks a parameter, whose value arrives in a register.
  Instr *storeAtRegionEntry(PdgNode *V, Reg From, int Slot);

  /// Stores \p From to \p Slot in a spill node at the exit of region \p V
  /// (after the loop for loop regions — the post-loop spill node).
  Instr *storeAtRegionExit(PdgNode *V, Reg From, int Slot);

private:
  struct Owner {
    PdgNode *N = nullptr; ///< statement or predicate node
    bool IsBranch = false;
  };
  Owner ownerOf(Instr *I) const;
  void setOwner(Instr *I, Owner O);

  Instr *load(Reg Dst, int Slot) {
    ++Stats.SpillLoadsInserted;
    return newSpillLoad(F, Dst, Slot);
  }
  Instr *store(Reg Src, int Slot) {
    ++Stats.SpillStoresInserted;
    return newSpillStore(F, Src, Slot);
  }

  /// Puts \p NewI just before or just \p After \p Anchor, in its owner.
  void insertNextTo(Instr *Anchor, Instr *NewI, bool After);
  /// Puts \p NewI in a fresh spill statement node, the first (\p AtEntry)
  /// or the last child of region \p V.
  void insertSpillNode(PdgNode *V, Instr *NewI, bool AtEntry);

  IlocFunction &F;
  AllocStats &Stats;
  std::vector<Owner> Owners; ///< indexed by Instr::Id
};

/// Counts a freshly built interference graph in \p Stats (GraphBuilds,
/// MaxGraphNodes, PeakGraphBytes) and raises AllocError(ResourceLimit) when
/// its footprint exceeds Options.MaxGraphBytes. Shared by GRA and RAP;
/// \p Region is -1 for GRA's whole-function graph.
void accountGraph(const InterferenceGraph &G, const AllocOptions &Options,
                  AllocStats &Stats, const std::string &Function,
                  int Region = -1);

} // namespace rap

#endif // RAP_REGALLOC_ALLOCSUPPORT_H
