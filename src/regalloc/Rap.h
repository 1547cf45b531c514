//===- regalloc/Rap.h - Hierarchical PDG allocator --------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAP, the paper's contribution: register allocation over the PDG region
/// hierarchy. Phase 1 (§3.1) walks the region tree bottom-up; each region
/// builds an interference graph from its own code (add_region_conflicts)
/// plus the combined graphs of its subregions (add_subregion_conflicts,
/// Figure 4), computes spill costs (Figure 5), colors with the Briggs
/// scheme, spills locally when needed, and finally combines same-colored
/// nodes so the parent sees at most k summary nodes. Register assignment
/// happens at the entry region. Phase 2 (§3.2) moves spill code out of
/// loops; phase 3 (§3.3) is the Figure 6 peephole.
///
/// The class is exposed (rather than only the allocateRap() entry point) so
/// unit tests can drive individual stages against the paper's worked
/// examples (Figures 3-5).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_RAP_H
#define RAP_REGALLOC_RAP_H

#include "regalloc/AllocSupport.h"
#include "regalloc/Allocator.h"
#include "regalloc/InterferenceGraph.h"

#include <chrono>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace rap {

class RapAllocator {
public:
  RapAllocator(IlocFunction &F, const AllocOptions &Options);

  /// Runs all three phases and rewrites \p F to physical registers.
  AllocStats run();

  //===------------------------------------------------------------------===//
  // Stage entry points for unit tests.
  //===------------------------------------------------------------------===//

  /// Rebuilds linearization, liveness and reference maps after code edits.
  void refresh();

  /// Paper §3.1.1: add_region_conflicts + add_subregion_conflicts for
  /// region \p V. Subregions must already be allocated (their combined
  /// graphs saved).
  InterferenceGraph buildRegionGraph(PdgNode *V);

  /// Paper Figure 5: attaches a spill cost to every node of \p G.
  void calcSpillCosts(PdgNode *V, InterferenceGraph &G);

  /// Paper Figure 2: the full allocation loop for one region (recursing
  /// into subregions first). Returns the region's colored graph.
  InterferenceGraph allocRegion(PdgNode *V);

  const std::map<const PdgNode *, InterferenceGraph> &savedGraphs() const {
    return SavedGraphs;
  }
  const CodeInfo &codeInfo() const { return *CI; }
  const RefInfo &refInfo() const { return *Refs; }
  const AllocStats &stats() const { return Stats; }

  /// True if some reference of \p R lies outside \p V's subtree ("global to
  /// the region", paper §3.1).
  bool isGlobalTo(Reg R, const PdgNode *V) const;

private:
  /// A set of registers as a dense Reg-indexed flag vector. Lookups past
  /// the end read as absent and never grow it.
  class RegSet {
  public:
    bool count(Reg R) const { return R < Flags.size() && Flags[R]; }
    /// Adds \p R; returns true if it was absent.
    bool insert(Reg R) {
      if (R >= Flags.size())
        Flags.resize(R + 1, 0);
      bool Absent = !Flags[R];
      Flags[R] = 1;
      return Absent;
    }

  private:
    std::vector<char> Flags;
  };

  void spillQueueRun(std::vector<std::pair<Reg, PdgNode *>> Queue);

  /// Applies the paper's §3.1.4 spill-code insertion for \p V in region
  /// \p R: loads/stores with fresh atomic ranges at the parent level,
  /// rename + boundary loads/stores in referencing subregions, and the
  /// recursive outside-the-region fixup (stores after outside definitions
  /// that reach the region, loads before outside uses that its definitions
  /// reach). When the rewrite would be a pure rename (the register's uses
  /// are confined to subregions with no boundary traffic), defers to the
  /// owning subregions via \p Deferred instead. Returns true if code
  /// changed.
  bool trySpill(Reg V, PdgNode *R,
                std::vector<std::pair<Reg, PdgNode *>> &Deferred);

  /// Interrupts \p V's live range at every reference in the function (the
  /// fixpoint of the paper's outside-the-region recursion). Used for
  /// registers that are live across a region but referenced elsewhere — the
  /// paper's "first candidates for spilling" — whose pressure cannot be
  /// relieved by local rewrites.
  bool spillEverywhere(Reg V);

  void renameInSubtree(PdgNode *S, Reg OldReg, Reg NewReg);
  int slotOf(Reg V);
  bool hasSlot(Reg Origin) const {
    return Origin < SlotOf.size() && SlotOf[Origin] >= 0;
  }

  /// The number of distinct origins of \p V-global registers among the
  /// members of \p Nodes of \p G, capped at 2.
  unsigned globalOrigins(const InterferenceGraph &G, const PdgNode *V,
                         std::initializer_list<unsigned> Nodes) const;

  /// Raises AllocError(ResourceLimit) once the wall-clock budget
  /// (Options.MaxAllocSeconds) is spent. Checked at round boundaries.
  void checkTimeBudget(int Region);

  IlocFunction &F;
  AllocOptions Options;
  AllocStats Stats;

  /// This run's fault-injection state (disarmed unless a plan names us).
  FaultInjector Injector;
  std::chrono::steady_clock::time_point StartTime;

  std::unique_ptr<CodeInfo> CI;
  std::unique_ptr<RefInfo> Refs;

  /// Places all spill code. Its owner map stays current across spills (every
  /// phase-1 insertion goes through it), so it is built once per allocator.
  CodeEditor Editor;

  /// Combined interference graphs of completed regions. Non-loop entries
  /// are erased when their parent completes; loop graphs persist for spill
  /// movement (paper §3.1.5).
  std::map<const PdgNode *, InterferenceGraph> SavedGraphs;

  /// Registers already spilled per region (Figure 5's "spilled in V").
  std::map<const PdgNode *, std::set<Reg>> SpilledIn;

  /// Regions whose allocRegion loop is currently on the call stack; dirty
  /// re-allocation never targets these.
  std::set<const PdgNode *> InProgress;

  // SlotOf, GloballySpilled, NoSpill, OriginOf and NoMergeOrigins are dense
  // Reg-indexed vectors. Only spill rewrites grow them; graph builds and
  // spill-cost passes only read them.

  /// Spill slot per origin register, -1 = none yet.
  std::vector<int> SlotOf;
  RegSet GloballySpilled;
  std::set<Reg> ParamStoreDone;

  /// Registers whose references were edited since the last refresh(). Spill
  /// rewrites touch only the spilled register and fresh no-spill
  /// temporaries, so the CodeInfo/RefInfo snapshot remains valid for every
  /// other register; the spill queue refreshes lazily, only when the entry
  /// being processed names an edited register.
  std::set<Reg> EditedSinceRefresh;

  /// The function-entry stores that park spilled parameters. They must read
  /// the incoming register itself, so later spill rewrites of the same
  /// parameter skip them.
  std::map<Reg, Instr *> ParamStores;

  /// Atomic live ranges created by spill rewrites. Spilling them again can
  /// never help, so they carry infinite cost (above the paper's 999999 for
  /// merely-unprofitable nodes) and trySpill skips them.
  RegSet NoSpill;

  /// Spill rewrites split a register into renamed per-subregion pieces and
  /// atomic temporaries. All pieces map back to the original register here;
  /// the paper treats them as *the same virtual register*, so region graphs
  /// merge their nodes ("since these nodes represent the same virtual
  /// register, they are combined in the parent's interference graph",
  /// §3.1.1) — which is also what lets phase 2 move their loads as one.
  /// NoReg (or past the end) = unsplit.
  std::vector<Reg> OriginOf;

  /// The original register \p R descends from (identity when unsplit).
  Reg originOf(Reg R) const {
    return R < OriginOf.size() && OriginOf[R] != NoReg ? OriginOf[R] : R;
  }
  /// Records that the fresh register \p Piece is a piece of \p V's origin.
  void setOriginFrom(Reg Piece, Reg V) {
    Reg Origin = originOf(V);
    if (Piece >= OriginOf.size())
      OriginOf.resize(Piece + 1, NoReg);
    OriginOf[Piece] = Origin;
  }

  /// Origins whose pieces must stay in separate nodes: merging them
  /// produced a node that could neither color nor spill (no single color
  /// suits every piece), so the unit-allocation preference is abandoned for
  /// them.
  RegSet NoMergeOrigins;
  unsigned TotalSpillActions = 0;
};

} // namespace rap

#endif // RAP_REGALLOC_RAP_H
