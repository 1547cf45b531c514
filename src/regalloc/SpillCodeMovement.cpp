//===- regalloc/SpillCodeMovement.cpp - RAP phase 2 --------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillCodeMovement.h"

#include "regalloc/AllocError.h"
#include "regalloc/AllocSupport.h"
#include "support/Stats.h"

#include <algorithm>
#include <vector>

using namespace rap;

namespace {

/// One slot's traffic inside the loop being decided.
struct SlotTraffic {
  Reg First = NoReg;      ///< lowest accessor: the name the slot moves under
  unsigned Accessors = 0; ///< distinct registers its ldm/stm write or read
  unsigned Loads = 0;
  unsigned Stores = 0;
  int Color = -1;       ///< the first accessor's final color
  bool OneColor = true; ///< every accessor has Color
  bool Moves = false;
};

class Mover {
public:
  Mover(IlocFunction &F, const InterferenceGraph &Final, AllocStats &Stats)
      : F(F), Final(Final), Stats(Stats), Traffic(F.numSpillSlots()),
        SlotStamp(F.numSpillSlots(), 0), RefStamp(F.numVRegs(), 0),
        AccessStamp(F.numVRegs(), 0), AccessSlot(F.numVRegs(), -1) {}

  void run() { walk(F.root()); }

private:
  void walk(PdgNode *N) {
    if (N->isRegion() && N->IsLoop) {
      processLoop(N); // recurses into the body after moving what it can
      return;
    }
    if (N->isPredicate()) {
      if (N->TrueRegion)
        walk(N->TrueRegion);
      if (N->FalseRegion)
        walk(N->FalseRegion);
      return;
    }
    if (N->isRegion())
      for (PdgNode *C : N->Children)
        walk(C);
  }

  void processLoop(PdgNode *L) {
    indexLoop(L);

    // All in-loop accessors of a slot are renamed pieces of one original
    // virtual register (paper §3.2 / Figure 7: "a single load for a may be
    // placed prior to the entrance ... and the two loads within the region
    // can be eliminated"). They may move together when they all received
    // the same physical register and that register belongs to them alone
    // inside the loop — the precise form of the paper's "was not combined
    // with another virtual register" condition, checked against the final
    // assignment. The accessors are among the loop's registers of their
    // color, so they are all of them exactly when the counts agree.
    bool AnyMove = false;
    for (int Slot : Slots) {
      SlotTraffic &T = Traffic[Slot];
      T.Moves = T.Color >= 0 && T.OneColor &&
                RegsOfColor[T.Color] == T.Accessors;
      AnyMove |= T.Moves;
    }

    // A register's spill code always uses its origin's one slot, so two
    // slots never share an accessor and no move can change another slot's
    // verdict: the verdicts above all hold on the code the moves leave.
    if (AnyMove) {
      moveOut(L);
      for (int Slot : Slots) {
        const SlotTraffic &T = Traffic[Slot];
        if (!T.Moves)
          continue;
        Stats.MovementRemovedLoads += T.Loads;
        Stats.MovementRemovedStores += T.Stores;
        insertPreLoopLoad(L, T.First, Slot);
        ++Stats.HoistedLoads;
        if (T.Stores) {
          insertPostLoopStore(L, T.First, Slot);
          ++Stats.SunkStores;
        }
      }
    }

    // Inner loops may still have movable traffic of other slots; each
    // indexes the code this loop's moves left.
    unsigned PredIdx = L->loopPredicateIndex();
    walk(L->Children[PredIdx]->TrueRegion);
  }

  /// One walk of \p L: counts, per color, the registers the loop references
  /// with that color, and collects each slot's in-loop traffic into Slots
  /// (ascending).
  void indexLoop(PdgNode *L) {
    ++Stamp;
    Slots.clear();
    std::fill(RegsOfColor.begin(), RegsOfColor.end(), 0);
    L->forEachInstr([&](Instr *I) {
      for (Reg R : I->Src)
        noteRef(R);
      if (I->hasDef())
        noteRef(I->Dst);
      if (I->Op == Opcode::LdSpill)
        noteAccess(I->Slot, I->Dst, /*IsStore=*/false);
      else if (I->Op == Opcode::StSpill)
        noteAccess(I->Slot, I->Src[0], /*IsStore=*/true);
    });
    std::sort(Slots.begin(), Slots.end());
  }

  void noteRef(Reg R) {
    if (RefStamp[R] == Stamp)
      return;
    RefStamp[R] = Stamp;
    int C = Final.colorOf(R);
    if (C < 0)
      return;
    if (static_cast<unsigned>(C) >= RegsOfColor.size())
      RegsOfColor.resize(C + 1, 0);
    ++RegsOfColor[C];
  }

  /// Counts one ldm or stm of \p Slot through \p R.
  void noteAccess(int Slot, Reg R, bool IsStore) {
    SlotTraffic &T = Traffic[Slot];
    if (SlotStamp[Slot] != Stamp) {
      SlotStamp[Slot] = Stamp;
      T = SlotTraffic();
      Slots.push_back(Slot);
    }
    ++(IsStore ? T.Stores : T.Loads);
    if (AccessStamp[R] == Stamp) {
      allocCheck(AccessSlot[R] == Slot, AllocErrorKind::InvariantViolation,
                 "a register's spill code uses two slots");
      return;
    }
    AccessStamp[R] = Stamp;
    AccessSlot[R] = Slot;
    int C = Final.colorOf(R);
    if (T.Accessors++ == 0) {
      T.First = R;
      T.Color = C;
    } else {
      T.First = std::min(T.First, R);
      T.OneColor &= C == T.Color;
    }
  }

  /// Renames every in-loop reference of a moving slot's accessors to its
  /// first accessor, and deletes the moving slots' in-loop loads and
  /// stores. Safe because each slot's accessors share one physical register
  /// that is exclusively theirs inside the loop.
  void moveOut(PdgNode *L) {
    auto Rename = [&](Reg &R) {
      if (AccessStamp[R] == Stamp && Traffic[AccessSlot[R]].Moves)
        R = Traffic[AccessSlot[R]].First;
    };
    L->forEachInstr([&](Instr *I) {
      for (Reg &R : I->Src)
        Rename(R);
      if (I->hasDef())
        Rename(I->Dst);
    });
    L->eraseInstrs([&](const Instr *I) {
      return (I->Op == Opcode::LdSpill || I->Op == Opcode::StSpill) &&
             Traffic[I->Slot].Moves;
    });
  }

  /// A fresh spill node immediately before the loop head: after any
  /// existing pre-loop children (region-entry stores must stay first).
  void insertPreLoopLoad(PdgNode *L, Reg VL, int Slot) {
    Instr *Ld = newSpillLoad(F, VL, Slot);
    PdgNode *SN = F.createNode(PdgNodeKind::Statement);
    SN->Parent = L;
    SN->Code.push_back(Ld);
    unsigned PredIdx = L->loopPredicateIndex();
    L->Children.insert(L->Children.begin() + PredIdx, SN);
  }

  /// A fresh spill node immediately after the loop exit: before any
  /// existing post-loop children (region-exit loads must stay last).
  void insertPostLoopStore(PdgNode *L, Reg VL, int Slot) {
    Instr *St = newSpillStore(F, VL, Slot);
    PdgNode *SN = F.createNode(PdgNodeKind::Statement);
    SN->Parent = L;
    SN->Code.push_back(St);
    unsigned PredIdx = L->loopPredicateIndex();
    L->Children.insert(L->Children.begin() + PredIdx + 1, SN);
  }

  IlocFunction &F;
  const InterferenceGraph &Final;
  AllocStats &Stats;

  // The index of the loop being decided. A per-slot or per-register entry
  // is current when its stamp equals Stamp, so a loop clears only the
  // per-color counts.
  unsigned Stamp = 0;
  std::vector<unsigned> RegsOfColor; ///< per color: registers referenced
  std::vector<int> Slots;            ///< slots with in-loop traffic, ascending
  std::vector<SlotTraffic> Traffic;  ///< per slot
  std::vector<unsigned> SlotStamp;   ///< per slot
  std::vector<unsigned> RefStamp;    ///< per register: referenced in the loop
  std::vector<unsigned> AccessStamp; ///< per register: accessor in the loop
  std::vector<int> AccessSlot;       ///< per register: the slot it accesses
};

} // namespace

void rap::moveSpillCodeOutOfLoops(IlocFunction &F,
                                  const InterferenceGraph &Final,
                                  AllocStats &Stats,
                                  telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "movement");
  unsigned Hoisted = Stats.HoistedLoads, Sunk = Stats.SunkStores;
  Mover(F, Final, Stats).run();
  Phase.arg("hoisted_loads", Stats.HoistedLoads - Hoisted);
  Phase.arg("sunk_stores", Stats.SunkStores - Sunk);
}
