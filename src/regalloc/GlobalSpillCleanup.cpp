//===- regalloc/GlobalSpillCleanup.cpp - Dataflow spill cleanup -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/GlobalSpillCleanup.h"

#include "regalloc/AllocError.h"
#include "regalloc/RegSlotMatrix.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "support/BitVector.h"
#include "support/Stats.h"

#include <utility>
#include <vector>

using namespace rap;

namespace {

/// Both passes over one linearization of a function. Deleting a spill load
/// or store never changes control flow, and a block that erasing would
/// empty has the identity transfer either way, so the passes mark what they
/// delete and skip it, and one erase at the end removes it all: every
/// iteration sees the facts a fresh linearization would give.
class Cleanup {
public:
  /// \p Code is \p F's nonempty linearization; \p Stats gets the counts.
  Cleanup(IlocFunction &F, LinearCode &&Code, unsigned NumSlots,
          AllocStats &Stats)
      : F(F), Code(std::move(Code)), G(this->Code),
        Dead(this->Code.Instrs.size(), 0), Stats(Stats) {
    unsigned NB = G.numBlocks(), K = F.numPhysRegs();
    In.assign(NB, RegSlotMatrix(K, NumSlots));
    Out.assign(NB, RegSlotMatrix(K, NumSlots));
    Meet = Cur = RegSlotMatrix(K, NumSlots);
    LiveIn.assign(NB, BitVector(NumSlots));
    LiveOut.assign(NB, BitVector(NumSlots));
    Use.assign(NB, BitVector(NumSlots));
    Def.assign(NB, BitVector(NumSlots));
    NewIn = NewOut = Live = BitVector(NumSlots);
  }

  /// Each pass returns how many instructions it deleted or rewrote.
  unsigned availableReloadPass();
  unsigned deadStorePass();

  /// Erases every instruction the passes deleted.
  void erase() {
    F.root()->eraseInstrs([&](const Instr *I) { return Dead[I->LinPos]; });
  }

private:
  IlocFunction &F;
  LinearCode Code;
  Cfg G;
  std::vector<char> Dead; ///< by linear position
  AllocStats &Stats;

  // Per-block sets and working sets, kept across the iterations.
  std::vector<RegSlotMatrix> In, Out;
  RegSlotMatrix Meet, Cur;
  std::vector<BitVector> LiveIn, LiveOut, Use, Def;
  BitVector NewIn, NewOut, Live;
};

/// Deletes reloads of values already held in registers (cross-block).
unsigned Cleanup::availableReloadPass() {
  unsigned Changes = 0;
  unsigned NB = G.numBlocks();
  for (unsigned B = 0; B != NB; ++B) {
    In[B].setAll();
    Out[B].setAll();
  }
  In[0].clear(); // nothing available at entry

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NB; ++B) {
      if (B != 0) {
        if (G.block(B).Preds.empty()) {
          Meet.clear();
        } else {
          Meet.setAll();
          for (unsigned P : G.block(B).Preds)
            Meet.meet(Out[P]);
        }
        if (Meet != In[B]) {
          In[B] = Meet;
          Changed = true;
        }
      }
      Cur = In[B];
      for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P)
        if (!Dead[P])
          Cur.transfer(Code.Instrs[P]);
      if (Cur != Out[B]) {
        Out[B] = Cur;
        Changed = true;
      }
    }
  }

  // Rewrite with the converged facts.
  for (unsigned B = 0; B != NB; ++B) {
    Cur = In[B];
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
      if (Dead[P])
        continue;
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill) {
        if (Cur.holds(I->Dst, I->Slot)) {
          Dead[P] = true;
          ++Changes;
          ++Stats.CleanupRemovedLoads;
          continue; // no transfer: the load was a no-op on the state
        }
        Reg R = Cur.lowestHolder(I->Slot);
        if (R != NoReg) {
          I->Op = Opcode::Mv;
          I->Src = {R};
          I->Slot = -1;
          ++Changes;
          ++Stats.CleanupRemovedLoads;
          ++Stats.CleanupLoadsToCopies;
        }
      } else if (I->Op == Opcode::StSpill && Cur.holds(I->Src[0], I->Slot)) {
        Dead[P] = true;
        ++Changes;
        ++Stats.CleanupRemovedStores;
        continue;
      }
      Cur.transfer(I);
    }
  }
  return Changes;
}

/// Deletes stores to spill slots that are never read again (slots die with
/// the activation frame).
unsigned Cleanup::deadStorePass() {
  unsigned NB = G.numBlocks();

  // Backward liveness of slots.
  for (unsigned B = 0; B != NB; ++B) {
    LiveIn[B].clear();
    LiveOut[B].clear();
    Use[B].clear();
    Def[B].clear();
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
      if (Dead[P])
        continue;
      const Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill && !Def[B].test(I->Slot))
        Use[B].set(I->Slot);
      else if (I->Op == Opcode::StSpill)
        Def[B].set(I->Slot);
    }
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NB; B-- > 0;) {
      NewOut.clear();
      for (unsigned S : G.block(B).Succs)
        NewOut.unionWith(LiveIn[S]);
      NewIn = NewOut;
      NewIn.subtract(Def[B]);
      NewIn.unionWith(Use[B]);
      if (NewOut != LiveOut[B] || NewIn != LiveIn[B]) {
        LiveOut[B] = NewOut;
        LiveIn[B] = NewIn;
        Changed = true;
      }
    }
  }

  unsigned Removed = 0;
  for (unsigned B = 0; B != NB; ++B) {
    Live = LiveOut[B];
    for (unsigned P = G.block(B).End; P-- > G.block(B).Begin;) {
      if (Dead[P])
        continue;
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::StSpill) {
        if (!Live.test(I->Slot)) {
          Dead[P] = true;
          ++Removed;
        }
        Live.reset(I->Slot);
      } else if (I->Op == Opcode::LdSpill) {
        Live.set(I->Slot);
      }
    }
  }
  Stats.CleanupRemovedStores += Removed;
  return Removed;
}

} // namespace

void rap::globalSpillCleanup(IlocFunction &F, AllocStats &Stats,
                             telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "cleanup");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "cleanup runs on physical code");
  ++Stats.CleanupIterations; // a function without spill code is one idle pass
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  if (NumSlots == 0)
    return;
  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return;

  // Each pass can expose work for the other (a deleted dead store frees a
  // reload; a deleted reload kills a store's last reader). Iterate to a
  // fixpoint. An iteration may delete nothing and only turn loads into
  // copies, but no load is converted twice, so the iterations end.
  Cleanup C(F, std::move(Code), NumSlots, Stats);
  for (;;) {
    unsigned Changes = C.availableReloadPass();
    Changes += C.deadStorePass();
    if (Changes == 0)
      break;
    ++Stats.CleanupIterations;
  }
  C.erase();
}
