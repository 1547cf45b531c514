//===- regalloc/GlobalSpillCleanup.cpp - Dataflow spill cleanup -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/GlobalSpillCleanup.h"

#include "regalloc/AllocError.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "support/BitVector.h"
#include "support/Stats.h"

#include <cassert>
#include <set>
#include <vector>

using namespace rap;

namespace {

/// Forward availability state: bit (Slot * K + Reg) set means the register
/// holds the slot's current value.
class AvailState {
public:
  AvailState(unsigned NumSlots, unsigned K)
      : K(K), Bits(NumSlots * K) {}

  static AvailState top(unsigned NumSlots, unsigned K) {
    AvailState S(NumSlots, K);
    for (unsigned I = 0; I != NumSlots * K; ++I)
      S.Bits.set(I);
    return S;
  }

  bool has(int Slot, Reg R) const {
    return Bits.test(static_cast<unsigned>(Slot) * K + R);
  }
  void add(int Slot, Reg R) {
    Bits.set(static_cast<unsigned>(Slot) * K + R);
  }

  void killReg(Reg R) {
    for (unsigned S = 0; S * K < Bits.size(); ++S)
      Bits.reset(S * K + R);
  }
  void killSlot(int Slot) {
    for (unsigned R = 0; R != K; ++R)
      Bits.reset(static_cast<unsigned>(Slot) * K + R);
  }

  /// Copy `Dst = Src`: Dst now holds whatever slots Src holds.
  void copy(Reg Dst, Reg Src) {
    std::vector<unsigned> Slots;
    for (unsigned S = 0; S * K < Bits.size(); ++S)
      if (Bits.test(S * K + Src))
        Slots.push_back(S);
    killReg(Dst);
    for (unsigned S : Slots)
      Bits.set(S * K + Dst);
  }

  bool meet(const AvailState &Other) { return Bits.intersectWith(Other.Bits); }
  bool operator==(const AvailState &O) const { return Bits == O.Bits; }

  /// Applies \p I's effect.
  void transfer(const Instr *I) {
    switch (I->Op) {
    case Opcode::LdSpill:
      killReg(I->Dst);
      add(I->Slot, I->Dst);
      return;
    case Opcode::StSpill:
      killSlot(I->Slot);
      add(I->Slot, I->Src[0]);
      return;
    case Opcode::Mv:
      copy(I->Dst, I->Src[0]);
      return;
    default:
      if (I->hasDef())
        killReg(I->Dst);
      return;
    }
  }

private:
  unsigned K;
  BitVector Bits;
};

/// Deletes reloads of values already held in registers (cross-block).
GlobalCleanupResult availableReloadPass(IlocFunction &F) {
  GlobalCleanupResult Res;
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  unsigned K = F.numPhysRegs();
  if (NumSlots == 0)
    return Res;

  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return Res;
  Cfg G(Code);
  unsigned NB = G.numBlocks();

  std::vector<AvailState> In(NB, AvailState::top(NumSlots, K));
  std::vector<AvailState> Out(NB, AvailState::top(NumSlots, K));
  In[0] = AvailState(NumSlots, K); // nothing available at entry

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NB; ++B) {
      if (B != 0) {
        AvailState NewIn = AvailState::top(NumSlots, K);
        bool HasPred = false;
        for (unsigned P : G.block(B).Preds) {
          NewIn.meet(Out[P]);
          HasPred = true;
        }
        if (!HasPred)
          NewIn = AvailState(NumSlots, K);
        if (!(NewIn == In[B])) {
          In[B] = NewIn;
          Changed = true;
        }
      }
      AvailState S = In[B];
      for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P)
        S.transfer(Code.Instrs[P]);
      if (!(S == Out[B])) {
        Out[B] = std::move(S);
        Changed = true;
      }
    }
  }

  // Rewrite with the converged facts.
  std::set<Instr *> Dead;
  for (unsigned B = 0; B != NB; ++B) {
    AvailState S = In[B];
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill) {
        if (S.has(I->Slot, I->Dst)) {
          Dead.insert(I);
          ++Res.RemovedLoads;
          continue; // no transfer: the load was a no-op on the state
        }
        for (unsigned R = 0; R != K; ++R)
          if (S.has(I->Slot, R)) {
            I->Op = Opcode::Mv;
            I->Src = {R};
            I->Slot = -1;
            ++Res.LoadsToCopies;
            break;
          }
      } else if (I->Op == Opcode::StSpill &&
                 S.has(I->Slot, I->Src[0])) {
        Dead.insert(I);
        ++Res.RemovedStores;
        continue;
      }
      S.transfer(I);
    }
  }

  if (!Dead.empty())
    F.root()->eraseInstrs(Dead);
  return Res;
}

/// Deletes stores to spill slots that are never read again (slots die with
/// the activation frame).
unsigned deadStorePass(IlocFunction &F) {
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  if (NumSlots == 0)
    return 0;
  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return 0;
  Cfg G(Code);
  unsigned NB = G.numBlocks();

  // Backward liveness of slots.
  std::vector<BitVector> LiveIn(NB, BitVector(NumSlots));
  std::vector<BitVector> LiveOut(NB, BitVector(NumSlots));
  std::vector<BitVector> Use(NB, BitVector(NumSlots));
  std::vector<BitVector> Def(NB, BitVector(NumSlots));
  for (unsigned B = 0; B != NB; ++B) {
    for (unsigned P = G.block(B).Begin; P != G.block(B).End; ++P) {
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
      BitVector NewOut(NumSlots);
      for (unsigned S : G.block(B).Succs)
        NewOut.unionWith(LiveIn[S]);
      BitVector NewIn = NewOut;
      NewIn.subtract(Def[B]);
      NewIn.unionWith(Use[B]);
      if (NewOut != LiveOut[B] || NewIn != LiveIn[B]) {
        LiveOut[B] = std::move(NewOut);
        LiveIn[B] = std::move(NewIn);
        Changed = true;
      }
    }
  }

  std::set<Instr *> Dead;
  for (unsigned B = 0; B != NB; ++B) {
    BitVector Live = LiveOut[B];
    for (unsigned P = G.block(B).End; P-- > G.block(B).Begin;) {
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::StSpill) {
        if (!Live.test(I->Slot))
          Dead.insert(I);
        Live.reset(I->Slot);
      } else if (I->Op == Opcode::LdSpill) {
        Live.set(I->Slot);
      }
    }
  }

  if (!Dead.empty())
    F.root()->eraseInstrs(Dead);
  return static_cast<unsigned>(Dead.size());
}

} // namespace

GlobalCleanupResult rap::globalSpillCleanup(IlocFunction &F,
                                            telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "cleanup");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "cleanup runs on physical code");
  GlobalCleanupResult Total;
  // Each pass can expose work for the other (a deleted dead store frees a
  // reload; a deleted reload kills a store's last reader). Iterate to a
  // fixpoint; each iteration strictly removes instructions, so this
  // terminates.
  for (;;) {
    GlobalCleanupResult R = availableReloadPass(F);
    unsigned DeadStores = deadStorePass(F);
    Total.RemovedLoads += R.RemovedLoads;
    Total.LoadsToCopies += R.LoadsToCopies;
    Total.RemovedStores += R.RemovedStores + DeadStores;
    ++Total.Iterations;
    if (R.RemovedLoads + R.LoadsToCopies + R.RemovedStores + DeadStores == 0)
      break;
  }
  return Total;
}
