//===- pdg/DataDependence.cpp - Flow dependences ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "pdg/DataDependence.h"

#include "support/BitVector.h"

#include <algorithm>

using namespace rap;

DataDependence::DataDependence(const LinearCode &Code, const Cfg &G,
                               unsigned NumVRegs) {
  unsigned N = static_cast<unsigned>(Code.Instrs.size());

  // Number the definitions.
  std::vector<unsigned> DefPosOfId;   // def id -> instruction position
  std::vector<int> DefIdOfPos(N, -1); // instruction position -> def id
  std::vector<std::vector<unsigned>> DefsOfReg(NumVRegs);
  for (unsigned P = 0; P != N; ++P) {
    const Instr *I = Code.Instrs[P];
    if (!I->hasDef())
      continue;
    unsigned Id = static_cast<unsigned>(DefPosOfId.size());
    DefIdOfPos[P] = static_cast<int>(Id);
    DefPosOfId.push_back(P);
    DefsOfReg[I->Dst].push_back(Id);
  }
  unsigned NumDefs = static_cast<unsigned>(DefPosOfId.size());

  // Block-level gen/kill.
  unsigned NumBlocks = G.numBlocks();
  std::vector<BitVector> Gen(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Kill(NumBlocks, BitVector(NumDefs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = G.block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      if (!I->hasDef())
        continue;
      for (unsigned Other : DefsOfReg[I->Dst]) {
        Gen[B].reset(Other);
        Kill[B].set(Other);
      }
      Gen[B].set(static_cast<unsigned>(DefIdOfPos[P]));
    }
  }

  // Forward fixpoint.
  std::vector<BitVector> In(NumBlocks, BitVector(NumDefs));
  std::vector<BitVector> Out(NumBlocks, BitVector(NumDefs));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B != NumBlocks; ++B) {
      BitVector NewIn(NumDefs);
      for (unsigned P : G.block(B).Preds)
        NewIn.unionWith(Out[P]);
      BitVector NewOut = NewIn;
      NewOut.subtract(Kill[B]);
      NewOut.unionWith(Gen[B]);
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = std::move(NewIn);
        Out[B] = std::move(NewOut);
        Changed = true;
      }
    }
  }

  // Walk each block forward, pairing uses with their reaching definitions.
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = G.block(B);
    BitVector Reach = In[B];
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      for (Reg R : I->Src)
        for (unsigned DefId : DefsOfReg[R])
          if (Reach.test(DefId))
            Flows.push_back(FlowDep{DefPosOfId[DefId], P, R});
      if (I->hasDef()) {
        for (unsigned Other : DefsOfReg[I->Dst])
          Reach.reset(Other);
        Reach.set(static_cast<unsigned>(DefIdOfPos[P]));
      }
    }
  }

  std::sort(Flows.begin(), Flows.end());
  Flows.erase(std::unique(Flows.begin(), Flows.end()), Flows.end());
}

std::vector<unsigned> DataDependence::reachingDefs(unsigned UsePos,
                                                   Reg R) const {
  std::vector<unsigned> Out;
  for (const FlowDep &F : Flows)
    if (F.UsePos == UsePos && F.R == R)
      Out.push_back(F.DefPos);
  return Out;
}
