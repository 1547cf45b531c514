//===- cfg/Liveness.cpp - Block-level liveness ------------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "cfg/Liveness.h"

#include "support/Env.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace rap;

namespace {
bool verifyLivenessEnv() {
  static const bool V = env::flag("RAP_VERIFY_LIVENESS");
  return V;
}
} // namespace

void Liveness::computeBlockSets(const LinearCode &Code, unsigned NumVRegs) {
  unsigned NumBlocks = Graph->numBlocks();
  Use.assign(NumBlocks, BitVector(NumVRegs));
  Def.assign(NumBlocks, BitVector(NumVRegs));
  size_t N = Code.Instrs.size();
  DefAt.resize(N);
  UseBegin.resize(N + 1);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = Graph->block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      const Instr *I = Code.Instrs[P];
      UseBegin[P] = static_cast<unsigned>(Uses.size());
      for (Reg R : I->Src) {
        Uses.push_back(R);
        if (!Def[B].test(R))
          Use[B].set(R);
      }
      DefAt[P] = I->Dst;
      if (I->hasDef())
        Def[B].set(I->Dst);
    }
  }
  UseBegin[N] = static_cast<unsigned>(Uses.size());
}

void Liveness::solve() {
  unsigned NumBlocks = Graph->numBlocks();
  BitVector NewOut(Use.empty() ? 0 : Use[0].size());
  BitVector NewIn(NewOut.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned BI = NumBlocks; BI-- > 0;) {
      NewOut.clear();
      for (unsigned S : Graph->block(BI).Succs)
        NewOut.unionWith(In[S]);
      NewIn = NewOut;
      NewIn.subtract(Def[BI]);
      NewIn.unionWith(Use[BI]);
      if (NewOut != Out[BI] || NewIn != In[BI]) {
        Out[BI] = NewOut;
        In[BI] = NewIn;
        Changed = true;
      }
    }
  }
}

bool Liveness::sameShape(const Liveness &Prev) const {
  if (Prev.Graph->numBlocks() != Graph->numBlocks())
    return false;
  for (unsigned B = 0, E = Graph->numBlocks(); B != E; ++B)
    if (Prev.Graph->block(B).Succs != Graph->block(B).Succs)
      return false;
  return true;
}

Liveness::Liveness(const LinearCode &Code, const Cfg &G, unsigned NumVRegs,
                   Liveness *Prev)
    : Graph(&G), Walked(G.numBlocks()), Empty(NumVRegs) {
  computeBlockSets(Code, NumVRegs);
  unsigned NumBlocks = G.numBlocks();
  if (Prev && sameShape(*Prev)) {
    // Liveness is independent per register bit: a register whose use/def
    // bits are identical in every block (over unchanged CFG edges) has the
    // same equations as before, so its old In/Out bits are already the
    // least fixpoint. Only registers with changed equations — including
    // every register created since Prev, whose old bits are zero — restart
    // from bottom; the fixpoint then re-converges in O(changed) work.
    BitVector ChangedRegs(NumVRegs);
    for (unsigned B = 0; B != NumBlocks; ++B) {
      ChangedRegs.unionWithXorOf(Use[B], Prev->Use[B]);
      ChangedRegs.unionWithXorOf(Def[B], Prev->Def[B]);
    }
    In = std::move(Prev->In);
    Out = std::move(Prev->Out);
    for (unsigned B = 0; B != NumBlocks; ++B) {
      In[B].growTo(NumVRegs);
      Out[B].growTo(NumVRegs);
      In[B].subtract(ChangedRegs);
      Out[B].subtract(ChangedRegs);
    }
    WarmStarted = true;
  } else {
    In.assign(NumBlocks, BitVector(NumVRegs));
    Out.assign(NumBlocks, BitVector(NumVRegs));
  }
  solve();

  if (WarmStarted && verifyLivenessEnv()) {
    Liveness Cold(Code, G, NumVRegs);
    if (!(*this == Cold)) {
      assert(false && "incremental liveness diverged from cold recompute");
      std::abort(); // keep the check meaningful even if NDEBUG sneaks in
    }
  }
}

BitSetView Liveness::walkedAfter(unsigned B, unsigned Pos) const {
  std::vector<uint64_t> &Sets = Walked[B];
  const BasicBlock &BB = Graph->block(B);
  size_t SetWords = BitSetView(Empty).numWords();
  if (Sets.empty() && SetWords != 0) {
    Sets.resize((BB.End - BB.Begin - 1) * SetWords);
    walkBlock(B, [&](unsigned P, const BitVector &LiveAfter) {
      if (P + 1 == BB.End)
        return;
      BitSetView V = LiveAfter;
      std::copy(V.words(), V.words() + SetWords,
                Sets.begin() + (P - BB.Begin) * SetWords);
    });
  }
  return {Sets.data() + (Pos - BB.Begin) * SetWords, Empty.size()};
}

BitSetView Liveness::liveBefore(unsigned Pos) const {
  if (Pos == DefAt.size())
    return Empty;
  unsigned B = Graph->blockOf(Pos);
  unsigned Begin = Graph->block(B).Begin;
  return Pos == Begin ? BitSetView(In[B]) : walkedAfter(B, Pos - 1);
}

BitSetView Liveness::liveAfter(unsigned Pos) const {
  unsigned B = Graph->blockOf(Pos);
  return Pos + 1 == Graph->block(B).End ? BitSetView(Out[B])
                                         : walkedAfter(B, Pos);
}
