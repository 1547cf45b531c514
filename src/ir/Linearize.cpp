//===- ir/Linearize.cpp - Region tree serialization -----------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"

#include <cassert>

using namespace rap;

namespace {

class Linearizer {
public:
  Linearizer(IlocFunction &F, LinearCode &Out) : F(F), Out(Out) {
    Out.LabelPos.assign(F.numLabels(), 0);
  }

  void run() {
    assert(F.root() && "function has no region tree");
    emitNode(F.root());
    for (unsigned I = 0, E = Out.Instrs.size(); I != E; ++I)
      Out.Instrs[I]->LinPos = I;
  }

private:
  void append(Instr *I) { Out.Instrs.push_back(I); }

  void bind(int Label) {
    assert(Label >= 0 && static_cast<unsigned>(Label) < Out.LabelPos.size() &&
           "label out of range");
    Out.LabelPos[Label] = static_cast<unsigned>(Out.Instrs.size());
  }

  void emitNode(PdgNode *N) {
    N->LinBegin = static_cast<unsigned>(Out.Instrs.size());
    switch (N->kind()) {
    case PdgNodeKind::Statement:
      for (Instr *I : N->Code)
        append(I);
      break;
    case PdgNodeKind::Predicate:
      emitPredicate(N);
      break;
    case PdgNodeKind::Region:
      emitRegion(N);
      break;
    }
    N->LinEnd = static_cast<unsigned>(Out.Instrs.size());
  }

  void emitRegion(PdgNode *R) {
    if (!R->IsLoop) {
      for (PdgNode *C : R->Children)
        emitNode(C);
      return;
    }
    // Loop region: pre-loop children, then the loop head (predicate), then
    // post-loop children. The back edge jumps to the loop head label, which
    // binds at the predicate, so pre-loop spill nodes execute once.
    unsigned PredIdx = R->loopPredicateIndex();
    for (unsigned I = 0; I != PredIdx; ++I)
      emitNode(R->Children[I]);
    emitNode(R->Children[PredIdx]);
    for (unsigned I = PredIdx + 1, E = R->Children.size(); I != E; ++I)
      emitNode(R->Children[I]);
  }

  void emitPredicate(PdgNode *P) {
    assert(P->Branch && "predicate without branch");
    bool IsLoop = P->Parent && P->Parent->isRegion() && P->Parent->IsLoop;
    if (IsLoop) {
      // JoinLabel is the loop head.
      bind(P->JoinLabel);
      for (Instr *I : P->Code)
        append(I);
      append(P->Branch);
      bind(P->TrueLabel);
      emitNode(P->TrueRegion);
      assert(P->Jump && "loop predicate without back edge");
      append(P->Jump); // jmp JoinLabel
      bind(P->FalseLabel);
      return;
    }
    // If / if-else.
    for (Instr *I : P->Code)
      append(I);
    append(P->Branch);
    bind(P->TrueLabel);
    emitNode(P->TrueRegion);
    if (P->FalseRegion) {
      assert(P->Jump && "if-else without join jump");
      append(P->Jump); // jmp JoinLabel
      bind(P->FalseLabel);
      emitNode(P->FalseRegion);
      bind(P->JoinLabel);
    } else {
      bind(P->FalseLabel);
    }
  }

  IlocFunction &F;
  LinearCode &Out;
};

} // namespace

LinearCode rap::linearize(IlocFunction &F) {
  LinearCode Out;
  Linearizer(F, Out).run();
  return Out;
}
