//===- regalloc/AllocSupport.cpp - Shared allocator utilities --------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocSupport.h"

#include "regalloc/AllocError.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>

using namespace rap;

Liveness CodeInfo::timedLiveness(CodeInfo &CI, unsigned NumVRegs,
                                 Liveness *Prev) {
  auto Start = telemetry::Clock::now();
  Liveness L(CI.Code, CI.Graph, NumVRegs, Prev);
  CI.LivenessSeconds = telemetry::secondsSince(Start);
  return L;
}

RefInfo::RefInfo(const LinearCode &Code, unsigned NumVRegs) {
  unsigned E = static_cast<unsigned>(Code.Instrs.size());

  // Counting sort into CSR form: count per register, prefix-sum, then place
  // each position. The forward walk keeps positions ascending per register,
  // and an instruction using a register twice contributes one use position.
  UseStart.assign(NumVRegs + 1, 0);
  DefStart.assign(NumVRegs + 1, 0);
  auto FirstUseInInstr = [](const Instr *I, size_t J) {
    for (size_t K = 0; K != J; ++K)
      if (I->Src[K] == I->Src[J])
        return false;
    return true;
  };
  for (unsigned P = 0; P != E; ++P) {
    const Instr *I = Code.Instrs[P];
    for (size_t J = 0; J != I->Src.size(); ++J)
      if (FirstUseInInstr(I, J))
        ++UseStart[I->Src[J] + 1];
    if (I->hasDef())
      ++DefStart[I->Dst + 1];
  }
  for (unsigned R = 0; R != NumVRegs; ++R) {
    UseStart[R + 1] += UseStart[R];
    DefStart[R + 1] += DefStart[R];
  }
  UsePos.resize(UseStart[NumVRegs]);
  DefPos.resize(DefStart[NumVRegs]);
  std::vector<unsigned> UseNext(UseStart.begin(), UseStart.end() - 1);
  std::vector<unsigned> DefNext(DefStart.begin(), DefStart.end() - 1);
  for (unsigned P = 0; P != E; ++P) {
    const Instr *I = Code.Instrs[P];
    for (size_t J = 0; J != I->Src.size(); ++J)
      if (FirstUseInInstr(I, J))
        UsePos[UseNext[I->Src[J]]++] = P;
    if (I->hasDef())
      DefPos[DefNext[I->Dst]++] = P;
  }
}

static bool anyWithin(PosSpan Sorted, unsigned Begin, unsigned End) {
  auto It = std::lower_bound(Sorted.begin(), Sorted.end(), Begin);
  return It != Sorted.end() && *It < End;
}

static bool allWithin(PosSpan Sorted, unsigned Begin, unsigned End) {
  return Sorted.empty() ||
         (*Sorted.begin() >= Begin && *(Sorted.end() - 1) < End);
}

bool RefInfo::allRefsWithin(Reg R, unsigned Begin, unsigned End) const {
  return allWithin(usePositions(R), Begin, End) &&
         allWithin(defPositions(R), Begin, End);
}

bool RefInfo::usedWithin(Reg R, unsigned Begin, unsigned End) const {
  return anyWithin(usePositions(R), Begin, End);
}

bool RefInfo::definedWithin(Reg R, unsigned Begin, unsigned End) const {
  return anyWithin(defPositions(R), Begin, End);
}

std::vector<FlowDep> RefInfo::flowDeps(Reg R, const Cfg &G) const {
  std::vector<FlowDep> Out;
  PosSpan Defs = defPositions(R);
  PosSpan Uses = usePositions(R);
  if (Defs.empty() || Uses.empty())
    return Out;

  // The last definition of R in [Begin, End), or null.
  auto LastDefIn = [&](unsigned Begin, unsigned End) -> const unsigned * {
    const unsigned *It = std::lower_bound(Defs.begin(), Defs.end(), End);
    return It != Defs.begin() && *(It - 1) >= Begin ? It - 1 : nullptr;
  };

  // Definitions reaching the entry of the current block: every path back
  // from the entry ends at the first block defining R, whose last
  // definition is the one that reaches. Mark[B] == Walk means block B was
  // visited by the current walk.
  std::vector<unsigned> EntryDefs, Work, Mark;
  unsigned Walk = 0, EntryBlock = ~0u;
  auto WalkBack = [&](unsigned B) {
    if (Mark.empty())
      Mark.assign(G.numBlocks(), 0);
    ++Walk;
    EntryDefs.clear();
    Work.assign(G.block(B).Preds.begin(), G.block(B).Preds.end());
    while (!Work.empty()) {
      unsigned P = Work.back();
      Work.pop_back();
      if (Mark[P] == Walk)
        continue;
      Mark[P] = Walk;
      const BasicBlock &PB = G.block(P);
      if (const unsigned *D = LastDefIn(PB.Begin, PB.End))
        EntryDefs.push_back(*D);
      else
        Work.insert(Work.end(), PB.Preds.begin(), PB.Preds.end());
    }
  };

  for (unsigned U : Uses) {
    unsigned B = G.blockOf(U);
    // A use reads its operands before its own definition takes effect.
    if (const unsigned *D = LastDefIn(G.block(B).Begin, U)) {
      Out.push_back(FlowDep{*D, U, R});
      continue;
    }
    if (B != EntryBlock) {
      WalkBack(B);
      EntryBlock = B;
    }
    for (unsigned D : EntryDefs)
      Out.push_back(FlowDep{D, U, R});
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Spill-code writer
//===----------------------------------------------------------------------===//

Instr *rap::newSpillLoad(IlocFunction &F, Reg Dst, int Slot) {
  Instr *Ld = F.createInstr(Opcode::LdSpill);
  Ld->Dst = Dst;
  Ld->Slot = Slot;
  return Ld;
}

Instr *rap::newSpillStore(IlocFunction &F, Reg Src, int Slot) {
  Instr *St = F.createInstr(Opcode::StSpill);
  St->Slot = Slot;
  St->Src = {Src};
  return St;
}

CodeEditor::CodeEditor(IlocFunction &F, AllocStats &Stats)
    : F(F), Stats(Stats) {
  Owners.assign(F.numInstrIds(), Owner{});
  F.root()->forEachNode([&](const PdgNode *N) {
    if (!N->isStatement() && !N->isPredicate())
      return;
    auto *MutN = const_cast<PdgNode *>(N);
    for (Instr *I : N->Code)
      Owners[I->Id] = Owner{MutN, false};
    if (N->isPredicate() && N->Branch)
      Owners[N->Branch->Id] = Owner{MutN, true};
  });
}

CodeEditor::Owner CodeEditor::ownerOf(Instr *I) const {
  allocCheck(I->Id < Owners.size() && Owners[I->Id].N,
             AllocErrorKind::InvariantViolation,
             "anchor instruction not found in region tree");
  return Owners[I->Id];
}

void CodeEditor::setOwner(Instr *I, Owner O) {
  // Fresh spill instructions get ids past the construction-time arena size.
  if (I->Id >= Owners.size())
    Owners.resize(I->Id + 1, Owner{});
  Owners[I->Id] = O;
}

Instr *CodeEditor::reloadBeforeUse(Instr *User, Reg V, Reg Into, int Slot) {
  Instr *Ld = load(Into, Slot);
  insertNextTo(User, Ld, /*After=*/false);
  for (Reg &R : User->Src)
    if (R == V)
      R = Into;
  return Ld;
}

Instr *CodeEditor::storeAfterDef(Instr *Def, Reg From, int Slot) {
  Def->Dst = From;
  Instr *St = store(From, Slot);
  insertNextTo(Def, St, /*After=*/true);
  return St;
}

Instr *CodeEditor::reloadAtRegionEntry(PdgNode *V, Reg Into, int Slot) {
  Instr *Ld = load(Into, Slot);
  insertSpillNode(V, Ld, /*AtEntry=*/true);
  return Ld;
}

Instr *CodeEditor::storeAtRegionEntry(PdgNode *V, Reg From, int Slot) {
  Instr *St = store(From, Slot);
  insertSpillNode(V, St, /*AtEntry=*/true);
  return St;
}

Instr *CodeEditor::storeAtRegionExit(PdgNode *V, Reg From, int Slot) {
  Instr *St = store(From, Slot);
  insertSpillNode(V, St, /*AtEntry=*/false);
  return St;
}

void CodeEditor::insertNextTo(Instr *Anchor, Instr *NewI, bool After) {
  Owner O = ownerOf(Anchor);
  if (O.IsBranch) {
    allocCheck(!After, AllocErrorKind::InvariantViolation,
               "cannot insert after a branch");
    // The branch consumes the end of the predicate's condition code.
    O.N->Code.push_back(NewI);
  } else {
    auto It = std::find(O.N->Code.begin(), O.N->Code.end(), Anchor);
    allocCheck(It != O.N->Code.end(), AllocErrorKind::InvariantViolation,
               "owner map out of date");
    O.N->Code.insert(After ? It + 1 : It, NewI);
  }
  setOwner(NewI, Owner{O.N, false});
}

void CodeEditor::insertSpillNode(PdgNode *V, Instr *NewI, bool AtEntry) {
  allocCheck(V->isRegion(), AllocErrorKind::InvariantViolation,
             "spill node insertion needs a region");
  PdgNode *S = F.createNode(PdgNodeKind::Statement);
  S->Parent = V;
  S->Code.push_back(NewI);
  V->Children.insert(AtEntry ? V->Children.begin() : V->Children.end(), S);
  setOwner(NewI, Owner{S, false});
}

//===----------------------------------------------------------------------===//
// Graph accounting
//===----------------------------------------------------------------------===//

void rap::accountGraph(const InterferenceGraph &G, const AllocOptions &Options,
                       AllocStats &Stats, const std::string &Function,
                       int Region) {
  ++Stats.GraphBuilds;
  Stats.MaxGraphNodes = std::max(Stats.MaxGraphNodes, G.numAliveNodes());
  Stats.PeakGraphBytes = std::max(Stats.PeakGraphBytes, G.memoryBytes());
  if (Options.MaxGraphBytes && G.memoryBytes() > Options.MaxGraphBytes)
    throwAllocError(AllocErrorKind::ResourceLimit,
                    "interference graph needs " +
                        std::to_string(G.memoryBytes()) + " bytes (limit " +
                        std::to_string(Options.MaxGraphBytes) + ")",
                    Function, Region);
}
