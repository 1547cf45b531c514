//===- tests/liveness_oracle_test.cpp - On-demand liveness ------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness stores only block sets and answers a per-position query by
/// walking the queried block backward from its Out set. Checked here:
///
///  * against an independent per-instruction fixpoint (no blocks, no Cfg,
///    no BitVector) at every position and for every region, on every
///    Table 1 function before allocation and on the spill-edited code RAP's
///    phase 1 leaves at k=3 — the two snapshots flow_deps_test uses;
///  * the warm-started solution RAP's phase 1 ends on equals a cold one,
///    position by position;
///  * the snapshot contract: an operand renamed in place after construction
///    (RAP's lazy refresh does this) does not change what a block not yet
///    walked answers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/BenchPrograms.h"
#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "ir/Linearize.h"
#include "regalloc/AllocSupport.h"
#include "regalloc/Rap.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace rap;
using rap::test::compile;

namespace {

using LiveSet = std::vector<char>; ///< indexed by register

/// Live-before and live-after of every position by a round-robin fixpoint
/// over instruction-level successors.
struct InstrLevelLiveness {
  std::vector<LiveSet> Before; ///< N + 1 entries; Before[N] is empty
  std::vector<LiveSet> After;

  InstrLevelLiveness(const LinearCode &Code, unsigned NumVRegs) {
    unsigned N = static_cast<unsigned>(Code.Instrs.size());
    Before.assign(N + 1, LiveSet(NumVRegs, 0));
    After.assign(N, LiveSet(NumVRegs, 0));
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned P = N; P-- > 0;) {
        const Instr *I = Code.Instrs[P];
        LiveSet A(NumVRegs, 0);
        for (unsigned S : successors(Code, P))
          for (unsigned R = 0; R != NumVRegs; ++R)
            A[R] |= Before[S][R];
        LiveSet B = A;
        if (I->hasDef())
          B[I->Dst] = 0;
        for (Reg R : I->Src)
          B[R] = 1;
        if (A != After[P] || B != Before[P]) {
          After[P] = std::move(A);
          Before[P] = std::move(B);
          Changed = true;
        }
      }
    }
  }

  /// Positions control may reach right after \p P; position N is the
  /// function end.
  static std::vector<unsigned> successors(const LinearCode &Code,
                                          unsigned P) {
    const Instr *I = Code.Instrs[P];
    switch (I->Op) {
    case Opcode::Jmp:
      return {Code.LabelPos[I->Label0]};
    case Opcode::Cbr:
      return {Code.LabelPos[I->Label0], Code.LabelPos[I->Label1]};
    case Opcode::Ret:
    case Opcode::Halt:
      return {};
    default:
      return {P + 1};
    }
  }
};

LiveSet toLiveSet(BitSetView S, unsigned NumVRegs) {
  LiveSet Out(NumVRegs, 0);
  for (unsigned R = 0; R != NumVRegs; ++R)
    Out[R] = R < S.size() && S.test(R);
  return Out;
}

/// Every per-position and region query of \p Live equals the oracle's.
/// Regions are queried first, so blocks get walked in tree order rather
/// than linear order. Returns the number of positions checked.
unsigned expectMatchesOracle(const Liveness &Live, const LinearCode &Code,
                             IlocFunction &F, const std::string &What) {
  unsigned NumVRegs = F.numVRegs();
  InstrLevelLiveness Oracle(Code, NumVRegs);
  F.root()->forEachNode([&](const PdgNode *N) {
    if (!N->isRegion())
      return;
    EXPECT_EQ(toLiveSet(Live.liveInOf(*N), NumVRegs),
              Oracle.Before[N->LinBegin])
        << What << ": live-in of region " << N->Id;
    EXPECT_EQ(toLiveSet(Live.liveOutOf(*N), NumVRegs),
              Oracle.Before[N->LinEnd])
        << What << ": live-out of region " << N->Id;
  });
  unsigned N = static_cast<unsigned>(Code.Instrs.size());
  for (unsigned P = 0; P <= N; ++P)
    EXPECT_EQ(toLiveSet(Live.liveBefore(P), NumVRegs), Oracle.Before[P])
        << What << ": before " << P;
  for (unsigned P = N; P-- > 0;)
    EXPECT_EQ(toLiveSet(Live.liveAfter(P), NumVRegs), Oracle.After[P])
        << What << ": after " << P;
  return N;
}

TEST(LivenessOracle, MatchesInstructionFixpointOnTable1) {
  unsigned Positions = 0;
  for (const BenchProgram &P : benchPrograms()) {
    auto Prog = compile(P.Source);
    ASSERT_NE(Prog, nullptr) << P.Name;
    for (const auto &F : Prog->functions()) {
      LinearCode Code = linearize(*F);
      Cfg G(Code);
      Liveness Live(Code, G, F->numVRegs());
      Positions += expectMatchesOracle(Live, Code, *F,
                                       std::string(P.Name) + " " + F->name());
    }
  }
  EXPECT_GT(Positions, 1000u);
}

TEST(LivenessOracle, MatchesInstructionFixpointAfterRapPhase1AtK3) {
  unsigned Warm = 0;
  for (const BenchProgram &P : benchPrograms()) {
    auto Prog = compile(P.Source);
    ASSERT_NE(Prog, nullptr) << P.Name;
    for (const auto &F : Prog->functions()) {
      AllocOptions Options;
      Options.K = 3;
      RapAllocator RA(*F, Options);
      RA.allocRegion(F->root());
      // Phase 1 ends on a fresh snapshot of the edited code.
      const CodeInfo &CI = RA.codeInfo();
      std::string What =
          std::string(P.Name) + " " + F->name() + " after phase 1";
      expectMatchesOracle(CI.Live, CI.Code, *F, What);
      if (!CI.Live.reusedPreviousSolution())
        continue;
      ++Warm;
      Liveness Cold(CI.Code, CI.Graph, F->numVRegs());
      EXPECT_TRUE(CI.Live == Cold) << What;
      for (unsigned Pos = 0, E = static_cast<unsigned>(CI.Code.Instrs.size());
           Pos != E; ++Pos) {
        EXPECT_EQ(CI.Live.liveBefore(Pos), Cold.liveBefore(Pos))
            << What << ": before " << Pos;
        EXPECT_EQ(CI.Live.liveAfter(Pos), Cold.liveAfter(Pos))
            << What << ": after " << Pos;
      }
    }
  }
  EXPECT_GT(Warm, 10u) << "k=3 should leave warm-started solutions to check";
}

TEST(LivenessSnapshot, InPlaceRenameDoesNotChangeUnwalkedBlocks) {
  auto Prog = compile(R"(
    int main() {
      int a = 1;
      int b = 2;
      int s = 0;
      while (a < 10) { s = s + b; a = a + 1; }
      return s + b;
    }
  )", RegionGranularity::Merged);
  ASSERT_NE(Prog, nullptr);
  IlocFunction *F = Prog->findFunction("main");
  LinearCode Code = linearize(*F);
  Cfg G(Code);
  unsigned NumVRegs = F->numVRegs();
  unsigned N = static_cast<unsigned>(Code.Instrs.size());

  // The construction-time answers, read before any edit.
  std::vector<BitVector> Before, After;
  {
    Liveness Reference(Code, G, NumVRegs);
    for (unsigned P = 0; P <= N; ++P)
      Before.emplace_back(Reference.liveBefore(P));
    for (unsigned P = 0; P != N; ++P)
      After.emplace_back(Reference.liveAfter(P));
  }

  Liveness Live(Code, G, NumVRegs);
  // Walk the entry block, then rename a use past the first position of a
  // later block to a register the solution has never seen, as a spill
  // rewrite does between refreshes.
  (void)Live.liveAfter(G.block(0).Begin);
  Instr *Renamed = nullptr;
  for (unsigned B = G.numBlocks(); B-- > 1 && !Renamed;) {
    const BasicBlock &BB = G.block(B);
    if (BB.End - BB.Begin < 2)
      continue;
    for (unsigned P = BB.End; P-- > BB.Begin + 1;)
      if (!Code.Instrs[P]->Src.empty()) {
        Renamed = Code.Instrs[P];
        break;
      }
  }
  ASSERT_NE(Renamed, nullptr);
  Renamed->Src[0] = F->newVReg();

  for (unsigned P = 0; P <= N; ++P)
    EXPECT_EQ(Live.liveBefore(P), Before[P]) << "before " << P;
  for (unsigned P = 0; P != N; ++P)
    EXPECT_EQ(Live.liveAfter(P), After[P]) << "after " << P;
}

} // namespace
