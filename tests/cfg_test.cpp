//===- tests/cfg_test.cpp - CFG, dominators, liveness -------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cfg/Cfg.h"
#include "cfg/Dominators.h"
#include "cfg/Liveness.h"
#include "ir/Linearize.h"

#include "gtest/gtest.h"

using namespace rap;
using rap::test::compile;

namespace {

struct Built {
  std::unique_ptr<IlocProgram> Prog;
  IlocFunction *F = nullptr;
  LinearCode Code;
};

Built build(const std::string &Src, const char *Func = "main") {
  Built B;
  B.Prog = compile(Src, RegionGranularity::Merged);
  if (!B.Prog)
    return B;
  B.F = B.Prog->findFunction(Func);
  B.Code = linearize(*B.F);
  return B;
}

TEST(Cfg, StraightLineIsOneBlock) {
  Built B = build("int main() { int a = 1; int b = a + 2; return b; }");
  Cfg G(B.Code);
  EXPECT_EQ(G.numBlocks(), 1u);
  EXPECT_TRUE(G.block(0).Succs.empty());
  ASSERT_EQ(G.exitBlocks().size(), 1u);
}

TEST(Cfg, IfElseMakesDiamond) {
  Built B = build(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; } else { a = 3; }
      return a;
    }
  )");
  Cfg G(B.Code);
  // entry, then, else, join.
  ASSERT_EQ(G.numBlocks(), 4u);
  EXPECT_EQ(G.block(0).Succs.size(), 2u);
  EXPECT_EQ(G.block(1).Succs, std::vector<unsigned>{3});
  EXPECT_EQ(G.block(2).Succs, std::vector<unsigned>{3});
  EXPECT_EQ(G.block(3).Preds.size(), 2u);
}

TEST(Cfg, WhileLoopHasBackEdge) {
  Built B = build(R"(
    int main() {
      int i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(B.Code);
  // entry, head, body, exit.
  ASSERT_EQ(G.numBlocks(), 4u);
  const BasicBlock &Head = G.block(1);
  EXPECT_EQ(Head.Preds.size(), 2u) << "entry and back edge";
  EXPECT_EQ(G.block(2).Succs, std::vector<unsigned>{1});
}

TEST(Dominators, DiamondDominance) {
  Built B = build(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; } else { a = 3; }
      return a;
    }
  )");
  Cfg G(B.Code);
  DominatorTree Dom(G, /*Post=*/false);
  EXPECT_TRUE(Dom.dominates(0, 1));
  EXPECT_TRUE(Dom.dominates(0, 2));
  EXPECT_TRUE(Dom.dominates(0, 3));
  EXPECT_FALSE(Dom.dominates(1, 3)) << "join reachable around the then-arm";
  EXPECT_FALSE(Dom.dominates(2, 3));
  EXPECT_EQ(Dom.idom(3), 0);
  EXPECT_TRUE(Dom.dominates(2, 2)) << "dominance is reflexive";
}

TEST(Dominators, PostDominanceOfDiamond) {
  Built B = build(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; } else { a = 3; }
      return a;
    }
  )");
  Cfg G(B.Code);
  DominatorTree Post(G, /*Post=*/true);
  EXPECT_TRUE(Post.dominates(3, 0)) << "join postdominates entry";
  EXPECT_TRUE(Post.dominates(3, 1));
  EXPECT_FALSE(Post.dominates(1, 0)) << "arm is avoidable";
  EXPECT_EQ(Post.idom(1), 3);
}

TEST(Dominators, LoopHeaderDominatesBody) {
  Built B = build(R"(
    int main() {
      int i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(B.Code);
  DominatorTree Dom(G, false);
  EXPECT_TRUE(Dom.dominates(1, 2));
  EXPECT_FALSE(Dom.dominates(2, 1));
}

TEST(Liveness, StraightLineKillAndUse) {
  Built B = build("int main() { int a = 1; int b = a + 2; return b; }");
  Cfg G(B.Code);
  Liveness Live(B.Code, G, B.F->numVRegs());
  // Find the add instruction; its source (a) must be live before and the
  // result (b) live after.
  for (unsigned P = 0; P != B.Code.Instrs.size(); ++P) {
    const Instr *I = B.Code.Instrs[P];
    if (I->Op == Opcode::Add) {
      for (Reg R : I->Src)
        EXPECT_TRUE(Live.liveBefore(P).test(R));
      EXPECT_TRUE(Live.liveAfter(P).test(I->Dst));
      EXPECT_FALSE(Live.liveAfter(B.Code.Instrs.size() - 1)
                       .test(I->Dst))
          << "nothing lives after ret";
    }
  }
}

TEST(Liveness, LoopCarriedValueLiveAroundBackEdge) {
  Built B = build(R"(
    int main() {
      int i = 0;
      while (i < 5) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(B.Code);
  Liveness Live(B.Code, G, B.F->numVRegs());
  // i (vreg of the local) is live at the loop head on every path. Find the
  // cmp: its source i is live-before, and also live at the end of the body.
  for (unsigned P = 0; P != B.Code.Instrs.size(); ++P) {
    const Instr *I = B.Code.Instrs[P];
    if (I->Op == Opcode::CmpLT) {
      Reg IVar = I->Src[0];
      EXPECT_TRUE(Live.liveBefore(P).test(IVar));
      const BasicBlock &Body = G.block(2);
      EXPECT_TRUE(Live.liveAfter(Body.End - 1).test(IVar))
          << "live around the back edge";
    }
  }
}

TEST(Liveness, RegionLevelQueriesMatchStructure) {
  auto Prog = compile(R"(
    int main() {
      int keep = 7;
      int i = 0;
      while (i < 4) { i = i + 1; }
      return i + keep;
    }
  )", RegionGranularity::Merged);
  ASSERT_NE(Prog, nullptr);
  IlocFunction *F = Prog->findFunction("main");
  LinearCode Code = linearize(*F);
  Cfg G(Code);
  Liveness Live(Code, G, F->numVRegs());
  // Find the loop region: `keep` must be live into and out of it.
  const PdgNode *Loop = nullptr;
  F->root()->forEachNode([&](const PdgNode *N) {
    if (N->isRegion() && N->IsLoop)
      Loop = N;
  });
  ASSERT_NE(Loop, nullptr);
  unsigned LiveThrough = 0;
  Live.liveInOf(*Loop).forEach([&](unsigned R) {
    if (Live.liveOutOf(*Loop).test(R))
      ++LiveThrough;
  });
  EXPECT_GE(LiveThrough, 2u) << "keep and i are live through the loop";
}

TEST(Cfg, EarlyReturnCreatesMultipleExits) {
  Built B = build(R"(
    int f(int x) {
      if (x < 0) { return 0; }
      return x;
    }
  )", "f");
  Cfg G(B.Code);
  EXPECT_EQ(G.exitBlocks().size(), 2u);
}

} // namespace
