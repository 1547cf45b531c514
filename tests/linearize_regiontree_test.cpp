//===- tests/linearize_regiontree_test.cpp - Tree + emission -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Linearize.h"

#include "gtest/gtest.h"

using namespace rap;
using rap::test::compile;

namespace {

TEST(RegionTree, PerStatementWrapsEachStatement) {
  auto Prog = compile(R"(
    int main() {
      int a = 1;
      int b = 2;
      return a + b;
    }
  )", RegionGranularity::PerStatement);
  ASSERT_NE(Prog, nullptr);
  const PdgNode *Root = Prog->function(0)->root();
  // Each of the three statements gets its own region child (pdgcc style).
  ASSERT_EQ(Root->Children.size(), 3u);
  for (const PdgNode *C : Root->Children) {
    EXPECT_TRUE(C->isRegion());
    ASSERT_EQ(C->Children.size(), 1u);
    EXPECT_TRUE(C->Children[0]->isStatement());
  }
}

TEST(RegionTree, MergedAttachesStatementsDirectly) {
  auto Prog = compile(R"(
    int main() {
      int a = 1;
      int b = 2;
      return a + b;
    }
  )", RegionGranularity::Merged);
  ASSERT_NE(Prog, nullptr);
  const PdgNode *Root = Prog->function(0)->root();
  ASSERT_EQ(Root->Children.size(), 3u);
  for (const PdgNode *C : Root->Children)
    EXPECT_TRUE(C->isStatement());
}

TEST(RegionTree, Figure1ShapeForWhileWithIfElse) {
  // The paper's Figure 1: entry region R1 holds the init statement and the
  // loop region R2; the loop predicate P1 controls the body R3; the body
  // holds a statement, predicate P2 with arms R4/R5, and a statement.
  auto Prog = compile(R"(
    int main() {
      int i = 1;
      while (i < 10) {
        int j = i + 1;
        if (j == 7) { j = j + 2; } else { j = j - 1; }
        i = i + j;
      }
      return i;
    }
  )", RegionGranularity::Merged);
  ASSERT_NE(Prog, nullptr);
  const PdgNode *R1 = Prog->function(0)->root();
  ASSERT_EQ(R1->Children.size(), 3u); // init, loop, return
  const PdgNode *R2 = R1->Children[1];
  ASSERT_TRUE(R2->isRegion());
  EXPECT_TRUE(R2->IsLoop);
  ASSERT_EQ(R2->Children.size(), 1u);
  const PdgNode *P1 = R2->Children[0];
  ASSERT_TRUE(P1->isPredicate());
  const PdgNode *R3 = P1->TrueRegion;
  ASSERT_NE(R3, nullptr);
  ASSERT_EQ(R3->Children.size(), 3u); // j=..., if, i=...
  const PdgNode *P2 = R3->Children[1];
  ASSERT_TRUE(P2->isPredicate());
  EXPECT_NE(P2->TrueRegion, nullptr);
  EXPECT_NE(P2->FalseRegion, nullptr);

  // The parent code of the body contains only the statement instructions
  // (the if's condition belongs to P2 which is also at this level).
  std::vector<Instr *> PC;
  R3->forEachParentInstr([&](Instr *I) { PC.push_back(I); });
  EXPECT_FALSE(PC.empty());
  // The subregions of the body are exactly the two branch arms.
  std::vector<PdgNode *> Subs;
  R3->forEachSubregion([&](PdgNode *S) { Subs.push_back(S); });
  ASSERT_EQ(Subs.size(), 2u);
  EXPECT_EQ(Subs[0], P2->TrueRegion);
  EXPECT_EQ(Subs[1], P2->FalseRegion);
}

TEST(Linearize, SubtreeRangesAreContiguousAndNested) {
  auto Prog = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) {
        if (i > 1) { s = s + i; }
      }
      return s;
    }
  )");
  ASSERT_NE(Prog, nullptr);
  IlocFunction *F = Prog->function(0);
  LinearCode Code = linearize(*F);
  unsigned N = static_cast<unsigned>(Code.Instrs.size());
  F->root()->forEachNode([&](const PdgNode *Node) {
    EXPECT_LE(Node->LinBegin, Node->LinEnd);
    EXPECT_LE(Node->LinEnd, N);
    if (Node->Parent && Node->Parent->isRegion()) {
      EXPECT_GE(Node->LinBegin, Node->Parent->LinBegin);
      EXPECT_LE(Node->LinEnd, Node->Parent->LinEnd);
    }
  });
  EXPECT_EQ(F->root()->LinBegin, 0u);
  EXPECT_EQ(F->root()->LinEnd, N);
}

TEST(Linearize, LinPosMatchesStreamIndex) {
  auto Prog = compile("int main() { int a = 2; return a * a; }");
  ASSERT_NE(Prog, nullptr);
  LinearCode Code = linearize(*Prog->function(0));
  for (unsigned P = 0; P != Code.Instrs.size(); ++P)
    EXPECT_EQ(Code.Instrs[P]->LinPos, P);
}

TEST(Linearize, LoopEmitsCondBranchBody) {
  auto Prog = compile(R"(
    int main() {
      int i = 0;
      while (i < 2) { i = i + 1; }
      return i;
    }
  )");
  ASSERT_NE(Prog, nullptr);
  LinearCode Code = linearize(*Prog->function(0));
  // Find the cbr; the instruction stream must contain a jmp back to a label
  // at or before the cbr (the loop head).
  int CbrPos = -1, JmpPos = -1;
  for (unsigned P = 0; P != Code.Instrs.size(); ++P) {
    if (Code.Instrs[P]->Op == Opcode::Cbr)
      CbrPos = static_cast<int>(P);
    if (Code.Instrs[P]->Op == Opcode::Jmp)
      JmpPos = static_cast<int>(P);
  }
  ASSERT_GE(CbrPos, 0);
  ASSERT_GT(JmpPos, CbrPos);
  const Instr *Jmp = Code.Instrs[JmpPos];
  EXPECT_LE(Code.LabelPos[Jmp->Label0], static_cast<unsigned>(CbrPos))
      << "back edge targets the loop head";
}

TEST(Linearize, IfWithoutElseFallsThrough) {
  auto Prog = compile(R"(
    int main() {
      int a = 1;
      if (a > 0) { a = 2; }
      return a;
    }
  )");
  ASSERT_NE(Prog, nullptr);
  LinearCode Code = linearize(*Prog->function(0));
  for (const Instr *I : Code.Instrs)
    if (I->Op == Opcode::Cbr) {
      // The false label lands after the then-arm, which precedes return.
      EXPECT_GT(Code.LabelPos[I->Label1], Code.LabelPos[I->Label0]);
    }
}

TEST(Linearize, ReLinearizationIsIdempotent) {
  auto Prog = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { s = s + i; }
      return s;
    }
  )");
  ASSERT_NE(Prog, nullptr);
  LinearCode A = linearize(*Prog->function(0));
  LinearCode B = linearize(*Prog->function(0));
  ASSERT_EQ(A.Instrs.size(), B.Instrs.size());
  for (unsigned P = 0; P != A.Instrs.size(); ++P)
    EXPECT_EQ(A.Instrs[P], B.Instrs[P]);
  EXPECT_EQ(A.LabelPos, B.LabelPos);
}

TEST(RegionTree, ForEachInstrVisitsEverything) {
  auto Prog = compile(R"(
    int main() {
      int s = 0;
      if (s == 0) { s = 1; } else { s = 2; }
      while (s < 5) { s = s + 1; }
      return s;
    }
  )");
  ASSERT_NE(Prog, nullptr);
  IlocFunction *F = Prog->function(0);
  LinearCode Code = linearize(*F);
  unsigned Count = 0;
  F->root()->forEachInstr([&](Instr *) { ++Count; });
  EXPECT_EQ(Count, Code.Instrs.size());
}

} // namespace
