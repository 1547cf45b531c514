//===- tests/movement_gra_test.cpp - Phase 2 movement and GRA details ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "regalloc/Allocator.h"
#include "regalloc/SpillCodeMovement.h"

#include "gtest/gtest.h"

#include <utility>
#include <vector>

using namespace rap;
using rap::test::compile;

namespace {

/// High register pressure around a loop that references a value spilled
/// outside it: the canonical spill-code-movement scenario (paper §3.2).
const char *HoistSource = R"(
  int out;
  int main() {
    int k1 = 11; int k2 = 22; int k3 = 33; int k4 = 44; int k5 = 55;
    int acc = 0;
    for (int i = 0; i < 50; i = i + 1) {
      acc = acc + k1;         /* k1 is hot inside the loop */
    }
    out = acc + k1 + k2 + k3 + k4 + k5;
    return out;
  }
)";

TEST(SpillMovement, LoopTrafficLeavesTheLoop) {
  // Run RAP with and without phase 2 at a small k; movement must not
  // increase executed spill operations, and the result must be identical.
  int64_t Want = 0;
  {
    CompileOptions Ref;
    RunResult R = compileAndRun(HoistSource, Ref);
    ASSERT_TRUE(R.Ok);
    Want = R.ReturnValue.asInt();
  }
  uint64_t SpillOps[2];
  for (int WithMove = 0; WithMove <= 1; ++WithMove) {
    CompileOptions O;
    O.Allocator = AllocatorKind::Rap;
    O.Alloc.K = 3;
    O.Alloc.SpillMovement = WithMove;
    O.Alloc.Peephole = false;
    O.Alloc.GlobalCleanup = false;
    RunResult R = compileAndRun(HoistSource, O);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue.asInt(), Want);
    SpillOps[WithMove] = R.Stats.SpillLoads + R.Stats.SpillStores;
  }
  EXPECT_LE(SpillOps[1], SpillOps[0])
      << "movement never adds executed spill traffic";
}

TEST(SpillMovement, AllBenchConfigsStayCorrectWithoutLaterPhases) {
  // Phase 2 in isolation (no cleanup phases to mask bugs).
  for (const char *Src : {HoistSource}) {
    CompileOptions Ref;
    RunResult RefRun = compileAndRun(Src, Ref);
    ASSERT_TRUE(RefRun.Ok);
    for (unsigned K : {3u, 4u, 5u}) {
      CompileOptions O;
      O.Allocator = AllocatorKind::Rap;
      O.Alloc.K = K;
      O.Alloc.Peephole = false;
      O.Alloc.GlobalCleanup = false;
      RunResult R = compileAndRun(Src, O);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt())
          << "k=" << K;
    }
  }
}

//===----------------------------------------------------------------------===//
// The movement rule on hand-built loops and colorings
//===----------------------------------------------------------------------===//

/// A function in virtual registers with loop regions built by hand, and a
/// final graph that gives each register its color (one node per register).
struct LoopFunction {
  IlocFunction F{"test"};
  InterferenceGraph Final;

  LoopFunction() {
    F.setRoot(F.createNode(PdgNodeKind::Region));
    for (int I = 0; I != 4; ++I)
      F.newSpillSlot();
    for (int I = 0; I != 32; ++I)
      F.newVReg();
  }

  PdgNode *stmt(PdgNode *Region) {
    PdgNode *S = F.createNode(PdgNodeKind::Statement);
    S->Parent = Region;
    Region->Children.push_back(S);
    return S;
  }

  /// Appends a loop region to \p Region whose predicate branches on
  /// \p Cond; returns the loop region. Its body is bodyOf(loop).
  PdgNode *loop(PdgNode *Region, Reg Cond) {
    PdgNode *L = F.createNode(PdgNodeKind::Region);
    L->IsLoop = true;
    L->Parent = Region;
    Region->Children.push_back(L);
    PdgNode *P = F.createNode(PdgNodeKind::Predicate);
    P->Parent = L;
    L->Children.push_back(P);
    P->Branch = F.createInstr(Opcode::Cbr);
    P->Branch->Src = {Cond};
    P->TrueRegion = F.createNode(PdgNodeKind::Region);
    P->TrueRegion->Parent = P;
    return L;
  }
  static PdgNode *bodyOf(PdgNode *L) {
    return L->Children[L->loopPredicateIndex()]->TrueRegion;
  }

  Instr *emit(PdgNode *S, Opcode Op, Reg Dst, std::vector<Reg> Src,
              int Slot = -1) {
    Instr *I = F.createInstr(Op);
    I->Dst = Dst;
    I->Src = Src;
    I->Slot = Slot;
    S->Code.push_back(I);
    return I;
  }

  void color(Reg R, int C) { Final.node(Final.getOrCreateNode(R)).Color = C; }

  AllocStats run() {
    AllocStats Stats;
    moveSpillCodeOutOfLoops(F, Final, Stats);
    return Stats;
  }

  /// The spill loads (or stores) of \p Slot in \p N's subtree.
  static unsigned spillOps(const PdgNode *N, Opcode Op, int Slot) {
    unsigned Count = 0;
    N->forEachInstr([&](Instr *I) { Count += I->Op == Op && I->Slot == Slot; });
    return Count;
  }
};

TEST(SpillMovementRule, SlotsWhoseAccessorsShareAColorStay) {
  LoopFunction B;
  PdgNode *L = B.loop(B.F.root(), 20);
  PdgNode *S = B.stmt(LoopFunction::bodyOf(L));
  B.emit(S, Opcode::LdSpill, 10, {}, 0);
  B.emit(S, Opcode::Add, 12, {10, 10});
  B.emit(S, Opcode::LdSpill, 11, {}, 1);
  B.emit(S, Opcode::Add, 13, {11, 11});
  for (auto [R, C] :
       {std::pair{10u, 0}, {11u, 0}, {12u, 1}, {13u, 1}, {20u, 2}})
    B.color(R, C);
  AllocStats R = B.run();
  EXPECT_EQ(R.HoistedLoads, 0u);
  EXPECT_EQ(R.MovementRemovedLoads + R.MovementRemovedStores, 0u);
  EXPECT_EQ(LoopFunction::spillOps(L, Opcode::LdSpill, 0), 1u);
  EXPECT_EQ(LoopFunction::spillOps(L, Opcode::LdSpill, 1), 1u);
}

TEST(SpillMovementRule, AnotherInLoopRegisterOfTheColorBlocksTheMove) {
  LoopFunction B;
  PdgNode *L = B.loop(B.F.root(), 20);
  PdgNode *S = B.stmt(LoopFunction::bodyOf(L));
  B.emit(S, Opcode::LdSpill, 10, {}, 0);
  B.emit(S, Opcode::Add, 11, {10, 10}); // r11 is no accessor of s0
  for (auto [R, C] : {std::pair{10u, 0}, {11u, 0}, {20u, 2}})
    B.color(R, C);
  AllocStats R = B.run();
  EXPECT_EQ(R.HoistedLoads, 0u);
  EXPECT_EQ(R.MovementRemovedLoads + R.MovementRemovedStores, 0u);
  EXPECT_EQ(LoopFunction::spillOps(L, Opcode::LdSpill, 0), 1u);
}

TEST(SpillMovementRule, TheColorUsedOnlyOutsideTheLoopLetsTheSlotMove) {
  LoopFunction B;
  PdgNode *Before = B.stmt(B.F.root());
  B.emit(Before, Opcode::LoadI, 11, {}); // color 0, outside the loop
  PdgNode *L = B.loop(B.F.root(), 20);
  PdgNode *S = B.stmt(LoopFunction::bodyOf(L));
  B.emit(S, Opcode::LdSpill, 10, {}, 0);
  Instr *Piece = B.emit(S, Opcode::Add, 15, {10, 10}); // r15: another piece
  B.emit(S, Opcode::StSpill, NoReg, {15}, 0);
  PdgNode *After = B.stmt(B.F.root());
  Instr *Use = B.emit(After, Opcode::Add, 12, {11, 11});
  for (auto [R, C] : {std::pair{10u, 0}, {11u, 0}, {15u, 0}, {12u, 1},
                      {20u, 2}})
    B.color(R, C);
  AllocStats R = B.run();
  EXPECT_EQ(R.HoistedLoads, 1u);
  EXPECT_EQ(R.SunkStores, 1u);
  EXPECT_EQ(R.MovementRemovedLoads, 1u);
  EXPECT_EQ(R.MovementRemovedStores, 1u);
  // The accessors are renamed to the lowest one; code outside is untouched.
  EXPECT_EQ(Piece->Dst, 10u);
  EXPECT_EQ(Use->Src[0], 11u);
  // ldm before the loop head, the loop, stm after the exit.
  unsigned P = L->loopPredicateIndex();
  ASSERT_EQ(L->Children.size(), 3u);
  ASSERT_EQ(P, 1u);
  ASSERT_EQ(L->Children[0]->Code.size(), 1u);
  EXPECT_EQ(L->Children[0]->Code[0]->Op, Opcode::LdSpill);
  EXPECT_EQ(L->Children[0]->Code[0]->Dst, 10u);
  ASSERT_EQ(L->Children[2]->Code.size(), 1u);
  EXPECT_EQ(L->Children[2]->Code[0]->Op, Opcode::StSpill);
  EXPECT_EQ(L->Children[2]->Code[0]->Src[0], 10u);
  EXPECT_EQ(LoopFunction::spillOps(LoopFunction::bodyOf(L), Opcode::LdSpill, 0),
            0u);
  EXPECT_EQ(LoopFunction::spillOps(LoopFunction::bodyOf(L), Opcode::StSpill, 0),
            0u);
}

TEST(SpillMovementRule, AnInnerLoopIsDecidedOnTheCodeTheOuterMoveLeft) {
  // s0 leaves the whole nest; s2's color is also used in the outer body,
  // so s2 leaves only the inner loop.
  LoopFunction B;
  PdgNode *Outer = B.loop(B.F.root(), 20);
  PdgNode *OuterBody = LoopFunction::bodyOf(Outer);
  B.emit(B.stmt(OuterBody), Opcode::LoadI, 16, {}); // color 1
  PdgNode *Inner = B.loop(OuterBody, 21);
  PdgNode *S = B.stmt(LoopFunction::bodyOf(Inner));
  B.emit(S, Opcode::LdSpill, 10, {}, 0);
  B.emit(S, Opcode::LdSpill, 12, {}, 2);
  B.emit(S, Opcode::Add, 13, {10, 12});
  for (auto [R, C] : {std::pair{10u, 0}, {12u, 1}, {16u, 1}, {13u, 2},
                      {20u, 2}, {21u, 2}})
    B.color(R, C);
  AllocStats R = B.run();
  EXPECT_EQ(R.HoistedLoads, 2u);
  EXPECT_EQ(R.MovementRemovedLoads, 2u);
  EXPECT_EQ(R.SunkStores, 0u);
  // One load of s0, before the outer loop; one of s2, before the inner.
  ASSERT_EQ(Outer->loopPredicateIndex(), 1u);
  EXPECT_EQ(LoopFunction::spillOps(Outer->Children[0], Opcode::LdSpill, 0),
            1u);
  EXPECT_EQ(LoopFunction::spillOps(Outer, Opcode::LdSpill, 0), 1u);
  ASSERT_EQ(Inner->loopPredicateIndex(), 1u);
  EXPECT_EQ(LoopFunction::spillOps(Inner->Children[0], Opcode::LdSpill, 2),
            1u);
  EXPECT_EQ(LoopFunction::spillOps(Outer, Opcode::LdSpill, 2), 1u);
  EXPECT_EQ(LoopFunction::spillOps(LoopFunction::bodyOf(Inner),
                                  Opcode::LdSpill, 0) +
                LoopFunction::spillOps(LoopFunction::bodyOf(Inner),
                                      Opcode::LdSpill, 2),
            0u);
}

//===----------------------------------------------------------------------===//
// GRA specifics
//===----------------------------------------------------------------------===//

TEST(Gra, NoSpillsWhenRegistersSuffice) {
  auto Prog = compile("int main() { int a = 1; int b = 2; return a + b; }");
  ASSERT_NE(Prog, nullptr);
  AllocOptions AO;
  AO.K = 8;
  AllocStats S = allocateGra(*Prog->function(0), AO);
  EXPECT_EQ(S.SpilledVRegs, 0u);
  EXPECT_TRUE(Prog->function(0)->isAllocated());
  EXPECT_EQ(Prog->function(0)->numPhysRegs(), 8u);
}

TEST(Gra, SpillsUnderPressureAndStaysCorrect) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
      int x = a*b + c*d + e*f;
      int y = a + b + c + d + e + f;
      return x * 1000 + y;
    }
  )";
  CompileOptions Ref;
  RunResult RefRun = compileAndRun(Src, Ref);
  ASSERT_TRUE(RefRun.Ok);

  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  CompileResult CR = compileMiniC(Src, O);
  EXPECT_GT(CR.Alloc.SpilledVRegs, 0u);
  RunResult R = Interpreter(*CR.Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt());
  EXPECT_GT(R.Stats.SpillLoads, 0u);
}

TEST(Gra, ParamValueParkedWhenSpilled) {
  // Three params plus pressure at k=3 forces a parameter spill; the value
  // must survive (the park store at entry).
  const char *Src = R"(
    int f(int a, int b, int c) {
      int t1 = a * b; int t2 = b * c; int t3 = a * c;
      return t1 + t2 + t3 + a + b + c;
    }
    int main() { return f(3, 5, 7); }
  )";
  CompileOptions Ref;
  RunResult RefRun = compileAndRun(Src, Ref);
  ASSERT_TRUE(RefRun.Ok);
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  RunResult R = compileAndRun(Src, O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt());
}

TEST(Gra, TrivialCopiesDeletedAfterAssignment) {
  // x = y with x and y allocatable to one register: the copy disappears
  // (the paper's copy-statement accounting).
  const char *Src = R"(
    int main() {
      int y = 41;
      int x = y;
      return x + 1;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 4;
  CompileResult CR = compileMiniC(Src, O);
  ASSERT_TRUE(CR.ok());
  RunResult R = Interpreter(*CR.Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
  EXPECT_GT(CR.Alloc.CopiesDeleted, 0u)
      << "first-fit aligns copy operands here";
}

TEST(Gra, AllocationIsDeterministic) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      return a*b + c*d + a + d;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Gra;
  O.Alloc.K = 3;
  CompileResult A = compileMiniC(Src, O);
  CompileResult B = compileMiniC(Src, O);
  EXPECT_EQ(A.Prog->function(0)->str(), B.Prog->function(0)->str());
}

TEST(Rap, AllocationIsDeterministic) {
  const char *Src = R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) { s = s + a*b + c*d; }
      return s;
    }
  )";
  CompileOptions O;
  O.Allocator = AllocatorKind::Rap;
  O.Alloc.K = 3;
  CompileResult A = compileMiniC(Src, O);
  CompileResult B = compileMiniC(Src, O);
  EXPECT_EQ(A.Prog->function(0)->str(), B.Prog->function(0)->str());
}

TEST(Allocator, KindFromString) {
  EXPECT_EQ(allocatorKindFromString("gra"), AllocatorKind::Gra);
  EXPECT_EQ(allocatorKindFromString("rap"), AllocatorKind::Rap);
  EXPECT_EQ(allocatorKindFromString("none"), AllocatorKind::None);
  EXPECT_EQ(allocatorKindFromString("bogus"), AllocatorKind::None);
}

TEST(Allocator, ProgramLevelAllocatesEveryFunction) {
  auto Prog = compile(R"(
    int h(int x) { return x * 2; }
    int main() { return h(21); }
  )");
  ASSERT_NE(Prog, nullptr);
  AllocOptions AO;
  AO.K = 4;
  allocateProgramChecked(*Prog, AllocatorKind::Rap, AO);
  for (const auto &F : Prog->functions())
    EXPECT_TRUE(F->isAllocated()) << F->name();
  RunResult R = Interpreter(*Prog).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
}

} // namespace
