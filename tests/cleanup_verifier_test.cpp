//===- tests/cleanup_verifier_test.cpp - Cleanup passes + verifier ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the dataflow spill cleanup (cross-block reload removal,
/// dead spill-store elimination) and the independent assignment verifier.
///
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/GlobalSpillCleanup.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace rap;

namespace {

/// Builds a function with an if-diamond:
///   entry: <Entry code>; cbr c -> then, join
///   then:  <Then code>
///   join:  <Join code>; ret
struct DiamondBuilder {
  IlocFunction F{"test"};
  PdgNode *Entry, *Then, *Join;
  PdgNode *Pred;

  explicit DiamondBuilder(unsigned NumSlots = 4) {
    PdgNode *Root = F.createNode(PdgNodeKind::Region);
    F.setRoot(Root);
    Entry = addStmt(Root);
    Pred = F.createNode(PdgNodeKind::Predicate);
    Pred->Parent = Root;
    Root->Children.push_back(Pred);
    Pred->TrueLabel = F.newLabel();
    Pred->FalseLabel = F.newLabel();
    Instr *Br = F.createInstr(Opcode::Cbr);
    Br->Src = {0};
    Br->Label0 = Pred->TrueLabel;
    Br->Label1 = Pred->FalseLabel;
    Pred->Branch = Br;
    Pred->TrueRegion = F.createNode(PdgNodeKind::Region);
    Pred->TrueRegion->Parent = Pred;
    Then = addStmt(Pred->TrueRegion);
    Join = addStmt(Root);
    for (unsigned I = 0; I != NumSlots; ++I)
      F.newSpillSlot();
    // Register namespace for the hand-written code below (the verifier's
    // liveness needs the universe size).
    for (int I = 0; I < 16; ++I)
      F.newVReg();
  }

  PdgNode *addStmt(PdgNode *Region) {
    PdgNode *S = F.createNode(PdgNodeKind::Statement);
    S->Parent = Region;
    Region->Children.push_back(S);
    return S;
  }

  Instr *emit(PdgNode *S, Opcode Op, Reg Dst, std::vector<Reg> Src,
              int Slot = -1) {
    Instr *I = F.createInstr(Op);
    I->Dst = Dst;
    I->Src = std::move(Src);
    I->Slot = Slot;
    S->Code.push_back(I);
    return I;
  }

  unsigned countOps(Opcode Op) {
    unsigned N = 0;
    for (Instr *I : linearize(F).Instrs)
      N += I->Op == Op;
    return N;
  }
};

/// Runs the cleanup over \p F and returns the counts it made.
AllocStats cleanup(IlocFunction &F) {
  AllocStats Stats;
  globalSpillCleanup(F, Stats);
  return Stats;
}

/// The loads the cleanup deleted outright (CleanupRemovedLoads also counts
/// those it rewrote to copies).
unsigned deletedLoads(const AllocStats &S) {
  return S.CleanupRemovedLoads - S.CleanupLoadsToCopies;
}

TEST(GlobalCleanup, CrossBlockRedundantReloadRemoved) {
  DiamondBuilder B;
  // entry: r1 = ldm s0 ; cbr r0
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: r2 = r1 + r1 (no redef of r1, no store to s0)
  B.emit(B.Then, Opcode::Add, 2, {1, 1});
  // join: r1 = ldm s0  <- redundant on BOTH paths
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0);
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(deletedLoads(R), 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
}

TEST(GlobalCleanup, ReloadKeptWhenOnePathInvalidates) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: stm s0, r2 — the slot changes on this path
  B.emit(B.Then, Opcode::StSpill, NoReg, {2}, 0);
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0); // must stay
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(deletedLoads(R), 0u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 2u);
}

TEST(GlobalCleanup, ReloadKeptWhenRegisterClobberedOnOnePath) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 0);
  // then: r1 = r2 + r2 clobbers r1
  B.emit(B.Then, Opcode::Add, 1, {2, 2});
  B.emit(B.Join, Opcode::LdSpill, 1, {}, 0); // must stay
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(deletedLoads(R), 0u);
}

TEST(GlobalCleanup, DeadStoreRemoved) {
  DiamondBuilder B;
  // A store whose slot is never read again is dead (slots die with the
  // frame).
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(R.CleanupRemovedStores, 1u);
  EXPECT_EQ(B.countOps(Opcode::StSpill), 0u);
}

TEST(GlobalCleanup, StoreKeptWhenAnyPathReads) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Entry, Opcode::LoadI, 1, {}); // clobber r1: no forwarding
  B.emit(B.Then, Opcode::LdSpill, 3, {}, 2); // reads on the then path
  B.emit(B.Join, Opcode::Ret, NoReg, {1});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(B.countOps(Opcode::StSpill), 1u);
  EXPECT_EQ(B.countOps(Opcode::LdSpill), 1u);
  (void)R;
}

TEST(GlobalCleanup, OverwrittenStoreIsDead) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {1}, 2);
  B.emit(B.Entry, Opcode::StSpill, NoReg, {2}, 2); // kills the first
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 2);
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  // The first store dies; the second feeds the load... which then makes r3
  // a copy of r2 (the value is still in a register), freeing the second
  // store too on the next fixpoint round. Net: at most one spill op left.
  EXPECT_GE(R.CleanupRemovedStores, 1u);
  EXPECT_LE(B.countOps(Opcode::StSpill), 1u);
}

TEST(GlobalCleanup, LoadBecomesCopyWhenValueInOtherRegister) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::StSpill, NoReg, {2}, 1);
  B.emit(B.Join, Opcode::LdSpill, 3, {}, 1); // value still in r2
  B.emit(B.Join, Opcode::Ret, NoReg, {3});
  B.F.setAllocated(4);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(R.CleanupLoadsToCopies, 1u);
  EXPECT_EQ(B.countOps(Opcode::Mv), 1u);
}

TEST(GlobalCleanup, FactsAcrossTheWordBoundaryOfARegistersSlots) {
  // 70 slots at k=9: each register's slots span two 64-bit words. The then
  // arm kills r0 and r8 and overwrites s64; r1's s5 and r7's s69 must
  // survive those kills into the join.
  DiamondBuilder B(70);
  B.emit(B.Entry, Opcode::LdSpill, 0, {}, 63);
  B.emit(B.Entry, Opcode::LdSpill, 8, {}, 64);
  Instr *Dead = B.emit(B.Entry, Opcode::StSpill, NoReg, {8}, 69);
  B.emit(B.Entry, Opcode::Mv, 7, {8}); // r7 holds s64 and s69
  B.emit(B.Entry, Opcode::LdSpill, 1, {}, 5);
  B.emit(B.Then, Opcode::Add, 0, {2, 2}); // kills r0
  B.emit(B.Then, Opcode::Add, 8, {2, 2}); // kills r8
  B.emit(B.Then, Opcode::StSpill, NoReg, {3}, 64);
  Instr *Lost = B.emit(B.Join, Opcode::LdSpill, 0, {}, 63);
  Instr *Held = B.emit(B.Join, Opcode::LdSpill, 1, {}, 5);
  Instr *Copy = B.emit(B.Join, Opcode::LdSpill, 6, {}, 69);
  Instr *Split = B.emit(B.Join, Opcode::LdSpill, 4, {}, 64);
  B.emit(B.Join, Opcode::Ret, NoReg, {6});
  B.F.setAllocated(9);
  AllocStats R = cleanup(B.F);
  EXPECT_EQ(deletedLoads(R), 1u);
  EXPECT_EQ(R.CleanupLoadsToCopies, 1u);
  // s69's store: its one reader is a copy.
  EXPECT_EQ(R.CleanupRemovedStores, 1u);
  EXPECT_EQ(R.CleanupIterations, 2u);
  std::vector<Instr *> Code = linearize(B.F).Instrs;
  for (Instr *Gone : {Held, Dead})
    EXPECT_EQ(std::count(Code.begin(), Code.end(), Gone), 0);
  EXPECT_EQ(Lost->Op, Opcode::LdSpill);
  EXPECT_EQ(Split->Op, Opcode::LdSpill);
  EXPECT_EQ(Copy->Op, Opcode::Mv);
  ASSERT_EQ(Copy->Src.size(), 1u);
  EXPECT_EQ(Copy->Src[0], 7u);
  EXPECT_EQ(B.countOps(Opcode::StSpill), 1u);
}

//===----------------------------------------------------------------------===//
// Assignment verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsAValidColoring) {
  DiamondBuilder B;
  // r10 = r11 + r11 with distinct colors; nothing overlaps.
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::Add, 11, {10, 10});
  B.emit(B.Join, Opcode::Ret, NoReg, {11});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.addEdge(10, 11);
  G.node(0).Color = 0;
  G.node(1).Color = 1;
  EXPECT_TRUE(verifyAssignment(B.F, G).empty());
}

TEST(Verifier, FlagsClobberingDefinition) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::LoadI, 11, {}); // defined while r10 live
  B.emit(B.Join, Opcode::Add, 12, {10, 11});
  B.emit(B.Join, Opcode::Ret, NoReg, {12});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.getOrCreateNode(12);
  G.node(0).Color = 0;
  G.node(1).Color = 0; // WRONG: same color, simultaneously live
  G.node(2).Color = 1;
  auto V = verifyAssignment(B.F, G);
  ASSERT_FALSE(V.empty());
  EXPECT_EQ(V[0].Clobbered, 10u);
  EXPECT_EQ(V[0].Defined, 11u);
}

TEST(Verifier, CopySourceMayShareColor) {
  DiamondBuilder B;
  B.emit(B.Entry, Opcode::LoadI, 10, {});
  B.emit(B.Entry, Opcode::Mv, 11, {10});
  B.emit(B.Join, Opcode::Ret, NoReg, {11});
  InterferenceGraph G;
  G.getOrCreateNode(10);
  G.getOrCreateNode(11);
  G.node(0).Color = 2;
  G.node(1).Color = 2; // legal: copy source exception
  EXPECT_TRUE(verifyAssignment(B.F, G).empty());
}

} // namespace
