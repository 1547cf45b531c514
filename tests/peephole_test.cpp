//===- tests/peephole_test.cpp - Figure 6 patterns -----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One test per Figure 6 pattern, on hand-built physical code, plus the
/// invalidation cases ("no redef of r2" / intervening stores) that must
/// block the rewrite.
///
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"
#include "regalloc/Peephole.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <utility>

using namespace rap;

namespace {

/// Builds a one-block function from a list of instructions.
struct FuncBuilder {
  IlocFunction F{"test"};
  PdgNode *Stmt = nullptr;

  explicit FuncBuilder(unsigned NumSlots = 2) {
    PdgNode *Root = F.createNode(PdgNodeKind::Region);
    F.setRoot(Root);
    Stmt = F.createNode(PdgNodeKind::Statement);
    Stmt->Parent = Root;
    Root->Children.push_back(Stmt);
    // Slots used by the tests.
    for (unsigned S = 0; S != NumSlots; ++S)
      F.newSpillSlot();
  }

  Instr *ldm(Reg Dst, int Slot) {
    Instr *I = F.createInstr(Opcode::LdSpill);
    I->Dst = Dst;
    I->Slot = Slot;
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *stm(int Slot, Reg Src) {
    Instr *I = F.createInstr(Opcode::StSpill);
    I->Slot = Slot;
    I->Src = {Src};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *mv(Reg Dst, Reg Src) {
    Instr *I = F.createInstr(Opcode::Mv);
    I->Dst = Dst;
    I->Src = {Src};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *add(Reg Dst, Reg A, Reg B) {
    Instr *I = F.createInstr(Opcode::Add);
    I->Dst = Dst;
    I->Src = {A, B};
    Stmt->Code.push_back(I);
    return I;
  }
  Instr *ret(Reg R) {
    Instr *I = F.createInstr(Opcode::Ret);
    I->Src = {R};
    Stmt->Code.push_back(I);
    return I;
  }

  AllocStats finish(unsigned K = 4) {
    F.setAllocated(K);
    AllocStats Stats;
    peepholeSpillCleanup(F, Stats);
    return Stats;
  }

  std::vector<Opcode> opcodes() {
    std::vector<Opcode> Out;
    for (Instr *I : linearize(F).Instrs)
      Out.push_back(I->Op);
    return Out;
  }
};

TEST(PeepholeFig6, Pattern1DuplicateLoadRemoved) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(3, 2, 2); // uses r2, no redef
  B.ldm(2, 0);    // redundant
  B.ret(2);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads, 1u);
  EXPECT_EQ(B.opcodes(), (std::vector<Opcode>{Opcode::LdSpill, Opcode::Add,
                                              Opcode::Ret}));
}

TEST(PeepholeFig6, Pattern2LoadToOtherRegisterBecomesCopy) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.ldm(3, 0); // same slot, different register -> mv r3, r2
  B.add(1, 2, 3);
  B.ret(1);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeLoadsToCopies, 1u);
  auto Ops = B.opcodes();
  ASSERT_EQ(Ops.size(), 4u);
  EXPECT_EQ(Ops[1], Opcode::Mv);
}

TEST(PeepholeFig6, Pattern3StoreBackRemoved) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(3, 2, 2);
  B.stm(0, 2); // stores the value the slot already has
  B.ret(3);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedStores, 1u);
}

TEST(PeepholeFig6, Pattern4ReloadAfterStoreRemoved) {
  FuncBuilder B;
  B.stm(0, 2);
  B.add(3, 2, 2);
  B.ldm(2, 0); // r2 still holds the stored value
  B.ret(2);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads, 1u);
}

TEST(PeepholeFig6, Pattern5StoreThroughCopyRemoved) {
  FuncBuilder B;
  B.stm(0, 2);
  B.mv(3, 2); // r3 = r2: both hold the slot's value
  B.stm(0, 3);
  B.ret(3);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedStores, 1u);
}

TEST(PeepholeFig6, RedefinitionBlocksLoadRemoval) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.add(2, 2, 2); // redefines r2
  B.ldm(2, 0);    // must stay
  B.ret(2);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads, 0u);
  EXPECT_EQ(R.PeepholeLoadsToCopies, 0u);
}

TEST(PeepholeFig6, InterveningStoreBlocksRemoval) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.stm(0, 3); // the slot changes; r2 is stale
  B.ldm(2, 0); // must stay
  B.ret(2);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads, 0u);
}

TEST(PeepholeFig6, DifferentSlotsDoNotAlias) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.ldm(3, 1); // a different slot: no rewrite possible
  B.add(1, 2, 3);
  B.ret(1);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads + R.PeepholeLoadsToCopies +
                R.PeepholeRemovedStores,
            0u);
}

TEST(PeepholeFig6, CopyChainPropagatesEquivalence) {
  FuncBuilder B;
  B.ldm(2, 0);
  B.mv(3, 2);
  B.mv(1, 3);
  B.ldm(1, 0); // r1 already holds the value via the copy chain
  B.ret(1);
  AllocStats R = B.finish();
  EXPECT_EQ(R.PeepholeRemovedLoads, 1u);
}

TEST(PeepholeFig6, FactsAcrossTheWordBoundaryOfARegistersSlots) {
  // 70 slots at k=9: each register's slots span two 64-bit words. Loads,
  // stores and copies on slots 63, 64 and 69 (the last), and register
  // kills of r0 and r8, must each touch exactly their own register and
  // slot: a kill of r0 or r8 must not clear r1's or r7's slots.
  FuncBuilder B(70);
  B.ldm(0, 63);
  B.ldm(8, 64);
  B.stm(69, 0);                 // r0 holds s63 and s69
  Instr *ToR7 = B.ldm(7, 63);   // -> mv r7, r0
  B.ldm(1, 5);
  B.add(0, 1, 1);               // kills r0
  Instr *Dup1 = B.ldm(1, 5);    // r1 still holds s5: deleted
  B.add(8, 1, 1);               // kills r8
  Instr *Dup7 = B.ldm(7, 69);   // r7 still holds s69: deleted
  Instr *Kept = B.ldm(2, 64);   // nobody holds s64 any more
  B.mv(8, 2);
  Instr *Same = B.stm(64, 8);   // r8 holds s64: deleted
  B.stm(63, 2);                 // only r2 holds s63 now
  Instr *ToR0 = B.ldm(0, 63);   // -> mv r0, r2
  Instr *Lowest = B.ldm(3, 64); // r0, r2 and r8 hold s64: mv r3, r0
  Instr *From7 = B.ldm(8, 69);  // -> mv r8, r7
  B.stm(64, 4);                 // only r4 holds s64 now
  Instr *From4 = B.ldm(3, 64);  // -> mv r3, r4
  B.stm(69, 5);                 // only r5 holds s69 now
  Instr *From5 = B.ldm(8, 69);  // -> mv r8, r5
  B.ret(8);
  AllocStats R = B.finish(9);
  EXPECT_EQ(R.PeepholeRemovedLoads, 2u);
  EXPECT_EQ(R.PeepholeRemovedStores, 1u);
  EXPECT_EQ(R.PeepholeLoadsToCopies, 6u);
  std::vector<Instr *> Code = linearize(B.F).Instrs;
  for (Instr *Gone : {Dup1, Dup7, Same})
    EXPECT_EQ(std::count(Code.begin(), Code.end(), Gone), 0);
  EXPECT_EQ(Kept->Op, Opcode::LdSpill);
  for (auto [Copy, Src] : {std::pair{ToR7, 0u}, {ToR0, 2u}, {Lowest, 0u},
                           {From7, 7u}, {From4, 4u}, {From5, 5u}}) {
    EXPECT_EQ(Copy->Op, Opcode::Mv);
    ASSERT_EQ(Copy->Src.size(), 1u);
    EXPECT_EQ(Copy->Src[0], Src);
  }
}

} // namespace
