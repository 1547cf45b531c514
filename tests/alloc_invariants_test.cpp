//===- tests/alloc_invariants_test.cpp - Post-allocation invariants -----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariants every allocated Table 1 binary must satisfy, per
/// routine and allocator:
///
///   * every register operand is a physical register < k;
///   * RAP's pre-rewrite coloring passes the independent verifier;
///   * parameter registers are pairwise distinct when the parameters are
///     simultaneously live at entry;
///   * no trivial copies (mv rX, rX) survive rewriting;
///   * spill slots referenced by the code were actually allocated;
///   * RAP's refresh after a spill warm-starts liveness from the previous
///     solution.
///
//===----------------------------------------------------------------------===//

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "ir/Linearize.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Rap.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

class AllocInvariants : public ::testing::TestWithParam<int> {};

TEST_P(AllocInvariants, PhysicalCodeIsWellFormed) {
  const BenchProgram &P = benchPrograms()[GetParam()];
  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
    const unsigned K = 3;
    CompileOptions Opts;
    Opts.Allocator = Kind;
    Opts.Alloc.K = K;
    CompileResult CR = compileMiniC(P.Source, Opts);
    ASSERT_TRUE(CR.ok()) << CR.Errors;
    for (const auto &F : CR.Prog->functions()) {
      ASSERT_TRUE(F->isAllocated());
      EXPECT_EQ(F->numPhysRegs(), K);
      LinearCode Code = linearize(*F);
      for (const Instr *I : Code.Instrs) {
        for (Reg R : I->Src)
          EXPECT_LT(R, K) << F->name() << ": " << I->str();
        if (I->hasDef()) {
          EXPECT_LT(I->Dst, K) << F->name() << ": " << I->str();
        }
        EXPECT_FALSE(I->Op == Opcode::Mv && I->Dst == I->Src[0])
            << "trivial copy survived rewriting: " << I->str();
        if (I->Op == Opcode::LdSpill || I->Op == Opcode::StSpill) {
          EXPECT_GE(I->Slot, 0);
          EXPECT_LT(I->Slot, F->numSpillSlots());
        }
      }
      for (unsigned A = 0; A != F->numParams(); ++A)
        EXPECT_LT(F->paramReg(A), K);
    }
  }
}

TEST_P(AllocInvariants, RapColoringPassesIndependentVerifier) {
  const BenchProgram &P = benchPrograms()[GetParam()];
  CompileOptions Opts; // unallocated
  CompileResult CR = compileMiniC(P.Source, Opts);
  ASSERT_TRUE(CR.ok());
  for (const auto &F : CR.Prog->functions()) {
    AllocOptions AO;
    AO.K = 3; // the hardest configuration
    RapAllocator RA(*F, AO);
    InterferenceGraph Final = RA.allocRegion(F->root());
    auto Violations = verifyAssignment(*F, Final);
    std::string Report;
    for (const auto &V : Violations)
      Report += V.Text + "\n";
    EXPECT_TRUE(Violations.empty()) << F->name() << ":\n" << Report;

    // Every referenced register must have received a color.
    LinearCode Code = linearize(*F);
    for (const Instr *I : Code.Instrs) {
      for (Reg R : I->Src)
        EXPECT_GE(Final.colorOf(R), 0) << F->name() << ": " << I->str();
      if (I->hasDef()) {
        EXPECT_GE(Final.colorOf(I->Dst), 0)
            << F->name() << ": " << I->str();
      }
    }
  }
}

std::string invName(const ::testing::TestParamInfo<int> &Info) {
  return benchPrograms()[Info.param].Name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, AllocInvariants,
    ::testing::Range(0, static_cast<int>(benchPrograms().size())), invName);

// RAP_VERIFY_LIVENESS cross-checks only warm solves, so a refresh that always
// solved cold would pass every other test while voiding that check and
// paying for a full solve per spill.
TEST(RapRefresh, LivenessWarmStartsAfterSpills) {
  const BenchProgram *P = findBenchProgram("hsort");
  ASSERT_NE(P, nullptr);
  CompileResult CR = compileMiniC(P->Source, CompileOptions());
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  unsigned Spilled = 0;
  for (const auto &F : CR.Prog->functions()) {
    AllocOptions AO;
    AO.K = 3;
    RapAllocator RA(*F, AO);
    // The first snapshot has no predecessor: a cold solve.
    EXPECT_FALSE(RA.codeInfo().Live.reusedPreviousSolution()) << F->name();
    RA.allocRegion(F->root());
    if (RA.stats().SpilledVRegs == 0)
      continue;
    ++Spilled;
    EXPECT_TRUE(RA.codeInfo().Live.reusedPreviousSolution()) << F->name();
  }
  EXPECT_GT(Spilled, 0u) << "hsort should spill at k=3";
}

} // namespace
