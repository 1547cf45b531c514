//===- tests/fuzz_differential_test.cpp - Differential fuzzing -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based differential testing (DESIGN.md oracle #2): random MiniC
/// programs must compute the same checksum under the unallocated reference,
/// GRA, and RAP at every register-set size; the assignment verifier must
/// also accept RAP's coloring. Each seed is one test case so failures name
/// their reproducer.
///
//===----------------------------------------------------------------------===//

#include "fuzz/RandomProgram.h"
#include "fuzz/Reducer.h"
#include "fuzz/Runner.h"

#include "driver/Pipeline.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Rap.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

class FuzzDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzDifferential, AllConfigsMatchReference) {
  unsigned Seed = GetParam();
  std::string Source = fuzz::RandomProgramBuilder(Seed).build();

  CompileOptions RefOpts;
  RunResult Ref = compileAndRun(Source, RefOpts);
  ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": reference failed: "
                      << Ref.Error << "\n"
                      << Source;
  int64_t Want = Ref.ReturnValue.asInt();

  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
    for (unsigned K : {3u, 5u, 7u, 9u}) {
      CompileOptions Opts;
      Opts.Allocator = Kind;
      Opts.Alloc.K = K;
      RunResult Got = compileAndRun(Source, Opts);
      const char *Name = Kind == AllocatorKind::Gra ? "gra" : "rap";
      ASSERT_TRUE(Got.Ok) << "seed " << Seed << " " << Name << " k=" << K
                          << ": " << Got.Error << "\n"
                          << Source;
      ASSERT_EQ(Got.ReturnValue.asInt(), Want)
          << "seed " << Seed << " " << Name << " k=" << K << "\n"
          << Source;
    }
  }
}

TEST_P(FuzzDifferential, RapColoringVerifies) {
  unsigned Seed = GetParam();
  std::string Source = fuzz::RandomProgramBuilder(Seed).build();

  CompileOptions Opts; // unallocated
  CompileResult CR = compileMiniC(Source, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  for (const auto &F : CR.Prog->functions()) {
    AllocOptions AO;
    AO.K = 3 + (Seed % 4) * 2; // 3, 5, 7, or 9 depending on seed
    RapAllocator RA(*F, AO);
    InterferenceGraph Final = RA.allocRegion(F->root());
    auto Violations = verifyAssignment(*F, Final);
    std::string Report;
    for (const auto &V : Violations)
      Report += V.Text + "\n";
    EXPECT_TRUE(Violations.empty())
        << "seed " << Seed << " k=" << AO.K << " in " << F->name() << ":\n"
        << Report;
  }
}

TEST_P(FuzzDifferential, VariantConfigsMatchReference) {
  unsigned Seed = GetParam();
  std::string Source = fuzz::RandomProgramBuilder(Seed).build();

  // Front-end options change the reference too; compare like with like.
  RegionGranularity G = Seed % 2 ? RegionGranularity::Merged
                                 : RegionGranularity::PerStatement;
  CopyStyle C = Seed % 3 ? CopyStyle::Naive : CopyStyle::Direct;

  CompileOptions RefOpts;
  RefOpts.Granularity = G;
  RefOpts.Copies = C;
  RunResult Ref = compileAndRun(Source, RefOpts);
  ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;

  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
    for (unsigned K : {3u, 6u}) {
      CompileOptions Opts;
      Opts.Allocator = Kind;
      Opts.Alloc.K = K;
      Opts.Alloc.Coalesce = true;
      Opts.Granularity = G;
      Opts.Copies = C;
      RunResult Got = compileAndRun(Source, Opts);
      const char *Name = Kind == AllocatorKind::Gra ? "gra" : "rap";
      ASSERT_TRUE(Got.Ok) << "seed " << Seed << " " << Name << " k=" << K
                          << " (coalesce/variant): " << Got.Error << "\n"
                          << Source;
      ASSERT_EQ(Got.ReturnValue.asInt(), Ref.ReturnValue.asInt())
          << "seed " << Seed << " " << Name << " k=" << K
          << " (coalesce/variant)\n"
          << Source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range(0u, 60u));

/// The failure-to-repro path end to end, on the differential oracle itself:
/// arm a coloring fault with fallback off, confirm the contract runner
/// reports a reducible failure, and require delta debugging to shrink the
/// generator program to a minimal repro with the identical signature
/// (acceptance bound: <= 25% of the original).
TEST(FuzzReduction, InjectedFailureShrinksToMinimalRepro) {
  for (unsigned Seed : {0u, 17u}) {
    std::string Source = fuzz::RandomProgramBuilder(Seed).build();

    fuzz::FuzzLimits Limits;
    Limits.Faults = FaultPlan::fromString("color:1");
    fuzz::FuzzReport Original = fuzz::runContract(Source, Limits);
    ASSERT_EQ(Original.Outcome, fuzz::FuzzOutcome::AllocFailure)
        << "seed " << Seed << ": " << Original.Detail;

    auto StillFails = [&](const std::string &Candidate) {
      fuzz::FuzzReport R = fuzz::runContract(Candidate, Limits);
      return R.failing() && R.Signature == Original.Signature;
    };
    fuzz::ReduceResult Red = fuzz::reduceSource(Source, StillFails);

    ASSERT_TRUE(StillFails(Red.Reduced))
        << "seed " << Seed << ": reduction lost the failure:\n"
        << Red.Reduced;
    EXPECT_LE(Red.Reduced.size() * 4, Source.size())
        << "seed " << Seed << ": reduced " << Source.size() << " -> "
        << Red.Reduced.size() << " bytes (bound is 25%):\n"
        << Red.Reduced;
  }
}

} // namespace
