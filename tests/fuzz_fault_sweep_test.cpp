//===- tests/fuzz_fault_sweep_test.cpp - Fault-injection sweep -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection sweep over the differential fuzzer's random programs
/// (fuzz_differential_test.cpp). It runs on every fourth of that suite's
/// seeds to bound runtime. The fixture carries the differential suite's
/// name, so each case is Seeds/FuzzDifferential.<test>/<seed> like the
/// differential cases of the same seed.
///
//===----------------------------------------------------------------------===//

#include "fuzz/RandomProgram.h"

#include "driver/Pipeline.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

class FuzzDifferential : public ::testing::TestWithParam<unsigned> {};

/// Fault-injection sweep: with every injection site armed in turn, the
/// degradation path (error -> pristine clone -> spill-everything fallback,
/// self-checked by the assignment verifier) must still produce a program
/// that computes the reference checksum. 'color' and 'rewrite' fire in
/// every function (each colors at least once and rewrites exactly once);
/// 'spill' fires only when the seed actually spills, so engagement is
/// asserted only for the first two.
TEST_P(FuzzDifferential, FaultInjectionDegradesCorrectly) {
  unsigned Seed = GetParam();
  std::string Source = fuzz::RandomProgramBuilder(Seed).build();

  CompileOptions RefOpts;
  RunResult Ref = compileAndRun(Source, RefOpts);
  ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;
  int64_t Want = Ref.ReturnValue.asInt();

  for (const char *Spec : {"color:1", "spill:1", "rewrite:1"}) {
    for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
      for (unsigned K : {3u, 5u}) {
        CompileOptions Opts;
        Opts.Allocator = Kind;
        Opts.Alloc.K = K;
        Opts.Alloc.FallbackOnError = true;
        Opts.Alloc.VerifyAssignments = true;
        Opts.Alloc.Faults = FaultPlan::fromString(Spec);
        CompileResult CR = compileMiniC(Source, Opts);
        const char *Name = Kind == AllocatorKind::Gra ? "gra" : "rap";
        ASSERT_TRUE(CR.ok()) << "seed " << Seed << " " << Name << " k=" << K
                             << " " << Spec << ": " << CR.Errors;
        if (std::string(Spec) != "spill:1") {
          EXPECT_TRUE(CR.degraded())
              << "seed " << Seed << " " << Name << " k=" << K << " " << Spec
              << ": fault never fired";
          for (const AllocOutcome &O : CR.AllocOutcomes)
            EXPECT_EQ(O.Status, AllocStatus::Fallback) << O.Function;
        }
        for (const auto &F : CR.Prog->functions())
          EXPECT_TRUE(F->isAllocated()) << F->name();
        Interpreter Interp(*CR.Prog);
        RunResult Got = Interp.run();
        ASSERT_TRUE(Got.Ok) << "seed " << Seed << " " << Name << " k=" << K
                            << " " << Spec << ": " << Got.Error;
        ASSERT_EQ(Got.ReturnValue.asInt(), Want)
            << "seed " << Seed << " " << Name << " k=" << K << " " << Spec
            << "\n" << Source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Values(1u, 5u, 9u, 13u, 17u, 21u, 25u, 29u,
                                           33u, 37u, 41u, 45u, 49u, 53u, 57u),
                         ::testing::PrintToStringParamName());

} // namespace
