//===- tests/robustness_test.cpp - Hardened-pipeline checks -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the robustness layer (DESIGN.md "Robustness architecture"):
/// fault-plan parsing, resource guards (spill rounds, graph bytes, wall
/// clock) in both strict and fallback modes, per-function fault isolation
/// under the parallel driver, strict-mode error reporting through
/// CompileResult, function cloning, and the spill-everything fallback
/// allocator used directly.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Clone.h"
#include "regalloc/SpillEverything.h"
#include "support/Env.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// Same shape as the parallel-determinism workload: several functions with
/// enough pressure to spill at small k, so guards and fallbacks actually
/// trigger.
const char *MultiFunctionSource = R"(
int ga[16];

int fill(int n) {
  int i;
  int acc = 1;
  for (i = 0; i < n; i = i + 1) {
    acc = acc * 3 + i;
    ga[i] = acc;
  }
  return acc;
}

int pressure(int n) {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = 5; int f = 6; int g = 7; int h = 8;
  int i;
  for (i = 0; i < n; i = i + 1) {
    a = a + b; b = b + c; c = c + d; d = d + e;
    e = e + f; f = f + g; g = g + h; h = h + a;
    if (a > 1000) { a = a - 1000; }
  }
  return a + b + c + d + e + f + g + h;
}

int main() {
  int x = fill(16);
  int y = pressure(20);
  return x + y;
}
)";

int64_t referenceValue(const std::string &Source) {
  CompileOptions RefOpts; // unallocated
  RunResult Ref = compileAndRun(Source, RefOpts);
  EXPECT_TRUE(Ref.Ok) << Ref.Error;
  return Ref.ReturnValue.asInt();
}

/// Compiles with fallback enabled and asserts the program still computes
/// the reference value; returns the result for outcome inspection.
CompileResult compileDegradable(const std::string &Source,
                                const CompileOptions &Opts, int64_t Want) {
  CompileResult CR = compileMiniC(Source, Opts);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  if (CR.ok()) {
    Interpreter Interp(*CR.Prog);
    RunResult R = Interp.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    if (R.Ok) {
      EXPECT_EQ(R.ReturnValue.asInt(), Want);
    }
  }
  return CR;
}

//===----------------------------------------------------------------------===//
// Fault-plan parsing
//===----------------------------------------------------------------------===//

TEST(FaultPlanParse, SingleArm) {
  FaultPlan P = FaultPlan::fromString("color:2");
  ASSERT_EQ(P.Arms.size(), 1u);
  EXPECT_EQ(P.Arms[0].Site, FaultSite::Coloring);
  EXPECT_EQ(P.Arms[0].Nth, 2u);
  EXPECT_TRUE(P.Arms[0].Function.empty());
}

TEST(FaultPlanParse, TargetedArm) {
  FaultPlan P = FaultPlan::fromString("spill:1@fill");
  ASSERT_EQ(P.Arms.size(), 1u);
  EXPECT_EQ(P.Arms[0].Site, FaultSite::SpillInsert);
  EXPECT_EQ(P.Arms[0].Nth, 1u);
  EXPECT_EQ(P.Arms[0].Function, "fill");
}

TEST(FaultPlanParse, CommaList) {
  FaultPlan P = FaultPlan::fromString("color:1,rewrite:3@main");
  ASSERT_EQ(P.Arms.size(), 2u);
  EXPECT_EQ(P.Arms[0].Site, FaultSite::Coloring);
  EXPECT_EQ(P.Arms[1].Site, FaultSite::PhysicalRewrite);
  EXPECT_EQ(P.Arms[1].Nth, 3u);
  EXPECT_EQ(P.Arms[1].Function, "main");
}

TEST(FaultPlanParse, EmptyAndBlankEntries) {
  EXPECT_TRUE(FaultPlan::fromString("").empty());
  FaultPlan P = FaultPlan::fromString("color:1,,spill:2");
  EXPECT_EQ(P.Arms.size(), 2u);
}

TEST(FaultPlanParse, RegionSite) {
  FaultPlan P = FaultPlan::fromString("region:4@deep");
  ASSERT_EQ(P.Arms.size(), 1u);
  EXPECT_EQ(P.Arms[0].Site, FaultSite::RegionAlloc);
  EXPECT_EQ(P.Arms[0].Nth, 4u);
  EXPECT_EQ(P.Arms[0].Function, "deep");
}

TEST(FaultPlanParse, Malformed) {
  EXPECT_THROW(FaultPlan::fromString("bogus:1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color:x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color:0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color:-2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color:1x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("color:1,spill"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("journal-write:1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::fromString("snapshot-compact:1"),
               std::invalid_argument);
}

TEST(FaultPlanParse, InjectorFiltersByFunction) {
  FaultPlan P = FaultPlan::fromString("color:1@other");
  FaultInjector Mine(P, "mine");
  EXPECT_FALSE(Mine.armed());
  Mine.hit(FaultSite::Coloring); // disarmed: must not throw
  FaultInjector Theirs(P, "other");
  EXPECT_TRUE(Theirs.armed());
  EXPECT_THROW(Theirs.hit(FaultSite::Coloring), AllocError);
}

//===----------------------------------------------------------------------===//
// Resource guards
//===----------------------------------------------------------------------===//

class ResourceGuards : public ::testing::TestWithParam<AllocatorKind> {};

TEST_P(ResourceGuards, SpillRoundBudgetStrict) {
  // One round is not enough at k=3 for the pressure function; strict mode
  // must fail the compile with a structured non-convergence diagnostic.
  CompileOptions Opts;
  Opts.Allocator = GetParam();
  Opts.Alloc.K = 3;
  Opts.Alloc.MaxSpillRounds = 1;
  Opts.Alloc.FallbackOnError = false;
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  EXPECT_FALSE(CR.ok());
  EXPECT_NE(CR.Errors.find("non-convergence"), std::string::npos)
      << CR.Errors;
}

TEST_P(ResourceGuards, SpillRoundBudgetDegrades) {
  int64_t Want = referenceValue(MultiFunctionSource);
  CompileOptions Opts;
  Opts.Allocator = GetParam();
  Opts.Alloc.K = 3;
  Opts.Alloc.MaxSpillRounds = 1;
  Opts.Alloc.FallbackOnError = true;
  Opts.Alloc.VerifyAssignments = true;
  CompileResult CR = compileDegradable(MultiFunctionSource, Opts, Want);
  EXPECT_TRUE(CR.degraded());
  bool SawNonConvergence = false;
  for (const AllocOutcome &O : CR.AllocOutcomes)
    if (O.degraded()) {
      EXPECT_EQ(O.ErrorKind, AllocErrorKind::NonConvergence) << O.Error;
      SawNonConvergence = true;
    }
  EXPECT_TRUE(SawNonConvergence);
}

TEST_P(ResourceGuards, GraphByteBudgetStrict) {
  // No real interference graph fits in 16 bytes.
  CompileOptions Opts;
  Opts.Allocator = GetParam();
  Opts.Alloc.K = 3;
  Opts.Alloc.MaxGraphBytes = 16;
  Opts.Alloc.FallbackOnError = false;
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  EXPECT_FALSE(CR.ok());
  EXPECT_NE(CR.Errors.find("resource-limit"), std::string::npos)
      << CR.Errors;
}

TEST_P(ResourceGuards, GraphByteBudgetDegrades) {
  int64_t Want = referenceValue(MultiFunctionSource);
  CompileOptions Opts;
  Opts.Allocator = GetParam();
  Opts.Alloc.K = 3;
  Opts.Alloc.MaxGraphBytes = 16;
  Opts.Alloc.FallbackOnError = true;
  Opts.Alloc.VerifyAssignments = true;
  CompileResult CR = compileDegradable(MultiFunctionSource, Opts, Want);
  EXPECT_TRUE(CR.degraded());
  for (const AllocOutcome &O : CR.AllocOutcomes) {
    EXPECT_EQ(O.Status, AllocStatus::Fallback) << O.Function;
    EXPECT_EQ(O.ErrorKind, AllocErrorKind::ResourceLimit) << O.Error;
  }
}

TEST_P(ResourceGuards, WallClockBudgetDegrades) {
  // A cancel token whose deadline is already past stops every function at
  // its first round-boundary check, so every function degrades.
  int64_t Want = referenceValue(MultiFunctionSource);
  CancelToken Expired(
      Deadline::at(Deadline::Clock::now() - std::chrono::milliseconds(1)));
  CompileOptions Opts;
  Opts.Allocator = GetParam();
  Opts.Alloc.K = 3;
  Opts.Alloc.Cancel = &Expired;
  Opts.Alloc.FallbackOnError = true;
  Opts.Alloc.VerifyAssignments = true;
  CompileResult CR = compileDegradable(MultiFunctionSource, Opts, Want);
  EXPECT_TRUE(CR.degraded());
  for (const AllocOutcome &O : CR.AllocOutcomes) {
    if (O.degraded()) {
      EXPECT_EQ(O.ErrorKind, AllocErrorKind::DeadlineExceeded) << O.Error;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Allocators, ResourceGuards,
                         ::testing::Values(AllocatorKind::Gra,
                                           AllocatorKind::Rap),
                         [](const auto &Info) {
                           return Info.param == AllocatorKind::Gra ? "gra"
                                                                   : "rap";
                         });

//===----------------------------------------------------------------------===//
// Fault isolation under the parallel driver
//===----------------------------------------------------------------------===//

TEST(FaultIsolation, PoisonedFunctionDegradesAlone) {
  // Acceptance criterion: poison one function; at every thread count only
  // that function degrades, and every other function's allocated code is
  // byte-identical to a fault-free serial run.
  int64_t Want = referenceValue(MultiFunctionSource);

  CompileOptions Clean;
  Clean.Allocator = AllocatorKind::Rap;
  Clean.Alloc.K = 3;
  CompileResult Baseline = compileMiniC(MultiFunctionSource, Clean);
  ASSERT_TRUE(Baseline.ok()) << Baseline.Errors;
  ASSERT_FALSE(Baseline.degraded());
  std::vector<std::string> CleanCode;
  for (const auto &F : Baseline.Prog->functions())
    CleanCode.push_back(F->str());

  for (unsigned Threads : {1u, 2u, 4u}) {
    CompileOptions Opts = Clean;
    Opts.Alloc.Threads = Threads;
    Opts.Alloc.FallbackOnError = true;
    Opts.Alloc.VerifyAssignments = true;
    Opts.Alloc.Faults = FaultPlan::fromString("color:1@pressure");
    CompileResult CR = compileDegradable(MultiFunctionSource, Opts, Want);
    ASSERT_TRUE(CR.ok());
    ASSERT_EQ(CR.AllocOutcomes.size(), CleanCode.size());
    for (size_t I = 0; I != CR.AllocOutcomes.size(); ++I) {
      const AllocOutcome &O = CR.AllocOutcomes[I];
      if (O.Function == "pressure") {
        EXPECT_EQ(O.Status, AllocStatus::Fallback)
            << "threads=" << Threads << ": " << O.Error;
        EXPECT_EQ(O.ErrorKind, AllocErrorKind::InjectedFault);
      } else {
        EXPECT_EQ(O.Status, AllocStatus::Allocated)
            << O.Function << " threads=" << Threads << ": " << O.Error;
        EXPECT_EQ(CR.Prog->functions()[I]->str(), CleanCode[I])
            << O.Function << " differs from fault-free serial run at threads="
            << Threads;
      }
    }
  }
}

TEST(FaultIsolation, RegionFaultDegradesAlone) {
  // Inject at the region-allocation site (the second region RAP visits in
  // 'pressure'). Only the targeted function may degrade; every other
  // function must be byte-identical to a fault-free run, and the program
  // must still compute the reference value through the verified fallback.
  int64_t Want = referenceValue(MultiFunctionSource);

  CompileOptions Clean;
  Clean.Allocator = AllocatorKind::Rap;
  Clean.Alloc.K = 3;
  CompileResult Baseline = compileMiniC(MultiFunctionSource, Clean);
  ASSERT_TRUE(Baseline.ok()) << Baseline.Errors;
  std::vector<std::string> CleanCode;
  for (const auto &F : Baseline.Prog->functions())
    CleanCode.push_back(F->str());

  CompileOptions Opts = Clean;
  Opts.Alloc.FallbackOnError = true;
  Opts.Alloc.VerifyAssignments = true;
  Opts.Alloc.Faults = FaultPlan::fromString("region:2@pressure");
  CompileResult CR = compileDegradable(MultiFunctionSource, Opts, Want);
  ASSERT_TRUE(CR.ok());
  ASSERT_EQ(CR.AllocOutcomes.size(), CleanCode.size());
  for (size_t I = 0; I != CR.AllocOutcomes.size(); ++I) {
    const AllocOutcome &O = CR.AllocOutcomes[I];
    if (O.Function == "pressure") {
      EXPECT_EQ(O.Status, AllocStatus::Fallback) << O.Error;
      EXPECT_EQ(O.ErrorKind, AllocErrorKind::InjectedFault);
    } else {
      EXPECT_EQ(O.Status, AllocStatus::Allocated)
          << O.Function << ": " << O.Error;
      EXPECT_EQ(CR.Prog->functions()[I]->str(), CleanCode[I])
          << O.Function << " differs from the fault-free run";
    }
  }
}

TEST(FaultIsolation, RegionFaultStrictModeFailsTheCompile) {
  // Strict mode with the same region-site injection: the fault surfaces as
  // a structured error and the compile fails.
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.Alloc.K = 3;
  Opts.Alloc.FallbackOnError = false;
  Opts.Alloc.Faults = FaultPlan::fromString("region:2@pressure");
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  EXPECT_FALSE(CR.ok());
  EXPECT_NE(CR.Errors.find("injected-fault in 'pressure'"),
            std::string::npos)
      << CR.Errors;
}

TEST(FaultIsolation, StrictModeFailsTheCompile) {
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.Alloc.K = 3;
  Opts.Alloc.FallbackOnError = false;
  Opts.Alloc.Faults = FaultPlan::fromString("color:1@pressure");
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  EXPECT_FALSE(CR.ok());
  EXPECT_EQ(CR.Prog, nullptr);
  EXPECT_NE(CR.Errors.find("allocation failed"), std::string::npos)
      << CR.Errors;
  EXPECT_NE(CR.Errors.find("injected-fault in 'pressure'"),
            std::string::npos)
      << CR.Errors;
}

TEST(FaultIsolation, DegradationIsReportedInErrors) {
  // Fallback keeps the compile green but the summary must still surface
  // through CompileResult::Errors for callers that only look there.
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.Alloc.K = 3;
  Opts.Alloc.FallbackOnError = true;
  Opts.Alloc.Faults = FaultPlan::fromString("color:1@pressure");
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  EXPECT_NE(CR.Errors.find("pressure: degraded to spill-everything"),
            std::string::npos)
      << CR.Errors;
}

//===----------------------------------------------------------------------===//
// Function cloning and the fallback allocator
//===----------------------------------------------------------------------===//

TEST(CloneFunction, ClonePrintsIdentically) {
  CompileOptions Opts; // unallocated
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  for (const auto &F : CR.Prog->functions()) {
    std::unique_ptr<IlocFunction> Copy = cloneFunction(*F);
    EXPECT_EQ(Copy->str(), F->str()) << F->name();
    EXPECT_EQ(Copy->isAllocated(), F->isAllocated());
  }
}

TEST(CloneFunction, AllocatedClonePrintsIdentically) {
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.Alloc.K = 3;
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  for (const auto &F : CR.Prog->functions())
    EXPECT_EQ(cloneFunction(*F)->str(), F->str()) << F->name();
}

TEST(SpillEverything, AllocatesVerifiablyAndRunsCorrectly) {
  int64_t Want = referenceValue(MultiFunctionSource);
  CompileOptions Opts; // unallocated
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  for (auto &F : CR.Prog->functions()) {
    AllocOptions AO;
    AO.K = 3;
    AO.VerifyAssignments = true; // self-check throws on a bad assignment
    AllocStats Stats = allocateSpillEverything(*F, AO);
    EXPECT_TRUE(F->isAllocated()) << F->name();
    EXPECT_EQ(Stats.GraphBuilds, 1u);
  }
  Interpreter Interp(*CR.Prog);
  RunResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Want);
}

TEST(SpillEverything, RejectsAllocatedInput) {
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.Alloc.K = 5;
  CompileResult CR = compileMiniC(MultiFunctionSource, Opts);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  AllocOptions AO;
  AO.K = 5;
  EXPECT_THROW(allocateSpillEverything(*CR.Prog->functions()[0], AO),
               AllocError);
}

//===----------------------------------------------------------------------===//
// Env cache semantics
//===----------------------------------------------------------------------===//

TEST(EnvCache, FirstQueryWins) {
  // Unset at first read: stays unset even after setenv.
  ASSERT_EQ(std::getenv("RAP_TEST_ENV_UNSET"), nullptr);
  EXPECT_FALSE(env::flag("RAP_TEST_ENV_UNSET"));
  setenv("RAP_TEST_ENV_UNSET", "1", 1);
  EXPECT_FALSE(env::flag("RAP_TEST_ENV_UNSET"));
  unsetenv("RAP_TEST_ENV_UNSET");

  // Set at first read: value is latched across later changes.
  setenv("RAP_TEST_ENV_SET", "first", 1);
  ASSERT_TRUE(env::get("RAP_TEST_ENV_SET").has_value());
  EXPECT_EQ(*env::get("RAP_TEST_ENV_SET"), "first");
  setenv("RAP_TEST_ENV_SET", "second", 1);
  EXPECT_EQ(*env::get("RAP_TEST_ENV_SET"), "first");
  unsetenv("RAP_TEST_ENV_SET");
}

} // namespace
