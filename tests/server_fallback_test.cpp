//===- tests/server_fallback_test.cpp - rapd's degraded outcomes ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapd and rapcc allocate each function through the same allocateFunction,
/// so a function that degrades to the spill-everything fallback must read
/// the same in both: same status, error kind, error text and AllocStats.
/// These tests arm an injected coloring fault in `main` for the whole
/// process (see the file-scope initializer) and check, for RAP and GRA,
/// that CompileService's outcome equals compileMiniC's on a cold compile
/// and on a warm cache hit.
///
//===----------------------------------------------------------------------===//

#include "server/CompileService.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

// Latch the fault plan before anything reads it (envFaultPlan() reads the
// variable once per process): main's first coloring throws InjectedFault.
const int EnvSetter = []() {
  setenv("RAP_FAULT_INJECT", "color:1@main", 1);
  return 0;
}();

const char *Source = R"(
int work(int n) {
  int a = n + 1; int b = a * 3; int c = a - b; int d = b * 7;
  for (int i = 0; i < n; i = i + 1) {
    a = a + b * i; b = b + c - i; c = c + d; d = d + a % 613;
  }
  return a + b + c + d;
}
int main() {
  int s = work(9);
  return s + work(4);
}
)";

/// What rapcc records: compileMiniC with the fallback on.
std::vector<AllocOutcome> rapccOutcomes(AllocatorKind Kind) {
  CompileOptions CO;
  CO.Allocator = Kind;
  CO.Alloc.K = 3;
  CO.Alloc.FallbackOnError = true;
  CompileResult CR = compileMiniC(Source, CO);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  return CR.AllocOutcomes;
}

void expectOutcomes(const ServiceResult &Res, bool CacheHit,
                    const std::vector<AllocOutcome> &Want) {
  ASSERT_TRUE(Res.Ok) << Res.Errors;
  ASSERT_EQ(Res.Functions.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    const FunctionReport &R = Res.Functions[I];
    SCOPED_TRACE(Want[I].Function);
    EXPECT_EQ(R.CacheHit, CacheHit);
    EXPECT_EQ(R.Outcome.Function, Want[I].Function);
    EXPECT_EQ(R.Outcome.Status, Want[I].Status);
    EXPECT_EQ(R.Outcome.ErrorKind, Want[I].ErrorKind);
    EXPECT_EQ(R.Outcome.Error, Want[I].Error);
    EXPECT_TRUE(R.Outcome.Stats.structuralEq(Want[I].Stats));
  }
}

void checkFallbackAgrees(AllocatorKind Kind) {
  std::vector<AllocOutcome> Want = rapccOutcomes(Kind);
  ASSERT_EQ(Want.size(), 2u);
  EXPECT_EQ(Want[0].Function, "work");
  EXPECT_EQ(Want[0].Status, AllocStatus::Allocated);
  EXPECT_EQ(Want[1].Function, "main");
  EXPECT_EQ(Want[1].Status, AllocStatus::Fallback);
  EXPECT_EQ(Want[1].ErrorKind, AllocErrorKind::InjectedFault);

  ServiceConfig Config;
  Config.Shards = 2;
  RequestOptions Opts;
  Opts.Allocator = Kind;
  Opts.K = 3;

  CompileService Service(Config);
  ServiceResult Cold = Service.compile(Source, Opts);
  expectOutcomes(Cold, /*CacheHit=*/false, Want);
  EXPECT_EQ(Cold.degraded(), 1u);

  ServiceResult Warm = Service.compile(Source, Opts);
  expectOutcomes(Warm, /*CacheHit=*/true, Want);
  EXPECT_EQ(Warm.OutputHash, Cold.OutputHash);
}

TEST(ServerFallback, RapOutcomeMatchesRapcc) {
  checkFallbackAgrees(AllocatorKind::Rap);
}

TEST(ServerFallback, GraOutcomeMatchesRapcc) {
  checkFallbackAgrees(AllocatorKind::Gra);
}

} // namespace
