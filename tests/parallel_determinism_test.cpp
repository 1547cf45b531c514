//===- tests/parallel_determinism_test.cpp - Parallel driver checks ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel per-function allocation driver must be invisible in the
/// output: any thread count produces byte-identical allocated code and
/// structurally equal stats versus a serial run. These tests compile a
/// multi-function program once per configuration and diff the results.
///
/// The whole binary additionally runs with RAP_VERIFY_LIVENESS set (see the
/// file-scope initializer), so every incremental liveness solve performed by
/// the allocators here is cross-checked against a cold recompute.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <string>
#include <vector>

using namespace rap;

namespace {

// Latch the liveness verification env flag before any Liveness is built in
// this process (the flag is read once and cached).
const int EnvSetter = []() {
  setenv("RAP_VERIFY_LIVENESS", "1", 1);
  return 0;
}();

/// Several functions with loop nests and enough simultaneously-live scalars
/// to force spilling at small k, so the parallel runs cover the full spill /
/// refresh machinery, not just coloring.
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

int nested(int n) {
  int i; int j; int s = 0;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      s = s + ga[(i + j) - ((i + j) / 16) * 16];
    }
  }
  return s;
}

int main() {
  int x = fill(16);
  int y = pressure(20);
  int z = nested(8);
  return x + y + z;
}
)";

struct AllocRun {
  std::vector<std::string> Functions; ///< printed allocated code, in order
  AllocStats Stats;
};

AllocRun runAllocation(const std::string &Source, AllocatorKind Kind,
                       unsigned K, unsigned Threads) {
  CompileOptions Options;
  Options.Allocator = Kind;
  Options.Alloc.K = K;
  Options.Alloc.Threads = Threads;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  AllocRun Run;
  if (!CR.ok())
    return Run;
  for (const auto &F : CR.Prog->functions())
    Run.Functions.push_back(F->str());
  Run.Stats = CR.Alloc;
  return Run;
}

void expectIdenticalRuns(const std::string &Source, AllocatorKind Kind,
                         unsigned K) {
  AllocRun Serial = runAllocation(Source, Kind, K, 1);
  for (unsigned Threads : {2u, 4u}) {
    AllocRun Parallel = runAllocation(Source, Kind, K, Threads);
    ASSERT_EQ(Serial.Functions.size(), Parallel.Functions.size());
    for (size_t I = 0; I != Serial.Functions.size(); ++I)
      EXPECT_EQ(Serial.Functions[I], Parallel.Functions[I])
          << "function " << I << " differs at threads=" << Threads;
    EXPECT_TRUE(Serial.Stats.structuralEq(Parallel.Stats))
        << "stats differ at threads=" << Threads;
  }
}

TEST(ParallelDeterminism, RapMatchesSerial) {
  for (unsigned K : {3u, 5u})
    expectIdenticalRuns(MultiFunctionSource, AllocatorKind::Rap, K);
}

TEST(ParallelDeterminism, GraMatchesSerial) {
  for (unsigned K : {3u, 5u})
    expectIdenticalRuns(MultiFunctionSource, AllocatorKind::Gra, K);
}

/// Every Table 1 routine at k=3 and k=9: k=3 is spill-heavy (many refresh
/// rounds, each incremental liveness solve verified against a cold
/// recompute by the RAP_VERIFY_LIVENESS latch above), k=9 mostly colors.
void expectBenchProgramsIdentical(AllocatorKind Kind) {
  for (const BenchProgram &P : benchPrograms())
    for (unsigned K : {3u, 9u}) {
      SCOPED_TRACE(std::string(P.Name) + " k=" + std::to_string(K));
      expectIdenticalRuns(P.Source, Kind, K);
    }
}

TEST(ParallelDeterminism, BenchProgramsUnderRap) {
  expectBenchProgramsIdentical(AllocatorKind::Rap);
}

TEST(ParallelDeterminism, BenchProgramsUnderGra) {
  expectBenchProgramsIdentical(AllocatorKind::Gra);
}

//===----------------------------------------------------------------------===//
// Telemetry determinism: the stats document and the trace content must be
// invariant under the thread count. Wall clocks can't be: the stats JSON is
// compared after erasing exactly its "timing"/"timers" sections, the trace
// after dropping per-lane metadata and zeroing ts/dur/tid. Everything else
// — counters, slice names, regions, args, per-function rows — must match
// byte for byte.
//===----------------------------------------------------------------------===//

/// rap-stats-v1 text with the documented non-deterministic sections erased.
std::string normalizedStatsJson(const std::string &Source, unsigned Threads) {
  telemetry::Telemetry Telem;
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  Options.Alloc.Threads = Threads;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  ReportMeta Meta;
  Meta.Allocator = "rap";
  Meta.K = 3;
  Meta.Threads = 1; // pin the metadata so only real divergence can differ
  json::Value Doc = statsJson(CR, Meta);
  Doc.asObject().erase("timing");
  Doc.asObject().erase("timers");
  return Doc.str(2);
}

/// The Chrome trace of compiling \p Source, normalized (test::normalizedTrace).
std::string normalizedTrace(const std::string &Source, unsigned Threads) {
  telemetry::Telemetry Telem;
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  Options.Alloc.Threads = Threads;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  return test::normalizedTrace(Telem);
}

TEST(ParallelDeterminism, StatsJsonThreadInvariant) {
  std::string Serial = normalizedStatsJson(MultiFunctionSource, 1);
  // The document must actually carry telemetry before invariance means
  // anything.
  EXPECT_NE(Serial.find("rap.graph_builds"), std::string::npos);
  for (unsigned Threads : {2u, 4u})
    EXPECT_EQ(Serial, normalizedStatsJson(MultiFunctionSource, Threads))
        << "stats JSON diverged at threads=" << Threads;
}

TEST(ParallelDeterminism, TraceThreadInvariant) {
  std::string Serial = normalizedTrace(MultiFunctionSource, 1);
  EXPECT_NE(Serial.find("rap_region"), std::string::npos);
  for (unsigned Threads : {2u, 4u})
    EXPECT_EQ(Serial, normalizedTrace(MultiFunctionSource, Threads))
        << "trace content diverged at threads=" << Threads;
}

TEST(ParallelDeterminism, StatsJsonStableAcrossRepeatedRuns) {
  std::string First = normalizedStatsJson(MultiFunctionSource, 4);
  for (int Run = 0; Run != 3; ++Run)
    EXPECT_EQ(First, normalizedStatsJson(MultiFunctionSource, 4))
        << "run " << Run;
}

TEST(ParallelDeterminism, MoreThreadsThanFunctions) {
  // Thread count far above the function count must clamp, not misbehave.
  AllocRun Serial = runAllocation(MultiFunctionSource, AllocatorKind::Rap,
                                  3, 1);
  AllocRun Wide = runAllocation(MultiFunctionSource, AllocatorKind::Rap,
                                3, 64);
  ASSERT_EQ(Serial.Functions.size(), Wide.Functions.size());
  for (size_t I = 0; I != Serial.Functions.size(); ++I)
    EXPECT_EQ(Serial.Functions[I], Wide.Functions[I]);
  EXPECT_TRUE(Serial.Stats.structuralEq(Wide.Stats));
}

} // namespace
