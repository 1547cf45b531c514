//===- tests/telemetry_test.cpp - Telemetry subsystem lock-down -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down the telemetry subsystem (support/Stats.h, DESIGN.md §9):
///
///  * the named-counter aggregate mirrors the AllocStats ledger exactly,
///    degraded runs included,
///  * the spill-instruction ledger balances against the final code — every
///    ldm/stm in the output is accounted for by an insertion minus the
///    removals the cleanup phases claim (checked over the whole Table 1
///    suite, both allocators, spilling and non-spilling k),
///  * allocator-reported spill counts cross-check against what the
///    interpreter actually executes,
///  * attaching telemetry changes nothing: allocated code and stats are
///    byte-identical with and without a registry,
///  * phase slices are well-formed (named, non-negative, region-attributed).
///
//===----------------------------------------------------------------------===//

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

using namespace rap;

namespace {

/// Loop nest plus enough simultaneously-live scalars to spill at small k:
/// exercises every RAP phase (spilling, movement, peephole, cleanup).
const char *SpillySource = R"(
int work(int n) {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = 5; int f = 6; int g = 7; int h = 8;
  int i;
  for (i = 0; i < n; i = i + 1) {
    a = a + b; b = b + c; c = c + d; d = d + e;
    e = e + f; f = f + g; g = g + h; h = h + a;
  }
  return a + b + c + d + e + f + g + h;
}

int main() {
  return work(12);
}
)";

/// No branches anywhere: every instruction in the allocated binary executes
/// exactly once, so static spill-op counts equal dynamic executed counts.
const char *StraightLineSource = R"(
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = 5; int f = 6; int g = 7; int h = 8;
  int i = 9; int j = 10;
  int s1 = a + b + c + d + e;
  int s2 = f + g + h + i + j;
  int s3 = s1 * s2 + a * h;
  int s4 = s3 - b * g + c * f;
  return s4 + s1 - s2 + d * e;
}
)";

struct SpillOpCount {
  uint64_t Loads = 0;  ///< ldm in the final code
  uint64_t Stores = 0; ///< stm in the final code
};

SpillOpCount countSpillOps(const IlocProgram &Prog) {
  SpillOpCount C;
  for (const auto &F : Prog.functions()) {
    F->root()->forEachInstr([&](Instr *I) {
      C.Loads += I->Op == Opcode::LdSpill;
      C.Stores += I->Op == Opcode::StSpill;
    });
  }
  return C;
}

CompileResult compileWith(const std::string &Source, AllocatorKind Kind,
                          unsigned K, telemetry::Telemetry *Telem = nullptr,
                          unsigned Threads = 1) {
  CompileOptions Options;
  Options.Allocator = Kind;
  Options.Alloc.K = K;
  Options.Alloc.Threads = Threads;
  Options.Alloc.Telem = Telem;
  return compileMiniC(Source, Options);
}

/// The ledger from AllocOutcome.h: what the books say must remain in the
/// output after all insertions and removals.
int64_t expectedLoads(const AllocStats &S) {
  return int64_t(S.SpillLoadsInserted) + S.HoistedLoads -
         S.MovementRemovedLoads - S.PeepholeRemovedLoads -
         S.PeepholeLoadsToCopies - S.CleanupRemovedLoads;
}
int64_t expectedStores(const AllocStats &S) {
  return int64_t(S.SpillStoresInserted) + S.SunkStores -
         S.MovementRemovedStores - S.PeepholeRemovedStores -
         S.CleanupRemovedStores;
}

uint64_t counterOr0(const telemetry::Aggregate &A, const char *Name) {
  auto It = A.Counters.find(Name);
  return It == A.Counters.end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// Counter aggregate mirrors the AllocStats ledger
//===----------------------------------------------------------------------===//

TEST(Telemetry, CountersMirrorAllocStatsRap) {
  telemetry::Telemetry Telem;
  CompileResult CR = compileWith(SpillySource, AllocatorKind::Rap, 3, &Telem);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  const AllocStats &S = CR.Alloc;
  const telemetry::Aggregate &A = CR.Telemetry;

  EXPECT_EQ(A.NumFunctions, CR.Prog->functions().size());
  EXPECT_EQ(counterOr0(A, "rap.graph_builds"), S.GraphBuilds);
  EXPECT_EQ(counterOr0(A, "graph.max_nodes"), S.MaxGraphNodes);
  EXPECT_EQ(counterOr0(A, "rap.regions_processed"), S.RegionsProcessed);
  EXPECT_EQ(counterOr0(A, "rap.spill_rounds"), S.SpillRounds);
  EXPECT_EQ(counterOr0(A, "movement.hoisted_loads"), S.HoistedLoads);
  EXPECT_EQ(counterOr0(A, "movement.sunk_stores"), S.SunkStores);
  EXPECT_EQ(counterOr0(A, "movement.removed_loads"), S.MovementRemovedLoads);
  EXPECT_EQ(counterOr0(A, "movement.removed_stores"),
            S.MovementRemovedStores);
  EXPECT_EQ(counterOr0(A, "peephole.removed_loads"), S.PeepholeRemovedLoads);
  EXPECT_EQ(counterOr0(A, "peephole.removed_stores"),
            S.PeepholeRemovedStores);
  EXPECT_EQ(counterOr0(A, "peephole.loads_to_copies"),
            S.PeepholeLoadsToCopies);
  EXPECT_EQ(counterOr0(A, "cleanup.removed_loads") +
                counterOr0(A, "cleanup.loads_to_copies"),
            S.CleanupRemovedLoads);
  EXPECT_EQ(counterOr0(A, "cleanup.removed_stores"), S.CleanupRemovedStores);
  EXPECT_EQ(counterOr0(A, "rewrite.copies_deleted"), S.CopiesDeleted);

  // The pressure loop must actually have exercised the spill machinery for
  // this test to mean anything.
  EXPECT_GT(S.SpillRounds, 0u);
  EXPECT_GT(S.SpillLoadsInserted, 0u);
}

TEST(Telemetry, CountersMirrorAllocStatsGra) {
  telemetry::Telemetry Telem;
  CompileResult CR = compileWith(SpillySource, AllocatorKind::Gra, 3, &Telem);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  const telemetry::Aggregate &A = CR.Telemetry;
  EXPECT_EQ(A.NumFunctions, CR.Prog->functions().size());
  EXPECT_EQ(counterOr0(A, "graph.max_nodes"), CR.Alloc.MaxGraphNodes);
  EXPECT_GT(counterOr0(A, "gra.rounds"), 0u);
  EXPECT_EQ(counterOr0(A, "alloc.fallbacks"), 0u);
}

TEST(Telemetry, GoldenNoSpillProgram) {
  // A handful of scalars colors at k = 9 without spilling; the golden
  // expectation is a completely quiet spill ledger, no spill-round counter
  // ever recorded, and spill-free output code.
  const char *TinySource = R"(
int main() {
  int a = 1; int b = 2; int c = 3;
  return a + b * c;
}
)";
  telemetry::Telemetry Telem;
  CompileResult CR = compileWith(TinySource, AllocatorKind::Rap, 9, &Telem);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  EXPECT_EQ(CR.Alloc.SpillRounds, 0u);
  EXPECT_EQ(CR.Alloc.SpilledVRegs, 0u);
  EXPECT_EQ(CR.Alloc.SpillLoadsInserted, 0u);
  EXPECT_EQ(CR.Alloc.SpillStoresInserted, 0u);
  EXPECT_EQ(CR.Telemetry.Counters.count("rap.spill_rounds"), 0u);
  SpillOpCount Ops = countSpillOps(*CR.Prog);
  EXPECT_EQ(Ops.Loads, 0u);
  EXPECT_EQ(Ops.Stores, 0u);
  EXPECT_GT(counterOr0(CR.Telemetry, "rap.regions_processed"), 0u);
}

TEST(Telemetry, MaxCountersFoldWithMaxAcrossFunctions) {
  // graph.max_nodes must aggregate as a high-water mark, not a sum: the
  // program-level value equals the largest per-function record.
  telemetry::Telemetry Telem;
  CompileResult CR = compileWith(SpillySource, AllocatorKind::Rap, 3, &Telem);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  uint64_t PerFunctionMax = 0, PerFunctionSum = 0;
  for (const AllocOutcome &O : CR.AllocOutcomes) {
    PerFunctionMax = std::max<uint64_t>(PerFunctionMax, O.Stats.MaxGraphNodes);
    PerFunctionSum += O.Stats.MaxGraphNodes;
  }
  EXPECT_EQ(counterOr0(CR.Telemetry, "graph.max_nodes"), PerFunctionMax);
  // With more than one instrumented function the sum would differ — make
  // sure this test would actually catch a sum-fold regression.
  ASSERT_GT(CR.AllocOutcomes.size(), 1u);
  EXPECT_GT(PerFunctionSum, PerFunctionMax);
}

TEST(Telemetry, DegradedRunCountersDescribeTheProducedCode) {
  // The second coloring round faults, so the function degrades to the
  // spill-everything fallback. One stats document must then tell one
  // story: the counters describe the fallback code that was produced, as
  // the alloc section does, not the attempt that was thrown away.
  for (const char *Name : {"loop1", "hsort"}) {
    const BenchProgram *P = findBenchProgram(Name);
    ASSERT_NE(P, nullptr) << Name;
    telemetry::Telemetry Telem;
    CompileOptions Options;
    Options.Allocator = AllocatorKind::Rap;
    Options.Alloc.K = 3;
    Options.Alloc.FallbackOnError = true;
    Options.Alloc.Faults = FaultPlan::fromString("color:2");
    Options.Alloc.Telem = &Telem;
    CompileResult CR = compileMiniC(P->Source, Options);
    ASSERT_TRUE(CR.ok()) << Name << ": " << CR.Errors;
    ReportMeta Meta;
    Meta.Allocator = "rap";
    Meta.K = 3;
    json::Value Doc = statsJson(CR, Meta);
    ASSERT_GT(Doc["degraded_functions"].asInt(), 0) << Name;

    const json::Value &Counters = Doc["counters"], &Alloc = Doc["alloc"];
    for (auto [Counter, Key] :
         {std::pair{"rap.graph_builds", "graph_builds"},
          std::pair{"graph.max_nodes", "max_graph_nodes"},
          std::pair{"rap.regions_processed", "regions_processed"}}) {
      EXPECT_TRUE(Counters.has(Counter)) << Name << ": " << Counter;
      EXPECT_EQ(Counters[Counter].asInt(), Alloc[Key].asInt())
          << Name << ": " << Counter << " vs alloc." << Key;
    }
    EXPECT_EQ(Counters["alloc.fallbacks"].asInt(),
              Doc["degraded_functions"].asInt())
        << Name;
  }
}

//===----------------------------------------------------------------------===//
// The spill-instruction ledger balances against the final code
//===----------------------------------------------------------------------===//

TEST(Telemetry, LedgerBalancesOnTable1Suite) {
  for (const BenchProgram &P : benchPrograms()) {
    for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
      for (unsigned K : {3u, 9u}) {
        CompileResult CR = compileWith(P.Source, Kind, K);
        ASSERT_TRUE(CR.ok()) << P.Name << ": " << CR.Errors;
        SpillOpCount Ops = countSpillOps(*CR.Prog);
        const char *KindName = Kind == AllocatorKind::Rap ? "rap" : "gra";
        EXPECT_EQ(int64_t(Ops.Loads), expectedLoads(CR.Alloc))
            << P.Name << " " << KindName << " k=" << K
            << ": load ledger out of balance";
        EXPECT_EQ(int64_t(Ops.Stores), expectedStores(CR.Alloc))
            << P.Name << " " << KindName << " k=" << K
            << ": store ledger out of balance";
      }
    }
  }
}

TEST(Telemetry, LedgerBalancesWithPhasesDisabled) {
  // Each cleanup phase removes ops it must also report; ablating phases one
  // at a time shifts where removals are booked but never unbalances.
  struct Config {
    bool Movement, Peephole, Cleanup;
  };
  for (Config C : {Config{false, false, false}, Config{true, false, false},
                   Config{true, true, false}, Config{true, true, true}}) {
    CompileOptions Options;
    Options.Allocator = AllocatorKind::Rap;
    Options.Alloc.K = 3;
    Options.Alloc.SpillMovement = C.Movement;
    Options.Alloc.Peephole = C.Peephole;
    Options.Alloc.GlobalCleanup = C.Cleanup;
    CompileResult CR = compileMiniC(SpillySource, Options);
    ASSERT_TRUE(CR.ok()) << CR.Errors;
    SpillOpCount Ops = countSpillOps(*CR.Prog);
    EXPECT_EQ(int64_t(Ops.Loads), expectedLoads(CR.Alloc));
    EXPECT_EQ(int64_t(Ops.Stores), expectedStores(CR.Alloc));
  }
}

//===----------------------------------------------------------------------===//
// Interpreter cross-checks: reported spill code is what actually runs
//===----------------------------------------------------------------------===//

TEST(Telemetry, StraightLineStaticEqualsDynamic) {
  // Without branches every instruction executes exactly once, so the
  // allocator's ledger must equal the interpreter's executed counts.
  CompileResult CR = compileWith(StraightLineSource, AllocatorKind::Rap, 3);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  SpillOpCount Ops = countSpillOps(*CR.Prog);
  ASSERT_GT(Ops.Loads + Ops.Stores, 0u) << "k=3 should force spills here";
  RunResult R = Interpreter(*CR.Prog).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.SpillLoads, Ops.Loads);
  EXPECT_EQ(R.Stats.SpillStores, Ops.Stores);
  EXPECT_EQ(int64_t(R.Stats.SpillLoads), expectedLoads(CR.Alloc));
  EXPECT_EQ(int64_t(R.Stats.SpillStores), expectedStores(CR.Alloc));
}

TEST(Telemetry, Table1DynamicSpillsConsistent) {
  // On real routines dynamic counts exceed static (loops), but spill code
  // executes iff the ledger says some survived to the output — and the
  // allocated binary must still compute the reference checksum.
  for (const char *Name : {"loop7", "queens", "hsort"}) {
    const BenchProgram *P = findBenchProgram(Name);
    ASSERT_NE(P, nullptr);
    CompileOptions RefOpts;
    RunResult Ref = compileAndRun(P->Source, RefOpts);
    ASSERT_TRUE(Ref.Ok) << Name << ": " << Ref.Error;

    CompileResult CR = compileWith(P->Source, AllocatorKind::Rap, 3);
    ASSERT_TRUE(CR.ok()) << Name << ": " << CR.Errors;
    SpillOpCount Ops = countSpillOps(*CR.Prog);
    RunResult R = Interpreter(*CR.Prog).run();
    ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
    EXPECT_EQ(R.ReturnValue.asInt(), Ref.ReturnValue.asInt()) << Name;
    EXPECT_EQ(Ops.Loads > 0, R.Stats.SpillLoads > 0) << Name;
    EXPECT_EQ(Ops.Stores > 0, R.Stats.SpillStores > 0) << Name;
    EXPECT_GE(R.Stats.Loads, R.Stats.SpillLoads) << Name;
    EXPECT_GE(R.Stats.Stores, R.Stats.SpillStores) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Disabled telemetry is invisible
//===----------------------------------------------------------------------===//

TEST(Telemetry, DisabledTelemetryChangesNothing) {
  CompileResult Plain = compileWith(SpillySource, AllocatorKind::Rap, 3);
  telemetry::Telemetry Telem;
  CompileResult Instrumented =
      compileWith(SpillySource, AllocatorKind::Rap, 3, &Telem);
  ASSERT_TRUE(Plain.ok() && Instrumented.ok());

  ASSERT_EQ(Plain.Prog->functions().size(),
            Instrumented.Prog->functions().size());
  for (size_t I = 0; I != Plain.Prog->functions().size(); ++I)
    EXPECT_EQ(Plain.Prog->functions()[I]->str(),
              Instrumented.Prog->functions()[I]->str())
        << "telemetry perturbed allocated code of function " << I;
  EXPECT_TRUE(Plain.Alloc.structuralEq(Instrumented.Alloc));

  // No registry attached -> the result carries an empty aggregate.
  EXPECT_EQ(Plain.Telemetry.NumFunctions, 0u);
  EXPECT_TRUE(Plain.Telemetry.Counters.empty());
  EXPECT_GT(Instrumented.Telemetry.NumFunctions, 0u);
}

//===----------------------------------------------------------------------===//
// Phase slices
//===----------------------------------------------------------------------===//

TEST(Telemetry, PhaseSlicesWellFormed) {
  telemetry::Telemetry Telem;
  CompileResult CR = compileWith(SpillySource, AllocatorKind::Rap, 3, &Telem);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  uint64_t RegionSlices = 0, TotalSlices = 0;
  for (const auto &[Index, R] : Telem.ordered()) {
    (void)Index;
    EXPECT_FALSE(R->Function.empty());
    ASSERT_FALSE(R->Scope.Slices.empty()) << R->Function;
    for (const telemetry::PhaseSlice &S : R->Scope.Slices) {
      ++TotalSlices;
      EXPECT_STRNE(S.Phase, "");
      EXPECT_GE(S.DurUs, 0.0);
      EXPECT_GE(S.StartUs, 0.0);
      if (std::string(S.Phase) == "rap_region") {
        EXPECT_GE(S.Region, 0);
        ++RegionSlices;
      }
      // Phase timers accumulate every slice, so each sliced phase must
      // have a timer entry.
      EXPECT_TRUE(R->Scope.TimerSeconds.count(S.Phase)) << S.Phase;
    }
  }
  EXPECT_GT(RegionSlices, 0u) << "no per-region slices recorded";
  EXPECT_EQ(CR.Telemetry.NumSlices, TotalSlices);
}

} // namespace
