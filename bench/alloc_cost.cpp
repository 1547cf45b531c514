//===- bench/alloc_cost.cpp - Allocator compile-time and space ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark harness for the paper's introduction claims about the
/// allocators themselves: RAP builds many *small* interference graphs
/// ("smaller interference graphs ... than one interference graph for the
/// whole program"), trading allocation time for space.
///
/// Only the allocation phase is measured: each iteration compiles the MiniC
/// source to unallocated ILOC outside the clock (manual timing), then times
/// allocateProgramChecked alone. Counters break the allocator's cost down into
/// graph construction time, liveness time, peak adjacency memory, and the
/// heap allocations the allocation makes (heap_allocs): this binary replaces
/// the global operator new with a counting one.
///
//===----------------------------------------------------------------------===//

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/Json.h"

#include "benchmark/benchmark.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

using namespace rap;

namespace {
std::atomic<uint64_t> HeapAllocs{0};
} // namespace

// Every operator new form the program uses reaches this one (the array and
// nothrow forms call it), so it counts each heap allocation once.
void *operator new(std::size_t Size) {
  HeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Allocates \p Prog with \p Kind; returns the stats, the seconds taken
/// and the heap allocations made.
struct TimedAlloc {
  AllocStats Stats;
  double Seconds;
  uint64_t HeapAllocs;
};
TimedAlloc timedAllocate(IlocProgram &Prog, AllocatorKind Kind,
                         const AllocOptions &Alloc) {
  uint64_t Allocs = HeapAllocs.load(std::memory_order_relaxed);
  auto Start = std::chrono::steady_clock::now();
  AllocStats S = allocateProgramChecked(Prog, Kind, Alloc).Total;
  auto End = std::chrono::steady_clock::now();
  return {S, std::chrono::duration<double>(End - Start).count(),
          HeapAllocs.load(std::memory_order_relaxed) - Allocs};
}

void allocBench(benchmark::State &State, const char *Program,
                AllocatorKind Kind, unsigned K) {
  const BenchProgram *P = findBenchProgram(Program);
  if (!P) {
    State.SkipWithError("unknown benchmark program");
    return;
  }
  CompileOptions FrontendOpts; // Allocator = None: virtual-register ILOC
  AllocOptions Alloc;
  Alloc.K = K;
  unsigned MaxNodes = 0;
  double GraphSeconds = 0, LivenessSeconds = 0;
  size_t PeakGraphBytes = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    CompileResult CR = compileMiniC(P->Source, FrontendOpts);
    if (!CR.ok()) {
      State.SkipWithError("compilation failed");
      return;
    }
    TimedAlloc T = timedAllocate(*CR.Prog, Kind, Alloc);
    State.SetIterationTime(T.Seconds);
    benchmark::DoNotOptimize(CR.Prog.get());
    const AllocStats &S = T.Stats;
    MaxNodes = std::max(MaxNodes, S.MaxGraphNodes);
    GraphSeconds = S.GraphBuildSeconds;
    LivenessSeconds = S.LivenessSeconds;
    PeakGraphBytes = std::max(PeakGraphBytes, S.PeakGraphBytes);
    Allocs = T.HeapAllocs;
  }
  State.counters["max_graph_nodes"] = MaxNodes;
  State.counters["graph_build_s"] = GraphSeconds;
  State.counters["liveness_s"] = LivenessSeconds;
  State.counters["peak_graph_bytes"] =
      static_cast<double>(PeakGraphBytes);
  State.counters["heap_allocs"] = static_cast<double>(Allocs);
}

void registerAll() {
  const char *Programs[] = {"loop7", "loop21", "queens", "hsort", "intmm"};
  for (const char *Prog : Programs) {
    for (unsigned K : {3u, 9u}) {
      benchmark::RegisterBenchmark(
          (std::string("gra/") + Prog + "/k" + std::to_string(K)).c_str(),
          [Prog, K](benchmark::State &S) {
            allocBench(S, Prog, AllocatorKind::Gra, K);
          })
          ->UseManualTime();
      benchmark::RegisterBenchmark(
          (std::string("rap/") + Prog + "/k" + std::to_string(K)).c_str(),
          [Prog, K](benchmark::State &S) {
            allocBench(S, Prog, AllocatorKind::Rap, K);
          })
          ->UseManualTime();
    }
  }
}

/// --json mode: one single-shot measurement per (allocator, program, k)
/// emitted as "rap-bench-v1" rows — the machine-readable counterpart of the
/// google-benchmark counters (timings are single runs; treat as smoke data).
int runJsonMode() {
  const char *Programs[] = {"loop7", "loop21", "queens", "hsort", "intmm"};
  json::Array Rows;
  for (const char *Prog : Programs) {
    const BenchProgram *P = findBenchProgram(Prog);
    if (!P) {
      std::fprintf(stderr, "alloc_cost: unknown program '%s'\n", Prog);
      return 1;
    }
    for (unsigned K : {3u, 9u}) {
      for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
        CompileOptions FrontendOpts;
        CompileResult CR = compileMiniC(P->Source, FrontendOpts);
        if (!CR.ok()) {
          std::fprintf(stderr, "alloc_cost: %s failed to compile\n", Prog);
          return 1;
        }
        AllocOptions Alloc;
        Alloc.K = K;
        TimedAlloc T = timedAllocate(*CR.Prog, Kind, Alloc);
        json::Object Row;
        Row["benchmark"] = Prog;
        Row["allocator"] = Kind == AllocatorKind::Rap ? "rap" : "gra";
        Row["k"] = K;
        Row["alloc_s"] = T.Seconds;
        Row["heap_allocs"] = T.HeapAllocs;
        Row["alloc"] = allocStatsJson(T.Stats);
        Rows.push_back(json::Value(std::move(Row)));
      }
    }
  }
  json::Object Root;
  Root["schema"] = "rap-bench-v1";
  Root["bench"] = "alloc_cost";
  Root["rows"] = json::Value(std::move(Rows));
  std::printf("%s\n", json::Value(std::move(Root)).str(2).c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::strcmp(argv[I], "--json") == 0)
      return runJsonMode();
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
