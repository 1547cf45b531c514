//===- driver/Report.cpp - Stats rendering (text + JSON) --------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "driver/Report.h"

#include <cstdio>

using namespace rap;

json::Value rap::allocStatsJson(const AllocStats &S) {
  json::Object A;
  for (const AllocCounter &C : AllocCounters)
    if (C.Key)
      A[C.Key] = S.*C.Member;
  A["peak_graph_bytes"] = static_cast<uint64_t>(S.PeakGraphBytes);
  return json::Value(std::move(A));
}

json::Object rap::execStatsJson(const ExecStats &S) {
  json::Object O;
  O["cycles"] = S.Cycles;
  O["loads"] = S.Loads;
  O["spill_loads"] = S.SpillLoads;
  O["stores"] = S.Stores;
  O["spill_stores"] = S.SpillStores;
  O["copies"] = S.Copies;
  O["calls"] = S.Calls;
  return O;
}

json::Value rap::statsJson(const CompileResult &R, const ReportMeta &Meta) {
  json::Object Root;
  Root["schema"] = "rap-stats-v1";
  Root["allocator"] = Meta.Allocator;
  Root["k"] = Meta.K;
  Root["threads"] = Meta.Threads;

  unsigned Degraded = 0;
  json::Array PerFunction;
  for (const AllocOutcome &O : R.AllocOutcomes) {
    Degraded += O.degraded();
    json::Object F;
    F["function"] = O.Function;
    F["status"] = allocStatusName(O.Status);
    F["alloc"] = allocStatsJson(O.Stats);
    if (!O.Error.empty())
      F["error"] = O.Error;
    PerFunction.push_back(json::Value(std::move(F)));
  }
  Root["functions"] = static_cast<uint64_t>(R.AllocOutcomes.size());
  Root["degraded_functions"] = Degraded;
  Root["per_function"] = json::Value(std::move(PerFunction));

  Root["alloc"] = allocStatsJson(R.Alloc);

  // Wall clocks: the only non-deterministic sections of the document.
  json::Object Timing;
  Timing["graph_build_s"] = R.Alloc.GraphBuildSeconds;
  Timing["liveness_s"] = R.Alloc.LivenessSeconds;
  Root["timing"] = json::Value(std::move(Timing));

  Root["counters"] = R.Telemetry.countersJson();
  Root["timers"] = R.Telemetry.timersJson();
  Root["telemetry_slices"] = R.Telemetry.NumSlices;

  return json::Value(std::move(Root));
}

std::string rap::statsText(const CompileResult &R, const ReportMeta &Meta) {
  const AllocStats &A = R.Alloc;
  char Buf[512];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf),
                "alloc stats (%s, k=%u, threads=%u):\n",
                Meta.Allocator.c_str(), Meta.K, Meta.Threads);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  graphs=%u maxnodes=%u regions=%u rounds=%u spills=%u\n",
                A.GraphBuilds, A.MaxGraphNodes, A.RegionsProcessed,
                A.SpillRounds, A.SpilledVRegs);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  spill code: +%u loads +%u stores; movement hoisted=%u "
                "sunk=%u removed=%u/%u\n",
                A.SpillLoadsInserted, A.SpillStoresInserted, A.HoistedLoads,
                A.SunkStores, A.MovementRemovedLoads, A.MovementRemovedStores);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  cleanup: peephole=%u/%u (%u to copies) dataflow=%u/%u "
                "copies-deleted=%u\n",
                A.PeepholeRemovedLoads, A.PeepholeRemovedStores,
                A.PeepholeLoadsToCopies, A.CleanupRemovedLoads,
                A.CleanupRemovedStores, A.CopiesDeleted);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  time: graph-build=%.3fms liveness=%.3fms\n",
                A.GraphBuildSeconds * 1e3, A.LivenessSeconds * 1e3);
  Out += Buf;
  if (!R.Telemetry.Counters.empty()) {
    std::snprintf(Buf, sizeof(Buf),
                  "  telemetry: %llu function(s), %llu slice(s)\n",
                  static_cast<unsigned long long>(R.Telemetry.NumFunctions),
                  static_cast<unsigned long long>(R.Telemetry.NumSlices));
    Out += Buf;
    for (const auto &[K, V] : R.Telemetry.Counters) {
      std::snprintf(Buf, sizeof(Buf), "    %-32s %llu\n", K.c_str(),
                    static_cast<unsigned long long>(V));
      Out += Buf;
    }
  }
  return Out;
}
