//===- tests/stats_schema_test.cpp - Machine-readable output schemas --------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates every machine-readable document the toolchain emits by parsing
/// the serialized text back through the strict json parser:
///
///  * "rap-stats-v1" (rapcc --stats=json / driver statsJson): required
///    keys, correct types, no nulls anywhere (a null is how a NaN/Inf
///    sneaks into serialization), counters non-negative, ledger internally
///    consistent, per-function rows folding to the aggregate; and the
///    `server` section rapd adds (server::serverStatsJson).
///  * Chrome trace-event JSON (--trace): only "X" complete events and "M"
///    metadata, with the fields about://tracing requires.
///  * "rap-bench-v1" (the bench harnesses' --json envelope) and the shared
///    bench flag parser (--csv / --json / --k validation).
///
//===----------------------------------------------------------------------===//

#include "../bench/Table1Support.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "server/Protocol.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <sstream>
#include <string>
#include <vector>

using namespace rap;

namespace {

const char *PressureSource = R"(
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

/// Keys allocStatsJson must emit — one per AllocStats ledger counter.
const char *AllocKeys[] = {
    "graph_builds",           "spilled_vregs",
    "max_graph_nodes",        "regions_processed",
    "spill_rounds",           "spill_loads_inserted",
    "spill_stores_inserted",  "hoisted_loads",
    "sunk_stores",            "movement_removed_loads",
    "movement_removed_stores","peephole_removed_loads",
    "peephole_removed_stores","peephole_loads_to_copies",
    "cleanup_removed_loads",  "cleanup_removed_stores",
    "copies_deleted",         "peak_graph_bytes",
};

/// No null may appear anywhere in an emitted document: the writer turns
/// non-finite doubles into null precisely so this walk catches them.
void expectNoNulls(const json::Value &V, const std::string &Path) {
  EXPECT_FALSE(V.isNull()) << "null (NaN/Inf?) at " << Path;
  if (V.isArray())
    for (size_t I = 0; I != V.asArray().size(); ++I)
      expectNoNulls(V.asArray()[I], Path + "[" + std::to_string(I) + "]");
  if (V.isObject())
    for (const auto &[K, M] : V.asObject())
      expectNoNulls(M, Path + "." + K);
}

void expectAllocObject(const json::Value &A, const std::string &Path) {
  ASSERT_TRUE(A.isObject()) << Path;
  for (const char *Key : AllocKeys) {
    ASSERT_TRUE(A.has(Key)) << Path << " missing " << Key;
    ASSERT_TRUE(A[Key].isInt()) << Path << "." << Key;
    EXPECT_GE(A[Key].asInt(), 0) << Path << "." << Key;
  }
  // Internal ledger consistency: cleanups cannot remove more spill code
  // than spilling and movement created.
  EXPECT_GE(A["spill_loads_inserted"].asInt() + A["hoisted_loads"].asInt(),
            A["movement_removed_loads"].asInt() +
                A["peephole_removed_loads"].asInt() +
                A["peephole_loads_to_copies"].asInt() +
                A["cleanup_removed_loads"].asInt())
      << Path << ": load ledger went negative";
  EXPECT_GE(A["spill_stores_inserted"].asInt() + A["sunk_stores"].asInt(),
            A["movement_removed_stores"].asInt() +
                A["peephole_removed_stores"].asInt() +
                A["cleanup_removed_stores"].asInt())
      << Path << ": store ledger went negative";
}

json::Value parsedStatsDoc(CompileResult &CR, telemetry::Telemetry &Telem) {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  Options.Alloc.Telem = &Telem;
  CR = compileMiniC(PressureSource, Options);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  ReportMeta Meta;
  Meta.Allocator = "rap";
  Meta.K = 3;
  Meta.Threads = 1;
  std::string Text = statsJson(CR, Meta).str(2);
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, Doc, &Error)) << Error;
  return Doc;
}

//===----------------------------------------------------------------------===//
// rap-stats-v1
//===----------------------------------------------------------------------===//

TEST(StatsSchema, RequiredKeysAndTypes) {
  CompileResult CR;
  telemetry::Telemetry Telem;
  json::Value Doc = parsedStatsDoc(CR, Telem);
  ASSERT_TRUE(Doc.isObject());

  EXPECT_EQ(Doc["schema"].asString(), "rap-stats-v1");
  EXPECT_EQ(Doc["allocator"].asString(), "rap");
  EXPECT_EQ(Doc["k"].asInt(), 3);
  EXPECT_EQ(Doc["threads"].asInt(), 1);
  ASSERT_TRUE(Doc["functions"].isInt());
  ASSERT_TRUE(Doc["degraded_functions"].isInt());
  EXPECT_EQ(Doc["degraded_functions"].asInt(), 0);
  ASSERT_TRUE(Doc["per_function"].isArray());
  ASSERT_TRUE(Doc["counters"].isObject());
  ASSERT_TRUE(Doc["timers"].isObject());
  ASSERT_TRUE(Doc["timing"].isObject());
  ASSERT_TRUE(Doc["telemetry_slices"].isInt());
  expectNoNulls(Doc, "$");

  expectAllocObject(Doc["alloc"], "$.alloc");
  EXPECT_EQ(Doc["functions"].asInt(),
            int64_t(Doc["per_function"].asArray().size()));
  EXPECT_EQ(Doc["functions"].asInt(),
            int64_t(CR.Prog->functions().size()));
}

TEST(StatsSchema, PerFunctionRowsFoldToAggregate) {
  CompileResult CR;
  telemetry::Telemetry Telem;
  json::Value Doc = parsedStatsDoc(CR, Telem);
  int64_t GraphBuilds = 0, SpillLoads = 0, MaxNodes = 0;
  for (const json::Value &Row : Doc["per_function"].asArray()) {
    ASSERT_TRUE(Row["function"].isString());
    EXPECT_FALSE(Row["function"].asString().empty());
    EXPECT_EQ(Row["status"].asString(), "allocated");
    expectAllocObject(Row["alloc"],
                      "$.per_function[" + Row["function"].asString() + "]");
    GraphBuilds += Row["alloc"]["graph_builds"].asInt();
    SpillLoads += Row["alloc"]["spill_loads_inserted"].asInt();
    MaxNodes = std::max(MaxNodes, Row["alloc"]["max_graph_nodes"].asInt());
  }
  // Summed counters sum across functions; high-water marks take the max.
  EXPECT_EQ(Doc["alloc"]["graph_builds"].asInt(), GraphBuilds);
  EXPECT_EQ(Doc["alloc"]["spill_loads_inserted"].asInt(), SpillLoads);
  EXPECT_EQ(Doc["alloc"]["max_graph_nodes"].asInt(), MaxNodes);
}

TEST(StatsSchema, CountersMonotoneAndTimersFinite) {
  CompileResult CR;
  telemetry::Telemetry Telem;
  json::Value Doc = parsedStatsDoc(CR, Telem);
  ASSERT_FALSE(Doc["counters"].asObject().empty());
  for (const auto &[Name, V] : Doc["counters"].asObject()) {
    ASSERT_TRUE(V.isInt()) << Name;
    EXPECT_GE(V.asInt(), 0) << Name;
  }
  for (const auto &[Name, V] : Doc["timers"].asObject()) {
    ASSERT_TRUE(V.isNumber()) << Name;
    EXPECT_GE(V.asDouble(), 0.0) << Name;
    // Every timer key carries the unit suffix.
    EXPECT_EQ(Name.substr(Name.size() - 2), "_s") << Name;
  }
  for (const auto &[Name, V] : Doc["timing"].asObject()) {
    ASSERT_TRUE(V.isNumber()) << Name;
    EXPECT_GE(V.asDouble(), 0.0) << Name;
  }
}

TEST(StatsSchema, TextReportMentionsTelemetry) {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  telemetry::Telemetry Telem;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(PressureSource, Options);
  ASSERT_TRUE(CR.ok()) << CR.Errors;
  ReportMeta Meta;
  Meta.Allocator = "rap";
  Meta.K = 3;
  std::string Text = statsText(CR, Meta);
  EXPECT_NE(Text.find("alloc stats (rap, k=3"), std::string::npos);
  EXPECT_NE(Text.find("telemetry:"), std::string::npos);
  EXPECT_NE(Text.find("rap.graph_builds"), std::string::npos);
}

TEST(StatsSchema, ServerSectionOnlyWhenServing) {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  CompileResult CR = compileMiniC(PressureSource, Options);
  ASSERT_TRUE(CR.ok()) << CR.Errors;

  // rapcc documents must not grow a "server" key — existing consumers see
  // byte-identical output. Only rapd adds the section.
  ReportMeta Meta;
  Meta.Allocator = "rap";
  Meta.K = 3;
  json::Value Plain;
  std::string Error;
  ASSERT_TRUE(json::parse(statsJson(CR, Meta).str(2), Plain, &Error)) << Error;
  EXPECT_FALSE(Plain.has("server"));
  EXPECT_EQ(statsText(CR, Meta).find("server:"), std::string::npos);

  // rapd's section, from the renderer its `stats` op shares: the serving
  // counters, all non-negative ints.
  server::ServiceCounters C;
  C.CacheHits = 12;
  C.CacheMisses = 3;
  C.CacheBytes = 4096;
  C.QueueDepthMax = 5;
  C.RejectedRequests = 1;
  C.DeadlineExceeded = 7;
  C.Cancelled = 2;
  C.WatchdogTrips = 1;
  C.DrainMs = 2000;
  C.DrainDegraded = true;
  json::Value S;
  ASSERT_TRUE(json::parse(server::serverStatsJson(C).str(2), S, &Error))
      << Error;
  EXPECT_EQ(S["cache_hits"].asInt(), 12);
  EXPECT_EQ(S["cache_misses"].asInt(), 3);
  EXPECT_EQ(S["cache_bytes"].asInt(), 4096);
  EXPECT_EQ(S["queue_depth_max"].asInt(), 5);
  EXPECT_EQ(S["rejected_requests"].asInt(), 1);
  // The crash-only serving counters (DESIGN.md §13).
  EXPECT_EQ(S["deadline_exceeded"].asInt(), 7);
  EXPECT_EQ(S["cancelled"].asInt(), 2);
  EXPECT_EQ(S["watchdog_trips"].asInt(), 1);
  EXPECT_EQ(S["drain_ms"].asInt(), 2000);
  EXPECT_TRUE(S["drain_degraded"].asBool());
  expectNoNulls(S, "$.server");
  // rapd serves from memory only: the section has no `recovery` block.
  EXPECT_FALSE(S.has("recovery"));
}

//===----------------------------------------------------------------------===//
// Chrome trace-event JSON
//===----------------------------------------------------------------------===//

TEST(StatsSchema, ChromeTraceWellFormed) {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  telemetry::Telemetry Telem;
  Options.Alloc.Telem = &Telem;
  CompileResult CR = compileMiniC(PressureSource, Options);
  ASSERT_TRUE(CR.ok()) << CR.Errors;

  std::ostringstream OS;
  Telem.writeChromeTrace(OS);
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(OS.str(), Doc, &Error)) << Error;
  ASSERT_TRUE(Doc["traceEvents"].isArray());
  EXPECT_EQ(Doc["displayTimeUnit"].asString(), "ms");

  unsigned Complete = 0, Metadata = 0;
  for (const json::Value &E : Doc["traceEvents"].asArray()) {
    ASSERT_TRUE(E.isObject());
    const std::string &Ph = E["ph"].asString();
    ASSERT_TRUE(Ph == "X" || Ph == "M") << "unexpected phase " << Ph;
    ASSERT_TRUE(E["pid"].isInt());
    ASSERT_TRUE(E["tid"].isInt());
    ASSERT_TRUE(E["args"].isObject());
    if (Ph == "X") {
      ++Complete;
      EXPECT_FALSE(E["name"].asString().empty());
      EXPECT_EQ(E["cat"].asString(), "alloc");
      ASSERT_TRUE(E["ts"].isNumber());
      ASSERT_TRUE(E["dur"].isNumber());
      EXPECT_GE(E["ts"].asDouble(), 0.0);
      EXPECT_GE(E["dur"].asDouble(), 0.0);
      ASSERT_TRUE(E["args"]["function"].isString());
      if (E["name"].asString() == "rap_region") {
        EXPECT_GE(E["args"]["region"].asInt(), 0);
      }
    } else {
      ++Metadata;
      EXPECT_EQ(E["name"].asString(), "thread_name");
      EXPECT_EQ(E["args"]["name"].asString().rfind("worker ", 0), 0u);
    }
  }
  EXPECT_GT(Complete, 0u);
  EXPECT_GT(Metadata, 0u);
}

//===----------------------------------------------------------------------===//
// rap-bench-v1 and the shared bench flag parser
//===----------------------------------------------------------------------===//

TEST(StatsSchema, BenchEnvelopeWellFormed) {
  const BenchProgram *P = findBenchProgram("loop7");
  ASSERT_NE(P, nullptr);
  int64_t Want = bench::referenceChecksum(*P);
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  bench::Measurement M = bench::measure(*P, Options, Want);

  json::Array Rows;
  json::Object Row;
  Row["benchmark"] = P->Name;
  Row["k"] = 3u;
  Row["rap"] = bench::measurementJson(M);
  Rows.push_back(json::Value(std::move(Row)));
  std::string Text = bench::benchDoc("table1_rap_vs_gra", std::move(Rows))
                         .str(2);

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, Doc, &Error)) << Error;
  EXPECT_EQ(Doc["schema"].asString(), "rap-bench-v1");
  EXPECT_EQ(Doc["bench"].asString(), "table1_rap_vs_gra");
  ASSERT_TRUE(Doc["rows"].isArray());
  ASSERT_EQ(Doc["rows"].asArray().size(), 1u);
  const json::Value &R = Doc["rows"].asArray()[0]["rap"];
  for (const char *Key :
       {"cycles", "loads", "spill_loads", "stores", "spill_stores", "copies",
        "calls", "checksum"})
    ASSERT_TRUE(R[Key].isInt()) << Key;
  ASSERT_TRUE(R["has_spill_code"].isBool());
  expectAllocObject(R["alloc"], "$.rows[0].rap.alloc");
  expectNoNulls(Doc, "$");
}

bench::BenchFlags parseArgs(std::vector<std::string> Args) {
  std::vector<char *> Argv;
  static std::string Name = "bench";
  Argv.push_back(Name.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return bench::parseBenchFlags(static_cast<int>(Argv.size()), Argv.data());
}

TEST(StatsSchema, BenchFlagsAccept) {
  bench::BenchFlags F = parseArgs({});
  EXPECT_TRUE(F.Ok);
  EXPECT_FALSE(F.Csv);
  EXPECT_FALSE(F.Json);
  EXPECT_TRUE(F.Ks.empty());

  F = parseArgs({"--csv"});
  EXPECT_TRUE(F.Ok && F.Csv);

  F = parseArgs({"--json", "--k=3,5,9"});
  ASSERT_TRUE(F.Ok) << F.Error;
  EXPECT_TRUE(F.Json);
  EXPECT_EQ(F.Ks, (std::vector<unsigned>{3, 5, 9}));

  F = parseArgs({"--k=17"});
  ASSERT_TRUE(F.Ok) << F.Error;
  EXPECT_EQ(F.Ks, (std::vector<unsigned>{17}));
}

TEST(StatsSchema, BenchFlagsReject) {
  EXPECT_FALSE(parseArgs({"--bogus"}).Ok);
  EXPECT_FALSE(parseArgs({"-csv"}).Ok);
  EXPECT_FALSE(parseArgs({"--k="}).Ok);
  EXPECT_FALSE(parseArgs({"--k=2"}).Ok);      // below the minimum of 3
  EXPECT_FALSE(parseArgs({"--k=3,x"}).Ok);    // trailing garbage
  EXPECT_FALSE(parseArgs({"--k=banana"}).Ok);
  EXPECT_FALSE(parseArgs({"--csv", "--json"}).Ok); // mutually exclusive
  EXPECT_FALSE(parseArgs({"--bogus"}).Error.empty());
}

} // namespace
