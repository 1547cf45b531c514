//===- tests/server_protocol_test.cpp - rapd protocol + infrastructure ------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's building blocks, bottom-up:
///
///  * fingerprintFunction — stable across recompiles of identical source,
///    sensitive to body edits and to every option that steers allocation;
///  * ShardPool — all submitted tasks run exactly once, the barrier holds,
///    and a skewed batch is actually stolen by idle shards;
///  * parseRequest — accepts the documented schema, rejects each malformed
///    field with a stable diagnostic;
///  * Server::handleLine — single requests, ordered batch arrays, the
///    bad-request path (nesting past the parser's bound and integers
///    outside int64 included), stats counters, and byte-budget admission
///    turning oversized lines into "overloaded" + retry_after_ms
///    rejections;
///  * the one counter record — the `stats` reply is serverStatsJson of
///    Server::counters(), with every key it and rapd --stats' `server`
///    section ever carried.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Deadline.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

//===----------------------------------------------------------------------===//
// Fingerprints.
//===----------------------------------------------------------------------===//

/// Lowers \p Source (no allocation) and returns the fingerprint of the
/// first function under \p Kind/\p Options.
uint64_t fingerprintOf(const std::string &Source,
                       AllocatorKind Kind = AllocatorKind::Rap,
                       AllocOptions Options = AllocOptions()) {
  CompileOptions CO;
  CO.Allocator = AllocatorKind::None;
  CompileResult CR = compileMiniC(Source, CO);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  return fingerprintFunction(*CR.Prog->functions()[0], Kind, Options);
}

const char *FpSource = "int main() {\n"
                       "  int s = 0;\n"
                       "  for (int i = 0; i < 10; i = i + 1) { s = s + i; }\n"
                       "  return s;\n"
                       "}\n";

TEST(Fingerprint, StableAcrossRecompiles) {
  EXPECT_EQ(fingerprintOf(FpSource), fingerprintOf(FpSource));
}

TEST(Fingerprint, SensitiveToBodyEdits) {
  std::string Edited(FpSource);
  size_t Pos = Edited.find("10");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 2, "11");
  EXPECT_NE(fingerprintOf(FpSource), fingerprintOf(Edited));
}

TEST(Fingerprint, SensitiveToEveryAllocationKnob) {
  uint64_t Base = fingerprintOf(FpSource);
  EXPECT_NE(Base, fingerprintOf(FpSource, AllocatorKind::Gra));

  AllocOptions O;
  O.K = 7;
  EXPECT_NE(Base, fingerprintOf(FpSource, AllocatorKind::Rap, O));

  O = AllocOptions();
  O.SpillMovement = !O.SpillMovement;
  EXPECT_NE(Base, fingerprintOf(FpSource, AllocatorKind::Rap, O));

  O = AllocOptions();
  O.Peephole = !O.Peephole;
  EXPECT_NE(Base, fingerprintOf(FpSource, AllocatorKind::Rap, O));

  O = AllocOptions();
  O.Coalesce = !O.Coalesce;
  EXPECT_NE(Base, fingerprintOf(FpSource, AllocatorKind::Rap, O));
}

TEST(Fingerprint, IgnoresThreadCount) {
  // Threads schedule work; they may never change what the cache replays.
  AllocOptions O;
  O.Threads = 8;
  EXPECT_EQ(fingerprintOf(FpSource),
            fingerprintOf(FpSource, AllocatorKind::Rap, O));
}

//===----------------------------------------------------------------------===//
// ShardPool.
//===----------------------------------------------------------------------===//

TEST(ShardPool, RunsEveryTaskExactlyOnce) {
  ShardPool Pool(3);
  constexpr unsigned N = 64;
  std::vector<std::atomic<unsigned>> Ran(N);
  TaskGroup Group;
  Group.expect(N);
  for (unsigned I = 0; I != N; ++I)
    Pool.submit(/*Hint=*/I, [&Ran, I] { Ran[I].fetch_add(1); }, &Group);
  Group.wait();
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Ran[I].load(), 1u) << "task " << I;
  EXPECT_EQ(Pool.tasksRun(), N);
}

TEST(ShardPool, SkewedBatchIsStolen) {
  ShardPool Pool(4);
  constexpr unsigned N = 64;
  std::atomic<unsigned> Ran{0};
  TaskGroup Group;
  Group.expect(N);
  // Every task lands on shard 0 (the one-request affinity pattern); the
  // other three shards have nothing and must steal to keep busy.
  for (unsigned I = 0; I != N; ++I)
    Pool.submit(/*Hint=*/0, [&Ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Ran.fetch_add(1);
    }, &Group);
  Group.wait();
  EXPECT_EQ(Ran.load(), N);
  EXPECT_GT(Pool.tasksStolen(), 0u);
  EXPECT_GT(Pool.queueDepthMax(), 1u);
}

TEST(ShardPool, ThrowingTaskStillReleasesTheBarrier) {
  ShardPool Pool(2);
  TaskGroup Group;
  Group.expect(2);
  std::atomic<unsigned> Ran{0};
  Pool.submit(0, [] { throw std::runtime_error("task failure"); }, &Group);
  Pool.submit(1, [&Ran] { Ran.fetch_add(1); }, &Group);
  Group.wait(); // must not hang
  EXPECT_EQ(Ran.load(), 1u);
}

//===----------------------------------------------------------------------===//
// parseRequest.
//===----------------------------------------------------------------------===//

json::Value parseJson(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, V, &Error)) << Error;
  return V;
}

TEST(ParseRequest, AcceptsTheDocumentedSchema) {
  Request R;
  std::string Error;
  ASSERT_TRUE(parseRequest(
      parseJson("{\"id\":7,\"op\":\"compile\",\"source\":\"int main() { "
                "return 0; }\",\"options\":{\"alloc\":\"gra\",\"k\":4,"
                "\"granularity\":\"merged\",\"copies\":\"direct\","
                "\"run\":true,\"fuel\":1000,\"dump\":true,"
                "\"deadline_ms\":" +
                std::to_string(MaxDeadlineMs) + "}}"),
      R, Error))
      << Error;
  EXPECT_TRUE(R.HasId);
  EXPECT_EQ(R.Id, 7);
  EXPECT_EQ(R.Op, RequestOp::Compile);
  EXPECT_EQ(R.Options.Allocator, AllocatorKind::Gra);
  EXPECT_EQ(R.Options.K, 4u);
  EXPECT_EQ(R.Options.Granularity, RegionGranularity::Merged);
  EXPECT_EQ(R.Options.Copies, CopyStyle::Direct);
  EXPECT_TRUE(R.Options.Run);
  EXPECT_EQ(R.Options.Fuel, 1000u);
  EXPECT_TRUE(R.Dump);
  EXPECT_EQ(R.Options.DeadlineMs, MaxDeadlineMs);
}

TEST(ParseRequest, RejectsEachMalformedField) {
  auto Fails = [](const std::string &Text) {
    Request R;
    std::string Error;
    bool Ok = parseRequest(parseJson(Text), R, Error);
    EXPECT_FALSE(Ok) << Text;
    EXPECT_FALSE(Error.empty());
    return Error;
  };
  EXPECT_NE(Fails("{}").find("missing 'op'"), std::string::npos);
  EXPECT_NE(Fails("{\"op\":\"frobnicate\"}").find("unknown op"),
            std::string::npos);
  Fails("{\"op\":\"compile\"}");                            // no source
  Fails("{\"id\":\"x\",\"op\":\"ping\"}");                  // non-int id
  Fails("{\"op\":\"compile\",\"source\":\"\",\"options\":{\"k\":2}}");
  // k is bounded above by MaxK too, and a value past 2^32 must not wrap to
  // a small k that then hits the cache.
  for (const char *K : {"257", "4294967299"})
    EXPECT_NE(Fails(std::string("{\"op\":\"compile\",\"source\":\"\","
                                "\"options\":{\"k\":") +
                    K + "}}")
                  .find("'k'"),
              std::string::npos)
        << K;
  Fails("{\"op\":\"compile\",\"source\":\"\",\"options\":{\"alloc\":\"x\"}}");
  Fails("{\"op\":\"compile\",\"source\":\"\",\"options\":{\"fuel\":0}}");
  Fails("{\"op\":\"compile\",\"source\":\"\",\"options\":3}");
  // run and dump are booleans: "run":1 must not be answered ok without the
  // exec section it asked for.
  for (const char *Field : {"run", "dump"})
    EXPECT_NE(Fails(std::string("{\"op\":\"compile\",\"source\":\"\","
                                "\"options\":{\"") +
                    Field + "\":1}}")
                  .find(Field),
              std::string::npos)
        << Field;
  // A deadline past MaxDeadlineMs would overflow Deadline::afterMs into one
  // already expired.
  for (const char *Ms : {"86400001", "10000000000000"})
    EXPECT_NE(Fails(std::string("{\"op\":\"compile\",\"source\":\"\","
                                "\"options\":{\"deadline_ms\":") +
                    Ms + "}}")
                  .find("'deadline_ms'"),
              std::string::npos)
        << Ms;
}

//===----------------------------------------------------------------------===//
// Server::handleLine.
//===----------------------------------------------------------------------===//

const char *TinySource = "int main() { return 41; }";

std::string compileLine(int Id, const char *Source) {
  json::Object Opts;
  Opts["alloc"] = "rap";
  Opts["k"] = 3;
  json::Object Req;
  Req["id"] = Id;
  Req["op"] = "compile";
  Req["source"] = Source;
  Req["options"] = json::Value(std::move(Opts));
  return json::Value(std::move(Req)).str();
}

TEST(ServerHandleLine, CompileStatsAndBatch) {
  ServerConfig Config;
  Config.Service.Shards = 2;
  Server S(Config);

  json::Value Cold = parseJson(S.handleLine(compileLine(1, TinySource)));
  EXPECT_TRUE(Cold["ok"].asBool());
  EXPECT_EQ(Cold["cache_misses"].asInt(), 1);
  json::Value Warm = parseJson(S.handleLine(compileLine(2, TinySource)));
  EXPECT_EQ(Warm["cache_hits"].asInt(), 1);
  EXPECT_EQ(Warm["output_hash"].asString(), Cold["output_hash"].asString());

  // A JSON-array line is one batch: responses in request order.
  json::Value Batch = parseJson(S.handleLine(
      "[{\"id\":3,\"op\":\"ping\"},{\"id\":4,\"op\":\"stats\"}]"));
  ASSERT_TRUE(Batch.isArray());
  ASSERT_EQ(Batch.asArray().size(), 2u);
  EXPECT_EQ(Batch.asArray()[0]["kind"].asString(), "pong");
  const json::Value &Stats = Batch.asArray()[1]["stats"];
  EXPECT_EQ(Stats["cache_hits"].asInt(), 1);
  EXPECT_EQ(Stats["cache_misses"].asInt(), 1);
  EXPECT_EQ(Stats["rejected_requests"].asInt(), 0);

  json::Value Bad = parseJson(S.handleLine("this is not json"));
  EXPECT_FALSE(Bad["ok"].asBool());
  EXPECT_EQ(Bad["kind"].asString(), "bad-request");

  json::Value Broken = parseJson(S.handleLine(compileLine(5, "int main( {")));
  EXPECT_FALSE(Broken["ok"].asBool());
  EXPECT_EQ(Broken["kind"].asString(), "compile-error");
}

TEST(ServerHandleLine, AdmissionRejectsOversizedLinesWithRetryAfter) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.MaxInflightBytes = 64; // admits pings, rejects any real compile
  Config.RetryAfterMs = 125;
  Server S(Config);

  std::string Line = compileLine(1, TinySource);
  ASSERT_GT(Line.size(), Config.MaxInflightBytes);
  json::Value Rejected = parseJson(S.handleLine(Line));
  EXPECT_FALSE(Rejected["ok"].asBool());
  EXPECT_EQ(Rejected["kind"].asString(), "overloaded");
  EXPECT_EQ(Rejected["retry_after_ms"].asInt(), 125);
  EXPECT_EQ(S.counters().RejectedRequests, 1u);

  // The budget is released per line, so small requests still get through
  // after a rejection — degradation, not a wedge.
  json::Value Pong = parseJson(S.handleLine("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_TRUE(Pong["ok"].asBool());
  EXPECT_EQ(Pong["kind"].asString(), "pong");
}

/// A ping whose ignored "pad" member nests \p Arrays arrays inside the
/// request object.
std::string pingNestedIn(unsigned Arrays) {
  return "{\"id\":3,\"op\":\"ping\",\"pad\":" + std::string(Arrays, '[') +
         std::string(Arrays, ']') + "}";
}

TEST(ServerHandleLine, DeepNestingIsABadRequestNotACrash) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Server S(Config);

  // A 1 MB line of '[' is far below the line cap; the parser's nesting
  // bound turns it into one bad-request instead of a stack overflow.
  json::Value Deep = parseJson(S.handleLine(std::string(1u << 20, '[')));
  EXPECT_EQ(Deep["kind"].asString(), "bad-request");
  EXPECT_NE(Deep["error"].asString().find("nesting deeper than 64 levels"),
            std::string::npos)
      << Deep["error"].asString();
  json::Value Pong = parseJson(S.handleLine("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_EQ(Pong["kind"].asString(), "pong");

  // The request object is one level: 63 arrays inside it nest exactly at
  // the bound and parse; one more does not.
  EXPECT_EQ(parseJson(S.handleLine(pingNestedIn(63)))["kind"].asString(),
            "pong");
  EXPECT_EQ(parseJson(S.handleLine(pingNestedIn(64)))["kind"].asString(),
            "bad-request");
}

TEST(ServerHandleLine, IntegerOutsideInt64IsABadRequest) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Server S(Config);

  // strtoll would clamp the id to INT64_MAX and answer with a different id.
  for (const char *Id : {"99999999999999999999", "-99999999999999999999"}) {
    json::Value R = parseJson(
        S.handleLine(std::string("{\"id\":") + Id + ",\"op\":\"ping\"}"));
    EXPECT_EQ(R["kind"].asString(), "bad-request") << Id;
    EXPECT_NE(R["error"].asString().find("outside int64"), std::string::npos)
        << R["error"].asString();
  }
  json::Value Max = parseJson(
      S.handleLine("{\"id\":9223372036854775807,\"op\":\"ping\"}"));
  EXPECT_EQ(Max["kind"].asString(), "pong");
  EXPECT_EQ(Max["id"].asInt(), INT64_MAX);
}

//===----------------------------------------------------------------------===//
// One counter record.
//===----------------------------------------------------------------------===//

/// Every key the `stats` reply (first 15) or rapd --stats' `server` section
/// (drain_degraded; its other nine were shared) carried before the two were
/// one record, with its JSON type.
enum class KeyType { Int, Bool };
const std::pair<const char *, KeyType> ServerKeys[] = {
    {"requests", KeyType::Int},          {"functions", KeyType::Int},
    {"cache_hits", KeyType::Int},        {"cache_misses", KeyType::Int},
    {"cache_bytes", KeyType::Int},       {"cache_evictions", KeyType::Int},
    {"queue_depth_max", KeyType::Int},   {"tasks_stolen", KeyType::Int},
    {"rejected_requests", KeyType::Int}, {"deadline_exceeded", KeyType::Int},
    {"cancelled", KeyType::Int},         {"watchdog_trips", KeyType::Int},
    {"shards_degraded", KeyType::Int},   {"chaos_injected", KeyType::Int},
    {"drain_ms", KeyType::Int},          {"drain_degraded", KeyType::Bool},
};

/// Serves a cold and a warm compile, then checks that the `stats` reply's
/// object is serverStatsJson(S.counters()) and carries exactly ServerKeys.
TEST(ServerStats, StatsReplyIsTheServerSection) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Server S(Config);
  EXPECT_TRUE(parseJson(S.handleLine(compileLine(1, TinySource)))["ok"]
                  .asBool());
  EXPECT_TRUE(parseJson(S.handleLine(compileLine(2, TinySource)))["ok"]
                  .asBool());
  json::Value Reply = parseJson(S.handleLine("{\"id\":3,\"op\":\"stats\"}"));
  EXPECT_EQ(Reply["stats"].str(), serverStatsJson(S.counters()).str());

  const json::Value &Stats = Reply["stats"];
  ASSERT_TRUE(Stats.isObject());
  EXPECT_EQ(Stats.asObject().size(), std::size(ServerKeys)) << Stats.str();
  for (const auto &[Key, Type] : ServerKeys) {
    ASSERT_TRUE(Stats.has(Key)) << Key << " missing: " << Stats.str();
    EXPECT_TRUE(Type == KeyType::Int ? Stats[Key].isInt()
                                     : Stats[Key].isBool())
        << Key << " retyped: " << Stats.str();
  }
  EXPECT_EQ(Stats["cache_hits"].asInt(), 1);
  EXPECT_EQ(Stats["cache_misses"].asInt(), 1);
}

} // namespace
