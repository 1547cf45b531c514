//===- tests/server_cache_test.cpp - Allocation-cache correctness -----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's core promise, tested through CompileService:
///
///  * a warm (fully cached) response is bit-identical to the cold compile —
///    function text, output hash, allocation ledger, and interpreted
///    execution all match;
///  * editing one function in a multi-function module re-allocates exactly
///    that function, and the edited module's warm output is bit-identical
///    to a from-scratch cold compile of the same source;
///  * a small --cache-bytes budget evicts LRU entries (and a zero budget
///    disables caching) without changing any compiled output;
///  * the whole request sequence produces byte-identical results at shard
///    count 1 and 4 — the determinism acceptance criterion;
///  * a hit replays the cold allocation's counts, not its wall clocks, so
///    rapd's aggregate allocation seconds do not grow with warm requests.
///
//===----------------------------------------------------------------------===//

#include "server/CompileService.h"
#include "server/Server.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

/// A module of pressure-heavy functions; \p Versions[i] is spliced into
/// work<i>'s body as a literal, so bumping it models a source edit that
/// changes exactly that function's lowered ILOC.
std::string moduleSource(const std::vector<unsigned> &Versions) {
  std::string S;
  for (unsigned I = 0; I != Versions.size(); ++I) {
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "int work%u(int n) {\n"
                  "  int a = n + %u;\n"
                  "  int b = a * 3 + %u;\n"
                  "  int c = a - b + 7;\n"
                  "  int d = a * b %% 997;\n"
                  "  for (int i = 0; i < n; i = i + 1) {\n"
                  "    a = a + b * i %% 613;\n"
                  "    b = b + c - i;\n"
                  "    c = c + d %% 409;\n"
                  "    d = d + a - b;\n"
                  "  }\n"
                  "  return a + b + c + d;\n"
                  "}\n",
                  I, Versions[I] * 7 + I, Versions[I] * 13 + 5);
    S += Buf;
  }
  S += "int main() {\n  int acc = 0;\n";
  for (unsigned I = 0; I != Versions.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "  acc = acc + work%u(9);\n", I);
    S += Buf;
  }
  S += "  return acc;\n}\n";
  return S;
}

std::string programText(const IlocProgram &Prog) {
  std::string Text;
  for (const auto &F : Prog.functions())
    Text += F->str();
  return Text;
}

RequestOptions rapOptions(bool Run = false) {
  RequestOptions O;
  O.Allocator = AllocatorKind::Rap;
  O.K = 3;
  O.Run = Run;
  return O;
}

void expectSameExecution(const RunResult &A, const RunResult &B) {
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.ReturnValue.asInt(), B.ReturnValue.asInt());
  EXPECT_EQ(A.Stats.Cycles, B.Stats.Cycles);
  EXPECT_EQ(A.Stats.Loads, B.Stats.Loads);
  EXPECT_EQ(A.Stats.SpillLoads, B.Stats.SpillLoads);
  EXPECT_EQ(A.Stats.Stores, B.Stats.Stores);
  EXPECT_EQ(A.Stats.SpillStores, B.Stats.SpillStores);
  EXPECT_EQ(A.Stats.Copies, B.Stats.Copies);
  EXPECT_EQ(A.Stats.Calls, B.Stats.Calls);
}

TEST(ServerCache, WarmReplayIsByteIdenticalToCold) {
  ServiceConfig Config;
  Config.Shards = 2;
  CompileService Service(Config);
  std::string Src = moduleSource({0, 0, 0});

  ServiceResult Cold = Service.compile(Src, rapOptions(/*Run=*/true));
  ASSERT_TRUE(Cold.Ok) << Cold.Errors;
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 4u); // work0..2 + main

  ServiceResult Warm = Service.compile(Src, rapOptions(/*Run=*/true));
  ASSERT_TRUE(Warm.Ok) << Warm.Errors;
  EXPECT_EQ(Warm.CacheHits, 4u);
  EXPECT_EQ(Warm.CacheMisses, 0u);

  // Bit-identity: the text the backend would consume, the hash the
  // protocol transmits, the ledger, and the interpreted execution.
  EXPECT_EQ(programText(*Warm.Prog), programText(*Cold.Prog));
  EXPECT_EQ(Warm.OutputHash, Cold.OutputHash);
  EXPECT_TRUE(Warm.Alloc.structuralEq(Cold.Alloc));
  expectSameExecution(Warm.Exec, Cold.Exec);
  ASSERT_EQ(Warm.Functions.size(), Cold.Functions.size());
  for (size_t I = 0; I != Warm.Functions.size(); ++I) {
    EXPECT_EQ(Warm.Functions[I].Fingerprint, Cold.Functions[I].Fingerprint);
    EXPECT_EQ(Warm.Functions[I].Outcome.Status,
              Cold.Functions[I].Outcome.Status);
  }
}

TEST(ServerCache, WarmHitsAddNoAllocationSeconds) {
  ServerConfig Config;
  Config.Service.Shards = 2;
  Server S(Config);
  json::Object Opts;
  Opts["alloc"] = "rap";
  Opts["k"] = 3;
  json::Object Req;
  Req["op"] = "compile";
  Req["source"] = moduleSource({0, 0, 0});
  Req["options"] = json::Value(std::move(Opts));
  std::string Line = json::Value(std::move(Req)).str();

  ASSERT_NE(S.handleLine(Line).find("\"cache_misses\":4"), std::string::npos);
  AllocStats Cold = S.totalAllocStats();
  EXPECT_GT(Cold.GraphBuildSeconds, 0.0);
  ASSERT_NE(S.handleLine(Line).find("\"cache_hits\":4"), std::string::npos);
  AllocStats Warm = S.totalAllocStats();
  EXPECT_EQ(Warm.GraphBuildSeconds, Cold.GraphBuildSeconds);
  EXPECT_EQ(Warm.LivenessSeconds, Cold.LivenessSeconds);
  // The counts still fold in once per request.
  EXPECT_EQ(Warm.GraphBuilds, 2 * Cold.GraphBuilds);
}

TEST(ServerCache, EditReallocatesExactlyTheEditedFunction) {
  ServiceConfig Config;
  Config.Shards = 2;
  CompileService Service(Config);

  ServiceResult Base =
      Service.compile(moduleSource({0, 0, 0, 0}), rapOptions(/*Run=*/true));
  ASSERT_TRUE(Base.Ok) << Base.Errors;

  // Edit work2 only: one miss (work2 itself), every other function —
  // including main, whose call operands name callee *indices*, not text —
  // replays from the cache.
  std::string Edited = moduleSource({0, 0, 1, 0});
  ServiceResult Warm = Service.compile(Edited, rapOptions(/*Run=*/true));
  ASSERT_TRUE(Warm.Ok) << Warm.Errors;
  EXPECT_EQ(Warm.CacheMisses, 1u);
  EXPECT_EQ(Warm.CacheHits, 4u);
  for (const FunctionReport &F : Warm.Functions)
    EXPECT_EQ(F.CacheHit, F.Outcome.Function != "work2")
        << F.Outcome.Function;

  // The warm compile of the edited module must be bit-identical to a cold
  // compile of the same source on a fresh service.
  ServiceConfig FreshConfig;
  FreshConfig.Shards = 2;
  FreshConfig.CacheBytes = 0; // caching off: the pure cold path
  CompileService Fresh(FreshConfig);
  ServiceResult Cold = Fresh.compile(Edited, rapOptions(/*Run=*/true));
  ASSERT_TRUE(Cold.Ok) << Cold.Errors;
  EXPECT_EQ(programText(*Warm.Prog), programText(*Cold.Prog));
  EXPECT_EQ(Warm.OutputHash, Cold.OutputHash);
  EXPECT_TRUE(Warm.Alloc.structuralEq(Cold.Alloc));
  expectSameExecution(Warm.Exec, Cold.Exec);

  // And the edit must actually have changed the output.
  EXPECT_NE(Warm.OutputHash, Base.OutputHash);
}

TEST(ServerCache, ZeroBudgetDisablesCaching) {
  ServiceConfig Config;
  Config.Shards = 2;
  Config.CacheBytes = 0;
  CompileService Service(Config);
  std::string Src = moduleSource({0, 0});

  ServiceResult First = Service.compile(Src, rapOptions());
  ServiceResult Second = Service.compile(Src, rapOptions());
  ASSERT_TRUE(First.Ok && Second.Ok);
  EXPECT_EQ(Second.CacheHits, 0u);
  EXPECT_EQ(Second.CacheMisses, 3u);
  // Caching off still compiles identically.
  EXPECT_EQ(Second.OutputHash, First.OutputHash);
}

TEST(ServerCache, TinyBudgetEvictsLruWithoutChangingOutput) {
  ServiceConfig Config;
  Config.Shards = 1;
  // Room for roughly one module's entries (work body ~5.8k + main ~0.5k by
  // estimateFunctionBytes): inserting a second module must evict the first
  // module's LRU entries to get back under budget.
  Config.CacheBytes = 7000;
  CompileService Service(Config);

  std::string A = moduleSource({0});
  std::string B = moduleSource({9});
  ServiceResult ColdA = Service.compile(A, rapOptions());
  ASSERT_TRUE(ColdA.Ok);
  ServiceResult ColdB = Service.compile(B, rapOptions());
  ASSERT_TRUE(ColdB.Ok);
  EXPECT_GT(Service.counters().CacheEvictions, 0u);
  EXPECT_LE(Service.counters().CacheBytes, 7000u);

  // A's entries were evicted, so recompiling A misses again — but the
  // output is still bit-identical to its first compile.
  ServiceResult AgainA = Service.compile(A, rapOptions());
  ASSERT_TRUE(AgainA.Ok);
  EXPECT_GT(AgainA.CacheMisses, 0u);
  EXPECT_EQ(AgainA.OutputHash, ColdA.OutputHash);
  EXPECT_EQ(programText(*AgainA.Prog), programText(*ColdA.Prog));
}

TEST(ServerCache, RequestSequenceIsDeterministicAcrossShardCounts) {
  // The acceptance criterion: an identical request sequence — including
  // the hit/miss classification, which depends on cache state evolving
  // identically — produces byte-identical responses at any shard count.
  std::vector<std::string> Sequence = {
      moduleSource({0, 0, 0, 0, 0}), moduleSource({0, 1, 0, 0, 0}),
      moduleSource({0, 1, 0, 2, 0}), moduleSource({0, 1, 0, 0, 0}),
      moduleSource({3, 1, 0, 0, 4}),
  };

  auto Replay = [&](unsigned Shards) {
    ServiceConfig Config;
    Config.Shards = Shards;
    CompileService Service(Config);
    struct Snapshot {
      std::string Text;
      uint64_t Hash;
      unsigned Hits, Misses;
      std::vector<bool> Cached;
    };
    std::vector<Snapshot> Out;
    for (const std::string &Src : Sequence) {
      ServiceResult R = Service.compile(Src, rapOptions());
      EXPECT_TRUE(R.Ok) << R.Errors;
      Snapshot S;
      S.Text = programText(*R.Prog);
      S.Hash = R.OutputHash;
      S.Hits = R.CacheHits;
      S.Misses = R.CacheMisses;
      for (const FunctionReport &F : R.Functions)
        S.Cached.push_back(F.CacheHit);
      Out.push_back(std::move(S));
    }
    return Out;
  };

  auto One = Replay(1);
  auto Four = Replay(4);
  ASSERT_EQ(One.size(), Four.size());
  for (size_t I = 0; I != One.size(); ++I) {
    EXPECT_EQ(One[I].Text, Four[I].Text) << "request " << I;
    EXPECT_EQ(One[I].Hash, Four[I].Hash) << "request " << I;
    EXPECT_EQ(One[I].Hits, Four[I].Hits) << "request " << I;
    EXPECT_EQ(One[I].Misses, Four[I].Misses) << "request " << I;
    EXPECT_EQ(One[I].Cached, Four[I].Cached) << "request " << I;
  }
}

TEST(ServerCache, DifferentOptionsDoNotShareEntries) {
  ServiceConfig Config;
  Config.Shards = 1;
  CompileService Service(Config);
  std::string Src = moduleSource({0});

  RequestOptions K3 = rapOptions();
  RequestOptions K5 = rapOptions();
  K5.K = 5;
  ServiceResult A = Service.compile(Src, K3);
  ServiceResult B = Service.compile(Src, K5);
  ASSERT_TRUE(A.Ok && B.Ok);
  // Same source under different k must miss (different fingerprints), and
  // a GRA request never replays a RAP entry.
  EXPECT_EQ(B.CacheHits, 0u);
  RequestOptions Gra = rapOptions();
  Gra.Allocator = AllocatorKind::Gra;
  ServiceResult C = Service.compile(Src, Gra);
  ASSERT_TRUE(C.Ok);
  EXPECT_EQ(C.CacheHits, 0u);
}

} // namespace
