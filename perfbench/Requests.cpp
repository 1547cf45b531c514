//===- perfbench/Requests.cpp - The request phase -------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Sends a workload's compile requests warm through Server::handleLine. One
// closed-loop client sends each request after the previous reply, as an IDE
// or build tool waits for each compile. The service runs 2 shards and an
// in-memory cache; persistence stays off, since disk sync times would
// dominate the noise, and so does the shard pool's watchdog (see
// warmServer).
//
// Two request streams:
//  * resubmit (table1, module, deep): the corpus's RAP jobs sent again
//    unchanged to a server warmed with each of them, so every function
//    hits the cache and a request costs what a no-op rebuild costs;
//  * session: the server_load editing session, a module of 24
//    pressure-heavy functions plus main with two function bodies (the seed
//    picks which) edited per request, RAP at k=3. Each edit bumps a
//    function's version literal, so a request's misses are exactly the
//    functions it edited.
//
// Every reply is checked for its hits and misses, and sampled replies
// against a cold compile (cache off) of the same request after the timed
// loop.
//
// The traced run alternates handleLine requests with requests that make the
// calls handleLine makes (json::parse + parseRequest, CompileService::compile,
// compileResponse + str) each in a span. The frontend and lowering inside
// CompileService::compile cannot be wrapped from outside; a side replay of
// the same source through the frontend gives their cost by subtraction.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/IlocProgram.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"

#include <memory>
#include <set>

using namespace rap;
using namespace rap::server;
using namespace perfbench;

namespace {

constexpr unsigned SessionFunctions = 24;
constexpr unsigned EditsPerRequest = 2;
constexpr unsigned SessionK = 3;
/// How many iterations main asks of each function. server_load's 6 leaves
/// a run of the module at under a millisecond, too short to time steadily
/// in the compile phase; main is never edited, so the requests' hits and
/// misses are those of server_load.
constexpr unsigned MainIterations = 1000;
/// Every this many timed requests, starting with the first, the warm reply
/// is checked cold.
constexpr unsigned ColdCheckEvery = 25;

/// The server_load module (bench/server_load.cpp) but for MainIterations:
/// editing a function bumps its version, which changes its literals and so
/// its lowered code.
std::string functionSource(unsigned Index, unsigned Version) {
  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "int work%u(int n, int seed) {\n"
      "  int a = seed + %u;\n"
      "  int b = seed * 3 + %u;\n"
      "  int c = a - b + 11;\n"
      "  int d = a * b %% 9973;\n"
      "  int e = c + d;\n"
      "  int f = e * 2 - a;\n"
      "  int g = f + b - c;\n"
      "  int h = g * d %% 7919;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    int t = a * i + b;\n"
      "    if (t %% 2 == 0) {\n"
      "      a = a + c * i - d;\n"
      "      b = b + e %% 4099;\n"
      "      c = c + t - f;\n"
      "    } else {\n"
      "      d = d + g * 2 - t;\n"
      "      e = e + h %% 3671;\n"
      "      f = f + a - i;\n"
      "    }\n"
      "    g = g + (a + b) %% 2753;\n"
      "    h = h + (c - d) * 3;\n"
      "    for (int j = 0; j < 4; j = j + 1) {\n"
      "      a = a + j * b %% 1021;\n"
      "      e = e - j + c %% 769;\n"
      "    }\n"
      "  }\n"
      "  return a + b + c + d + e + f + g + h;\n"
      "}\n",
      Index, Version * 7 + Index, Version * 13 + 5);
  return Buf;
}

std::string moduleSource(const std::vector<unsigned> &Versions) {
  std::string S;
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += functionSource(I, Versions[I]);
  S += "int main() {\n  int acc = 0;\n";
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += "  acc = acc + work" + std::to_string(I) + "(" +
         std::to_string(MainIterations) + ", " + std::to_string(I + 1) +
         ");\n";
  S += "  return acc;\n}\n";
  return S;
}

RequestOptions requestOptions(unsigned K) {
  RequestOptions O;
  O.Allocator = AllocatorKind::Rap;
  O.K = K;
  return O;
}

std::string requestLine(uint64_t Id, const CompileRequest &Q) {
  json::Object Options;
  Options["alloc"] = "rap";
  Options["k"] = static_cast<uint64_t>(Q.K);
  json::Object Req;
  Req["op"] = "compile";
  Req["id"] = Id;
  Req["source"] = Q.Source;
  Req["options"] = json::Value(std::move(Options));
  return json::Value(std::move(Req)).str();
}

class SessionStream : public RequestStream {
public:
  explicit SessionStream(uint64_t Seed)
      : Rand(Seed), Versions(SessionFunctions, 0) {}

  std::vector<CompileRequest> warmup() const override {
    return {{moduleSource(Versions), SessionK, SessionFunctions + 1,
             static_cast<int>(SessionFunctions + 1)}};
  }

  CompileRequest next() override {
    std::set<unsigned> Changed;
    for (unsigned E = 0; E != EditsPerRequest; ++E) {
      unsigned F = Rand.below(SessionFunctions);
      ++Versions[F];
      Changed.insert(F);
    }
    return {moduleSource(Versions), SessionK, SessionFunctions + 1,
            static_cast<int>(Changed.size())};
  }

private:
  Rng Rand;
  std::vector<unsigned> Versions;
};

class ResubmitStream : public RequestStream {
public:
  ResubmitStream(const Corpus &C, uint64_t Seed) : C(C) {
    for (unsigned P = 0; P != C.Programs.size(); ++P)
      for (unsigned K : C.Ks)
        Jobs.push_back({P, K});
    Rng Rand(Seed ^ 0x726571756573ull);
    for (size_t I = Jobs.size(); I > 1; --I)
      std::swap(Jobs[I - 1], Jobs[Rand.below(static_cast<unsigned>(I))]);
  }

  /// The first compile of each job; two programs may share a function, so
  /// the misses are not checked.
  std::vector<CompileRequest> warmup() const override {
    std::vector<CompileRequest> Out;
    for (const auto &[P, K] : Jobs)
      Out.push_back(request(P, K, -1));
    return Out;
  }

  CompileRequest next() override {
    const auto &[P, K] = Jobs[Next++ % Jobs.size()];
    return request(P, K, 0);
  }

private:
  CompileRequest request(unsigned P, unsigned K, int Misses) const {
    return {C.Programs[P].Source, K, C.Programs[P].Functions, Misses};
  }
  const Corpus &C;
  std::vector<std::pair<unsigned, unsigned>> Jobs; ///< (program, k)
  size_t Next = 0;
};

/// Checks one reply: compiled, nothing degraded, every function listed and
/// the expected ones missed the cache. Returns its output hash.
std::string checkResponse(const std::string &Line, const CompileRequest &Q,
                          uint64_t Id, Result &R) {
  json::Value V;
  bool Ok = json::parse(Line, V) && V.isObject() && V.has("ok") &&
            V["ok"].asBool();
  Ok = Ok && V["degraded"].asInt() == 0 &&
       V["functions"].asInt() == static_cast<int64_t>(Q.Functions);
  if (Ok && Q.Misses >= 0)
    Ok = V["cache_misses"].asInt() == Q.Misses &&
         V["cache_hits"].asInt() ==
             static_cast<int64_t>(Q.Functions) - Q.Misses;
  R.attempt(Ok, "request " + std::to_string(Id) + ": expected an ok reply " +
                    "listing " + std::to_string(Q.Functions) +
                    " functions with " + std::to_string(Q.Misses) +
                    " misses, got " + Line.substr(0, 300));
  return Ok ? V["output_hash"].asString() : "";
}

/// Warm replies must equal a cold compile (cache off) of the same request;
/// \p Samples maps (k, source) to the warm output hash.
void checkCold(const std::map<std::pair<unsigned, std::string>, std::string>
                   &Samples,
               Result &R) {
  ServiceConfig Cold;
  Cold.Shards = ServerShards;
  Cold.CacheBytes = 0;
  Cold.Watchdog.Factor = 0;
  CompileService Service(Cold);
  for (const auto &[Key, WarmHash] : Samples) {
    ServiceResult Res = Service.compile(Key.second, requestOptions(Key.first));
    R.attempt(Res.Ok && hashHex(Res.OutputHash) == WarmHash,
              "warm output_hash " + WarmHash + " != cold " +
                  hashHex(Res.OutputHash));
  }
}

/// One request the way handleLine makes it, each call in a span.
std::string tracedRequest(Server &S, const std::string &Line, uint64_t Id,
                          Trace &Tr) {
  Tr.open("request", Id);
  json::Value Parsed;
  server::Request Req;
  std::string Error;
  bool Ok = Tr.span("server.parse", Id, [&] {
    return json::parse(Line, Parsed, &Error) &&
           parseRequest(Parsed, Req, Error);
  });
  std::string Out;
  if (Ok) {
    ServiceResult Res = Tr.span("server.compile", Id, [&] {
      return S.service().compile(Req.Source, Req.Options);
    });
    Out = Tr.span("server.serialize", Id,
                  [&] { return compileResponse(Req, Res).str(); });
  }
  Tr.close();
  return Out;
}

} // namespace

std::unique_ptr<RequestStream> perfbench::resubmitStream(const Corpus &C,
                                                         uint64_t Seed) {
  return std::make_unique<ResubmitStream>(C, Seed);
}

std::unique_ptr<RequestStream> perfbench::sessionStream(uint64_t Seed) {
  return std::make_unique<SessionStream>(Seed);
}

std::string perfbench::sessionModule() {
  return moduleSource(std::vector<unsigned>(SessionFunctions, 0));
}

std::unique_ptr<Server> perfbench::warmServer(const RequestStream &Stream,
                                              Result &R) {
  ServerConfig C;
  C.Service.Shards = ServerShards;
  C.Service.CacheBytes = 256u << 20;
  // A quiet pool: the watchdog's 5 ms sampling thread raises p95 latency
  // by about a third on a 4-core VM and makes it swing from run to run.
  C.Service.Watchdog.Factor = 0;
  C.Hello = false;
  auto S = std::make_unique<Server>(C);
  for (const CompileRequest &Q : Stream.warmup())
    checkResponse(S->handleLine(requestLine(0, Q)), Q, 0, R);
  return S;
}

namespace {

class RequestPhase : public Phase {
public:
  RequestPhase(Server &S, RequestStream &Stream, const Args &A,
               double RoundSeconds, unsigned Warmup, unsigned MinRequests,
               Result &R, Trace &Tr)
      : S(S), Stream(Stream), A(A), RoundSeconds(RoundSeconds),
        Warmup(Warmup), MinRequests(MinRequests), R(R), Tr(Tr) {
    while (Sent < Warmup)
      send();
  }

  void round() override {
    Clock::time_point Start = Clock::now();
    do
      send();
    while (secondsSince(Start) < RoundSeconds);
  }

  bool enough() const override { return Sent >= Warmup + MinRequests; }

  PhaseResult finish() override {
    checkCold(Samples, R);
    std::printf("request phase: %u warm-up + %llu timed requests, %zu "
                "distinct replies checked cold\n",
                Warmup, static_cast<unsigned long long>(Sent - Warmup),
                Samples.size());
    PhaseResult Out;
    Layers &V = Out.Values;
    if (!A.Trace) {
      double Busy = 0;
      for (double L : Latency)
        Busy += L;
      // The fastest request, as for passes (see the compile phase); the
      // median and p95, and throughput (a mean), are printed, not reported:
      // on a 4-core VM their spreads over ten seeds reached 20-35% of the
      // median, and 0.25 is the largest bound a metric may have.
      std::printf("  %-34s %16.6f ms (not a metric; %zu timed requests)\n",
                  "request_p50_ms", 1e3 * median(Latency), Latency.size());
      std::printf("  %-34s %16.6f ms (not a metric; max %.3f ms)\n",
                  "request_p95_ms", 1e3 * quantile(Latency, 0.95),
                  1e3 * quantile(Latency, 1));
      std::printf("  %-34s %16.6f 1/s (not a metric)\n", "functions_per_s",
                  ratio(Slots, Busy));
      V["request_min_ms"] = 1e3 * quantile(Latency, 0);
      V["peak_rss_mb"] = RssAtMin;
      return Out;
    }

    // The frontend and lowering of each traced request's source, replayed
    // after the run so the extra work does not sit between requests.
    std::vector<double> FrontendLower;
    for (const auto &[Id, Source] : Replays) {
      size_t From = Tr.size();
      Layers Scratch;
      DiagnosticEngine Diags;
      Tr.open("frontend_lower", Id);
      bool Ok = tracedFrontend(Source, Tr, Id, Scratch, Diags) != nullptr;
      Tr.close();
      R.attempt(Ok, "frontend replay: " + Diags.str());
      FrontendLower.push_back(Tr.durations(From)["frontend_lower"]);
    }

    // Layer times are per request: medians over the traced requests.
    for (const char *Name :
         {"server.parse_s", "server.compile_s", "server.serialize_s"}) {
      std::vector<double> X;
      for (const Layers &L : Spans)
        X.push_back(L.at(Name));
      V[Name] = median(X);
    }
    V["server.frontend_lower_s"] = median(FrontendLower);
    uint64_t Classified = AtMin.CacheHits + AtMin.CacheMisses;
    V["server.cache_hits"] = static_cast<double>(AtMin.CacheHits);
    V["server.cache_misses"] = static_cast<double>(AtMin.CacheMisses);
    V["server.hit_pct"] = 100 * ratio(static_cast<double>(AtMin.CacheHits),
                                      static_cast<double>(Classified));
    V["server.cache_bytes"] = static_cast<double>(AtMin.CacheBytes);
    V["server.tasks_stolen"] = static_cast<double>(AtMin.TasksStolen);
    V["server.queue_depth_max"] = static_cast<double>(AtMin.QueueDepthMax);
    Out.Traced = median(Traced) * static_cast<double>(Traced.size());
    Out.Untraced = median(Latency) * static_cast<double>(Traced.size());
    std::printf("  server counters after %u requests: %llu hits, %llu "
                "misses, %llu evictions\n",
                Warmup + MinRequests,
                static_cast<unsigned long long>(AtMin.CacheHits),
                static_cast<unsigned long long>(AtMin.CacheMisses),
                static_cast<unsigned long long>(AtMin.CacheEvictions));
    std::printf("  request: traced p50 %.3f ms, handleLine p50 %.3f ms\n",
                1e3 * median(Traced), 1e3 * median(Latency));
    return Out;
  }

private:
  /// Sends the stream's next request and checks and records its reply.
  void send() {
    uint64_t Id = ++Sent;
    uint64_t Timed = Id > Warmup ? Id - Warmup : 0;
    CompileRequest Q = Stream.next();
    std::string Line = requestLine(Id, Q);
    bool TraceThis = A.Trace && Id % 2 == 0;
    size_t From = Tr.size();
    Clock::time_point T0 = Clock::now();
    std::string Response =
        TraceThis ? tracedRequest(S, Line, Id, Tr) : S.handleLine(Line);
    double Took = secondsSince(T0);
    std::string Hash = checkResponse(Response, Q, Id, R);
    // The cache grows with the session's requests, so memory and counters
    // are taken at a fixed request: later values would measure how fast
    // the run went.
    if (Timed == MinRequests) {
      AtMin = S.service().counters();
      RssAtMin = peakRssMb();
    }
    if (!Timed)
      return;
    if (Timed % ColdCheckEvery == 1) {
      auto [It, New] = Samples.insert({{Q.K, Q.Source}, Hash});
      R.attempt(New || It->second == Hash,
                "request " + std::to_string(Id) +
                    ": a repeated request changed its output_hash");
    }
    if (!TraceThis) {
      Latency.push_back(Took);
      Slots += Q.Functions;
      return;
    }
    Layers Self = Tr.selfTimes(From);
    Layers L;
    for (const char *Name :
         {"server.parse", "server.compile", "server.serialize"})
      L[std::string(Name) + "_s"] = Self[Name];
    Traced.push_back(Tr.durations(From)["request"]);
    Spans.push_back(std::move(L));
    Replays.push_back({Id, std::move(Q.Source)});
  }

  Server &S;
  RequestStream &Stream;
  const Args &A;
  const double RoundSeconds;
  const unsigned Warmup, MinRequests;
  Result &R;
  Trace &Tr;
  uint64_t Sent = 0;
  std::vector<double> Latency, Traced; ///< handleLine and traced requests
  double Slots = 0; ///< function slots of the untraced timed requests
  std::vector<Layers> Spans;           ///< traced requests' layer values
  std::vector<std::pair<uint64_t, std::string>> Replays;
  /// (k, source) of sampled requests -> warm output hash.
  std::map<std::pair<unsigned, std::string>, std::string> Samples;
  ServiceCounters AtMin;
  double RssAtMin = 0;
};

} // namespace

std::unique_ptr<Phase>
perfbench::requestPhase(Server &S, RequestStream &Stream, const Args &A,
                        double RoundSeconds, unsigned Warmup,
                        unsigned MinRequests, Result &R, Trace &Tr) {
  return std::make_unique<RequestPhase>(S, Stream, A, RoundSeconds, Warmup,
                                        MinRequests, R, Tr);
}
