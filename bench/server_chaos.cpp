//===- bench/server_chaos.cpp - rapd crash-only chaos/soak harness ----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Soaks the serving core (Server::handleLine — the exact path both rapd
// transports feed) with a deterministic request trace while a seeded fault
// schedule fires every server-layer chaos site from DESIGN.md §13:
//
//   parse            dispatch answers a contained "internal-error"
//   cache-insert     an allocation-cache insert is dropped
//   stall            a shard worker wedges, ignoring its cancel token
//   shutdown         the stop flag flips mid-request (as if SIGTERM landed);
//                    the harness then drains that server instance and starts
//                    a fresh one — the crash-only restart — and replays on
//
// The trace mixes plain compiles, deadline-carrying compiles, batches,
// pings, stats, malformed JSON, and an oversized line. Two passes run: a
// fault-free reference and the chaos pass. Invariants asserted (FATAL +
// exit 1 on violation):
//
//   * exactly one well-formed JSON response per admitted line, ids echoed,
//     batch responses in request order — under every fault;
//   * every compile the chaos pass answers ok has an output_hash identical
//     to the fault-free reference for the same request id (faults and
//     restarts may turn hits into misses, never change compiled bytes);
//   * after the soak no shard is left degraded and a probe compile still
//     answers ok — zero wedged shards;
//   * a deadline-bearing request over a deliberately oversized module
//     answers "deadline-exceeded" within 2x its deadline;
//   * every chaos site demonstrably fired (internal-errors seen, restarts
//     seen, service-layer injections counted, deadlines exceeded).
//
// Output: a human summary (default) or --json in the shared rap-bench-v1
// envelope (bench = "server-chaos").
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/CmdLine.h"
#include "support/Json.h"

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

//===----------------------------------------------------------------------===//
// Module generator (same shape as server_load: pressure-heavy functions
// whose fingerprints change when their version counter is bumped).
//===----------------------------------------------------------------------===//

std::string functionSource(unsigned Index, unsigned Version) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "int job%u(int n, int seed) {\n"
                "  int a = seed + %u;\n"
                "  int b = seed * 3 + %u;\n"
                "  int c = a - b + 11;\n"
                "  int d = a * b %% 9973;\n"
                "  int e = c + d;\n"
                "  int f = e * 2 - a;\n"
                "  for (int i = 0; i < n; i = i + 1) {\n"
                "    int t = a * i + b;\n"
                "    if (t %% 2 == 0) {\n"
                "      a = a + c * i - d;\n"
                "      b = b + e %% 4099;\n"
                "    } else {\n"
                "      d = d + f * 2 - t;\n"
                "      e = e + a %% 3671;\n"
                "    }\n"
                "    c = c + (a + b) %% 2753;\n"
                "    f = f + (c - d) * 3;\n"
                "  }\n"
                "  return a + b + c + d + e + f;\n"
                "}\n",
                Index, Version * 7 + Index, Version * 13 + 5);
  return Buf;
}

std::string moduleSource(const std::vector<unsigned> &Versions) {
  std::string S;
  S.reserve(Versions.size() * 768 + 256);
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += functionSource(I, Versions[I]);
  S += "int main() {\n  int acc = 0;\n";
  for (unsigned I = 0; I != Versions.size(); ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  acc = acc + job%u(5, %u);\n", I,
                  I + 1);
    S += Line;
  }
  S += "  return acc;\n}\n";
  return S;
}

struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545f4914f6cdd1dull;
  }
};

std::string jsonEscaped(const std::string &S) {
  return json::Value(S).str();
}

//===----------------------------------------------------------------------===//
// Trace generation: one NDJSON line per entry, deterministic under --seed.
//===----------------------------------------------------------------------===//

std::string compileRequest(int64_t Id, const std::string &Source,
                           uint64_t DeadlineMs) {
  std::string Line = "{\"op\":\"compile\",\"id\":" + std::to_string(Id) +
                     ",\"source\":" + jsonEscaped(Source) +
                     ",\"options\":{\"alloc\":\"rap\",\"k\":3";
  if (DeadlineMs)
    Line += ",\"deadline_ms\":" + std::to_string(DeadlineMs);
  Line += "}}";
  return Line;
}

struct Trace {
  std::vector<std::string> Lines;
  /// Expected response ids per line, in order; empty = a line that answers
  /// without an id (malformed / oversized).
  std::vector<std::vector<int64_t>> Ids;
  unsigned CompileCount = 0;
};

/// Functions a deadline-bearing compile adds to its module: lowering and
/// fingerprinting them takes far longer than its 1ms budget.
constexpr unsigned DeadlineBallast = 160;

Trace buildTrace(unsigned Requests, unsigned Functions, uint64_t Seed,
                 size_t MaxLineBytes) {
  Trace T;
  Rng Rand(Seed);
  std::vector<unsigned> Versions(Functions, 0);
  int64_t NextId = 1;
  for (unsigned I = 0; I != Requests; ++I) {
    unsigned Pick = static_cast<unsigned>(Rand.next() % 100);
    if (Pick < 4) {
      // Malformed JSON: answered bad-request, no id.
      T.Lines.push_back("{\"op\":\"compile\",\"id\":");
      T.Ids.emplace_back();
    } else if (Pick < 6) {
      T.Lines.push_back("{\"op\":\"ping\",\"id\":" + std::to_string(NextId) +
                        "}");
      T.Ids.push_back({NextId++});
    } else if (Pick < 8) {
      T.Lines.push_back("{\"op\":\"stats\",\"id\":" + std::to_string(NextId) +
                        "}");
      T.Ids.push_back({NextId++});
    } else if (Pick < 14) {
      // Batch of two compiles: one admission unit, ordered responses.
      Versions[Rand.next() % Functions] += 1;
      std::string A = compileRequest(NextId, moduleSource(Versions), 0);
      int64_t IdA = NextId++;
      Versions[Rand.next() % Functions] += 1;
      std::string B = compileRequest(NextId, moduleSource(Versions), 0);
      int64_t IdB = NextId++;
      T.Lines.push_back("[" + A + "," + B + "]");
      T.Ids.push_back({IdA, IdB});
      T.CompileCount += 2;
    } else {
      // Plain compile; one in eight carries a deadline too tight for a cold
      // module (1ms), exercising the deadline-exceeded path mid-soak. Those
      // also carry DeadlineBallast uncalled functions, so the request
      // cannot finish in time on any host: a mostly warm module alone
      // compiles in about 1ms, and its outcome would race the clock.
      Versions[Rand.next() % Functions] += 1;
      uint64_t DeadlineMs = (Pick % 8 == 0) ? 1 : 0;
      std::string Source = moduleSource(Versions);
      for (unsigned B = 0; DeadlineMs && B != DeadlineBallast; ++B)
        Source += functionSource(Functions + B, 0);
      T.Lines.push_back(compileRequest(NextId, Source, DeadlineMs));
      T.Ids.push_back({NextId++});
      T.CompileCount += 1;
    }
  }
  // One oversized line: valid JSON, but longer than the server's line cap;
  // must answer a stable bad-request (no id — the server never parses it).
  std::string Huge = "{\"op\":\"ping\",\"id\":777,\"pad\":\"";
  Huge.append(MaxLineBytes + 64, 'x');
  Huge += "\"}";
  T.Lines.push_back(std::move(Huge));
  T.Ids.emplace_back();
  return T;
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

struct PassStats {
  uint64_t Responses = 0;
  uint64_t Ok = 0;
  uint64_t BadRequest = 0;
  uint64_t InternalErrors = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Cancelled = 0;
  uint64_t Restarts = 0;
  uint64_t ChaosInjected = 0;
  uint64_t WatchdogTrips = 0;
  /// id -> output_hash of ok compile responses.
  std::map<int64_t, std::string> OkHashes;

  /// Folds in the counters of a server the pass retires.
  void fold(const ServiceCounters &C) {
    ChaosInjected += C.ChaosInjected;
    WatchdogTrips += C.WatchdogTrips;
  }
};

void fatal(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "FATAL: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
  std::exit(1);
}

/// Validates one response object against the expected id and folds its kind
/// into \p Stats.
void checkResponse(const json::Value &R, int64_t WantId, bool WantAnyId,
                   size_t LineNo, PassStats &Stats) {
  if (!R.isObject())
    fatal("line %zu: response item is not an object: %s", LineNo,
          R.str().c_str());
  if (!R.has("ok"))
    fatal("line %zu: response lacks 'ok': %s", LineNo, R.str().c_str());
  if (WantAnyId) {
    if (!R["id"].isInt() || R["id"].asInt() != WantId)
      fatal("line %zu: response id mismatch (want %lld): %s", LineNo,
            static_cast<long long>(WantId), R.str().c_str());
  }
  Stats.Responses += 1;
  if (R["ok"].asBool()) {
    Stats.Ok += 1;
    if (R.has("output_hash") && R["output_hash"].isString() && WantAnyId)
      Stats.OkHashes[WantId] = R["output_hash"].asString();
    return;
  }
  const std::string &Kind = R["kind"].isString() ? R["kind"].asString() : "";
  if (Kind == "bad-request")
    Stats.BadRequest += 1;
  else if (Kind == "internal-error")
    Stats.InternalErrors += 1;
  else if (Kind == "deadline-exceeded")
    Stats.DeadlineExceeded += 1;
  else if (Kind == "cancelled")
    Stats.Cancelled += 1;
  else if (Kind != "compile-error" && Kind != "overloaded")
    fatal("line %zu: unknown response kind '%s'", LineNo, Kind.c_str());
}

/// Replays the trace. With a chaos plan, a fired `shutdown` site flips the
/// server's stop flag; the harness then retires that server (its destructor
/// is the "crash") and replays the rest of the trace against a fresh one —
/// losing the cache, never a response.
PassStats runPass(const Trace &T, const ServerConfig &Base, bool Chaos) {
  PassStats Stats;
  std::unique_ptr<Server> S(new Server(Base));
  for (size_t I = 0; I != T.Lines.size(); ++I) {
    if (S->shutdownRequested()) {
      if (!Chaos)
        fatal("fault-free pass requested shutdown");
      // Quiesce check before the restart: handleLine returned for every
      // admitted line, so nothing is in flight and no shard may be wedged.
      ServiceCounters C = S->service().counters();
      if (C.ShardsDegraded != 0)
        fatal("shard left degraded at restart before line %zu", I);
      Stats.fold(C);
      S.reset(new Server(Base));
      Stats.Restarts += 1;
    }
    std::string Out = S->handleLine(T.Lines[I]);
    json::Value R;
    std::string Error;
    if (Out.empty() || !json::parse(Out, R, &Error))
      fatal("line %zu: response is not well-formed JSON (%s): %s", I,
            Error.c_str(), Out.c_str());
    const std::vector<int64_t> &Want = T.Ids[I];
    if (Want.size() > 1) {
      if (!R.isArray() || R.asArray().size() != Want.size())
        fatal("line %zu: batch of %zu answered %s", I, Want.size(),
              Out.c_str());
      for (size_t J = 0; J != Want.size(); ++J)
        checkResponse(R.asArray()[J], Want[J], true, I, Stats);
    } else {
      checkResponse(R, Want.empty() ? 0 : Want[0], !Want.empty(), I, Stats);
    }
  }

  // Post-soak probes on the surviving server: no wedged shards, and a fresh
  // compile still answers ok. The server keeps its chaos plan, so a `parse`
  // arm the trace left unfired answers the probe with an injected
  // internal-error. Each arm fires once: re-sending up to the plan's arm
  // count reaches a dispatch no arm claims. Any other failure is fatal.
  ServiceCounters Final = S->service().counters();
  if (Final.ShardsDegraded != 0)
    fatal("shards left degraded after the soak");
  Stats.fold(Final);
  std::vector<unsigned> ProbeVersions(2, 99);
  const std::string ProbeLine =
      compileRequest(999983, moduleSource(ProbeVersions), 0);
  for (size_t Resent = 0;; ++Resent) {
    std::string Probe = S->handleLine(ProbeLine);
    json::Value PR;
    if (!json::parse(Probe, PR, nullptr))
      fatal("post-soak probe answered malformed JSON: %s", Probe.c_str());
    if (PR["ok"].asBool())
      break;
    const bool Injected =
        PR["kind"].isString() && PR["kind"].asString() == "internal-error" &&
        PR["error"].isString() &&
        PR["error"].asString().rfind("fault injected at site", 0) == 0;
    if (!Injected || Resent == Base.Service.Chaos.Arms.size())
      fatal("post-soak probe compile failed: %s", Probe.c_str());
  }
  return Stats;
}

/// The 2x-deadline acceptance check: a deadline-bearing request over a
/// module far too large for the budget must answer deadline-exceeded within
/// 2x the deadline (cooperative cancellation costs at most one allocation
/// round past expiry).
void checkDeadlineLatency(unsigned Shards) {
  ServerConfig Config;
  Config.Service.Shards = Shards;
  Server S(Config);
  // A full compile of this module takes ~0.9 s on 4 shards of a 4-core
  // host, several times the deadline, so it cannot finish inside it.
  std::vector<unsigned> Versions(1536, 1);
  const uint64_t DeadlineMs = 200;
  std::string Line = compileRequest(1, moduleSource(Versions), DeadlineMs);
  auto T0 = std::chrono::steady_clock::now();
  std::string Out = S.handleLine(Line);
  double ElapsedMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
  json::Value R;
  if (!json::parse(Out, R, nullptr))
    fatal("deadline probe: unparseable response");
  const std::string Kind =
      R["kind"].isString() ? R["kind"].asString() : "(ok)";
  if (R["ok"].asBool())
    fatal("deadline probe compiled a %zu-function module inside %llums; "
          "enlarge the probe",
          Versions.size(), static_cast<unsigned long long>(DeadlineMs));
  if (Kind != "deadline-exceeded")
    fatal("deadline probe answered kind '%s'", Kind.c_str());
  if (ElapsedMs > 2.0 * static_cast<double>(DeadlineMs))
    fatal("deadline-exceeded took %.1fms, over 2x the %llums deadline",
          ElapsedMs, static_cast<unsigned long long>(DeadlineMs));
  std::fprintf(stderr,
               "deadline probe: deadline-exceeded in %.1fms (budget %llums, "
               "bound %.0fms)\n",
               ElapsedMs, static_cast<unsigned long long>(DeadlineMs),
               2.0 * static_cast<double>(DeadlineMs));
}

//===----------------------------------------------------------------------===//
// Flags.
//===----------------------------------------------------------------------===//

struct ChaosFlags {
  bool Json = false;
  unsigned Requests = 500;
  unsigned Functions = 6;
  unsigned Shards = 4;
  uint64_t Seed = 1;
  bool SkipDeadlineProbe = false;
  bool Ok = true;
  std::string Error;
};

ChaosFlags parseChaosFlags(int argc, char **argv) {
  ChaosFlags F;
  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    // Counts are positive. --shards sizes a ShardPool of OS threads, so it
    // is bounded here, before any Server or ShardPool exists.
    bool ValueOk = true;
    if (std::strcmp(Arg, "--json") == 0) {
      F.Json = true;
    } else if (std::strncmp(Arg, "--requests=", 11) == 0) {
      ValueOk = parseUnsigned(Arg + 11, F.Requests, 1);
    } else if (std::strncmp(Arg, "--functions=", 12) == 0) {
      ValueOk = parseUnsigned(Arg + 12, F.Functions, 1);
    } else if (std::strncmp(Arg, "--shards=", 9) == 0) {
      ValueOk = parseUnsigned(Arg + 9, F.Shards, 1, MaxWorkerThreads);
    } else if (std::strncmp(Arg, "--seed=", 7) == 0) {
      ValueOk = parseUnsigned(Arg + 7, F.Seed, 1);
    } else if (std::strcmp(Arg, "--no-deadline-probe") == 0) {
      F.SkipDeadlineProbe = true;
    } else {
      F.Ok = false;
      F.Error = std::string("unknown option '") + Arg + "'";
      return F;
    }
    if (!ValueOk) {
      F.Ok = false;
      F.Error = std::string("bad value in '") + Arg + "'";
      return F;
    }
  }
  return F;
}

} // namespace

int main(int argc, char **argv) {
  ChaosFlags Flags = parseChaosFlags(argc, argv);
  if (!Flags.Ok) {
    std::fprintf(stderr, "server_chaos: %s\n", Flags.Error.c_str());
    std::fprintf(stderr,
                 "usage: server_chaos [--json] [--requests=N] "
                 "[--functions=N] [--shards=N] [--seed=N] "
                 "[--no-deadline-probe]\n");
    return 2;
  }

  const size_t MaxLineBytes = 256u << 10;
  ServerConfig Base;
  Base.Service.Shards = Flags.Shards;
  Base.MaxLineBytes = MaxLineBytes;
  // Keep the stall short and the watchdog eager: trips are telemetry here,
  // not latency.
  Base.Service.ChaosStallMs = 30;
  Base.Service.Watchdog.Factor = 2;

  Trace T = buildTrace(Flags.Requests, Flags.Functions, Flags.Seed,
                       MaxLineBytes);

  // Reference pass: no chaos plan (and an empty RAP_FAULT_INJECT: the
  // harness relies on its own schedule).
  PassStats Ref = runPass(T, Base, /*Chaos=*/false);

  // Chaos pass: a seeded schedule arming every server site several times.
  // Countdowns are derived from the seed but bounded well under the trace's
  // dispatch count, so every site is guaranteed to fire (restarts re-arm
  // the plan, which only fires them more often).
  Rng Rand(Flags.Seed * 0x9e3779b97f4a7c15ull + 1);
  ServerConfig ChaosConfig = Base;
  FaultPlan Plan;
  auto arm = [&](FaultSite Site, unsigned MaxCountdown, unsigned Count) {
    if (MaxCountdown == 0)
      MaxCountdown = 1;
    for (unsigned I = 0; I != Count; ++I) {
      FaultPlan::Arm A;
      A.Site = Site;
      A.Nth = 1 + static_cast<unsigned>(Rand.next() % MaxCountdown);
      Plan.Arms.push_back(A);
    }
  };
  unsigned Dispatches = Flags.Requests; // lower bound (batches add more)
  arm(FaultSite::ProtocolParse, Dispatches / 4, 3);
  arm(FaultSite::CacheInsert, Dispatches / 8, 3);
  arm(FaultSite::WorkerStall, Dispatches / 4, 2);
  arm(FaultSite::MidShutdown, Dispatches / 2, 1);
  ChaosConfig.Service.Chaos = Plan;
  PassStats Chaos = runPass(T, ChaosConfig, /*Chaos=*/true);

  // Every admitted line answered in both passes (runPass already fataled on
  // malformed or missing responses; this is the count check).
  if (Ref.Responses != Chaos.Responses)
    fatal("response counts diverged: %llu fault-free vs %llu chaos",
          static_cast<unsigned long long>(Ref.Responses),
          static_cast<unsigned long long>(Chaos.Responses));

  // Bit-identity: every compile the chaos pass answered ok must hash
  // exactly as the fault-free pass did (faults may flip hits to misses or
  // abort requests — they must never change compiled output).
  uint64_t Compared = 0;
  for (const auto &[Id, Hash] : Chaos.OkHashes) {
    auto It = Ref.OkHashes.find(Id);
    if (It == Ref.OkHashes.end())
      fatal("request %lld ok under chaos but not fault-free",
            static_cast<long long>(Id));
    if (It->second != Hash)
      fatal("request %lld output diverged under chaos (%s != %s)",
            static_cast<long long>(Id), Hash.c_str(), It->second.c_str());
    Compared += 1;
  }

  // Site coverage: each fault family left its observable footprint.
  if (Chaos.InternalErrors == 0)
    fatal("parse site never fired (no internal-error responses)");
  if (Chaos.Restarts == 0)
    fatal("shutdown site never fired (no restarts)");
  if (Chaos.ChaosInjected == 0)
    fatal("cache-insert/stall sites never fired (chaos_injected == 0)");
  if (Chaos.DeadlineExceeded == 0)
    fatal("no deadline-exceeded responses in the soak");

  if (!Flags.SkipDeadlineProbe)
    checkDeadlineLatency(Flags.Shards);

  if (Flags.Json) {
    json::Object Row;
    Row["requests"] = static_cast<uint64_t>(T.Lines.size());
    Row["compiles"] = static_cast<uint64_t>(T.CompileCount);
    Row["responses"] = Chaos.Responses;
    Row["ok"] = Chaos.Ok;
    Row["bad_request"] = Chaos.BadRequest;
    Row["internal_errors"] = Chaos.InternalErrors;
    Row["deadline_exceeded"] = Chaos.DeadlineExceeded;
    Row["cancelled"] = Chaos.Cancelled;
    Row["restarts"] = Chaos.Restarts;
    Row["chaos_injected"] = Chaos.ChaosInjected;
    Row["watchdog_trips"] = Chaos.WatchdogTrips;
    Row["hashes_compared"] = Compared;
    Row["hash_mismatches"] = static_cast<uint64_t>(0);
    Row["lost_responses"] = static_cast<uint64_t>(0);
    json::Array Rows;
    Rows.push_back(json::Value(std::move(Row)));
    json::Object Root;
    Root["schema"] = "rap-bench-v1";
    Root["bench"] = "server-chaos";
    Root["rows"] = json::Value(std::move(Rows));
    std::printf("%s\n", json::Value(std::move(Root)).str().c_str());
    return 0;
  }

  std::printf("server chaos soak: %zu lines (%u compiles), seed %llu, "
              "%u shards\n",
              T.Lines.size(), T.CompileCount,
              static_cast<unsigned long long>(Flags.Seed), Flags.Shards);
  std::printf("  responses=%llu ok=%llu bad-request=%llu internal=%llu "
              "deadline=%llu cancelled=%llu\n",
              static_cast<unsigned long long>(Chaos.Responses),
              static_cast<unsigned long long>(Chaos.Ok),
              static_cast<unsigned long long>(Chaos.BadRequest),
              static_cast<unsigned long long>(Chaos.InternalErrors),
              static_cast<unsigned long long>(Chaos.DeadlineExceeded),
              static_cast<unsigned long long>(Chaos.Cancelled));
  std::printf("  restarts=%llu chaos-injected=%llu watchdog-trips=%llu\n",
              static_cast<unsigned long long>(Chaos.Restarts),
              static_cast<unsigned long long>(Chaos.ChaosInjected),
              static_cast<unsigned long long>(Chaos.WatchdogTrips));
  std::printf("  %llu ok responses byte-identical to the fault-free run; "
              "0 lost, 0 wedged shards\n",
              static_cast<unsigned long long>(Compared));
  return 0;
}
