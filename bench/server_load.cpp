//===- bench/server_load.cpp - rapd compile-service load generator ----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Replays an editing session against the in-process CompileService: a module
// of register-pressure-heavy functions is compiled over and over while a
// configurable fraction of function bodies ("edit rate") is mutated between
// requests, the way an IDE recompiles a project where most functions did not
// change. Two passes run over the *identical* request sequence:
//
//   cold  CacheBytes = 0: every function re-allocates on every request
//   warm  the configured cache budget: unchanged functions replay their
//         cached allocation, only edited functions pay for allocation
//
// and the harness reports per-request p50/p99 latency, end-to-end
// functions/sec, the cache hit rate, and the warm-over-cold speedup. It also
// asserts, per request, that the warm pass's output hash equals the cold
// pass's — the byte-identity contract under load, not just in unit tests.
//
// Output: human table (default), --csv, or --json in the shared rap-bench-v1
// envelope (bench = "server-load"); scripts/server_smoke.sh writes the JSON
// to <build-dir>/bench-artifacts/server_load.json.
//
//===----------------------------------------------------------------------===//

#include "server/CompileService.h"
#include "support/CmdLine.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

//===----------------------------------------------------------------------===//
// Module generator: many independent, pressure-heavy functions.
//===----------------------------------------------------------------------===//

// Each function gets a "version" counter spliced into its body as a literal;
// editing a function means bumping its version, which changes the lowered
// ILOC text and therefore its fingerprint, exactly like a real source edit.
// The bodies carry enough simultaneously-live values (plus an inner loop and
// control flow) that RAP allocation at small k dominates parse + lowering —
// the regime the cache is for.
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
  S.reserve(Versions.size() * 1024 + 512);
  for (unsigned I = 0; I != Versions.size(); ++I)
    S += functionSource(I, Versions[I]);
  // main() calls every function so none is dead; its own body never changes
  // (call operands print callee *indices*, which are stable under edits), so
  // main itself stays a cache hit across the whole session.
  S += "int main() {\n  int acc = 0;\n";
  for (unsigned I = 0; I != Versions.size(); ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  acc = acc + work%u(6, %u);\n", I,
                  I + 1);
    S += Line;
  }
  S += "  return acc;\n}\n";
  return S;
}

/// Deterministic PRNG (xorshift64*) so the edit sequence — and therefore the
/// hit/miss pattern and every reported counter except wall time — is
/// identical on every run and in both passes.
struct Rng {
  uint64_t State = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545f4914f6cdd1dull;
  }
};

//===----------------------------------------------------------------------===//
// Flags.
//===----------------------------------------------------------------------===//

struct LoadFlags {
  bool Csv = false;
  bool Json = false;
  unsigned Requests = 200;
  unsigned Functions = 24;
  double EditRate = 0.10;
  unsigned Shards = 4;
  unsigned K = 3;
  bool Ok = true;
  std::string Error;
};

LoadFlags parseLoadFlags(int argc, char **argv) {
  LoadFlags F;
  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    // Counts are positive. --shards sizes a ShardPool of OS threads, so it
    // is bounded here, before any CompileService or ShardPool exists.
    bool ValueOk = true;
    if (std::strcmp(Arg, "--csv") == 0) {
      F.Csv = true;
    } else if (std::strcmp(Arg, "--json") == 0) {
      F.Json = true;
    } else if (std::strncmp(Arg, "--requests=", 11) == 0) {
      ValueOk = parseUnsigned(Arg + 11, F.Requests, 1);
    } else if (std::strncmp(Arg, "--functions=", 12) == 0) {
      ValueOk = parseUnsigned(Arg + 12, F.Functions, 1);
    } else if (std::strncmp(Arg, "--shards=", 9) == 0) {
      ValueOk = parseUnsigned(Arg + 9, F.Shards, 1, MaxWorkerThreads);
    } else if (std::strncmp(Arg, "--k=", 4) == 0) {
      ValueOk = parseUnsigned(Arg + 4, F.K, 1);
      if (ValueOk && F.K < 3) {
        F.Ok = false;
        F.Error = "--k must be >= 3";
        return F;
      }
    } else if (std::strncmp(Arg, "--edit-rate=", 12) == 0) {
      char *End = nullptr;
      double V = std::strtod(Arg + 12, &End);
      if (End == Arg + 12 || *End != '\0' || V < 0.0 || V > 1.0) {
        F.Ok = false;
        F.Error = std::string("bad --edit-rate '") + (Arg + 12) +
                  "' (fraction in [0,1])";
        return F;
      }
      F.EditRate = V;
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
  if (F.Csv && F.Json) {
    F.Ok = false;
    F.Error = "--csv and --json are mutually exclusive";
  }
  return F;
}

//===----------------------------------------------------------------------===//
// One pass: replay the request sequence against one service configuration.
//===----------------------------------------------------------------------===//

struct PassResult {
  double P50Us = 0.0;
  double P99Us = 0.0;
  double FunctionsPerSec = 0.0;
  double HitRatePct = 0.0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::vector<uint64_t> OutputHashes; ///< per request, for cross-pass check
};

PassResult runPass(const std::vector<std::string> &Sources,
                   const LoadFlags &Flags, size_t CacheBytes,
                   const std::string &WarmupSource) {
  ServiceConfig Config;
  Config.Shards = Flags.Shards;
  Config.CacheBytes = CacheBytes;
  CompileService Service(Config);

  RequestOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.K = Flags.K;

  // Warmup request (unmeasured): with a cache it seeds every entry; without
  // one it merely pre-faults the allocator paths so both passes start even.
  {
    ServiceResult R = Service.compile(WarmupSource, Opts);
    if (!R.Ok) {
      std::fprintf(stderr, "FATAL: warmup compile failed:\n%s\n",
                   R.Errors.c_str());
      std::abort();
    }
  }

  PassResult Out;
  Out.OutputHashes.reserve(Sources.size());
  std::vector<double> LatenciesUs;
  LatenciesUs.reserve(Sources.size());
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  for (const std::string &Source : Sources) {
    Clock::time_point T0 = Clock::now();
    ServiceResult R = Service.compile(Source, Opts);
    Clock::time_point T1 = Clock::now();
    if (!R.Ok) {
      std::fprintf(stderr, "FATAL: request compile failed:\n%s\n",
                   R.Errors.c_str());
      std::abort();
    }
    LatenciesUs.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
    Out.Hits += R.CacheHits;
    Out.Misses += R.CacheMisses;
    Out.OutputHashes.push_back(R.OutputHash);
  }
  double TotalSec =
      std::chrono::duration<double>(Clock::now() - Start).count();

  std::sort(LatenciesUs.begin(), LatenciesUs.end());
  auto Percentile = [&](double P) {
    size_t Idx = static_cast<size_t>(P * (LatenciesUs.size() - 1) + 0.5);
    return LatenciesUs[std::min(Idx, LatenciesUs.size() - 1)];
  };
  Out.P50Us = Percentile(0.50);
  Out.P99Us = Percentile(0.99);
  // Functions per second counts every function slot the service resolved
  // (hit or miss) across the measured requests — the unit of useful work.
  uint64_t FunctionSlots =
      static_cast<uint64_t>(Sources.size()) * (Flags.Functions + 1); // + main
  Out.FunctionsPerSec = TotalSec > 0.0 ? FunctionSlots / TotalSec : 0.0;
  uint64_t Classified = Out.Hits + Out.Misses;
  Out.HitRatePct =
      Classified ? 100.0 * static_cast<double>(Out.Hits) / Classified : 0.0;
  return Out;
}

json::Object rowJson(const char *Mode, const LoadFlags &Flags,
                     const PassResult &R, double Speedup) {
  json::Object O;
  O["mode"] = Mode;
  O["requests"] = static_cast<uint64_t>(Flags.Requests);
  O["functions"] = static_cast<uint64_t>(Flags.Functions);
  O["shards"] = static_cast<uint64_t>(Flags.Shards);
  O["k"] = static_cast<uint64_t>(Flags.K);
  O["edit_rate_pct"] = Flags.EditRate * 100.0;
  O["p50_us"] = R.P50Us;
  O["p99_us"] = R.P99Us;
  O["functions_per_sec"] = R.FunctionsPerSec;
  O["cache_hits"] = R.Hits;
  O["cache_misses"] = R.Misses;
  O["hit_rate_pct"] = R.HitRatePct;
  O["speedup_vs_cold"] = Speedup;
  return O;
}

} // namespace

int main(int argc, char **argv) {
  LoadFlags Flags = parseLoadFlags(argc, argv);
  if (!Flags.Ok) {
    std::fprintf(stderr, "server_load: %s\n", Flags.Error.c_str());
    std::fprintf(stderr,
                 "usage: server_load [--csv|--json] [--requests=N] "
                 "[--functions=N] [--edit-rate=F] [--shards=N] [--k=K]\n");
    return 2;
  }

  // Build the request sequence once: cumulative edits over the module, the
  // same sources replayed by both passes.
  std::vector<unsigned> Versions(Flags.Functions, 0);
  std::string WarmupSource = moduleSource(Versions);
  unsigned EditsPerRequest = static_cast<unsigned>(
      Flags.EditRate * Flags.Functions + 0.5);
  if (Flags.EditRate > 0.0 && EditsPerRequest == 0)
    EditsPerRequest = 1;
  Rng Rand;
  std::vector<std::string> Sources;
  Sources.reserve(Flags.Requests);
  for (unsigned I = 0; I != Flags.Requests; ++I) {
    for (unsigned E = 0; E != EditsPerRequest; ++E)
      Versions[Rand.next() % Flags.Functions] += 1;
    Sources.push_back(moduleSource(Versions));
  }

  PassResult Cold = runPass(Sources, Flags, /*CacheBytes=*/0, WarmupSource);
  PassResult Warm =
      runPass(Sources, Flags, /*CacheBytes=*/256u << 20, WarmupSource);

  // Byte-identity under load: every warm response must hash identically to
  // the cold compile of the same source.
  for (size_t I = 0; I != Sources.size(); ++I) {
    if (Warm.OutputHashes[I] != Cold.OutputHashes[I]) {
      std::fprintf(stderr,
                   "FATAL: warm output diverged from cold at request %zu "
                   "(%016llx != %016llx)\n",
                   I, static_cast<unsigned long long>(Warm.OutputHashes[I]),
                   static_cast<unsigned long long>(Cold.OutputHashes[I]));
      std::abort();
    }
  }

  double Speedup = Cold.FunctionsPerSec > 0.0
                       ? Warm.FunctionsPerSec / Cold.FunctionsPerSec
                       : 0.0;

  if (Flags.Json) {
    json::Array Rows;
    Rows.push_back(json::Value(rowJson("cold", Flags, Cold, 1.0)));
    Rows.push_back(json::Value(rowJson("warm", Flags, Warm, Speedup)));
    json::Object Root;
    Root["schema"] = "rap-bench-v1";
    Root["bench"] = "server-load";
    Root["rows"] = json::Value(std::move(Rows));
    std::printf("%s\n", json::Value(std::move(Root)).str().c_str());
    return 0;
  }

  if (Flags.Csv) {
    std::printf("mode,requests,functions,edit_rate_pct,p50_us,p99_us,"
                "functions_per_sec,hit_rate_pct,speedup_vs_cold\n");
    std::printf("cold,%u,%u,%.1f,%.1f,%.1f,%.1f,%.1f,1.00\n", Flags.Requests,
                Flags.Functions, Flags.EditRate * 100.0, Cold.P50Us,
                Cold.P99Us, Cold.FunctionsPerSec, Cold.HitRatePct);
    std::printf("warm,%u,%u,%.1f,%.1f,%.1f,%.1f,%.1f,%.2f\n", Flags.Requests,
                Flags.Functions, Flags.EditRate * 100.0, Warm.P50Us,
                Warm.P99Us, Warm.FunctionsPerSec, Warm.HitRatePct, Speedup);
    return 0;
  }

  std::printf("server load: %u requests x %u functions, edit rate %.0f%%, "
              "%u shards, k=%u\n",
              Flags.Requests, Flags.Functions, Flags.EditRate * 100.0,
              Flags.Shards, Flags.K);
  std::printf("  %-5s %10s %10s %14s %10s %8s\n", "mode", "p50(us)",
              "p99(us)", "funcs/sec", "hit-rate", "speedup");
  std::printf("  %-5s %10.1f %10.1f %14.1f %9.1f%% %8s\n", "cold", Cold.P50Us,
              Cold.P99Us, Cold.FunctionsPerSec, Cold.HitRatePct, "1.00x");
  std::printf("  %-5s %10.1f %10.1f %14.1f %9.1f%% %7.2fx\n", "warm",
              Warm.P50Us, Warm.P99Us, Warm.FunctionsPerSec, Warm.HitRatePct,
              Speedup);
  std::printf("  warm output byte-identical to cold on all %u requests\n",
              Flags.Requests);
  return 0;
}
