//===- server/rapd.cpp - Persistent compile server driver -------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapd: the persistent compile service (DESIGN.md §12-13). Speaks the
/// rapd-v1 newline-delimited JSON protocol on stdin/stdout (default) or a
/// Unix-domain socket, memoizes per-function allocations in an in-memory
/// content-hash cache, and fans cache misses out over a work-stealing shard
/// pool.
///
///   rapd [options]
///     --socket=PATH           serve a unix-domain stream socket instead of
///                             stdin/stdout (one thread per connection)
///     --shards=N              work-stealing allocation workers (default 4)
///     --cache-bytes=N         allocation-cache budget in bytes (default
///                             256MiB; 0 disables caching — the cold path)
///     --max-inflight-bytes=N  admission budget: reject once this many
///                             request bytes are in flight (default 64MiB)
///     --max-line-bytes=N      longest accepted NDJSON line (default 8MiB;
///                             longer lines answer "bad-request")
///     --retry-after-ms=N      hint sent with "overloaded" rejections
///                             (default 50)
///     --drain-ms=N            grace window for in-flight requests after a
///                             shutdown request before they are cancelled
///                             (default 2000)
///     --chaos=PLAN            deterministic server-layer fault schedule
///                             (RAP_FAULT_INJECT syntax, sites
///                             parse|cache-insert|stall|shutdown)
///     --no-hello              skip the {"rapd":"v1",...} startup banner
///     --stats[=text|json]     after serving ends, print a rap-stats-v1
///                             document with the aggregated allocation
///                             ledger and the "server" section, the same
///                             object the `stats` op answers (text ->
///                             stderr as one `server:` line, json -> stdout)
///
/// SIGTERM and SIGINT start a graceful drain: admission stops within one
/// poll tick, in-flight requests get --drain-ms to finish, then the
/// drain-kill token cancels whatever remains (those requests answer
/// "cancelled" — no response is ever lost). Exit codes: 0 clean drain
/// (EOF, "shutdown" op, or signal with nothing left running), 1 transport
/// or I/O failure, 2 usage error, 3 the drain deadline passed with
/// requests still in flight (served degraded — the same convention as
/// rapcc's degraded exit). Compile errors never change the exit code —
/// they are responses, not failures of the server.
///
//===----------------------------------------------------------------------===//

#include "driver/Report.h"
#include "server/Server.h"
#include "support/CmdLine.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace rap;
using namespace rap::server;

namespace {

/// Raised by the SIGTERM/SIGINT handler (a lock-free atomic store is
/// async-signal-safe). Every connection and the serve loop poll it on their
/// tick; the serve loop turns it into the drain.
std::atomic<bool> StopFlag{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void onStopSignal(int) { StopFlag.store(true, std::memory_order_relaxed); }

/// No serve loop needs the signal to interrupt a blocked call (EINTR):
/// every wait is a poll() tick that re-checks the flag.
void installStopHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: rapd [--socket=PATH] [--shards=N] [--cache-bytes=N]\n"
      "            [--max-inflight-bytes=N] [--max-line-bytes=N]\n"
      "            [--retry-after-ms=N] [--drain-ms=N] [--chaos=PLAN]\n"
      "            [--no-hello] [--stats[=text|json]]\n"
      "exit codes: 0 clean drain, 1 transport failure, 2 usage,\n"
      "            3 drain deadline hit\n");
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  std::string SocketPath;
  std::string StatsMode;

  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--socket=", 9) == 0) {
      SocketPath = Arg + 9;
      if (SocketPath.empty()) {
        std::fprintf(stderr, "rapd: --socket needs a path\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--shards=", 9) == 0) {
      if (!parseUnsigned(Arg + 9, Config.Service.Shards, 1,
                         MaxWorkerThreads)) {
        std::fprintf(stderr, "rapd: --shards must be an integer in [1, %u]\n",
                     MaxWorkerThreads);
        return 2;
      }
    } else if (std::strncmp(Arg, "--cache-bytes=", 14) == 0) {
      if (!parseUnsigned(Arg + 14, Config.Service.CacheBytes)) {
        std::fprintf(stderr, "rapd: bad --cache-bytes value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--max-inflight-bytes=", 21) == 0) {
      if (!parseUnsigned(Arg + 21, Config.MaxInflightBytes, 1)) {
        std::fprintf(stderr, "rapd: bad --max-inflight-bytes value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--max-line-bytes=", 17) == 0) {
      if (!parseUnsigned(Arg + 17, Config.MaxLineBytes, 1)) {
        std::fprintf(stderr, "rapd: bad --max-line-bytes value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--retry-after-ms=", 17) == 0) {
      if (!parseUnsigned(Arg + 17, Config.RetryAfterMs, 1)) {
        std::fprintf(stderr, "rapd: bad --retry-after-ms value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--drain-ms=", 11) == 0) {
      if (!parseUnsigned(Arg + 11, Config.DrainMs)) {
        std::fprintf(stderr, "rapd: bad --drain-ms value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--chaos=", 8) == 0) {
      try {
        Config.Service.Chaos = FaultPlan::fromString(Arg + 8);
      } catch (const std::invalid_argument &E) {
        std::fprintf(stderr, "rapd: bad --chaos plan: %s\n", E.what());
        return 2;
      }
    } else if (std::strcmp(Arg, "--no-hello") == 0) {
      Config.Hello = false;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      StatsMode = "text";
    } else if (std::strncmp(Arg, "--stats=", 8) == 0) {
      StatsMode = Arg + 8;
      if (StatsMode != "text" && StatsMode != "json") {
        std::fprintf(stderr, "rapd: unknown stats mode '%s'\n",
                     StatsMode.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "rapd: unknown option '%s'\n", Arg);
      usage();
      return 2;
    }
  }

  installStopHandlers();
  Config.StopFlag = &StopFlag;

  Server S(Config);
  int Code = SocketPath.empty() ? S.serveStdio() : S.serveSocket(SocketPath);

  if (!StatsMode.empty()) {
    // The final report: the rap-stats-v1 document over everything served.
    // Options vary per request, so the allocator/k fields record the
    // server's defaults; the ledger is an aggregate. The `server` section
    // is the `stats` op's object, from the same renderer.
    CompileResult Summary;
    Summary.Alloc = S.totalAllocStats();
    ReportMeta Meta;
    Meta.Allocator = "rap";
    Meta.K = 5;
    Meta.Threads = S.service().shards();
    json::Value Server = serverStatsJson(S.counters());
    if (StatsMode == "json") {
      json::Value Doc = statsJson(Summary, Meta);
      Doc.asObject()["server"] = std::move(Server);
      std::printf("%s\n", Doc.str(2).c_str());
    } else {
      std::fprintf(stderr, "%s  server: %s\n",
                   statsText(Summary, Meta).c_str(), Server.str().c_str());
    }
  }
  return Code;
}
