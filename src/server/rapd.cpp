//===- server/rapd.cpp - Persistent compile server driver -------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapd: the persistent compile service (DESIGN.md §12-13, §15). Speaks the
/// rapd-v1 newline-delimited JSON protocol on stdin/stdout (default) or a
/// Unix-domain socket, memoizes per-function allocations in a content-hash
/// cache, and fans cache misses out over a work-stealing shard pool.
///
///   rapd [options]
///     --socket=PATH           serve a unix-domain stream socket instead of
///                             stdin/stdout (one thread per connection)
///     --shards=N              work-stealing allocation workers (default 4)
///     --cache-bytes=N         allocation-cache budget in bytes (default
///                             256MiB; 0 disables caching — the cold path)
///     --cache-dir=PATH        persist the cache: replay PATH/snapshot.bin +
///                             PATH/journal.bin at startup, journal every
///                             insertion (DESIGN.md §15)
///     --journal-fsync=MODE    never|batch|always (default batch): when
///                             journal appends reach the platter; kill -9
///                             durability never needs more than the default
///     --compact-bytes=N       journal size that triggers a snapshot
///                             compaction (default 64MiB; 0 disables)
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
///                             parse|cache-insert|stall|shutdown|
///                             journal-write|snapshot-compact)
///     --no-hello              skip the {"rapd":"v1",...} startup banner
///     --stats[=text|json]     after serving ends, print a rap-stats-v1
///                             document with the aggregated allocation
///                             ledger and the "server" section, the same
///                             object the `stats` op answers (text ->
///                             stderr as one `server:` line, json -> stdout)
///
///   Supervisor mode (crash recovery; DESIGN.md §15):
///     --supervise             fork/exec a child rapd with the same serving
///                             flags; restart it on crash (signal or exit 1)
///                             with exponential backoff + jitter. Clean
///                             exits (0), usage errors (2), and degraded
///                             drains (3) pass through without restart.
///     --pidfile=PATH          write the current child pid (tmp + rename)
///     --max-crashes=N         crash-loop bar (default 5): N crashes ...
///     --crash-window-s=S      ... within S seconds (default 30) exits the
///                             supervisor degraded with code 3
///     --backoff-ms=N          initial restart backoff (default 100)
///     --backoff-max-ms=N      backoff ceiling (default 5000)
///
/// The supervisor forwards SIGTERM/SIGINT to the child (one graceful drain,
/// then exit passthrough) and exports RAPD_RESTARTS to each child, which
/// surfaces it in the stats `recovery` block. SIGTERM and SIGINT in the
/// serving process start a graceful drain: admission stops, in-flight
/// requests get --drain-ms to finish, then the drain-kill token cancels
/// whatever remains (those requests answer "cancelled" — no response is
/// ever lost). Exit codes: 0 clean drain (EOF, "shutdown" op, or signal
/// with nothing left running), 1 transport/I-O failure, 2 usage error,
/// 3 the drain deadline passed with requests still in flight OR the
/// supervisor hit its crash-loop bar (served degraded — the same convention
/// as rapcc's degraded exit). Compile errors never change the exit code —
/// they are responses, not failures of the server.
///
//===----------------------------------------------------------------------===//

#include "driver/Report.h"
#include "server/Server.h"
#include "support/CmdLine.h"
#include "support/Env.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

namespace {

/// The only thing a strict-ISO signal handler may write. The serve loops
/// poll it; the drain watcher turns it into a cooperative cancellation.
volatile std::sig_atomic_t StopFlag = 0;

void onStopSignal(int) { StopFlag = 1; }

/// Installed WITHOUT SA_RESTART on purpose: a signal must make blocked
/// reads (stdio getline, socket poll) return EINTR so the serve loops
/// re-check the flag instead of sleeping through the drain window. The
/// supervisor reuses the same flag: its blocking waitpid must return EINTR
/// so the signal is forwarded to the child promptly.
void installStopHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: rapd [--socket=PATH] [--shards=N] [--cache-bytes=N]\n"
      "            [--cache-dir=PATH] [--journal-fsync=never|batch|always]\n"
      "            [--compact-bytes=N] [--max-inflight-bytes=N]\n"
      "            [--max-line-bytes=N] [--retry-after-ms=N] [--drain-ms=N]\n"
      "            [--chaos=PLAN] [--no-hello] [--stats[=text|json]]\n"
      "            [--supervise [--pidfile=PATH] [--max-crashes=N]\n"
      "             [--crash-window-s=S] [--backoff-ms=N]\n"
      "             [--backoff-max-ms=N]]\n"
      "exit codes: 0 clean drain, 1 transport failure, 2 usage,\n"
      "            3 drain deadline hit or supervisor crash loop\n");
}

//===----------------------------------------------------------------------===//
// Supervisor mode (DESIGN.md §15): restart-on-crash with backoff, jitter,
// crash-loop detection, and clean SIGTERM passthrough for drains.
//===----------------------------------------------------------------------===//

struct SuperviseOptions {
  bool Enabled = false;
  std::string PidFile;
  unsigned MaxCrashes = 5;
  unsigned CrashWindowS = 30;
  unsigned BackoffMs = 100;
  unsigned BackoffMaxMs = 5000;
};

std::string selfExePath(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return Buf;
  }
  return Argv0; // macOS / exotic mounts: argv[0] was good enough to start us
}

/// tmp + rename so a reader never sees a half-written pid.
void writePidFile(const std::string &Path, pid_t Pid) {
  std::string Tmp = Path + ".tmp";
  if (FILE *F = std::fopen(Tmp.c_str(), "w")) {
    std::fprintf(F, "%d\n", static_cast<int>(Pid));
    std::fclose(F);
    if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
      std::remove(Tmp.c_str());
  }
}

int supervise(const std::string &Exe, const std::vector<std::string> &Args,
              const SuperviseOptions &Opt) {
  installStopHandlers();
  // Jitter decorrelates a fleet of supervisors restarting after a shared
  // cause (deploy, OOM sweep); the serving path's determinism contract does
  // not extend to restart *timing*, so a nondeterministic seed is fine.
  std::mt19937_64 Rng(static_cast<uint64_t>(::getpid()) * 0x9E3779B97F4A7C15ull ^
                      static_cast<uint64_t>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()));
  std::deque<std::chrono::steady_clock::time_point> Crashes;
  uint64_t Restarts = 0;

  auto cleanup = [&] {
    if (!Opt.PidFile.empty())
      ::unlink(Opt.PidFile.c_str());
  };

  for (;;) {
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("rapd: fork");
      cleanup();
      return 1;
    }
    if (Pid == 0) {
      // The child's recovery block reports how many restarts preceded it.
      ::setenv("RAPD_RESTARTS", std::to_string(Restarts).c_str(), 1);
      std::vector<char *> Argv;
      Argv.push_back(const_cast<char *>(Exe.c_str()));
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      ::execv(Exe.c_str(), Argv.data());
      std::perror("rapd: execv");
      _exit(127);
    }

    if (!Opt.PidFile.empty())
      writePidFile(Opt.PidFile, Pid);
    std::fprintf(stderr, "rapd[supervisor]: child %d serving (restarts=%llu)\n",
                 static_cast<int>(Pid),
                 static_cast<unsigned long long>(Restarts));

    // Wait, forwarding at most one graceful SIGTERM when the operator stops
    // the supervisor: the child drains (its own --drain-ms applies) and its
    // verdict passes through.
    int Status = 0;
    bool Forwarded = false;
    for (;;) {
      if (StopFlag && !Forwarded) {
        ::kill(Pid, SIGTERM);
        Forwarded = true;
      }
      pid_t R = ::waitpid(Pid, &Status, 0);
      if (R == Pid)
        break;
      if (R < 0 && errno == EINTR)
        continue; // a stop signal landed: forward it above
      if (R < 0) {
        std::perror("rapd: waitpid");
        cleanup();
        return 1;
      }
    }

    bool Signaled = WIFSIGNALED(Status);
    int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : 1;

    if (Forwarded || StopFlag) {
      // Operator-requested stop: the child's drain verdict is the answer.
      cleanup();
      return Signaled ? 1 : Code;
    }
    if (!Signaled && (Code == 0 || Code == 2 || Code == 3)) {
      // Deliberate exits, not crashes: clean EOF/shutdown drain (0), usage
      // error (2 — restarting can only loop), degraded drain (3). Pass
      // them through.
      cleanup();
      return Code;
    }

    // A crash: killed by a signal (SIGKILL, SIGSEGV, ...) or an abnormal
    // exit code. Slide the crash window, check the loop bar, back off.
    auto Now = std::chrono::steady_clock::now();
    Crashes.push_back(Now);
    while (!Crashes.empty() &&
           Now - Crashes.front() > std::chrono::seconds(Opt.CrashWindowS))
      Crashes.pop_front();
    if (Signaled)
      std::fprintf(stderr,
                   "rapd[supervisor]: child %d killed by signal %d "
                   "(crash %zu in %us window)\n",
                   static_cast<int>(Pid), WTERMSIG(Status), Crashes.size(),
                   Opt.CrashWindowS);
    else
      std::fprintf(stderr,
                   "rapd[supervisor]: child %d exited %d "
                   "(crash %zu in %us window)\n",
                   static_cast<int>(Pid), Code, Crashes.size(),
                   Opt.CrashWindowS);
    if (Crashes.size() >= Opt.MaxCrashes) {
      std::fprintf(stderr,
                   "rapd[supervisor]: crash loop (%u crashes within %us); "
                   "exiting degraded\n",
                   Opt.MaxCrashes, Opt.CrashWindowS);
      cleanup();
      return 3;
    }

    // Exponential backoff from the crash density in the window, plus up to
    // 25% jitter, capped. Interruptible: a stop during the backoff exits
    // cleanly instead of spawning a child just to kill it.
    unsigned Shift = std::min<size_t>(Crashes.size() - 1, 16);
    uint64_t Delay = std::min<uint64_t>(
        static_cast<uint64_t>(Opt.BackoffMs) << Shift, Opt.BackoffMaxMs);
    Delay += std::uniform_int_distribution<uint64_t>(0, Delay / 4 + 1)(Rng);
    auto End = Now + std::chrono::milliseconds(Delay);
    while (std::chrono::steady_clock::now() < End && !StopFlag)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (StopFlag) {
      cleanup();
      return 0;
    }
    Restarts += 1;
  }
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  std::string SocketPath;
  std::string StatsMode;
  SuperviseOptions Sup;
  // Args replayed to the supervised child: everything except the
  // supervisor-only flags (a child that re-supervised would fork forever).
  std::vector<std::string> ChildArgs;

  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    bool SupervisorOnly = true;
    if (std::strcmp(Arg, "--supervise") == 0) {
      Sup.Enabled = true;
    } else if (std::strncmp(Arg, "--pidfile=", 10) == 0) {
      Sup.PidFile = Arg + 10;
      if (Sup.PidFile.empty()) {
        std::fprintf(stderr, "rapd: --pidfile needs a path\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--max-crashes=", 14) == 0) {
      if (!parseUnsigned(Arg + 14, Sup.MaxCrashes, 1)) {
        std::fprintf(stderr, "rapd: --max-crashes needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--crash-window-s=", 17) == 0) {
      if (!parseUnsigned(Arg + 17, Sup.CrashWindowS, 1)) {
        std::fprintf(stderr, "rapd: --crash-window-s needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--backoff-ms=", 13) == 0) {
      if (!parseUnsigned(Arg + 13, Sup.BackoffMs, 1)) {
        std::fprintf(stderr, "rapd: --backoff-ms needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--backoff-max-ms=", 17) == 0) {
      if (!parseUnsigned(Arg + 17, Sup.BackoffMaxMs, 1)) {
        std::fprintf(stderr, "rapd: --backoff-max-ms needs a positive count\n");
        return 2;
      }
    } else {
      SupervisorOnly = false;
    }
    if (SupervisorOnly)
      continue;
    ChildArgs.push_back(Arg);

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
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      Config.Service.CacheDir = Arg + 12;
      if (Config.Service.CacheDir.empty()) {
        std::fprintf(stderr, "rapd: --cache-dir needs a path\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--journal-fsync=", 16) == 0) {
      if (!parseFsyncMode(Arg + 16, Config.Service.CacheFsync)) {
        std::fprintf(stderr,
                     "rapd: bad --journal-fsync mode '%s' (expected "
                     "never|batch|always)\n",
                     Arg + 16);
        return 2;
      }
    } else if (std::strncmp(Arg, "--compact-bytes=", 16) == 0) {
      if (!parseUnsigned(Arg + 16, Config.Service.CacheCompactBytes)) {
        std::fprintf(stderr, "rapd: bad --compact-bytes value\n");
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

  if (Sup.Enabled)
    return supervise(selfExePath(argv[0]), ChildArgs, Sup);

  // A supervised child learns its restart ordinal from the environment and
  // reports it through the stats `recovery` block.
  if (const std::optional<std::string> &R = env::get("RAPD_RESTARTS"))
    parseUnsigned(R->c_str(), Config.Service.Restarts);

  installStopHandlers();
  Config.StopFlag = &StopFlag;

  Server S(Config);
  int Code = SocketPath.empty() ? S.serveStdio(std::cin, std::cout)
                                : S.serveSocket(SocketPath);

  // Push pending batch-mode journal writes to the platter before exiting:
  // a clean drain should never rely on the kernel's writeback timing.
  if (CacheStore *Store = S.service().store())
    Store->flush();

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
