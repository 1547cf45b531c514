//===- bench/server_recovery.cpp - rapd kill -9 recovery soak ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The durable-crash-recovery acceptance soak (DESIGN.md §15). Spawns the
// *real* rapd binary under its own supervisor (`rapd --supervise`) on a
// Unix-domain socket with a persistent cache directory, then:
//
//   1. cold-compiles N distinct sources through the retrying Client,
//      recording each response's output_hash;
//   2. SIGKILLs the serving child (pid from the supervisor's pidfile)
//      several times, firing a burst of compile requests straight into each
//      crash window — the Client must reconnect-and-resend across the
//      supervised restart;
//   3. re-compiles every source and checks warm-hit retention.
//
// Gates (FATAL + exit 1, artifacts left on disk for upload):
//
//   * exactly once: every call() returned exactly one response
//     (Client Requests == Responses, no failed calls);
//   * bit-identity: every post-crash response's output_hash equals the
//     pre-crash cold compile of the same source — during the kill bursts
//     and in the final sweep;
//   * durability: >= 80% of the pre-crash sources answer fully warm
//     (zero misses) after recovery — the journal survived kill -9;
//   * recovery telemetry: the stats op's recovery block reports replayed
//     journal frames and a restart count covering every kill;
//   * clean shutdown: a shutdown op drains the child and the supervisor
//     exits 0, pidfile removed.
//
// Output: human summary (default) or --json in the rap-bench-v1 envelope
// (bench = "server-recovery"); scripts/server_recovery_smoke.sh writes it
// to <build-dir>/bench-artifacts/server_recovery.json.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "support/CmdLine.h"
#include "support/Json.h"

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

namespace {

namespace fs = std::filesystem;

/// Crashes the supervisor tolerates beyond the planned kills, so only a
/// crash loop (not the soak itself) trips its bar.
constexpr unsigned CrashHeadroom = 5;

struct RecoveryFlags {
  bool Json = false;
  bool Keep = false;
  std::string Rapd;    ///< path to the rapd binary (required)
  std::string Dir;     ///< working dir (default under temp)
  unsigned Sources = 16;
  unsigned Kills = 3;
  unsigned Burst = 6;  ///< requests fired into each crash window
  bool Ok = true;
  std::string Error;
};

// Globals for fatal(): tear the supervisor down and point at the artifacts.
pid_t SupervisorPid = -1;
std::string ArtifactDir;
std::string PidFilePath;

void fatal(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "FATAL: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
  if (SupervisorPid > 0) {
    // Kill the child first (the supervisor would just restart it), then the
    // supervisor itself, so the soak never leaks serving processes.
    if (FILE *F = std::fopen(PidFilePath.c_str(), "r")) {
      int Child = 0;
      if (std::fscanf(F, "%d", &Child) == 1 && Child > 1)
        ::kill(Child, SIGKILL);
      std::fclose(F);
    }
    ::kill(SupervisorPid, SIGKILL);
    int Status = 0;
    ::waitpid(SupervisorPid, &Status, 0);
  }
  if (!ArtifactDir.empty())
    std::fprintf(stderr, "artifacts left in %s (journal, supervisor log)\n",
                 ArtifactDir.c_str());
  std::exit(1);
}

/// One moderately pressure-heavy module per source index: distinct
/// constants give distinct fingerprints, shared shape keeps compiles fast.
std::string sourceFor(unsigned Index) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "int job(int n) {\n"
                "  int a = n + %u;\n"
                "  int b = a * 3 + %u;\n"
                "  int c = a - b + 11;\n"
                "  int d = a * b %% 9973;\n"
                "  int e = c + d;\n"
                "  for (int i = 0; i < n; i = i + 1) {\n"
                "    int t = a * i + b;\n"
                "    if (t %% 2 == 0) { a = a + c * i - d; b = b + e; }\n"
                "    else { d = d + t; e = e + a %% 3671; }\n"
                "    c = c + (a + b) %% 2753;\n"
                "  }\n"
                "  return a + b + c + d + e;\n"
                "}\n"
                "int main() { return job(%u); }\n",
                Index * 7 + 1, Index * 13 + 5, Index % 9 + 3);
  return Buf;
}

std::string compileLine(int64_t Id, const std::string &Source) {
  return "{\"op\":\"compile\",\"id\":" + std::to_string(Id) +
         ",\"source\":" + json::Value(Source).str() +
         ",\"options\":{\"alloc\":\"rap\",\"k\":3}}";
}

/// Spawns `rapd --supervise` with stderr into the artifact log. Returns the
/// supervisor pid.
pid_t spawnSupervisor(const RecoveryFlags &Flags, const std::string &Socket,
                      const std::string &CacheDir, const std::string &PidFile,
                      const std::string &Log) {
  pid_t Pid = ::fork();
  if (Pid < 0)
    fatal("fork: %s", std::strerror(errno));
  if (Pid != 0)
    return Pid;
  int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (LogFd >= 0) {
    ::dup2(LogFd, 2);
    ::close(LogFd);
  }
  std::string MaxCrashes =
      "--max-crashes=" + std::to_string(Flags.Kills + CrashHeadroom);
  std::vector<std::string> Args = {
      Flags.Rapd,
      "--supervise",
      "--pidfile=" + PidFile,
      "--socket=" + Socket,
      "--cache-dir=" + CacheDir,
      "--shards=2",
      "--backoff-ms=20",
      "--backoff-max-ms=200",
      MaxCrashes,
      "--no-hello",
  };
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  ::execv(Flags.Rapd.c_str(), Argv.data());
  std::fprintf(stderr, "server_recovery: execv %s: %s\n", Flags.Rapd.c_str(),
               std::strerror(errno));
  _exit(127);
}

/// The serving child's pid, from the supervisor's pidfile; retries while
/// the supervisor is between restarts. -1 after the deadline.
int readChildPid(const std::string &PidFile, int DeadlineMs) {
  for (int Waited = 0; Waited <= DeadlineMs; Waited += 20) {
    if (FILE *F = std::fopen(PidFile.c_str(), "r")) {
      int Pid = 0;
      int Got = std::fscanf(F, "%d", &Pid);
      std::fclose(F);
      if (Got == 1 && Pid > 1 && ::kill(Pid, 0) == 0)
        return Pid;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

json::Value mustCall(Client &C, const std::string &Line) {
  json::Value Response;
  std::string Error;
  if (!C.call(Line, Response, Error))
    fatal("client call failed: %s", Error.c_str());
  return Response;
}

json::Value mustCompile(Client &C, int64_t Id, const std::string &Source) {
  json::Value R = mustCall(C, compileLine(Id, Source));
  if (!R["ok"].isBool() || !R["ok"].asBool())
    fatal("compile %lld answered not-ok: %s", static_cast<long long>(Id),
          R.str().c_str());
  if (!R["output_hash"].isString())
    fatal("compile %lld response lacks output_hash", static_cast<long long>(Id));
  return R;
}

RecoveryFlags parseRecoveryFlags(int argc, char **argv) {
  RecoveryFlags F;
  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    bool ValueOk = true; // counts are positive
    if (std::strcmp(Arg, "--json") == 0) {
      F.Json = true;
    } else if (std::strcmp(Arg, "--keep") == 0) {
      F.Keep = true;
    } else if (std::strncmp(Arg, "--rapd=", 7) == 0) {
      F.Rapd = Arg + 7;
    } else if (std::strncmp(Arg, "--dir=", 6) == 0) {
      F.Dir = Arg + 6;
    } else if (std::strncmp(Arg, "--sources=", 10) == 0) {
      ValueOk = parseUnsigned(Arg + 10, F.Sources, 1);
    } else if (std::strncmp(Arg, "--kills=", 8) == 0) {
      // Bounded so Kills + CrashHeadroom cannot wrap.
      ValueOk = parseUnsigned(Arg + 8, F.Kills, 1,
                              std::numeric_limits<unsigned>::max() -
                                  CrashHeadroom);
    } else if (std::strncmp(Arg, "--burst=", 8) == 0) {
      ValueOk = parseUnsigned(Arg + 8, F.Burst, 1);
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
  if (F.Ok && F.Rapd.empty()) {
    F.Ok = false;
    F.Error = "--rapd=PATH is required";
  }
  return F;
}

} // namespace

int main(int argc, char **argv) {
  RecoveryFlags Flags = parseRecoveryFlags(argc, argv);
  if (!Flags.Ok) {
    std::fprintf(stderr, "server_recovery: %s\n", Flags.Error.c_str());
    std::fprintf(stderr,
                 "usage: server_recovery --rapd=PATH [--json] [--keep] "
                 "[--dir=PATH] [--sources=N] [--kills=N] [--burst=N]\n");
    return 2;
  }

  fs::path Dir = Flags.Dir.empty()
                     ? fs::temp_directory_path() /
                           ("rap_recovery_" + std::to_string(::getpid()))
                     : fs::path(Flags.Dir);
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  if (EC)
    fatal("cannot create %s: %s", Dir.c_str(), EC.message().c_str());
  ArtifactDir = Dir.string();

  std::string Socket = (Dir / "rapd.sock").string();
  std::string CacheDir = (Dir / "cache").string();
  PidFilePath = (Dir / "rapd.pid").string();
  std::string Log = (Dir / "supervisor.log").string();

  SupervisorPid =
      spawnSupervisor(Flags, Socket, CacheDir, PidFilePath, Log);

  ClientConfig CC;
  CC.SocketPath = Socket;
  CC.RequestTimeoutMs = 60000;
  CC.MaxRetries = 200;
  Client C(CC);

  // Wait for the first child to serve.
  json::Value Pong = mustCall(C, "{\"op\":\"ping\",\"id\":1}");
  if (!Pong["ok"].asBool())
    fatal("initial ping failed: %s", Pong.str().c_str());

  //--- 1. Pre-crash cold compiles: record the ground-truth hashes. ---------
  int64_t NextId = 100;
  std::map<unsigned, std::string> ColdHash;
  for (unsigned I = 0; I != Flags.Sources; ++I) {
    json::Value R = mustCompile(C, NextId++, sourceFor(I));
    ColdHash[I] = R["output_hash"].asString();
  }

  //--- 2. Kill -9 soak: crash the child, fire a burst into the window. -----
  uint64_t HashChecksInBursts = 0;
  for (unsigned K = 0; K != Flags.Kills; ++K) {
    int Child = readChildPid(PidFilePath, 10000);
    if (Child < 0)
      fatal("kill %u: no live child pid in %s", K, PidFilePath.c_str());
    if (::kill(Child, SIGKILL) != 0)
      fatal("kill %u: SIGKILL %d: %s", K, Child, std::strerror(errno));
    for (unsigned B = 0; B != Flags.Burst; ++B) {
      unsigned Src = (K * Flags.Burst + B) % Flags.Sources;
      json::Value R = mustCompile(C, NextId++, sourceFor(Src));
      if (R["output_hash"].asString() != ColdHash[Src])
        fatal("kill %u burst %u: source %u hash diverged across restart "
              "(%s != %s)",
              K, B, Src, R["output_hash"].asString().c_str(),
              ColdHash[Src].c_str());
      HashChecksInBursts += 1;
    }
  }

  //--- 3. Warm-retention sweep: the journal survived every kill. -----------
  unsigned FullWarm = 0;
  for (unsigned I = 0; I != Flags.Sources; ++I) {
    json::Value R = mustCompile(C, NextId++, sourceFor(I));
    if (R["output_hash"].asString() != ColdHash[I])
      fatal("post-recovery sweep: source %u hash diverged", I);
    bool Warm = R["cache_misses"].isInt() && R["cache_misses"].asInt() == 0 &&
                R["cache_hits"].isInt() && R["cache_hits"].asInt() > 0;
    FullWarm += Warm;
  }
  double Retention =
      100.0 * static_cast<double>(FullWarm) / Flags.Sources;
  if (Retention < 80.0)
    fatal("warm retention %.1f%% below the 80%% bar (%u/%u fully warm)",
          Retention, FullWarm, Flags.Sources);

  //--- 4. Recovery telemetry sanity. ---------------------------------------
  json::Value Stats = mustCall(
      C, "{\"op\":\"stats\",\"id\":" + std::to_string(NextId++) + "}");
  const json::Value &Rec = Stats["stats"]["recovery"];
  if (!Rec.isObject())
    fatal("stats response lacks the recovery block: %s", Stats.str().c_str());
  uint64_t Replayed =
      static_cast<uint64_t>(Rec["journal_frames_replayed"].asInt());
  uint64_t Restarts = static_cast<uint64_t>(Rec["restarts"].asInt());
  if (Replayed == 0)
    fatal("recovery block reports zero journal frames replayed after %u "
          "kills",
          Flags.Kills);
  if (Restarts < Flags.Kills)
    fatal("recovery block reports %llu restarts, expected >= %u",
          static_cast<unsigned long long>(Restarts), Flags.Kills);

  //--- 5. Clean shutdown: drain passes through the supervisor as exit 0. ---
  json::Value Bye = mustCall(
      C, "{\"op\":\"shutdown\",\"id\":" + std::to_string(NextId++) + "}");
  if (!Bye["ok"].asBool())
    fatal("shutdown answered not-ok: %s", Bye.str().c_str());
  int Status = 0;
  if (::waitpid(SupervisorPid, &Status, 0) != SupervisorPid)
    fatal("waitpid(supervisor): %s", std::strerror(errno));
  SupervisorPid = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    fatal("supervisor exited %d (signaled=%d), want clean 0",
          WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, WIFSIGNALED(Status));

  //--- 6. Exactly-once accounting. -----------------------------------------
  const ClientCounters &CN = C.counters();
  if (CN.Responses != CN.Requests)
    fatal("exactly-once violated: %llu requests, %llu responses",
          static_cast<unsigned long long>(CN.Requests),
          static_cast<unsigned long long>(CN.Responses));

  if (Flags.Json) {
    json::Object Row;
    Row["sources"] = Flags.Sources;
    Row["kills"] = Flags.Kills;
    Row["burst"] = Flags.Burst;
    Row["requests"] = CN.Requests;
    Row["responses"] = CN.Responses;
    Row["resends"] = CN.Resends;
    Row["reconnects"] = CN.Reconnects;
    Row["overloaded_waits"] = CN.OverloadedWaits;
    Row["burst_hash_checks"] = HashChecksInBursts;
    Row["hash_mismatches"] = static_cast<uint64_t>(0);
    Row["warm_retained"] = FullWarm;
    Row["warm_retention_pct"] = Retention;
    Row["journal_frames_replayed"] = Replayed;
    Row["restarts"] = Restarts;
    json::Array Rows;
    Rows.push_back(json::Value(std::move(Row)));
    json::Object Root;
    Root["schema"] = "rap-bench-v1";
    Root["bench"] = "server-recovery";
    Root["rows"] = json::Value(std::move(Rows));
    std::printf("%s\n", json::Value(std::move(Root)).str().c_str());
  } else {
    std::printf("server recovery soak: %u sources, %u kill -9s, burst %u\n",
                Flags.Sources, Flags.Kills, Flags.Burst);
    std::printf("  exactly-once: %llu requests -> %llu responses "
                "(%llu resends, %llu reconnects)\n",
                static_cast<unsigned long long>(CN.Requests),
                static_cast<unsigned long long>(CN.Responses),
                static_cast<unsigned long long>(CN.Resends),
                static_cast<unsigned long long>(CN.Reconnects));
    std::printf("  bit-identity: %llu in-burst + %u sweep responses matched "
                "pre-crash hashes\n",
                static_cast<unsigned long long>(HashChecksInBursts),
                Flags.Sources);
    std::printf("  durability: %u/%u sources fully warm after recovery "
                "(%.1f%%, bar 80%%); %llu frames replayed, %llu restarts\n",
                FullWarm, Flags.Sources, Retention,
                static_cast<unsigned long long>(Replayed),
                static_cast<unsigned long long>(Restarts));
    std::printf("  clean SIGTERM-free shutdown: supervisor exit 0\n");
  }

  if (!Flags.Keep)
    fs::remove_all(Dir, EC);
  return 0;
}
