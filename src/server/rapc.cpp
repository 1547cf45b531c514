//===- server/rapc.cpp - rapd operator client -------------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapc: the command-line face of the retrying Client (DESIGN.md §12).
/// Talks rapd-v1 over a Unix-domain socket; a request whose connection
/// breaks is resent within the retry and time budgets, so every request
/// gets exactly one answer or rapc exits 1.
///
///   rapc --socket=PATH [options] <op>
///     ops:
///       ping                  liveness probe
///       stats                 print the server counter document
///       shutdown              ask the server to drain and stop
///       compile FILE...       compile each MiniC file (one request each)
///       pipe                  read NDJSON request lines from stdin, print
///                             one response line each (a retrying netcat)
///     options:
///       --timeout-ms=N        per-request total budget (default 30000;
///                             0 = unbounded)
///       --connect-timeout-ms=N  per-connect budget (default 1000)
///       --retries=N           resend budget per request (default 50)
///       --run                 compile: execute main() and report counters
///       --dump                compile: include allocated ILOC text
///       --deadline-ms=N       compile: server-side deadline_ms (at most
///                             MaxDeadlineMs, one day; 0 = none)
///
/// Exit codes: 0 every response said ok:true, 1 transport failure or any
/// ok:false response, 2 usage error. Responses go to stdout (one line
/// each); transport diagnostics go to stderr.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "support/CmdLine.h"
#include "support/Deadline.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: rapc --socket=PATH [--timeout-ms=N] [--connect-timeout-ms=N]\n"
      "            [--retries=N] [--run] [--dump] [--deadline-ms=N]\n"
      "            ping | stats | shutdown | compile FILE... | pipe\n"
      "exit codes: 0 all ok, 1 transport failure or ok:false, 2 usage\n");
}

/// One call; prints the response line (or the transport error) and reports
/// whether the response said ok:true.
bool callAndPrint(Client &C, const std::string &Line, bool &Ok) {
  json::Value Response;
  std::string Error;
  if (!C.call(Line, Response, Error)) {
    std::fprintf(stderr, "rapc: %s\n", Error.c_str());
    return false;
  }
  std::printf("%s\n", Response.str().c_str());
  std::fflush(stdout);
  // A batch answers with an array: ok means every element is ok.
  Ok = true;
  if (Response.isArray()) {
    for (const json::Value &V : Response.asArray())
      Ok = Ok && V["ok"].isBool() && V["ok"].asBool();
  } else {
    Ok = Response["ok"].isBool() && Response["ok"].asBool();
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ClientConfig Config;
  bool Run = false, Dump = false;
  uint64_t DeadlineMs = 0;
  std::string Op;
  std::vector<std::string> Files;

  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--socket=", 9) == 0) {
      Config.SocketPath = Arg + 9;
    } else if (std::strncmp(Arg, "--timeout-ms=", 13) == 0) {
      if (!parseUnsigned(Arg + 13, Config.RequestTimeoutMs)) {
        std::fprintf(stderr, "rapc: bad --timeout-ms value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--connect-timeout-ms=", 21) == 0) {
      if (!parseUnsigned(Arg + 21, Config.ConnectTimeoutMs, 1)) {
        std::fprintf(stderr, "rapc: bad --connect-timeout-ms value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--retries=", 10) == 0) {
      if (!parseUnsigned(Arg + 10, Config.MaxRetries)) {
        std::fprintf(stderr, "rapc: bad --retries value\n");
        return 2;
      }
    } else if (std::strcmp(Arg, "--run") == 0) {
      Run = true;
    } else if (std::strcmp(Arg, "--dump") == 0) {
      Dump = true;
    } else if (std::strncmp(Arg, "--deadline-ms=", 14) == 0) {
      if (!parseUnsigned(Arg + 14, DeadlineMs, 0, MaxDeadlineMs)) {
        std::fprintf(stderr, "rapc: bad --deadline-ms value\n");
        return 2;
      }
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "rapc: unknown option '%s'\n", Arg);
      usage();
      return 2;
    } else if (Op.empty()) {
      Op = Arg;
    } else {
      Files.push_back(Arg);
    }
  }

  if (Config.SocketPath.empty() || Op.empty()) {
    usage();
    return 2;
  }

  Client C(Config);
  bool AllOk = true;
  int64_t NextId = 1;

  auto simpleOp = [&](const char *Name) -> int {
    json::Object Req;
    Req["op"] = Name;
    Req["id"] = NextId++;
    bool Ok = false;
    if (!callAndPrint(C, json::Value(std::move(Req)).str(), Ok))
      return 1;
    return Ok ? 0 : 1;
  };

  if (Op == "ping")
    return simpleOp("ping");
  if (Op == "stats")
    return simpleOp("stats");
  if (Op == "shutdown")
    return simpleOp("shutdown");

  if (Op == "compile") {
    if (Files.empty()) {
      std::fprintf(stderr, "rapc: compile needs at least one file\n");
      return 2;
    }
    for (const std::string &Path : Files) {
      std::ifstream In(Path, std::ios::binary);
      if (!In) {
        std::fprintf(stderr, "rapc: cannot read '%s'\n", Path.c_str());
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();

      json::Object Options;
      if (Run)
        Options["run"] = true;
      if (DeadlineMs != 0)
        Options["deadline_ms"] = DeadlineMs;
      json::Object Req;
      Req["op"] = "compile";
      Req["id"] = NextId++;
      Req["source"] = SS.str();
      if (Dump)
        Req["dump"] = true;
      if (!Options.empty())
        Req["options"] = json::Value(std::move(Options));

      bool Ok = false;
      if (!callAndPrint(C, json::Value(std::move(Req)).str(), Ok))
        return 1;
      AllOk = AllOk && Ok;
    }
    return AllOk ? 0 : 1;
  }

  if (Op == "pipe") {
    std::string Line;
    while (std::getline(std::cin, Line)) {
      if (Line.empty())
        continue;
      bool Ok = false;
      if (!callAndPrint(C, Line, Ok))
        return 1;
      AllOk = AllOk && Ok;
    }
    return AllOk ? 0 : 1;
  }

  std::fprintf(stderr, "rapc: unknown op '%s'\n", Op.c_str());
  usage();
  return 2;
}
