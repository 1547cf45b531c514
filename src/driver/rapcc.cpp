//===- driver/rapcc.cpp - Command-line compiler driver ------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapcc: the command-line face of the library. Compiles a MiniC file,
/// optionally allocates registers, and either dumps an artifact or runs
/// the program on the counting interpreter.
///
///   rapcc file.mc [options]      (file.mc may be '-' for stdin)
///     --alloc=none|gra|rap     allocator (default rap)
///     -k N                      physical registers (default 5)
///     --granularity=stmt|merged region granularity (default stmt)
///     --copies=naive|direct     assignment codegen style (default naive)
///     --no-movement --no-peephole --no-cleanup   disable RAP phases
///     --threads=N               allocate functions on N worker threads
///     --verify                  checked mode: independently verify every
///                               register assignment before the rewrite
///     --no-fallback             fail the compile on allocation errors
///                               instead of degrading the function to the
///                               spill-everything fallback
///     --dump=iloc|tree|dot|cfg  print an artifact instead of running
///     --func=NAME               which function to dump (default main)
///     --stats[=text|json]       print allocation statistics: text renders
///                               to stderr, json prints the machine-readable
///                               "rap-stats-v1" document to stdout (and
///                               replaces --run's result lines — the run's
///                               counters land in the document's "exec"
///                               section instead)
///     --trace=FILE              write a Chrome trace-event JSON timeline of
///                               the allocation phases to FILE (open it in
///                               about://tracing or ui.perfetto.dev)
///     --fuel=N                  instruction budget for --run (default
///                               500000000); a program that does not halt
///                               within it traps with "fuel-exhausted"
///     --interp=threaded|switch  execution engine for --run: the pre-decoded
///                               direct-threaded engine (default) or the
///                               reference switch engine (DESIGN.md §11);
///                               when the flag is absent the default follows
///                               the RAP_INTERP environment variable
///     --run (default)           execute main() and print result + counters
///
/// Exit-code map (the crash-free contract: every input lands on exactly one
/// of these, never a signal):
///   0  success
///   1  compile error (diagnostics on stderr) or I/O failure
///   2  usage error (bad flag or missing file argument)
///   3  success, but at least one function degraded to the spill-everything
///      fallback (details on stderr)
///   4  runtime trap: the program compiled but its execution trapped
///      (div-by-zero, out-of-bounds, fuel-exhausted, stack-overflow, ...;
///      the structured trap is printed on stderr)
/// --stats/--trace never change the exit code.
///
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "ir/Linearize.h"
#include "pdg/Dot.h"
#include "support/Stats.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace rap;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: rapcc <file.mc | -> [--alloc=none|gra|rap] [-k N]\n"
      "             [--granularity=stmt|merged] [--copies=naive|direct]\n"
      "             [--no-movement] [--no-peephole] [--no-cleanup]\n"
      "             [--threads=N] [--verify] [--no-fallback]\n"
      "             [--dump=iloc|tree|dot|cfg] [--func=NAME]\n"
      "             [--stats[=text|json]] [--trace=FILE] [--fuel=N]\n"
      "             [--interp=threaded|switch]\n"
      "exit codes: 0 ok, 1 compile error, 2 usage, 3 degraded, 4 runtime "
      "trap\n");
}

bool startsWith(const char *S, const char *Prefix) {
  return std::strncmp(S, Prefix, std::strlen(Prefix)) == 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  std::string Path;
  std::string Dump;
  std::string Func = "main";
  std::string StatsMode; ///< "", "text", or "json"
  std::string TracePath;
  InterpOptions InterpOpts;
  CompileOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  // The CLI favors producing *a* correct program: allocation errors degrade
  // the affected function to the spill-everything fallback (and exit 3)
  // unless --no-fallback asks for a hard failure.
  Opts.Alloc.FallbackOnError = true;

  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (startsWith(Arg, "--alloc=")) {
      Opts.Allocator = allocatorKindFromString(Arg + 8);
      if (Opts.Allocator == AllocatorKind::None &&
          std::strcmp(Arg + 8, "none") != 0) {
        std::fprintf(stderr, "rapcc: unknown allocator '%s'\n", Arg + 8);
        return 2;
      }
    } else if (std::strcmp(Arg, "-k") == 0 && I + 1 < argc) {
      Opts.Alloc.K = static_cast<unsigned>(std::atoi(argv[++I]));
      if (Opts.Alloc.K < 3) {
        std::fprintf(stderr, "rapcc: k must be at least 3\n");
        return 2;
      }
    } else if (startsWith(Arg, "--granularity=")) {
      std::string G = Arg + 14;
      if (G == "stmt")
        Opts.Granularity = RegionGranularity::PerStatement;
      else if (G == "merged")
        Opts.Granularity = RegionGranularity::Merged;
      else {
        std::fprintf(stderr, "rapcc: unknown granularity '%s'\n", G.c_str());
        return 2;
      }
    } else if (startsWith(Arg, "--copies=")) {
      std::string C = Arg + 9;
      if (C == "naive")
        Opts.Copies = CopyStyle::Naive;
      else if (C == "direct")
        Opts.Copies = CopyStyle::Direct;
      else {
        std::fprintf(stderr, "rapcc: unknown copy style '%s'\n", C.c_str());
        return 2;
      }
    } else if (std::strcmp(Arg, "--no-movement") == 0) {
      Opts.Alloc.SpillMovement = false;
    } else if (std::strcmp(Arg, "--no-peephole") == 0) {
      Opts.Alloc.Peephole = false;
    } else if (std::strcmp(Arg, "--no-cleanup") == 0) {
      Opts.Alloc.GlobalCleanup = false;
    } else if (startsWith(Arg, "--threads=")) {
      Opts.Alloc.Threads = static_cast<unsigned>(std::atoi(Arg + 10));
      if (Opts.Alloc.Threads == 0) {
        std::fprintf(stderr, "rapcc: --threads needs a positive count\n");
        return 2;
      }
    } else if (std::strcmp(Arg, "--verify") == 0) {
      Opts.Alloc.VerifyAssignments = true;
    } else if (std::strcmp(Arg, "--no-fallback") == 0) {
      Opts.Alloc.FallbackOnError = false;
    } else if (startsWith(Arg, "--dump=")) {
      Dump = Arg + 7;
    } else if (startsWith(Arg, "--func=")) {
      Func = Arg + 7;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      StatsMode = "text";
    } else if (startsWith(Arg, "--stats=")) {
      StatsMode = Arg + 8;
      if (StatsMode != "text" && StatsMode != "json") {
        std::fprintf(stderr, "rapcc: unknown stats mode '%s'\n",
                     StatsMode.c_str());
        return 2;
      }
    } else if (startsWith(Arg, "--trace=")) {
      TracePath = Arg + 8;
      if (TracePath.empty()) {
        std::fprintf(stderr, "rapcc: --trace needs a file path\n");
        return 2;
      }
    } else if (startsWith(Arg, "--fuel=")) {
      long long Fuel = std::atoll(Arg + 7);
      if (Fuel <= 0) {
        std::fprintf(stderr, "rapcc: --fuel needs a positive budget\n");
        return 2;
      }
      Opts.InterpFuel = static_cast<uint64_t>(Fuel);
    } else if (startsWith(Arg, "--interp=")) {
      const char *Mode = Arg + 9;
      if (std::strcmp(Mode, "threaded") == 0) {
        InterpOpts.Dispatch = DispatchKind::Threaded;
      } else if (std::strcmp(Mode, "switch") == 0) {
        InterpOpts.Dispatch = DispatchKind::Switch;
      } else {
        std::fprintf(stderr, "rapcc: unknown interpreter engine '%s'\n", Mode);
        return 2;
      }
    } else if (std::strcmp(Arg, "--run") == 0) {
      Dump.clear();
    } else if (std::strcmp(Arg, "-") == 0) {
      Path = Arg; // stdin
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "rapcc: unknown option '%s'\n", Arg);
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  // '-' reads the source from stdin — the shared input path with rapd,
  // whose request trace scripts pipe sources instead of writing temp files.
  std::stringstream SS;
  if (Path == "-") {
    SS << std::cin.rdbuf();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "rapcc: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    SS << In.rdbuf();
  }

  // Telemetry costs nothing unless a stats or trace consumer asked for it;
  // attaching the registry turns the allocator's instrumentation on.
  telemetry::Telemetry Telem;
  if (!StatsMode.empty() || !TracePath.empty())
    Opts.Alloc.Telem = &Telem;

  CompileResult CR = compileMiniC(SS.str(), Opts);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s", CR.Errors.c_str());
    return 1;
  }
  // Per-function degradation summary: the program below is still correct,
  // but some function lost its optimized allocation.
  bool Degraded = CR.degraded();
  for (const AllocOutcome &O : CR.AllocOutcomes)
    if (O.degraded())
      std::fprintf(stderr,
                   "rapcc: '%s' degraded to spill-everything fallback: %s\n",
                   O.Function.c_str(), O.Error.c_str());

  ReportMeta Meta;
  Meta.Allocator = Opts.Allocator == AllocatorKind::Rap   ? "rap"
                   : Opts.Allocator == AllocatorKind::Gra ? "gra"
                                                          : "none";
  Meta.K = Opts.Alloc.K;
  Meta.Threads = Opts.Alloc.Threads;

  if (StatsMode == "text")
    std::fprintf(stderr, "%s", statsText(CR, Meta).c_str());

  if (!TracePath.empty()) {
    std::ofstream TraceOut(TracePath);
    if (!TraceOut) {
      std::fprintf(stderr, "rapcc: cannot write trace to '%s'\n",
                   TracePath.c_str());
      return 1;
    }
    Telem.writeChromeTrace(TraceOut);
  }

  if (!Dump.empty()) {
    if (StatsMode == "json")
      std::printf("%s\n", statsJson(CR, Meta).str(2).c_str());
    IlocFunction *F = CR.Prog->findFunction(Func);
    if (!F) {
      std::fprintf(stderr, "rapcc: no function '%s'\n", Func.c_str());
      return 1;
    }
    if (Dump == "iloc") {
      std::printf("%s", F->str().c_str());
    } else if (Dump == "tree") {
      std::printf("%s", regionTreeToText(*F).c_str());
    } else if (Dump == "dot") {
      std::printf("%s", pdgToDot(*F).c_str());
    } else if (Dump == "cfg") {
      LinearCode Code = linearize(*F);
      Cfg G(Code);
      std::printf("%s", G.str().c_str());
    } else {
      std::fprintf(stderr, "rapcc: unknown dump kind '%s'\n", Dump.c_str());
      return 2;
    }
    return Degraded ? 3 : 0;
  }

  Interpreter Interp(*CR.Prog, InterpOpts);
  RunResult R = Interp.run("main", Opts.InterpFuel);
  if (!R.Ok) {
    // Runtime traps get their own exit code (4): the compile succeeded, the
    // *program* faulted. The structured trap names the kind and location.
    std::fprintf(stderr, "rapcc: runtime trap: %s\n",
                 R.TrapInfo.Kind != TrapKind::None ? R.TrapInfo.str().c_str()
                                                   : R.Error.c_str());
    return 4;
  }
  if (StatsMode == "json") {
    // The machine-readable path: one JSON document on stdout, with the
    // run's dynamic counters embedded instead of the result lines.
    json::Value Doc = statsJson(CR, Meta);
    json::Object Exec;
    Exec["result"] = R.ReturnValue.str();
    Exec["cycles"] = R.Stats.Cycles;
    Exec["loads"] = R.Stats.Loads;
    Exec["spill_loads"] = R.Stats.SpillLoads;
    Exec["stores"] = R.Stats.Stores;
    Exec["spill_stores"] = R.Stats.SpillStores;
    Exec["copies"] = R.Stats.Copies;
    Exec["calls"] = R.Stats.Calls;
    Doc.asObject()["exec"] = json::Value(std::move(Exec));
    std::printf("%s\n", Doc.str(2).c_str());
    return Degraded ? 3 : 0;
  }
  std::printf("result: %s\n", R.ReturnValue.str().c_str());
  std::printf("cycles: %llu  loads: %llu (spill %llu)  stores: %llu "
              "(spill %llu)  copies: %llu  calls: %llu\n",
              static_cast<unsigned long long>(R.Stats.Cycles),
              static_cast<unsigned long long>(R.Stats.Loads),
              static_cast<unsigned long long>(R.Stats.SpillLoads),
              static_cast<unsigned long long>(R.Stats.Stores),
              static_cast<unsigned long long>(R.Stats.SpillStores),
              static_cast<unsigned long long>(R.Stats.Copies),
              static_cast<unsigned long long>(R.Stats.Calls));
  return Degraded ? 3 : 0;
}
