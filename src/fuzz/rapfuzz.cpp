//===- fuzz/rapfuzz.cpp - Mutation-fuzzing driver ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rapfuzz: drives the crash-free compilation contract over generated and
/// mutated MiniC inputs. For each seed in --seeds, the RandomProgramBuilder
/// emits a well-formed base program; rapfuzz runs it and --mutations mutants
/// of it (byte-, token-, and AST-level) through runContract. Failing inputs
/// are delta-debugged down to minimal repros and written as self-contained
/// artifacts to --out.
///
///   rapfuzz [options]
///     --seeds=LO:HI       generator seed range, HI exclusive (default 0:100)
///     --mutations=N       mutants per seed (default 7; 0 = bases only)
///     --level=byte|token|ast|mix   mutation level (default mix: cycle all)
///     --out=DIR           repro artifact directory (default FUZZ_repros)
///     --fuel=N            reference interpreter budget (default 2000000)
///     --max-seconds=S     stop the sweep after S seconds (0 = no limit)
///     --fault=SPEC        fault drill: inject SPEC (RAP_FAULT_INJECT
///                         syntax) with fallback disabled, so every input
///                         fails allocation and must reduce cleanly
///     --replay=FILE       run one file through the contract and exit
///     --no-reduce         report failures without minimizing them
///     -q                  only print the summary and failures
///
/// Exit codes: 0 sweep clean (no failing outcome), 1 at least one failure
/// (repros written unless --no-reduce), 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"
#include "fuzz/RandomProgram.h"
#include "fuzz/Reducer.h"
#include "fuzz/Runner.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace rap;
using namespace rap::fuzz;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: rapfuzz [--seeds=LO:HI] [--mutations=N]\n"
      "               [--level=byte|token|ast|mix] [--out=DIR] [--fuel=N]\n"
      "               [--max-seconds=S] [--fault=SPEC] [--replay=FILE]\n"
      "               [--no-reduce] [-q]\n"
      "exit codes: 0 clean sweep, 1 failures found, 2 usage error\n");
}

bool startsWith(const char *S, const char *Prefix) {
  return std::strncmp(S, Prefix, std::strlen(Prefix)) == 0;
}

struct Tally {
  unsigned Inputs = 0;
  unsigned CleanRun = 0;
  unsigned CleanTrap = 0;
  unsigned CleanCompileError = 0;
  unsigned Degraded = 0;
  unsigned Failures = 0;
  unsigned Repros = 0;

  void count(const FuzzReport &R) {
    ++Inputs;
    switch (R.Outcome) {
    case FuzzOutcome::CleanRun:
      ++CleanRun;
      break;
    case FuzzOutcome::CleanTrap:
      ++CleanTrap;
      break;
    case FuzzOutcome::CleanCompileError:
      ++CleanCompileError;
      break;
    case FuzzOutcome::Degraded:
      ++Degraded;
      break;
    default:
      ++Failures;
      break;
    }
  }
};

} // namespace

int main(int argc, char **argv) {
  unsigned SeedLo = 0, SeedHi = 100;
  unsigned Mutations = 7;
  std::string Level = "mix";
  std::string OutDir = "FUZZ_repros";
  std::string ReplayPath;
  double MaxSeconds = 0;
  bool Reduce = true;
  bool Quiet = false;
  FuzzLimits Limits;

  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (startsWith(Arg, "--seeds=")) {
      if (std::sscanf(Arg + 8, "%u:%u", &SeedLo, &SeedHi) != 2 ||
          SeedHi <= SeedLo) {
        std::fprintf(stderr, "rapfuzz: bad --seeds range '%s'\n", Arg + 8);
        return 2;
      }
    } else if (startsWith(Arg, "--mutations=")) {
      Mutations = static_cast<unsigned>(std::atoi(Arg + 12));
    } else if (startsWith(Arg, "--level=")) {
      Level = Arg + 8;
      if (Level != "byte" && Level != "token" && Level != "ast" &&
          Level != "mix") {
        std::fprintf(stderr, "rapfuzz: unknown level '%s'\n", Level.c_str());
        return 2;
      }
    } else if (startsWith(Arg, "--out=")) {
      OutDir = Arg + 6;
    } else if (startsWith(Arg, "--fuel=")) {
      long long F = std::atoll(Arg + 7);
      if (F <= 0) {
        std::fprintf(stderr, "rapfuzz: --fuel needs a positive budget\n");
        return 2;
      }
      Limits.Fuel = static_cast<uint64_t>(F);
    } else if (startsWith(Arg, "--max-seconds=")) {
      MaxSeconds = std::atof(Arg + 14);
    } else if (startsWith(Arg, "--fault=")) {
      try {
        Limits.Faults = FaultPlan::fromString(Arg + 8);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "rapfuzz: bad --fault spec: %s\n", E.what());
        return 2;
      }
    } else if (startsWith(Arg, "--replay=")) {
      ReplayPath = Arg + 9;
    } else if (std::strcmp(Arg, "--no-reduce") == 0) {
      Reduce = false;
    } else if (std::strcmp(Arg, "-q") == 0) {
      Quiet = true;
    } else {
      std::fprintf(stderr, "rapfuzz: unknown option '%s'\n", Arg);
      usage();
      return 2;
    }
  }

  if (!ReplayPath.empty()) {
    std::ifstream In(ReplayPath);
    if (!In) {
      std::fprintf(stderr, "rapfuzz: cannot open '%s'\n", ReplayPath.c_str());
      return 2;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    FuzzReport R = runContract(SS.str(), Limits);
    std::printf("outcome: %s\n", fuzzOutcomeName(R.Outcome));
    if (!R.Signature.empty())
      std::printf("signature: %s\ndetail: %s\n", R.Signature.c_str(),
                  R.Detail.c_str());
    return R.failing() ? 1 : 0;
  }

  auto StartTime = std::chrono::steady_clock::now();
  auto outOfTime = [&] {
    if (MaxSeconds <= 0)
      return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         StartTime)
               .count() >= MaxSeconds;
  };

  Tally T;
  bool Stopped = false;

  auto handleInput = [&](const std::string &Source, unsigned Seed,
                         int Mutant, const char *LevelName) {
    FuzzReport R = runContract(Source, Limits);
    T.count(R);
    if (!R.failing()) {
      if (!Quiet && R.Outcome == FuzzOutcome::Degraded)
        std::printf("DEGRADED seed=%u mutant=%d %s\n", Seed, Mutant,
                    R.Detail.c_str());
      return;
    }
    std::printf("FAIL seed=%u mutant=%d level=%s sig=%s\n", Seed, Mutant,
                LevelName, R.Signature.c_str());

    std::string Final = Source;
    if (Reduce) {
      std::string WantSig = R.Signature;
      ReduceResult RR = reduceSource(
          Source,
          [&](const std::string &Candidate) {
            return runContract(Candidate, Limits).Signature == WantSig;
          });
      Final = RR.Reduced;
      std::printf("  reduced %zu -> %zu bytes (%.0f%%) in %zu predicate "
                  "calls%s\n",
                  Source.size(), Final.size(),
                  Source.empty() ? 0.0
                                 : 100.0 * static_cast<double>(Final.size()) /
                                       static_cast<double>(Source.size()),
                  RR.PredicateCalls,
                  RR.BudgetExhausted ? " (budget exhausted)" : "");
    }
    std::string Name = "repro-seed" + std::to_string(Seed) + "-m" +
                       std::to_string(Mutant) + "-" +
                       std::to_string(T.Failures);
    std::string Path = writeRepro(OutDir, Name, Final, R, Limits);
    if (Path.empty()) {
      std::fprintf(stderr, "rapfuzz: cannot write repro to '%s'\n",
                   OutDir.c_str());
    } else {
      ++T.Repros;
      std::printf("  repro: %s\n", Path.c_str());
    }
  };

  static const MutationLevel Cycle[] = {MutationLevel::Byte,
                                        MutationLevel::Token,
                                        MutationLevel::Ast};
  for (unsigned Seed = SeedLo; Seed != SeedHi && !Stopped; ++Seed) {
    std::string Base = RandomProgramBuilder(Seed).build();
    handleInput(Base, Seed, -1, "none");
    for (unsigned M = 0; M != Mutations; ++M) {
      if (outOfTime()) {
        Stopped = true;
        break;
      }
      MutationLevel L = Level == "byte"    ? MutationLevel::Byte
                        : Level == "token" ? MutationLevel::Token
                        : Level == "ast"   ? MutationLevel::Ast
                                           : Cycle[M % 3];
      // Mutation seed mixes the generator seed and mutant index so every
      // (seed, mutant) pair is an independent, replayable input.
      uint32_t MutSeed = Seed * 2654435761u + M * 40503u + 1;
      std::string Mutant = mutate(Base, L, MutSeed);
      handleInput(Mutant, Seed, static_cast<int>(M), mutationLevelName(L));
    }
    if (outOfTime())
      Stopped = true;
  }

  std::printf("rapfuzz: seeds=%u:%u inputs=%u clean-run=%u clean-trap=%u "
              "compile-error=%u degraded=%u failures=%u repros=%u%s\n",
              SeedLo, SeedHi, T.Inputs, T.CleanRun, T.CleanTrap,
              T.CleanCompileError, T.Degraded, T.Failures, T.Repros,
              Stopped ? " (time-boxed)" : "");
  return T.Failures ? 1 : 0;
}
