//===- tests/interp_differential_test.cpp - Threaded vs switch engines ----===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the two interpreter engines (DESIGN.md §11): over
/// the fuzz corpus — generator seeds plus AST-level mutants of them — the
/// pre-decoded threaded engine must be observationally identical to the
/// reference switch engine. "Observationally identical" is the full
/// RunResult: success flag, error text, every trap field, return value, all
/// eight ExecStats counters, and global memory afterwards. Fuel is swept
/// across values that land inside basic-block stretches and fused
/// superinstructions, where the threaded engine's bulk cycle charging and
/// mid-flight bail-out to the switch engine have to reproduce
/// per-instruction accounting exactly.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"
#include "fuzz/RandomProgram.h"

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"

#include "gtest/gtest.h"

#include <memory>
#include <string>
#include <vector>

using namespace rap;

namespace {

void expectSameRun(const RunResult &S, const RunResult &T,
                   const std::string &What) {
  EXPECT_EQ(S.Ok, T.Ok) << What;
  EXPECT_EQ(S.Error, T.Error) << What;
  EXPECT_EQ(S.TrapInfo.Kind, T.TrapInfo.Kind) << What;
  EXPECT_EQ(S.TrapInfo.PC, T.TrapInfo.PC) << What;
  EXPECT_EQ(S.TrapInfo.Function, T.TrapInfo.Function) << What;
  EXPECT_EQ(S.TrapInfo.Detail, T.TrapInfo.Detail) << What;
  EXPECT_EQ(S.ReturnValue, T.ReturnValue) << What;
  EXPECT_EQ(S.Stats.Cycles, T.Stats.Cycles) << What;
  EXPECT_EQ(S.Stats.Loads, T.Stats.Loads) << What;
  EXPECT_EQ(S.Stats.Stores, T.Stats.Stores) << What;
  EXPECT_EQ(S.Stats.SpillLoads, T.Stats.SpillLoads) << What;
  EXPECT_EQ(S.Stats.SpillStores, T.Stats.SpillStores) << What;
  EXPECT_EQ(S.Stats.Copies, T.Stats.Copies) << What;
  EXPECT_EQ(S.Stats.Calls, T.Stats.Calls) << What;
  EXPECT_EQ(S.Stats.MaxCallDepth, T.Stats.MaxCallDepth) << What;
}

/// Runs both engines over one compiled program at an unlimited budget plus
/// a sweep of fuel values chosen to land inside stretches, and compares the
/// complete observable behavior including post-run global memory.
void diffProgram(const IlocProgram &Prog, const std::string &What) {
  InterpOptions SwOpts, ThOpts;
  SwOpts.Dispatch = DispatchKind::Switch;
  ThOpts.Dispatch = DispatchKind::Threaded;
  Interpreter Sw(Prog, SwOpts);
  Interpreter Th(Prog, ThOpts);

  const uint64_t Budget = 2'000'000; // generous; traps compare equal too
  RunResult S = Sw.run("main", Budget);
  RunResult T = Th.run("main", Budget);
  expectSameRun(S, T, What + " (full)");
  EXPECT_EQ(Sw.globalMemory().size(), Th.globalMemory().size()) << What;
  for (size_t I = 0; I != Sw.globalMemory().size(); ++I)
    EXPECT_EQ(Sw.globalMemory()[I], Th.globalMemory()[I])
        << What << " global cell " << I;

  // Fuel sweep: absolute low values walk budget expiry through the entry
  // block's first stretches; values pinned just around the run's true cost
  // walk it through the last ones. Mid-run values land wherever the program
  // spends its time. Every value must stop at the identical instruction
  // with identical partial counters.
  const uint64_t Full = S.Stats.Cycles;
  std::vector<uint64_t> Fuels = {1, 2, 3, 5, 9, 17};
  for (uint64_t F : {Full / 7, Full / 3, Full / 2, (Full * 3) / 4})
    Fuels.push_back(F);
  for (uint64_t D = 0; D != 4 && D < Full; ++D)
    Fuels.push_back(Full - D);
  Fuels.push_back(Full + 1);
  for (uint64_t Fuel : Fuels) {
    if (Fuel == 0 || Fuel > Budget)
      continue;
    RunResult FS = Sw.run("main", Fuel);
    RunResult FT = Th.run("main", Fuel);
    expectSameRun(FS, FT, What + " fuel=" + std::to_string(Fuel));
  }
}

class InterpDifferential : public ::testing::TestWithParam<unsigned> {};

/// Generator seeds, unallocated and under both allocators: the three IR
/// shapes the engines actually see (virtual registers, GRA's assignment,
/// RAP's assignment with spill code).
TEST_P(InterpDifferential, SeedProgramsMatch) {
  unsigned Seed = GetParam();
  std::string Source = fuzz::RandomProgramBuilder(Seed).build();

  struct Config {
    AllocatorKind Kind;
    unsigned K;
    const char *Name;
  };
  const Config Configs[] = {
      {AllocatorKind::None, 5, "none"},
      {AllocatorKind::Gra, 4, "gra/k4"},
      {AllocatorKind::Rap, 3, "rap/k3"},
  };
  for (const Config &C : Configs) {
    CompileOptions Opts;
    Opts.Allocator = C.Kind;
    Opts.Alloc.K = C.K;
    CompileResult CR = compileMiniC(Source, Opts);
    ASSERT_TRUE(CR.ok()) << "seed " << Seed << " " << C.Name << ": "
                         << CR.Errors;
    diffProgram(*CR.Prog,
                "seed " + std::to_string(Seed) + " " + C.Name);
  }
}

/// AST-level mutants of the seed programs: still-parseable but semantically
/// warped variants that reach traps (division by zero, out-of-bounds,
/// runaway loops) far more often than the generator's well-behaved output.
/// Mutants that no longer compile are skipped — compile-time behavior is
/// the frontend suite's concern, not the engines'.
TEST_P(InterpDifferential, MutantProgramsMatch) {
  unsigned Seed = GetParam();
  std::string Base = fuzz::RandomProgramBuilder(Seed).build();

  unsigned Compiled = 0;
  for (uint32_t MSeed = 0; MSeed != 6; ++MSeed) {
    std::string Mutant =
        fuzz::mutate(Base, fuzz::MutationLevel::Ast, Seed * 97 + MSeed);
    CompileOptions Opts;
    if (MSeed % 2) {
      Opts.Allocator = AllocatorKind::Rap;
      Opts.Alloc.K = 4;
    }
    CompileResult CR = compileMiniC(Mutant, Opts);
    if (!CR.ok())
      continue;
    ++Compiled;
    diffProgram(*CR.Prog, "seed " + std::to_string(Seed) + " mutant " +
                              std::to_string(MSeed));
  }
  // The AST mutator keeps sources parseable, so most mutants compile; if
  // none did, the test silently stopped testing engines.
  EXPECT_GT(Compiled, 0u) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpDifferential, ::testing::Range(0u, 25u));

} // namespace
