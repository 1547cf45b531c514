//===- tests/fuzz_harness_test.cpp - Fuzzing infrastructure tests -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The fuzzer is load-bearing for the crash-free contract (DESIGN.md §10), so
// its own pieces need pinning: mutation must be deterministic (a failure is
// replayable from (seed, mutation) alone), the AST printer must emit
// reparseable source (or AST-level mutants silently degrade to token-level),
// the runner must classify the four corners correctly, and the reducer must
// actually shrink while preserving the failure signature.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/AstPrinter.h"
#include "fuzz/Mutator.h"
#include "fuzz/RandomProgram.h"
#include "fuzz/Reducer.h"
#include "fuzz/Runner.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace rap;

namespace {

//===----------------------------------------------------------------------===//
// Mutators
//===----------------------------------------------------------------------===//

const char *SeedProgram = R"(
int g[8];
int helper(int a, int b) { return a * b - a % (b + 7); }
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) {
    g[i] = helper(i, i + 2);
    s = s + g[i];
  }
  if (s > 10) { s = s - 10; } else { s = 0 - s; }
  return s;
}
)";

TEST(FuzzMutator, DeterministicInSourceAndSeed) {
  for (fuzz::MutationLevel Level :
       {fuzz::MutationLevel::Byte, fuzz::MutationLevel::Token,
        fuzz::MutationLevel::Ast}) {
    for (uint32_t Seed = 0; Seed != 20; ++Seed) {
      std::string A = fuzz::mutate(SeedProgram, Level, Seed);
      std::string B = fuzz::mutate(SeedProgram, Level, Seed);
      EXPECT_EQ(A, B) << "level=" << fuzz::mutationLevelName(Level)
                      << " seed=" << Seed;
    }
  }
}

TEST(FuzzMutator, SeedsActuallyVaryTheOutput) {
  // Not a strict requirement per seed, but if 50 seeds all collide the
  // mutator is degenerate and the fuzzer explores nothing.
  for (fuzz::MutationLevel Level :
       {fuzz::MutationLevel::Byte, fuzz::MutationLevel::Token,
        fuzz::MutationLevel::Ast}) {
    std::set<std::string> Mutants;
    for (uint32_t Seed = 0; Seed != 50; ++Seed)
      Mutants.insert(fuzz::mutate(SeedProgram, Level, Seed));
    EXPECT_GT(Mutants.size(), 10u)
        << "level=" << fuzz::mutationLevelName(Level);
  }
}

TEST(FuzzMutator, AstMutantsReparse) {
  // The point of the AST level: mutants stay syntactically valid so they
  // reach the stages past the parser.
  for (uint32_t Seed = 0; Seed != 50; ++Seed) {
    std::string Mutant =
        fuzz::mutate(SeedProgram, fuzz::MutationLevel::Ast, Seed);
    DiagnosticEngine Diags;
    Lexer Lex(Mutant, Diags);
    Parser P(Lex.lexAll(), Diags);
    (void)P.parseTranslationUnit();
    EXPECT_FALSE(Diags.hasErrors())
        << "seed " << Seed << " produced unparseable AST mutant:\n"
        << Mutant << "\n"
        << Diags.str();
  }
}

TEST(FuzzMutator, SurvivesHostileInput) {
  // Mutating garbage (including NULs) must not crash and must stay
  // deterministic; Token/Ast levels fall back rather than die.
  std::string Garbage("\x00\xff((((\"unclosed 9999999999999999999999", 38);
  for (fuzz::MutationLevel Level :
       {fuzz::MutationLevel::Byte, fuzz::MutationLevel::Token,
        fuzz::MutationLevel::Ast}) {
    for (uint32_t Seed = 0; Seed != 10; ++Seed) {
      std::string A = fuzz::mutate(Garbage, Level, Seed);
      EXPECT_EQ(A, fuzz::mutate(Garbage, Level, Seed));
    }
  }
  // Empty input too.
  for (uint32_t Seed = 0; Seed != 5; ++Seed)
    (void)fuzz::mutate("", fuzz::MutationLevel::Byte, Seed);
}

//===----------------------------------------------------------------------===//
// AstPrinter round trip
//===----------------------------------------------------------------------===//

TEST(FuzzAstPrinter, RoundTripIsAFixedPoint) {
  // print(parse(print(parse(S)))) == print(parse(S)): printed source must
  // reparse, and printing is canonical (a second round changes nothing).
  for (unsigned Seed = 0; Seed != 25; ++Seed) {
    std::string Source = fuzz::RandomProgramBuilder(Seed).build();

    auto Print = [](const std::string &Src, std::string &Out) {
      DiagnosticEngine Diags;
      Lexer Lex(Src, Diags);
      Parser P(Lex.lexAll(), Diags);
      TranslationUnit TU = P.parseTranslationUnit();
      if (Diags.hasErrors())
        return false;
      Out = fuzz::printMiniC(TU);
      return true;
    };

    std::string Once, Twice;
    ASSERT_TRUE(Print(Source, Once)) << "seed " << Seed;
    ASSERT_TRUE(Print(Once, Twice))
        << "seed " << Seed << ": printed source does not reparse:\n"
        << Once;
    EXPECT_EQ(Once, Twice) << "seed " << Seed;
  }
}

TEST(FuzzAstPrinter, RoundTripPreservesBehaviour) {
  // Full parenthesization must not change evaluation: the printed program
  // returns the same value as the original.
  CompileOptions Opts; // reference pipeline, no allocation
  for (unsigned Seed = 100; Seed != 110; ++Seed) {
    std::string Source = fuzz::RandomProgramBuilder(Seed).build();

    DiagnosticEngine Diags;
    Lexer Lex(Source, Diags);
    Parser P(Lex.lexAll(), Diags);
    TranslationUnit TU = P.parseTranslationUnit();
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    std::string Printed = fuzz::printMiniC(TU);

    RunResult Orig = compileAndRun(Source, Opts);
    RunResult Round = compileAndRun(Printed, Opts);
    ASSERT_TRUE(Orig.Ok) << Orig.Error;
    ASSERT_TRUE(Round.Ok) << "seed " << Seed << ":\n" << Printed << "\n"
                          << Round.Error;
    EXPECT_EQ(Orig.ReturnValue.asInt(), Round.ReturnValue.asInt())
        << "seed " << Seed;
  }
}

TEST(FuzzAstPrinter, NegativeLiteralsPrintReparseably) {
  // The AST mutator plants negative literals (including INT64_MIN) directly
  // into the tree. "-9223372036854775808" does not lex as a single literal
  // (the positive half overflows), so the printer must render them another
  // way — as (0 - N), which for INT64_MIN means (0 - MAX - 1)-style
  // arithmetic that stays in range.
  for (int64_t V : {int64_t(-1), int64_t(-1000000007), INT64_MIN}) {
    Expr Lit(ExprKind::IntLit, SourceLoc{});
    Lit.IntValue = V;
    std::string Printed = fuzz::printExpr(Lit);

    std::string Src = "int main() { return " + Printed + "; }";
    DiagnosticEngine Diags;
    Lexer Lex(Src, Diags);
    Parser P(Lex.lexAll(), Diags);
    (void)P.parseTranslationUnit();
    EXPECT_FALSE(Diags.hasErrors())
        << "value " << V << " printed as " << Printed << "\n"
        << Diags.str();
  }
}

//===----------------------------------------------------------------------===//
// Runner classification
//===----------------------------------------------------------------------===//

TEST(FuzzRunner, CleanProgramIsCleanRun) {
  fuzz::FuzzLimits Limits;
  fuzz::FuzzReport R =
      runContract("int main() { return 41; }", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::CleanRun) << R.Detail;
  EXPECT_FALSE(R.failing());
  EXPECT_TRUE(R.Signature.empty());
}

TEST(FuzzRunner, SyntaxGarbageIsCleanCompileError) {
  fuzz::FuzzLimits Limits;
  fuzz::FuzzReport R = runContract("int main( { return ; @", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::CleanCompileError) << R.Detail;
  EXPECT_FALSE(R.failing());
}

TEST(FuzzRunner, UniformTrapIsCleanTrap) {
  // Every configuration divides by zero the same way: the contract holds.
  fuzz::FuzzLimits Limits;
  fuzz::FuzzReport R =
      runContract("int main() { int z = 0; return 3 / z; }", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::CleanTrap) << R.Detail;
  EXPECT_FALSE(R.failing());
}

TEST(FuzzRunner, ReferenceFuelExhaustionIsCleanTrap) {
  // A non-terminating input is unobservable, not a failure.
  fuzz::FuzzLimits Limits;
  Limits.Fuel = 20000;
  fuzz::FuzzReport R =
      runContract("int main() { while (1 == 1) { } return 0; }", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::CleanTrap) << R.Detail;
}

TEST(FuzzRunner, OversizedInputIsCleanlyRejected) {
  fuzz::FuzzLimits Limits;
  Limits.MaxSourceBytes = 64;
  std::string Big(1000, 'x');
  fuzz::FuzzReport R = runContract(Big, Limits);
  EXPECT_FALSE(R.failing());
}

TEST(FuzzRunner, InjectedFaultIsAFailingAllocFailure) {
  // The fault drill: with injection on and fallback off, the contract run
  // must produce a failing, reducible report — this is how we prove the
  // failure path works end to end.
  fuzz::FuzzLimits Limits;
  Limits.Faults = FaultPlan::fromString("color:1");
  fuzz::FuzzReport R =
      runContract("int main() { return 41; }", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::AllocFailure) << R.Detail;
  EXPECT_TRUE(R.failing());
  EXPECT_FALSE(R.Signature.empty());
  EXPECT_NE(R.Signature.find("alloc-error:"), std::string::npos)
      << R.Signature;
}

TEST(FuzzRunner, DegradedReportSaysWhatDegraded) {
  // A budget no allocation can meet: every function of every configuration
  // trips it and degrades to the spill-everything fallback, which still
  // computes the reference result.
  fuzz::FuzzLimits Limits;
  Limits.MaxAllocSeconds = 1e-9;
  fuzz::FuzzReport R =
      runContract("int main() { return 41; }", Limits);
  EXPECT_EQ(R.Outcome, fuzz::FuzzOutcome::Degraded) << R.Detail;
  EXPECT_FALSE(R.failing());
  EXPECT_NE(R.Detail.find("rap:k3: main: resource-limit"), std::string::npos)
      << R.Detail;
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

TEST(FuzzReducer, ShrinksWhilePreservingSignature) {
  // End-to-end drill on a generator program ~1KB: inject a coloring fault,
  // reduce under signature equality, and require the acceptance bound —
  // minimized repro at most 25% of the original and still failing the same
  // way.
  std::string Source = fuzz::RandomProgramBuilder(3).build();
  ASSERT_GT(Source.size(), 400u) << "generator program suspiciously small";

  fuzz::FuzzLimits Limits;
  Limits.Faults = FaultPlan::fromString("color:1");
  fuzz::FuzzReport Original = runContract(Source, Limits);
  ASSERT_TRUE(Original.failing()) << Original.Detail;

  auto StillFails = [&](const std::string &Candidate) {
    fuzz::FuzzReport R = runContract(Candidate, Limits);
    return R.failing() && R.Signature == Original.Signature;
  };
  fuzz::ReduceResult Red = fuzz::reduceSource(Source, StillFails);

  EXPECT_TRUE(StillFails(Red.Reduced)) << Red.Reduced;
  EXPECT_LE(Red.Reduced.size() * 4, Source.size())
      << "reduced " << Source.size() << " -> " << Red.Reduced.size()
      << " bytes; acceptance requires <= 25%:\n"
      << Red.Reduced;
  EXPECT_GT(Red.PredicateCalls, 0u);
}

TEST(FuzzReducer, ResultAlwaysSatisfiesPredicateEvenOnTinyBudget) {
  std::string Source = fuzz::RandomProgramBuilder(4).build();
  fuzz::FuzzLimits Limits;
  Limits.Faults = FaultPlan::fromString("spill:1");
  fuzz::FuzzReport Original = runContract(Source, Limits);
  ASSERT_TRUE(Original.failing()) << Original.Detail;

  auto StillFails = [&](const std::string &Candidate) {
    fuzz::FuzzReport R = runContract(Candidate, Limits);
    return R.failing() && R.Signature == Original.Signature;
  };
  fuzz::ReduceResult Red =
      fuzz::reduceSource(Source, StillFails, /*MaxCalls=*/20);
  EXPECT_TRUE(StillFails(Red.Reduced));
  EXPECT_LE(Red.Reduced.size(), Source.size());
}

//===----------------------------------------------------------------------===//
// Repro artifacts
//===----------------------------------------------------------------------===//

TEST(FuzzRepro, ArtifactIsWrittenAndReplayable) {
  fuzz::FuzzLimits Limits;
  Limits.Faults = FaultPlan::fromString("color:1");
  const std::string Source = "int main() { return 41; }";
  fuzz::FuzzReport R = runContract(Source, Limits);
  ASSERT_TRUE(R.failing());

  std::string Dir = ::testing::TempDir() + "rap_fuzz_repro_test";
  std::string Path = fuzz::writeRepro(Dir, "repro-unit-1.mc", Source, R, Limits);
  ASSERT_FALSE(Path.empty());

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Contents = SS.str();

  // Header records the signature; body is the source itself. Because the
  // header is // comments, the artifact replays by feeding the whole file
  // back through the contract.
  EXPECT_NE(Contents.find(R.Signature), std::string::npos) << Contents;
  EXPECT_NE(Contents.find(Source), std::string::npos) << Contents;
  fuzz::FuzzReport Replayed = runContract(Contents, Limits);
  EXPECT_EQ(Replayed.Signature, R.Signature) << Replayed.Detail;

  std::remove(Path.c_str());
}

} // namespace
