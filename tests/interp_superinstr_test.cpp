//===- tests/interp_superinstr_test.cpp - Superinstruction fusion tests ---===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the threaded engine's superinstruction fusion (DESIGN.md
/// §11). Each test compiles a source shape known to decode into the
/// superinstruction under test, asserts the fusion actually happened
/// (decodedOpCount — a test that silently stopped exercising its pattern
/// would be worthless), and then checks the fused execution against the
/// reference switch engine: identical results, identical counters,
/// identical traps, and identical outcomes at every fuel value, so that a
/// budget expiring or a trap firing in the middle of a fused stretch is
/// indistinguishable from the unfused sequence.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/Decode.h"
#include "interp/Interpreter.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// Both engines over the same program; constructed together so every check
/// compares the same allocation of the same source.
struct EnginePair {
  CompileResult CR;
  std::unique_ptr<Interpreter> Sw, Th;

  explicit EnginePair(const std::string &Source,
                      AllocatorKind Alloc = AllocatorKind::None,
                      unsigned K = 5) {
    CompileOptions Options;
    Options.Allocator = Alloc;
    Options.Alloc.K = K;
    CR = compileMiniC(Source, Options);
    if (!CR.ok()) {
      ADD_FAILURE() << "compile failed:\n" << CR.Errors;
      return;
    }
    InterpOptions SwOpts, ThOpts;
    SwOpts.Dispatch = DispatchKind::Switch;
    ThOpts.Dispatch = DispatchKind::Threaded;
    Sw = std::make_unique<Interpreter>(*CR.Prog, SwOpts);
    Th = std::make_unique<Interpreter>(*CR.Prog, ThOpts);
  }
};

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

/// The core property: with the pattern fused, the threaded engine is
/// observationally identical to the reference — for the unlimited run, and
/// at EVERY fuel value up to just past the full run's cost, which walks a
/// fuel boundary through every fused stretch of the program (including the
/// interior of every superinstruction).
void checkPattern(const std::string &Source, const char *Mnemonic,
                  AllocatorKind Alloc = AllocatorKind::None, unsigned K = 5) {
  EnginePair E(Source, Alloc, K);
  if (!E.Th)
    return;
  ASSERT_GT(E.Th->decodedOpCount(Mnemonic), 0u)
      << "source no longer decodes to '" << Mnemonic
      << "' — the test is not exercising its pattern:\n"
      << Source;
  EXPECT_EQ(E.Sw->decodedOpCount(Mnemonic), 0u)
      << "the switch engine must not decode";

  RunResult S = E.Sw->run("main", 500'000'000);
  RunResult T = E.Th->run("main", 500'000'000);
  expectSameRun(S, T, std::string("full run of ") + Mnemonic);

  const uint64_t Full = S.Stats.Cycles;
  ASSERT_LT(Full, 20000u) << "keep the fuel sweep cheap";
  for (uint64_t Fuel = 1; Fuel <= Full + 1; ++Fuel) {
    RunResult FS = E.Sw->run("main", Fuel);
    RunResult FT = E.Th->run("main", Fuel);
    expectSameRun(FS, FT,
                  std::string(Mnemonic) + " at fuel " + std::to_string(Fuel));
  }
}

// ---- pair and triple patterns ------------------------------------------

TEST(InterpSuperinstr, CmpCbr) {
  checkPattern(R"(
    int main() {
      int i = 0; int n = 9; int s = 0;
      while (i < n) { s = s + 2; i = i + 1; }
      return s;
    }
  )",
               "cmp_lt_cbr");
}

TEST(InterpSuperinstr, LoadICmpCbr) {
  checkPattern(R"(
    int main() {
      int i = 0; int s = 0;
      while (i < 9) { s = s + i; i = i + 1; }
      return s;
    }
  )",
               "loadi_cmp_lt_cbr");
}

TEST(InterpSuperinstr, LoadIOp) {
  checkPattern("int main() { int x = 3; int y = x * 7; return y + x; }",
               "loadi_mul");
}

TEST(InterpSuperinstr, LoadIDivByZeroTrapsMidPair) {
  // The div component of a fused loadI+div traps; kind, PC, and message
  // must name the div, not the pair. (The add keeps the greedy fuser from
  // stealing an earlier loadI into a different pair.)
  checkPattern(R"(
    int main() {
      int q = 7;
      int z = q + q;
      return z / 0;
    }
  )",
               "loadi_div");
}

TEST(InterpSuperinstr, SpillTriple) {
  // k=3 under RAP forces spills in a function with many simultaneously
  // live values; the allocator's ldm/op/stm shape fuses to a triple.
  checkPattern(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
      int f = 6; int g = 7; int h = 8;
      int s = a + b + c + d + e + f + g + h;
      int t = a * b + c * d + e * f + g * h;
      int u = (a + h) * (b + g) + (c + f) * (d + e);
      return s + t + u;
    }
  )",
               "ld_add_st", AllocatorKind::Rap, 3);
}

// ---- memory pairs -------------------------------------------------------

TEST(InterpSuperinstr, LdIdxLdIdx) {
  checkPattern(R"(
    int a[8];
    int main() {
      int i = 0;
      while (i < 8) { a[i] = i * 3; i = i + 1; }
      int j = 2; int k = 5;
      return a[j] + a[k];
    }
  )",
               "ldx_ldx");
}

TEST(InterpSuperinstr, LdIdxStIdxSwap) {
  checkPattern(R"(
    int a[6];
    int main() {
      int i = 0;
      while (i < 6) { a[i] = i + 10; i = i + 1; }
      int j = 1; int k = 4;
      int t = a[j];
      a[j] = a[k];
      a[k] = t;
      return a[1] * 100 + a[4];
    }
  )",
               "ldx_stx");
}

TEST(InterpSuperinstr, StIdxStIdx) {
  checkPattern(R"(
    int a[6];
    int main() {
      int i = 2; int j = 3; int x = 40; int y = 50;
      a[i] = x;
      a[j] = y;
      return a[2] + a[3];
    }
  )",
               "stx_stx");
}

TEST(InterpSuperinstr, StIdxStIdxSecondStoreTraps) {
  // First store commits, second traps: global memory and the trap must
  // match the reference exactly (the fused handler may not reorder).
  checkPattern(R"(
    int a[4];
    int main() {
      int i = 1; int j = 9; int x = 7; int y = 8;
      a[i] = x;
      a[j] = y;
      return 0;
    }
  )",
               "stx_stx");
}

// ---- chains -------------------------------------------------------------

TEST(InterpSuperinstr, LoadIAddMvJmpLatch) {
  checkPattern(R"(
    int main() {
      int s = 0; int i = 0;
      while (i < 12) { s = s + i; i = i + 1; }
      return s;
    }
  )",
               "loadi_add_mv_jmp");
}

TEST(InterpSuperinstr, MulAddLdIdx) {
  // The indexing expression sits at the top of the loop body, so the mul
  // opens its stretch and nothing earlier can steal it into a pair.
  checkPattern(R"(
    int a[16];
    int main() {
      int n = 4;
      int i = 2; int c = 3;
      int s = 0;
      int k = 0;
      while (k < 2) {
        s = s + a[i * n + c];
        k = k + 1;
      }
      return s;
    }
  )",
               "mul_add_ldx");
}

TEST(InterpSuperinstr, MulAddLdIdxTrapsAtChainEnd) {
  // Same shape, but the array is too small: the chain's load component is
  // out of bounds, and the trap PC is the ldx's own linear position (two
  // past the chain head).
  checkPattern(R"(
    int a[4];
    int main() {
      int n = 4;
      int i = 2; int c = 3;
      int s = 0;
      int k = 0;
      while (k < 2) {
        s = s + a[i * n + c];
        k = k + 1;
      }
      return s;
    }
  )",
               "mul_add_ldx");
}

TEST(InterpSuperinstr, GlobalIncrementChain) {
  checkPattern(R"(
    int g;
    int main() {
      g = 3;
      g = g + 5;
      g = g + 5;
      return g;
    }
  )",
               "ldg_loadi_add_stg");
}

TEST(InterpSuperinstr, GlobalCompareChain) {
  checkPattern(R"(
    int g;
    int main() {
      g = 0;
      int s = 0;
      int n = 7;
      while (g < n) { s = s + g; g = g + 1; }
      return s;
    }
  )",
               "ldg_cmp_lt_cbr");
}

// ---- array bounds at the edge of int64 ----------------------------------

/// \p Main behind `int pad[3]; int a[4];`, with every `IDX` replaced by
/// \p Index. a's base is cell 3, so base + index overflows int64 for the
/// indexes below, and a check that adds them wraps into pad.
std::string besidePad(std::string Main, int64_t Index) {
  for (size_t P; (P = Main.find("IDX")) != std::string::npos;)
    Main.replace(P, 3, std::to_string(Index));
  return "int pad[3]; int a[4];\nint main() { " + Main + " }";
}

/// Both engines trap out-of-bounds at the same PC (checkPattern compares
/// the runs, at every fuel value too, and asserts \p Mnemonic decoded).
void checkIndexTraps(const std::string &Source, const char *Mnemonic) {
  checkPattern(Source, Mnemonic);
  EnginePair E(Source);
  ASSERT_TRUE(E.Sw);
  RunResult S = E.Sw->run();
  EXPECT_EQ(S.TrapInfo.Kind, TrapKind::OutOfBounds) << Source << S.Error;
  expectSameRun(S, E.Th->run(), Source);
}

constexpr int64_t Int64Max = std::numeric_limits<int64_t>::max();

TEST(InterpSuperinstr, IndexNearInt64MaxTrapsOnLoadAndStore) {
  for (int64_t Index : {Int64Max, Int64Max - 2}) {
    checkIndexTraps(
        besidePad("pad[2] = 5; int i = IDX; return a[i];", Index), "ldx");
    checkIndexTraps(
        besidePad("int i = IDX; int v = pad[1]; a[i] = v; return v;", Index),
        "stx");
  }
}

TEST(InterpSuperinstr, IndexNearInt64MaxTrapsInFusedHandlers) {
  for (int64_t Index : {Int64Max, Int64Max - 2}) {
    checkIndexTraps(besidePad("pad[2] = 5; int i = IDX; int j = 1; "
                              "return a[i + j];",
                              Index - 1),
                    "add_ldx");
    checkIndexTraps(besidePad("int i = IDX; a[i] = 7; return pad[2];", Index),
                    "loadi_stx");
    checkIndexTraps(
        besidePad("int i = IDX; int v = pad[1]; a[i] = v; return pad[2];",
                  Index),
        "stx_loadi");
  }
}

// ---- float-to-int conversion ------------------------------------------

TEST(InterpF2I, SaturatesOnBothEnginesAtEveryFuel) {
  // NaN and values outside int64 have no integer value; both engines define
  // f2i to saturate (NaN -> 0) and truncate toward zero inside the range.
  constexpr int64_t Int64Min = std::numeric_limits<int64_t>::min();
  const std::string Inf = "1.0e300 * 1.0e300";
  struct Case {
    std::string Value;
    int64_t Want;
  };
  for (const Case &C : std::vector<Case>{
           {Inf + " - " + Inf, 0}, // NaN
           {Inf, Int64Max},
           {"-(" + Inf + ")", Int64Min},
           {"1.0e300", Int64Max},
           {"-1.0e300", Int64Min},
           {"9223372036854775808.0", Int64Max},
           {"-9223372036854775808.0", Int64Min},
           {"1.5", 1},
           {"-1.5", -1}}) {
    std::string Source =
        "int main() { float f = " + C.Value + "; int i = f; return i; }";
    checkPattern(Source, "f2i");
    EnginePair E(Source);
    ASSERT_TRUE(E.Sw);
    RunResult S = E.Sw->run();
    ASSERT_TRUE(S.Ok) << C.Value << ": " << S.Error;
    EXPECT_EQ(S.ReturnValue.asInt(), C.Want) << C.Value;
  }
}

// ---- decode-level invariants -------------------------------------------

TEST(InterpSuperinstr, FusionTelemetryIsConsistent) {
  EnginePair E(R"(
    int a[8];
    int main() {
      int s = 0; int i = 0;
      while (i < 8) { a[i] = i * 2; s = s + a[i]; i = i + 1; }
      return s;
    }
  )");
  ASSERT_TRUE(E.Th);
  static const interp::DOp AllOps[] = {
#define RAP_DOP_VALUE(N, Mnemonic) interp::DOp::N,
      RAP_DOP_LIST(RAP_DOP_VALUE)
#undef RAP_DOP_VALUE
  };
  // The loop decodes to superinstructions under Threaded. The switch engine
  // never decodes, so every mnemonic, fused or plain, counts zero there.
  uint64_t Fused = 0;
  for (interp::DOp Op : AllOps) {
    const char *Name = interp::dopName(Op);
    EXPECT_EQ(E.Sw->decodedOpCount(Name), 0u) << Name;
    if (Op >= interp::DOp::CmpEQCbr) // superinstructions follow plain ops
      Fused += E.Th->decodedOpCount(Name);
  }
  EXPECT_GT(Fused, 0u);
}

TEST(InterpSuperinstr, BranchTargetBlocksFusion) {
  // The loop header is a label target between the compare and the add that
  // would otherwise be fusible with it; the decoded program must still have
  // an op starting exactly at every label target (fusion never swallows
  // one), which the correct looping behavior demonstrates.
  EnginePair E(R"(
    int main() {
      int i = 0;
      int s = 1;
      while (i < 20) {
        s = s + s;
        if (s > 100) { s = s - 100; }
        i = i + 1;
      }
      return s;
    }
  )");
  ASSERT_TRUE(E.Th);
  RunResult S = E.Sw->run();
  RunResult T = E.Th->run();
  expectSameRun(S, T, "label-dense loop");
}

} // namespace
