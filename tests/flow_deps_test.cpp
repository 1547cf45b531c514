//===- tests/flow_deps_test.cpp - Per-register flow dependences -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RefInfo::flowDeps, the per-register reaching-definitions query behind
/// RAP's outside-the-region spill fixup, checked against the whole-function
/// DataDependence solve: for every register of every Table 1 function, on
/// freshly lowered code and again on the spill-edited code RAP's phase 1
/// leaves behind at k=3.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/BenchPrograms.h"
#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "pdg/DataDependence.h"
#include "regalloc/AllocSupport.h"
#include "regalloc/Rap.h"

#include "gtest/gtest.h"

#include <ostream>

namespace rap {
void PrintTo(const FlowDep &D, std::ostream *OS) {
  *OS << "%" << D.R << ": " << D.DefPos << " -> " << D.UsePos;
}
} // namespace rap

using namespace rap;
using rap::test::compile;

namespace {

/// The query must equal the full solve restricted to each register of
/// \p F. Returns the number of registers that have flow dependences.
unsigned expectMatchesFullSolve(IlocFunction &F, const std::string &What) {
  LinearCode Code = linearize(F);
  Cfg G(Code);
  RefInfo Refs(Code, F.numVRegs());
  DataDependence DD(Code, G, F.numVRegs());
  // flowDeps() is sorted by (def, use, register), so each register's
  // entries come out sorted by (def, use), the query's order.
  std::vector<std::vector<FlowDep>> Expected(F.numVRegs());
  for (const FlowDep &D : DD.flowDeps())
    Expected[D.R].push_back(D);
  unsigned WithDeps = 0;
  for (Reg R = 0; R != F.numVRegs(); ++R) {
    EXPECT_EQ(Refs.flowDeps(R, G), Expected[R])
        << What << " " << F.name() << " %" << R;
    WithDeps += !Expected[R].empty();
  }
  return WithDeps;
}

TEST(FlowDeps, MatchFullSolveOnTable1) {
  for (const BenchProgram &P : benchPrograms()) {
    auto Prog = compile(P.Source);
    ASSERT_NE(Prog, nullptr) << P.Name;
    for (const auto &F : Prog->functions())
      EXPECT_GT(expectMatchesFullSolve(*F, P.Name), 0u) << P.Name;
  }
}

TEST(FlowDeps, MatchFullSolveOnTable1AfterRapPhase1AtK3) {
  unsigned Spilled = 0;
  for (const BenchProgram &P : benchPrograms()) {
    auto Prog = compile(P.Source);
    ASSERT_NE(Prog, nullptr) << P.Name;
    for (const auto &F : Prog->functions()) {
      AllocOptions Options;
      Options.K = 3;
      RapAllocator RA(*F, Options);
      RA.allocRegion(F->root());
      Spilled += RA.stats().SpilledVRegs;
      expectMatchesFullSolve(*F, std::string(P.Name) + " after phase 1");
    }
  }
  EXPECT_GT(Spilled, 100u) << "k=3 should leave spill-edited code to check";
}

/// Linearized code of a one-function program lowered with direct copies
/// (so `i = i + 1` is one instruction that uses and defines i).
struct Lowered {
  std::unique_ptr<IlocProgram> Prog;
  IlocFunction *F = nullptr;
  LinearCode Code;

  explicit Lowered(const char *Src) {
    DiagnosticEngine Diags;
    Lexer L(Src, Diags);
    Parser P(L.lexAll(), Diags);
    TranslationUnit TU = P.parseTranslationUnit();
    EXPECT_TRUE(analyze(TU, Diags)) << Diags.str();
    Prog = lowerToIloc(TU, RegionGranularity::Merged, CopyStyle::Direct);
    F = Prog->function(0);
    Code = linearize(*F);
  }
};

TEST(FlowDeps, LoopCarriedSelfDependence) {
  // Figure 1's cyclic edge: the increment's definition of i reaches its own
  // use on the next iteration, around the back edge.
  Lowered L(R"(
    int count(int n) {
      int i = 0;
      while (i < n) { i = i + 1; }
      return i;
    }
  )");
  Cfg G(L.Code);
  RefInfo Refs(L.Code, L.F->numVRegs());
  bool FoundSelf = false;
  for (Reg R = 0; R != L.F->numVRegs(); ++R)
    for (const FlowDep &D : Refs.flowDeps(R, G))
      FoundSelf |= D.DefPos == D.UsePos;
  EXPECT_TRUE(FoundSelf);
  expectMatchesFullSolve(*L.F, "self-dependence");
}

TEST(FlowDeps, ParameterWithoutDefinitionHasNone) {
  // Parameters arrive in registers 0..n-1 with no defining instruction, so
  // their uses have no reaching definition.
  Lowered L(R"(
    int twice(int a) {
      int s = 0;
      if (a > 3) { s = a + a; }
      return s + a;
    }
  )");
  Cfg G(L.Code);
  RefInfo Refs(L.Code, L.F->numVRegs());
  ASSERT_GE(L.F->numParams(), 1u);
  EXPECT_FALSE(Refs.usePositions(0).empty());
  EXPECT_TRUE(Refs.defPositions(0).empty());
  EXPECT_TRUE(Refs.flowDeps(0, G).empty());
  expectMatchesFullSolve(*L.F, "parameter");
}

} // namespace
