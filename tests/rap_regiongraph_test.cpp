//===- tests/rap_regiongraph_test.cpp - Figures 3, 4, 5 behaviors -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives RAP's per-region stages on programs shaped like the paper's
/// Figure 3 worked example and asserts the documented behaviors:
/// add_region_conflicts (live-in interference, unreferenced registers
/// omitted), add_subregion_conflicts (live-through registers conflict with
/// everything inside, same-register nodes merge), the global-global
/// coloring rule (Figure 3's "a and b were not colored the same color
/// because there are uses of both outside of the subregion"), combining,
/// and the Figure 5 spill-cost rules.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interpreter.h"
#include "regalloc/Rap.h"

#include "gtest/gtest.h"

using namespace rap;
using rap::test::compile;

namespace {

// A MiniC rendering of Figure 3's code:
//   S1: a = b        S2: c = a + c
//   if (p) { S3: a = b + d }
//   else   { S4: e = 10  S5: a = e  S6: a = a + b }
//   (d defined before, used after -> live through the parent region)
const char *Fig3Source = R"(
  int use;
  int main() {
    int p = 1;
    int d = 40;
    int b = 2;
    int c = 3;
    int a = b;        /* S1 */
    c = a + c;        /* S2 */
    if (p > 0) {
      a = b + d;      /* S3 (then-region references d) */
    } else {
      int e = 10;     /* S4 */
      a = e;          /* S5 */
      a = a + b;      /* S6 */
    }
    use = a + c + b;
    return use + d;   /* keeps d live through the if */
  }
)";

struct Fig3 {
  std::unique_ptr<IlocProgram> Prog;
  IlocFunction *F = nullptr;
  std::unique_ptr<RapAllocator> RA;
  PdgNode *IfTrue = nullptr;
  PdgNode *IfFalse = nullptr;
  PdgNode *Root = nullptr;
  Reg A = NoReg, B = NoReg, C = NoReg, D = NoReg, E = NoReg;

  explicit Fig3(unsigned K) {
    // Direct copies keep the vreg identities of a..e easy to track.
    DiagnosticEngine Diags;
    Lexer L(Fig3Source, Diags);
    Parser P(L.lexAll(), Diags);
    TranslationUnit TU = P.parseTranslationUnit();
    EXPECT_TRUE(analyze(TU, Diags)) << Diags.str();
    Prog = lowerToIloc(TU, RegionGranularity::Merged, CopyStyle::Direct);
    F = Prog->function(0);
    Root = F->root();
    F->root()->forEachNode([&](const PdgNode *N) {
      if (N->isPredicate() && N->TrueRegion && N->FalseRegion) {
        IfTrue = N->TrueRegion;
        IfFalse = N->FalseRegion;
      }
    });
    // Variable vregs in declaration order: p=0, d=1, b=2, c=3, a=4; e is
    // declared inside the else arm, after S3's temporaries.
    D = 1;
    B = 2;
    C = 3;
    A = 4;
    AllocOptions AO;
    AO.K = K;
    RA = std::make_unique<RapAllocator>(*F, AO);
  }
};

TEST(RapRegionGraph, LiveInReferencedRegistersInterfere) {
  Fig3 T(8);
  // Allocate the subregions first, then build the whole-function graph.
  T.Root->forEachSubregion([&](PdgNode *S) { T.RA->allocRegion(S); });
  T.RA->refresh();
  InterferenceGraph G = T.RA->buildRegionGraph(T.Root);
  // a and c are simultaneously live (S2 reads and writes both): Figure 3(c)
  // shows the a—c edge.
  int NA = G.nodeOf(T.A), NC = G.nodeOf(T.C);
  ASSERT_GE(NA, 0);
  ASSERT_GE(NC, 0);
  EXPECT_TRUE(G.interfere(static_cast<unsigned>(NA),
                          static_cast<unsigned>(NC)));
}

TEST(RapRegionGraph, LiveThroughRegisterConflictsWithSubregionContents) {
  Fig3 T(8);
  T.Root->forEachSubregion([&](PdgNode *S) { T.RA->allocRegion(S); });
  T.RA->refresh();

  // d is not referenced in the else-arm but is live across it: Figure 4's
  // rule gives it an edge to every node allocated inside (e among them).
  InterferenceGraph G = T.RA->buildRegionGraph(T.Root);
  int ND = G.nodeOf(T.D);
  int NE = G.nodeOf(T.E == NoReg ? T.D : T.E); // E resolved below
  (void)NE;
  ASSERT_GE(ND, 0);
  // Find e: a register referenced only inside the else-arm.
  bool FoundLocalConflict = false;
  for (unsigned N : G.aliveNodes()) {
    if (static_cast<int>(N) == ND)
      continue;
    for (Reg R : G.node(N).VRegs) {
      if (!T.RA->refInfo().referencedWithin(R, T.IfFalse->LinBegin,
                                            T.IfFalse->LinEnd))
        continue;
      if (T.RA->refInfo().allRefsWithin(R, T.IfFalse->LinBegin,
                                        T.IfFalse->LinEnd)) {
        FoundLocalConflict |= G.interfere(static_cast<unsigned>(ND), N);
      }
    }
  }
  EXPECT_TRUE(FoundLocalConflict)
      << "d must conflict with the else-arm's local registers";
}

TEST(RapRegionGraph, SubregionGraphsStayWithinK) {
  Fig3 T(3);
  T.Root->forEachSubregion([&](PdgNode *S) {
    T.RA->allocRegion(S);
    auto It = T.RA->savedGraphs().find(S);
    ASSERT_NE(It, T.RA->savedGraphs().end());
    EXPECT_LE(It->second.numAliveNodes(), 3u)
        << "combine leaves at most k nodes (paper §3.1.5)";
  });
}

TEST(RapRegionGraph, GlobalsNotCombinedInsideSubregion) {
  // Figure 3(a): "a and b were not colored the same color because there
  // are uses of both a and b outside of the subregion."
  Fig3 T(8);
  PdgNode *Else = T.IfFalse;
  ASSERT_NE(Else, nullptr);
  T.RA->allocRegion(Else);
  const InterferenceGraph &GS = T.RA->savedGraphs().at(Else);
  int NA = GS.nodeOf(T.A);
  int NB = GS.nodeOf(T.B);
  ASSERT_GE(NA, 0);
  ASSERT_GE(NB, 0);
  EXPECT_NE(NA, NB) << "two region-global registers never share a color";
}

TEST(RapRegionGraph, SameRegisterNodesMergeAcrossSubregions) {
  // a is referenced in both arms; after importing both subregion graphs the
  // parent has ONE node containing a (paper §3.1.1: "combining the
  // subregion node with one of the parent's nodes if the nodes correspond
  // to the same virtual register").
  Fig3 T(8);
  T.Root->forEachSubregion([&](PdgNode *S) { T.RA->allocRegion(S); });
  T.RA->refresh();
  InterferenceGraph G = T.RA->buildRegionGraph(T.Root);
  unsigned NodesWithA = 0;
  for (unsigned N : G.aliveNodes())
    for (Reg R : G.node(N).VRegs)
      if (R == T.A)
        ++NodesWithA;
  EXPECT_EQ(NodesWithA, 1u);
}

TEST(RapSpillCosts, LocalToSubregionIsPricedOut) {
  Fig3 T(8);
  T.Root->forEachSubregion([&](PdgNode *S) { T.RA->allocRegion(S); });
  T.RA->refresh();
  InterferenceGraph G = T.RA->buildRegionGraph(T.Root);
  T.RA->calcSpillCosts(T.Root, G);
  // Figure 3(b): the else-arm's coloring combines local e with global a
  // into one node, so arm-locals reach the parent only inside mixed nodes.
  // Figure 5 then prices out any node whose members all live inside one
  // arm; mixed nodes stay spillable through their global member.
  bool SawMixedNode = false;
  for (unsigned N : G.aliveNodes()) {
    bool HasArmLocal = false, HasGlobal = false;
    bool AllInOneArm = false;
    for (const PdgNode *Arm : {T.IfTrue, T.IfFalse}) {
      bool AllHere = !G.node(N).VRegs.empty();
      bool AnyHere = false;
      for (Reg R : G.node(N).VRegs) {
        bool Local = T.RA->refInfo().allRefsWithin(R, Arm->LinBegin,
                                                   Arm->LinEnd);
        AllHere &= Local;
        AnyHere |= Local;
      }
      AllInOneArm |= AllHere;
      HasArmLocal |= AnyHere;
    }
    for (Reg R : G.node(N).VRegs)
      HasGlobal |= !T.RA->refInfo().allRefsWithin(R, T.IfTrue->LinBegin,
                                                  T.IfTrue->LinEnd) &&
                   !T.RA->refInfo().allRefsWithin(R, T.IfFalse->LinBegin,
                                                  T.IfFalse->LinEnd);
    if (AllInOneArm) {
      EXPECT_GE(G.node(N).SpillCost, 999999.0)
          << "purely arm-local nodes are priced out (Figure 5)";
    }
    SawMixedNode |= HasArmLocal && HasGlobal;
  }
  EXPECT_TRUE(SawMixedNode)
      << "an arm-local (e) combines with a global (a), as in Figure 3(b)";
}

TEST(RapSpillCosts, ReferencedNodesHaveFiniteCost) {
  Fig3 T(8);
  T.Root->forEachSubregion([&](PdgNode *S) { T.RA->allocRegion(S); });
  T.RA->refresh();
  InterferenceGraph G = T.RA->buildRegionGraph(T.Root);
  T.RA->calcSpillCosts(T.Root, G);
  int NC = G.nodeOf(T.C);
  {
    ASSERT_GE(NC, 0);
  }
  EXPECT_LT(G.node(NC).SpillCost, 999999.0)
      << "c is spillable: (uses + defs) / degree";
  EXPECT_GT(G.node(NC).SpillCost, 0.0);
}

TEST(RapRegionGraph, GlobalFlagTracksOutsideReferences) {
  Fig3 T(8);
  PdgNode *Else = T.IfFalse;
  T.RA->allocRegion(Else);
  EXPECT_TRUE(T.RA->isGlobalTo(T.A, Else));
  EXPECT_TRUE(T.RA->isGlobalTo(T.B, Else));
  EXPECT_FALSE(T.RA->isGlobalTo(T.A, T.Root))
      << "nothing is global to the whole function";
}

//===----------------------------------------------------------------------===//
// §3.1.1: merging the pieces of split registers, on hand-built graphs.
// Registers 10..19 are pieces of origin 1 and 40..49 pieces of origin 4;
// a register in 20..39 is global to the region with origin R / 10 (so 20
// has origin 2 and 30 origin 3); other registers are neither.
//===----------------------------------------------------------------------===//

Reg pieceOrigin(Reg R) {
  if (R >= 10 && R < 20)
    return 1;
  if (R >= 40 && R < 50)
    return 4;
  return NoReg;
}

Reg globalOrigin(Reg R) { return R >= 20 && R < 40 ? R / 10 : NoReg; }

/// One node per group of registers, in order; returns the node ids.
std::vector<unsigned>
pieceGraph(InterferenceGraph &G,
           std::initializer_list<std::initializer_list<Reg>> Groups) {
  std::vector<unsigned> Ids;
  for (const auto &Members : Groups) {
    unsigned N = G.getOrCreateNode(*Members.begin());
    for (auto It = Members.begin() + 1; It != Members.end(); ++It)
      G.addRegToNode(N, *It);
    Ids.push_back(N);
  }
  return Ids;
}

bool sameNode(const InterferenceGraph &G, Reg A, Reg B) {
  return G.nodeOf(A) >= 0 && G.nodeOf(A) == G.nodeOf(B);
}

TEST(RapPieceMerge, NonInterferingPiecesOfOneOriginJoinOneNode) {
  InterferenceGraph G;
  pieceGraph(G, {{10}, {5}, {11, 6}, {12}});
  G.addEdge(5, 6);
  PieceMerger().run(G, pieceOrigin, globalOrigin);
  EXPECT_TRUE(sameNode(G, 10, 11));
  EXPECT_TRUE(sameNode(G, 10, 12));
  EXPECT_TRUE(sameNode(G, 10, 6)) << "whole nodes merge";
  EXPECT_FALSE(sameNode(G, 10, 5));
  EXPECT_EQ(G.numAliveNodes(), 2u);
}

TEST(RapPieceMerge, InterferingPiecesStayApart) {
  InterferenceGraph G;
  pieceGraph(G, {{10}, {11}, {12}});
  G.addEdge(10, 11);
  PieceMerger().run(G, pieceOrigin, globalOrigin);
  EXPECT_FALSE(sameNode(G, 10, 11));
  EXPECT_TRUE(sameNode(G, 10, 12)) << "the first node takes the free piece";
}

TEST(RapPieceMerge, TwoGlobalOriginsNeverShareANode) {
  InterferenceGraph G;
  pieceGraph(G, {{10, 20}, {11, 30}, {12, 21}});
  PieceMerger().run(G, pieceOrigin, globalOrigin);
  EXPECT_FALSE(sameNode(G, 10, 11)) << "origins 2 and 3 are both global";
  EXPECT_TRUE(sameNode(G, 10, 12)) << "20 and 21 share origin 2";
}

TEST(RapPieceMerge, GlobalOriginGainedByAMergeStillCounts) {
  // The first merge brings origin 2 into 40's node; 41's node holds origin
  // 3, so origin 4's pieces must then stay apart.
  InterferenceGraph G;
  pieceGraph(G, {{10, 40}, {11, 20}, {41, 30}});
  PieceMerger().run(G, pieceOrigin, globalOrigin);
  EXPECT_TRUE(sameNode(G, 10, 11));
  EXPECT_TRUE(sameNode(G, 40, 20));
  EXPECT_FALSE(sameNode(G, 40, 41));

  // With 41's node holding origin 2 instead, the union has one global
  // origin and the pieces join.
  InterferenceGraph H;
  pieceGraph(H, {{10, 40}, {11, 20}, {41, 22}});
  PieceMerger().run(H, pieceOrigin, globalOrigin);
  EXPECT_TRUE(sameNode(H, 40, 41));
  EXPECT_EQ(H.numAliveNodes(), 1u);
}

TEST(RapPieceMerge, ExcludedOriginNeverMerges) {
  // RapAllocator excludes the origins in NoMergeOrigins: their pieces read
  // as no piece at all.
  auto WithoutOrigin1 = [](Reg R) {
    Reg Origin = pieceOrigin(R);
    return Origin == 1 ? NoReg : Origin;
  };
  InterferenceGraph G;
  pieceGraph(G, {{10, 40}, {11}, {41}});
  PieceMerger().run(G, WithoutOrigin1, globalOrigin);
  EXPECT_FALSE(sameNode(G, 10, 11));
  EXPECT_TRUE(sameNode(G, 40, 41));
}

TEST(RapEndToEnd, Figure3ProgramAllocatesAtAllK) {
  for (unsigned K : {3u, 5u, 8u}) {
    DiagnosticEngine Diags;
    Lexer L(Fig3Source, Diags);
    Parser P(L.lexAll(), Diags);
    TranslationUnit TU = P.parseTranslationUnit();
    ASSERT_TRUE(analyze(TU, Diags));
    auto Ref = lowerToIloc(TU, RegionGranularity::Merged, CopyStyle::Direct);
    Interpreter RefI(*Ref);
    RunResult RefRun = RefI.run();
    ASSERT_TRUE(RefRun.Ok);

    auto Prog = lowerToIloc(TU, RegionGranularity::Merged, CopyStyle::Direct);
    AllocOptions AO;
    AO.K = K;
    allocateRap(*Prog->function(0), AO);
    Interpreter I(*Prog);
    RunResult R = I.run();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue.asInt(), RefRun.ReturnValue.asInt()) << "k=" << K;
  }
}

} // namespace
