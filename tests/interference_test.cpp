//===- tests/interference_test.cpp - InterferenceGraph + coloring ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"
#include "regalloc/InterferenceGraph.h"

#include "gtest/gtest.h"

#include <set>
#include <vector>

using namespace rap;

namespace {

TEST(InterferenceGraph, NodesAndEdges) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(1);
  unsigned B = G.getOrCreateNode(2);
  EXPECT_EQ(G.getOrCreateNode(1), A) << "idempotent";
  EXPECT_FALSE(G.interfere(A, B));
  G.addEdge(1, 2);
  EXPECT_TRUE(G.interfere(A, B));
  G.addEdge(1, 2); // duplicate edges collapse
  EXPECT_EQ(G.adjacency(A).size(), 1u);
  EXPECT_EQ(G.numAliveNodes(), 2u);
}

TEST(InterferenceGraph, SelfEdgeIsNoop) {
  InterferenceGraph G;
  G.getOrCreateNode(1);
  G.addEdge(1, 1);
  EXPECT_EQ(G.adjacency(0).size(), 0u);
}

TEST(InterferenceGraph, MergeUnionsMembersAndEdges) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(1);
  unsigned B = G.getOrCreateNode(2);
  unsigned C = G.getOrCreateNode(3);
  G.addEdgeNodes(A, C);
  unsigned M = G.mergeNodes(A, B);
  EXPECT_EQ(M, A);
  EXPECT_FALSE(G.node(B).Alive);
  EXPECT_EQ(G.node(A).VRegs, (std::vector<Reg>{1, 2}));
  EXPECT_EQ(G.nodeOf(2), static_cast<int>(A));
  EXPECT_TRUE(G.interfere(A, C));
  EXPECT_EQ(G.numAliveNodes(), 2u);
}

TEST(InterferenceGraph, RenameKeepsNodeIdentity) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(5);
  G.renameReg(5, 9);
  EXPECT_EQ(G.nodeOf(9), static_cast<int>(A));
  EXPECT_EQ(G.nodeOf(5), -1);
  G.renameReg(42, 43); // absent: no-op
  EXPECT_EQ(G.nodeOf(43), -1);
}

TEST(InterferenceGraph, EffectiveDegreeCountsGlobalPairs) {
  // Paper Figure 5: two global nodes with no edge still raise each other's
  // degree.
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(1);
  unsigned B = G.getOrCreateNode(2);
  unsigned C = G.getOrCreateNode(3);
  G.addEdgeNodes(A, C);
  G.node(A).Global = true;
  G.node(B).Global = true;
  EXPECT_EQ(G.effectiveDegree(A), 2u) << "edge to C plus global pair with B";
  EXPECT_EQ(G.effectiveDegree(B), 1u) << "global pair with A only";
  EXPECT_EQ(G.effectiveDegree(C), 1u) << "locals see only real edges";
}

TEST(InterferenceGraph, CombineByColorGroupsAndConnects) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(1);
  unsigned B = G.getOrCreateNode(2);
  [[maybe_unused]] unsigned C = G.getOrCreateNode(3);
  G.addEdgeNodes(A, B);
  G.addEdgeNodes(B, C);
  G.node(A).Color = 0;
  G.node(B).Color = 1;
  G.node(C).Color = 0; // A and C share a color and no edge
  InterferenceGraph Combined;
  G.combineByColor(Combined);
  EXPECT_EQ(Combined.numAliveNodes(), 2u);
  int N0 = Combined.nodeOf(1);
  EXPECT_EQ(Combined.nodeOf(3), N0) << "same color, same node";
  int N1 = Combined.nodeOf(2);
  ASSERT_GE(N0, 0);
  ASSERT_GE(N1, 0);
  EXPECT_TRUE(Combined.interfere(static_cast<unsigned>(N0),
                                 static_cast<unsigned>(N1)));
}

//===----------------------------------------------------------------------===//
// Storage reuse: a graph rebuilt after clear() equals the same graph built
// fresh.
//===----------------------------------------------------------------------===//

/// Registers 1..14 in eleven nodes: edges, a global pair, merges (one of
/// an edged node), a rename and an added member.
void buildFirst(InterferenceGraph &G) {
  for (Reg R = 1; R <= 12; ++R)
    G.getOrCreateNode(R);
  for (Reg R = 1; R <= 11; ++R)
    G.addEdge(R, R + 1);
  G.addEdge(1, 12);
  G.addEdge(3, 9);
  G.mergeNodes(static_cast<unsigned>(G.nodeOf(4)),
               static_cast<unsigned>(G.nodeOf(10)));
  G.renameReg(7, 13);
  G.addRegToNode(static_cast<unsigned>(G.nodeOf(2)), 14);
  G.node(static_cast<unsigned>(G.nodeOf(1))).Global = true;
  G.node(static_cast<unsigned>(G.nodeOf(5))).Global = true;
}

/// Registers 3..6 and 20..23 in six nodes: fewer node slots than
/// buildFirst, some of its registers, and new ones.
void buildSecond(InterferenceGraph &G) {
  for (Reg R : {20u, 3u, 21u, 5u, 22u, 6u, 23u, 4u})
    G.getOrCreateNode(R);
  G.addEdge(20, 3);
  G.addEdge(3, 5);
  G.addEdge(21, 22);
  G.addEdge(6, 20);
  G.addEdge(23, 5);
  G.mergeNodes(static_cast<unsigned>(G.nodeOf(21)),
               static_cast<unsigned>(G.nodeOf(4)));
  G.mergeNodes(static_cast<unsigned>(G.nodeOf(3)),
               static_cast<unsigned>(G.nodeOf(23)));
  G.node(static_cast<unsigned>(G.nodeOf(5))).Global = true;
  G.node(static_cast<unsigned>(G.nodeOf(22))).Global = true;
}

/// \p Reused equals \p Fresh in every query: the same alive nodes with
/// the same members, adjacency as sets, interference on every pair, degrees
/// and byte footprint, and the same node (or -1) for each of \p Named.
void expectSameGraph(const InterferenceGraph &Reused,
                     const InterferenceGraph &Fresh,
                     const std::vector<Reg> &Named) {
  ASSERT_EQ(Reused.numNodesTotal(), Fresh.numNodesTotal());
  EXPECT_EQ(Reused.aliveNodes(), Fresh.aliveNodes());
  EXPECT_EQ(Reused.numAliveNodes(), Fresh.numAliveNodes());
  unsigned N = Fresh.numNodesTotal();
  for (unsigned A : Fresh.aliveNodes()) {
    EXPECT_EQ(Reused.node(A).VRegs, Fresh.node(A).VRegs) << "node " << A;
    EXPECT_EQ(Reused.node(A).Global, Fresh.node(A).Global) << "node " << A;
    EXPECT_EQ(Reused.node(A).Color, Fresh.node(A).Color) << "node " << A;
    EXPECT_EQ(std::set<unsigned>(Reused.adjacency(A).begin(),
                                 Reused.adjacency(A).end()),
              std::set<unsigned>(Fresh.adjacency(A).begin(),
                                 Fresh.adjacency(A).end()))
        << "node " << A;
    EXPECT_EQ(Reused.effectiveDegree(A), Fresh.effectiveDegree(A))
        << "node " << A;
  }
  for (unsigned A = 0; A != N; ++A)
    for (unsigned B = 0; B != N; ++B)
      EXPECT_EQ(Reused.interfere(A, B), Fresh.interfere(A, B))
          << A << "-" << B;
  EXPECT_EQ(Reused.memoryBytes(), Fresh.memoryBytes());
  for (Reg R : Named)
    EXPECT_EQ(Reused.nodeOf(R), Fresh.nodeOf(R)) << "%" << R;
}

/// Every register either build names: 1..14 and 20..23.
std::vector<Reg> namedByEitherBuild() {
  std::vector<Reg> Named;
  for (Reg R = 1; R <= 14; ++R)
    Named.push_back(R);
  for (Reg R = 20; R <= 23; ++R)
    Named.push_back(R);
  return Named;
}

TEST(InterferenceGraph, RebuildAfterClearEqualsFreshBuild) {
  InterferenceGraph Reused;
  buildFirst(Reused);
  Reused.clear();
  EXPECT_EQ(Reused.numNodesTotal(), 0u);
  EXPECT_EQ(Reused.numAliveNodes(), 0u);
  EXPECT_EQ(Reused.memoryBytes(), 0u);
  buildSecond(Reused);
  InterferenceGraph Fresh;
  buildSecond(Fresh);
  expectSameGraph(Reused, Fresh, namedByEitherBuild());
  for (Reg R : {1u, 2u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u})
    EXPECT_EQ(Reused.nodeOf(R), -1) << "%" << R << " only in the first build";

  // And back to the larger graph: growth past the kept storage.
  Reused.clear();
  buildFirst(Reused);
  InterferenceGraph FreshFirst;
  buildFirst(FreshFirst);
  expectSameGraph(Reused, FreshFirst, namedByEitherBuild());
  for (Reg R : {20u, 21u, 22u, 23u})
    EXPECT_EQ(Reused.nodeOf(R), -1) << "%" << R << " only buildSecond named";
}

TEST(InterferenceGraph, SummaryWrittenOverARetiredOneEqualsAFreshSummary) {
  // Color each build properly (greedy by id) and combine it.
  auto ColorGreedily = [](InterferenceGraph &G) {
    for (unsigned N : G.aliveNodes()) {
      std::set<int> Taken;
      for (unsigned A : G.adjacency(N))
        if (A < N)
          Taken.insert(G.node(A).Color);
      int C = 0;
      while (Taken.count(C))
        ++C;
      G.node(N).Color = C;
    }
  };
  InterferenceGraph First, Second;
  buildFirst(First);
  buildSecond(Second);
  ColorGreedily(First);
  ColorGreedily(Second);

  InterferenceGraph Retired;
  First.combineByColor(Retired);
  EXPECT_GT(Retired.numAliveNodes(), 0u);
  Second.combineByColor(Retired);
  InterferenceGraph FreshSummary;
  Second.combineByColor(FreshSummary);
  expectSameGraph(Retired, FreshSummary, namedByEitherBuild());
  for (Reg R : {1u, 2u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u})
    EXPECT_EQ(Retired.nodeOf(R), -1) << "%" << R << " only in the first build";
}

TEST(InterferenceGraph, MergeKeepsMembersSorted) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(2);
  G.addRegToNode(A, 9);
  G.addRegToNode(A, 5);
  unsigned B = G.getOrCreateNode(7);
  G.addRegToNode(B, 1);
  G.addRegToNode(B, 11);
  G.mergeNodes(A, B);
  EXPECT_EQ(G.node(A).VRegs, (std::vector<Reg>{1, 2, 5, 7, 9, 11}));
  for (Reg R : {1u, 2u, 5u, 7u, 9u, 11u})
    EXPECT_EQ(G.nodeOf(R), static_cast<int>(A));
}

//===----------------------------------------------------------------------===//
// Coloring
//===----------------------------------------------------------------------===//

TEST(Coloring, TriangleNeedsThreeColors) {
  InterferenceGraph G;
  for (Reg R = 1; R <= 3; ++R)
    G.getOrCreateNode(R);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(1, 3);
  ColorResult R2 = colorGraph(G, 2);
  EXPECT_EQ(R2.SpillList.size(), 1u);
  ColorResult R3 = colorGraph(G, 3);
  EXPECT_TRUE(R3.fullyColored());
  std::set<int> Colors;
  for (unsigned N : G.aliveNodes())
    Colors.insert(G.node(N).Color);
  EXPECT_EQ(Colors.size(), 3u);
}

TEST(Coloring, BriggsOptimismColorsTheDiamond) {
  // The classic example: a 4-cycle (diamond) is 2-colorable, but every node
  // has degree 2, so Chaitin's pessimistic rule (spill when no node has
  // degree < k) would spill at k=2. Briggs' deferred spilling colors it
  // (paper §3.1.3 adopts exactly this enhancement).
  InterferenceGraph G;
  for (Reg R = 1; R <= 4; ++R)
    G.getOrCreateNode(R);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  G.addEdge(4, 1);
  for (unsigned N : G.aliveNodes())
    G.node(N).SpillCost = 1.0;
  ColorResult R = colorGraph(G, 2);
  EXPECT_TRUE(R.fullyColored()) << "optimistic coloring succeeds on C4";
  EXPECT_NE(G.colorOf(1), G.colorOf(2));
  EXPECT_NE(G.colorOf(3), G.colorOf(4));
}

TEST(Coloring, FirstFitPrefersLowColors) {
  InterferenceGraph G;
  G.getOrCreateNode(1);
  G.getOrCreateNode(2);
  // No edges: both can share color 0 (the copy-elimination mechanism the
  // paper credits for RAP's wins, §4).
  colorGraph(G, 4);
  EXPECT_EQ(G.colorOf(1), 0);
  EXPECT_EQ(G.colorOf(2), 0);
}

TEST(Coloring, GlobalsNeverShareEvenWithoutEdges) {
  InterferenceGraph G;
  unsigned A = G.getOrCreateNode(1);
  unsigned B = G.getOrCreateNode(2);
  [[maybe_unused]] unsigned C = G.getOrCreateNode(3);
  G.node(A).Global = true;
  G.node(B).Global = true;
  // C is local: it may share with a global.
  ColorResult R = colorGraph(G, 2);
  EXPECT_TRUE(R.fullyColored());
  EXPECT_NE(G.colorOf(1), G.colorOf(2))
      << "paper §3.1.3: global-global exclusion";
  EXPECT_EQ(G.colorOf(3), 0) << "locals use first fit freely";
}

TEST(Coloring, SpillPicksCheapestWhenBlocked) {
  // K4 at k=3: one node must go; it should be the cheapest.
  InterferenceGraph G;
  for (Reg R = 1; R <= 4; ++R)
    G.getOrCreateNode(R);
  for (Reg A = 1; A <= 4; ++A)
    for (Reg B = static_cast<Reg>(A + 1); B <= 4; ++B)
      G.addEdge(A, B);
  G.node(0).SpillCost = 10;
  G.node(1).SpillCost = 0.5; // cheapest
  G.node(2).SpillCost = 10;
  G.node(3).SpillCost = 10;
  ColorResult R = colorGraph(G, 3);
  ASSERT_EQ(R.SpillList.size(), 1u);
  EXPECT_EQ(G.node(R.SpillList[0]).VRegs.front(), 2u)
      << "vreg 2 (node 1) has the least spill cost";
}

TEST(Coloring, EmptyGraphColorsTrivially) {
  InterferenceGraph G;
  ColorResult R = colorGraph(G, 3);
  EXPECT_TRUE(R.fullyColored());
}

} // namespace
