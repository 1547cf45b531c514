//===- regalloc/Coloring.cpp - Briggs optimistic coloring -------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"

#include "regalloc/AllocError.h"
#include "regalloc/AllocOutcome.h"

#include <limits>

using namespace rap;

ColorResult rap::colorGraph(InterferenceGraph &G, unsigned K,
                            AllocStats *Stats, ColorScratch *Scratch) {
  ColorScratch Local;
  ColorScratch &S = Scratch ? *Scratch : Local;
  std::vector<unsigned> &Alive = S.Alive;
  Alive.clear();
  for (unsigned N = 0, E = G.numNodesTotal(); N != E; ++N)
    if (G.node(N).Alive) {
      Alive.push_back(N);
      G.node(N).Color = -1;
    }

  // Dynamic degree bookkeeping while nodes leave the graph.
  unsigned Total = G.numNodesTotal();
  std::vector<char> &InGraph = S.InGraph;
  std::vector<unsigned> &AdjCount = S.AdjCount; // alive, in-graph neighbors
  std::vector<unsigned> &AdjGlobalCount = S.AdjGlobalCount;
  InGraph.assign(Total, 0);
  AdjCount.assign(Total, 0);
  AdjGlobalCount.assign(Total, 0);
  unsigned GlobalsInGraph = 0;
  for (unsigned N : Alive) {
    InGraph[N] = 1;
    if (G.node(N).Global)
      ++GlobalsInGraph;
  }
  // Adjacency lists hold only alive neighbors, so counts read directly.
  for (unsigned N : Alive) {
    AdjCount[N] = static_cast<unsigned>(G.adjacency(N).size());
    for (unsigned A : G.adjacency(N))
      if (G.node(A).Global)
        ++AdjGlobalCount[N];
  }

  auto EffDegree = [&](unsigned N) {
    unsigned D = AdjCount[N];
    if (G.node(N).Global)
      D += GlobalsInGraph - 1 - AdjGlobalCount[N];
    return D;
  };

  auto Remove = [&](unsigned N) {
    InGraph[N] = 0;
    bool WasGlobal = G.node(N).Global;
    if (WasGlobal)
      --GlobalsInGraph;
    for (unsigned A : G.adjacency(N)) {
      if (!InGraph[A])
        continue;
      --AdjCount[A];
      if (WasGlobal)
        --AdjGlobalCount[A];
    }
  };

  // Simplify: build the coloring stack.
  std::vector<unsigned> &Stack = S.Stack;
  std::vector<char> &CostPick = S.CostPick; // blocked picks, for the stats
  Stack.clear();
  CostPick.assign(Total, 0);
  unsigned Remaining = static_cast<unsigned>(Alive.size());
  while (Remaining != 0) {
    int Pick = -1;
    // Prefer a trivially colorable node (lowest id for determinism).
    for (unsigned N : Alive)
      if (InGraph[N] && EffDegree(N) < K) {
        Pick = static_cast<int>(N);
        break;
      }
    if (Pick < 0) {
      // Blocked: remove the cheapest node; it becomes a spill candidate but
      // may still color at pop time (Briggs optimism).
      double BestCost = std::numeric_limits<double>::infinity();
      for (unsigned N : Alive) {
        if (!InGraph[N])
          continue;
        if (G.node(N).SpillCost < BestCost) {
          BestCost = G.node(N).SpillCost;
          Pick = static_cast<int>(N);
        }
      }
      if (Pick >= 0)
        CostPick[Pick] = 1;
    }
    allocCheck(Pick >= 0, AllocErrorKind::InvariantViolation,
               "no node to simplify");
    Remove(static_cast<unsigned>(Pick));
    Stack.push_back(static_cast<unsigned>(Pick));
    --Remaining;
  }

  // Color in reverse removal order, first-fit.
  ColorResult Res;
  std::vector<char> &GlobalColorUsed = S.GlobalColorUsed;
  std::vector<char> &Forbidden = S.Forbidden;
  GlobalColorUsed.assign(K, 0);
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    Forbidden.assign(K, 0);
    for (unsigned A : G.adjacency(N)) {
      int C = G.node(A).Color;
      if (C >= 0)
        Forbidden[C] = 1;
    }
    if (G.node(N).Global)
      for (unsigned C = 0; C != K; ++C)
        if (GlobalColorUsed[C])
          Forbidden[C] = 1;
    int Chosen = -1;
    for (unsigned C = 0; C != K; ++C)
      if (!Forbidden[C]) {
        Chosen = static_cast<int>(C);
        break;
      }
    if (Chosen < 0) {
      Res.SpillList.push_back(N);
      continue;
    }
    G.node(N).Color = Chosen;
    if (G.node(N).Global)
      GlobalColorUsed[Chosen] = 1;
    if (Stats && CostPick[N])
      ++Stats->ColorOptimistic; // Briggs rescue
  }
  if (Stats) {
    ++Stats->ColorInvocations;
    Stats->ColorNodes += static_cast<unsigned>(Alive.size());
    for (unsigned N : Alive)
      Stats->ColorBlockedPicks += CostPick[N];
    Stats->ColorSpilledNodes += static_cast<unsigned>(Res.SpillList.size());
  }
  return Res;
}
