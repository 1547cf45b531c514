//===- regalloc/InterferenceGraph.cpp - Interference graph -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/InterferenceGraph.h"

#include "regalloc/AllocError.h"

#include <algorithm>
#include <cassert>

using namespace rap;

void InterferenceGraph::mapReg(Reg R, unsigned Id) {
  if (R >= NodeOfReg.size())
    NodeOfReg.resize(R + 1, -1);
  NodeOfReg[R] = static_cast<int>(Id);
}

void InterferenceGraph::clear() {
  for (unsigned I = 0; I != NumNodes; ++I)
    for (Reg R : Nodes[I].VRegs)
      NodeOfReg[R] = -1;
  std::fill(TriWords.begin(), TriWords.begin() + triWords(NumNodes), 0);
  NumNodes = 0;
  NumAlive = 0;
}

unsigned InterferenceGraph::getOrCreateNode(Reg R) {
  int Existing = nodeOf(R);
  if (Existing >= 0)
    return static_cast<unsigned>(Existing);
  unsigned Id = NumNodes++;
  if (Id == Nodes.size()) {
    Nodes.emplace_back();
    Adj.emplace_back();
  }
  // Reset the slot field by field: its vectors keep their capacity.
  Node &N = Nodes[Id];
  N.VRegs.assign(1, R);
  N.SpillCost = 0.0;
  N.Color = -1;
  N.Global = false;
  N.Alive = true;
  Adj[Id].clear();
  // Cover the new node's row of Id bits; words past the old rows are zero.
  size_t Words = triWords(NumNodes);
  if (TriWords.size() < Words)
    TriWords.resize(Words, 0);
  mapReg(R, Id);
  ++NumAlive;
  return Id;
}

void InterferenceGraph::addEdge(Reg A, Reg B) {
  int N1 = nodeOf(A);
  int N2 = nodeOf(B);
  allocCheck(N1 >= 0 && N2 >= 0, AllocErrorKind::InvariantViolation,
             "addEdge on unknown registers");
  addEdgeNodes(static_cast<unsigned>(N1), static_cast<unsigned>(N2));
}

void InterferenceGraph::addEdgeNodes(unsigned N1, unsigned N2) {
  allocCheck(Nodes[N1].Alive && Nodes[N2].Alive,
             AllocErrorKind::InvariantViolation, "edge on dead node");
  if (N1 == N2 || testBit(N1, N2))
    return;
  setBit(N1, N2);
  Adj[N1].push_back(N2);
  Adj[N2].push_back(N1);
}

unsigned InterferenceGraph::mergeNodes(unsigned N1, unsigned N2) {
  allocCheck(N1 != N2, AllocErrorKind::InvariantViolation,
             "merging a node with itself");
  allocCheck(Nodes[N1].Alive && Nodes[N2].Alive,
             AllocErrorKind::InvariantViolation, "merging dead nodes");
  allocCheck(!interfere(N1, N2), AllocErrorKind::InvariantViolation,
             "merging interfering nodes would be uncolorable; the "
             "global-global rule should have prevented this");
  Node &A = Nodes[N1];
  Node &B = Nodes[N2];
  // Both member lists are sorted and disjoint: merge them from the back, in
  // place.
  size_t I = A.VRegs.size(), J = B.VRegs.size();
  A.VRegs.resize(I + J);
  for (size_t Out = I + J; J != 0;)
    A.VRegs[--Out] = I != 0 && A.VRegs[I - 1] > B.VRegs[J - 1]
                         ? A.VRegs[--I]
                         : B.VRegs[--J];
  for (Reg R : B.VRegs)
    mapReg(R, N1);
  A.Global = A.Global || B.Global;
  for (unsigned Other : Adj[N2]) {
    clearBit(N2, Other);
    auto &AO = Adj[Other];
    AO.erase(std::find(AO.begin(), AO.end(), N2));
    if (Other != N1 && !testBit(N1, Other)) {
      setBit(N1, Other);
      Adj[N1].push_back(Other);
      AO.push_back(N1);
    }
  }
  Adj[N2].clear();
  B.Alive = false;
  B.VRegs.clear();
  --NumAlive;
  return N1;
}

void InterferenceGraph::renameReg(Reg OldReg, Reg NewReg) {
  int IdS = nodeOf(OldReg);
  if (IdS < 0)
    return;
  unsigned Id = static_cast<unsigned>(IdS);
  NodeOfReg[OldReg] = -1;
  allocCheck(nodeOf(NewReg) < 0, AllocErrorKind::InvariantViolation,
             "rename target already present");
  mapReg(NewReg, Id);
  auto &VR = Nodes[Id].VRegs;
  *std::find(VR.begin(), VR.end(), OldReg) = NewReg;
  std::sort(VR.begin(), VR.end());
}

void InterferenceGraph::addRegToNode(unsigned Id, Reg R) {
  allocCheck(Nodes[Id].Alive, AllocErrorKind::InvariantViolation,
             "adding register to a dead node");
  allocCheck(nodeOf(R) < 0, AllocErrorKind::InvariantViolation,
             "register already present in the graph");
  auto &VR = Nodes[Id].VRegs;
  VR.insert(std::lower_bound(VR.begin(), VR.end(), R), R);
  mapReg(R, Id);
}

std::vector<unsigned> InterferenceGraph::aliveNodes() const {
  std::vector<unsigned> Out;
  Out.reserve(NumAlive);
  for (unsigned I = 0; I != NumNodes; ++I)
    if (Nodes[I].Alive)
      Out.push_back(I);
  return Out;
}

unsigned InterferenceGraph::effectiveDegree(unsigned Id) const {
  allocCheck(Nodes[Id].Alive, AllocErrorKind::InvariantViolation,
             "degree of a dead node");
  // Adjacency lists only ever name alive nodes (see class comment).
  unsigned Deg = static_cast<unsigned>(Adj[Id].size());
  if (Nodes[Id].Global) {
    for (unsigned I = 0; I != NumNodes; ++I)
      if (I != Id && Nodes[I].Alive && Nodes[I].Global && !testBit(Id, I))
        ++Deg;
  }
  return Deg;
}

size_t InterferenceGraph::memoryBytes() const {
  size_t Bytes = triWords(NumNodes) * sizeof(uint64_t);
  for (unsigned I = 0; I != NumNodes; ++I)
    Bytes += Adj[I].size() * sizeof(unsigned) +
             Nodes[I].VRegs.size() * (sizeof(Reg) + sizeof(int));
  return Bytes;
}

void InterferenceGraph::combineByColor(InterferenceGraph &Out) const {
  Out.clear();
  // Size the reg -> node map once, for the largest member register.
  size_t MapSize = 0;
  for (unsigned I = 0; I != NumNodes; ++I)
    if (Nodes[I].Alive)
      MapSize = std::max<size_t>(MapSize, Nodes[I].VRegs.back() + size_t(1));
  if (Out.NodeOfReg.size() < MapSize)
    Out.NodeOfReg.resize(MapSize, -1);
  for (unsigned I = 0; I != NumNodes; ++I) {
    const Node &N = Nodes[I];
    if (!N.Alive)
      continue;
    allocCheck(N.Color >= 0, AllocErrorKind::InvariantViolation,
               "combining an uncolored graph");
    // Out holds one node per color seen so far (at most K): a scan finds
    // this color's node.
    unsigned Tgt = 0;
    while (Tgt != Out.NumNodes && Out.Nodes[Tgt].Color != N.Color)
      ++Tgt;
    if (Tgt == Out.NumNodes) {
      Out.getOrCreateNode(N.VRegs.front());
      Out.Nodes[Tgt].Color = N.Color;
      for (size_t V = 1; V < N.VRegs.size(); ++V) {
        Out.Nodes[Tgt].VRegs.push_back(N.VRegs[V]);
        Out.mapReg(N.VRegs[V], Tgt);
      }
    } else {
      for (Reg R : N.VRegs) {
        Out.Nodes[Tgt].VRegs.push_back(R);
        Out.mapReg(R, Tgt);
      }
    }
    Out.Nodes[Tgt].Global = Out.Nodes[Tgt].Global || N.Global;
  }
  for (unsigned I = 0; I != Out.NumNodes; ++I)
    std::sort(Out.Nodes[I].VRegs.begin(), Out.Nodes[I].VRegs.end());
  // Edges: colors interfere when any member nodes interfered. A node's
  // first member names its color's node in Out.
  for (unsigned I = 0; I != NumNodes; ++I) {
    if (!Nodes[I].Alive)
      continue;
    unsigned A = static_cast<unsigned>(Out.nodeOf(Nodes[I].VRegs.front()));
    for (unsigned J : Adj[I]) {
      if (J < I)
        continue;
      unsigned B = static_cast<unsigned>(Out.nodeOf(Nodes[J].VRegs.front()));
      allocCheck(A != B, AllocErrorKind::InvariantViolation,
                 "properly colored graphs cannot merge adjacent nodes");
      Out.addEdgeNodes(A, B);
    }
  }
}
