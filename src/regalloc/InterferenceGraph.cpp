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

unsigned InterferenceGraph::getOrCreateNode(Reg R) {
  int Existing = nodeOf(R);
  if (Existing >= 0)
    return static_cast<unsigned>(Existing);
  unsigned Id = static_cast<unsigned>(Nodes.size());
  Node N;
  N.VRegs.push_back(R);
  Nodes.push_back(std::move(N));
  Adj.emplace_back();
  // Grow the triangular matrix to cover the new node's row of Id bits.
  size_t Bits = static_cast<size_t>(Id) * (Id + 1) / 2;
  TriWords.resize((Bits + 63) / 64, 0);
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
  for (Reg R : B.VRegs) {
    A.VRegs.push_back(R);
    mapReg(R, N1);
  }
  std::sort(A.VRegs.begin(), A.VRegs.end());
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
  for (unsigned I = 0, E = static_cast<unsigned>(Nodes.size()); I != E; ++I)
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
    for (unsigned I = 0, E = static_cast<unsigned>(Nodes.size()); I != E; ++I)
      if (I != Id && Nodes[I].Alive && Nodes[I].Global && !testBit(Id, I))
        ++Deg;
  }
  return Deg;
}

size_t InterferenceGraph::memoryBytes() const {
  size_t Bytes = TriWords.capacity() * sizeof(uint64_t) +
                 NodeOfReg.capacity() * sizeof(int);
  for (const auto &A : Adj)
    Bytes += A.capacity() * sizeof(unsigned);
  return Bytes;
}

InterferenceGraph InterferenceGraph::combinedByColor() const {
  InterferenceGraph Out;
  // Size the reg -> node map once, for the largest member register.
  size_t MapSize = 0;
  for (const Node &N : Nodes)
    if (N.Alive)
      MapSize = std::max<size_t>(MapSize, N.VRegs.back() + size_t(1));
  Out.NodeOfReg.assign(MapSize, -1);
  std::vector<int> NodeOfColor; // color -> Out node id, -1 = none yet
  for (unsigned I = 0, E = static_cast<unsigned>(Nodes.size()); I != E; ++I) {
    const Node &N = Nodes[I];
    if (!N.Alive)
      continue;
    allocCheck(N.Color >= 0, AllocErrorKind::InvariantViolation,
               "combining an uncolored graph");
    unsigned C = static_cast<unsigned>(N.Color);
    if (C >= NodeOfColor.size())
      NodeOfColor.resize(C + 1, -1);
    if (NodeOfColor[C] < 0) {
      unsigned NewId = Out.getOrCreateNode(N.VRegs.front());
      for (size_t V = 1; V < N.VRegs.size(); ++V) {
        Out.Nodes[NewId].VRegs.push_back(N.VRegs[V]);
        Out.mapReg(N.VRegs[V], NewId);
      }
      Out.Nodes[NewId].Global = N.Global;
      Out.Nodes[NewId].Color = N.Color;
      NodeOfColor[C] = static_cast<int>(NewId);
    } else {
      unsigned Tgt = static_cast<unsigned>(NodeOfColor[C]);
      for (Reg R : N.VRegs) {
        Out.Nodes[Tgt].VRegs.push_back(R);
        Out.mapReg(R, Tgt);
      }
      Out.Nodes[Tgt].Global = Out.Nodes[Tgt].Global || N.Global;
    }
  }
  for (auto &N : Out.Nodes)
    std::sort(N.VRegs.begin(), N.VRegs.end());
  // Edges: colors interfere when any member nodes interfered.
  for (unsigned I = 0, E = static_cast<unsigned>(Nodes.size()); I != E; ++I) {
    if (!Nodes[I].Alive)
      continue;
    for (unsigned J : Adj[I]) {
      if (J < I)
        continue;
      unsigned A = static_cast<unsigned>(NodeOfColor[Nodes[I].Color]);
      unsigned B = static_cast<unsigned>(NodeOfColor[Nodes[J].Color]);
      allocCheck(A != B, AllocErrorKind::InvariantViolation,
                 "properly colored graphs cannot merge adjacent nodes");
      Out.addEdgeNodes(A, B);
    }
  }
  return Out;
}
