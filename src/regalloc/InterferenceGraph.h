//===- regalloc/InterferenceGraph.h - Interference graph --------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference graph shared by GRA and RAP. Nodes represent *sets* of
/// virtual registers: GRA only ever uses singletons, while RAP's combine
/// step (paper §3.1.5) merges same-colored nodes so a parent region sees at
/// most k nodes per subregion, and add_subregion_conflicts unions nodes that
/// name the same virtual register (paper §3.1.1, Figure 3's {a,e} node).
///
/// A node may be flagged Global (some member virtual register is referenced
/// outside the region being colored). Per paper §3.1.2-3, two global nodes
/// may never share a color even without an edge; this shows up both in the
/// effective degree (used to prioritize spills) and as a hard constraint in
/// color assignment.
///
/// Representation (see DESIGN.md "Performance architecture"): edge presence
/// lives in a lower-triangular bit matrix for O(1) interfere(); per-node
/// flat adjacency vectors (deduplicated against the matrix, alive neighbors
/// only) serve iteration; and the reg -> node map is a dense Reg-indexed
/// vector. Node ids are never reused within a build, and only mergeNodes
/// removes edges (the dead node's), so adjacency vectors only ever name
/// alive nodes. clear() starts a new build in the same storage: RAP rebuilds
/// one graph object every region round.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_INTERFERENCEGRAPH_H
#define RAP_REGALLOC_INTERFERENCEGRAPH_H

#include "ir/Instr.h"

#include <cstdint>
#include <vector>

namespace rap {

class InterferenceGraph {
public:
  struct Node {
    std::vector<Reg> VRegs; ///< sorted member virtual registers
    double SpillCost = 0.0;
    int Color = -1;
    bool Global = false;
    bool Alive = true;
  };

  //===------------------------------------------------------------------===//
  // Construction
  //===------------------------------------------------------------------===//

  /// Empties the graph for a new build but keeps its storage: node slots
  /// with their member lists, adjacency lists, matrix words and the
  /// reg -> node map keep their capacity, so rebuilding allocates only when
  /// a build outgrows every earlier one. Costs O(nodes + members + matrix
  /// words in use).
  void clear();

  /// Returns the node containing \p R, creating a singleton if absent.
  unsigned getOrCreateNode(Reg R);

  /// Returns the node containing \p R or -1.
  int nodeOf(Reg R) const {
    return R < NodeOfReg.size() ? NodeOfReg[R] : -1;
  }

  bool hasReg(Reg R) const { return nodeOf(R) >= 0; }

  /// Adds an interference edge between the nodes of \p A and \p B (both must
  /// exist). A no-op when they are the same node.
  void addEdge(Reg A, Reg B);
  void addEdgeNodes(unsigned N1, unsigned N2);

  /// Unions node \p N2 into \p N1 (used when a subregion node names a
  /// virtual register already present). The nodes must not interfere.
  /// Returns the surviving node id (\p N1).
  unsigned mergeNodes(unsigned N1, unsigned N2);

  /// Replaces \p OldReg by \p NewReg inside its node (spill renaming,
  /// paper §3.1.4). No-op if \p OldReg is absent.
  void renameReg(Reg OldReg, Reg NewReg);

  /// Adds \p R as a member of node \p Id (importing a subregion node whose
  /// members are partly new at this level). \p R must not be in the graph.
  void addRegToNode(unsigned Id, Reg R);

  //===------------------------------------------------------------------===//
  // Queries
  //===------------------------------------------------------------------===//

  unsigned numNodesTotal() const { return NumNodes; }
  unsigned numAliveNodes() const { return NumAlive; }
  std::vector<unsigned> aliveNodes() const;

  Node &node(unsigned Id) { return Nodes[Id]; }
  const Node &node(unsigned Id) const { return Nodes[Id]; }

  /// The alive neighbors of \p Id, deduplicated, in edge insertion order
  /// (deterministic, not sorted).
  const std::vector<unsigned> &adjacency(unsigned Id) const {
    return Adj[Id];
  }

  bool interfere(unsigned N1, unsigned N2) const {
    return N1 != N2 && testBit(N1, N2);
  }

  /// Number of alive neighbors plus, for a global node, the number of alive
  /// non-adjacent global nodes (paper Figure 5's degree increments).
  unsigned effectiveDegree(unsigned Id) const;

  /// The color assigned to the node containing \p R, or -1.
  int colorOf(Reg R) const {
    int N = nodeOf(R);
    return N < 0 ? -1 : Nodes[N].Color;
  }

  /// Writes the combined graph into \p Out, replacing its content but
  /// reusing its storage: one node per used color, members unioned, edges
  /// connecting colors whose nodes interfered (paper §3.1.5). All alive
  /// nodes must be colored.
  void combineByColor(InterferenceGraph &Out) const;

  /// Bytes this graph's content needs in exactly sized storage: the edge
  /// matrix over its node ids, two adjacency entries per edge, and each
  /// member register once in its node and once in the reg -> node map —
  /// the space side of the paper's time/space trade-off. A function of the
  /// content only, so a graph built into reused storage reports what the
  /// same graph built fresh does.
  size_t memoryBytes() const;

private:
  /// Index of the (\p N1, \p N2) pair in the lower-triangular matrix;
  /// requires N1 != N2.
  /// Matrix words covering \p NumNodes node ids.
  static size_t triWords(unsigned NumNodes) {
    size_t Bits = NumNodes ? static_cast<size_t>(NumNodes) * (NumNodes - 1) / 2
                           : 0;
    return (Bits + 63) / 64;
  }
  static size_t triIndex(unsigned N1, unsigned N2) {
    unsigned Hi = N1 > N2 ? N1 : N2;
    unsigned Lo = N1 > N2 ? N2 : N1;
    return static_cast<size_t>(Hi) * (Hi - 1) / 2 + Lo;
  }
  bool testBit(unsigned N1, unsigned N2) const {
    size_t I = triIndex(N1, N2);
    return (TriWords[I / 64] >> (I % 64)) & 1;
  }
  void setBit(unsigned N1, unsigned N2) {
    size_t I = triIndex(N1, N2);
    TriWords[I / 64] |= uint64_t(1) << (I % 64);
  }
  void clearBit(unsigned N1, unsigned N2) {
    size_t I = triIndex(N1, N2);
    TriWords[I / 64] &= ~(uint64_t(1) << (I % 64));
  }
  void mapReg(Reg R, unsigned Id);

  /// Node slots; [0, NumNodes) hold this build's nodes and the rest are
  /// storage kept from earlier builds.
  std::vector<Node> Nodes;
  /// Alive-neighbor lists, kept duplicate-free via the bit matrix; indexed
  /// like Nodes.
  std::vector<std::vector<unsigned>> Adj;
  /// Lower-triangular edge matrix over node ids: bit (i,j), i > j, at index
  /// i*(i-1)/2 + j. At least triWords(NumNodes) words; every word past
  /// those is zero.
  std::vector<uint64_t> TriWords;
  /// Dense reg -> node id map; -1 = not in the graph. Every register it
  /// maps is a member of an alive node.
  std::vector<int> NodeOfReg;
  unsigned NumNodes = 0;
  unsigned NumAlive = 0;
};

} // namespace rap

#endif // RAP_REGALLOC_INTERFERENCEGRAPH_H
