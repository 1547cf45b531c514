//===- ir/RegionTree.h - PDG region hierarchy -------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hierarchical control-region structure of the PDG (paper §2.2 and
/// Figure 1). Nodes are region nodes, predicate nodes, and statement nodes
/// carrying ILOC code — the same shape pdgcc produced. The region tree is
/// both the allocation structure RAP walks and the code container that the
/// linearizer serializes back into executable ILOC.
///
/// A *region* (paper terminology) is a region node plus all of its control
/// dependence successors; the *parent region* is the topmost region node.
/// forEachParentInstr() visits the intermediate code attached at the parent
/// level (statement leaves and predicate condition code that are direct
/// children); forEachSubregion() visits the child region nodes, including
/// the branch arms hanging off direct predicate children.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_IR_REGIONTREE_H
#define RAP_IR_REGIONTREE_H

#include "ir/Instr.h"

#include <cassert>
#include <functional>
#include <vector>

namespace rap {

enum class PdgNodeKind {
  Region,    ///< groups children executed under the same control conditions
  Predicate, ///< an if or loop condition with controlled branch regions
  Statement, ///< a leaf holding straight-line ILOC code
};

class PdgNode {
public:
  explicit PdgNode(PdgNodeKind Kind) : Kind(Kind) {}

  PdgNodeKind kind() const { return Kind; }
  bool isRegion() const { return Kind == PdgNodeKind::Region; }
  bool isPredicate() const { return Kind == PdgNodeKind::Predicate; }
  bool isStatement() const { return Kind == PdgNodeKind::Statement; }

  /// Stable id for printing/DOT (assigned by IlocFunction).
  int Id = -1;

  PdgNode *Parent = nullptr;

  //===------------------------------------------------------------------===//
  // Statement leaves and predicate condition code.
  //===------------------------------------------------------------------===//

  /// Straight-line ILOC: a statement's code, or a predicate's condition
  /// computation (excluding the branch itself).
  std::vector<Instr *> Code;

  //===------------------------------------------------------------------===//
  // Predicate nodes.
  //===------------------------------------------------------------------===//

  /// The conditional branch consuming the condition value. Owned here so the
  /// branch's register use participates in liveness and allocation.
  Instr *Branch = nullptr;

  /// Unconditional jump emitted at the end of the true arm of an if with an
  /// else arm (jump to the join point), or the loop back edge jump for a
  /// loop predicate.
  Instr *Jump = nullptr;

  PdgNode *TrueRegion = nullptr;
  PdgNode *FalseRegion = nullptr;

  /// Labels used when linearizing this predicate.
  int TrueLabel = -1;
  int FalseLabel = -1;
  int JoinLabel = -1; ///< if: join point; loop: the loop head

  //===------------------------------------------------------------------===//
  // Region nodes.
  //===------------------------------------------------------------------===//

  std::vector<PdgNode *> Children;

  /// True for the topmost region node of a loop (Figure 1's R2). Children
  /// before the predicate child linearize before the loop head (the paper's
  /// pre-loop spill node position); children after it linearize after the
  /// loop exit (the post-loop spill node position).
  bool IsLoop = false;

  //===------------------------------------------------------------------===//
  // Linearization bookkeeping (maintained by Linearize).
  //===------------------------------------------------------------------===//

  /// Linear index range [LinBegin, LinEnd) covered by this subtree.
  unsigned LinBegin = 0;
  unsigned LinEnd = 0;

  //===------------------------------------------------------------------===//
  // Structure queries.
  //===------------------------------------------------------------------===//

  /// Index of the predicate child of a loop region.
  unsigned loopPredicateIndex() const {
    assert(isRegion() && IsLoop && "not a loop region");
    for (unsigned I = 0, E = Children.size(); I != E; ++I)
      if (Children[I]->isPredicate())
        return I;
    assert(false && "loop region without predicate child");
    return 0;
  }

  /// Visits the intermediate code attached directly at this region's level:
  /// statement leaves and predicate condition code + branch, in order.
  template <typename FnT> void forEachParentInstr(FnT &&Fn) const {
    assert(isRegion() && "parent code is a region query");
    for (const PdgNode *C : Children) {
      if (C->isRegion())
        continue;
      for (Instr *I : C->Code)
        Fn(I);
      if (C->isPredicate() && C->Branch)
        Fn(C->Branch);
    }
  }

  /// Visits the child regions of this region, including branch arms of
  /// direct predicate children, in order.
  template <typename FnT> void forEachSubregion(FnT &&Fn) const {
    assert(isRegion() && "subregions is a region query");
    for (PdgNode *C : Children) {
      if (C->isRegion()) {
        Fn(C);
        continue;
      }
      if (C->isPredicate()) {
        if (C->TrueRegion)
          Fn(C->TrueRegion);
        if (C->FalseRegion)
          Fn(C->FalseRegion);
      }
    }
  }

  /// Erases the instructions for which \p IsDead(I) is true from the code of
  /// every statement and predicate node in the subtree rooted here.
  /// Branches and join jumps are not code and stay.
  template <typename PredT> void eraseInstrs(PredT &&IsDead) {
    forEachNode([&](const PdgNode *N) {
      if (N->isStatement() || N->isPredicate())
        std::erase_if(const_cast<PdgNode *>(N)->Code, IsDead);
    });
  }

  /// Visits every instruction in the subtree rooted here, in linear order.
  /// Templated (not std::function) so the per-instruction callback inlines —
  /// this runs inside the allocator's graph-build inner loop.
  template <typename FnT> void forEachInstr(FnT &&Fn) const {
    switch (Kind) {
    case PdgNodeKind::Statement:
      for (Instr *I : Code)
        Fn(I);
      return;
    case PdgNodeKind::Predicate:
      for (Instr *I : Code)
        Fn(I);
      if (Branch)
        Fn(Branch);
      if (TrueRegion)
        TrueRegion->forEachInstr(Fn);
      if (Jump)
        Fn(Jump);
      if (FalseRegion)
        FalseRegion->forEachInstr(Fn);
      return;
    case PdgNodeKind::Region:
      for (const PdgNode *C : Children)
        C->forEachInstr(Fn);
      return;
    }
  }

  /// Visits every node in the subtree (preorder), including this node.
  template <typename FnT> void forEachNode(FnT &&Fn) const {
    Fn(this);
    if (isPredicate()) {
      if (TrueRegion)
        TrueRegion->forEachNode(Fn);
      if (FalseRegion)
        FalseRegion->forEachNode(Fn);
      return;
    }
    for (const PdgNode *C : Children)
      C->forEachNode(Fn);
  }

private:
  PdgNodeKind Kind;
};

} // namespace rap

#endif // RAP_IR_REGIONTREE_H
