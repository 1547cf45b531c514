//===- regalloc/Coloring.h - Briggs optimistic coloring ---------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph simplification and color assignment (paper §3.1.3). Simplify
/// repeatedly removes a node of effective degree < k — or, when blocked, the
/// node of least spill cost — and pushes it on a stack. Colors are assigned
/// optimistically at pop time (the Briggs/Cooper/Kennedy/Torczon enhancement
/// over Chaitin: a blocked node may still color if neighbors were spilled or
/// share colors), first-fit from color 0 (which the paper credits for free
/// copy elimination). A node that finds no color joins the spill list.
///
/// Two global nodes never share a color even without an interference edge
/// (paper §3.1.3: "this virtual register cannot be colored the same color as
/// any other global virtual register").
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_COLORING_H
#define RAP_REGALLOC_COLORING_H

#include "regalloc/InterferenceGraph.h"

#include <vector>

namespace rap {

struct AllocStats;

struct ColorResult {
  /// Node ids that could not be colored, in pop order.
  std::vector<unsigned> SpillList;

  bool fullyColored() const { return SpillList.empty(); }
};

/// Colors \p G with \p K colors. Spill costs must already be set (and
/// divided by degree, per Figure 5). Nodes on the spill list end with
/// Color == -1; all others receive a color in [0, K).
///
/// With \p Stats, counts the call into the Color* fields: nodes seen,
/// cost-forced (blocked) picks, blocked nodes rescued by Briggs optimism,
/// and nodes sent to the spill list.
ColorResult colorGraph(InterferenceGraph &G, unsigned K,
                       AllocStats *Stats = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_COLORING_H
