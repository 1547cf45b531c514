//===- pdg/DataDependence.h - Flow dependences ------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register flow (def-use) dependences computed with a classic reaching-
/// definitions dataflow over the linearized ILOC. These are the data
/// dependence edges of the PDG (paper §2.2, Figure 1 — including the cyclic
/// self-dependence of `i = i + 1` inside a loop). Register allocation reads
/// flow dependences one register at a time: RAP's spill insertion asks
/// RefInfo::flowDeps (regalloc/AllocSupport.h), which derives them from the
/// register's def/use positions without a dataflow solve. This
/// whole-function solve is that query's reference (tests/flow_deps_test.cpp)
/// and feeds the DOT export.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_PDG_DATADEPENDENCE_H
#define RAP_PDG_DATADEPENDENCE_H

#include "cfg/Cfg.h"
#include "ir/Linearize.h"

#include <vector>

namespace rap {

/// A flow dependence: the value defined at instruction position DefPos
/// reaches the use at position UsePos of register R.
struct FlowDep {
  unsigned DefPos = 0;
  unsigned UsePos = 0;
  Reg R = NoReg;

  bool operator<(const FlowDep &O) const {
    if (DefPos != O.DefPos)
      return DefPos < O.DefPos;
    if (UsePos != O.UsePos)
      return UsePos < O.UsePos;
    return R < O.R;
  }
  bool operator==(const FlowDep &O) const {
    return DefPos == O.DefPos && UsePos == O.UsePos && R == O.R;
  }
};

class DataDependence {
public:
  DataDependence(const LinearCode &Code, const Cfg &G, unsigned NumVRegs);

  /// All flow dependences, sorted by (def, use).
  const std::vector<FlowDep> &flowDeps() const { return Flows; }

  /// The definition positions reaching the use of \p R at \p UsePos.
  std::vector<unsigned> reachingDefs(unsigned UsePos, Reg R) const;

private:
  std::vector<FlowDep> Flows;
};

} // namespace rap

#endif // RAP_PDG_DATADEPENDENCE_H
