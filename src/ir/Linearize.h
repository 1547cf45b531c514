//===- ir/Linearize.h - Region tree serialization ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a function's region tree into the executable linear ILOC
/// stream: condition code followed by conditional branches, loop back edges,
/// and join fall-throughs. Labels are not instructions — they resolve to
/// positions in the stream — so every entry costs exactly one cycle, matching
/// the paper's interpreter model.
///
/// Linearization also records, for every PDG node, the linear range
/// [LinBegin, LinEnd) its subtree occupies. Because structured regions are
/// single-entry and fall through to their successor, region entry liveness is
/// the liveness before LinBegin and region exit liveness is the liveness
/// before LinEnd.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_IR_LINEARIZE_H
#define RAP_IR_LINEARIZE_H

#include "ir/IlocFunction.h"

#include <string>
#include <vector>

namespace rap {

/// The serialized form of one function. Valid until the next code edit.
struct LinearCode {
  /// Real instructions only (no label pseudo-entries).
  std::vector<Instr *> Instrs;

  /// Label id -> index in Instrs the label refers to (may equal
  /// Instrs.size() for a label at the end of the function).
  std::vector<unsigned> LabelPos;

  std::string str() const;
};

/// Linearizes \p F's region tree. Updates Instr::LinPos and the LinBegin /
/// LinEnd range of every node as a side effect.
LinearCode linearize(IlocFunction &F);

} // namespace rap

#endif // RAP_IR_LINEARIZE_H
