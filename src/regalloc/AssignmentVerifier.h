//===- regalloc/AssignmentVerifier.h - Coloring checker ---------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent validity check of a register assignment: recomputes liveness
/// from scratch and reports every place where two simultaneously live
/// virtual registers received the same color. Used by tests and available
/// to allocator debugging; it is an oracle that does not share code with
/// interference-graph construction.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ASSIGNMENTVERIFIER_H
#define RAP_REGALLOC_ASSIGNMENTVERIFIER_H

#include "ir/IlocFunction.h"
#include "regalloc/InterferenceGraph.h"

#include <string>
#include <vector>

namespace rap {

struct AssignmentViolation {
  unsigned Pos = 0; ///< linear position of the defining instruction
  Reg Defined = NoReg;
  Reg Clobbered = NoReg; ///< live register sharing the color
  std::string Text;      ///< human-readable description
};

/// Checks \p Final against \p F (still in virtual registers). A violation
/// is a definition of a register whose color is also the color of a
/// different register live after the definition (copy sources excepted).
std::vector<AssignmentViolation>
verifyAssignment(IlocFunction &F, const InterferenceGraph &Final);

/// Checked mode's gate for GRA and RAP: raises AllocError(VerifierReject),
/// counting the violations and quoting the first, when verifyAssignment
/// rejects \p Final.
void checkAssignment(IlocFunction &F, const InterferenceGraph &Final);

} // namespace rap

#endif // RAP_REGALLOC_ASSIGNMENTVERIFIER_H
