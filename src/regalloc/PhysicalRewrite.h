//===- regalloc/PhysicalRewrite.h - VReg -> physical rewrite ----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rewrites a colored function to physical registers and deletes copies
/// whose operands landed in the same register — the paper's observation that
/// "a copy statement in the unallocated iloc code can be eliminated when
/// both operands of the copy are allocated the same register" (§4).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_PHYSICALREWRITE_H
#define RAP_REGALLOC_PHYSICALREWRITE_H

#include "ir/IlocFunction.h"
#include "regalloc/InterferenceGraph.h"

namespace rap {

namespace telemetry {
class FunctionScope;
} // namespace telemetry

/// Rewrites every operand of \p F from virtual registers to the colors in
/// \p Final (which must color every referenced virtual register), marks the
/// function allocated with \p K physical registers, records the parameter
/// registers, and removes now-trivial copies. Returns the number of copies
/// deleted. With a telemetry \p Scope, the pass is timed as a "rewrite"
/// slice.
unsigned rewriteToPhysical(IlocFunction &F, const InterferenceGraph &Final,
                           unsigned K,
                           telemetry::FunctionScope *Scope = nullptr);

} // namespace rap

#endif // RAP_REGALLOC_PHYSICALREWRITE_H
