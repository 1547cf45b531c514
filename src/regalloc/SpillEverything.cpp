//===- regalloc/SpillEverything.cpp - Guaranteed-correct fallback -----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every referenced virtual register gets a spill slot. Parameters (which
/// arrive in registers) are parked in their slots at function entry; every
/// other value lives in memory from birth: each instruction loads its
/// distinct source registers into fresh temporaries just before executing
/// and stores its result through a fresh temporary just after. The resulting
/// live ranges are atomic — a load temporary spans load..use, a def
/// temporary spans def..store, and nothing else is ever live — so a fixed
/// coloring works with no search:
///
///   * referenced parameter i -> color rank(i) (all parked params coexist
///     at entry, hence need #referenced-params <= k),
///   * the j-th distinct source temporary of an instruction -> color j
///     (all of one instruction's sources coexist at it, hence need
///     #distinct-sources <= k; only Call can exceed 2),
///   * every def temporary -> color 0 (source temporaries die at the
///     instruction, so color 0 is free again at the def).
///
/// Those <= k obligations are calling-convention / ISA facts that bind any
/// allocator for this code, not artifacts of this one, so within them the
/// fallback cannot fail.
///
//===----------------------------------------------------------------------===//

#include "regalloc/SpillEverything.h"

#include "regalloc/AllocSupport.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/PhysicalRewrite.h"
#include "support/Stats.h"

#include <algorithm>

using namespace rap;

AllocStats rap::allocateSpillEverything(IlocFunction &F,
                                        const AllocOptions &Options) {
  allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
             "spill-everything fallback needs an unallocated function");
  allocCheck(Options.K >= 3, AllocErrorKind::Unallocatable,
             "need at least 3 registers for a load/store ISA");

  AllocStats Stats;
  telemetry::FunctionScope *TS = Options.Scope;
  telemetry::ScopedPhase Phase(TS, "spill_everything");
  LinearCode Code = linearize(F);
  const Reg NumOrigVRegs = F.numVRegs(); // temps created below have no slot
  RefInfo Refs(Code, NumOrigVRegs);

  // One slot per referenced virtual register; every value's home is memory.
  std::vector<int> SlotOf(NumOrigVRegs, -1);
  for (Reg V = 0; V != NumOrigVRegs; ++V)
    if (Refs.isReferenced(V))
      SlotOf[V] = F.newSpillSlot();

  // The final assignment, built as registers are created.
  InterferenceGraph Final;
  auto SetColor = [&Final](Reg R, int Color) {
    Final.node(Final.getOrCreateNode(R)).Color = Color;
  };

  // Park referenced parameters. They are simultaneously live at entry, so
  // each needs its own color; ranks compact out unreferenced parameters.
  CodeEditor Editor(F, Stats);
  std::vector<Reg> Parked;
  for (Reg P = 0; P != F.numParams(); ++P)
    if (SlotOf[P] >= 0)
      Parked.push_back(P);
  if (Parked.size() > Options.K)
    throwAllocError(AllocErrorKind::Unallocatable,
                    "function has " + std::to_string(Parked.size()) +
                        " live parameters but only " +
                        std::to_string(Options.K) + " registers",
                    F.name());
  // storeAtRegionEntry prepends, so walk backwards to park in order.
  for (size_t I = Parked.size(); I--;) {
    Reg P = Parked[I];
    SetColor(P, static_cast<int>(I));
    Editor.storeAtRegionEntry(F.root(), P, SlotOf[P]);
  }

  // Rewrite each original instruction to load/operate/store form. The
  // linearization snapshot stays valid: edits add instructions around the
  // originals without moving them.
  for (Instr *I : Code.Instrs) {
    // Distinct sources, in first-occurrence order for determinism.
    std::vector<Reg> Srcs;
    for (Reg R : I->Src)
      if (std::find(Srcs.begin(), Srcs.end(), R) == Srcs.end())
        Srcs.push_back(R);
    if (Srcs.size() > Options.K)
      throwAllocError(AllocErrorKind::Unallocatable,
                      "instruction needs " + std::to_string(Srcs.size()) +
                          " simultaneous sources but only " +
                          std::to_string(Options.K) + " registers exist",
                      F.name());

    for (size_t Idx = 0; Idx != Srcs.size(); ++Idx) {
      Reg V = Srcs[Idx];
      Reg T = F.newVReg();
      SetColor(T, static_cast<int>(Idx));
      Editor.reloadBeforeUse(I, V, T, SlotOf[V]);
    }

    if (I->hasDef()) {
      Reg D = F.newVReg();
      SetColor(D, 0); // source temporaries are dead here
      Editor.storeAfterDef(I, D, SlotOf[I->Dst]);
    }
  }

  for (Reg V = 0; V != NumOrigVRegs; ++V)
    Stats.SpilledVRegs += SlotOf[V] >= 0;
  Stats.GraphBuilds = 1;
  Stats.MaxGraphNodes = Final.numAliveNodes();
  Stats.PeakGraphBytes = Final.memoryBytes();

  // Self-check in checked mode with the same independent oracle the primary
  // allocators answer to.
  if (Options.VerifyAssignments) {
    std::vector<AssignmentViolation> Violations = verifyAssignment(F, Final);
    if (!Violations.empty())
      throwAllocError(AllocErrorKind::VerifierReject,
                      "fallback self-check failed: " + Violations[0].Text,
                      F.name());
  }

  Stats.CopiesDeleted = rewriteToPhysical(F, Final, Options.K, TS);
  return Stats;
}
