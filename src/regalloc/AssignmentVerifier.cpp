//===- regalloc/AssignmentVerifier.cpp - Coloring checker -------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AssignmentVerifier.h"

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "ir/Linearize.h"
#include "regalloc/AllocError.h"

#include <sstream>

using namespace rap;

std::vector<AssignmentViolation>
rap::verifyAssignment(IlocFunction &F, const InterferenceGraph &Final) {
  std::vector<AssignmentViolation> Out;
  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return Out;
  Cfg G(Code);
  Liveness Live(Code, G, F.numVRegs());

  auto ColorOf = [&](Reg R) { return Final.colorOf(R); };

  for (unsigned P = 0, E = static_cast<unsigned>(Code.Instrs.size()); P != E;
       ++P) {
    const Instr *I = Code.Instrs[P];
    if (!I->hasDef())
      continue;
    Reg D = I->Dst;
    int DC = ColorOf(D);
    if (DC < 0)
      continue;
    Live.liveAfter(P).forEach([&](unsigned L) {
      if (L == D)
        return;
      if (I->Op == Opcode::Mv && L == I->Src[0])
        return;
      if (ColorOf(static_cast<Reg>(L)) != DC)
        return;
      AssignmentViolation V;
      V.Pos = P;
      V.Defined = D;
      V.Clobbered = static_cast<Reg>(L);
      std::ostringstream OS;
      OS << "at " << P << " '" << I->str() << "': def %" << D << " (color "
         << DC << ") clobbers live %" << L;
      V.Text = OS.str();
      Out.push_back(std::move(V));
    });
  }

  // Values simultaneously live at function entry must differ in color.
  std::vector<unsigned> Entry = Live.liveBefore(0).toVector();
  for (size_t A = 0; A != Entry.size(); ++A)
    for (size_t B = A + 1; B != Entry.size(); ++B) {
      int CA = ColorOf(Entry[A]);
      if (CA < 0 || CA != ColorOf(Entry[B]))
        continue;
      AssignmentViolation V;
      V.Pos = 0;
      V.Defined = Entry[A];
      V.Clobbered = Entry[B];
      V.Text = "entry-live registers %" + std::to_string(Entry[A]) + " and %" +
               std::to_string(Entry[B]) + " share color " +
               std::to_string(CA);
      Out.push_back(std::move(V));
    }
  return Out;
}

void rap::checkAssignment(IlocFunction &F, const InterferenceGraph &Final) {
  std::vector<AssignmentViolation> Violations = verifyAssignment(F, Final);
  if (!Violations.empty())
    throwAllocError(AllocErrorKind::VerifierReject,
                    std::to_string(Violations.size()) +
                        " assignment violation(s); first: " +
                        Violations[0].Text,
                    F.name());
}
