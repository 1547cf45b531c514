//===- regalloc/Peephole.cpp - Figure 6 spill cleanup -----------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Peephole.h"

#include "regalloc/AllocError.h"
#include "regalloc/RegSlotMatrix.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "support/Stats.h"

#include <vector>

using namespace rap;

void rap::peepholeSpillCleanup(IlocFunction &F, AllocStats &Stats,
                               telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "peephole");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "peephole runs on physical code");
  unsigned NumSlots = static_cast<unsigned>(F.numSpillSlots());
  if (NumSlots == 0)
    return; // no spill code to clean

  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return;
  Cfg G(Code);

  std::vector<char> Dead(Code.Instrs.size(), 0); // by linear position
  bool AnyDead = false;
  // Register<->slot value equivalences within one basic block.
  RegSlotMatrix State(F.numPhysRegs(), NumSlots);

  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    State.clear();
    const BasicBlock &BB = G.block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      Instr *I = Code.Instrs[P];
      if (I->Op == Opcode::LdSpill) {
        if (State.holds(I->Dst, I->Slot)) {
          Dead[P] = AnyDead = true; // patterns 1 and 4
          ++Stats.PeepholeRemovedLoads;
          continue;
        }
        Reg Src = State.lowestHolder(I->Slot);
        if (Src != NoReg) {
          // Pattern 2: the value is in another register; copy instead.
          I->Op = Opcode::Mv;
          I->Src = {Src};
          I->Slot = -1;
          ++Stats.PeepholeLoadsToCopies;
        }
      } else if (I->Op == Opcode::StSpill &&
                 State.holds(I->Src[0], I->Slot)) {
        Dead[P] = AnyDead = true; // patterns 3 and 5
        ++Stats.PeepholeRemovedStores;
        continue;
      }
      State.transfer(I);
    }
  }

  if (AnyDead)
    F.root()->eraseInstrs([&](const Instr *I) { return Dead[I->LinPos]; });
}
