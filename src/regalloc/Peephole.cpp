//===- regalloc/Peephole.cpp - Figure 6 spill cleanup -----------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Peephole.h"

#include "regalloc/AllocError.h"

#include "cfg/Cfg.h"
#include "ir/Linearize.h"
#include "support/Stats.h"

#include <cassert>
#include <map>
#include <set>
#include <vector>

using namespace rap;

namespace {

/// Register<->slot value equivalences within one basic block.
class EquivState {
public:
  void reset() {
    RegSlots.clear();
    SlotRegs.clear();
  }

  bool regHoldsSlot(Reg R, int Slot) const {
    auto It = SlotRegs.find(Slot);
    return It != SlotRegs.end() && It->second.count(R);
  }

  /// Some register currently holding \p Slot's value, or NoReg.
  Reg anyRegForSlot(int Slot) const {
    auto It = SlotRegs.find(Slot);
    if (It == SlotRegs.end() || It->second.empty())
      return NoReg;
    return *It->second.begin();
  }

  void invalidateReg(Reg R) {
    auto It = RegSlots.find(R);
    if (It == RegSlots.end())
      return;
    for (int S : It->second)
      SlotRegs[S].erase(R);
    RegSlots.erase(It);
  }

  void addEquiv(Reg R, int Slot) {
    RegSlots[R].insert(Slot);
    SlotRegs[Slot].insert(R);
  }

  /// A store rebinds the slot: only \p R holds its (new) value.
  void rebindSlot(int Slot, Reg R) {
    auto It = SlotRegs.find(Slot);
    if (It != SlotRegs.end()) {
      for (Reg Old : It->second)
        RegSlots[Old].erase(Slot);
      It->second.clear();
    }
    addEquiv(R, Slot);
  }

  /// mv Dst, Src: Dst now holds whatever slot values Src holds.
  void copyEquiv(Reg Dst, Reg Src) {
    invalidateReg(Dst);
    auto It = RegSlots.find(Src);
    if (It == RegSlots.end())
      return;
    for (int S : std::vector<int>(It->second.begin(), It->second.end()))
      addEquiv(Dst, S);
  }

private:
  std::map<Reg, std::set<int>> RegSlots;
  std::map<int, std::set<Reg>> SlotRegs;
};

} // namespace

PeepholeResult rap::peepholeSpillCleanup(IlocFunction &F,
                                         telemetry::FunctionScope *Scope) {
  telemetry::ScopedPhase Phase(Scope, "peephole");
  allocCheck(F.isAllocated(), AllocErrorKind::InvariantViolation,
             "peephole runs on physical code");
  PeepholeResult Res;

  LinearCode Code = linearize(F);
  if (Code.Instrs.empty())
    return Res;
  Cfg G(Code);

  std::set<Instr *> ToDelete;
  EquivState State;

  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    State.reset();
    const BasicBlock &BB = G.block(B);
    for (unsigned P = BB.Begin; P != BB.End; ++P) {
      Instr *I = Code.Instrs[P];
      switch (I->Op) {
      case Opcode::LdSpill: {
        if (State.regHoldsSlot(I->Dst, I->Slot)) {
          ToDelete.insert(I); // patterns 1 and 4
          ++Res.RemovedLoads;
          break;
        }
        Reg Src = State.anyRegForSlot(I->Slot);
        if (Src != NoReg) {
          // Pattern 2: the value is in another register; copy instead.
          I->Op = Opcode::Mv;
          I->Src = {Src};
          I->Slot = -1;
          ++Res.LoadsToCopies;
          State.copyEquiv(I->Dst, Src);
          break;
        }
        State.invalidateReg(I->Dst);
        State.addEquiv(I->Dst, I->Slot);
        break;
      }
      case Opcode::StSpill: {
        if (State.regHoldsSlot(I->Src[0], I->Slot)) {
          ToDelete.insert(I); // patterns 3 and 5
          ++Res.RemovedStores;
          break;
        }
        State.rebindSlot(I->Slot, I->Src[0]);
        break;
      }
      case Opcode::Mv:
        State.copyEquiv(I->Dst, I->Src[0]);
        break;
      default:
        if (I->hasDef())
          State.invalidateReg(I->Dst);
        break;
      }
    }
  }

  if (!ToDelete.empty())
    F.root()->eraseInstrs(ToDelete);
  return Res;
}
