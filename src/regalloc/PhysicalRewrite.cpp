//===- regalloc/PhysicalRewrite.cpp - VReg -> physical rewrite --------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/PhysicalRewrite.h"

#include "regalloc/AllocError.h"
#include "support/Stats.h"

#include <algorithm>

using namespace rap;

unsigned rap::rewriteToPhysical(IlocFunction &F,
                                const InterferenceGraph &Final, unsigned K,
                                telemetry::FunctionScope *Scope) {
  allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
             "function already allocated");
  telemetry::ScopedPhase Phase(Scope, "rewrite");

  auto MapReg = [&](Reg R) -> Reg {
    int C = Final.colorOf(R);
    allocCheck(C < static_cast<int>(K), AllocErrorKind::InvariantViolation,
               "color out of range");
    // Registers that are never referenced have no node; any register is
    // fine since the value is never read (and never written: the one writer
    // of unreferenced registers, call marshalling, skips NoReg params).
    return C < 0 ? 0 : static_cast<Reg>(C);
  };

  // An unreferenced parameter must NOT borrow a colored register: the value
  // is never read, but call marshalling would still write the argument into
  // whatever register we name here, clobbering a live sibling parameter
  // that legitimately owns it. NoReg tells the interpreter to drop that
  // argument instead. (Found by rapfuzz: a dead parameter aliased a live
  // one and the write reordered the live value away.)
  std::vector<Reg> ParamRegs;
  for (unsigned P = 0; P != F.numParams(); ++P)
    ParamRegs.push_back(Final.colorOf(P) < 0 ? NoReg : MapReg(P));

  unsigned CopiesDeleted = 0;
  F.root()->forEachNode([&](const PdgNode *CN) {
    auto *N = const_cast<PdgNode *>(CN);
    if (!N->isStatement() && !N->isPredicate())
      return;
    for (Instr *I : N->Code) {
      for (Reg &R : I->Src)
        R = MapReg(R);
      if (I->hasDef())
        I->Dst = MapReg(I->Dst);
    }
    if (N->isPredicate() && N->Branch)
      for (Reg &R : N->Branch->Src)
        R = MapReg(R);
    // Drop copies that became mv rX, rX.
    auto IsTrivial = [&](Instr *I) {
      if (I->Op != Opcode::Mv || I->Dst != I->Src[0])
        return false;
      ++CopiesDeleted;
      return true;
    };
    N->Code.erase(std::remove_if(N->Code.begin(), N->Code.end(), IsTrivial),
                  N->Code.end());
  });

  F.setParamRegs(std::move(ParamRegs));
  F.setAllocated(K);
  Phase.arg("copies_deleted", CopiesDeleted);
  return CopiesDeleted;
}
