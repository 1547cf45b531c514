//===- interp/Decode.cpp - Pre-decoded ILOC for threaded dispatch ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "interp/Decode.h"

#include <cassert>
#include <type_traits>
#include <utility>
#include <vector>

using namespace rap;
using namespace rap::interp;

const char *rap::interp::dopName(DOp Op) {
  switch (Op) {
  case DOp::LoadImm:
    return "load_imm";
  case DOp::Mv:
    return "mv";
  case DOp::Add:
    return "add";
  case DOp::Sub:
    return "sub";
  case DOp::Mul:
    return "mul";
  case DOp::Div:
    return "div";
  case DOp::Mod:
    return "mod";
  case DOp::Neg:
    return "neg";
  case DOp::And:
    return "and";
  case DOp::Or:
    return "or";
  case DOp::Not:
    return "not";
  case DOp::FAdd:
    return "fadd";
  case DOp::FSub:
    return "fsub";
  case DOp::FMul:
    return "fmul";
  case DOp::FDiv:
    return "fdiv";
  case DOp::FNeg:
    return "fneg";
  case DOp::CmpEQ:
    return "cmp_eq";
  case DOp::CmpNE:
    return "cmp_ne";
  case DOp::CmpLT:
    return "cmp_lt";
  case DOp::CmpLE:
    return "cmp_le";
  case DOp::CmpGT:
    return "cmp_gt";
  case DOp::CmpGE:
    return "cmp_ge";
  case DOp::I2F:
    return "i2f";
  case DOp::F2I:
    return "f2i";
  case DOp::LdSpill:
    return "ldm";
  case DOp::StSpill:
    return "stm";
  case DOp::LdGlob:
    return "ldg";
  case DOp::StGlob:
    return "stg";
  case DOp::LdIdx:
    return "ldx";
  case DOp::StIdx:
    return "stx";
  case DOp::Jmp:
    return "jmp";
  case DOp::Cbr:
    return "cbr";
  case DOp::Call:
    return "call";
  case DOp::BadCall:
    return "bad_call";
  case DOp::Ret:
    return "ret";
  case DOp::Halt:
    return "halt";
  case DOp::ImplicitRet:
    return "implicit_ret";
  case DOp::CmpEQCbr:
    return "cmp_eq_cbr";
  case DOp::CmpNECbr:
    return "cmp_ne_cbr";
  case DOp::CmpLTCbr:
    return "cmp_lt_cbr";
  case DOp::CmpLECbr:
    return "cmp_le_cbr";
  case DOp::CmpGTCbr:
    return "cmp_gt_cbr";
  case DOp::CmpGECbr:
    return "cmp_ge_cbr";
  case DOp::LoadIAdd:
    return "loadi_add";
  case DOp::LoadISub:
    return "loadi_sub";
  case DOp::LoadIMul:
    return "loadi_mul";
  case DOp::LoadIDiv:
    return "loadi_div";
  case DOp::LoadIMod:
    return "loadi_mod";
  case DOp::LdAddSt:
    return "ld_add_st";
  case DOp::LdSubSt:
    return "ld_sub_st";
  case DOp::LdMulSt:
    return "ld_mul_st";
  case DOp::LoadICmpEQCbr:
    return "loadi_cmp_eq_cbr";
  case DOp::LoadICmpNECbr:
    return "loadi_cmp_ne_cbr";
  case DOp::LoadICmpLTCbr:
    return "loadi_cmp_lt_cbr";
  case DOp::LoadICmpLECbr:
    return "loadi_cmp_le_cbr";
  case DOp::LoadICmpGTCbr:
    return "loadi_cmp_gt_cbr";
  case DOp::LoadICmpGECbr:
    return "loadi_cmp_ge_cbr";
  case DOp::MulAdd:
    return "mul_add";
  case DOp::AddLdIdx:
    return "add_ldx";
  case DOp::AddMv:
    return "add_mv";
  case DOp::MvJmp:
    return "mv_jmp";
  case DOp::LdIdxLoadI:
    return "ldx_loadi";
  case DOp::LoadILdSpill:
    return "loadi_ldm";
  case DOp::LoadIStIdx:
    return "loadi_stx";
  case DOp::StIdxLoadI:
    return "stx_loadi";
  case DOp::LoadImm2:
    return "loadi_loadi";
  case DOp::LdSpillAdd:
    return "ldm_add";
  case DOp::LdSpillMul:
    return "ldm_mul";
  case DOp::LoadIAddMvJmp:
    return "loadi_add_mv_jmp";
  case DOp::LoadILdSpillMulAdd:
    return "loadi_ldm_mul_add";
  case DOp::MulAddLdIdx:
    return "mul_add_ldx";
  case DOp::AddMvJmp:
    return "add_mv_jmp";
  case DOp::LdGlobLoadIAddStGlob:
    return "ldg_loadi_add_stg";
  case DOp::LdGlobCmpLTCbr:
    return "ldg_cmp_lt_cbr";
  case DOp::LdIdx2:
    return "ldx_ldx";
  case DOp::LdIdxStIdx:
    return "ldx_stx";
  case DOp::StIdx2:
    return "stx_stx";
  }
  return "unknown";
}

namespace {

/// True for decoded ops that end a fuel stretch: execution after them
/// resumes at an entry point where the engine re-checks the budget.
bool endsStretch(DOp Op) {
  switch (Op) {
  case DOp::Jmp:
  case DOp::Cbr:
  case DOp::Call:
  case DOp::BadCall:
  case DOp::Ret:
  case DOp::Halt:
  case DOp::ImplicitRet:
  case DOp::CmpEQCbr:
  case DOp::CmpNECbr:
  case DOp::CmpLTCbr:
  case DOp::CmpLECbr:
  case DOp::CmpGTCbr:
  case DOp::CmpGECbr:
  case DOp::LoadICmpEQCbr:
  case DOp::LoadICmpNECbr:
  case DOp::LoadICmpLTCbr:
  case DOp::LoadICmpLECbr:
  case DOp::LoadICmpGTCbr:
  case DOp::LoadICmpGECbr:
  case DOp::MvJmp:
  case DOp::LoadIAddMvJmp:
  case DOp::AddMvJmp:
  case DOp::LdGlobCmpLTCbr:
    return true;
  default:
    return false;
  }
}

/// loadI + cmp + cbr variant for a compare, with the constant operand
/// normalized to the right-hand side. \p Swapped selects the mirrored
/// compare for a constant that was on the left (a < b == b > a, so the
/// written predicate value is unchanged).
DOp loadICmpCbrFor(Opcode Op, bool Swapped) {
  switch (Op) {
  case Opcode::CmpEQ:
    return DOp::LoadICmpEQCbr;
  case Opcode::CmpNE:
    return DOp::LoadICmpNECbr;
  case Opcode::CmpLT:
    return Swapped ? DOp::LoadICmpGTCbr : DOp::LoadICmpLTCbr;
  case Opcode::CmpLE:
    return Swapped ? DOp::LoadICmpGECbr : DOp::LoadICmpLECbr;
  case Opcode::CmpGT:
    return Swapped ? DOp::LoadICmpLTCbr : DOp::LoadICmpGTCbr;
  case Opcode::CmpGE:
    return Swapped ? DOp::LoadICmpLECbr : DOp::LoadICmpGECbr;
  default:
    return DOp::Halt;
  }
}

/// Fused-compare variant of a compare opcode, or the plain translation.
DOp cmpCbrFor(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEQ:
    return DOp::CmpEQCbr;
  case Opcode::CmpNE:
    return DOp::CmpNECbr;
  case Opcode::CmpLT:
    return DOp::CmpLTCbr;
  case Opcode::CmpLE:
    return DOp::CmpLECbr;
  case Opcode::CmpGT:
    return DOp::CmpGTCbr;
  case Opcode::CmpGE:
    return DOp::CmpGECbr;
  default:
    return DOp::Halt;
  }
}

bool isCompare(Opcode Op) {
  return Op == Opcode::CmpEQ || Op == Opcode::CmpNE || Op == Opcode::CmpLT ||
         Op == Opcode::CmpLE || Op == Opcode::CmpGT || Op == Opcode::CmpGE;
}

bool isIntBinOp(Opcode Op) {
  return Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::Mul ||
         Op == Opcode::Div || Op == Opcode::Mod;
}

DOp loadIOpFor(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return DOp::LoadIAdd;
  case Opcode::Sub:
    return DOp::LoadISub;
  case Opcode::Mul:
    return DOp::LoadIMul;
  case Opcode::Div:
    return DOp::LoadIDiv;
  case Opcode::Mod:
    return DOp::LoadIMod;
  default:
    return DOp::Halt;
  }
}

/// Spill triples fuse only non-trapping arithmetic, so the single possible
/// mid-superinstruction trap site stays the LoadIDiv/LoadIMod divide check.
DOp spillTripleFor(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return DOp::LdAddSt;
  case Opcode::Sub:
    return DOp::LdSubSt;
  case Opcode::Mul:
    return DOp::LdMulSt;
  default:
    return DOp::Halt;
  }
}

bool uses(const Instr *I, Reg R) {
  for (Reg S : I->Src)
    if (S == R)
      return true;
  return false;
}

/// LoadI and LoadF both decode to LoadImm; pair fusions that only shuttle
/// the interned constant accept either.
bool isImmLoad(Opcode Op) { return Op == Opcode::LoadI || Op == Opcode::LoadF; }

/// Converts a finished op's operand fields from indexes to byte offsets
/// (see the pre-scaling note in decodeFunction). Field roles per opcode are
/// documented on DecOp; every role except "shared with the reference
/// engine" and "global address" scales.
void scaleOffsets(DecOp &D) {
  // One stride fits registers, constant-pool entries, and spill slots (all
  // RtValue arrays); targets stride by decoded-op size.
  const auto Cell = [](auto &F) {
    F = static_cast<std::remove_reference_t<decltype(F)>>(
        F * sizeof(RtValue));
  };
  const auto R = Cell, C = Cell, S = Cell;
  const auto Tgt = [](auto &F) {
    F = static_cast<std::remove_reference_t<decltype(F)>>(F * sizeof(DecOp));
  };
  const auto T = Tgt;
  switch (D.Op) {
  case DOp::LoadImm:
    R(D.Dst);
    C(D.Aux);
    break;
  case DOp::Mv:
  case DOp::Neg:
  case DOp::Not:
  case DOp::FNeg:
  case DOp::I2F:
  case DOp::F2I:
    R(D.Dst);
    R(D.A);
    break;
  case DOp::Add:
  case DOp::Sub:
  case DOp::Mul:
  case DOp::Div:
  case DOp::Mod:
  case DOp::And:
  case DOp::Or:
  case DOp::FAdd:
  case DOp::FSub:
  case DOp::FMul:
  case DOp::FDiv:
  case DOp::CmpEQ:
  case DOp::CmpNE:
  case DOp::CmpLT:
  case DOp::CmpLE:
  case DOp::CmpGT:
  case DOp::CmpGE:
    R(D.Dst);
    R(D.A);
    R(D.B);
    break;
  case DOp::LdSpill:
    R(D.Dst);
    S(D.X);
    break;
  case DOp::StSpill:
    R(D.A);
    S(D.X);
    break;
  case DOp::LdGlob:
    R(D.Dst); // X is a global address: unscaled
    break;
  case DOp::StGlob:
    R(D.A);
    break;
  case DOp::LdIdx:
    R(D.Dst);
    R(D.A);
    break;
  case DOp::StIdx:
    R(D.A);
    R(D.B);
    break;
  case DOp::Jmp:
    T(D.Aux);
    break;
  case DOp::Cbr:
    R(D.A);
    T(D.Aux);
    T(D.B);
    break;
  case DOp::Call:
  case DOp::BadCall:
  case DOp::Ret:
  case DOp::Halt:
  case DOp::ImplicitRet:
    break; // shared with the reference engine / no register fields
  case DOp::CmpEQCbr:
  case DOp::CmpNECbr:
  case DOp::CmpLTCbr:
  case DOp::CmpLECbr:
  case DOp::CmpGTCbr:
  case DOp::CmpGECbr:
    R(D.Dst);
    R(D.A);
    R(D.B);
    T(D.Aux);
    T(D.X);
    break;
  case DOp::LoadIAdd:
  case DOp::LoadISub:
  case DOp::LoadIMul:
  case DOp::LoadIDiv:
  case DOp::LoadIMod:
    R(D.Dst);
    R(D.A);
    R(D.B);
    C(D.Aux);
    R(D.X);
    R(D.Y); // other-operand shortcut (add/mul); zero otherwise
    break;
  case DOp::LdAddSt:
  case DOp::LdSubSt:
  case DOp::LdMulSt:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.Aux);
    S(D.X);
    S(D.Y);
    break;
  case DOp::LoadICmpEQCbr:
  case DOp::LoadICmpNECbr:
  case DOp::LoadICmpLTCbr:
  case DOp::LoadICmpLECbr:
  case DOp::LoadICmpGTCbr:
  case DOp::LoadICmpGECbr:
    R(D.Dst);
    R(D.A);
    T(D.Aux);
    T(D.B);
    R(D.X);
    C(D.Y);
    break;
  case DOp::MulAdd:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.X);
    R(D.Y);
    break;
  case DOp::AddLdIdx:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.Y); // X is a global address: unscaled
    break;
  case DOp::AddMv:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.X);
    R(D.Aux);
    break;
  case DOp::MvJmp:
    R(D.Dst);
    R(D.A);
    T(D.Aux);
    break;
  case DOp::LdIdxLoadI:
    R(D.Dst);
    R(D.A);
    R(D.Y);
    C(D.Aux); // X is a global address: unscaled
    break;
  case DOp::LoadILdSpill:
    R(D.Dst);
    S(D.X);
    R(D.Y);
    C(D.Aux);
    break;
  case DOp::LoadIStIdx:
  case DOp::StIdxLoadI:
    R(D.A);
    R(D.B);
    R(D.Y);
    C(D.Aux); // X is a global address: unscaled
    break;
  case DOp::LoadImm2:
    R(D.Dst);
    C(D.Aux);
    R(D.Y);
    C(D.B);
    break;
  case DOp::LdSpillAdd:
  case DOp::LdSpillMul:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.Aux);
    S(D.X);
    break;
  case DOp::LoadIAddMvJmp:
    R(D.Dst);
    R(D.A);
    C(D.Aux);
    R(D.X);
    R(D.Y);
    T(D.B);
    break;
  case DOp::LoadILdSpillMulAdd:
    R(D.Dst);
    R(D.A);
    C(D.Aux);
    R(D.X);
    R(D.Y);
    R(D.Z);
    S(D.B);
    break;
  case DOp::MulAddLdIdx:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.X);
    R(D.Y);
    R(D.Z); // Aux is a global address: unscaled
    break;
  case DOp::AddMvJmp:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.X);
    R(D.Aux);
    T(D.Z);
    break;
  case DOp::LdGlobLoadIAddStGlob:
    R(D.Dst);
    C(D.Aux);
    R(D.Y);
    R(D.Z); // X, B are global addresses: unscaled
    break;
  case DOp::LdGlobCmpLTCbr:
    R(D.Dst);
    R(D.A);
    R(D.B);
    T(D.Aux);
    T(D.X);
    R(D.Z); // Y is a global address: unscaled
    break;
  case DOp::LdIdx2:
    R(D.Dst);
    R(D.A);
    R(D.Y);
    R(D.B); // X, Aux are global addresses: unscaled
    break;
  case DOp::LdIdxStIdx:
    R(D.Dst);
    R(D.A);
    R(D.B);
    R(D.Z); // X, Aux are global addresses: unscaled
    break;
  case DOp::StIdx2:
    R(D.A);
    R(D.B);
    R(D.Y);
    R(D.Z); // X, Aux are global addresses: unscaled
    break;
  }
}

DOp directFor(Opcode Op) {
  switch (Op) {
  case Opcode::LoadI:
  case Opcode::LoadF:
    return DOp::LoadImm;
  case Opcode::Mv:
    return DOp::Mv;
  case Opcode::Add:
    return DOp::Add;
  case Opcode::Sub:
    return DOp::Sub;
  case Opcode::Mul:
    return DOp::Mul;
  case Opcode::Div:
    return DOp::Div;
  case Opcode::Mod:
    return DOp::Mod;
  case Opcode::Neg:
    return DOp::Neg;
  case Opcode::And:
    return DOp::And;
  case Opcode::Or:
    return DOp::Or;
  case Opcode::Not:
    return DOp::Not;
  case Opcode::FAdd:
    return DOp::FAdd;
  case Opcode::FSub:
    return DOp::FSub;
  case Opcode::FMul:
    return DOp::FMul;
  case Opcode::FDiv:
    return DOp::FDiv;
  case Opcode::FNeg:
    return DOp::FNeg;
  case Opcode::CmpEQ:
    return DOp::CmpEQ;
  case Opcode::CmpNE:
    return DOp::CmpNE;
  case Opcode::CmpLT:
    return DOp::CmpLT;
  case Opcode::CmpLE:
    return DOp::CmpLE;
  case Opcode::CmpGT:
    return DOp::CmpGT;
  case Opcode::CmpGE:
    return DOp::CmpGE;
  case Opcode::I2F:
    return DOp::I2F;
  case Opcode::F2I:
    return DOp::F2I;
  case Opcode::LdSpill:
    return DOp::LdSpill;
  case Opcode::StSpill:
    return DOp::StSpill;
  case Opcode::LdGlob:
    return DOp::LdGlob;
  case Opcode::StGlob:
    return DOp::StGlob;
  case Opcode::LdIdx:
    return DOp::LdIdx;
  case Opcode::StIdx:
    return DOp::StIdx;
  case Opcode::Jmp:
    return DOp::Jmp;
  case Opcode::Cbr:
    return DOp::Cbr;
  case Opcode::Call:
    return DOp::Call;
  case Opcode::Ret:
    return DOp::Ret;
  case Opcode::Halt:
    return DOp::Halt;
  }
  return DOp::Halt;
}

} // namespace

DecodedFunc rap::interp::decodeFunction(const IlocProgram &Prog,
                                        const IlocFunction &F,
                                        const LinearCode &Code) {
  (void)F; // callee lookups go through Prog; F documents the contract
  const size_t N = Code.Instrs.size();

  // Positions a label can transfer control to. Fusion must not swallow one
  // into a superinstruction's interior, or the branch would have no decoded
  // op to land on.
  std::vector<uint8_t> IsTarget(N + 1, 0);
  for (unsigned P : Code.LabelPos)
    IsTarget[P] = 1;

  std::vector<DecOp> Ops;
  Ops.reserve(N + 1);
  std::vector<RtValue> Consts;
  std::vector<uint32_t> ArgPairs;
  // Linear position -> decoded index, defined at superinstruction starts
  // (every label target is one, since fusion skips claimed interiors).
  constexpr uint32_t NotAStart = ~uint32_t(0);
  std::vector<uint32_t> Lin2Dec(N + 1, NotAStart);

  auto internConst = [&](const RtValue &V) {
    Consts.push_back(V);
    return static_cast<uint32_t>(Consts.size() - 1);
  };

  size_t I = 0;
  while (I < N) {
    Lin2Dec[I] = static_cast<uint32_t>(Ops.size());
    const Instr *In = Code.Instrs[I];
    DecOp D;
    D.LinPos = static_cast<uint32_t>(I);

    // ldm a, s1 ; a op b -> d ; stm s2, d  — the allocator's spill triple.
    if (I + 2 < N && In->Op == Opcode::LdSpill && !IsTarget[I + 1] &&
        !IsTarget[I + 2]) {
      const Instr *OpI = Code.Instrs[I + 1];
      const Instr *St = Code.Instrs[I + 2];
      if (spillTripleFor(OpI->Op) != DOp::Halt && uses(OpI, In->Dst) &&
          St->Op == Opcode::StSpill && St->Src[0] == OpI->Dst) {
        D.Op = spillTripleFor(OpI->Op);
        D.NumInstrs = 3;
        D.Dst = OpI->Dst;
        D.A = OpI->Src[0];
        D.B = OpI->Src[1];
        D.Aux = In->Dst;
        D.X = In->Slot;
        D.Y = St->Slot;
        Ops.push_back(D);
        I += 3;
        continue;
      }
    }

    // cmp a, b -> d ; cbr d, Lt, Lf — every structured predicate's shape.
    if (I + 1 < N && isCompare(In->Op) && !IsTarget[I + 1]) {
      const Instr *Br = Code.Instrs[I + 1];
      if (Br->Op == Opcode::Cbr && Br->Src[0] == In->Dst) {
        D.Op = cmpCbrFor(In->Op);
        D.NumInstrs = 2;
        D.Dst = In->Dst;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.Aux = static_cast<uint32_t>(Br->Label0); // remapped below
        D.X = Br->Label1;                          // remapped below
        Ops.push_back(D);
        I += 2;
        continue;
      }
    }

    // loadI c -> t ; cmp a, b -> d with t in {a, b} ; cbr d, Lt, Lf — the
    // exit test of every constant-bounded loop. The constant operand is
    // normalized to the right-hand side, mirroring the compare when it was
    // on the left (the predicate value is unchanged).
    if (I + 2 < N && isImmLoad(In->Op) && !IsTarget[I + 1] &&
        !IsTarget[I + 2]) {
      const Instr *Cm = Code.Instrs[I + 1];
      const Instr *Br = Code.Instrs[I + 2];
      if (isCompare(Cm->Op) && uses(Cm, In->Dst) && Br->Op == Opcode::Cbr &&
          Br->Src[0] == Cm->Dst) {
        const bool Swapped = Cm->Src[1] != In->Dst;
        D.Op = loadICmpCbrFor(Cm->Op, Swapped);
        D.NumInstrs = 3;
        D.Dst = Cm->Dst;
        D.A = Swapped ? Cm->Src[1] : Cm->Src[0];
        D.Aux = static_cast<uint32_t>(Br->Label0); // remapped below
        D.B = static_cast<uint32_t>(Br->Label1);   // remapped below
        D.X = static_cast<int32_t>(In->Dst);
        D.Y = static_cast<int32_t>(internConst(In->Imm));
        Ops.push_back(D);
        I += 3;
        continue;
      }
    }

    // Four-instruction chains, tried before their two-op prefixes. These
    // are the hottest decoded-op adjacencies of the Table 1 corpus; fusing
    // them lets intermediate results flow through host registers instead of
    // being stored to and immediately reloaded from the frame.

    // loadI c -> t ; add with t -> d ; mv d -> y ; jmp L — the canonical
    // counted-loop latch (i = i + c; back edge).
    if (I + 3 < N && In->Op == Opcode::LoadI && !IsTarget[I + 1] &&
        !IsTarget[I + 2] && !IsTarget[I + 3]) {
      const Instr *Ad = Code.Instrs[I + 1];
      const Instr *Cp = Code.Instrs[I + 2];
      const Instr *Br = Code.Instrs[I + 3];
      if (Ad->Op == Opcode::Add && uses(Ad, In->Dst) &&
          Cp->Op == Opcode::Mv && Cp->Src[0] == Ad->Dst &&
          Br->Op == Opcode::Jmp) {
        D.Op = DOp::LoadIAddMvJmp;
        D.NumInstrs = 4;
        D.Aux = internConst(In->Imm);
        D.X = static_cast<int32_t>(In->Dst);
        D.A = Ad->Src[0] == In->Dst ? Ad->Src[1] : Ad->Src[0];
        D.Dst = Ad->Dst;
        D.Y = static_cast<int32_t>(Cp->Dst);
        D.B = static_cast<uint32_t>(Br->Label0); // remapped below
        Ops.push_back(D);
        I += 4;
        continue;
      }
    }

    // loadI c -> t1 ; ldm s -> t2 ; mul t1, t2 -> m ; add with m -> d —
    // address math over a spilled induction variable. The mul must consume
    // exactly the two freshly defined values (and they must be distinct
    // registers) so the handler can multiply in host registers.
    if (I + 3 < N && In->Op == Opcode::LoadI && !IsTarget[I + 1] &&
        !IsTarget[I + 2] && !IsTarget[I + 3]) {
      const Instr *Ld = Code.Instrs[I + 1];
      const Instr *Ml = Code.Instrs[I + 2];
      const Instr *Ad = Code.Instrs[I + 3];
      if (Ld->Op == Opcode::LdSpill && Ld->Dst != In->Dst &&
          Ml->Op == Opcode::Mul &&
          ((Ml->Src[0] == In->Dst && Ml->Src[1] == Ld->Dst) ||
           (Ml->Src[0] == Ld->Dst && Ml->Src[1] == In->Dst)) &&
          Ad->Op == Opcode::Add && uses(Ad, Ml->Dst)) {
        D.Op = DOp::LoadILdSpillMulAdd;
        D.NumInstrs = 4;
        D.Aux = internConst(In->Imm);
        D.X = static_cast<int32_t>(In->Dst);
        D.B = Ld->Slot;
        D.Z = static_cast<int32_t>(Ld->Dst);
        D.Y = static_cast<int32_t>(Ml->Dst);
        D.A = Ad->Src[0] == Ml->Dst ? Ad->Src[1] : Ad->Src[0];
        D.Dst = Ad->Dst;
        Ops.push_back(D);
        I += 4;
        continue;
      }
    }

    // ldg g -> t1 ; loadI c -> t2 ; add t1, t2 -> d ; stg d -> g2 —
    // the read-modify-write of a global counter (g2 is usually g, but the
    // handler does not need that). The add must consume exactly the two
    // freshly defined values, which must be distinct registers.
    if (I + 3 < N && In->Op == Opcode::LdGlob && !IsTarget[I + 1] &&
        !IsTarget[I + 2] && !IsTarget[I + 3]) {
      const Instr *Li = Code.Instrs[I + 1];
      const Instr *Ad = Code.Instrs[I + 2];
      const Instr *St = Code.Instrs[I + 3];
      if (Li->Op == Opcode::LoadI && Li->Dst != In->Dst &&
          Ad->Op == Opcode::Add &&
          ((Ad->Src[0] == In->Dst && Ad->Src[1] == Li->Dst) ||
           (Ad->Src[0] == Li->Dst && Ad->Src[1] == In->Dst)) &&
          St->Op == Opcode::StGlob && St->Src[0] == Ad->Dst) {
        D.Op = DOp::LdGlobLoadIAddStGlob;
        D.NumInstrs = 4;
        D.X = In->Addr;
        D.Z = static_cast<int32_t>(In->Dst);
        D.Aux = internConst(Li->Imm);
        D.Y = static_cast<int32_t>(Li->Dst);
        D.Dst = Ad->Dst;
        D.B = static_cast<uint32_t>(St->Addr);
        Ops.push_back(D);
        I += 4;
        continue;
      }
    }

    // ldg g -> t ; cmp_LT a, b -> d ; cbr d, Lt, Lf — a global bound read
    // straight into a loop or guard test.
    if (I + 2 < N && In->Op == Opcode::LdGlob && !IsTarget[I + 1] &&
        !IsTarget[I + 2]) {
      const Instr *Cm = Code.Instrs[I + 1];
      const Instr *Br = Code.Instrs[I + 2];
      if (Cm->Op == Opcode::CmpLT && Br->Op == Opcode::Cbr &&
          Br->Src[0] == Cm->Dst) {
        D.Op = DOp::LdGlobCmpLTCbr;
        D.NumInstrs = 3;
        D.Y = In->Addr;
        D.Z = static_cast<int32_t>(In->Dst);
        D.Dst = Cm->Dst;
        D.A = Cm->Src[0];
        D.B = Cm->Src[1];
        D.Aux = static_cast<uint32_t>(Br->Label0); // remapped below
        D.X = Br->Label1;                          // remapped below
        Ops.push_back(D);
        I += 3;
        continue;
      }
    }

    // mul a, b -> m ; add with m -> t ; ldx addr(t) -> d — a[i*w + j].
    if (I + 2 < N && In->Op == Opcode::Mul && !IsTarget[I + 1] &&
        !IsTarget[I + 2]) {
      const Instr *Ad = Code.Instrs[I + 1];
      const Instr *Ld = Code.Instrs[I + 2];
      if (Ad->Op == Opcode::Add && uses(Ad, In->Dst) &&
          Ld->Op == Opcode::LdIdx && Ld->Src[0] == Ad->Dst) {
        D.Op = DOp::MulAddLdIdx;
        D.NumInstrs = 3;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = static_cast<int32_t>(In->Dst);
        D.Y = static_cast<int32_t>(Ad->Src[0] == In->Dst ? Ad->Src[1]
                                                         : Ad->Src[0]);
        D.Z = static_cast<int32_t>(Ad->Dst);
        D.Aux = static_cast<uint32_t>(Ld->Addr);
        D.Dst = Ld->Dst;
        Ops.push_back(D);
        I += 3;
        continue;
      }
    }

    // add a, b -> t ; mv s -> d ; jmp L — latch shapes whose copy source
    // need not be the add (both writes happen in original order).
    if (I + 2 < N && In->Op == Opcode::Add && !IsTarget[I + 1] &&
        !IsTarget[I + 2]) {
      const Instr *Cp = Code.Instrs[I + 1];
      const Instr *Br = Code.Instrs[I + 2];
      if (Cp->Op == Opcode::Mv && Br->Op == Opcode::Jmp) {
        D.Op = DOp::AddMvJmp;
        D.NumInstrs = 3;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = static_cast<int32_t>(In->Dst);
        D.Aux = Cp->Src[0];
        D.Dst = Cp->Dst;
        D.Z = static_cast<int32_t>(Br->Label0); // remapped below
        Ops.push_back(D);
        I += 3;
        continue;
      }
    }

    // loadI c -> t ; a op b -> d with t in {a, b}.
    if (I + 1 < N && In->Op == Opcode::LoadI && !IsTarget[I + 1]) {
      const Instr *OpI = Code.Instrs[I + 1];
      if (isIntBinOp(OpI->Op) && uses(OpI, In->Dst)) {
        D.Op = loadIOpFor(OpI->Op);
        D.NumInstrs = 2;
        D.Dst = OpI->Dst;
        D.A = OpI->Src[0];
        D.B = OpI->Src[1];
        D.Aux = internConst(In->Imm);
        D.X = static_cast<int32_t>(In->Dst);
        // Add and mul commute, so their handlers can consume the constant
        // straight from the pool; record the other operand for them.
        if (OpI->Op == Opcode::Add || OpI->Op == Opcode::Mul)
          D.Y = static_cast<int32_t>(OpI->Src[0] == In->Dst ? OpI->Src[1]
                                                            : OpI->Src[0]);
        Ops.push_back(D);
        I += 2;
        continue;
      }
    }

    // Hot adjacent pairs from the dynamic digram profile of the Table 1
    // corpus (address arithmetic feeding indexed memory ops, loop-latch
    // copies, immediate loads next to memory ops). Beyond the data
    // dependences noted per pattern, adjacency is the only requirement:
    // each fused handler performs both components' writes in original
    // order, so independent neighbors fuse too.
    if (I + 1 < N && !IsTarget[I + 1]) {
      const Instr *Nx = Code.Instrs[I + 1];
      bool Fused = true;
      if (In->Op == Opcode::Mul && Nx->Op == Opcode::Add &&
          uses(Nx, In->Dst)) {
        // mul a, b -> m ; add with m as one operand (add commutes, so only
        // the other operand is recorded).
        D.Op = DOp::MulAdd;
        D.Dst = Nx->Dst;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = static_cast<int32_t>(In->Dst);
        D.Y = static_cast<int32_t>(Nx->Src[0] == In->Dst ? Nx->Src[1]
                                                         : Nx->Src[0]);
      } else if (In->Op == Opcode::Add && Nx->Op == Opcode::LdIdx &&
                 Nx->Src[0] == In->Dst) {
        // add a, b -> t ; ldx addr(t) -> d — indexed-load address math.
        D.Op = DOp::AddLdIdx;
        D.Dst = Nx->Dst;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = Nx->Addr;
        D.Y = static_cast<int32_t>(In->Dst);
      } else if (In->Op == Opcode::Add && Nx->Op == Opcode::Mv) {
        D.Op = DOp::AddMv;
        D.Dst = Nx->Dst;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = static_cast<int32_t>(In->Dst);
        D.Aux = Nx->Src[0];
      } else if (In->Op == Opcode::Mv && Nx->Op == Opcode::Jmp) {
        D.Op = DOp::MvJmp;
        D.Dst = In->Dst;
        D.A = In->Src[0];
        D.Aux = static_cast<uint32_t>(Nx->Label0); // remapped below
      } else if (In->Op == Opcode::LdIdx && isImmLoad(Nx->Op)) {
        D.Op = DOp::LdIdxLoadI;
        D.Dst = In->Dst;
        D.A = In->Src[0];
        D.X = In->Addr;
        D.Y = static_cast<int32_t>(Nx->Dst);
        D.Aux = internConst(Nx->Imm);
      } else if (isImmLoad(In->Op) && Nx->Op == Opcode::LdSpill) {
        D.Op = DOp::LoadILdSpill;
        D.Dst = Nx->Dst;
        D.X = Nx->Slot;
        D.Y = static_cast<int32_t>(In->Dst);
        D.Aux = internConst(In->Imm);
      } else if (isImmLoad(In->Op) && Nx->Op == Opcode::StIdx) {
        D.Op = DOp::LoadIStIdx;
        D.A = Nx->Src[0];
        D.B = Nx->Src[1];
        D.X = Nx->Addr;
        D.Y = static_cast<int32_t>(In->Dst);
        D.Aux = internConst(In->Imm);
      } else if (In->Op == Opcode::StIdx && isImmLoad(Nx->Op)) {
        D.Op = DOp::StIdxLoadI;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = In->Addr;
        D.Y = static_cast<int32_t>(Nx->Dst);
        D.Aux = internConst(Nx->Imm);
      } else if (isImmLoad(In->Op) && isImmLoad(Nx->Op)) {
        D.Op = DOp::LoadImm2;
        D.Dst = In->Dst;
        D.Aux = internConst(In->Imm);
        D.Y = static_cast<int32_t>(Nx->Dst);
        D.B = internConst(Nx->Imm);
      } else if (In->Op == Opcode::LdSpill &&
                 (Nx->Op == Opcode::Add || Nx->Op == Opcode::Mul)) {
        // Spill reload next to the arithmetic it usually feeds (falls out
        // of the triple pattern when no store follows).
        D.Op = Nx->Op == Opcode::Add ? DOp::LdSpillAdd : DOp::LdSpillMul;
        D.Dst = Nx->Dst;
        D.A = Nx->Src[0];
        D.B = Nx->Src[1];
        D.Aux = In->Dst;
        D.X = In->Slot;
      } else if (In->Op == Opcode::LdIdx && Nx->Op == Opcode::LdIdx) {
        // Back-to-back indexed memory ops: unrolled array reads/writes and
        // element swaps. The second op's operands are read after the first
        // op's writes, so dependent neighbors are handled naturally.
        D.Op = DOp::LdIdx2;
        D.Dst = In->Dst;
        D.A = In->Src[0];
        D.X = In->Addr;
        D.Y = static_cast<int32_t>(Nx->Dst);
        D.B = Nx->Src[0];
        D.Aux = static_cast<uint32_t>(Nx->Addr);
      } else if (In->Op == Opcode::LdIdx && Nx->Op == Opcode::StIdx) {
        D.Op = DOp::LdIdxStIdx;
        D.Dst = In->Dst;
        D.A = In->Src[0];
        D.X = In->Addr;
        D.B = Nx->Src[0];
        D.Z = static_cast<int32_t>(Nx->Src[1]);
        D.Aux = static_cast<uint32_t>(Nx->Addr);
      } else if (In->Op == Opcode::StIdx && Nx->Op == Opcode::StIdx) {
        D.Op = DOp::StIdx2;
        D.A = In->Src[0];
        D.B = In->Src[1];
        D.X = In->Addr;
        D.Y = static_cast<int32_t>(Nx->Src[0]);
        D.Z = static_cast<int32_t>(Nx->Src[1]);
        D.Aux = static_cast<uint32_t>(Nx->Addr);
      } else {
        Fused = false;
      }
      if (Fused) {
        D.NumInstrs = 2;
        Ops.push_back(D);
        I += 2;
        continue;
      }
    }

    // One-to-one translation.
    D.Op = directFor(In->Op);
    D.NumInstrs = 1;
    switch (In->Op) {
    case Opcode::LoadI:
    case Opcode::LoadF:
      D.Dst = In->Dst;
      D.Aux = internConst(In->Imm);
      break;
    case Opcode::Mv:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::FNeg:
    case Opcode::I2F:
    case Opcode::F2I:
      D.Dst = In->Dst;
      D.A = In->Src[0];
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::CmpEQ:
    case Opcode::CmpNE:
    case Opcode::CmpLT:
    case Opcode::CmpLE:
    case Opcode::CmpGT:
    case Opcode::CmpGE:
      D.Dst = In->Dst;
      D.A = In->Src[0];
      D.B = In->Src[1];
      break;
    case Opcode::LdSpill:
      D.Dst = In->Dst;
      D.X = In->Slot;
      break;
    case Opcode::StSpill:
      D.A = In->Src[0];
      D.X = In->Slot;
      break;
    case Opcode::LdGlob:
      D.Dst = In->Dst;
      D.X = In->Addr;
      break;
    case Opcode::StGlob:
      D.A = In->Src[0];
      D.X = In->Addr;
      break;
    case Opcode::LdIdx:
      D.Dst = In->Dst;
      D.A = In->Src[0];
      D.X = In->Addr;
      break;
    case Opcode::StIdx:
      D.A = In->Src[0];
      D.B = In->Src[1];
      D.X = In->Addr;
      break;
    case Opcode::Jmp:
      D.Aux = static_cast<uint32_t>(In->Label0); // remapped below
      break;
    case Opcode::Cbr:
      D.A = In->Src[0];
      D.Aux = static_cast<uint32_t>(In->Label0); // remapped below
      D.B = static_cast<uint32_t>(In->Label1);   // remapped below
      break;
    case Opcode::Call: {
      const IlocFunction *Callee = Prog.functions()[In->Callee].get();
      if (In->Src.size() != Callee->numParams()) {
        // Arity mismatch is decided statically; the decoded op traps when
        // (and only when) the call actually executes.
        D.Op = DOp::BadCall;
        D.X = In->Callee;
        D.B = static_cast<uint32_t>(In->Src.size());
        break;
      }
      D.Dst = In->Dst;
      D.X = In->Callee;
      D.Aux = static_cast<uint32_t>(ArgPairs.size());
      uint32_t Pairs = 0;
      for (unsigned Arg = 0; Arg != In->Src.size(); ++Arg) {
        // NoReg marks a parameter the callee never reads; writing it anyway
        // would clobber whichever live register the allocator reused.
        Reg PR = Callee->paramReg(Arg);
        if (PR == NoReg)
          continue;
        ArgPairs.push_back(PR);
        ArgPairs.push_back(In->Src[Arg]);
        ++Pairs;
      }
      D.B = Pairs;
      break;
    }
    case Opcode::Ret:
      D.A = In->Src.empty() ? NoReg : In->Src[0];
      break;
    case Opcode::Halt:
      break;
    }
    Ops.push_back(D);
    ++I;
  }

  // Sentinel: control that reaches the end of the stream (fall-through or a
  // label bound past the last instruction) performs a free implicit return.
  Lin2Dec[N] = static_cast<uint32_t>(Ops.size());
  {
    DecOp D;
    D.Op = DOp::ImplicitRet;
    D.NumInstrs = 0;
    D.LinPos = static_cast<uint32_t>(N);
    Ops.push_back(D);
  }

  // Remap label ids to decoded indices now that every start is known.
  auto decTarget = [&](uint32_t Label) {
    unsigned Lin = Code.LabelPos[Label];
    assert(Lin2Dec[Lin] != NotAStart && "label targets a fused interior");
    return Lin2Dec[Lin];
  };
  for (DecOp &D : Ops) {
    switch (D.Op) {
    case DOp::Jmp:
      D.Aux = decTarget(D.Aux);
      break;
    case DOp::Cbr:
      D.Aux = decTarget(D.Aux);
      D.B = decTarget(D.B);
      break;
    case DOp::CmpEQCbr:
    case DOp::CmpNECbr:
    case DOp::CmpLTCbr:
    case DOp::CmpLECbr:
    case DOp::CmpGTCbr:
    case DOp::CmpGECbr:
      D.Aux = decTarget(D.Aux);
      D.X = static_cast<int32_t>(decTarget(static_cast<uint32_t>(D.X)));
      break;
    case DOp::LoadICmpEQCbr:
    case DOp::LoadICmpNECbr:
    case DOp::LoadICmpLTCbr:
    case DOp::LoadICmpLECbr:
    case DOp::LoadICmpGTCbr:
    case DOp::LoadICmpGECbr:
      D.Aux = decTarget(D.Aux);
      D.B = decTarget(D.B);
      break;
    case DOp::MvJmp:
      D.Aux = decTarget(D.Aux);
      break;
    case DOp::LoadIAddMvJmp:
      D.B = decTarget(D.B);
      break;
    case DOp::AddMvJmp:
      D.Z = static_cast<int32_t>(decTarget(static_cast<uint32_t>(D.Z)));
      break;
    case DOp::LdGlobCmpLTCbr:
      D.Aux = decTarget(D.Aux);
      D.X = static_cast<int32_t>(decTarget(static_cast<uint32_t>(D.X)));
      break;
    default:
      break;
    }
  }

  // Cycle cost from each op through its stretch's terminator, computed
  // backwards. The sentinel costs nothing (implicit returns are free).
  uint32_t Suffix = 0;
  for (size_t K = Ops.size(); K-- != 0;) {
    DecOp &D = Ops[K];
    if (endsStretch(D.Op))
      Suffix = D.NumInstrs;
    else
      Suffix += D.NumInstrs;
    D.SuffixCycles = Suffix;
  }

  // Final representation: pre-scale operand fields to byte offsets so the
  // engine's operand accesses need no shift on the address path. Register
  // and constant-pool indexes become offsets into the frame window / pool
  // (x sizeof(RtValue)), spill slots likewise, and control-flow targets
  // become byte offsets into the op buffer (x sizeof(DecOp)). Fields the
  // reference engine shares (Call's return dst, Ret's value reg with its
  // NoReg sentinel, global addresses, ArgPairs) stay plain indexes.
  for (DecOp &D : Ops)
    scaleOffsets(D);

  return DecodedFunc{std::move(Ops), std::move(Consts), std::move(ArgPairs)};
}
