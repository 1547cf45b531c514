//===- interp/Decode.cpp - Pre-decoded ILOC for threaded dispatch ---------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "interp/Decode.h"

#include <cassert>
#include <cstring>
#include <utility>
#include <vector>

using namespace rap;
using namespace rap::interp;

const char *rap::interp::dopName(DOp Op) {
  static constexpr const char *Names[] = {
#define RAP_DOP_NAME(N, Mnemonic) Mnemonic,
      RAP_DOP_LIST(RAP_DOP_NAME)
#undef RAP_DOP_NAME
  };
  return Names[static_cast<unsigned>(Op)];
}

namespace {

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

/// True when binary \p I reads exactly the two registers \p R1 and \p R2,
/// in either order.
bool readsPair(const Instr *I, Reg R1, Reg R2) {
  return (I->Src[0] == R1 && I->Src[1] == R2) ||
         (I->Src[0] == R2 && I->Src[1] == R1);
}

/// The operand of binary \p I other than \p R (R itself when both are R).
/// Add and mul commute, so a fused handler needs only the other operand.
Reg otherSrc(const Instr *I, Reg R) {
  return I->Src[0] == R ? I->Src[1] : I->Src[0];
}

/// LoadI and LoadF both decode to LoadImm; pair fusions that only shuttle
/// the interned constant accept either.
bool isImmLoad(Opcode Op) { return Op == Opcode::LoadI || Op == Opcode::LoadF; }

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

/// Byte offset of register \p R in a frame window.
uint32_t reg(Reg R) { return static_cast<uint32_t>(R * sizeof(RtValue)); }

/// Byte offset of spill slot \p S in a frame's spill area.
uint32_t slot(int S) { return static_cast<uint32_t>(S * sizeof(RtValue)); }

/// One function's decoded form under construction. Each op is built in
/// place at the end of Out.Ops with every field in final form (Decode.h);
/// only branch targets wait, in Fixups, for their ops' positions.
struct Decoder {
  const IlocProgram &Prog;
  const LinearCode &Code;
  const size_t N = Code.Instrs.size();
  DecodedFunc Out;
  /// Positions a label can transfer control to. Fusion must not swallow one
  /// into a superinstruction's interior, or the branch would have no
  /// decoded op to land on.
  std::vector<uint8_t> IsTarget = std::vector<uint8_t>(N + 1, 0);
  /// Linear position -> decoded index, defined at op starts (every label
  /// target is one, since fusion skips label targets).
  static constexpr uint32_t NotAStart = ~uint32_t(0);
  std::vector<uint32_t> Lin2Dec = std::vector<uint32_t>(N + 1, NotAStart);
  /// Branch-target fields (uint32_t or int32_t) and the labels they jump
  /// to. Ops are built in place in Out.Ops, which is reserved up front and
  /// never reallocates, so the field pointers stay valid.
  std::vector<std::pair<void *, int>> Fixups;
  /// Per op: it ends a fuel stretch.
  std::vector<bool> EndsStretch;

  Decoder(const IlocProgram &Prog, const LinearCode &Code)
      : Prog(Prog), Code(Code) {
    for (unsigned P : Code.LabelPos)
      IsTarget[P] = 1;
    Out.Ops.reserve(N + 1); // at most one op per instruction, plus sentinel
  }

  /// Byte offset of \p V in the constant pool, which interns it.
  uint32_t cst(const RtValue &V) {
    Out.Consts.push_back(V);
    return static_cast<uint32_t>((Out.Consts.size() - 1) * sizeof(RtValue));
  }

  /// Marks the op being built as the end of its fuel stretch: execution
  /// after it resumes at an entry point, where the engine re-checks the
  /// budget.
  void endStretch() { EndsStretch.back() = true; }

  /// Makes \p Field of the op being built a branch to \p Label. The field
  /// is written once every op's position is known (run); an op that
  /// writes a target ends its stretch.
  template <typename T> void target(T &Field, int Label) {
    static_assert(sizeof(T) == sizeof(uint32_t));
    Fixups.push_back({&Field, Label});
    endStretch();
  }

  /// True when the \p Len instructions from \p I exist and no label
  /// targets any of them but the first.
  bool fits(size_t I, unsigned Len) const {
    if (I + Len > N)
      return false;
    for (unsigned K = 1; K != Len; ++K)
      if (IsTarget[I + K])
        return false;
    return true;
  }

  void decodeAt(size_t I, DecOp &D);
  DecodedFunc run();
};

/// Fills \p D, the op starting at linear position \p I: the first fusion
/// pattern that matches there, or the one-to-one translation.
void Decoder::decodeAt(size_t I, DecOp &D) {
  const Instr *In = Code.Instrs[I];

  // ldm a, s1 ; a op b -> d ; stm s2, d  — the allocator's spill triple.
  if (In->Op == Opcode::LdSpill && fits(I, 3)) {
    const Instr *OpI = Code.Instrs[I + 1];
    const Instr *St = Code.Instrs[I + 2];
    if (spillTripleFor(OpI->Op) != DOp::Halt && uses(OpI, In->Dst) &&
        St->Op == Opcode::StSpill && St->Src[0] == OpI->Dst) {
      D.Op = spillTripleFor(OpI->Op);
      D.NumInstrs = 3;
      D.Dst = reg(OpI->Dst);
      D.A = reg(OpI->Src[0]);
      D.B = reg(OpI->Src[1]);
      D.Aux = reg(In->Dst);
      D.X = slot(In->Slot);
      D.Y = slot(St->Slot);
      return;
    }
  }

  // cmp a, b -> d ; cbr d, Lt, Lf — every structured predicate's shape.
  if (isCompare(In->Op) && fits(I, 2)) {
    const Instr *Br = Code.Instrs[I + 1];
    if (Br->Op == Opcode::Cbr && Br->Src[0] == In->Dst) {
      D.Op = cmpCbrFor(In->Op);
      D.NumInstrs = 2;
      D.Dst = reg(In->Dst);
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      target(D.Aux, Br->Label0);
      target(D.X, Br->Label1);
      return;
    }
  }

  // loadI c -> t ; cmp a, b -> d with t in {a, b} ; cbr d, Lt, Lf — the
  // exit test of every constant-bounded loop. The constant operand is
  // normalized to the right-hand side, mirroring the compare when it was
  // on the left (the predicate value is unchanged).
  if (isImmLoad(In->Op) && fits(I, 3)) {
    const Instr *Cm = Code.Instrs[I + 1];
    const Instr *Br = Code.Instrs[I + 2];
    if (isCompare(Cm->Op) && uses(Cm, In->Dst) && Br->Op == Opcode::Cbr &&
        Br->Src[0] == Cm->Dst) {
      const bool Swapped = Cm->Src[1] != In->Dst;
      D.Op = loadICmpCbrFor(Cm->Op, Swapped);
      D.NumInstrs = 3;
      D.Dst = reg(Cm->Dst);
      D.A = reg(Swapped ? Cm->Src[1] : Cm->Src[0]);
      target(D.Aux, Br->Label0);
      target(D.B, Br->Label1);
      D.X = reg(In->Dst); // holds the constant operand
      D.Y = cst(In->Imm);
      return;
    }
  }

  // Four-instruction chains, tried before their two-op prefixes. These
  // are the hottest decoded-op adjacencies of the Table 1 corpus; fusing
  // them lets intermediate results flow through host registers instead of
  // being stored to and immediately reloaded from the frame.

  // loadI c -> t ; add with t -> d ; mv d -> y ; jmp L — the canonical
  // counted-loop latch (i = i + c; back edge).
  if (In->Op == Opcode::LoadI && fits(I, 4)) {
    const Instr *Ad = Code.Instrs[I + 1];
    const Instr *Cp = Code.Instrs[I + 2];
    const Instr *Br = Code.Instrs[I + 3];
    if (Ad->Op == Opcode::Add && uses(Ad, In->Dst) && Cp->Op == Opcode::Mv &&
        Cp->Src[0] == Ad->Dst && Br->Op == Opcode::Jmp) {
      D.Op = DOp::LoadIAddMvJmp;
      D.NumInstrs = 4;
      D.Aux = cst(In->Imm);
      D.X = reg(In->Dst);
      D.A = reg(otherSrc(Ad, In->Dst));
      D.Dst = reg(Ad->Dst);
      D.Y = reg(Cp->Dst);
      target(D.B, Br->Label0);
      return;
    }
  }

  // loadI c -> t1 ; ldm s -> t2 ; mul t1, t2 -> m ; add with m -> d —
  // address math over a spilled induction variable. The mul must consume
  // exactly the two freshly defined values (and they must be distinct
  // registers) so the handler can multiply in host registers.
  if (In->Op == Opcode::LoadI && fits(I, 4)) {
    const Instr *Ld = Code.Instrs[I + 1];
    const Instr *Ml = Code.Instrs[I + 2];
    const Instr *Ad = Code.Instrs[I + 3];
    if (Ld->Op == Opcode::LdSpill && Ld->Dst != In->Dst &&
        Ml->Op == Opcode::Mul && readsPair(Ml, In->Dst, Ld->Dst) &&
        Ad->Op == Opcode::Add && uses(Ad, Ml->Dst)) {
      D.Op = DOp::LoadILdSpillMulAdd;
      D.NumInstrs = 4;
      D.Aux = cst(In->Imm);
      D.X = reg(In->Dst);
      D.B = slot(Ld->Slot);
      D.Z = reg(Ld->Dst);
      D.Y = reg(Ml->Dst);
      D.A = reg(otherSrc(Ad, Ml->Dst));
      D.Dst = reg(Ad->Dst);
      return;
    }
  }

  // ldg g -> t1 ; loadI c -> t2 ; add t1, t2 -> d ; stg d -> g2 —
  // the read-modify-write of a global counter (g2 is usually g, but the
  // handler does not need that). The add must consume exactly the two
  // freshly defined values, which must be distinct registers.
  if (In->Op == Opcode::LdGlob && fits(I, 4)) {
    const Instr *Li = Code.Instrs[I + 1];
    const Instr *Ad = Code.Instrs[I + 2];
    const Instr *St = Code.Instrs[I + 3];
    if (Li->Op == Opcode::LoadI && Li->Dst != In->Dst &&
        Ad->Op == Opcode::Add && readsPair(Ad, In->Dst, Li->Dst) &&
        St->Op == Opcode::StGlob && St->Src[0] == Ad->Dst) {
      D.Op = DOp::LdGlobLoadIAddStGlob;
      D.NumInstrs = 4;
      D.X = In->Addr;
      D.Z = reg(In->Dst);
      D.Aux = cst(Li->Imm);
      D.Y = reg(Li->Dst);
      D.Dst = reg(Ad->Dst);
      D.B = St->Addr;
      return;
    }
  }

  // ldg g -> t ; cmp_LT a, b -> d ; cbr d, Lt, Lf — a global bound read
  // straight into a loop or guard test.
  if (In->Op == Opcode::LdGlob && fits(I, 3)) {
    const Instr *Cm = Code.Instrs[I + 1];
    const Instr *Br = Code.Instrs[I + 2];
    if (Cm->Op == Opcode::CmpLT && Br->Op == Opcode::Cbr &&
        Br->Src[0] == Cm->Dst) {
      D.Op = DOp::LdGlobCmpLTCbr;
      D.NumInstrs = 3;
      D.Y = In->Addr;
      D.Z = reg(In->Dst);
      D.Dst = reg(Cm->Dst);
      D.A = reg(Cm->Src[0]);
      D.B = reg(Cm->Src[1]);
      target(D.Aux, Br->Label0);
      target(D.X, Br->Label1);
      return;
    }
  }

  // mul a, b -> m ; add with m -> t ; ldx addr(t) -> d — a[i*w + j].
  if (In->Op == Opcode::Mul && fits(I, 3)) {
    const Instr *Ad = Code.Instrs[I + 1];
    const Instr *Ld = Code.Instrs[I + 2];
    if (Ad->Op == Opcode::Add && uses(Ad, In->Dst) &&
        Ld->Op == Opcode::LdIdx && Ld->Src[0] == Ad->Dst) {
      D.Op = DOp::MulAddLdIdx;
      D.NumInstrs = 3;
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = reg(In->Dst);
      D.Y = reg(otherSrc(Ad, In->Dst));
      D.Z = reg(Ad->Dst);
      D.Aux = Ld->Addr;
      D.Dst = reg(Ld->Dst);
      return;
    }
  }

  // add a, b -> t ; mv s -> d ; jmp L — latch shapes whose copy source
  // need not be the add (both writes happen in original order).
  if (In->Op == Opcode::Add && fits(I, 3)) {
    const Instr *Cp = Code.Instrs[I + 1];
    const Instr *Br = Code.Instrs[I + 2];
    if (Cp->Op == Opcode::Mv && Br->Op == Opcode::Jmp) {
      D.Op = DOp::AddMvJmp;
      D.NumInstrs = 3;
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = reg(In->Dst);
      D.Aux = reg(Cp->Src[0]);
      D.Dst = reg(Cp->Dst);
      target(D.Z, Br->Label0);
      return;
    }
  }

  // loadI c -> t ; a op b -> d with t in {a, b}.
  if (In->Op == Opcode::LoadI && fits(I, 2)) {
    const Instr *OpI = Code.Instrs[I + 1];
    if (isIntBinOp(OpI->Op) && uses(OpI, In->Dst)) {
      D.Op = loadIOpFor(OpI->Op);
      D.NumInstrs = 2;
      D.Dst = reg(OpI->Dst);
      D.A = reg(OpI->Src[0]);
      D.B = reg(OpI->Src[1]);
      D.Aux = cst(In->Imm);
      D.X = reg(In->Dst);
      // Add and mul commute, so their handlers consume the constant
      // straight from the pool and read only the other operand.
      if (OpI->Op == Opcode::Add || OpI->Op == Opcode::Mul)
        D.Y = reg(otherSrc(OpI, In->Dst));
      return;
    }
  }

  // Hot adjacent pairs from the dynamic digram profile of the Table 1
  // corpus (address arithmetic feeding indexed memory ops, loop-latch
  // copies, immediate loads next to memory ops). Beyond the data
  // dependences noted per pattern, adjacency is the only requirement:
  // each fused handler performs both components' writes in original
  // order, so independent neighbors fuse too.
  if (fits(I, 2)) {
    const Instr *Nx = Code.Instrs[I + 1];
    D.NumInstrs = 2;
    if (In->Op == Opcode::Mul && Nx->Op == Opcode::Add &&
        uses(Nx, In->Dst)) {
      // mul a, b -> m ; add with m as one operand.
      D.Op = DOp::MulAdd;
      D.Dst = reg(Nx->Dst);
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = reg(In->Dst);
      D.Y = reg(otherSrc(Nx, In->Dst));
      return;
    }
    if (In->Op == Opcode::Add && Nx->Op == Opcode::LdIdx &&
        Nx->Src[0] == In->Dst) {
      // add a, b -> t ; ldx addr(t) -> d — indexed-load address math.
      D.Op = DOp::AddLdIdx;
      D.Dst = reg(Nx->Dst);
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = Nx->Addr;
      D.Y = reg(In->Dst);
      return;
    }
    if (In->Op == Opcode::Add && Nx->Op == Opcode::Mv) {
      D.Op = DOp::AddMv;
      D.Dst = reg(Nx->Dst);
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = reg(In->Dst);
      D.Aux = reg(Nx->Src[0]);
      return;
    }
    if (In->Op == Opcode::Mv && Nx->Op == Opcode::Jmp) {
      D.Op = DOp::MvJmp;
      D.Dst = reg(In->Dst);
      D.A = reg(In->Src[0]);
      target(D.Aux, Nx->Label0);
      return;
    }
    if (In->Op == Opcode::LdIdx && isImmLoad(Nx->Op)) {
      D.Op = DOp::LdIdxLoadI;
      D.Dst = reg(In->Dst);
      D.A = reg(In->Src[0]);
      D.X = In->Addr;
      D.Y = reg(Nx->Dst);
      D.Aux = cst(Nx->Imm);
      return;
    }
    if (isImmLoad(In->Op) && Nx->Op == Opcode::LdSpill) {
      D.Op = DOp::LoadILdSpill;
      D.Dst = reg(Nx->Dst);
      D.X = slot(Nx->Slot);
      D.Y = reg(In->Dst);
      D.Aux = cst(In->Imm);
      return;
    }
    if (isImmLoad(In->Op) && Nx->Op == Opcode::StIdx) {
      D.Op = DOp::LoadIStIdx;
      D.A = reg(Nx->Src[0]);
      D.B = reg(Nx->Src[1]);
      D.X = Nx->Addr;
      D.Y = reg(In->Dst);
      D.Aux = cst(In->Imm);
      return;
    }
    if (In->Op == Opcode::StIdx && isImmLoad(Nx->Op)) {
      D.Op = DOp::StIdxLoadI;
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = In->Addr;
      D.Y = reg(Nx->Dst);
      D.Aux = cst(Nx->Imm);
      return;
    }
    if (isImmLoad(In->Op) && isImmLoad(Nx->Op)) {
      D.Op = DOp::LoadImm2;
      D.Dst = reg(In->Dst);
      D.Aux = cst(In->Imm);
      D.Y = reg(Nx->Dst);
      D.B = cst(Nx->Imm);
      return;
    }
    if (In->Op == Opcode::LdSpill &&
        (Nx->Op == Opcode::Add || Nx->Op == Opcode::Mul)) {
      // Spill reload next to the arithmetic it usually feeds (falls out
      // of the triple pattern when no store follows).
      D.Op = Nx->Op == Opcode::Add ? DOp::LdSpillAdd : DOp::LdSpillMul;
      D.Dst = reg(Nx->Dst);
      D.A = reg(Nx->Src[0]);
      D.B = reg(Nx->Src[1]);
      D.Aux = reg(In->Dst);
      D.X = slot(In->Slot);
      return;
    }
    // Back-to-back indexed memory ops: unrolled array reads/writes and
    // element swaps. The second op's operands are read after the first
    // op's writes, so dependent neighbors are handled naturally.
    if (In->Op == Opcode::LdIdx && Nx->Op == Opcode::LdIdx) {
      D.Op = DOp::LdIdx2;
      D.Dst = reg(In->Dst);
      D.A = reg(In->Src[0]);
      D.X = In->Addr;
      D.Y = reg(Nx->Dst);
      D.B = reg(Nx->Src[0]);
      D.Aux = Nx->Addr;
      return;
    }
    if (In->Op == Opcode::LdIdx && Nx->Op == Opcode::StIdx) {
      D.Op = DOp::LdIdxStIdx;
      D.Dst = reg(In->Dst);
      D.A = reg(In->Src[0]);
      D.X = In->Addr;
      D.B = reg(Nx->Src[0]);
      D.Z = reg(Nx->Src[1]);
      D.Aux = Nx->Addr;
      return;
    }
    if (In->Op == Opcode::StIdx && Nx->Op == Opcode::StIdx) {
      D.Op = DOp::StIdx2;
      D.A = reg(In->Src[0]);
      D.B = reg(In->Src[1]);
      D.X = In->Addr;
      D.Y = reg(Nx->Src[0]);
      D.Z = reg(Nx->Src[1]);
      D.Aux = Nx->Addr;
      return;
    }
  }

  // One-to-one translation.
  D.Op = directFor(In->Op);
  D.NumInstrs = 1;
  switch (In->Op) {
  case Opcode::LoadI:
  case Opcode::LoadF:
    D.Dst = reg(In->Dst);
    D.Aux = cst(In->Imm);
    break;
  case Opcode::Mv:
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::FNeg:
  case Opcode::I2F:
  case Opcode::F2I:
    D.Dst = reg(In->Dst);
    D.A = reg(In->Src[0]);
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
    D.Dst = reg(In->Dst);
    D.A = reg(In->Src[0]);
    D.B = reg(In->Src[1]);
    break;
  case Opcode::LdSpill:
    D.Dst = reg(In->Dst);
    D.X = slot(In->Slot);
    break;
  case Opcode::StSpill:
    D.A = reg(In->Src[0]);
    D.X = slot(In->Slot);
    break;
  case Opcode::LdGlob:
    D.Dst = reg(In->Dst);
    D.X = In->Addr;
    break;
  case Opcode::StGlob:
    D.A = reg(In->Src[0]);
    D.X = In->Addr;
    break;
  case Opcode::LdIdx:
    D.Dst = reg(In->Dst);
    D.A = reg(In->Src[0]);
    D.X = In->Addr;
    break;
  case Opcode::StIdx:
    D.A = reg(In->Src[0]);
    D.B = reg(In->Src[1]);
    D.X = In->Addr;
    break;
  case Opcode::Jmp:
    target(D.Aux, In->Label0);
    break;
  case Opcode::Cbr:
    D.A = reg(In->Src[0]);
    target(D.Aux, In->Label0);
    target(D.B, In->Label1);
    break;
  case Opcode::Call: {
    endStretch();
    D.X = In->Callee;
    const IlocFunction *Callee = Prog.functions()[In->Callee].get();
    if (In->Src.size() != Callee->numParams()) {
      // Arity mismatch is decided statically; the decoded op traps when
      // (and only when) the call actually executes.
      D.Op = DOp::BadCall;
      D.B = static_cast<uint32_t>(In->Src.size());
      break;
    }
    D.Dst = In->Dst;
    D.Aux = static_cast<uint32_t>(Out.ArgPairs.size());
    for (unsigned Arg = 0; Arg != In->Src.size(); ++Arg) {
      // NoReg marks a parameter the callee never reads; writing it anyway
      // would clobber whichever live register the allocator reused.
      Reg PR = Callee->paramReg(Arg);
      if (PR == NoReg)
        continue;
      Out.ArgPairs.push_back(PR);
      Out.ArgPairs.push_back(In->Src[Arg]);
      ++D.B;
    }
    break;
  }
  case Opcode::Ret:
    endStretch();
    D.A = In->Src.empty() ? NoReg : In->Src[0];
    break;
  case Opcode::Halt:
    endStretch();
    break;
  }
}

DecodedFunc Decoder::run() {
  std::vector<DecOp> &Ops = Out.Ops;
  for (size_t I = 0; I < N; I += Ops.back().NumInstrs) {
    Lin2Dec[I] = static_cast<uint32_t>(Ops.size());
    DecOp &D = Ops.emplace_back();
    EndsStretch.push_back(false);
    D.LinPos = static_cast<uint32_t>(I);
    decodeAt(I, D);
  }

  // Sentinel: control that reaches the end of the stream (fall-through or a
  // label bound past the last instruction) performs a free implicit return.
  Lin2Dec[N] = static_cast<uint32_t>(Ops.size());
  DecOp &Sentinel = Ops.emplace_back();
  Sentinel.Op = DOp::ImplicitRet;
  Sentinel.LinPos = static_cast<uint32_t>(N);
  EndsStretch.push_back(true);

  // Every op's position is known: resolve the branch targets. A target
  // field is uint32_t or int32_t; memcpy writes the offset's bits into
  // either.
  for (const auto &[Field, Label] : Fixups) {
    const uint32_t Dec = Lin2Dec[Code.LabelPos[Label]];
    assert(Dec != NotAStart && "label targets a fused interior");
    const uint32_t Off = static_cast<uint32_t>(Dec * sizeof(DecOp));
    std::memcpy(Field, &Off, sizeof Off);
  }

  // Cycle cost from each op through its stretch's terminator, computed
  // backwards. The sentinel costs nothing (implicit returns are free).
  uint32_t Suffix = 0;
  for (size_t K = Ops.size(); K-- != 0;) {
    Suffix = EndsStretch[K] ? Ops[K].NumInstrs : Suffix + Ops[K].NumInstrs;
    Ops[K].SuffixCycles = Suffix;
  }
  return std::move(Out);
}

} // namespace

DecodedFunc rap::interp::decodeFunction(const IlocProgram &Prog,
                                        const LinearCode &Code) {
  return Decoder(Prog, Code).run();
}
