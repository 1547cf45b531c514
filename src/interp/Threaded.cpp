//===- interp/Threaded.cpp - Direct-threaded execution engine -------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// The fast path of the interpreter (DESIGN.md §11). Executes the pre-decoded
// op buffers produced by Decode.cpp with computed-goto dispatch
// (labels-as-values, a GNU extension GCC and Clang share): each handler ends
// in its own indirect jump, so the branch predictor learns per-op successor
// patterns.
//
// Fuel is checked per stretch, not per instruction: VM_ENTER — used at
// function entry, branch targets, and post-call/post-return resume points —
// compares the op's SuffixCycles (cost through the stretch's terminator)
// against the remaining budget. Inside a stretch no check is needed: the
// entry check proved the whole stretch fits. When a stretch does not fit,
// the run is guaranteed to end within it (each op costs one cycle, so the
// budget expires before the terminator), and the engine bails out to the
// reference switch engine, which finishes with per-instruction checks and
// produces the exact trap the original interpreter would have.
//
// Cycles are charged in bulk at stretch entry (the stretch's SuffixCycles),
// not per handler: a stretch, once entered, runs to its terminator unless a
// trap ends the program, and VM_FAIL refunds the cycles of the instructions
// past the trapping one, landing on exactly the reference engine's count.
// The memory/copy/call counters are still bumped per handler at the same
// points the reference engine does, per component for superinstructions.
//
//===----------------------------------------------------------------------===//

#include "interp/Engine.h"
#include "interp/WrapMath.h"

#include <cassert>

using namespace rap;
using namespace rap::interp;

/// Handlers are plain labels; dispatch is an indirect goto through the
/// label-address table, replicated at the end of every handler.
#define VM_CASE(N) lbl_##N:
#define VM_JUMP() goto *JumpTable[static_cast<unsigned>(D->Op)]

/// Advance to the next op in the current stretch (no fuel check: the
/// stretch's entry check covered it).
#define VM_NEXT()                                                              \
  do {                                                                         \
    ++D;                                                                       \
    VM_JUMP();                                                                 \
  } while (0)

/// Transfer control to decoded index \p TargetIdx — an entry point. Checks
/// that the remaining fuel covers the stretch starting there; bails out to
/// the reference engine otherwise (the run necessarily ends inside it).
/// When the stretch fits, its entire cycle cost is charged here in bulk:
/// handlers then bump only their memory/copy/call counters, and the only
/// exit that can interrupt a stretch mid-way — a trap — refunds the
/// unexecuted remainder (see VM_FAIL).
#define VM_ENTER(TargetOff)                                                    \
  do {                                                                         \
    D = reinterpret_cast<const DecOp *>(reinterpret_cast<const char *>(Ops) + \
                                        (TargetOff));                          \
    const uint32_t Sfx_ = D->SuffixCycles;                                     \
    if (Sfx_ > Fuel - S.Cycles)                                                \
      goto bail;                                                               \
    S.Cycles += Sfx_;                                                          \
    VM_JUMP();                                                                 \
  } while (0)

/// Reload the per-function execution context after a frame push/pop (both
/// can reallocate Cells, invalidating the window pointers).
#define VM_LOAD_FRAME()                                                        \
  do {                                                                         \
    const Frame &Fr_ = Stack.back();                                           \
    FId = Fr_.FuncId;                                                          \
    const CachedFunc &C_ = Funcs[FId];                                         \
    Ops = C_.Dec.Ops.data();                                                   \
    Consts = C_.Dec.Consts.data();                                             \
    Pairs = C_.Dec.ArgPairs.data();                                            \
    Frm = Cells.data() + Fr_.Base;                                             \
    Spill = Frm + C_.RegCount;                                                 \
  } while (0)

/// Operand accessors. decodeFunction writes operand fields as byte offsets
/// (Decode.h): register and spill-slot fields are offsets into the frame
/// window / spill area, constant-pool fields are offsets into the pool, so
/// the address computation here is a plain add — no shift on the operand
/// path. Fields the reference engine shares (Ret's value register, Call's
/// marshalling pairs) and global addresses stay plain indexes and are
/// accessed directly.
#define VM_REG(Off)                                                            \
  (*reinterpret_cast<RtValue *>(reinterpret_cast<char *>(Frm) + (Off)))
#define VM_SPILL(Off)                                                          \
  (*reinterpret_cast<RtValue *>(reinterpret_cast<char *>(Spill) + (Off)))
#define VM_CONST(Off)                                                          \
  (*reinterpret_cast<const RtValue *>(                                         \
      reinterpret_cast<const char *>(Consts) + (Off)))

/// Abort the run with a trap at linear position \p LinPC of the current
/// function. The stretch's cycles were charged in full at entry, but only
/// the instructions up to and including the trapping one actually ran (the
/// reference engine charges each before executing it, the trapping one
/// included) — refund the rest, then flush the counters.
#define VM_FAIL(Kind, LinPC, Msg)                                              \
  do {                                                                         \
    const uint32_t Over_ =                                                     \
        D->SuffixCycles - ((LinPC)-D->LinPos + 1);                             \
    S.Cycles -= Over_;                                                         \
    E.Res.Stats = S;                                                           \
    E.fail(TrapKind::Kind, FId, (LinPC), (Msg));                               \
    return;                                                                    \
  } while (0)

namespace {

void runLoop(Engine &E) {
  const std::vector<CachedFunc> &Funcs = E.Funcs;
  std::vector<Frame> &Stack = E.Stack;
  std::vector<RtValue> &Cells = E.Cells;
  RtValue *GlobV = E.Glob.data(); // stable: Glob never grows during a run
  const int *GEnd = E.GlobalEnd.data();
  const uint64_t Fuel = E.Fuel;
  // Counters accumulate in locals the compiler can keep in registers; every
  // exit path (halt, trap, bail-out, final return) flushes them to Res.
  ExecStats S = E.Res.Stats;

  int FId = 0;
  const DecOp *Ops = nullptr;
  const RtValue *Consts = nullptr;
  const uint32_t *Pairs = nullptr;
  RtValue *Frm = nullptr;
  RtValue *Spill = nullptr;
  const DecOp *D = nullptr;
  RtValue RetV;

  static const void *JumpTable[] = {
#define RAP_DOP_LABEL(N, Mnemonic) &&lbl_##N,
      RAP_DOP_LIST(RAP_DOP_LABEL)
#undef RAP_DOP_LABEL
  };

  VM_LOAD_FRAME();
  VM_ENTER(Stack.back().PC * sizeof(DecOp));

  {
    VM_CASE(LoadImm) {
      VM_REG(D->Dst) = VM_CONST(D->Aux);
      VM_NEXT();
    }
    VM_CASE(Mv) {
      ++S.Copies;
      VM_REG(D->Dst) = VM_REG(D->A);
      VM_NEXT();
    }
    VM_CASE(Add) {
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }
    VM_CASE(Sub) {
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapSub(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }
    VM_CASE(Mul) {
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapMul(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }
    VM_CASE(Div) {
      const int64_t Bv = VM_REG(D->B).rawInt();
      if (Bv == 0)
        VM_FAIL(DivideByZero, D->LinPos, "integer division by zero");
      VM_REG(D->Dst) = RtValue::makeInt(wrapDiv(VM_REG(D->A).rawInt(), Bv));
      VM_NEXT();
    }
    VM_CASE(Mod) {
      const int64_t Bv = VM_REG(D->B).rawInt();
      if (Bv == 0)
        VM_FAIL(DivideByZero, D->LinPos, "integer modulo by zero");
      VM_REG(D->Dst) = RtValue::makeInt(wrapMod(VM_REG(D->A).rawInt(), Bv));
      VM_NEXT();
    }
    VM_CASE(Neg) {
      VM_REG(D->Dst) = RtValue::makeInt(wrapSub(0, VM_REG(D->A).rawInt()));
      VM_NEXT();
    }
    VM_CASE(And) {
      VM_REG(D->Dst) = RtValue::makeInt(
          (VM_REG(D->A).rawInt() != 0 && VM_REG(D->B).rawInt() != 0) ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(Or) {
      VM_REG(D->Dst) = RtValue::makeInt(
          (VM_REG(D->A).rawInt() != 0 || VM_REG(D->B).rawInt() != 0) ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(Not) {
      VM_REG(D->Dst) = RtValue::makeInt(VM_REG(D->A).rawInt() == 0 ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(FAdd) {
      VM_REG(D->Dst) =
          RtValue::makeFloat(VM_REG(D->A).rawFloat() + VM_REG(D->B).rawFloat());
      VM_NEXT();
    }
    VM_CASE(FSub) {
      VM_REG(D->Dst) =
          RtValue::makeFloat(VM_REG(D->A).rawFloat() - VM_REG(D->B).rawFloat());
      VM_NEXT();
    }
    VM_CASE(FMul) {
      VM_REG(D->Dst) =
          RtValue::makeFloat(VM_REG(D->A).rawFloat() * VM_REG(D->B).rawFloat());
      VM_NEXT();
    }
    VM_CASE(FDiv) {
      const double Bv = VM_REG(D->B).rawFloat();
      if (Bv == 0.0)
        VM_FAIL(DivideByZero, D->LinPos, "floating-point division by zero");
      VM_REG(D->Dst) = RtValue::makeFloat(VM_REG(D->A).rawFloat() / Bv);
      VM_NEXT();
    }
    VM_CASE(FNeg) {
      VM_REG(D->Dst) = RtValue::makeFloat(-VM_REG(D->A).rawFloat());
      VM_NEXT();
    }
    VM_CASE(CmpEQ) {
      VM_REG(D->Dst) = RtValue::makeInt(VM_REG(D->A) == VM_REG(D->B) ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(CmpNE) {
      VM_REG(D->Dst) = RtValue::makeInt(VM_REG(D->A) != VM_REG(D->B) ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(CmpLT) {
      VM_REG(D->Dst) = RtValue::makeInt(
          VM_REG(D->A).asNumber() < VM_REG(D->B).asNumber() ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(CmpLE) {
      VM_REG(D->Dst) = RtValue::makeInt(
          VM_REG(D->A).asNumber() <= VM_REG(D->B).asNumber() ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(CmpGT) {
      VM_REG(D->Dst) = RtValue::makeInt(
          VM_REG(D->A).asNumber() > VM_REG(D->B).asNumber() ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(CmpGE) {
      VM_REG(D->Dst) = RtValue::makeInt(
          VM_REG(D->A).asNumber() >= VM_REG(D->B).asNumber() ? 1 : 0);
      VM_NEXT();
    }
    VM_CASE(I2F) {
      VM_REG(D->Dst) =
          RtValue::makeFloat(static_cast<double>(VM_REG(D->A).rawInt()));
      VM_NEXT();
    }
    VM_CASE(F2I) {
      VM_REG(D->Dst) = RtValue::makeInt(saturatingF2I(VM_REG(D->A).rawFloat()));
      VM_NEXT();
    }
    VM_CASE(LdSpill) {
      ++S.Loads;
      ++S.SpillLoads;
      VM_REG(D->Dst) = VM_SPILL(D->X);
      VM_NEXT();
    }
    VM_CASE(StSpill) {
      ++S.Stores;
      ++S.SpillStores;
      VM_SPILL(D->X) = VM_REG(D->A);
      VM_NEXT();
    }
    VM_CASE(LdGlob) {
      ++S.Loads;
      VM_REG(D->Dst) = GlobV[D->X];
      VM_NEXT();
    }
    VM_CASE(StGlob) {
      ++S.Stores;
      GlobV[D->X] = VM_REG(D->A);
      VM_NEXT();
    }
    VM_CASE(LdIdx) {
      ++S.Loads;
      const int64_t Off = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array load out of bounds (index " + std::to_string(Off) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->X + Off];
      VM_NEXT();
    }
    VM_CASE(StIdx) {
      ++S.Stores;
      const int64_t Off = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array store out of bounds (index " + std::to_string(Off) +
                    ")");
      GlobV[D->X + Off] = VM_REG(D->B);
      VM_NEXT();
    }
    VM_CASE(Jmp) {
      VM_ENTER(D->Aux);
    }
    VM_CASE(Cbr) {
      VM_ENTER(VM_REG(D->A).rawInt() != 0 ? D->Aux : D->B);
    }
    VM_CASE(Call) {
      ++S.Calls;
      if (Stack.size() >= MaxCallStack)
        VM_FAIL(StackOverflow, D->LinPos, "call stack overflow");
      Stack.back().PC = static_cast<uint32_t>(D - Ops) + 1; // resume point
      const uint32_t NPairs = D->B;
      const uint32_t *P = Pairs + D->Aux;
      const uint32_t CallerBase = Stack.back().Base;
      E.pushFrame(D->X, D->Dst); // invalidates Frm/Spill
      RtValue *CallerW = Cells.data() + CallerBase;
      RtValue *CalleeW = Cells.data() + Stack.back().Base;
      for (uint32_t K = 0; K != NPairs; ++K, P += 2)
        CalleeW[P[0]] = CallerW[P[1]];
      if (Stack.size() > S.MaxCallDepth)
        S.MaxCallDepth = Stack.size();
      VM_LOAD_FRAME();
      VM_ENTER(0);
    }
    VM_CASE(BadCall) {
      // Arity mismatch discovered at decode time; executing it reproduces
      // the reference order: count the call, overflow check, then the trap.
      ++S.Calls;
      if (Stack.size() >= MaxCallStack)
        VM_FAIL(StackOverflow, D->LinPos, "call stack overflow");
      const IlocFunction *Callee = Funcs[D->X].F;
      VM_FAIL(BadCall, D->LinPos,
              "call passes " + std::to_string(D->B) + " arguments to '" +
                  Callee->name() + "' expecting " +
                  std::to_string(Callee->numParams()));
    }
    VM_CASE(Ret) {
      RetV = D->A == NoReg ? RtValue::makeInt(0) : Frm[D->A];
      goto do_return;
    }
    VM_CASE(Halt) {
      E.Res.Stats = S;
      E.Res.Ok = true;
      return;
    }
    VM_CASE(ImplicitRet) {
      // Fell off the end (or a label bound past the last instruction):
      // implicit void return, free of charge — same as the reference.
      RetV = RtValue::makeInt(0);
      goto do_return;
    }

    //===------------------------------------------------------------------===//
    // Superinstructions. Each performs every component's register write and
    // charges every component's counters, so fusion is observable only in
    // wall-clock time.
    //===------------------------------------------------------------------===//

    VM_CASE(CmpEQCbr) {
      const bool T = VM_REG(D->A) == VM_REG(D->B);
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(CmpNECbr) {
      const bool T = VM_REG(D->A) != VM_REG(D->B);
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(CmpLTCbr) {
      const bool T = VM_REG(D->A).asNumber() < VM_REG(D->B).asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(CmpLECbr) {
      const bool T = VM_REG(D->A).asNumber() <= VM_REG(D->B).asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(CmpGTCbr) {
      const bool T = VM_REG(D->A).asNumber() > VM_REG(D->B).asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(CmpGECbr) {
      const bool T = VM_REG(D->A).asNumber() >= VM_REG(D->B).asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(LoadIAdd) {
      // Add commutes, so the constant is consumed straight from the pool
      // (D->Y holds the other operand) — no reload of the value just
      // stored to the frame.
      const RtValue C = VM_CONST(D->Aux);
      VM_REG(D->X) = C; // the loadI's own def
      VM_REG(D->Dst) = RtValue::makeInt(wrapAdd(C.rawInt(), VM_REG(D->Y).rawInt()));
      VM_NEXT();
    }
    VM_CASE(LoadISub) {
      VM_REG(D->X) = VM_CONST(D->Aux);
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapSub(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }
    VM_CASE(LoadIMul) {
      const RtValue C = VM_CONST(D->Aux); // mul commutes; see LoadIAdd
      VM_REG(D->X) = C;
      VM_REG(D->Dst) = RtValue::makeInt(wrapMul(C.rawInt(), VM_REG(D->Y).rawInt()));
      VM_NEXT();
    }
    VM_CASE(LoadIDiv) {
      VM_REG(D->X) = VM_CONST(D->Aux);
      const int64_t Bv = VM_REG(D->B).rawInt();
      if (Bv == 0) // trap at the div component, one past the loadI
        VM_FAIL(DivideByZero, D->LinPos + 1, "integer division by zero");
      VM_REG(D->Dst) = RtValue::makeInt(wrapDiv(VM_REG(D->A).rawInt(), Bv));
      VM_NEXT();
    }
    VM_CASE(LoadIMod) {
      VM_REG(D->X) = VM_CONST(D->Aux);
      const int64_t Bv = VM_REG(D->B).rawInt();
      if (Bv == 0)
        VM_FAIL(DivideByZero, D->LinPos + 1, "integer modulo by zero");
      VM_REG(D->Dst) = RtValue::makeInt(wrapMod(VM_REG(D->A).rawInt(), Bv));
      VM_NEXT();
    }
    VM_CASE(LdAddSt) {
      ++S.Loads;
      ++S.SpillLoads;
      ++S.Stores;
      ++S.SpillStores;
      VM_REG(D->Aux) = VM_SPILL(D->X); // the ldm's own def
      const RtValue R =
          RtValue::makeInt(wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_REG(D->Dst) = R;
      VM_SPILL(D->Y) = R;
      VM_NEXT();
    }
    VM_CASE(LdSubSt) {
      ++S.Loads;
      ++S.SpillLoads;
      ++S.Stores;
      ++S.SpillStores;
      VM_REG(D->Aux) = VM_SPILL(D->X);
      const RtValue R =
          RtValue::makeInt(wrapSub(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_REG(D->Dst) = R;
      VM_SPILL(D->Y) = R;
      VM_NEXT();
    }
    VM_CASE(LdMulSt) {
      ++S.Loads;
      ++S.SpillLoads;
      ++S.Stores;
      ++S.SpillStores;
      VM_REG(D->Aux) = VM_SPILL(D->X);
      const RtValue R =
          RtValue::makeInt(wrapMul(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_REG(D->Dst) = R;
      VM_SPILL(D->Y) = R;
      VM_NEXT();
    }
    VM_CASE(LoadICmpEQCbr) {
      // The constant is compared straight from the pool (the frame store
      // still happens first, so aliased operands read the same value).
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C; // the loadI's own def
      const bool T = VM_REG(D->A) == C;
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(LoadICmpNECbr) {
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C;
      const bool T = VM_REG(D->A) != C;
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(LoadICmpLTCbr) {
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C;
      const bool T = VM_REG(D->A).asNumber() < C.asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(LoadICmpLECbr) {
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C;
      const bool T = VM_REG(D->A).asNumber() <= C.asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(LoadICmpGTCbr) {
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C;
      const bool T = VM_REG(D->A).asNumber() > C.asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(LoadICmpGECbr) {
      const RtValue C = VM_CONST(D->Y);
      VM_REG(D->X) = C;
      const bool T = VM_REG(D->A).asNumber() >= C.asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : D->B);
    }
    VM_CASE(MulAdd) {
      const int64_t M = wrapMul(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt());
      VM_REG(D->X) = RtValue::makeInt(M); // the mul's own def
      VM_REG(D->Dst) = RtValue::makeInt(wrapAdd(M, VM_REG(D->Y).rawInt()));
      VM_NEXT();
    }
    VM_CASE(AddLdIdx) {
      ++S.Loads;
      const int64_t Off = wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt());
      VM_REG(D->Y) = RtValue::makeInt(Off); // the add's own def
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos + 1,
                "array load out of bounds (index " + std::to_string(Off) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->X + Off];
      VM_NEXT();
    }
    VM_CASE(AddMv) {
      ++S.Copies;
      VM_REG(D->X) =
          RtValue::makeInt(wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_REG(D->Dst) = VM_REG(D->Aux);
      VM_NEXT();
    }
    VM_CASE(MvJmp) {
      ++S.Copies;
      VM_REG(D->Dst) = VM_REG(D->A);
      VM_ENTER(D->Aux);
    }
    VM_CASE(LdIdxLoadI) {
      ++S.Loads;
      const int64_t Off = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array load out of bounds (index " + std::to_string(Off) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->X + Off];
      VM_REG(D->Y) = VM_CONST(D->Aux);
      VM_NEXT();
    }
    VM_CASE(LoadILdSpill) {
      ++S.Loads;
      ++S.SpillLoads;
      VM_REG(D->Y) = VM_CONST(D->Aux); // the loadI's own def
      VM_REG(D->Dst) = VM_SPILL(D->X);
      VM_NEXT();
    }
    VM_CASE(LoadIStIdx) {
      ++S.Stores;
      VM_REG(D->Y) = VM_CONST(D->Aux); // the loadI's own def
      const int64_t Off = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos + 1,
                "array store out of bounds (index " + std::to_string(Off) +
                    ")");
      GlobV[D->X + Off] = VM_REG(D->B);
      VM_NEXT();
    }
    VM_CASE(StIdxLoadI) {
      ++S.Stores;
      const int64_t Off = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array store out of bounds (index " + std::to_string(Off) +
                    ")");
      GlobV[D->X + Off] = VM_REG(D->B);
      VM_REG(D->Y) = VM_CONST(D->Aux);
      VM_NEXT();
    }
    VM_CASE(LoadImm2) {
      VM_REG(D->Dst) = VM_CONST(D->Aux);
      VM_REG(D->Y) = VM_CONST(D->B);
      VM_NEXT();
    }
    VM_CASE(LdSpillAdd) {
      ++S.Loads;
      ++S.SpillLoads;
      VM_REG(D->Aux) = VM_SPILL(D->X); // the ldm's own def
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }
    VM_CASE(LdSpillMul) {
      ++S.Loads;
      ++S.SpillLoads;
      VM_REG(D->Aux) = VM_SPILL(D->X);
      VM_REG(D->Dst) =
          RtValue::makeInt(wrapMul(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_NEXT();
    }

    // 3-4 instruction chains. All component register writes still happen,
    // in original order, but values a later component consumes flow through
    // host registers rather than being reloaded from the frame.

    VM_CASE(LoadIAddMvJmp) {
      ++S.Copies;
      const RtValue C = VM_CONST(D->Aux);
      VM_REG(D->X) = C; // the loadI's own def
      const RtValue R =
          RtValue::makeInt(wrapAdd(C.rawInt(), VM_REG(D->A).rawInt()));
      VM_REG(D->Dst) = R; // the add's own def
      VM_REG(D->Y) = R;   // the mv copies the add result
      VM_ENTER(D->B);
    }
    VM_CASE(LoadILdSpillMulAdd) {
      ++S.Loads;
      ++S.SpillLoads;
      const RtValue C = VM_CONST(D->Aux);
      VM_REG(D->X) = C; // the loadI's own def
      const RtValue V = VM_SPILL(D->B);
      VM_REG(D->Z) = V; // the ldm's own def
      const int64_t M = wrapMul(C.rawInt(), V.rawInt());
      VM_REG(D->Y) = RtValue::makeInt(M); // the mul's own def
      VM_REG(D->Dst) = RtValue::makeInt(wrapAdd(M, VM_REG(D->A).rawInt()));
      VM_NEXT();
    }
    VM_CASE(MulAddLdIdx) {
      ++S.Loads;
      const int64_t M = wrapMul(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt());
      VM_REG(D->X) = RtValue::makeInt(M); // the mul's own def
      const int64_t Off = wrapAdd(M, VM_REG(D->Y).rawInt());
      VM_REG(D->Z) = RtValue::makeInt(Off); // the add's own def
      if (!inBounds(GEnd, D->Aux, Off))
        VM_FAIL(OutOfBounds, D->LinPos + 2,
                "array load out of bounds (index " + std::to_string(Off) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->Aux + Off];
      VM_NEXT();
    }
    VM_CASE(AddMvJmp) {
      ++S.Copies;
      VM_REG(D->X) =
          RtValue::makeInt(wrapAdd(VM_REG(D->A).rawInt(), VM_REG(D->B).rawInt()));
      VM_REG(D->Dst) = VM_REG(D->Aux); // the mv (its source may be the add dst)
      VM_ENTER(D->Z);
    }
    VM_CASE(LdGlobLoadIAddStGlob) {
      ++S.Loads;
      const RtValue V = GlobV[D->X];
      VM_REG(D->Z) = V; // the ldg's own def
      const RtValue C = VM_CONST(D->Aux);
      VM_REG(D->Y) = C; // the loadI's own def
      const RtValue R = RtValue::makeInt(wrapAdd(V.rawInt(), C.rawInt()));
      VM_REG(D->Dst) = R;
      ++S.Stores;
      GlobV[D->B] = R; // the stg stores the add result
      VM_NEXT();
    }
    VM_CASE(LdGlobCmpLTCbr) {
      ++S.Loads;
      VM_REG(D->Z) = GlobV[D->Y]; // the ldg's own def (may feed the compare)
      const bool T = VM_REG(D->A).asNumber() < VM_REG(D->B).asNumber();
      VM_REG(D->Dst) = RtValue::makeInt(T ? 1 : 0);
      VM_ENTER(T ? D->Aux : static_cast<uint32_t>(D->X));
    }
    VM_CASE(LdIdx2) {
      ++S.Loads;
      const int64_t Off1 = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off1))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array load out of bounds (index " + std::to_string(Off1) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->X + Off1];
      ++S.Loads;
      const int64_t Off2 = VM_REG(D->B).rawInt(); // may be the first load's dst
      if (!inBounds(GEnd, D->Aux, Off2))
        VM_FAIL(OutOfBounds, D->LinPos + 1,
                "array load out of bounds (index " + std::to_string(Off2) +
                    ")");
      VM_REG(D->Y) = GlobV[D->Aux + Off2];
      VM_NEXT();
    }
    VM_CASE(LdIdxStIdx) {
      ++S.Loads;
      const int64_t Off1 = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off1))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array load out of bounds (index " + std::to_string(Off1) +
                    ")");
      VM_REG(D->Dst) = GlobV[D->X + Off1];
      ++S.Stores;
      const int64_t Off2 = VM_REG(D->B).rawInt(); // store operands may be the
      const RtValue Val = VM_REG(D->Z);           // load's dst
      if (!inBounds(GEnd, D->Aux, Off2))
        VM_FAIL(OutOfBounds, D->LinPos + 1,
                "array store out of bounds (index " + std::to_string(Off2) +
                    ")");
      GlobV[D->Aux + Off2] = Val;
      VM_NEXT();
    }
    VM_CASE(StIdx2) {
      ++S.Stores;
      const int64_t Off1 = VM_REG(D->A).rawInt();
      if (!inBounds(GEnd, D->X, Off1))
        VM_FAIL(OutOfBounds, D->LinPos,
                "array store out of bounds (index " + std::to_string(Off1) +
                    ")");
      GlobV[D->X + Off1] = VM_REG(D->B);
      ++S.Stores;
      const int64_t Off2 = VM_REG(D->Y).rawInt();
      if (!inBounds(GEnd, D->Aux, Off2))
        VM_FAIL(OutOfBounds, D->LinPos + 1,
                "array store out of bounds (index " + std::to_string(Off2) +
                    ")");
      GlobV[D->Aux + Off2] = VM_REG(D->Z);
      VM_NEXT();
    }
  }
  // All handlers transfer control explicitly; reaching here means a
  // corrupted op stream.
  assert(false && "unhandled decoded op");
  return;

do_return: {
  E.Res.ReturnValue = RetV;
  const Frame Popped = Stack.back();
  Stack.pop_back();
  E.CellTop = Popped.Base;
  if (Stack.empty()) {
    E.Res.Stats = S;
    E.Res.Ok = true;
    return;
  }
  VM_LOAD_FRAME();
  if (Popped.ReturnDst != NoReg)
    Frm[Popped.ReturnDst] = RetV;
  VM_ENTER(Stack.back().PC * sizeof(DecOp));
}

bail: {
  // The stretch at D does not fit the remaining budget, so the run ends
  // within it. Convert every stacked PC from decoded to linear coordinates
  // and let the reference engine finish with per-instruction fuel checks —
  // it produces the exact trap (or completion) the original interpreter
  // would have.
  Stack.back().PC = static_cast<uint32_t>(D - Ops);
  for (Frame &Fr : Stack)
    Fr.PC = Funcs[Fr.FuncId].Dec.Ops[Fr.PC].LinPos;
  E.Res.Stats = S;
  E.runSwitch();
  return;
}
}

} // namespace

void Engine::runThreaded() { runLoop(*this); }
