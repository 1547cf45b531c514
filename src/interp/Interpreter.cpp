//===- interp/Interpreter.cpp - ILOC interpreter ----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// This file holds the interpreter's shell (construction, run setup, trap
// rendering) and the reference switch engine. The reference engine is the
// behavioral specification: it executes the linearized stream one
// instruction at a time with a fuel check before each, and every other
// execution strategy must be observationally equal to it. It is written for
// clarity over speed — the direct-threaded engine (Threaded.cpp) is the fast
// path, and hands runs to this engine when the fuel budget nears exhaustion.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Engine.h"
#include "interp/WrapMath.h"
#include "support/Env.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>

using namespace rap;
using namespace rap::interp;

const char *rap::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::DivideByZero:
    return "div-by-zero";
  case TrapKind::OutOfBounds:
    return "out-of-bounds";
  case TrapKind::FuelExhausted:
    return "fuel-exhausted";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::NoEntry:
    return "no-entry";
  case TrapKind::BadCall:
    return "bad-call";
  }
  return "unknown";
}

std::string Trap::str() const {
  std::string Out = trapKindName(Kind);
  if (!Function.empty())
    Out += " @" + Function + "+" + std::to_string(PC);
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

DispatchKind rap::defaultInterpDispatch() {
  const std::optional<std::string> &V = env::get("RAP_INTERP");
  if (V && *V == "switch")
    return DispatchKind::Switch;
  return DispatchKind::Threaded;
}

Interpreter::Interpreter(const IlocProgram &Prog, InterpOptions Opts)
    : Prog(Prog), Dispatch(Opts.Dispatch) {
  Funcs.reserve(Prog.functions().size());
  for (const auto &F : Prog.functions()) {
    CachedFunc C;
    C.F = F.get();
    C.Code = linearize(*F);
    C.RegCount = F->isAllocated() ? F->numPhysRegs() : F->numVRegs();
    C.SpillCount = static_cast<uint32_t>(F->numSpillSlots());
    if (Dispatch == DispatchKind::Threaded)
      C.Dec = decodeFunction(Prog, C.Code);
    Funcs.push_back(std::move(C));
  }
  GlobalEnd.assign(static_cast<size_t>(Prog.globalMemorySize()), -1);
  for (const GlobalVar &G : Prog.globals())
    GlobalEnd[G.Addr] = G.Addr + G.Size;
}

Interpreter::~Interpreter() = default;

uint64_t Interpreter::decodedOpCount(const char *Name) const {
  uint64_t N = 0;
  for (const CachedFunc &C : Funcs)
    for (const DecOp &D : C.Dec.Ops)
      if (std::strcmp(dopName(D.Op), Name) == 0)
        ++N;
  return N;
}

RunResult Interpreter::run(const std::string &Entry, uint64_t Fuel) {
  RunResult Setup;
  const IlocFunction *EntryF = Prog.findFunction(Entry);
  if (!EntryF) {
    Setup.Error = "entry function '" + Entry + "' not found";
    Setup.TrapInfo = {TrapKind::NoEntry, 0, Entry, Setup.Error};
    return Setup;
  }
  int EntryId = Prog.functionId(EntryF);
  if (EntryF->numParams() != 0) {
    Setup.Error = "entry function '" + Entry + "' must take no parameters";
    Setup.TrapInfo = {TrapKind::NoEntry, 0, Entry, Setup.Error};
    return Setup;
  }

  Glob.assign(static_cast<size_t>(Prog.globalMemorySize()),
              RtValue::makeInt(0));

  Engine E{Funcs, Glob, GlobalEnd, Fuel, {}, {}, 0, {}};
  E.pushFrame(EntryId, NoReg);
  E.Res.Stats.MaxCallDepth = 1;

  if (Dispatch == DispatchKind::Threaded)
    E.runThreaded();
  else
    E.runSwitch();
  return std::move(E.Res);
}

//===----------------------------------------------------------------------===//
// The reference switch engine.
//===----------------------------------------------------------------------===//

void Engine::runSwitch() {
  ExecStats &S = Res.Stats;

  auto Fail = [&](TrapKind Kind, const Instr *I, const std::string &Msg) {
    std::ostringstream OS;
    OS << Msg << " (at '" << I->str() << "')";
    Res.Ok = false;
    Res.Error = OS.str();
    Res.TrapInfo.Kind = Kind;
    Res.TrapInfo.Detail = Msg;
    if (!Stack.empty()) {
      Res.TrapInfo.PC = Stack.back().PC;
      Res.TrapInfo.Function = Funcs[Stack.back().FuncId].F->name();
    }
  };

  // Performs a return: pops the frame and writes the value into the caller.
  auto DoReturn = [&](RtValue V) {
    Frame Popped = Stack.back();
    Stack.pop_back();
    CellTop = Popped.Base;
    if (!Stack.empty() && Popped.ReturnDst != NoReg)
      Cells[Stack.back().Base + Popped.ReturnDst] = V;
    return V;
  };

  while (!Stack.empty()) {
    Frame &Fr = Stack.back();
    const CachedFunc &C = Funcs[Fr.FuncId];
    const auto &Instrs = C.Code.Instrs;

    if (Fr.PC >= Instrs.size()) {
      // Fell off the end: implicit void return.
      Res.ReturnValue = DoReturn(RtValue::makeInt(0));
      continue;
    }
    if (S.Cycles >= Fuel) {
      Res.Error = "fuel exhausted: possible infinite loop";
      Res.TrapInfo = {TrapKind::FuelExhausted, Fr.PC, C.F->name(),
                      "executed " + std::to_string(S.Cycles) +
                          " instructions without halting"};
      return;
    }

    const Instr *I = Instrs[Fr.PC];
    ++S.Cycles;
    if (isLoadOpcode(I->Op)) {
      ++S.Loads;
      S.SpillLoads += I->Op == Opcode::LdSpill;
    }
    if (isStoreOpcode(I->Op)) {
      ++S.Stores;
      S.SpillStores += I->Op == Opcode::StSpill;
    }
    if (I->Op == Opcode::Mv)
      ++S.Copies;

    // The frame's register window: registers first, then spill slots.
    RtValue *Regs = Cells.data() + Fr.Base;
    RtValue *Spill = Regs + C.RegCount;
    auto R = [&](unsigned Idx) -> RtValue & { return Regs[I->Src[Idx]]; };
    unsigned NextPC = Fr.PC + 1;

    switch (I->Op) {
    case Opcode::LoadI:
    case Opcode::LoadF:
      Regs[I->Dst] = I->Imm;
      break;
    case Opcode::Mv:
      Regs[I->Dst] = R(0);
      break;
    case Opcode::Add:
      Regs[I->Dst] = RtValue::makeInt(wrapAdd(R(0).asInt(), R(1).asInt()));
      break;
    case Opcode::Sub:
      Regs[I->Dst] = RtValue::makeInt(wrapSub(R(0).asInt(), R(1).asInt()));
      break;
    case Opcode::Mul:
      Regs[I->Dst] = RtValue::makeInt(wrapMul(R(0).asInt(), R(1).asInt()));
      break;
    case Opcode::Div:
      if (R(1).asInt() == 0)
        return Fail(TrapKind::DivideByZero, I, "integer division by zero");
      Regs[I->Dst] = RtValue::makeInt(wrapDiv(R(0).asInt(), R(1).asInt()));
      break;
    case Opcode::Mod:
      if (R(1).asInt() == 0)
        return Fail(TrapKind::DivideByZero, I, "integer modulo by zero");
      Regs[I->Dst] = RtValue::makeInt(wrapMod(R(0).asInt(), R(1).asInt()));
      break;
    case Opcode::Neg:
      Regs[I->Dst] = RtValue::makeInt(wrapSub(0, R(0).asInt()));
      break;
    case Opcode::And:
      Regs[I->Dst] =
          RtValue::makeInt((R(0).asInt() != 0 && R(1).asInt() != 0) ? 1 : 0);
      break;
    case Opcode::Or:
      Regs[I->Dst] =
          RtValue::makeInt((R(0).asInt() != 0 || R(1).asInt() != 0) ? 1 : 0);
      break;
    case Opcode::Not:
      Regs[I->Dst] = RtValue::makeInt(R(0).asInt() == 0 ? 1 : 0);
      break;
    case Opcode::FAdd:
      Regs[I->Dst] = RtValue::makeFloat(R(0).asFloat() + R(1).asFloat());
      break;
    case Opcode::FSub:
      Regs[I->Dst] = RtValue::makeFloat(R(0).asFloat() - R(1).asFloat());
      break;
    case Opcode::FMul:
      Regs[I->Dst] = RtValue::makeFloat(R(0).asFloat() * R(1).asFloat());
      break;
    case Opcode::FDiv:
      if (R(1).asFloat() == 0.0)
        return Fail(TrapKind::DivideByZero, I,
                    "floating-point division by zero");
      Regs[I->Dst] = RtValue::makeFloat(R(0).asFloat() / R(1).asFloat());
      break;
    case Opcode::FNeg:
      Regs[I->Dst] = RtValue::makeFloat(-R(0).asFloat());
      break;
    case Opcode::CmpEQ:
      Regs[I->Dst] = RtValue::makeInt(R(0) == R(1) ? 1 : 0);
      break;
    case Opcode::CmpNE:
      Regs[I->Dst] = RtValue::makeInt(R(0) != R(1) ? 1 : 0);
      break;
    case Opcode::CmpLT:
      Regs[I->Dst] =
          RtValue::makeInt(R(0).asNumber() < R(1).asNumber() ? 1 : 0);
      break;
    case Opcode::CmpLE:
      Regs[I->Dst] =
          RtValue::makeInt(R(0).asNumber() <= R(1).asNumber() ? 1 : 0);
      break;
    case Opcode::CmpGT:
      Regs[I->Dst] =
          RtValue::makeInt(R(0).asNumber() > R(1).asNumber() ? 1 : 0);
      break;
    case Opcode::CmpGE:
      Regs[I->Dst] =
          RtValue::makeInt(R(0).asNumber() >= R(1).asNumber() ? 1 : 0);
      break;
    case Opcode::I2F:
      Regs[I->Dst] = RtValue::makeFloat(static_cast<double>(R(0).asInt()));
      break;
    case Opcode::F2I:
      Regs[I->Dst] = RtValue::makeInt(saturatingF2I(R(0).asFloat()));
      break;
    case Opcode::LdSpill:
      Regs[I->Dst] = Spill[I->Slot];
      break;
    case Opcode::StSpill:
      Spill[I->Slot] = R(0);
      break;
    case Opcode::LdGlob:
      Regs[I->Dst] = Glob[I->Addr];
      break;
    case Opcode::StGlob:
      Glob[I->Addr] = R(0);
      break;
    case Opcode::LdIdx: {
      int64_t Off = R(0).asInt();
      if (!inBounds(GlobalEnd.data(), I->Addr, Off))
        return Fail(TrapKind::OutOfBounds, I,
                    "array load out of bounds (index " + std::to_string(Off) +
                        ")");
      Regs[I->Dst] = Glob[I->Addr + Off];
      break;
    }
    case Opcode::StIdx: {
      int64_t Off = R(0).asInt();
      if (!inBounds(GlobalEnd.data(), I->Addr, Off))
        return Fail(TrapKind::OutOfBounds, I,
                    "array store out of bounds (index " + std::to_string(Off) +
                        ")");
      Glob[I->Addr + Off] = R(1);
      break;
    }
    case Opcode::Jmp:
      NextPC = C.Code.LabelPos[I->Label0];
      break;
    case Opcode::Cbr:
      NextPC = R(0).asInt() != 0 ? C.Code.LabelPos[I->Label0]
                                 : C.Code.LabelPos[I->Label1];
      break;
    case Opcode::Call: {
      ++S.Calls;
      if (Stack.size() >= MaxCallStack)
        return Fail(TrapKind::StackOverflow, I, "call stack overflow");
      const IlocFunction *Callee = Funcs[I->Callee].F;
      if (I->Src.size() != Callee->numParams())
        return Fail(TrapKind::BadCall, I,
                    "call passes " + std::to_string(I->Src.size()) +
                        " arguments to '" + Callee->name() + "' expecting " +
                        std::to_string(Callee->numParams()));
      Fr.PC = NextPC; // resume point after return
      pushFrame(I->Callee, I->Dst); // invalidates Fr/Regs
      Frame &Caller = Stack[Stack.size() - 2];
      RtValue *CallerRegs = Cells.data() + Caller.Base;
      RtValue *CalleeRegs = Cells.data() + Stack.back().Base;
      for (unsigned A = 0; A != I->Src.size(); ++A) {
        // NoReg marks a parameter the callee never reads; writing it anyway
        // would clobber whichever live register the allocator reused.
        Reg PR = Callee->paramReg(A);
        if (PR != NoReg)
          CalleeRegs[PR] = CallerRegs[I->Src[A]];
      }
      S.MaxCallDepth = std::max<uint64_t>(S.MaxCallDepth, Stack.size());
      continue;
    }
    case Opcode::Ret: {
      RtValue V = I->Src.empty() ? RtValue::makeInt(0) : Regs[I->Src[0]];
      Res.ReturnValue = DoReturn(V);
      continue;
    }
    case Opcode::Halt:
      Res.Ok = true;
      return;
    }
    Fr.PC = NextPC;
  }

  Res.Ok = true;
}
