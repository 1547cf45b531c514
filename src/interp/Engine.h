//===- interp/Engine.h - Shared interpreter run state -----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution state shared by the interpreter's two engines (DESIGN.md
/// §11): the direct-threaded engine that runs pre-decoded ops, and the
/// reference switch engine that walks the linearized instruction stream one
/// instruction at a time. Both operate on the same frame stack and cell
/// array, so the threaded engine can hand a run over to the reference engine
/// mid-flight (the fuel bail-out) and the result is indistinguishable from a
/// pure reference run.
///
/// Frames live in one contiguous cell stack: each activation owns the window
/// [Base, Base + RegCount + SpillCount) of Cells, registers first, spill
/// slots after. Pushing a frame zero-fills its window (the contract the
/// per-frame vectors of the original interpreter provided); any RtValue
/// pointer into Cells is invalidated by a push.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_INTERP_ENGINE_H
#define RAP_INTERP_ENGINE_H

#include "interp/Decode.h"
#include "interp/Interpreter.h"

#include <cstring>
#include <string>
#include <vector>

namespace rap::interp {

/// One activation record. PC is an index into the decoded op buffer while
/// the threaded engine is driving and into the linearized instruction stream
/// under the reference engine; the bail-out converts every stacked PC from
/// decoded to linear (DecOp::LinPos) before switching drivers.
struct Frame {
  int FuncId = -1;
  uint32_t PC = 0;
  uint32_t Base = 0;     ///< first cell of this frame's window
  Reg ReturnDst = NoReg; ///< caller register receiving the return value
};

/// Call stack depth cap: the StackOverflow trap threshold.
inline constexpr size_t MaxCallStack = 100000;

/// The array bounds check of both engines' indexed loads and stores: true
/// when cell \p Addr + \p Off lies inside the global whose base is \p Addr.
/// \p GlobalEnd maps a base to its global's end (-1 for a cell that is no
/// global's base, which makes End - Addr negative). \p Off is compared with
/// the global's size rather than added to \p Addr, so an index near
/// INT64_MAX cannot overflow into a cell of a neighboring global.
inline bool inBounds(const int *GlobalEnd, int Addr, int64_t Off) {
  return Off >= 0 && Off < GlobalEnd[Addr] - Addr;
}

/// One run's mutable state plus the immutable program context it executes
/// against. Constructed per run() by the Interpreter; the engine entry
/// points drive it to completion and leave the outcome in Res.
struct Engine {
  const std::vector<CachedFunc> &Funcs;
  std::vector<RtValue> &Glob;
  const std::vector<int> &GlobalEnd;
  const uint64_t Fuel;

  std::vector<Frame> Stack;
  std::vector<RtValue> Cells;
  size_t CellTop = 0; ///< cells in use; Cells keeps its high-water size
  RunResult Res;

  /// Pushes a zero-initialized activation of \p FuncId. Invalidates cell
  /// pointers. The caller's resume PC must already be saved.
  ///
  /// The cell stack grows to its high-water mark once and stays there
  /// (popping only lowers CellTop), so in steady state a push is a memset
  /// of the window rather than a vector resize. The memset is sound:
  /// RtValue is trivially copyable and its all-zero-bytes pattern is
  /// exactly makeInt(0), the value the zero-fill contract requires.
  void pushFrame(int FuncId, Reg ReturnDst) {
    const CachedFunc &C = Funcs[FuncId];
    const size_t Win = static_cast<size_t>(C.RegCount) + C.SpillCount;
    Frame Fr;
    Fr.FuncId = FuncId;
    Fr.Base = static_cast<uint32_t>(CellTop);
    Fr.ReturnDst = ReturnDst;
    CellTop += Win;
    if (CellTop > Cells.size())
      Cells.resize(CellTop);
    if (Win) // Cells may still be empty, and memset wants a real pointer
      std::memset(static_cast<void *>(Cells.data() + Fr.Base), 0,
                  Win * sizeof(RtValue));
    Stack.push_back(Fr);
  }

  /// Runs pre-decoded ops with block-granular fuel checks; bails out to
  /// runSwitch() when the remaining budget cannot cover a stretch.
  void runThreaded();

  /// The reference engine: executes the linearized stream per instruction
  /// from the current state (frame PCs in linear coordinates) until the run
  /// completes or traps. Also the resumption target of the fuel bail-out.
  void runSwitch();

  /// Trap at linear position \p LinPC of \p FuncId: mirrors the reference
  /// engine's error rendering exactly ("Msg (at 'instr')" plus structured
  /// TrapInfo).
  void fail(TrapKind Kind, int FuncId, uint32_t LinPC, const std::string &Msg) {
    const CachedFunc &C = Funcs[FuncId];
    Res.Ok = false;
    Res.Error = Msg + " (at '" + C.Code.Instrs[LinPC]->str() + "')";
    Res.TrapInfo.Kind = Kind;
    Res.TrapInfo.Detail = Msg;
    Res.TrapInfo.PC = LinPC;
    Res.TrapInfo.Function = C.F->name();
  }
};

} // namespace rap::interp

#endif // RAP_INTERP_ENGINE_H
