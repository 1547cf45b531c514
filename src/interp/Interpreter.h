//===- interp/Interpreter.h - ILOC interpreter ------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an IlocProgram and counts executed cycles, loads, stores, and
/// copies — the measurements behind the paper's Table 1 ("An iloc
/// interpreter is used to count the number of cycles required to execute the
/// code. For this study, we assume that each instruction takes one cycle.").
///
/// Each activation gets its own register window (virtual registers before
/// allocation, k physical registers after) and frame-local spill area, so
/// recursion works and spill slots cannot alias across activations. Calls
/// and returns cost one cycle each; argument marshalling is free, identical
/// for both allocators (see DESIGN.md, "Calls").
///
/// Two execution engines share one observable behavior (DESIGN.md §11):
///
///   * Threaded (default): each function is pre-decoded once into a flat
///     buffer of resolved ops with fused superinstructions, dispatched via
///     computed goto, with fuel checked per basic-block stretch.
///   * Switch: the original one-instruction-at-a-time reference engine over
///     the linearized stream. It is the differential-testing oracle, the
///     benchmark baseline, and the fallback the threaded engine hands a run
///     to when the fuel budget nears exhaustion.
///
/// Cycle counts, traps, fuel semantics, and telemetry are identical between
/// the two — asserted over the fuzz corpus by the differential test.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_INTERP_INTERPRETER_H
#define RAP_INTERP_INTERPRETER_H

#include "ir/IlocProgram.h"
#include "ir/Linearize.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rap {

namespace interp {
struct CachedFunc;
struct Engine;
} // namespace interp

/// Dynamic execution counters (Table 1 raw data).
struct ExecStats {
  uint64_t Cycles = 0;
  uint64_t Loads = 0;       ///< executed ldm/ldg/ldx
  uint64_t Stores = 0;      ///< executed stm/stg/stx
  uint64_t SpillLoads = 0;  ///< executed ldm only
  uint64_t SpillStores = 0; ///< executed stm only
  uint64_t Copies = 0;      ///< executed mv
  uint64_t Calls = 0;
  uint64_t MaxCallDepth = 0;
};

/// Structured classification of interpreter failures. Every abnormal stop
/// is one of these kinds; the names are stable strings that tests, the
/// fuzzer's differential oracle, and repro artifacts key on (a renamed kind
/// is a silent signature change — treat the list as an ABI).
enum class TrapKind {
  None,          ///< run completed (or has not failed yet)
  DivideByZero,  ///< integer or float division/modulo by zero
  OutOfBounds,   ///< array load/store outside its global's extent
  FuelExhausted, ///< instruction budget hit: non-terminating program
  StackOverflow, ///< call depth exceeded the frame cap
  NoEntry,       ///< entry function missing or taking parameters
  BadCall,       ///< call arity does not match the callee (malformed IR)
};

/// Stable machine-readable name ("div-by-zero", "fuel-exhausted", ...).
const char *trapKindName(TrapKind Kind);

/// One structured trap: what happened, where (pc within the function's
/// linearized code, plus the function), and a human-readable detail.
struct Trap {
  TrapKind Kind = TrapKind::None;
  uint64_t PC = 0;          ///< index into the linearized code
  std::string Function;     ///< function executing at the trap
  std::string Detail;       ///< e.g. "integer division by zero"

  /// "kind @function+pc: detail" — the rendering used in errors and repro
  /// artifacts.
  std::string str() const;
};

struct RunResult {
  bool Ok = false;
  std::string Error; ///< set when !Ok (e.g. "division by zero at ...")
  /// Structured counterpart of Error: Kind != None exactly when !Ok after a
  /// run (compile-level failures reported through compileAndRun leave it
  /// None and use Error alone).
  Trap TrapInfo;
  RtValue ReturnValue;
  ExecStats Stats;
};

/// Which execution engine drives a run. Threaded and Switch are observably
/// identical; Switch exists as oracle, baseline, and bail-out target.
enum class DispatchKind {
  Threaded, ///< pre-decoded ops, superinstructions, block-granular fuel
  Switch,   ///< per-instruction reference engine over the linearized stream
};

/// Process default: Switch when the environment sets RAP_INTERP=switch,
/// Threaded otherwise (including RAP_INTERP=threaded and unset).
DispatchKind defaultInterpDispatch();

/// Per-interpreter configuration. The default engine follows RAP_INTERP so
/// the whole test suite can be forced onto the reference engine without
/// touching call sites (CI runs the tier-1 suite that way).
struct InterpOptions {
  DispatchKind Dispatch = defaultInterpDispatch();
};

class Interpreter {
public:
  /// Caches a linearization of every function — and, for the threaded
  /// engine, a pre-decoded form resolved against the program's current
  /// register assignment — so the program must not be mutated while the
  /// interpreter is alive.
  explicit Interpreter(const IlocProgram &Prog, InterpOptions Opts = {});
  ~Interpreter();

  /// Runs \p Entry (default "main", which must take no parameters) on
  /// zero-initialized global memory. \p Fuel bounds the number of executed
  /// instructions to catch runaway programs.
  RunResult run(const std::string &Entry = "main",
                uint64_t Fuel = 500'000'000);

  /// Global memory after the last run (for tests inspecting results).
  const std::vector<RtValue> &globalMemory() const { return Glob; }

  /// The engine selected at construction.
  DispatchKind dispatch() const { return Dispatch; }

  /// Static count of decoded ops with mnemonic \p Name ("mul_add_ldx",
  /// "loadi_cmp_lt_cbr", ...) across all functions — lets tests assert a
  /// source pattern actually decoded to the superinstruction under test.
  /// Zero under Switch, which never decodes.
  uint64_t decodedOpCount(const char *Name) const;

private:
  const IlocProgram &Prog;
  DispatchKind Dispatch;
  std::vector<interp::CachedFunc> Funcs;
  std::vector<RtValue> Glob;
  /// For strict array bounds checks: end address of the global that starts
  /// at a given cell address; -1 if the address is not a global's base.
  std::vector<int> GlobalEnd;
};

} // namespace rap

#endif // RAP_INTERP_INTERPRETER_H
