//===- fuzz/ScaleProgram.h - Seeded scale-program generator -----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RandomProgramBuilder's big sibling: a seeded generator of *large* MiniC
/// workloads for the scaling story — modules of up to 10k functions and
/// single functions with deep, wide region trees — under the same safety
/// discipline (always terminating, always in-bounds, integer-only, so runs
/// compare exactly and never trap under a sufficient --fuel).
///
/// Two products:
///
///  * buildModule() — a NumFunctions-function module mixing straight-line,
///    loop-nest, wide-branch, call-heavy and (optionally) recursive shapes,
///    with a main() that exercises a sample of them and returns a checksum.
///    Call graphs are depth-bounded by construction: call-heavy functions
///    only call designated leaf functions (and mix()), recursion is
///    self-recursion on a strictly decreasing argument.
///
///  * buildDeepFunction() — one function whose region tree has Depth levels
///    of Fanout sibling loop/branch subtrees each, plus a configurable band
///    of live-across scalars: thousands of regions in one function. It is
///    the perfbench `deep` workload and the spill-heavy program of the
///    golden-output test.
///
/// Same seed + same config => byte-identical program text (a property test
/// enforces this).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_FUZZ_SCALEPROGRAM_H
#define RAP_FUZZ_SCALEPROGRAM_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace rap::fuzz {

struct ScaleProgramConfig {
  unsigned Seed = 1;

  //===--- buildModule knobs ---------------------------------------------===//
  unsigned NumFunctions = 100; ///< generated functions besides main/mix
  unsigned MaxLoopDepth = 3;   ///< loop/branch nesting inside one function
  unsigned StmtsPerFunction = 10; ///< top-level statements per function
  /// Percentage (0..100) of non-leaf functions that make calls. Callees are
  /// always leaves, so call chains are at most two frames deep (plus mix).
  unsigned CallDensityPct = 30;
  bool Recursion = true; ///< emit bounded self-recursive functions
  /// Sibling arms per wide-branch shape (consecutive ifs in one region —
  /// the PDG's parallel composition).
  unsigned WideBranchFanout = 4;
  /// Scalars initialized at function entry and folded into the return
  /// value, so they stay live across the whole body (register pressure).
  unsigned PressureVars = 8;

  //===--- buildDeepFunction knobs ---------------------------------------===//
  unsigned DeepDepth = 4;  ///< levels of nesting
  unsigned DeepFanout = 3; ///< sibling subtrees per level
};

class ScaleProgramBuilder {
public:
  explicit ScaleProgramBuilder(const ScaleProgramConfig &Config)
      : Config(Config), Rng(Config.Seed) {}

  /// A whole module per the module knobs. Resets generator state, so two
  /// builders with equal configs produce byte-identical text.
  std::string buildModule();

  /// A program holding one deep, wide function `deep(a, b)` (per the
  /// deep-function knobs) plus a main() that calls it and returns the
  /// checksum. PressureVars applies per nesting level.
  std::string buildDeepFunction();

private:
  void line(const std::string &S);
  unsigned pick(unsigned N) { return static_cast<unsigned>(Rng() % N); }
  std::string expr(unsigned Depth);
  std::string cond();
  std::string safeIndex();
  void emitStmt(unsigned Depth, bool AllowCalls);
  void emitFunction(unsigned Index);
  void emitDeepLevel(unsigned Level);
  void resetPerFunction();

  ScaleProgramConfig Config;
  std::mt19937 Rng;
  std::string Out;
  int Indent = 0;

  std::vector<std::string> Vars;     ///< assignable scalars in scope
  std::vector<std::string> LoopVars; ///< live loop induction variables
  std::vector<std::string> Leaves;   ///< callable leaf functions f(a, b)
  std::vector<std::string> Recs;     ///< callable bounded-recursion fns r(n)
  unsigned NextLoopVar = 0;
  unsigned NextTemp = 0;
};

} // namespace rap::fuzz

#endif // RAP_FUZZ_SCALEPROGRAM_H
