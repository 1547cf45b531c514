//===- fuzz/Runner.h - Crash-free-contract fuzz runner ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one input through the crash-free compilation contract and classifies
/// the result. The contract (DESIGN.md §10): for every input — hostile or
/// well-formed — parse, sema, lowering, allocation ({GRA,RAP} × k), and
/// differential execution all complete inside the process, landing on
/// exactly one documented outcome. Rejecting the input with diagnostics is a
/// *clean* outcome; dying, hanging, or the allocators disagreeing about the
/// program's behaviour is a *failing* one.
///
/// Failing reports carry a stable Signature string (e.g.
/// "mismatch:rap:k3:return-value", "internal:lowering",
/// "alloc-error:gra:k5:injected-fault"). The reducer's predicate is
/// signature equality, so a minimized repro is guaranteed to reproduce the
/// *same* failure, not just some failure.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_FUZZ_RUNNER_H
#define RAP_FUZZ_RUNNER_H

#include "driver/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rap::fuzz {

/// Resource caps for one contract run. Defaults suit in-process fuzzing of
/// generator-sized programs: small enough to turn pathological inputs into
/// clean resource outcomes quickly, large enough that real programs finish.
struct FuzzLimits {
  /// Instruction budget for the reference (unallocated) run. Allocated runs
  /// get 8x this plus slack: spill code legitimately executes more
  /// instructions, never 8x more.
  uint64_t Fuel = 2'000'000;

  /// Per-function allocation wall-clock budget (AllocOptions::MaxAllocSeconds)
  /// — the anti-hang guard for the allocators themselves.
  double MaxAllocSeconds = 5.0;

  /// Inputs larger than this are clean-rejected before compilation.
  size_t MaxSourceBytes = 1u << 20;

  /// Register counts to test differentially (the paper's 3/5/7/9).
  std::vector<unsigned> Ks = {3, 5, 7, 9};

  /// Fault drill: inject this plan with fallback disabled, so the
  /// allocation failure surfaces as a failing report for the reducer.
  /// Empty = normal fuzzing (fallback on, degradation is a clean outcome).
  FaultPlan Faults;
};

enum class FuzzOutcome {
  CleanCompileError, ///< diagnostics rejected the input (expected, clean)
  CleanRun,          ///< every configuration ran and agreed
  CleanTrap,         ///< every configuration trapped identically (or the
                     ///< reference ran out of fuel: behaviour unobservable)
  Degraded,          ///< some function fell back to spill-everything, and
                     ///< the degraded program still agreed (clean)
  InternalError,     ///< FAILING: an "internal error" diagnostic — a bug
                     ///< escaped a stage and was caught by the last fence
  AllocFailure,      ///< FAILING: allocation failed hard (no-fallback mode)
  Hang,              ///< FAILING: an allocated run blew the scaled budget
                     ///< while the reference terminated
  Mismatch,          ///< FAILING: configurations disagree (value or trap)
};

const char *fuzzOutcomeName(FuzzOutcome O);

struct FuzzReport {
  FuzzOutcome Outcome = FuzzOutcome::CleanRun;
  /// Stable failure identity (reducer predicate); empty for clean outcomes.
  std::string Signature;
  /// Human-readable expected-vs-got / diagnostic excerpt. For Degraded:
  /// what degraded, as "<config>: <function>: <error kind>" entries joined
  /// by "; ".
  std::string Detail;

  bool failing() const {
    return Outcome == FuzzOutcome::InternalError ||
           Outcome == FuzzOutcome::AllocFailure ||
           Outcome == FuzzOutcome::Hang || Outcome == FuzzOutcome::Mismatch;
  }
};

/// Runs \p Source through the full contract under \p Limits.
FuzzReport runContract(const std::string &Source, const FuzzLimits &Limits);

/// Writes a self-contained repro artifact: a valid-to-replay .mc file whose
/// leading comment block records the failure signature, the limits, and the
/// expected-vs-got detail. Returns the path written, or "" on I/O failure.
/// \p Dir is created if missing.
std::string writeRepro(const std::string &Dir, const std::string &Name,
                       const std::string &Source, const FuzzReport &Report,
                       const FuzzLimits &Limits);

} // namespace rap::fuzz

#endif // RAP_FUZZ_RUNNER_H
