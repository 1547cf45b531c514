//===- fuzz/Runner.cpp - Crash-free-contract fuzz runner --------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Runner.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rap;
using namespace rap::fuzz;

namespace {

/// First line of a (possibly multi-line) diagnostic blob, for signatures.
std::string firstLine(const std::string &S) {
  size_t NL = S.find('\n');
  return NL == std::string::npos ? S : S.substr(0, NL);
}

bool isInternalError(const std::string &Errors) {
  return Errors.find("internal error:") != std::string::npos ||
         Errors.find("internal lowering error") != std::string::npos ||
         Errors.find("internal:") != std::string::npos;
}

/// "injected-fault" out of "allocation failed: injected-fault in 'f': ...".
std::string allocErrorKindOf(const std::string &Errors) {
  const std::string Tag = "allocation failed: ";
  size_t P = Errors.find(Tag);
  if (P == std::string::npos)
    return "unknown";
  size_t Start = P + Tag.size();
  size_t End = Errors.find_first_of(" \n", Start);
  return Errors.substr(Start, End == std::string::npos ? End : End - Start);
}

std::string configName(AllocatorKind Kind, unsigned K) {
  return std::string(Kind == AllocatorKind::Rap ? "rap" : "gra") + ":k" +
         std::to_string(K);
}

std::string faultPlanSpec(const FaultPlan &Plan) {
  if (Plan.empty())
    return "none";
  std::string Out;
  for (const FaultPlan::Arm &A : Plan.Arms) {
    if (!Out.empty())
      Out += ',';
    Out += std::string(faultSiteName(A.Site)) + ":" + std::to_string(A.Nth);
    if (!A.Function.empty())
      Out += "@" + A.Function;
  }
  return Out;
}

FuzzReport clean(FuzzOutcome O) {
  FuzzReport R;
  R.Outcome = O;
  return R;
}

FuzzReport fail(FuzzOutcome O, std::string Signature, std::string Detail) {
  FuzzReport R;
  R.Outcome = O;
  R.Signature = std::move(Signature);
  R.Detail = std::move(Detail);
  return R;
}

} // namespace

const char *rap::fuzz::fuzzOutcomeName(FuzzOutcome O) {
  switch (O) {
  case FuzzOutcome::CleanCompileError:
    return "clean-compile-error";
  case FuzzOutcome::CleanRun:
    return "clean-run";
  case FuzzOutcome::CleanTrap:
    return "clean-trap";
  case FuzzOutcome::Degraded:
    return "degraded";
  case FuzzOutcome::InternalError:
    return "internal-error";
  case FuzzOutcome::AllocFailure:
    return "alloc-failure";
  case FuzzOutcome::Hang:
    return "hang";
  case FuzzOutcome::Mismatch:
    return "mismatch";
  }
  return "unknown";
}

FuzzReport rap::fuzz::runContract(const std::string &Source,
                                  const FuzzLimits &Limits) {
  if (Source.size() > Limits.MaxSourceBytes)
    return clean(FuzzOutcome::CleanCompileError);

  // Reference: compile unallocated and execute on virtual registers. This
  // defines the input's behaviour; every allocated configuration must match
  // it.
  CompileOptions RefOpts;
  RefOpts.Allocator = AllocatorKind::None;
  CompileResult Ref = compileMiniC(Source, RefOpts);
  if (!Ref.ok()) {
    if (isInternalError(Ref.Errors))
      return fail(FuzzOutcome::InternalError,
                  "internal:" + firstLine(Ref.Errors), Ref.Errors);
    return clean(FuzzOutcome::CleanCompileError);
  }

  Interpreter RefInterp(*Ref.Prog);
  RunResult RefRun = RefInterp.run("main", Limits.Fuel);
  if (!RefRun.Ok && (RefRun.TrapInfo.Kind == TrapKind::FuelExhausted ||
                     RefRun.TrapInfo.Kind == TrapKind::NoEntry))
    // Fuel exhaustion: behaviour within budget is unobservable, differential
    // comparison would only measure the budget. No entry: every allocated
    // build lacks main identically. Both are clean stops.
    return clean(FuzzOutcome::CleanTrap);

  // Spill code legitimately executes more instructions than the reference —
  // bounded by the spill loads/stores per original instruction, far under
  // 8x. Past that the allocated program is looping where the reference did
  // not: a hang introduced by allocation.
  uint64_t AllocFuel = 8 * RefRun.Stats.Cycles + 10000;

  // One "<config>: <function>: <error kind>" entry per degraded function.
  std::string Degraded;
  for (AllocatorKind Kind : {AllocatorKind::Gra, AllocatorKind::Rap}) {
    for (unsigned K : Limits.Ks) {
      CompileOptions Opts;
      Opts.Allocator = Kind;
      Opts.Alloc.K = K;
      Opts.Alloc.VerifyAssignments = true;
      CancelToken Budget(Limits.MaxAllocSeconds > 0
                             ? Deadline::afterSeconds(Limits.MaxAllocSeconds)
                             : Deadline());
      Opts.Alloc.Cancel = &Budget;
      if (Limits.Faults.empty()) {
        Opts.Alloc.FallbackOnError = true;
      } else {
        // Fault drill: let the injected failure surface instead of degrading,
        // so it becomes a reducible failing signature.
        Opts.Alloc.Faults = Limits.Faults;
        Opts.Alloc.FallbackOnError = false;
      }
      std::string Cfg = configName(Kind, K);

      CompileResult CR = compileMiniC(Source, Opts);
      if (!CR.ok()) {
        if (CR.Errors.find("allocation failed: ") != std::string::npos)
          return fail(FuzzOutcome::AllocFailure,
                      "alloc-error:" + Cfg + ":" + allocErrorKindOf(CR.Errors),
                      CR.Errors);
        return fail(FuzzOutcome::InternalError,
                    "internal:" + firstLine(CR.Errors), CR.Errors);
      }
      for (const AllocOutcome &O : CR.AllocOutcomes)
        if (O.degraded())
          Degraded += (Degraded.empty() ? "" : "; ") + Cfg + ": " +
                      O.Function + ": " + allocErrorKindName(O.ErrorKind);

      Interpreter Interp(*CR.Prog);
      RunResult Run = Interp.run("main", AllocFuel);

      if (RefRun.Ok) {
        if (!Run.Ok) {
          if (Run.TrapInfo.Kind == TrapKind::FuelExhausted)
            return fail(FuzzOutcome::Hang, "hang:" + Cfg,
                        "reference halted in " +
                            std::to_string(RefRun.Stats.Cycles) +
                            " cycles; " + Cfg + " still running after " +
                            std::to_string(AllocFuel));
          return fail(FuzzOutcome::Mismatch,
                      "mismatch:" + Cfg + ":trap-vs-ok:" +
                          trapKindName(Run.TrapInfo.Kind),
                      "reference returned " + RefRun.ReturnValue.str() +
                          "; " + Cfg + " trapped: " + Run.TrapInfo.str());
        }
        if (!(Run.ReturnValue == RefRun.ReturnValue))
          return fail(FuzzOutcome::Mismatch,
                      "mismatch:" + Cfg + ":return-value",
                      "expected " + RefRun.ReturnValue.str() + ", got " +
                          Run.ReturnValue.str());
      } else {
        // Reference trapped (div-by-zero, out-of-bounds, ...): the allocated
        // build must trap the same way. PC/operands may differ (spill code
        // shifts them); the kind may not.
        if (Run.Ok)
          return fail(FuzzOutcome::Mismatch,
                      "mismatch:" + Cfg + ":ok-vs-trap:" +
                          trapKindName(RefRun.TrapInfo.Kind),
                      "reference trapped: " + RefRun.TrapInfo.str() + "; " +
                          Cfg + " returned " + Run.ReturnValue.str());
        if (Run.TrapInfo.Kind != RefRun.TrapInfo.Kind) {
          if (Run.TrapInfo.Kind == TrapKind::FuelExhausted)
            return fail(FuzzOutcome::Hang, "hang:" + Cfg,
                        "reference trapped (" + RefRun.TrapInfo.str() +
                            "); " + Cfg + " still running after " +
                            std::to_string(AllocFuel));
          return fail(FuzzOutcome::Mismatch, "mismatch:" + Cfg + ":trap-kind",
                      "reference trapped " + RefRun.TrapInfo.str() + "; " +
                          Cfg + " trapped " + Run.TrapInfo.str());
        }
      }
    }
  }

  if (!Degraded.empty())
    return FuzzReport{FuzzOutcome::Degraded, "", std::move(Degraded)};
  return clean(RefRun.Ok ? FuzzOutcome::CleanRun : FuzzOutcome::CleanTrap);
}

std::string rap::fuzz::writeRepro(const std::string &Dir,
                                  const std::string &Name,
                                  const std::string &Source,
                                  const FuzzReport &Report,
                                  const FuzzLimits &Limits) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return "";
  std::string Path = Dir + "/" + Name + ".mc";
  std::ofstream Out(Path);
  if (!Out)
    return "";

  // Header: everything needed to replay and triage without the fuzz run
  // that produced it. Comments keep the artifact a valid MiniC input.
  Out << "// rapfuzz repro artifact\n";
  Out << "// outcome:   " << fuzzOutcomeName(Report.Outcome) << "\n";
  Out << "// signature: " << Report.Signature << "\n";
  std::istringstream Detail(Report.Detail);
  std::string Line;
  bool First = true;
  while (std::getline(Detail, Line)) {
    Out << (First ? "// detail:    " : "//            ") << Line << "\n";
    First = false;
  }
  std::string Ks;
  for (unsigned K : Limits.Ks)
    Ks += (Ks.empty() ? "" : ",") + std::to_string(K);
  Out << "// limits:    fuel=" << Limits.Fuel << " ks=" << Ks
      << " fault=" << faultPlanSpec(Limits.Faults) << "\n";
  Out << "// replay:    rapfuzz --replay=" << Name << ".mc";
  if (!Limits.Faults.empty())
    Out << " --fault=" << faultPlanSpec(Limits.Faults);
  Out << "\n\n";
  Out << Source;
  if (!Source.empty() && Source.back() != '\n')
    Out << "\n";
  return Path;
}
