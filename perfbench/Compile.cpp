//===- perfbench/Compile.cpp - The compile phase --------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// A pass of one allocator compiles every (program, k) job of the corpus
// with compileMiniC, runs each allocated program and checks its result
// against the unallocated run of the same source. Jobs run in a
// seed-shuffled order; timed rounds alternate RAP and GRA passes, so both
// allocators see the same machine.
//
// The traced pass makes the calls compileMiniC makes, in the same order,
// each in a span, with the allocator telemetry registry attached; it adds
// one call per lowered function to the CFG, liveness and reaching-defs
// analyses that RAP repeats, and leaves that time out of the comparison
// with the untraced pass.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cfg/Cfg.h"
#include "cfg/Liveness.h"
#include "driver/Pipeline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Linearize.h"
#include "pdg/DataDependence.h"
#include "support/Stats.h"

#include <memory>
#include <optional>

using namespace rap;
using namespace perfbench;

namespace {

enum { Rap = 0, Gra = 1 };
const char *const KindName[] = {"rap", "gra"};

/// Timed passes per allocator after the discarded warm-up, whatever
/// --seconds says.
constexpr unsigned MinPasses = 3;

/// Each round gives each allocator at least this long, so the cheap
/// allocator collects more passes and its median is as steady as the
/// expensive one's.
constexpr double RoundShareS = 0.5;

struct Job {
  unsigned Prog;
  unsigned K;
  int Kind; ///< Rap or Gra
  std::string name(const Corpus &C) const {
    return C.Programs[Prog].Name + " k=" + std::to_string(K) + " " +
           KindName[Kind];
  }
};

std::vector<Job> makeJobs(const Corpus &C, uint64_t Seed) {
  std::vector<Job> Jobs;
  for (unsigned P = 0; P != C.Programs.size(); ++P)
    for (unsigned K : C.Ks)
      for (int Kind : {Rap, Gra})
        Jobs.push_back({P, K, Kind});
  Rng Rand(Seed ^ 0x7461626c6531ull);
  for (size_t I = Jobs.size(); I > 1; --I)
    std::swap(Jobs[I - 1], Jobs[Rand.below(static_cast<unsigned>(I))]);
  return Jobs;
}

AllocatorKind allocator(int Kind) {
  return Kind == Rap ? AllocatorKind::Rap : AllocatorKind::Gra;
}

uint64_t countInstrs(const IlocProgram &P) {
  uint64_t N = 0;
  for (const auto &F : P.functions())
    F->root()->forEachInstr([&](Instr *) { ++N; });
  return N;
}

/// Everything a pass counts; two passes over the same inputs must agree
/// exactly (the determinism gate).
struct Counts {
  uint64_t Cycles[2] = {}, SpillOps[2] = {}, Instrs[2] = {};
  std::map<std::string, uint64_t> Telemetry; ///< traced passes only
  bool sameCode(const Counts &O, int K) const {
    return Cycles[K] == O.Cycles[K] && SpillOps[K] == O.SpillOps[K] &&
           Instrs[K] == O.Instrs[K];
  }
};

/// Checks one allocation: the compile succeeded and no function degraded.
bool checkCompile(const std::string &Errors, bool Ok,
                  const std::vector<AllocOutcome> &Outcomes,
                  const std::string &What, Result &R) {
  std::string Why = Ok ? "" : "compile failed: " + Errors;
  for (const AllocOutcome &O : Outcomes)
    if (O.degraded())
      Why += "degraded " + O.Function + " (" +
             allocErrorKindName(O.ErrorKind) + ") ";
  R.attempt(Why.empty(), What + ": " + Why);
  return Ok;
}

/// Checks one execution against the reference and counts it.
void checkRun(const RunResult &Run, const Program &P, const Job &J,
              const Corpus &C, Counts &N, Result &R) {
  bool Ok = Run.Ok && Run.ReturnValue == P.Expected;
  R.attempt(Ok, "run of " + J.name(C) +
                    (Run.Ok ? ": result differs from the unallocated run"
                            : ": " + Run.Error));
  N.Cycles[J.Kind] += Run.Stats.Cycles;
  N.SpillOps[J.Kind] += Run.Stats.SpillLoads + Run.Stats.SpillStores;
}

struct PassTimes {
  double Compile[2] = {};
  double Exec[2] = {};
  double total() const {
    return Compile[Rap] + Compile[Gra] + Exec[Rap] + Exec[Gra];
  }
};

/// One untraced pass over the jobs of allocator \p Kind (of both when -1):
/// compileMiniC, then Interpreter construction + run.
PassTimes runPass(const Corpus &C, const std::vector<Job> &Jobs, int Kind,
                  Counts &N, Result &R) {
  PassTimes T;
  for (const Job &J : Jobs) {
    if (Kind >= 0 && J.Kind != Kind)
      continue;
    const Program &P = C.Programs[J.Prog];
    CompileOptions O;
    O.Allocator = allocator(J.Kind);
    O.Alloc.K = J.K;
    O.Alloc.Threads = C.AllocThreads;
    Clock::time_point T0 = Clock::now();
    CompileResult CR = compileMiniC(P.Source, O);
    T.Compile[J.Kind] += secondsSince(T0);
    if (!checkCompile(CR.Errors, CR.ok(), CR.AllocOutcomes, J.name(C), R))
      continue;
    N.Instrs[J.Kind] += countInstrs(*CR.Prog);
    Clock::time_point T1 = Clock::now();
    RunResult Run;
    {
      Interpreter I(*CR.Prog);
      Run = I.run();
    }
    T.Exec[J.Kind] += secondsSince(T1);
    checkRun(Run, P, J, C, N, R);
  }
  return T;
}

//===----------------------------------------------------------------------===//
// The traced pass
//===----------------------------------------------------------------------===//

/// Unit costs of the analyses RAP repeats, outside the allocator: one
/// linearize+CFG build, liveness and reaching-defs solve per lowered,
/// unallocated function of \p Prog, each in a span.
void unitAnalyses(IlocProgram &Prog, Trace &Tr, uint64_t Id) {
  for (const auto &F : Prog.functions()) {
    LinearCode Code;
    std::optional<Cfg> G;
    Tr.span("cfg.build", Id, [&] {
      Code = linearize(*F);
      G.emplace(Code);
    });
    Tr.span("cfg.liveness", Id,
            [&] { Liveness Live(Code, *G, F->numVRegs()); });
    Tr.span("pdg.reaching_defs", Id,
            [&] { DataDependence Deps(Code, *G, F->numVRegs()); });
  }
}

/// One traced pass. Returns the pipeline time (compile + exec spans without
/// the added unit analyses) and fills \p L with the pass's layer values.
double tracedPass(const Corpus &C, const std::vector<Job> &Jobs, Counts &N,
                  Result &R, Trace &Tr, Layers &L) {
  size_t From = Tr.size();
  AllocStats Stats[2];
  telemetry::Aggregate Agg[2];
  double RapRegions = 0;
  for (size_t JI = 0; JI != Jobs.size(); ++JI) {
    const Job &J = Jobs[JI];
    const Program &P = C.Programs[J.Prog];
    telemetry::Telemetry Telem;
    DiagnosticEngine Diags;
    std::string AllocError;
    ProgramAllocResult AR;

    Tr.open("compile", JI);
    double RegionsBefore = L["lower.regions"];
    std::unique_ptr<IlocProgram> Prog =
        tracedFrontend(P.Source, Tr, JI, L, Diags);
    if (Prog) {
      if (J.Kind == Rap)
        RapRegions += L["lower.regions"] - RegionsBefore;
      if (J.Kind == Rap && J.K == C.Ks.front())
        unitAnalyses(*Prog, Tr, JI);
      AllocOptions AO;
      AO.K = J.K;
      AO.Threads = C.AllocThreads;
      AO.Telem = &Telem;
      try {
        AR = Tr.span(J.Kind == Rap ? "regalloc.rap" : "regalloc.gra", JI,
                     [&] {
                       return allocateProgramChecked(*Prog, allocator(J.Kind),
                                                     AO);
                     });
      } catch (const std::exception &E) {
        AllocError = E.what();
        Prog.reset();
      }
    }
    Tr.close();
    if (!checkCompile(Diags.str() + AllocError, Prog != nullptr, AR.Outcomes,
                      J.name(C), R))
      continue;
    Stats[J.Kind].accumulate(AR.Total);
    telemetry::Aggregate A = Telem.aggregate();
    for (const auto &[K, V] : A.Counters)
      Agg[J.Kind].Counters[K] += V;
    for (const auto &[K, V] : A.TimerSeconds)
      Agg[J.Kind].TimerSeconds[K] += V;
    N.Instrs[J.Kind] += countInstrs(*Prog);

    Tr.open("exec", JI);
    RunResult Run = [&] {
      std::unique_ptr<Interpreter> I = Tr.span("interp.decode", JI, [&] {
        return std::make_unique<Interpreter>(*Prog);
      });
      return Tr.span("interp.run", JI, [&] { return I->run(); });
    }();
    Tr.close();
    checkRun(Run, P, J, C, N, R);
  }

  Layers Self = Tr.selfTimes(From), Dur = Tr.durations(From);
  for (const char *Name :
       {"frontend.lex", "frontend.parse", "frontend.sema", "cfg.build",
        "cfg.liveness", "pdg.reaching_defs", "regalloc.rap", "regalloc.gra",
        "interp.decode", "interp.run"})
    L[std::string(Name) + "_s"] = Self[Name];
  L["lower.time_s"] = Self["lower"];

  // The allocators' own timers: AllocStats seconds and telemetry phases.
  // Unattributed time is allocate_function minus the named timers.
  const auto &RT = Agg[Rap].TimerSeconds, &GT = Agg[Gra].TimerSeconds;
  auto Timer = [](const std::map<std::string, double> &T, const char *K) {
    auto It = T.find(K);
    return It == T.end() ? 0.0 : It->second;
  };
  L["regalloc.rap.graph_build_s"] = Stats[Rap].GraphBuildSeconds;
  L["regalloc.rap.liveness_s"] = Stats[Rap].LivenessSeconds;
  double Named = Stats[Rap].GraphBuildSeconds + Stats[Rap].LivenessSeconds;
  for (const char *Phase : {"cleanup", "movement", "peephole", "rewrite"}) {
    L[std::string("regalloc.rap.") + Phase + "_s"] = Timer(RT, Phase);
    Named += Timer(RT, Phase);
  }
  L["regalloc.rap.allocate_function_s"] = Timer(RT, "allocate_function");
  L["regalloc.rap.unattributed_s"] = Timer(RT, "allocate_function") - Named;
  L["regalloc.gra.graph_build_s"] = Stats[Gra].GraphBuildSeconds;
  L["regalloc.gra.liveness_s"] = Stats[Gra].LivenessSeconds;
  L["regalloc.gra.unattributed_s"] = Timer(GT, "allocate_function") -
                                     Stats[Gra].GraphBuildSeconds -
                                     Stats[Gra].LivenessSeconds;

  const AllocStats &SR = Stats[Rap], &SG = Stats[Gra];
  double RapInserted = SR.SpillLoadsInserted + SR.SpillStoresInserted;
  double RapRemoved = SR.MovementRemovedLoads + SR.MovementRemovedStores +
                      SR.PeepholeRemovedLoads + SR.PeepholeRemovedStores +
                      SR.PeepholeLoadsToCopies + SR.CleanupRemovedLoads +
                      SR.CleanupRemovedStores;
  L["regalloc.rap.graph_builds"] = SR.GraphBuilds;
  L["regalloc.rap.regions_processed"] = SR.RegionsProcessed;
  L["regalloc.rap.spill_rounds"] = SR.SpillRounds;
  L["regalloc.rap.spilled_vregs"] = SR.SpilledVRegs;
  L["regalloc.rap.color_nodes"] =
      static_cast<double>(Agg[Rap].Counters["color.nodes"]);
  L["regalloc.rap.spill_instrs_inserted"] = RapInserted;
  L["regalloc.rap.spill_instrs_removed"] = RapRemoved;
  L["regalloc.gra.rounds"] =
      static_cast<double>(Agg[Gra].Counters["gra.rounds"]);
  L["regalloc.gra.spilled_vregs"] = SG.SpilledVRegs;
  L["regalloc.gra.color_nodes"] =
      static_cast<double>(Agg[Gra].Counters["color.nodes"]);
  L["regalloc.gra.spill_instrs_inserted"] =
      SG.SpillLoadsInserted + SG.SpillStoresInserted;
  L["regalloc.rap.visits_per_region"] = ratio(SR.RegionsProcessed, RapRegions);
  L["regalloc.rap.builds_per_visit"] =
      ratio(SR.GraphBuilds, SR.RegionsProcessed);
  L["regalloc.rap.spill_removed_pct"] =
      100 * ratio(RapRemoved, RapInserted + SR.HoistedLoads + SR.SunkStores);
  L["interp.cycles_per_s"] =
      ratio(static_cast<double>(N.Cycles[Rap] + N.Cycles[Gra]),
            L["interp.run_s"]);

  for (int K : {Rap, Gra})
    for (const auto &[Name, V] : Agg[K].Counters)
      N.Telemetry[std::string(KindName[K]) + "." + Name] = V;

  return Dur["compile"] + Dur["exec"] - Dur["cfg.build"] -
         Dur["cfg.liveness"] - Dur["pdg.reaching_defs"];
}

/// The layer values of the traced pass, in pipeline order.
const char *const PassLayers[] = {
    "frontend.lex_s",
    "frontend.parse_s",
    "frontend.sema_s",
    "frontend.tokens",
    "lower.time_s",
    "lower.instrs",
    "lower.regions",
    "lower.vregs",
    "cfg.build_s",
    "cfg.liveness_s",
    "pdg.reaching_defs_s",
    "regalloc.rap_s",
    "regalloc.rap.graph_build_s",
    "regalloc.rap.liveness_s",
    "regalloc.rap.cleanup_s",
    "regalloc.rap.movement_s",
    "regalloc.rap.peephole_s",
    "regalloc.rap.rewrite_s",
    "regalloc.rap.unattributed_s",
    "regalloc.rap.allocate_function_s",
    "regalloc.gra_s",
    "regalloc.gra.graph_build_s",
    "regalloc.gra.liveness_s",
    "regalloc.gra.unattributed_s",
    "regalloc.rap.graph_builds",
    "regalloc.rap.regions_processed",
    "regalloc.rap.spill_rounds",
    "regalloc.rap.spilled_vregs",
    "regalloc.rap.color_nodes",
    "regalloc.rap.spill_instrs_inserted",
    "regalloc.rap.spill_instrs_removed",
    "regalloc.gra.rounds",
    "regalloc.gra.spilled_vregs",
    "regalloc.gra.color_nodes",
    "regalloc.gra.spill_instrs_inserted",
    "regalloc.rap.visits_per_region",
    "regalloc.rap.builds_per_visit",
    "regalloc.rap.spill_removed_pct",
    "interp.decode_s",
    "interp.run_s",
    "interp.cycles_per_s",
};

void printPasses(const char *What, const std::vector<double> &V) {
  std::printf("  %-22s median %.6f  min %.6f  q1 %.6f  q3 %.6f  (%zu passes)\n",
              What, median(V), quantile(V, 0), quantile(V, 0.25),
              quantile(V, 0.75), V.size());
}

} // namespace

std::unique_ptr<IlocProgram>
perfbench::tracedFrontend(const std::string &Source, Trace &Tr, uint64_t Id,
                          Layers &L, DiagnosticEngine &Diags) {
  std::vector<Token> Tokens = Tr.span(
      "frontend.lex", Id, [&] { return Lexer(Source, Diags).lexAll(); });
  L["frontend.tokens"] += static_cast<double>(Tokens.size());
  TranslationUnit TU = Tr.span("frontend.parse", Id, [&] {
    return Parser(std::move(Tokens), Diags).parseTranslationUnit();
  });
  if (Diags.hasErrors() ||
      !Tr.span("frontend.sema", Id, [&] { return analyze(TU, Diags); }))
    return nullptr;
  std::unique_ptr<IlocProgram> Prog = Tr.span("lower", Id, [&] {
    return lowerToIloc(TU, RegionGranularity::PerStatement, CopyStyle::Naive,
                       &Diags);
  });
  if (!Prog)
    return nullptr;
  L["lower.instrs"] += static_cast<double>(countInstrs(*Prog));
  for (const auto &F : Prog->functions()) {
    F->root()->forEachNode(
        [&](const PdgNode *N) { L["lower.regions"] += N->isRegion(); });
    L["lower.vregs"] += F->numVRegs();
  }
  return Prog;
}

void perfbench::addReferences(Corpus &C, Result &R) {
  for (Program &P : C.Programs) {
    CompileOptions O;
    O.Allocator = AllocatorKind::None;
    CompileResult CR = compileMiniC(P.Source, O);
    RunResult Ref;
    if (CR.ok()) {
      P.Functions = static_cast<unsigned>(CR.Prog->functions().size());
      Ref = Interpreter(*CR.Prog).run();
    }
    R.attempt(CR.ok() && Ref.Ok,
              "reference run of " + P.Name + ": " + CR.Errors + Ref.Error);
    P.Expected = Ref.ReturnValue;
  }
}

namespace {

class CompilePhase : public Phase {
public:
  CompilePhase(const Corpus &C, const Args &A, Result &R, Trace &Tr)
      : C(C), A(A), R(R), Tr(Tr), Jobs(makeJobs(C, A.Seed)) {
    // The warm-up pass fixes the counts every later pass must repeat.
    runPass(C, Jobs, -1, Ref, R);
  }

  void round() override {
    if (!A.Trace) {
      for (int K : {Rap, Gra}) {
        Clock::time_point Round = Clock::now();
        do {
          Counts N;
          PassTimes T = runPass(C, Jobs, K, N, R);
          drift(N, K, "timed");
          Compile[K].push_back(T.Compile[K]);
          Exec[K].push_back(T.Exec[K]);
        } while (secondsSince(Round) < RoundShareS);
      }
      return;
    }
    // Traced run: a traced and an untraced pass; the layer values are
    // medians over traced passes.
    Counts N;
    Layers L;
    Traced.push_back(tracedPass(C, Jobs, N, R, Tr, L));
    for (int K : {Rap, Gra})
      drift(N, K, "traced");
    if (!TracedRef)
      TracedRef = N;
    R.attempt(N.Telemetry == TracedRef->Telemetry,
              "determinism: a traced pass changed the telemetry counters");
    Passes.push_back(std::move(L));
    Counts U;
    Untraced.push_back(runPass(C, Jobs, -1, U, R).total());
    for (int K : {Rap, Gra})
      drift(U, K, "untraced");
  }

  bool enough() const override {
    return A.Trace ? !Passes.empty()
                   : Compile[Rap].size() >= MinPasses &&
                         Compile[Gra].size() >= MinPasses;
  }

  PhaseResult finish() override {
    PhaseResult Out;
    Layers &V = Out.Values;
    if (!A.Trace) {
      std::printf("compile phase: %zu jobs per pass of both allocators\n",
                  Jobs.size());
      printPasses("compile_s.rap", Compile[Rap]);
      printPasses("compile_s.gra", Compile[Gra]);
      printPasses("exec_s (rap programs)", Exec[Rap]);
      printPasses("exec_s (gra programs)", Exec[Gra]);
      // The fastest pass: the host's other tenants only ever add time. Over
      // ten seeds of identical code on a shared 4-core VM, the median pass
      // of table1 and session spread 22-34% of its value, the fastest 4-14%.
      V["compile_s.rap"] = quantile(Compile[Rap], 0);
      V["compile_s.gra"] = quantile(Compile[Gra], 0);
      V["exec_s"] = quantile(Exec[Rap], 0) + quantile(Exec[Gra], 0);
      for (int K : {Rap, Gra}) {
        std::string Suffix = std::string(".") + KindName[K];
        V["exec_cycles" + Suffix] = static_cast<double>(Ref.Cycles[K]);
        V["spill_ops" + Suffix] = static_cast<double>(Ref.SpillOps[K]);
        V["code_instrs" + Suffix] = static_cast<double>(Ref.Instrs[K]);
      }
      return Out;
    }

    Out.Traced = median(Traced) * static_cast<double>(Traced.size());
    Out.Untraced = median(Untraced) * static_cast<double>(Untraced.size());
    std::printf("compile phase (traced): %zu traced + %zu untraced passes; "
                "pipeline %.6f s traced, %.6f s untraced\n",
                Traced.size(), Untraced.size(), median(Traced),
                median(Untraced));
    std::printf("  telemetry counters per pass:\n");
    for (const auto &[Name, Count] : TracedRef->Telemetry)
      std::printf("    %-40s %llu\n", Name.c_str(),
                  static_cast<unsigned long long>(Count));
    for (const char *Name : PassLayers) {
      std::vector<double> X;
      for (const Layers &L : Passes)
        X.push_back(L.at(Name));
      V[Name] = median(X);
    }
    double Unattributed = V["regalloc.rap.unattributed_s"];
    double AllocFn = V["regalloc.rap.allocate_function_s"];
    std::printf("  >>> regalloc.rap.unattributed_s = %.6f s of %.6f s RAP "
                "allocate_function (%.1f%%) <<<\n",
                Unattributed, AllocFn, 100 * ratio(Unattributed, AllocFn));
    return Out;
  }

private:
  void drift(const Counts &N, int K, const char *Where) {
    R.attempt(N.sameCode(Ref, K),
              std::string("determinism: a ") + Where + " " + KindName[K] +
                  " pass changed cycles, spill ops or instruction counts");
  }

  const Corpus &C;
  const Args &A;
  Result &R;
  Trace &Tr;
  std::vector<Job> Jobs;
  Counts Ref;                        ///< the warm-up pass's
  std::vector<double> Compile[2], Exec[2];
  std::vector<Layers> Passes;        ///< traced passes' layer values
  std::vector<double> Traced, Untraced;
  std::optional<Counts> TracedRef;
};

} // namespace

std::unique_ptr<Phase> perfbench::compilePhase(const Corpus &C, const Args &A,
                                               Result &R, Trace &Tr) {
  return std::make_unique<CompilePhase>(C, A, R, Tr);
}
