//===- regalloc/Gra.cpp - Baseline Chaitin/Briggs allocator -----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GRA, the paper's comparison allocator (§4): Chaitin's global graph
/// coloring over the whole procedure with the Briggs optimistic-coloring
/// enhancement, no coalescing, no rematerialization. Spill cost of a node is
/// the number of its uses and definitions in the entire procedure divided by
/// its degree. Spilling inserts a load before every use and a store after
/// every definition with fresh atomic live ranges, then the graph is rebuilt
/// until it colors.
///
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "ir/Clone.h"
#include "regalloc/AllocSupport.h"
#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/Peephole.h"
#include "regalloc/PhysicalRewrite.h"
#include "regalloc/SpillEverything.h"
#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <set>
#include <thread>

using namespace rap;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

constexpr double InfiniteCost = 1e18;

class GraAllocator {
public:
  GraAllocator(IlocFunction &F, const AllocOptions &Options)
      : F(F), Options(Options),
        Injector(Options.Faults.empty() ? envFaultPlan() : Options.Faults,
                 F.name()),
        StartTime(std::chrono::steady_clock::now()) {}

  AllocStats run() {
    telemetry::FunctionScope *TS = Options.Scope;
    std::unique_ptr<CodeInfo> CI;
    for (unsigned Round = 0; Round != Options.MaxSpillRounds; ++Round) {
      // Unified guard: wall-clock budget + request cancel token (deadline /
      // drain), checked once per spill/color round.
      checkAllocBudget(Options, StartTime, F.name());
      telemetry::ScopedPhase RoundPhase(TS, "gra_round");
      // Warm-start liveness from the previous round's solution.
      CI = std::make_unique<CodeInfo>(F, CI.get());
      Stats.LivenessSeconds += CI->LivenessSeconds;
      RefInfo Refs(CI->Code, F.numVRegs());
      auto BuildStart = std::chrono::steady_clock::now();
      InterferenceGraph G = buildGraph(*CI, Refs);
      Stats.GraphBuildSeconds += secondsSince(BuildStart);
      if (Options.Coalesce)
        coalesceConservatively(G, CI->Code.Instrs, Options.K);
      ++Stats.GraphBuilds;
      Stats.MaxGraphNodes =
          std::max(Stats.MaxGraphNodes, G.numAliveNodes());
      Stats.PeakGraphBytes = std::max(Stats.PeakGraphBytes, G.memoryBytes());
      if (Options.MaxGraphBytes && G.memoryBytes() > Options.MaxGraphBytes)
        throwAllocError(AllocErrorKind::ResourceLimit,
                        "interference graph needs " +
                            std::to_string(G.memoryBytes()) +
                            " bytes (limit " +
                            std::to_string(Options.MaxGraphBytes) + ")",
                        F.name());
      setSpillCosts(G, Refs);
      Injector.hit(FaultSite::Coloring);
      ColorResult CR = colorGraph(G, Options.K, &Stats);
      RoundPhase.arg("round", Round);
      RoundPhase.arg("nodes", G.numAliveNodes());
      RoundPhase.arg("spill_candidates", CR.SpillList.size());
      if (CR.fullyColored()) {
        if (Options.VerifyAssignments) {
          std::vector<AssignmentViolation> Violations =
              verifyAssignment(F, G);
          if (!Violations.empty())
            throwAllocError(AllocErrorKind::VerifierReject,
                            std::to_string(Violations.size()) +
                                " assignment violation(s); first: " +
                                Violations[0].Text,
                            F.name());
        }
        Injector.hit(FaultSite::PhysicalRewrite);
        RoundPhase.finish();
        Stats.CopiesDeleted = rewriteToPhysical(F, G, Options.K, TS);
        if (Options.PeepholeForGra) {
          PeepholeResult PR = peepholeSpillCleanup(F, TS);
          Stats.PeepholeRemovedLoads = PR.RemovedLoads;
          Stats.PeepholeRemovedStores = PR.RemovedStores;
          Stats.PeepholeLoadsToCopies = PR.LoadsToCopies;
        }
        return Stats;
      }
      ++Stats.SpillRounds;
      spillRound(G, CR, *CI, Refs);
    }
    throwAllocError(AllocErrorKind::NonConvergence,
                    "spill loop did not converge within " +
                        std::to_string(Options.MaxSpillRounds) + " rounds",
                    F.name());
  }

private:
  /// Chaitin-style construction: at every definition point the defined
  /// register interferes with everything live after the instruction (minus
  /// the source of a copy), plus pairwise interference among the registers
  /// live at function entry (the parameters).
  InterferenceGraph buildGraph(const CodeInfo &CI, const RefInfo &Refs) {
    InterferenceGraph G;
    for (Reg R = 0; R != F.numVRegs(); ++R)
      if (Refs.isReferenced(R))
        G.getOrCreateNode(R);

    for (unsigned P = 0, E = static_cast<unsigned>(CI.Code.Instrs.size());
         P != E; ++P) {
      const Instr *I = CI.Code.Instrs[P];
      if (!I->hasDef())
        continue;
      Reg D = I->Dst;
      CI.Live.liveAfter(P).forEach([&](unsigned L) {
        if (L == D)
          return;
        if (I->Op == Opcode::Mv && L == I->Src[0])
          return; // copy source may share the register
        if (G.hasReg(L))
          G.addEdge(D, static_cast<Reg>(L));
      });
    }

    // Values live on entry (parameters) coexist without a defining
    // instruction in the body.
    std::vector<unsigned> EntryLive = CI.Live.liveBefore(0).toVector();
    for (size_t A = 0; A != EntryLive.size(); ++A)
      for (size_t B = A + 1; B != EntryLive.size(); ++B)
        if (G.hasReg(EntryLive[A]) && G.hasReg(EntryLive[B]))
          G.addEdge(EntryLive[A], EntryLive[B]);
    return G;
  }

  void setSpillCosts(InterferenceGraph &G, const RefInfo &Refs) {
    for (unsigned N : G.aliveNodes()) {
      auto &Node = G.node(N);
      // Coalescing can merge several registers into one node; the node's
      // cost is the sum over members, and any unspillable member makes the
      // whole node unspillable.
      double Cost = 0;
      bool Atomic = false;
      for (Reg R : Node.VRegs) {
        Atomic |= NoSpill.count(R) != 0;
        Cost += static_cast<double>(Refs.usePositions(R).size() +
                                    Refs.defPositions(R).size());
      }
      if (Atomic) {
        Node.SpillCost = InfiniteCost;
        continue;
      }
      unsigned Deg = G.effectiveDegree(N);
      Node.SpillCost = Cost / (Deg == 0 ? 1 : Deg);
    }
  }

  void spillRound(const InterferenceGraph &G, const ColorResult &CR,
                  const CodeInfo &CI, const RefInfo &Refs) {
    CodeEditor Editor(F);
    bool Progress = false;
    for (unsigned N : CR.SpillList) {
      for (Reg V : G.node(N).VRegs) {
        if (NoSpill.count(V))
          continue; // an atomic spill range cannot be spilled again
        Progress = true;
        spillEverywhere(V, CI, Refs, Editor);
      }
    }
    if (!Progress)
      throwAllocError(AllocErrorKind::Unallocatable,
                      "only unspillable nodes left (k=" +
                          std::to_string(Options.K) + " too small)",
                      F.name());
  }

  void spillEverywhere(Reg V, const CodeInfo &CI, const RefInfo &Refs,
                       CodeEditor &Editor) {
    Injector.hit(FaultSite::SpillInsert);
    ++Stats.SpilledVRegs;
    NoSpill.insert(V);
    int Slot = slotOf(V);

    // A parameter's value arrives in a register; park it in the slot at
    // function entry.
    if (V < F.numParams() && CI.Live.liveBefore(0).test(V)) {
      Instr *St = F.createInstr(Opcode::StSpill);
      St->Slot = Slot;
      St->Src = {V};
      Editor.insertAtRegionEntry(F.root(), St);
      ++Stats.SpillStoresInserted;
    }

    // Load before every use.
    for (unsigned P : Refs.usePositions(V)) {
      Instr *User = CI.Code.Instrs[P];
      Reg T = F.newVReg();
      NoSpill.insert(T);
      Instr *Ld = F.createInstr(Opcode::LdSpill);
      Ld->Dst = T;
      Ld->Slot = Slot;
      Editor.insertBefore(User, Ld);
      ++Stats.SpillLoadsInserted;
      for (Reg &R : User->Src)
        if (R == V)
          R = T;
    }

    // Store after every definition.
    for (unsigned P : Refs.defPositions(V)) {
      Instr *Def = CI.Code.Instrs[P];
      Reg D = F.newVReg();
      NoSpill.insert(D);
      Def->Dst = D;
      Instr *St = F.createInstr(Opcode::StSpill);
      St->Slot = Slot;
      St->Src = {D};
      Editor.insertAfter(Def, St);
      ++Stats.SpillStoresInserted;
    }
  }

  int slotOf(Reg V) {
    auto It = SlotOf.find(V);
    if (It != SlotOf.end())
      return It->second;
    int Slot = F.newSpillSlot();
    SlotOf[V] = Slot;
    return Slot;
  }

  IlocFunction &F;
  const AllocOptions &Options;
  AllocStats Stats;
  FaultInjector Injector;
  std::chrono::steady_clock::time_point StartTime;
  std::set<Reg> NoSpill;
  std::map<Reg, int> SlotOf;
};

} // namespace

AllocStats rap::allocateGra(IlocFunction &F, const AllocOptions &Options) {
  try {
    allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
               "function already allocated");
    allocCheck(Options.K >= 3, AllocErrorKind::Unallocatable,
               "need at least 3 registers for a load/store ISA");
    return GraAllocator(F, Options).run();
  } catch (AllocError &E) {
    E.setFunction(F.name()); // fill in throw sites below the allocator
    throw;
  }
}

namespace {

/// One function's fault-isolated allocation. With FallbackOnError, any
/// AllocError (or std::exception) from the primary allocator discards the
/// half-edited body, restores a pristine clone taken up front, and allocates
/// it with the spill-everything fallback — which has no injection sites, so
/// an armed fault plan cannot re-fire in the degradation path. Without
/// FallbackOnError the error propagates to the driver.
AllocOutcome allocateOne(IlocProgram &Prog, unsigned I, AllocatorKind Kind,
                         const AllocOptions &Options, unsigned Worker) {
  IlocFunction *F = Prog.functions()[I].get();
  AllocOutcome Out;
  Out.Function = F->name();

  // With a registry attached, this function records into its own scope
  // (lock-free: one writer) and commits keyed by function index below, so
  // the registry's aggregate does not depend on thread scheduling.
  telemetry::FunctionScope Scope(Options.Telem ? Options.Telem->epoch()
                                               : telemetry::Clock::now());
  AllocOptions Opts = Options;
  if (Options.Telem)
    Opts.Scope = &Scope;
  struct Committer {
    const AllocOptions &Options;
    telemetry::FunctionScope &Scope;
    unsigned Index, Worker;
    std::string Name;
    ~Committer() {
      if (Options.Telem)
        Options.Telem->commit(Index, std::move(Name), Worker,
                              std::move(Scope));
    }
  } Commit{Options, Scope, I, Worker, Out.Function};

  std::unique_ptr<IlocFunction> Backup;
  if (Options.FallbackOnError)
    Backup = cloneFunction(*F);

  try {
    telemetry::ScopedPhase Phase(Opts.Scope, "allocate_function");
    Out.Stats = Kind == AllocatorKind::Gra ? allocateGra(*F, Opts)
                                           : allocateRap(*F, Opts);
    return Out;
  } catch (const AllocError &E) {
    if (!Options.FallbackOnError)
      throw;
    Out.ErrorKind = E.kind();
    Out.Error = E.what();
  } catch (const std::exception &E) {
    if (!Options.FallbackOnError)
      throw;
    Out.ErrorKind = AllocErrorKind::Internal;
    Out.Error = std::string(allocErrorKindName(AllocErrorKind::Internal)) +
                " in '" + Out.Function + "': " + E.what();
  }

  Out.Status = AllocStatus::Fallback;
  F = Prog.replaceFunction(I, std::move(Backup));
  telemetry::ScopedPhase Phase(Opts.Scope, "fallback_spill_everything");
  Out.Stats = allocateSpillEverything(*F, Opts);
  return Out;
}

/// The program's telemetry counters: a named view of its AllocStats total,
/// listing the counters of the passes that ran. Degraded functions count
/// as the fallback that produced their code, exactly as in Res.Total.
std::map<std::string, uint64_t> telemetryCounters(const ProgramAllocResult &Res,
                                                  AllocatorKind Kind,
                                                  const AllocOptions &Options) {
  const AllocStats &S = Res.Total;
  bool Rap = Kind == AllocatorKind::Rap;
  bool Movement = Rap && Options.SpillMovement;
  bool Peephole = Rap ? Options.Peephole : Options.PeepholeForGra;
  bool Cleanup = Rap && Options.GlobalCleanup;
  struct Row {
    const char *Name;
    uint64_t Value;
    bool Listed;
  };
  std::map<std::string, uint64_t> C;
  for (const Row &R : std::initializer_list<Row>{
           {Rap ? "rap.graph_builds" : "gra.rounds", S.GraphBuilds, true},
           {"graph.max_nodes", S.MaxGraphNodes, true},
           {"color.invocations", S.ColorInvocations, true},
           {"color.nodes", S.ColorNodes, true},
           {"color.blocked_picks", S.ColorBlockedPicks, true},
           {"color.spilled_nodes", S.ColorSpilledNodes, true},
           {"color.optimistic_colored", S.ColorOptimistic,
            S.ColorOptimistic != 0},
           {"rewrite.copies_deleted", S.CopiesDeleted, true},
           {"rap.regions_processed", S.RegionsProcessed, Rap},
           {"rap.spill_rounds", S.SpillRounds, Rap && S.SpillRounds != 0},
           {"movement.hoisted_loads", S.HoistedLoads, Movement},
           {"movement.sunk_stores", S.SunkStores, Movement},
           {"movement.removed_loads", S.MovementRemovedLoads, Movement},
           {"movement.removed_stores", S.MovementRemovedStores, Movement},
           {"peephole.removed_loads", S.PeepholeRemovedLoads, Peephole},
           {"peephole.removed_stores", S.PeepholeRemovedStores, Peephole},
           {"peephole.loads_to_copies", S.PeepholeLoadsToCopies, Peephole},
           {"cleanup.fixpoint_iterations", S.CleanupIterations, Cleanup},
           {"cleanup.removed_loads",
            S.CleanupRemovedLoads - S.CleanupLoadsToCopies, Cleanup},
           {"cleanup.loads_to_copies", S.CleanupLoadsToCopies, Cleanup},
           {"cleanup.removed_stores", S.CleanupRemovedStores, Cleanup},
           {"alloc.fallbacks", Res.numFallbacks(), !Res.allClean()}})
    if (R.Listed)
      C[R.Name] = R.Value;
  return C;
}

} // namespace

ProgramAllocResult rap::allocateProgramChecked(IlocProgram &Prog,
                                               AllocatorKind Kind,
                                               const AllocOptions &Options) {
  ProgramAllocResult Res;
  auto &Funcs = Prog.functions();
  unsigned N = static_cast<unsigned>(Funcs.size());
  Res.Outcomes.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Res.Outcomes[I].Function = Funcs[I]->name();
  if (Kind == AllocatorKind::None)
    return Res;

  // Worker-side exceptions (strict mode, or a failing fallback) are parked
  // per function slot; after the pool joins, the lowest-index one is
  // rethrown, so the surfaced error does not depend on thread scheduling.
  std::vector<std::exception_ptr> Errors(N);
  auto One = [&](unsigned I, unsigned Worker) {
    try {
      Res.Outcomes[I] = allocateOne(Prog, I, Kind, Options, Worker);
    } catch (...) {
      Res.Outcomes[I].Status = AllocStatus::Failed;
      Errors[I] = std::current_exception();
    }
  };

  unsigned Threads = std::min(Options.Threads, N);
  if (Threads <= 1) {
    for (unsigned I = 0; I != N; ++I)
      One(I, 0);
  } else {
    // Functions share no mutable state, so each is allocated independently
    // by a small worker pool. Per-function outcomes land in a slot indexed
    // by function position and are folded in function order afterwards, so
    // the aggregate is identical to a serial run regardless of scheduling.
    std::atomic<unsigned> Next{0};
    auto Worker = [&](unsigned Lane) {
      for (unsigned I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
           I = Next.fetch_add(1, std::memory_order_relaxed))
        One(I, Lane);
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back(Worker, T);
    for (auto &T : Pool)
      T.join();
  }

  for (unsigned I = 0; I != N; ++I)
    if (Errors[I])
      std::rethrow_exception(Errors[I]);
  for (const AllocOutcome &O : Res.Outcomes)
    Res.Total.accumulate(O.Stats);
  // A program without functions ran no pass, so it lists no counter.
  if (Options.Telem && N != 0)
    Options.Telem->setCounters(telemetryCounters(Res, Kind, Options));
  return Res;
}

AllocStats rap::allocateProgram(IlocProgram &Prog, AllocatorKind Kind,
                                const AllocOptions &Options) {
  return allocateProgramChecked(Prog, Kind, Options).Total;
}

AllocatorKind rap::allocatorKindFromString(const std::string &Name) {
  if (Name == "gra")
    return AllocatorKind::Gra;
  if (Name == "rap")
    return AllocatorKind::Rap;
  return AllocatorKind::None;
}
