//===- regalloc/Rap.cpp - Hierarchical PDG allocator -------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Rap.h"

#include "regalloc/AssignmentVerifier.h"
#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/GlobalSpillCleanup.h"
#include "regalloc/Peephole.h"
#include "regalloc/PhysicalRewrite.h"
#include "regalloc/SpillCodeMovement.h"
#include "support/SmallVector.h"
#include "support/Stats.h"

#include <algorithm>

using namespace rap;

namespace {
constexpr double LocalOrSpilledCost = 999999.0; // paper Figure 5
constexpr double InfiniteCost = 1e18;           // atomic spill temporaries
constexpr unsigned MaxSpillActions = 50000;

// PieceMerger::NodeGlobal values besides an origin register.
constexpr Reg NoGlobal = NoReg;
constexpr Reg ManyGlobals = NoReg - 1;
constexpr Reg NotSummarized = NoReg - 2;
constexpr unsigned NoIndex = ~0u;

/// The global origins of the union of two nodes with summaries \p A, \p B.
Reg unionOfGlobals(Reg A, Reg B) {
  if (A == NoGlobal)
    return B;
  return B == NoGlobal || A == B ? A : ManyGlobals;
}
} // namespace

RapAllocator::RapAllocator(IlocFunction &F, const AllocOptions &Options)
    : F(F), Options(Options),
      Injector(Options.Faults.empty() ? envFaultPlan() : Options.Faults,
               F.name()),
      Editor(F, Stats) {
  refresh();
}

void RapAllocator::refresh() {
  // Hand the stale CodeInfo to the new one so liveness warm-starts from the
  // previous block solution (exact; see Liveness).
  CI = std::make_unique<CodeInfo>(F, CI.get());
  Stats.LivenessSeconds += CI->LivenessSeconds;
  Refs = std::make_unique<RefInfo>(CI->Code, F.numVRegs());
}

bool RapAllocator::isGlobalTo(Reg R, const PdgNode *V) const {
  return !Refs->allRefsWithin(R, V->LinBegin, V->LinEnd);
}

int RapAllocator::slotOf(Reg V) {
  Reg Origin = originOf(V);
  if (Origin >= SlotOf.size())
    SlotOf.resize(Origin + 1, -1);
  if (SlotOf[Origin] < 0)
    SlotOf[Origin] = F.newSpillSlot();
  return SlotOf[Origin];
}

unsigned
RapAllocator::globalOrigins(const InterferenceGraph &G, const PdgNode *V,
                            std::initializer_list<unsigned> Nodes) const {
  Reg Seen = NoReg;
  for (unsigned N : Nodes)
    for (Reg R : G.node(N).VRegs) {
      if (!isGlobalTo(R, V))
        continue;
      Reg Origin = originOf(R);
      if (Seen == NoReg)
        Seen = Origin;
      else if (Origin != Seen)
        return 2;
    }
  return Seen == NoReg ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Phase 1a: building the region interference graph (paper §3.1.1)
//===----------------------------------------------------------------------===//

void RapAllocator::RegionRefs::fill(const PdgNode *V, unsigned NumVRegs) {
  PC.clear();
  V->forEachParentInstr([&](Instr *I) { PC.push_back(I); });
  // NumVRegs never shrinks, so growing keeps the universe exact.
  RefsPC.growTo(NumVRegs);
  RefsPC.clear();
  for (const Instr *I : PC) {
    for (Reg R : I->Src)
      RefsPC.set(R);
    if (I->hasDef())
      RefsPC.set(I->Dst);
  }
  Vars = RefsPC; // parent code is part of the subtree walk below
  V->forEachInstr([&](Instr *I) {
    for (Reg R : I->Src)
      Vars.set(R);
    if (I->hasDef())
      Vars.set(I->Dst);
  });
}

InterferenceGraph &RapAllocator::buildRegionGraph(PdgNode *V) {
  allocCheck(V->isRegion(), AllocErrorKind::InvariantViolation,
             "allocation works on region nodes");
  InterferenceGraph &G = Work;
  G.clear();
  RR.fill(V, F.numVRegs());
  addRegionConflicts(G, V);
  addSubregionConflicts(G, V);
  mergeSameOriginPieces(G, V);
  if (Options.Coalesce)
    coalesceConservatively(G, RR.PC, Options.K, [&](unsigned A, unsigned B) {
      return globalOrigins(G, V, {A, B}) <= 1;
    });
  markGlobalNodes(G, V);
  return G;
}

void RapAllocator::addRegionConflicts(InterferenceGraph &G,
                                      const PdgNode *V) {
  RR.RefsPC.forEach([&](unsigned R) { G.getOrCreateNode(R); });

  // Definition points: the defined register interferes with every register
  // that is live after the instruction (minus the source of a copy). Live
  // registers referenced only in subregions get a node now and are merged
  // with the subregion import later; registers referenced entirely outside
  // this region are live-in and handled by the Figure 4 rules.
  for (const Instr *I : RR.PC) {
    if (!I->hasDef())
      continue;
    Reg D = I->Dst;
    RR.Vars.forEachCommon(CI->Live.liveAfter(I->LinPos), [&](unsigned L) {
      if (L == D)
        return;
      if (I->Op == Opcode::Mv && L == I->Src[0])
        return;
      G.getOrCreateNode(L);
      G.addEdge(D, static_cast<Reg>(L));
    });
  }

  // Registers live on entrance to the region and referenced here coexist.
  LiveRefs.clear();
  RR.RefsPC.forEachCommon(CI->Live.liveInOf(*V),
                          [&](unsigned R) { LiveRefs.push_back(R); });
  for (size_t A = 0; A != LiveRefs.size(); ++A)
    for (size_t B = A + 1; B != LiveRefs.size(); ++B)
      G.addEdge(LiveRefs[A], LiveRefs[B]);
}

void RapAllocator::addSubregionConflicts(InterferenceGraph &G,
                                         const PdgNode *V) {
  // Live-in registers not referenced at this level conflict with every node
  // referenced here (Figure 3's virtual register d). addRegionConflicts
  // merges nothing, so those are the nodes [0, NumPre).
  unsigned NumPre = G.numNodesTotal();
  RR.Vars.forEachCommon(CI->Live.liveInOf(*V), [&](unsigned VK) {
    if (RR.RefsPC.test(VK))
      return;
    unsigned N = G.getOrCreateNode(VK);
    for (unsigned M = 0; M != NumPre; ++M)
      G.addEdgeNodes(N, M);
  });

  V->forEachSubregion([&](const PdgNode *S) {
    auto SavedIt = SavedGraphs.find(S);
    allocCheck(SavedIt != SavedGraphs.end(),
               AllocErrorKind::InvariantViolation,
               "subregion must be allocated before its parent");
    const InterferenceGraph &GS = SavedIt->second;

    // Import each combined subregion node, merging with existing nodes that
    // name the same virtual register.
    unsigned NumSub = GS.numNodesTotal();
    allocCheck(GS.numAliveNodes() == NumSub,
               AllocErrorKind::InvariantViolation,
               "a subregion summary holds a dead node");
    Imported.assign(NumSub, 0); // by subregion node
    for (unsigned NS = 0; NS != NumSub; ++NS) {
      int Target = -1;
      for (Reg R : GS.node(NS).VRegs) {
        int Existing = G.nodeOf(R);
        if (Existing < 0 || Target == Existing)
          continue;
        Target = Target < 0 ? Existing
                            : static_cast<int>(G.mergeNodes(
                                  static_cast<unsigned>(Target),
                                  static_cast<unsigned>(Existing)));
      }
      // Registers new at this level join the target (or found it).
      for (Reg R : GS.node(NS).VRegs) {
        if (G.hasReg(R))
          continue;
        if (Target < 0)
          Target = static_cast<int>(G.getOrCreateNode(R));
        else
          G.addRegToNode(static_cast<unsigned>(Target), R);
      }
      allocCheck(Target >= 0, AllocErrorKind::InvariantViolation,
                 "empty subregion node");
      Imported[NS] = static_cast<unsigned>(Target);
    }
    for (unsigned NS = 0; NS != NumSub; ++NS)
      for (unsigned MS : GS.adjacency(NS))
        if (MS > NS)
          G.addEdgeNodes(Imported[NS], Imported[MS]);

    // Registers live across (but unreferenced in) the subregion conflict
    // with everything allocated inside it.
    RR.Vars.forEachCommon(CI->Live.liveInOf(*S), [&](unsigned VK) {
      if (Refs->referencedWithin(VK, S->LinBegin, S->LinEnd))
        return;
      unsigned N = G.getOrCreateNode(VK);
      for (unsigned NS = 0; NS != NumSub; ++NS)
        G.addEdgeNodes(N, Imported[NS]);
    });
  });
}

Reg PieceMerger::globalOf(const InterferenceGraph &G, unsigned N,
                          const std::function<Reg(Reg)> &GlobalOrigin) {
  Reg &Summary = NodeGlobal[N];
  if (Summary == NotSummarized) {
    Summary = NoGlobal;
    for (Reg R : G.node(N).VRegs) {
      Reg Origin = GlobalOrigin(R);
      if (Origin != NoReg)
        Summary = unionOfGlobals(Summary, Origin);
    }
  }
  return Summary;
}

void PieceMerger::run(InterferenceGraph &G,
                      const std::function<Reg(Reg)> &PieceOrigin,
                      const std::function<Reg(Reg)> &GlobalOrigin) {
  Pieces.clear();
  Origins.clear();
  for (unsigned N = 0, E = G.numNodesTotal(); N != E; ++N) {
    if (!G.node(N).Alive)
      continue;
    for (Reg R : G.node(N).VRegs) {
      Reg Origin = PieceOrigin(R);
      if (Origin == NoReg)
        continue;
      if (Origin >= OriginIndex.size())
        OriginIndex.resize(Origin + size_t(1), NoIndex);
      unsigned &Index = OriginIndex[Origin];
      if (Index == NoIndex) {
        Index = static_cast<unsigned>(Origins.size());
        Origins.push_back(OriginInfo{Origin, N, false});
      }
      Origins[Index].Spread |= Origins[Index].FirstNode != N;
      Pieces.push_back({N, R, Index});
    }
  }
  for (const OriginInfo &O : Origins)
    OriginIndex[O.Origin] = NoIndex;
  // An origin whose pieces share one node never merges (merges move whole
  // nodes, so they stay together) and never affects another origin's scan,
  // so its pieces are dropped.
  std::erase_if(Pieces,
                [&](const Piece &P) { return !Origins[P.Origin].Spread; });
  if (Pieces.empty())
    return;
  NodeGlobal.assign(G.numNodesTotal(), NotSummarized);
  auto ByNode = [](const Piece &X, const Piece &Y) {
    return X.Node != Y.Node ? X.Node < Y.Node : X.R < Y.R;
  };

  auto MergeOnePair = [&]() -> bool {
    FirstNode.assign(Origins.size(), -1);
    for (const Piece &P : Pieces) {
      int &First = FirstNode[P.Origin];
      if (First < 0 || First == static_cast<int>(P.Node)) {
        First = static_cast<int>(P.Node);
        continue;
      }
      unsigned A = static_cast<unsigned>(First), B = P.Node;
      if (G.interfere(A, B))
        continue; // overlapping pieces (e.g. two loads at one instr)
      // Keep the global-global invariant: the union may cover at most one
      // global origin (same-origin pieces count once).
      Reg Union = unionOfGlobals(globalOf(G, A, GlobalOrigin),
                                 globalOf(G, B, GlobalOrigin));
      if (Union == ManyGlobals)
        continue;
      G.mergeNodes(A, B);
      NodeGlobal[A] = Union;
      // Only B's pieces moved, so insertion sort restores the order in
      // about linear time.
      for (Piece &Q : Pieces)
        if (Q.Node == B)
          Q.Node = A;
      for (size_t I = 1; I < Pieces.size(); ++I)
        for (size_t J = I; J && ByNode(Pieces[J], Pieces[J - 1]); --J)
          std::swap(Pieces[J], Pieces[J - 1]);
      return true;
    }
    return false;
  };
  while (MergeOnePair()) {
  }
}

void RapAllocator::mergeSameOriginPieces(InterferenceGraph &G,
                                         const PdgNode *V) {
  Merger.run(
      G,
      [&](Reg R) {
        Reg Origin = originOf(R);
        if (Origin == R && !hasSlot(Origin))
          return NoReg; // never split
        if (NoMergeOrigins.count(Origin))
          return NoReg; // merging proved uncolorable earlier
        return Origin;
      },
      [&](Reg R) { return isGlobalTo(R, V) ? originOf(R) : NoReg; });
}

void RapAllocator::markGlobalNodes(InterferenceGraph &G,
                                   const PdgNode *V) const {
  // Pieces of one origin count once: they never coexist, so sharing a color
  // is always sound for them.
  for (unsigned N = 0, E = G.numNodesTotal(); N != E; ++N) {
    if (!G.node(N).Alive)
      continue;
    unsigned Globals = globalOrigins(G, V, {N});
    G.node(N).Global = Globals != 0;
    if (Globals > 1)
      throwAllocError(AllocErrorKind::InvariantViolation,
                      "combined node holds two region-global virtual "
                      "registers",
                      F.name(), V->Id);
  }
}

//===----------------------------------------------------------------------===//
// Phase 1b: spill costs (paper Figure 5)
//===----------------------------------------------------------------------===//

void RapAllocator::calcSpillCosts(PdgNode *V, InterferenceGraph &G) {
  // Each subregion with its live-in and live-out sets, looked up once.
  std::vector<SubregionLiveness> &Subs = CostSubs;
  Subs.clear();
  V->forEachSubregion([&](const PdgNode *S) {
    Subs.push_back({S, CI->Live.liveInOf(*S), CI->Live.liveOutOf(*S)});
  });

  // One entry per (parent-level instruction, register it uses) and per
  // parent-level definition, sorted: the references "in the parent region".
  PCRefs.clear();
  V->forEachParentInstr([&](const Instr *I) {
    for (auto It = I->Src.begin(); It != I->Src.end(); ++It)
      if (std::find(I->Src.begin(), It, *It) == It)
        PCRefs.push_back(*It);
    if (I->hasDef())
      PCRefs.push_back(I->Dst);
  });
  std::sort(PCRefs.begin(), PCRefs.end());

  const std::set<Reg> &Spilled = SpilledIn[V];

  for (unsigned N = 0, E = G.numNodesTotal(); N != E; ++N) {
    if (!G.node(N).Alive)
      continue;
    auto &Node = G.node(N);

    // Classify the members. Combining can put unspillable atomic spill
    // ranges into the same node as an ordinary register; what matters is
    // whether spilling *some* member can still relieve pressure.
    unsigned NumSpillable = 0;
    bool AnyProfitable = false;
    for (Reg R : Node.VRegs) {
      if (NoSpill.count(R) || GloballySpilled.count(R) || Spilled.count(R))
        continue;
      ++NumSpillable;
      // Paper Figure 5: a register whose references all live inside one
      // subregion spills without removing interference at this level (the
      // rewrite is a deferred spill inside the subregion) — unprofitable
      // but still able to make progress.
      bool LocalToSub = false;
      for (const SubregionLiveness &SL : Subs)
        if (Refs->allRefsWithin(R, SL.S->LinBegin, SL.S->LinEnd)) {
          LocalToSub = true;
          break;
        }
      AnyProfitable |= !LocalToSub;
    }

    if (NumSpillable == 0) {
      Node.SpillCost = InfiniteCost;
      continue;
    }
    if (!AnyProfitable) {
      Node.SpillCost = LocalOrSpilledCost;
      continue;
    }

    // Uses + defs at this level: one load per using instruction, one store
    // per definition.
    double Cost = 0;
    for (Reg R : Node.VRegs) {
      auto [Lo, Hi] = std::equal_range(PCRefs.begin(), PCRefs.end(), R);
      Cost += static_cast<double>(Hi - Lo);
    }

    // Boundary loads/stores for subregions (Figure 5's Livein/Liveout
    // increments).
    for (const SubregionLiveness &SL : Subs) {
      const PdgNode *S = SL.S;
      bool In = false, Out = false;
      for (Reg R : Node.VRegs) {
        In |= SL.LiveIn.test(R) &&
              Refs->usedWithin(R, S->LinBegin, S->LinEnd);
        Out |= SL.LiveOut.test(R) &&
               Refs->definedWithin(R, S->LinBegin, S->LinEnd);
      }
      Cost += In;
      Cost += Out;
    }

    unsigned Deg = G.effectiveDegree(N);
    Node.SpillCost = Cost / (Deg == 0 ? 1 : Deg);
  }
}

//===----------------------------------------------------------------------===//
// Phase 1c: the per-region driver (paper Figure 2)
//===----------------------------------------------------------------------===//

const InterferenceGraph &RapAllocator::allocRegion(PdgNode *V) {
  Injector.hit(FaultSite::RegionAlloc);
  InProgress.insert(V);
  // Snapshot the subregions first: spill code that allocating one of them
  // inserts (a parameter's park store at the root) lands in V's children.
  SmallVector<PdgNode *, 8> Subs;
  V->forEachSubregion([&](PdgNode *S) { Subs.push_back(S); });
  for (PdgNode *S : Subs)
    allocRegion(S);

  for (unsigned Round = 0; Round != Options.MaxSpillRounds; ++Round) {
    checkAllocBudget(Options, F.name(), V->Id);
    telemetry::ScopedPhase Phase(Options.Scope, "rap_region", V->Id);
    auto BuildStart = telemetry::Clock::now();
    InterferenceGraph &G = buildRegionGraph(V);
    Stats.GraphBuildSeconds += telemetry::secondsSince(BuildStart);
    accountGraph(G, Options, Stats, F.name(), V->Id);
    calcSpillCosts(V, G);
    Injector.hit(FaultSite::Coloring);
    ColorResult CR = colorGraph(G, Options.K, &Stats, &Colors);
    Phase.arg("round", Round);
    Phase.arg("nodes", G.numAliveNodes());
    Phase.arg("spill_candidates", CR.SpillList.size());
    if (CR.fullyColored()) {
      G.combineByColor(summaryFor(V));
      ++Stats.RegionsProcessed;
      InProgress.erase(V);
      return G;
    }
    ++Stats.SpillRounds;
    std::vector<std::pair<Reg, PdgNode *>> Queue;
    bool SplitProgress = false;
    for (unsigned N : CR.SpillList) {
      if (G.node(N).SpillCost >= InfiniteCost) {
        // Nothing in the node can spill. If it is a merged-origin unit,
        // give up on allocating those pieces as one register and retry
        // with them separate.
        for (Reg R : G.node(N).VRegs) {
          Reg Origin = originOf(R);
          if ((Origin != R || hasSlot(Origin)) &&
              NoMergeOrigins.insert(Origin))
            SplitProgress = true;
        }
        continue;
      }
      for (Reg R : G.node(N).VRegs)
        Queue.push_back({R, V});
    }
    if (Queue.empty() && !SplitProgress)
      throwAllocError(AllocErrorKind::Unallocatable,
                      "unspillable pressure (k=" +
                          std::to_string(Options.K) + " too small)",
                      F.name(), V->Id);
    spillQueueRun(std::move(Queue));
  }
  throwAllocError(AllocErrorKind::NonConvergence,
                  "region allocation did not converge within " +
                      std::to_string(Options.MaxSpillRounds) + " rounds",
                  F.name(), V->Id);
}

InterferenceGraph &RapAllocator::summaryFor(const PdgNode *V) {
  // V's graph folds in its subregions' summaries: retire them.
  V->forEachSubregion([&](const PdgNode *S) {
    auto It = SavedGraphs.find(S);
    if (It != SavedGraphs.end())
      RetiredSummaries.push_back(SavedGraphs.extract(It));
  });
  auto It = SavedGraphs.find(V);
  if (It != SavedGraphs.end())
    return It->second; // a re-allocated region
  if (RetiredSummaries.empty())
    return SavedGraphs[V];
  auto Entry = std::move(RetiredSummaries.back());
  RetiredSummaries.pop_back();
  Entry.key() = V;
  return SavedGraphs.insert(std::move(Entry)).position->second;
}

void RapAllocator::spillQueueRun(std::vector<std::pair<Reg, PdgNode *>> Queue) {
  // Spill code may land inside subregions that were already allocated and
  // combined (deferred spills and everywhere-spills). Their summaries no
  // longer describe the edited code, so those subtrees are re-allocated
  // bottom-up once the queue drains.
  std::set<PdgNode *> Dirty;
  while (!Queue.empty()) {
    auto [V, R] = Queue.front();
    Queue.erase(Queue.begin());
    if (++TotalSpillActions > MaxSpillActions)
      throwAllocError(AllocErrorKind::ResourceLimit,
                      "spill storm: more than " +
                          std::to_string(MaxSpillActions) + " spill actions",
                      F.name(), R->Id);
    checkAllocBudget(Options, F.name(), R->Id);
    // Spill rewrites edit only the spilled register's references (plus
    // fresh temporaries that never re-enter this queue), so the analysis
    // snapshot stays exact for every other register. Refresh lazily: only
    // when this entry's register was itself edited since the snapshot.
    if (EditedSinceRefresh.count(V)) {
      refresh();
      EditedSinceRefresh.clear();
    }
    std::vector<std::pair<Reg, PdgNode *>> Deferred;
    bool Changed = trySpill(V, R, Deferred);
    if (Changed) {
      EditedSinceRefresh.insert(V);
      // Note: spillEverywhere and the outside-the-region fixups only insert
      // code that references the spilled register itself, which existing
      // summaries already contain (its ranges only shrink), so they never
      // dirty a region. Fresh atomic temporaries do: mark the outermost
      // completed region containing the edit (deferred spills can land
      // several levels below regions whose summaries were already folded
      // into an ancestor).
      PdgNode *Top = nullptr;
      for (PdgNode *P = R; P && !InProgress.count(P); P = P->Parent)
        if (P->isRegion() && SavedGraphs.count(P))
          Top = P;
      if (Top)
        Dirty.insert(Top);
    }
    for (auto &D : Deferred)
      Queue.push_back(D);
  }

  // The loop above may leave the snapshot stale; callers (the allocRegion
  // coloring loop and the dirty re-allocation below) need a fresh one.
  if (!EditedSinceRefresh.empty()) {
    refresh();
    EditedSinceRefresh.clear();
  }

  // Keep only the outermost dirty regions; re-allocating them rebuilds
  // everything beneath.
  for (PdgNode *D : std::vector<PdgNode *>(Dirty.begin(), Dirty.end())) {
    for (PdgNode *P = D->Parent; P; P = P->Parent)
      if (Dirty.count(P)) {
        Dirty.erase(D);
        break;
      }
  }
  // Re-allocate in region-id order, not std::set's pointer order: the
  // subtrees are disjoint so any order gives the same code, but telemetry
  // records the visit sequence and must not vary with heap layout.
  std::vector<PdgNode *> Order(Dirty.begin(), Dirty.end());
  std::sort(Order.begin(), Order.end(),
            [](const PdgNode *A, const PdgNode *B) { return A->Id < B->Id; });
  for (PdgNode *D : Order)
    allocRegion(D);
}

//===----------------------------------------------------------------------===//
// Phase 1d: spill-code insertion (paper §3.1.4)
//===----------------------------------------------------------------------===//

void RapAllocator::renameInSubtree(PdgNode *S, Reg OldReg, Reg NewReg) {
  S->forEachInstr([&](Instr *I) {
    for (Reg &R : I->Src)
      if (R == OldReg)
        R = NewReg;
    if (I->hasDef() && I->Dst == OldReg)
      I->Dst = NewReg;
  });
  // Keep the still-live summaries in the subtree naming the new register
  // (paper: "the virtual register is then renamed", §3.1.4): the parent's
  // graph build imports them.
  S->forEachNode([&](const PdgNode *N) {
    auto It = SavedGraphs.find(N);
    if (It != SavedGraphs.end())
      It->second.renameReg(OldReg, NewReg);
  });
}

bool RapAllocator::trySpill(Reg V, PdgNode *R,
                            std::vector<std::pair<Reg, PdgNode *>> &Deferred) {
  allocCheck(R->isRegion(), AllocErrorKind::InvariantViolation,
             "spills target regions");
  if (NoSpill.count(V))
    return false; // an atomic spill range cannot be spilled again
  if (!Refs->referencedWithin(V, R->LinBegin, R->LinEnd) ||
      SpilledIn[R].count(V)) {
    // Live across the region (or already locally spilled) with the pressure
    // still unresolved: interrupt the live range at its references instead.
    return spillEverywhere(V);
  }

  auto ParkIt = ParamStores.find(V);
  Instr *Park = ParkIt == ParamStores.end() ? nullptr : ParkIt->second;
  std::vector<Instr *> PCUses, PCDefs;
  R->forEachParentInstr([&](Instr *I) {
    if (I != Park &&
        std::find(I->Src.begin(), I->Src.end(), V) != I->Src.end())
      PCUses.push_back(I);
    if (I->hasDef() && I->Dst == V)
      PCDefs.push_back(I);
  });

  struct SubAction {
    PdgNode *S;
    bool Load;
    bool Store;
  };
  std::vector<SubAction> SubActions;
  R->forEachSubregion([&](PdgNode *S) {
    if (!Refs->referencedWithin(V, S->LinBegin, S->LinEnd))
      return;
    bool Load = CI->Live.liveInOf(*S).test(V);
    bool Store = CI->Live.liveOutOf(*S).test(V) &&
                 Refs->definedWithin(V, S->LinBegin, S->LinEnd);
    SubActions.push_back(SubAction{S, Load, Store});
  });

  // The outside-the-region fixup (paper §3.1.4): definitions outside R
  // whose value flows into R must store it to the slot, uses outside R
  // reached by definitions inside R must reload it, and definitions
  // reaching those reloaded uses must store as well (the paper's
  // recursion, collapsed to its one-step fixpoint).
  std::vector<FlowDep> VDeps = Refs->flowDeps(V, CI->Graph);
  auto InsideR = [&](unsigned Pos) {
    return Pos >= R->LinBegin && Pos < R->LinEnd;
  };
  std::set<unsigned> LoadedUses;  // positions outside R
  for (const FlowDep &D : VDeps)
    if (InsideR(D.DefPos) && !InsideR(D.UsePos))
      LoadedUses.insert(D.UsePos);
  std::set<unsigned> StoredDefs; // positions outside R
  for (const FlowDep &D : VDeps) {
    if (InsideR(D.DefPos))
      continue;
    if (InsideR(D.UsePos) || LoadedUses.count(D.UsePos))
      StoredDefs.insert(D.DefPos);
  }

  bool AnyCode = !PCUses.empty() || !PCDefs.empty() || !LoadedUses.empty() ||
                 !StoredDefs.empty();
  for (const SubAction &A : SubActions)
    AnyCode |= A.Load || A.Store;

  if (!AnyCode) {
    // Pure rename: the register's live ranges are confined to subregions
    // with no value traffic across their boundaries. Spill inside the
    // owning subregions instead so the spill makes progress. With no
    // subregions either (e.g. only the park store remains), fall through to
    // the everywhere-spill so the register is at least reclassified as
    // fully spilled.
    if (SubActions.empty())
      return spillEverywhere(V);
    for (const SubAction &A : SubActions)
      Deferred.push_back({V, A.S});
    return false;
  }

  Injector.hit(FaultSite::SpillInsert);
  SpilledIn[R].insert(V);
  ++Stats.SpilledVRegs;
  int Slot = slotOf(V);
  parkParam(V, Slot);

  // Parent-level references go through fresh atomic live ranges...
  for (Instr *User : PCUses)
    Editor.reloadBeforeUse(User, V, atomicPiece(V), Slot);
  for (Instr *Def : PCDefs)
    Editor.storeAfterDef(Def, atomicPiece(V), Slot);

  // ...each referencing subregion loads the value on entry, stores escaping
  // definitions on exit, and renames the register so it becomes local
  // (paper §3.1.4)...
  for (const SubAction &A : SubActions) {
    Reg VS = F.newVReg();
    setOriginFrom(VS, V);
    if (A.Load)
      Editor.reloadAtRegionEntry(A.S, VS, Slot);
    if (A.Store)
      Editor.storeAtRegionExit(A.S, VS, Slot);
    renameInSubtree(A.S, V, VS);
  }

  // ...and the outside world synchronizes through the slot.
  for (unsigned Pos : StoredDefs) {
    Instr *Def = CI->Code.Instrs[Pos];
    allocCheck(Def->Dst == V, AllocErrorKind::InvariantViolation,
               "stale reaching-definition information");
    Editor.storeAfterDef(Def, V, Slot);
  }
  for (unsigned Pos : LoadedUses)
    Editor.reloadBeforeUse(CI->Code.Instrs[Pos], V, V, Slot);
  return true;
}

bool RapAllocator::spillEverywhere(Reg V) {
  if (GloballySpilled.count(V))
    return false;
  Injector.hit(FaultSite::SpillInsert);
  GloballySpilled.insert(V);
  ++Stats.SpilledVRegs;
  int Slot = slotOf(V);
  Instr *Park = parkParam(V, Slot);

  // Reload the value just before every use and park it just after every
  // definition. References inside already-allocated subregions keep the
  // same register name, so their saved interference summaries stay valid
  // (the ranges only shrink).
  for (unsigned Pos : Refs->usePositions(V)) {
    Instr *User = CI->Code.Instrs[Pos];
    if (User != Park)
      Editor.reloadBeforeUse(User, V, V, Slot);
  }
  for (unsigned Pos : Refs->defPositions(V))
    Editor.storeAfterDef(CI->Code.Instrs[Pos], V, Slot);
  return true;
}

Instr *RapAllocator::parkParam(Reg V, int Slot) {
  if (V >= F.numParams())
    return nullptr;
  Instr *&Park = ParamStores[V];
  if (!Park)
    Park = Editor.storeAtRegionEntry(F.root(), V, Slot);
  return Park;
}

Reg RapAllocator::atomicPiece(Reg V) {
  Reg T = F.newVReg();
  NoSpill.insert(T);
  setOriginFrom(T, V);
  return T;
}

//===----------------------------------------------------------------------===//
// The three-phase driver
//===----------------------------------------------------------------------===//

AllocStats RapAllocator::run() {
  telemetry::FunctionScope *TS = Options.Scope;
  const InterferenceGraph &Final = allocRegion(F.root());

  if (Options.SpillMovement)
    moveSpillCodeOutOfLoops(F, Final, Stats, TS);

  // Checked mode: vet the final coloring (after movement, which is the last
  // pass to run on virtual code) with the independent oracle.
  if (Options.VerifyAssignments) {
    telemetry::ScopedPhase Phase(TS, "verify");
    checkAssignment(F, Final);
  }

  Injector.hit(FaultSite::PhysicalRewrite);
  Stats.CopiesDeleted = rewriteToPhysical(F, Final, Options.K, TS);

  if (Options.Peephole)
    peepholeSpillCleanup(F, Stats, TS);
  if (Options.GlobalCleanup)
    globalSpillCleanup(F, Stats, TS);
  return Stats;
}

AllocStats rap::allocateRap(IlocFunction &F, const AllocOptions &Options) {
  try {
    allocCheck(!F.isAllocated(), AllocErrorKind::InvariantViolation,
               "function already allocated");
    allocCheck(Options.K >= 3, AllocErrorKind::Unallocatable,
               "need at least 3 registers for a load/store ISA");
    return RapAllocator(F, Options).run();
  } catch (AllocError &E) {
    E.setFunction(F.name()); // fill in throw sites below the allocator
    throw;
  }
}
