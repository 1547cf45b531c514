//===- server/AllocCache.cpp - Content-hash allocation cache ----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/AllocCache.h"

#include "ir/Clone.h"
#include "pdg/Dot.h"
#include "support/Hash.h"

using namespace rap;
using namespace rap::server;

uint64_t server::fingerprintFunction(const IlocFunction &F,
                                     AllocatorKind Kind,
                                     const AllocOptions &Options) {
  Hasher H;
  // The lowered code. F.str() linearizes the body with labels, register
  // numbers, spill slots, global addresses, and callee indices — everything
  // the allocators read from the instruction stream. Callee indices (not
  // names) are deliberate: a module edit that renumbers callees changes the
  // caller's text and correctly misses.
  H.str(F.str());
  // RAP walks the PDG region tree, not the linear stream; two bodies with
  // equal text but different tree shapes could allocate differently, so the
  // tree rendering joins the fingerprint.
  H.str(regionTreeToText(F));
  // Namespace sizes (newVReg/newLabel/newSpillSlot start points matter for
  // the rewrite's fresh-name choices).
  H.u32(F.numParams());
  H.u32(F.numVRegs());
  H.u32(static_cast<uint32_t>(F.numLabels()));
  H.u32(static_cast<uint32_t>(F.numSpillSlots()));
  H.u32(static_cast<uint32_t>(F.returnType()));
  // The allocation request: everything in AllocOptions that can change the
  // produced code or the reported outcome. Threads is excluded on purpose
  // (per-function allocation is thread-count invariant); telemetry sinks
  // and resource guards are excluded because the server runs without them.
  H.u32(static_cast<uint32_t>(Kind));
  H.u32(Options.K);
  H.boolean(Options.SpillMovement);
  H.boolean(Options.Peephole);
  H.boolean(Options.GlobalCleanup);
  H.boolean(Options.PeepholeForGra);
  H.boolean(Options.Coalesce);
  H.boolean(Options.VerifyAssignments);
  return H.value();
}

size_t server::estimateFunctionBytes(const IlocFunction &F) {
  // Deterministic size model: arena instruction + node footprint plus the
  // fixed container overhead. A clone renumbers ids densely, so
  // numInstrIds() equals the live instruction count.
  size_t Instrs = 0;
  size_t Operands = 0;
  if (F.root())
    F.root()->forEachInstr([&](Instr *I) {
      ++Instrs;
      Operands += I->Src.size();
    });
  (void)F;
  return 256 + F.name().size() + Instrs * sizeof(Instr) +
         Operands * sizeof(Reg) + static_cast<size_t>(F.numVRegs()) * 4;
}

CachedAllocation AllocCache::lookup(uint64_t Key) {
  CachedAllocation Out;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Stats.Misses;
    return Out;
  }
  ++Stats.Hits;
  Lru.splice(Lru.begin(), Lru, It->second); // bump to most-recent
  Out.Body = cloneFunction(*It->second->Body);
  Out.Outcome = It->second->Outcome;
  return Out;
}

void AllocCache::insert(uint64_t Key, const IlocFunction &Allocated,
                        const AllocOutcome &Outcome) {
  if (Budget == 0)
    return; // caching disabled: the cold-path baseline
  size_t Bytes = estimateFunctionBytes(Allocated);
  if (Bytes > Budget)
    return; // larger than the whole cache: not worth evicting everything
  // A hit replays the cold allocation's counts, not its wall clocks:
  // summing those per hit would bill the cold compile's time again.
  AllocOutcome Stored = Outcome;
  Stored.Stats.GraphBuildSeconds = 0;
  Stored.Stats.LivenessSeconds = 0;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    Lru.emplace_front();
    Lru.front().Key = Key;
    It = Index.emplace(Key, Lru.begin()).first;
  } else {
    // Same fingerprint => same deterministic result; refresh recency and
    // replace the stored body (keeps the bytes ledger exact).
    Stats.Bytes -= It->second->Bytes;
    Lru.splice(Lru.begin(), Lru, It->second);
  }
  Entry &E = *It->second;
  E.Body = cloneFunction(Allocated);
  E.Outcome = std::move(Stored);
  E.Bytes = Bytes;
  Stats.Bytes += Bytes;
  evictToBudgetLocked();
}

void AllocCache::evictToBudgetLocked() {
  while (Stats.Bytes > Budget && !Lru.empty()) {
    Entry &Victim = Lru.back();
    Stats.Bytes -= Victim.Bytes;
    ++Stats.Evictions;
    Index.erase(Victim.Key);
    Lru.pop_back();
  }
}

CacheCounters AllocCache::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}
