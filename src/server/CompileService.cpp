//===- server/CompileService.cpp - Cached batched compilation ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/CompileService.h"

#include "support/Hash.h"

#include <chrono>
#include <thread>

using namespace rap;
using namespace rap::server;

uint64_t server::hashProgramOutput(const IlocProgram &Prog) {
  Hasher H;
  for (const auto &F : Prog.functions())
    H.str(F->str());
  return H.value();
}

const char *server::serviceStatusName(ServiceStatus S) {
  switch (S) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::CompileError:
    return "compile-error";
  case ServiceStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case ServiceStatus::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

CompileService::CompileService(const ServiceConfig &Config)
    : Config(Config), Cache(Config.CacheBytes),
      Pool(Config.Shards, Config.Watchdog),
      Chaos(Config.Chaos.empty() ? envFaultPlan() : Config.Chaos,
            std::string()) {}

bool CompileService::chaosFires(FaultSite S) {
  std::lock_guard<std::mutex> Lock(ChaosM);
  return Chaos.fires(S);
}

namespace {

/// The `stall` chaos fault: wedge this worker for a while, deliberately
/// ignoring every cancellation point — the failure mode the ShardPool
/// watchdog exists to detect.
void stallIgnoringToken(unsigned Ms) {
  const Deadline End = Deadline::afterMs(Ms);
  while (!End.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

} // namespace

ServiceResult CompileService::compile(const std::string &Source,
                                      const RequestOptions &Opts) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  ServiceResult Res;

  // The request's cancel token: armed from deadline_ms, parented by the
  // server's drain token. Every stack below (cache replay loop, pool tasks,
  // allocator round boundaries) checks this one object; it outlives all of
  // them because the task barrier completes before this frame returns.
  CancelToken Token(Opts.DeadlineMs > 0 ? Deadline::afterMs(Opts.DeadlineMs)
                                        : Deadline(),
                    Config.StopToken);

  // Folds the abort into a stable status. Deadline expiry wins over drain
  // cancellation (both may be true); the response never carries partial
  // output — and, critically, an aborted request has inserted nothing into
  // the cache, so wall-clock races cannot perturb deterministic cache
  // state.
  auto aborted = [&] {
    bool DeadlineHit = Token.expired();
    Res.Ok = false;
    Res.Status = DeadlineHit ? ServiceStatus::DeadlineExceeded
                             : ServiceStatus::Cancelled;
    Res.Errors = DeadlineHit
                     ? "deadline of " + std::to_string(Opts.DeadlineMs) +
                           "ms exceeded (" +
                           std::to_string(Res.Functions.size()) +
                           " function(s) in request)"
                     : "request cancelled (server drain)";
    (DeadlineHit ? DeadlineExceededCount : CancelledCount)
        .fetch_add(1, std::memory_order_relaxed);
    Res.Prog.reset();
  };

  // Frontend + lowering, unallocated (AllocatorKind::None short-circuits
  // the allocation driver). This path inherits the crash-free contract:
  // hostile sources come back as diagnostics, never exceptions.
  CompileOptions CO;
  CO.Allocator = AllocatorKind::None;
  CO.Granularity = Opts.Granularity;
  CO.Copies = Opts.Copies;
  CompileResult CR = compileMiniC(Source, CO);
  if (!CR.ok()) {
    Res.Errors = CR.Errors;
    Res.Status = ServiceStatus::CompileError;
    return Res;
  }
  if (Token.stopRequested()) {
    aborted();
    return Res;
  }
  Res.Prog = std::move(CR.Prog);
  IlocProgram &Prog = *Res.Prog;
  const unsigned N = static_cast<unsigned>(Prog.functions().size());
  Res.Functions.resize(N);

  // Deadline expiry and drain cancellation reach the allocators' round
  // guard as AllocError and degrade through allocateFunction's fallback
  // like any other error, so a stopped request still leaves every shard
  // clean, never wedged.
  AllocOptions AO;
  AO.K = Opts.K;
  AO.Cancel = &Token;
  AO.FallbackOnError = true;

  for (unsigned I = 0; I != N; ++I)
    Res.Functions[I].Outcome.Function = Prog.functions()[I]->name();

  // Phase 1 (inline): fingerprint every function and replay cache hits.
  // Hits swap a clone of the stored allocated body into the program slot.
  std::vector<unsigned> Misses;
  if (Opts.Allocator != AllocatorKind::None) {
    for (unsigned I = 0; I != N; ++I) {
      if (Token.stopRequested()) {
        aborted();
        return Res;
      }
      FunctionReport &R = Res.Functions[I];
      R.Fingerprint =
          fingerprintFunction(*Prog.functions()[I], Opts.Allocator, AO);
      CachedAllocation Hit = Cache.lookup(R.Fingerprint);
      if (Hit.Body) {
        R.CacheHit = true;
        R.Outcome = Hit.Outcome;
        Prog.replaceFunction(I, std::move(Hit.Body));
      } else {
        Misses.push_back(I);
      }
    }

    // Phase 2 (parallel): allocate the misses on the shard pool. One
    // request's misses share an affinity hint so they land on one shard;
    // idle shards steal them back when the batch is skewed. The calling
    // thread is never a pool worker, so waiting here cannot deadlock. The
    // barrier ALWAYS completes: queued tasks whose token already stopped
    // are skipped by the pool, and running allocations abort at their next
    // round boundary — a deadline can cost one round, never a wedged shard.
    size_t Hint = NextShardHint.fetch_add(1, std::memory_order_relaxed);
    if (!Misses.empty()) {
      TaskGroup Group;
      Group.expect(Misses.size());
      for (unsigned I : Misses)
        Pool.submit(Hint, [this, &Prog, I, &Opts, AO, &Res] {
          if (chaosFires(FaultSite::WorkerStall)) {
            ChaosInjectedCount.fetch_add(1, std::memory_order_relaxed);
            stallIgnoringToken(Config.ChaosStallMs);
          }
          AllocOutcome &Out = Res.Functions[I].Outcome;
          try {
            Out = allocateFunction(Prog, I, Opts.Allocator, AO);
          } catch (const std::exception &E) {
            // Only the fallback itself gets here, and it fails only on API
            // misuse; record it without crashing the serving loop
            // (crash-free contract).
            Out.Status = AllocStatus::Failed;
            Out.Error = std::string("fallback failed: ") + E.what();
          }
        }, &Group, &Token);
      Group.wait();
    }
    if (Token.stopRequested()) {
      aborted();
      return Res;
    }

    // Phase 3 (inline, function order): insert the fresh allocations into
    // the cache *after* the barrier so LRU order — and therefore eviction —
    // is a function of the request sequence alone, not thread scheduling.
    // The cache-insert chaos site drops the insert (a contained fault: the
    // function simply misses again next time); it never corrupts state.
    for (unsigned I : Misses) {
      const FunctionReport &R = Res.Functions[I];
      if (R.Outcome.Status == AllocStatus::Failed)
        continue; // nothing replayable
      if (chaosFires(FaultSite::CacheInsert)) {
        ChaosInjectedCount.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Cache.insert(R.Fingerprint, *Prog.functions()[I], R.Outcome);
    }
  }

  for (const FunctionReport &R : Res.Functions) {
    Res.Alloc.accumulate(R.Outcome.Stats);
    if (Opts.Allocator != AllocatorKind::None) {
      Res.CacheHits += R.CacheHit;
      Res.CacheMisses += !R.CacheHit;
    }
  }
  Res.OutputHash = hashProgramOutput(Prog);
  Res.Ok = true;
  Res.Status = ServiceStatus::Ok;

  if (Opts.Run) {
    if (Token.stopRequested()) {
      aborted();
      return Res;
    }
    Interpreter Interp(Prog);
    Res.Exec = Interp.run("main", Opts.Fuel);
  }
  return Res;
}

ServiceCounters CompileService::counters() const {
  ServiceCounters C;
  CacheCounters CC = Cache.counters();
  C.Requests = Requests.load(std::memory_order_relaxed);
  C.CacheHits = CC.Hits;
  C.CacheMisses = CC.Misses;
  C.CacheBytes = CC.Bytes;
  C.CacheEvictions = CC.Evictions;
  C.QueueDepthMax = Pool.queueDepthMax();
  C.TasksStolen = Pool.tasksStolen();
  C.DeadlineExceeded = DeadlineExceededCount.load(std::memory_order_relaxed);
  C.Cancelled = CancelledCount.load(std::memory_order_relaxed);
  C.WatchdogTrips = Pool.watchdogTrips();
  C.ShardsDegraded = Pool.shardsDegraded();
  C.ChaosInjected = ChaosInjectedCount.load(std::memory_order_relaxed);
  return C;
}
