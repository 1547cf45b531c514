//===- support/ShardPool.h - Work-stealing task shards ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's execution substrate: N shards, each a worker thread
/// with its own task deque. Producers place tasks on a shard chosen by an
/// affinity hint (requests keep their functions together for locality);
/// a worker drains its own deque FIFO and, when empty, steals from the
/// *back* of a sibling's deque — the classic split that keeps owners and
/// thieves off the same end. Stealing is what keeps a batch with skewed
/// shard assignment (one huge request, many idle shards) at full
/// utilization.
///
/// Determinism: the pool schedules, it does not order results. Callers
/// write each task's output into a pre-assigned slot (function index,
/// request index) and fold slots in index order after waiting — the same
/// discipline allocateProgramChecked established — so any interleaving
/// produces identical output. TaskGroup provides the wait barrier.
///
/// The pool runs exactly one thread per shard. Idle workers block on one
/// condition variable whose predicate is exact: a count of queued tasks no
/// worker has claimed yet, kept under the sleep mutex. A submit adds one and
/// wakes one worker; a worker claims one before it pops, so it never wakes
/// to an empty pool and never polls.
///
/// Crash-only serving (DESIGN.md §13) adds two pieces:
///
///   * Tasks may register the request's CancelToken at submit time. A
///     skipped task (token already stopped when a worker picks it up) is
///     never run — the submitter's own pre-checks make the common case
///     cheap, this is the backstop — but its TaskGroup is always released.
///   * The watchdog: a task that overstays WatchdogConfig::Factor x its
///     token's deadline budget has, by definition, ignored its cooperative
///     cancellation points. The pool cannot preempt it, but it marks the
///     shard degraded (until that task finally completes) and counts one
///     trip, so operators see wedged workers in the `server` stats section
///     instead of wondering where their capacity went. No thread samples
///     the workers: a worker stamps its task's overstay Deadline when it
///     starts it, and the verdict is computed under the shard's lock when
///     watchdogTrips() or shardsDegraded() is read and when the task
///     finishes, so an overstay counts exactly once even if nobody reads.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_SHARDPOOL_H
#define RAP_SUPPORT_SHARDPOOL_H

#include "support/Deadline.h"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rap {

/// Countdown latch for one batch of pool tasks: the submitter registers
/// each task, workers signal completion, wait() blocks until all are done.
/// Threads that call wait() are never pool workers (the service orchestrates
/// from the connection/bench thread), so waiting cannot deadlock the pool.
class TaskGroup {
public:
  void expect(size_t N = 1) {
    std::lock_guard<std::mutex> Lock(M);
    Pending += N;
  }
  void done() {
    std::lock_guard<std::mutex> Lock(M);
    if (--Pending == 0)
      CV.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Pending == 0; });
  }

private:
  std::mutex M;
  std::condition_variable CV;
  size_t Pending = 0;
};

/// Watchdog tuning.
struct WatchdogConfig {
  /// A running task trips the watchdog once it has been running longer than
  /// Factor x its deadline budget (deadline minus task start, floored at
  /// 5 ms so a task admitted at its deadline cannot false-trip while it
  /// runs its cooperative checks). Tasks without an armed deadline never
  /// trip: there is no budget to scale. 0 disables the watchdog.
  unsigned Factor = 4;
};

class ShardPool {
public:
  using Task = std::function<void()>;

  /// Spawns \p NumShards workers (at least 1) and no other thread. Shard
  /// count is the server's --shards knob; the deterministic-output contract
  /// holds at any value.
  explicit ShardPool(unsigned NumShards,
                     const WatchdogConfig &Watchdog = WatchdogConfig());
  ~ShardPool();

  ShardPool(const ShardPool &) = delete;
  ShardPool &operator=(const ShardPool &) = delete;

  /// Enqueues \p T on shard `Hint % shards()` and wakes a worker. When
  /// \p Group is given it must have been expect()ed already; the pool calls
  /// done() after the task runs (even if it throws — tasks are expected to
  /// contain their own failures, but a throw must not hang the barrier).
  /// \p Token, when given, must outlive the task (the submitter's barrier
  /// guarantees this): a task whose token already requests stop is skipped
  /// — its Group still released — and the token's deadline when the task
  /// starts is the budget the watchdog scales.
  void submit(size_t Hint, Task T, TaskGroup *Group = nullptr,
              const CancelToken *Token = nullptr);

  unsigned shards() const { return static_cast<unsigned>(Shards.size()); }

  /// High-water mark of any single shard's queue depth (telemetry).
  uint64_t queueDepthMax() const;
  /// Tasks executed by a worker that did not own their shard (telemetry;
  /// proves stealing actually happens under skewed load).
  uint64_t tasksStolen() const;
  uint64_t tasksRun() const;
  /// Tasks never run because their cancel token had already stopped when a
  /// worker picked them up (their barriers were still released).
  uint64_t tasksSkipped() const;
  /// Tasks that overstayed their watchdog budget, each counted once: the
  /// running ones as of this call plus every finished one.
  uint64_t watchdogTrips() const;
  /// Shards whose running task has overstayed its watchdog budget.
  unsigned shardsDegraded() const;

private:
  struct QueueItem {
    Task Work;
    TaskGroup *Group = nullptr;
    const CancelToken *Token = nullptr;
  };

  struct Shard {
    std::mutex M;
    std::deque<QueueItem> Q;
    uint64_t DepthMax = 0;

    // The watchdog's view of the task this shard's worker runs, under M.
    Deadline Overstay;    ///< when the running task trips; unarmed: never
    bool Tripped = false; ///< the running task overstayed: shard degraded
    uint64_t Trips = 0;   ///< tasks run here that overstayed
  };

  void workerLoop(unsigned Self);
  /// Pops a task of shard \p From: its front for the owner, its back for
  /// a thief.
  bool take(unsigned From, bool Owner, QueueItem &Out);
  /// The watchdog verdict on \p S's running task, under S.M: the first
  /// call past its overstay point counts its trip.
  static bool tripped(Shard &S);

  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<std::thread> Workers;

  WatchdogConfig Watchdog;

  // One pool-wide sleep channel: workers park here until a queued task is
  // unclaimed. Simpler than per-shard wakeups and plenty for the server's
  // task granularity (one task = one function allocation).
  std::mutex SleepM;
  std::condition_variable SleepCV;
  size_t Unclaimed = 0; ///< queued tasks no worker has claimed yet
  bool Stopping = false;

  mutable std::mutex StatsM;
  uint64_t Stolen = 0;
  uint64_t Run = 0;
  uint64_t Skipped = 0;
};

} // namespace rap

#endif // RAP_SUPPORT_SHARDPOOL_H
