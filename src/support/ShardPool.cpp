//===- support/ShardPool.cpp - Work-stealing task shards --------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/ShardPool.h"

using namespace rap;

namespace {
/// The least deadline budget the watchdog scales (WatchdogConfig::Factor).
constexpr std::chrono::milliseconds WatchdogFloor(5);
} // namespace

ShardPool::ShardPool(unsigned NumShards, const WatchdogConfig &Watchdog)
    : Watchdog(Watchdog) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  Workers.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    Stopping = true;
  }
  SleepCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ShardPool::submit(size_t Hint, Task T, TaskGroup *Group,
                       const CancelToken *Token) {
  Shard &S = *Shards[Hint % Shards.size()];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Q.push_back(QueueItem{std::move(T), Group, Token});
    if (S.Q.size() > S.DepthMax)
      S.DepthMax = S.Q.size();
  }
  // Counted only once it is queued, so a claim always finds a task.
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    ++Unclaimed;
  }
  SleepCV.notify_one();
}

bool ShardPool::take(unsigned From, bool Owner, QueueItem &Out) {
  Shard &S = *Shards[From];
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Q.empty())
    return false;
  if (Owner) { // the owner drains FIFO
    Out = std::move(S.Q.front());
    S.Q.pop_front();
  } else { // thieves take the opposite end
    Out = std::move(S.Q.back());
    S.Q.pop_back();
  }
  return true;
}

bool ShardPool::tripped(Shard &S) {
  if (!S.Tripped && S.Overstay.expired()) {
    S.Tripped = true;
    ++S.Trips;
  }
  return S.Tripped;
}

void ShardPool::workerLoop(unsigned Self) {
  const unsigned N = shards();
  Shard &Own = *Shards[Self];
  QueueItem Item;
  while (true) {
    {
      // Park until a queued task is unclaimed, then claim it. On shutdown
      // the queue drains first: a worker leaves once nothing is unclaimed.
      std::unique_lock<std::mutex> Lock(SleepM);
      SleepCV.wait(Lock, [&] { return Unclaimed != 0 || Stopping; });
      if (Unclaimed == 0)
        return;
      --Unclaimed;
    }
    // Every queued task is claimed once before anyone pops it, so one of
    // the deques holds a task for this claim: the own deque first, then the
    // siblings round-robin starting after ourselves, so thieves spread over
    // victims instead of mobbing shard 0. A pass can miss it while other
    // claimants pop and producers push, so the scan goes round until it
    // finds one.
    unsigned From = Self;
    while (!take(From, From == Self, Item))
      From = (From + 1) % N;
    bool Stole = From != Self;

    // Backstop skip: a task whose request already stopped (deadline hit
    // or drain cancel while it sat queued) is not worth starting — the
    // allocator would only throw at its first round boundary anyway.
    bool Skip = Item.Token && Item.Token->stopRequested();
    if (!Skip) {
      // Stamp the watchdog's overstay deadline in the executing worker's
      // own shard, whichever deque the task came from.
      {
        std::lock_guard<std::mutex> Lock(Own.M);
        Own.Overstay = Watchdog.Factor && Item.Token
                           ? Item.Token->deadline().scaledFromNow(
                                 Watchdog.Factor, WatchdogFloor)
                           : Deadline();
      }
      try {
        Item.Work();
      } catch (...) {
        // Tasks own their failures (the service catches per function); a
        // leak here must not take down the worker or hang the barrier.
      }
      {
        // The verdict on the finished task, then the shard recovers.
        std::lock_guard<std::mutex> Lock(Own.M);
        tripped(Own);
        Own.Overstay = Deadline();
        Own.Tripped = false;
      }
    }
    {
      // Fold stats *before* releasing the barrier so a waiter that reads
      // the counters right after wait() sees this task accounted for.
      std::lock_guard<std::mutex> Lock(StatsM);
      Run += !Skip;
      Skipped += Skip;
      Stolen += Stole && !Skip;
    }
    if (Item.Group)
      Item.Group->done();
    Item.Work = nullptr;
    Item.Token = nullptr;
  }
}

uint64_t ShardPool::queueDepthMax() const {
  uint64_t Max = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    if (S->DepthMax > Max)
      Max = S->DepthMax;
  }
  return Max;
}

uint64_t ShardPool::tasksStolen() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Stolen;
}

uint64_t ShardPool::tasksRun() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Run;
}

uint64_t ShardPool::tasksSkipped() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Skipped;
}

uint64_t ShardPool::watchdogTrips() const {
  uint64_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    tripped(*S);
    N += S->Trips;
  }
  return N;
}

unsigned ShardPool::shardsDegraded() const {
  unsigned N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += tripped(*S);
  }
  return N;
}
