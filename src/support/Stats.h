//===- support/Stats.h - Allocation telemetry registry ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry subsystem (DESIGN.md §9): per-phase timers and a
/// per-region event log, collected per function and folded into a
/// program-level registry whose aggregate is deterministic at any thread
/// count. The registry also holds the program's named counters, a view of
/// AllocStats that the allocation driver sets once per program.
///
/// Design rules:
///
/// * **Zero cost when off.** Every instrumentation point receives a
///   `FunctionScope *` that is null when telemetry is disabled; the inline
///   recording helpers reduce to a single pointer test, and no memory is
///   allocated. The hot allocation loops never pay for strings or maps
///   unless a sink is attached.
/// * **One writer per scope.** A FunctionScope is owned by the one thread
///   allocating (or interpreting) that function, so recording is
///   lock-free. Only Telemetry::commit crosses threads and takes the
///   registry mutex — once per function, not per event.
/// * **Deterministic aggregate.** Committed scopes are keyed by function
///   index; aggregation folds them in that order. Counter names, values,
///   slice names/regions/args are identical across thread counts and
///   repeated runs; only timestamps, durations, and worker lane ids vary
///   (the determinism tests normalize exactly those fields).
///
/// The Chrome trace exporter serializes the slice log as trace-event JSON
/// ("X" complete events, one lane per worker thread) loadable in
/// about://tracing or https://ui.perfetto.dev.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_STATS_H
#define RAP_SUPPORT_STATS_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace rap {
namespace telemetry {

using Clock = std::chrono::steady_clock;

/// Wall seconds since \p Start (a measurement, never a limit: limits are
/// Deadlines, support/Deadline.h).
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One closed phase slice: \p Phase ran over [StartUs, StartUs + DurUs)
/// within one function, optionally attributed to a PDG region and carrying
/// small deterministic arguments (graph node counts, spill counts, ...).
struct PhaseSlice {
  const char *Phase = "";           ///< static string; deterministic
  int Region = -1;                  ///< PDG region id, -1 = whole function
  double StartUs = 0;               ///< since the registry epoch; varies
  double DurUs = 0;                 ///< wall duration; varies
  /// Deterministic key/value arguments (static-string keys).
  std::vector<std::pair<const char *, uint64_t>> Args;
};

/// Per-function telemetry sink: phase timers and the slice log. Counts go to
/// AllocStats instead. Single-threaded by construction: the one worker
/// allocating the function writes, nobody reads until commit.
class FunctionScope {
public:
  explicit FunctionScope(Clock::time_point Epoch = Clock::now())
      : Epoch(Epoch) {}

  void addSeconds(const char *Timer, double S) { TimerSeconds[Timer] += S; }

  double microsNow() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  void record(PhaseSlice S) { Slices.push_back(std::move(S)); }

  /// Total wall seconds per phase name (sum over that phase's slices plus
  /// any addSeconds contributions).
  std::map<std::string, double> TimerSeconds;
  /// The per-region event log, in recording order.
  std::vector<PhaseSlice> Slices;

private:
  Clock::time_point Epoch;
};

/// RAII phase slice: times \p Phase from construction to destruction and
/// records a PhaseSlice plus the phase-total timer. A null \p Scope makes
/// every member a no-op (the disabled-telemetry fast path).
class ScopedPhase {
public:
  ScopedPhase(FunctionScope *Scope, const char *Phase, int Region = -1)
      : Scope(Scope) {
    if (!Scope)
      return;
    S.Phase = Phase;
    S.Region = Region;
    S.StartUs = Scope->microsNow();
  }
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;
  ~ScopedPhase() { finish(); }

  /// Attaches a deterministic argument to the slice.
  void arg(const char *Key, uint64_t V) {
    if (Scope)
      S.Args.emplace_back(Key, V);
  }

  /// Closes the slice early (idempotent).
  void finish() {
    if (!Scope)
      return;
    S.DurUs = Scope->microsNow() - S.StartUs;
    Scope->addSeconds(S.Phase, S.DurUs * 1e-6);
    Scope->record(std::move(S));
    Scope = nullptr;
  }

private:
  FunctionScope *Scope;
  PhaseSlice S;
};

/// The deterministic view of a whole run: the program's counters, and
/// timers summed over every committed function, in function order.
struct Aggregate {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> TimerSeconds; ///< varies run to run
  uint64_t NumFunctions = 0;
  uint64_t NumSlices = 0;

  json::Value countersJson() const {
    json::Object O;
    for (const auto &[K, V] : Counters)
      O[K] = V;
    return json::Value(std::move(O));
  }
  json::Value timersJson() const {
    json::Object O;
    for (const auto &[K, V] : TimerSeconds)
      O[K + "_s"] = V;
    return json::Value(std::move(O));
  }
};

/// The program-level registry. Thread-safe: worker threads commit their
/// FunctionScope under the mutex; everything else is read-after-join.
class Telemetry {
public:
  Telemetry() : Epoch(Clock::now()) {}

  Clock::time_point epoch() const { return Epoch; }

  /// Folds one function's telemetry in. \p Index is the function's position
  /// in the program (the deterministic sort key); \p Worker the lane the
  /// function ran on (trace display only).
  void commit(unsigned Index, std::string Function, unsigned Worker,
              FunctionScope &&Scope) {
    std::lock_guard<std::mutex> Lock(M);
    Record &R = Records[Index];
    R.Function = std::move(Function);
    R.Worker = Worker;
    R.Scope = std::move(Scope);
  }

  /// Sets the program's named counters. The allocation driver calls this
  /// once per program, after every function has committed.
  void setCounters(std::map<std::string, uint64_t> C) {
    std::lock_guard<std::mutex> Lock(M);
    Counters = std::move(C);
  }

  /// The deterministic aggregate: the counters as set, and the timers
  /// summed in function order.
  Aggregate aggregate() const {
    std::lock_guard<std::mutex> Lock(M);
    Aggregate A;
    A.Counters = Counters;
    A.NumFunctions = Records.size();
    for (const auto &[Index, R] : Records) {
      (void)Index;
      for (const auto &[K, V] : R.Scope.TimerSeconds)
        A.TimerSeconds[K] += V;
      A.NumSlices += R.Scope.Slices.size();
    }
    return A;
  }

  /// Chrome trace-event JSON (the "JSON object format": a traceEvents
  /// array plus metadata). Events are ordered by function index, then
  /// recording order — deterministic apart from ts/dur/tid values.
  void writeChromeTrace(std::ostream &OS) const {
    std::lock_guard<std::mutex> Lock(M);
    json::Array Events;
    std::map<unsigned, bool> Lanes;
    for (const auto &[Index, R] : Records) {
      (void)Index;
      Lanes[R.Worker] = true;
      for (const PhaseSlice &S : R.Scope.Slices) {
        json::Object Args;
        Args["function"] = R.Function;
        if (S.Region >= 0)
          Args["region"] = static_cast<int64_t>(S.Region);
        for (const auto &[K, V] : S.Args)
          Args[K] = V;
        json::Object E;
        E["name"] = S.Phase;
        E["cat"] = "alloc";
        E["ph"] = "X";
        E["ts"] = S.StartUs;
        E["dur"] = S.DurUs;
        E["pid"] = 1;
        E["tid"] = static_cast<int64_t>(R.Worker);
        E["args"] = json::Value(std::move(Args));
        Events.push_back(json::Value(std::move(E)));
      }
    }
    // Lane naming metadata so about://tracing shows "worker N" rows.
    for (const auto &[Worker, Used] : Lanes) {
      (void)Used;
      json::Object Args;
      Args["name"] = "worker " + std::to_string(Worker);
      json::Object E;
      E["name"] = "thread_name";
      E["ph"] = "M";
      E["pid"] = 1;
      E["tid"] = static_cast<int64_t>(Worker);
      E["args"] = json::Value(std::move(Args));
      Events.push_back(json::Value(std::move(E)));
    }
    json::Object Root;
    Root["traceEvents"] = json::Value(std::move(Events));
    Root["displayTimeUnit"] = "ms";
    OS << json::Value(std::move(Root)).str(1) << "\n";
  }

  /// Per-function records in function order (tests and reporters).
  struct Record {
    std::string Function;
    unsigned Worker = 0;
    FunctionScope Scope;
  };
  std::vector<std::pair<unsigned, const Record *>> ordered() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<std::pair<unsigned, const Record *>> Out;
    Out.reserve(Records.size());
    for (const auto &[Index, R] : Records)
      Out.emplace_back(Index, &R);
    return Out;
  }

private:
  Clock::time_point Epoch;
  mutable std::mutex M;
  std::map<unsigned, Record> Records; ///< keyed by function index
  std::map<std::string, uint64_t> Counters;
};

} // namespace telemetry
} // namespace rap

#endif // RAP_SUPPORT_STATS_H
