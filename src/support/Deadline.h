//===- support/Deadline.h - Deadlines and cooperative cancel ----*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a time limit is computed: an absolute monotonic Deadline
/// and a CancelToken that combines it with an explicit cooperative
/// cancellation flag. Every wall-clock limit in the tree is a Deadline: a
/// rapd request's budget (armed from the protocol's `deadline_ms`), a fuzz
/// configuration's allocation budget, rapfuzz's sweep box, a client call's
/// budget, the serve loop's drain window and the shard pool's watchdog
/// verdict. Other clock reads are measurements (telemetry, phase seconds).
///
/// A compile's one stop condition is the token in AllocOptions::Cancel:
/// CompileService threads a request's token (by const pointer) through the
/// ShardPool tasks to the allocators' round-boundary check, and the fuzz
/// runner arms one per configuration compile. A stop surfaces as AllocError
/// and leaves the function recoverable via the spill-everything fallback.
///
/// Tokens chain: a request token may name a parent (the server's drain-kill
/// token), so one cancel() at the server flips every in-flight request at
/// its next check. Checks are wait-free — one relaxed atomic load plus, when
/// a deadline is armed, one steady_clock read — cheap enough for allocator
/// round boundaries.
///
/// Cancellation is strictly cooperative: nothing is preempted. Code that
/// ignores its token is the ShardPool watchdog's department.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_DEADLINE_H
#define RAP_SUPPORT_DEADLINE_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace rap {

/// The largest budget, in milliseconds, that outside input may ask for
/// (rapd's `deadline_ms`, rapc's `--deadline-ms`): one day. Deadline::afterMs
/// adds the budget to steady_clock::now() in signed nanoseconds, so a budget
/// of about 292 years or more overflows into a deadline already past.
constexpr uint64_t MaxDeadlineMs = 24ull * 60 * 60 * 1000;

/// An absolute point on the monotonic clock, or "never" (default). Copyable
/// and cheap; expiry is a pure function of the clock, so once expired() is
/// true it stays true.
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default; ///< unarmed: never expires

  static Deadline afterMs(uint64_t Ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(Ms));
  }
  static Deadline afterSeconds(double Seconds) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Seconds)));
  }
  static Deadline at(Clock::time_point TP) { return Deadline(TP); }

  bool armed() const { return Armed; }
  bool expired() const { return Armed && Clock::now() > At; }

  /// Time left until expiry, zero once past; Clock::duration::max() when
  /// unarmed.
  Clock::duration remaining() const {
    if (!Armed)
      return Clock::duration::max();
    return std::max(At - Clock::now(), Clock::duration::zero());
  }

  /// The deadline of a task that starts now and may run \p Factor times the
  /// budget this deadline leaves it, the budget floored at \p Floor (so a
  /// task started at or past this deadline still gets Factor x Floor).
  /// Unarmed when this one is: there is no budget to scale.
  Deadline scaledFromNow(unsigned Factor, Clock::duration Floor) const {
    if (!Armed)
      return Deadline();
    Clock::time_point Now = Clock::now();
    return Deadline(Now + std::max(At - Now, Floor) * Factor);
  }

private:
  explicit Deadline(Clock::time_point TP) : At(TP), Armed(true) {}

  Clock::time_point At{};
  bool Armed = false;
};

/// A cooperative stop signal: explicit cancel() (sticky), an optional
/// Deadline, and an optional parent token (checked transitively). Shared by
/// address; the creator owns the storage and must outlive every checker —
/// the server guarantees this with its request barrier (a request's tasks
/// all complete before its ServiceResult, and therefore its token, is
/// destroyed).
class CancelToken {
public:
  CancelToken() = default;
  explicit CancelToken(Deadline D, const CancelToken *Parent = nullptr)
      : D(D), Parent(Parent) {}

  /// Sticky; safe from any thread. (rapd's signal handlers only raise a
  /// flag; its serve loop sees the flag on its tick and calls this when the
  /// drain window runs out.)
  void cancel() { Cancelled.store(true, std::memory_order_release); }

  /// Explicit cancellation, own or inherited.
  bool cancelled() const {
    if (Cancelled.load(std::memory_order_acquire))
      return true;
    return Parent && Parent->cancelled();
  }

  /// Deadline expiry, own or inherited (a parent's deadline bounds its
  /// children).
  bool expired() const {
    if (D.expired())
      return true;
    return Parent && Parent->expired();
  }

  /// The one check hot paths make at round boundaries.
  bool stopRequested() const { return cancelled() || expired(); }

  const Deadline &deadline() const { return D; }

  /// Stable machine-readable reason, aligned with the protocol's response
  /// kinds. Deadline expiry wins over explicit cancel: a request that ran
  /// out of its own budget reports "deadline-exceeded" even if a drain
  /// cancel also arrived. Empty string when no stop was requested.
  const char *reason() const {
    if (expired())
      return "deadline-exceeded";
    if (cancelled())
      return "cancelled";
    return "";
  }

private:
  std::atomic<bool> Cancelled{false};
  Deadline D;
  const CancelToken *Parent = nullptr;
};

} // namespace rap

#endif // RAP_SUPPORT_DEADLINE_H
