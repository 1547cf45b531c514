//===- server/Server.h - rapd serving loops ---------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer over CompileService + Protocol: a line-oriented
/// serving core (handleLine) served over two transports, stdin/stdout
/// NDJSON and a Unix-domain stream socket. Both serve through one
/// connection loop (serveConnection: banner, read a line, handleLine, write
/// the reply) over the wire code of server/Wire.h; stdin/stdout is one
/// connection and each accepted socket another, each on its own thread.
/// Both transports share the service, the cache, the shard pool, and the
/// admission control:
///
///   * Backpressure. Admission charges each request line's bytes against
///     MaxInflightBytes before parsing; over budget, the line is answered
///     with kind "overloaded" + retry_after_ms and never reaches the
///     compiler. The charge is released when the response is written.
///     Bounded memory is part of the crash-free contract — a flood of
///     megabyte sources degrades to rejections, not OOM.
///   * Line caps. A single line longer than MaxLineBytes is answered with a
///     stable "bad-request". The reader keeps MaxLineBytes + 1 bytes of it
///     and drops the rest as it arrives, on both transports, so a
///     newline-less flood costs bounded memory too.
///   * Batches. A line carrying a JSON array is served as one admission
///     unit: responses come back as an array in request order.
///
/// Crash-only serving (DESIGN.md §13) adds graceful drain: a shutdown op,
/// SIGTERM, or SIGINT (the latter two via the StopFlag the rapd main
/// installs) stops every connection from admitting new lines within one
/// poll tick; in-flight requests get DrainMs to finish, after which the
/// serve loop cancels the DrainKill token — the parent of every request
/// token — and every remaining compilation aborts at its next cooperative
/// check, answering "cancelled". Every admitted line gets exactly one
/// well-formed response, drained or not. The serve calls return 0 on a
/// clean drain and 3 when the drain deadline had to cancel work (the
/// degraded-exit convention rapcc established).
///
/// Determinism: responses embed no timestamps or thread ids, so a request
/// trace replayed against any shard count yields byte-identical response
/// lines (the server_smoke script and ctest both assert this).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_SERVER_H
#define RAP_SERVER_SERVER_H

#include "server/CompileService.h"
#include "server/Protocol.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace rap {
namespace server {

struct ServerConfig {
  ServiceConfig Service;
  /// Admission budget: total request bytes being parsed/compiled at once.
  size_t MaxInflightBytes = 64u << 20;
  /// Longest single NDJSON line the server accepts; longer lines answer
  /// "bad-request" without being parsed, and on either transport without
  /// being buffered whole.
  size_t MaxLineBytes = 8u << 20;
  /// The retry hint sent with "overloaded" rejections.
  unsigned RetryAfterMs = 50;
  /// Grace window between a shutdown request and the drain-kill cancel of
  /// whatever is still in flight.
  unsigned DrainMs = 2000;
  /// Print the {"rapd":"v1",...} banner before serving (both transports).
  bool Hello = true;
  /// Stop flag (rapd's SIGTERM/SIGINT handler raises it). Every connection
  /// and the serve loop poll it via shutdownRequested(); null =
  /// protocol-only shutdown. A lock-free atomic is what a signal handler
  /// may write and what any thread may read.
  const std::atomic<bool> *StopFlag = nullptr;
};

class Server {
public:
  explicit Server(const ServerConfig &Config);

  /// Serves NDJSON over \p InFd/\p OutFd, as one connection, until EOF or
  /// a shutdown request. Returns the process exit code (0 clean drain,
  /// 1 a reply could not be written, 3 drain deadline hit with work still
  /// in flight).
  int serveStdio(int InFd = 0, int OutFd = 1);

  /// Binds \p Path and serves until a shutdown request. An existing socket
  /// at \p Path is probed first with a connect bounded by ConnectTimeoutMs
  /// (server/Wire.h): unlinked and rebound only if refused (ECONNREFUSED);
  /// a live server, a probe that times out in a full backlog, or any other
  /// failure refuses with a `socket-in-use` error and exit code 1 instead
  /// of hijacking it. One thread per connection, joined by the serve loop
  /// once it finishes. Exit code 0 or 3, as for serveStdio.
  int serveSocket(const std::string &Path);

  /// One request line -> one response line (no trailing newline). Handles
  /// the line cap, admission, batch splitting, parsing, and dispatch.
  /// Thread-safe; never throws (internal failures answer "internal-error").
  std::string handleLine(const std::string &Line);

  /// Shutdown op received, or the installed signal flag flipped.
  bool shutdownRequested() const {
    if (Shutdown.load(std::memory_order_acquire))
      return true;
    return Config.StopFlag &&
           Config.StopFlag->load(std::memory_order_relaxed);
  }

  /// True once the drain deadline passed with requests still in flight
  /// (the serve loop then exits 3).
  bool drainDegraded() const {
    return DrainDegradedFlag.load(std::memory_order_acquire);
  }

  CompileService &service() { return Service; }
  /// The service's counters plus the transport layer's: rejected lines,
  /// the drain window and whether the drain had to cancel work. The `stats`
  /// op and rapd --stats both render this record.
  ServiceCounters counters() const;
  /// Allocation ledger aggregated over every request served (for the final
  /// rap-stats-v1 report).
  AllocStats totalAllocStats() const;

private:
  json::Value dispatch(const json::Value &Parsed);
  /// Wires DrainKill in as the service's stop token (must run after
  /// DrainKill exists, hence the helper called from the init list).
  const ServiceConfig &patchedServiceConfig();
  /// One connection: the banner, then a line read, handleLine, the reply
  /// written, until EOF or shutdown. False when a write failed.
  bool serveConnection(int InFd, int OutFd);
  /// The serve loop of one serve*() call. Stdio (\p Listen < 0) serves
  /// \p InFd/\p OutFd as its one connection; a socket accepts on \p
  /// Listen, and closes it and unlinks \p Path once shutdown is requested.
  /// Each tick joins finished connections; after a shutdown request the
  /// loop runs the drain window, then joins every connection.
  int serveLoop(int InFd, int OutFd, int Listen = -1,
                const std::string &Path = "");

  ServerConfig Config;
  /// Parent of every request token: cancelled exactly once, by the serve
  /// loop, when the drain deadline passes. Declared before Service so
  /// its address is valid when the service config is patched.
  CancelToken DrainKill;
  CompileService Service;
  std::atomic<uint64_t> Rejected{0};
  std::atomic<size_t> InflightBytes{0};
  std::atomic<bool> Shutdown{false};
  std::atomic<unsigned> ActiveRequests{0};
  std::atomic<bool> DrainDegradedFlag{false};
  mutable std::mutex StatsM;
  AllocStats TotalAlloc;
};

} // namespace server
} // namespace rap

#endif // RAP_SERVER_SERVER_H
