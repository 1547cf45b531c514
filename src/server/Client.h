//===- server/Client.h - Retrying rapd client -------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A rapd-v1 client for the rapc operator tool: connect/request timeouts,
/// retry with exponential backoff, reconnect-and-resend when a connection
/// breaks (a server that was restarted by hand, say), and honored
/// "overloaded" retry_after_ms hints. It reads, writes and connects with
/// the same wire code as the server (server/Wire.h): its LineReader's stop
/// predicate is the request's time budget, and a line the server cut off
/// by closing counts as a broken connection.
///
/// Exactly-once is a *client-visible* property here: call() returns exactly
/// one response per request, no matter how many times the transport had to
/// resend under the hood. Resending is safe because compilation is pure and
/// deterministic — equal request lines name the same answer on every server
/// that ever computes it, so a retry can only ever observe the
/// byte-identical response it missed. The client validates the "id" echo
/// on every response; a mismatch (a torn half-response from a killed
/// server, say) forces a reconnect-and-resend rather than handing the
/// caller someone else's answer.
///
/// The {"rapd":"v1",...} startup banner is detected structurally (an object
/// carrying a "rapd" key) and skipped wherever it appears, so the client
/// works against servers with and without --no-hello and across reconnects
/// mid-conversation.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_CLIENT_H
#define RAP_SERVER_CLIENT_H

#include "server/Wire.h"
#include "support/Json.h"

#include <string>

namespace rap {
namespace server {

struct ClientConfig {
  /// Unix-domain socket path of the rapd to talk to.
  std::string SocketPath;
  /// Budget for one connect attempt. AF_UNIX connects fail fast; this
  /// bounds the wait for room in a live listener's full backlog.
  unsigned ConnectTimeoutMs = server::ConnectTimeoutMs;
  /// Total wall-clock budget for one call(): send + wait + every retry,
  /// reconnect, and overloaded backoff inside it. 0 = no budget.
  unsigned RequestTimeoutMs = 30000;
  /// Resend attempts before a call gives up (reconnects and overloaded
  /// rejections both count).
  unsigned MaxRetries = 50;
  /// Reconnect backoff: doubles per consecutive failure, capped.
  unsigned BackoffMs = 20;
  unsigned BackoffMaxMs = 1000;
};

class Client {
public:
  explicit Client(const ClientConfig &Config);
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Sends \p RequestLine (one NDJSON request, no trailing newline) and
  /// returns exactly one parsed response in \p Response. Retries
  /// transparently across overload rejections, timeouts and torn
  /// connections. Returns false only when the retry or time budget is
  /// exhausted, with \p Error describing the last failure — protocol-level
  /// errors (kind "compile-error", "bad-request", ...) are *successful*
  /// calls whose response says ok:false.
  bool call(const std::string &RequestLine, json::Value &Response,
            std::string &Error);

  /// Convenience: serialize \p Request compactly and call().
  bool call(const json::Value &Request, json::Value &Response,
            std::string &Error);

  void close();

private:
  /// Connects (with timeout) if not connected. False + Error on failure.
  bool ensureConnected(std::string &Error);

  ClientConfig Config;
  int Fd = -1;
  LineReader Reader;
};

} // namespace server
} // namespace rap

#endif // RAP_SERVER_CLIENT_H
