//===- server/Client.cpp - Retrying rapd client -----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "support/Deadline.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include <unistd.h>

using namespace rap;
using namespace rap::server;

Client::Client(const ClientConfig &Config) : Config(Config) {}

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  // A torn connection's buffered bytes belong to a dead conversation.
  Reader = LineReader();
}

bool Client::ensureConnected(std::string &Error) {
  if (Fd >= 0)
    return true;
  Fd = connectUnix(Config.SocketPath, Config.ConnectTimeoutMs);
  if (Fd < 0) {
    Error = errno == ETIMEDOUT
                ? "connect timeout after " +
                      std::to_string(Config.ConnectTimeoutMs) +
                      "ms: " + Config.SocketPath
                : std::string("connect: ") + std::strerror(errno);
    return false;
  }
  Reader = LineReader(Fd);
  return true;
}

bool Client::call(const json::Value &Request, json::Value &Response,
                  std::string &Error) {
  return call(Request.str(), Response, Error);
}

bool Client::call(const std::string &RequestLine, json::Value &Response,
                  std::string &Error) {
  const Deadline Budget = Config.RequestTimeoutMs
                              ? Deadline::afterMs(Config.RequestTimeoutMs)
                              : Deadline();
  // Ms may come from the server (retry_after_ms): cap it before it becomes
  // a clock duration.
  auto sleepBounded = [&](long long Ms) {
    if (Ms > 0)
      std::this_thread::sleep_for(std::min<Deadline::Clock::duration>(
          std::chrono::milliseconds(std::min<long long>(Ms, MaxDeadlineMs)),
          Budget.remaining()));
  };
  unsigned Attempt = 0;
  uint64_t Backoff = std::max(1u, Config.BackoffMs);
  // A failed attempt: count it and wait a doubling, capped backoff.
  auto backOff = [&] {
    ++Attempt;
    sleepBounded(static_cast<long long>(Backoff));
    Backoff = std::min<uint64_t>(Backoff * 2, Config.BackoffMaxMs);
  };

  // The id echo is the cross-talk guard: a response must answer *this*
  // request. Batches (arrays) and id-less requests skip the check — the
  // request/response lockstep alone orders those.
  json::Value Req;
  bool HasId = false;
  int64_t Id = 0;
  if (json::parse(RequestLine, Req) && Req.isObject() && Req["id"].isInt()) {
    HasId = true;
    Id = Req["id"].asInt();
  }

  std::string LastError = "no attempt made";
  for (;;) {
    if (Attempt > Config.MaxRetries) {
      Error = "retry budget exhausted (" + std::to_string(Config.MaxRetries) +
              "): " + LastError;
      return false;
    }
    if (Budget.expired()) {
      Error = "request budget exhausted (" +
              std::to_string(Config.RequestTimeoutMs) + "ms): " + LastError;
      return false;
    }
    if (!ensureConnected(LastError)) {
      backOff();
      continue;
    }
    if (!writeAll(Fd, RequestLine + "\n")) {
      LastError = std::string("send: ") + std::strerror(errno);
      close();
      backOff();
      continue;
    }

    // Read until a non-banner line: a fresh connection (or a reconnect)
    // may greet us with {"rapd":"v1",...} first. A line the server cut off
    // by closing is useless: resend is the recovery.
    json::Value Parsed;
    bool Got = false;
    for (;;) {
      std::string Line;
      LineReader::Result R =
          Reader.next(Line, [&] { return Budget.expired(); });
      if (R != LineReader::Line) {
        LastError = R == LineReader::Stopped
                        ? "response timeout after " +
                              std::to_string(Config.RequestTimeoutMs) + "ms"
                        : "connection closed by server";
        close();
        break;
      }
      std::string ParseErr;
      if (!json::parse(Line, Parsed, &ParseErr)) {
        // A torn line from a killed server; the connection is poisoned.
        LastError = "unparseable response (" + ParseErr + ")";
        close();
        break;
      }
      if (Parsed.isObject() && Parsed.has("rapd"))
        continue;
      Got = true;
      break;
    }
    if (!Got) {
      backOff();
      continue;
    }

    // Backpressure: honor the server's hint, then resend. The connection
    // stays up — overload is not a transport failure.
    if (Parsed.isObject() && Parsed["kind"].isString() &&
        Parsed["kind"].asString() == "overloaded") {
      long long Wait = Parsed["retry_after_ms"].isInt()
                           ? Parsed["retry_after_ms"].asInt()
                           : static_cast<long long>(Backoff);
      LastError = "overloaded";
      ++Attempt;
      sleepBounded(Wait);
      continue;
    }

    if (HasId &&
        !(Parsed.isObject() && Parsed["id"].isInt() &&
          Parsed["id"].asInt() == Id)) {
      LastError = "response id mismatch (expected " + std::to_string(Id) + ")";
      close();
      backOff();
      continue;
    }

    Response = std::move(Parsed);
    return true;
  }
}
