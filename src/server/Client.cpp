//===- server/Client.cpp - Retrying rapd client -----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
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
  RecvBuf.clear();
}

bool Client::ensureConnected(std::string &Error) {
  if (Fd >= 0)
    return true;
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Config.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Config.SocketPath;
    ::close(S);
    return false;
  }
  std::memcpy(Addr.sun_path, Config.SocketPath.c_str(),
              Config.SocketPath.size());

  // Non-blocking connect so a listener that exists but never accepts cannot
  // wedge the client past ConnectTimeoutMs. AF_UNIX usually resolves
  // immediately (success or ECONNREFUSED/ENOENT), making this cheap.
  int Flags = ::fcntl(S, F_GETFL, 0);
  ::fcntl(S, F_SETFL, Flags | O_NONBLOCK);
  int RC = ::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (RC != 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
    struct pollfd P;
    P.fd = S;
    P.events = POLLOUT;
    P.revents = 0;
    int PR = ::poll(&P, 1, static_cast<int>(Config.ConnectTimeoutMs));
    if (PR <= 0) {
      Error = "connect timeout after " +
              std::to_string(Config.ConnectTimeoutMs) + "ms: " +
              Config.SocketPath;
      ::close(S);
      return false;
    }
    int SockErr = 0;
    socklen_t Len = sizeof(SockErr);
    ::getsockopt(S, SOL_SOCKET, SO_ERROR, &SockErr, &Len);
    if (SockErr != 0) {
      Error = std::string("connect: ") + std::strerror(SockErr);
      ::close(S);
      return false;
    }
  } else if (RC != 0) {
    Error = std::string("connect: ") + std::strerror(errno);
    ::close(S);
    return false;
  }
  ::fcntl(S, F_SETFL, Flags); // back to blocking; reads poll() explicitly

  Fd = S;
  RecvBuf.clear();
  return true;
}

bool Client::sendAll(const std::string &Data, std::string &Error) {
  size_t Off = 0;
  while (Off != Data.size()) {
    // MSG_NOSIGNAL: a server killed mid-send must surface as EPIPE, not
    // SIGPIPE terminating the client.
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("send: ") + std::strerror(errno);
      close();
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Client::readLine(std::string &Line, int TimeoutMs, std::string &Error) {
  using Clock = std::chrono::steady_clock;
  auto Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    size_t NL = RecvBuf.find('\n');
    if (NL != std::string::npos) {
      Line.assign(RecvBuf, 0, NL);
      RecvBuf.erase(0, NL + 1);
      return true;
    }
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - Clock::now())
                    .count();
    if (Left <= 0) {
      Error = "response timeout after " + std::to_string(TimeoutMs) + "ms";
      close(); // a half-read line is useless; resend is the recovery
      return false;
    }
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int PR = ::poll(&P, 1, static_cast<int>(std::min<long long>(Left, 1000)));
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("poll: ") + std::strerror(errno);
      close();
      return false;
    }
    if (PR == 0)
      continue; // slice expired; re-check the deadline
    char Buf[4096];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("recv: ") + std::strerror(errno);
      close();
      return false;
    }
    if (N == 0) {
      Error = "connection closed by server";
      close();
      return false;
    }
    RecvBuf.append(Buf, static_cast<size_t>(N));
  }
}

bool Client::call(const json::Value &Request, json::Value &Response,
                  std::string &Error) {
  return call(Request.str(), Response, Error);
}

bool Client::call(const std::string &RequestLine, json::Value &Response,
                  std::string &Error) {
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  auto remainingMs = [&]() -> long long {
    if (Config.RequestTimeoutMs == 0)
      return 1u << 30; // effectively unbounded
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - Start)
                       .count();
    return static_cast<long long>(Config.RequestTimeoutMs) - Elapsed;
  };
  auto sleepBounded = [&](long long Ms) {
    Ms = std::min(Ms, std::max<long long>(remainingMs(), 0));
    if (Ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
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

  unsigned Attempt = 0;
  uint64_t Backoff = std::max(1u, Config.BackoffMs);
  std::string LastError = "no attempt made";
  for (;;) {
    if (Attempt > Config.MaxRetries) {
      Error = "retry budget exhausted (" + std::to_string(Config.MaxRetries) +
              "): " + LastError;
      return false;
    }
    if (remainingMs() <= 0) {
      Error = "request budget exhausted (" +
              std::to_string(Config.RequestTimeoutMs) + "ms): " + LastError;
      return false;
    }
    if (!ensureConnected(LastError)) {
      ++Attempt;
      sleepBounded(static_cast<long long>(Backoff));
      Backoff = std::min<uint64_t>(Backoff * 2, Config.BackoffMaxMs);
      continue;
    }
    if (!sendAll(RequestLine + "\n", LastError)) {
      ++Attempt;
      sleepBounded(static_cast<long long>(Backoff));
      Backoff = std::min<uint64_t>(Backoff * 2, Config.BackoffMaxMs);
      continue;
    }

    // Read until a non-banner line: a fresh connection (or a reconnect)
    // may greet us with {"rapd":"v1",...} first.
    json::Value Parsed;
    bool Got = false;
    for (;;) {
      long long Left = remainingMs();
      if (Left <= 0)
        break;
      std::string Line;
      if (!readLine(Line, static_cast<int>(std::min<long long>(Left, 1 << 30)),
                    LastError))
        break;
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
      ++Attempt;
      sleepBounded(static_cast<long long>(Backoff));
      Backoff = std::min<uint64_t>(Backoff * 2, Config.BackoffMaxMs);
      continue;
    }

    // Backpressure: honor the server's hint, then resend. The connection
    // stays up — overload is not a transport failure.
    if (Parsed.isObject() && Parsed["kind"].isString() &&
        Parsed["kind"].asString() == "overloaded") {
      long long Wait = Parsed["retry_after_ms"].isInt()
                           ? Parsed["retry_after_ms"].asInt()
                           : static_cast<long long>(Backoff);
      ++Attempt;
      sleepBounded(Wait);
      continue;
    }

    if (HasId &&
        !(Parsed.isObject() && Parsed["id"].isInt() &&
          Parsed["id"].asInt() == Id)) {
      LastError = "response id mismatch (expected " + std::to_string(Id) + ")";
      close();
      ++Attempt;
      sleepBounded(static_cast<long long>(Backoff));
      Backoff = std::min<uint64_t>(Backoff * 2, Config.BackoffMaxMs);
      continue;
    }

    Response = std::move(Parsed);
    return true;
  }
}
