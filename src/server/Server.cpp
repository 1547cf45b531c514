//===- server/Server.cpp - rapd serving loops -------------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "server/Wire.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

const ServiceConfig &Server::patchedServiceConfig() {
  Config.Service.StopToken = &DrainKill;
  return Config.Service;
}

Server::Server(const ServerConfig &Config)
    : Config(Config), Service(patchedServiceConfig()) {}

ServiceCounters Server::counters() const {
  ServiceCounters C = Service.counters();
  C.RejectedRequests = Rejected.load(std::memory_order_relaxed);
  C.DrainMs = Config.DrainMs;
  C.DrainDegraded = drainDegraded();
  return C;
}

AllocStats Server::totalAllocStats() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return TotalAlloc;
}

//===----------------------------------------------------------------------===//
// Serving core
//===----------------------------------------------------------------------===//

json::Value Server::dispatch(const json::Value &Parsed) {
  Request Req;
  std::string Error;
  if (!parseRequest(Parsed, Req, Error))
    return errorResponse(Req, "bad-request", Error);
  // Chaos site `parse`: a fault during request dispatch degrades to a
  // structured response — the client still gets exactly one well-formed
  // answer for the line, which is the invariant the soak harness asserts.
  if (Service.chaosFires(FaultSite::ProtocolParse))
    return errorResponse(Req, "internal-error",
                         "fault injected at site 'parse'");
  // Chaos site `shutdown`: the stop flag flips mid-request, as if a signal
  // landed between parse and compile. This request still answers; the
  // serve loops stop admitting new lines afterwards and the drain begins.
  if (Service.chaosFires(FaultSite::MidShutdown))
    Shutdown.store(true, std::memory_order_release);
  try {
    switch (Req.Op) {
    case RequestOp::Ping:
      return ackResponse(Req, "pong");
    case RequestOp::Shutdown:
      Shutdown.store(true, std::memory_order_release);
      return ackResponse(Req, "shutting-down");
    case RequestOp::Stats:
      return statsResponse(Req, counters());
    case RequestOp::Compile: {
      ServiceResult Res = Service.compile(Req.Source, Req.Options);
      if (Res.Status == ServiceStatus::DeadlineExceeded ||
          Res.Status == ServiceStatus::Cancelled)
        return errorResponse(Req, serviceStatusName(Res.Status), Res.Errors);
      if (Res.Ok) {
        std::lock_guard<std::mutex> Lock(StatsM);
        TotalAlloc.accumulate(Res.Alloc);
      }
      return compileResponse(Req, Res);
    }
    }
    return errorResponse(Req, "bad-request", "unreachable");
  } catch (const std::exception &E) {
    // The compile pipeline contains its own failures; anything that leaks
    // to here still becomes a structured response, never a dead connection.
    return errorResponse(Req, "internal-error",
                         std::string("uncaught: ") + E.what());
  }
}

std::string Server::handleLine(const std::string &Line) {
  // In-flight accounting for the drain window: a line is "admitted" the
  // moment a connection hands it to us, and owed exactly one response.
  struct ActiveScope {
    std::atomic<unsigned> &C;
    explicit ActiveScope(std::atomic<unsigned> &C) : C(C) {
      C.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ActiveScope() { C.fetch_sub(1, std::memory_order_acq_rel); }
  } Scope(ActiveRequests);

  // The line cap answers before admission: an oversized line is a protocol
  // violation ("bad-request", permanent), not a load condition
  // ("overloaded", retry). The line reader already cut the line to cap+1
  // bytes, so this check costs no unbounded buffering.
  if (Line.size() > Config.MaxLineBytes) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    Request Anon;
    return errorResponse(Anon, "bad-request",
                         "line of " + std::to_string(Line.size()) +
                             "+ bytes exceeds max-line-bytes (" +
                             std::to_string(Config.MaxLineBytes) + ")")
        .str();
  }

  // Admission control happens on raw bytes, before any parsing: a flood of
  // oversized lines costs the server one size check each, nothing more.
  size_t Charge = Line.size();
  size_t Current = InflightBytes.fetch_add(Charge, std::memory_order_acq_rel);
  if (Current + Charge > Config.MaxInflightBytes) {
    InflightBytes.fetch_sub(Charge, std::memory_order_acq_rel);
    Rejected.fetch_add(1, std::memory_order_relaxed);
    Request Anon;
    return overloadedResponse(Anon, Config.RetryAfterMs).str();
  }

  std::string Out;
  try {
    json::Value Parsed;
    std::string Error;
    if (!json::parse(Line, Parsed, &Error)) {
      Request Anon;
      Out = errorResponse(Anon, "bad-request", "unparseable JSON: " + Error)
                .str();
    } else if (Parsed.isArray()) {
      // Batch: one admission unit, responses in request order.
      json::Array Responses;
      for (const json::Value &Item : Parsed.asArray())
        Responses.push_back(dispatch(Item));
      Out = json::Value(std::move(Responses)).str();
    } else {
      Out = dispatch(Parsed).str();
    }
  } catch (const std::exception &E) {
    Request Anon;
    Out = errorResponse(Anon, "internal-error",
                        std::string("uncaught: ") + E.what())
              .str();
  }
  InflightBytes.fetch_sub(Charge, std::memory_order_acq_rel);
  return Out;
}


//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

bool Server::serveConnection(int InFd, int OutFd) {
  if (Config.Hello &&
      !writeAll(OutFd, helloBanner(Service.shards(), Service.cacheBudgetBytes(),
                                   Config.MaxInflightBytes)
                               .str() +
                           "\n"))
    return false;
  LineReader Reader(InFd, Config.MaxLineBytes);
  std::string Line;
  // Admission is the read: once the shutdown flag is up, no further line is
  // taken off this connection, but the line being served right now finishes
  // (or is cancelled by the drain) and its reply is written — the replies
  // on a connection answer a prefix of the requests sent on it.
  while (!shutdownRequested()) {
    LineReader::Result R =
        Reader.next(Line, [this] { return shutdownRequested(); });
    if (R != LineReader::Line && R != LineReader::Tail)
      break;
    if (!Line.empty() && !writeAll(OutFd, handleLine(Line) + "\n"))
      return false;
  }
  return true;
}

int Server::serveStdio(int InFd, int OutFd) { return serveLoop(InFd, OutFd); }

int Server::serveSocket(const std::string &Path) {
  sockaddr_un Addr;
  if (!unixAddress(Path, Addr)) {
    std::fprintf(stderr, "rapd: socket path too long: %s\n", Path.c_str());
    return 1;
  }
  // Stale-socket handling: a leftover path from a crashed rapd must not
  // block restart, but blindly unlinking would hijack the clients of a
  // *live* server (two rapds started on one path). Probe first: only a
  // refused connect (ECONNREFUSED) proves the listener dead, and only then
  // is the file unlinked and rebound. A probe that connects, one that times
  // out waiting in a full backlog, and any other failure (EACCES, ...)
  // refuse to start with a stable machine-readable token.
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    std::string Why;
    if (!S_ISSOCK(St.st_mode)) {
      Why = "exists and is not a socket";
    } else if (int Probe = connectUnix(Path, ConnectTimeoutMs); Probe >= 0) {
      ::close(Probe);
      Why = "a live server is accepting on this socket";
    } else if (errno != ECONNREFUSED && errno != ENOENT) {
      Why = std::string("probe failed (") + std::strerror(errno) + ")";
    }
    if (!Why.empty()) {
      std::fprintf(stderr,
                   "rapd: error kind=socket-in-use path=%s: %s; refusing to "
                   "unlink\n",
                   Path.c_str(), Why.c_str());
      return 1;
    }
    ::unlink(Path.c_str()); // probed dead: a remnant of a crashed run
  }
  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listen < 0 ||
      ::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Listen, 64) < 0) {
    std::perror("rapd: socket/bind/listen");
    if (Listen >= 0)
      ::close(Listen);
    return 1;
  }
  return serveLoop(-1, -1, Listen, Path);
}

int Server::serveLoop(int InFd, int OutFd, int Listen,
                      const std::string &Path) {
  // A connection's thread raises Done as its last act, and the loop joins
  // such threads every tick: the server holds a thread per open connection,
  // not per connection it ever accepted. List nodes never move, so each
  // thread's reference to its node stays valid.
  struct Connection {
    std::atomic<bool> Done{false};
    bool WriteFailed = false;
    std::thread T;
  };
  std::list<Connection> Connections;
  bool WriteFailed = false;
  auto open = [&](int In, int Out, bool Accepted) {
    Connection &C = Connections.emplace_back();
    C.T = std::thread([this, In, Out, Accepted, &C] {
      C.WriteFailed = !serveConnection(In, Out);
      if (Accepted)
        ::close(In);
      C.Done.store(true, std::memory_order_release);
    });
  };
  auto reap = [&](bool All) {
    Connections.remove_if([&](Connection &C) {
      if (!All && !C.Done.load(std::memory_order_acquire))
        return false;
      C.T.join();
      WriteFailed |= C.WriteFailed;
      return true;
    });
  };

  if (Listen < 0)
    open(InFd, OutFd, false);
  // Serving: stdio ends with its one connection (EOF); a socket accepts
  // until shutdown. Either stops admitting within one tick of a shutdown
  // request (op, SIGTERM, SIGINT), as does every connection's reader.
  for (;;) {
    reap(false);
    if (shutdownRequested() || (Listen < 0 && Connections.empty()))
      break;
    if (Listen < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(TickMs));
      continue;
    }
    pollfd P{Listen, POLLIN, 0};
    if (::poll(&P, 1, TickMs) <= 0)
      continue; // timeout or EINTR: re-check the shutdown flag
    int Conn = ::accept(Listen, nullptr, nullptr);
    if (Conn < 0)
      continue;
    // Bound writes so a client that stops reading cannot wedge its
    // connection's thread past any drain deadline.
    timeval SendTimeout{5, 0};
    ::setsockopt(Conn, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    open(Conn, Conn, true);
  }
  if (Listen >= 0) {
    ::close(Listen);
    ::unlink(Path.c_str());
  }

  // The drain window: in-flight requests get DrainMs to finish. If it
  // closes with work still running, cancel the drain-kill token — every
  // in-flight request aborts at its next cooperative check and answers
  // "cancelled" — and mark the drain degraded, so the serve call exits 3.
  if (shutdownRequested()) {
    const Deadline Window = Deadline::afterMs(Config.DrainMs);
    while (ActiveRequests.load(std::memory_order_acquire) > 0 &&
           !Window.expired())
      std::this_thread::sleep_for(std::min<Deadline::Clock::duration>(
          std::chrono::milliseconds(TickMs), Window.remaining()));
    if (ActiveRequests.load(std::memory_order_acquire) > 0) {
      DrainDegradedFlag.store(true, std::memory_order_release);
      DrainKill.cancel();
    }
  }
  reap(true);
  if (Listen < 0 && WriteFailed)
    return 1;
  return drainDegraded() ? 3 : 0;
}
