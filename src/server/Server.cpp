//===- server/Server.cpp - rapd serving loops -------------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <istream>
#include <list>
#include <ostream>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

const ServiceConfig &Server::patchedServiceConfig() {
  Config.Service.StopToken = &DrainKill;
  return Config.Service;
}

Server::Server(const ServerConfig &Config)
    : Config(Config), Service(patchedServiceConfig()),
      Chaos(this->Config.Service.Chaos.empty() ? envFaultPlan()
                                               : this->Config.Service.Chaos,
            std::string()) {}

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

bool Server::chaosFires(FaultSite S) {
  std::lock_guard<std::mutex> Lock(ChaosM);
  return Chaos.fires(S);
}

//===----------------------------------------------------------------------===//
// Drain watcher
//===----------------------------------------------------------------------===//

Server::DrainWatcher::DrainWatcher(Server &S) : S(S) {
  T = std::thread([this] { run(); });
}

Server::DrainWatcher::~DrainWatcher() {
  {
    std::lock_guard<std::mutex> Lock(S.WatcherM);
    S.WatcherExit = true;
  }
  S.WatcherCV.notify_all();
  if (T.joinable())
    T.join();
  // Reset so a later serve*() call on the same Server gets a fresh watcher.
  std::lock_guard<std::mutex> Lock(S.WatcherM);
  S.WatcherExit = false;
}

void Server::DrainWatcher::run() {
  // Phase 1: park until the serve loop exits or a shutdown is requested.
  // The signal flag flips without a notify (handlers cannot notify), so the
  // wait polls at 20ms — plenty prompt against a DrainMs-scale window.
  {
    std::unique_lock<std::mutex> Lock(S.WatcherM);
    while (!S.WatcherExit && !S.shutdownRequested())
      S.WatcherCV.wait_for(Lock, std::chrono::milliseconds(20));
  }
  if (!S.shutdownRequested())
    return; // serve loop finished on its own (EOF): nothing to drain

  // Phase 2: the drain window. In-flight requests get DrainMs to finish;
  // new lines are no longer admitted (the serve loops check
  // shutdownRequested() before every read). If the window closes with work
  // still running, cancel the drain-kill token — every in-flight request
  // aborts at its next cooperative check and answers "cancelled" — and
  // mark the drain degraded so the serve loop exits 3.
  auto End = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(S.Config.DrainMs);
  while (std::chrono::steady_clock::now() < End &&
         S.ActiveRequests.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  if (S.ActiveRequests.load(std::memory_order_acquire) > 0) {
    S.DrainDegradedFlag.store(true, std::memory_order_release);
    S.DrainKill.cancel();
  }
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
  if (chaosFires(FaultSite::ProtocolParse))
    return errorResponse(Req, "internal-error",
                         "fault injected at site 'parse'");
  // Chaos site `shutdown`: the stop flag flips mid-request, as if a signal
  // landed between parse and compile. This request still answers; the
  // serve loops stop admitting new lines afterwards and the drain begins.
  if (chaosFires(FaultSite::MidShutdown))
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
  // In-flight accounting for the drain watcher: a line is "admitted" the
  // moment a serve loop hands it to us, and owed exactly one response.
  struct ActiveScope {
    std::atomic<unsigned> &C;
    explicit ActiveScope(std::atomic<unsigned> &C) : C(C) {
      C.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ActiveScope() { C.fetch_sub(1, std::memory_order_acq_rel); }
  } Scope(ActiveRequests);

  // The line cap answers before admission: an oversized line is a protocol
  // violation ("bad-request", permanent), not a load condition
  // ("overloaded", retry). The socket reader already truncated the line to
  // cap+1 bytes, so this check costs no unbounded buffering.
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

int Server::serveStdio(std::istream &In, std::ostream &Out) {
  int Code;
  {
    DrainWatcher Drain(*this);
    if (Config.Hello)
      Out << helloBanner(Service.shards(), Service.cacheBudgetBytes(),
                         Config.MaxInflightBytes)
                 .str()
          << "\n"
          << std::flush;
    std::string Line;
    // A signal mid-getline relies on rapd installing its handlers without
    // SA_RESTART: the blocked read returns EINTR, the stream fails, and
    // the loop re-checks the flag. A signal mid-handleLine is the drain
    // watcher's department.
    while (!shutdownRequested() && std::getline(In, Line)) {
      if (Line.empty())
        continue;
      Out << handleLine(Line) << "\n" << std::flush;
    }
    Code = Out.good() ? 0 : 1;
  } // joins the watcher: drainDegraded() is final past this point
  if (Code == 0 && drainDegraded())
    Code = 3;
  return Code;
}

namespace {

/// Reads newline-delimited lines from \p Fd (no stdio buffering games: one
/// connection = one reader thread = one private buffer). poll()-based so a
/// drain is observed within one 50ms tick even on an idle connection, and
/// line-capped so a newline-less flood is truncated at Cap+1 bytes (enough
/// for the server's size check to answer bad-request) instead of buffered.
class LineReader {
public:
  LineReader(int Fd, size_t Cap) : Fd(Fd), Cap(Cap) {}

  /// Blocks until a full line is buffered, EOF (a final unterminated line
  /// is still delivered), or \p Stop returns true during an idle tick.
  template <typename StopFn> bool next(std::string &Line, StopFn &&Stop) {
    while (true) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line.assign(Buf, 0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      if (Eof) {
        if (Buf.empty())
          return false;
        Line.swap(Buf);
        Buf.clear();
        LineLen = 0;
        return true;
      }
      if (Stop())
        return false;
      pollfd P{};
      P.fd = Fd;
      P.events = POLLIN;
      int R = ::poll(&P, 1, 50);
      if (R == 0)
        continue; // timeout: re-check Stop
      if (R < 0) {
        if (errno == EINTR)
          continue;
        Eof = true;
        continue;
      }
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Eof = true;
        continue;
      }
      ingest(Chunk, static_cast<size_t>(N));
    }
  }

private:
  void ingest(const char *P, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      char C = P[I];
      if (Discarding) {
        // Past the cap: drop bytes until the line ends. The kept Cap+1-byte
        // prefix is the oversize witness handleLine answers bad-request to.
        if (C == '\n') {
          Buf.push_back('\n');
          Discarding = false;
          LineLen = 0;
        }
        continue;
      }
      Buf.push_back(C);
      if (C == '\n')
        LineLen = 0;
      else if (++LineLen > Cap)
        Discarding = true;
    }
  }

  int Fd;
  size_t Cap;
  std::string Buf;
  size_t LineLen = 0; ///< bytes of the unterminated tail line in Buf
  bool Discarding = false;
  bool Eof = false;
};

/// MSG_NOSIGNAL: a client that hung up before its reply was written costs
/// that connection an EPIPE, never the server a SIGPIPE.
bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false; // includes SO_SNDTIMEO expiry: a stuck client loses
                    // its connection, not the server a thread
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int Server::serveSocket(const std::string &Path) {
  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listen < 0) {
    std::perror("rapd: socket");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "rapd: socket path too long: %s\n", Path.c_str());
    ::close(Listen);
    return 1;
  }
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());

  // Stale-socket handling: a leftover path from a crashed rapd must not
  // block restart, but blindly unlinking would hijack the clients of a
  // *live* server (two rapds started on one path).
  // Probe first: if something answers the connect, refuse to start with a
  // stable machine-readable token; only a dead socket (ECONNREFUSED) is
  // unlinked and rebound.
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      std::fprintf(stderr,
                   "rapd: error kind=socket-in-use path=%s: exists and is "
                   "not a socket; refusing to unlink\n",
                   Path.c_str());
      ::close(Listen);
      return 1;
    }
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe >= 0) {
      int R = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr));
      int Err = errno;
      ::close(Probe);
      if (R == 0) {
        std::fprintf(stderr,
                     "rapd: error kind=socket-in-use path=%s: a live server "
                     "is accepting on this socket; refusing to unlink\n",
                     Path.c_str());
        ::close(Listen);
        return 1;
      }
      if (Err != ECONNREFUSED && Err != ENOENT) {
        // EACCES, EPERM, ...: we can't prove it's dead; don't steal it.
        std::fprintf(stderr,
                     "rapd: error kind=socket-in-use path=%s: probe failed "
                     "(%s); refusing to unlink\n",
                     Path.c_str(), std::strerror(Err));
        ::close(Listen);
        return 1;
      }
    }
    ::unlink(Path.c_str()); // probed dead: a remnant of a crashed run
  }
  if (::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Listen, 64) < 0) {
    std::perror("rapd: bind/listen");
    ::close(Listen);
    return 1;
  }

  {
    DrainWatcher Drain(*this);
    // A serving thread raises Done as its last act, and the accept loop
    // joins such threads every tick: the server holds a thread stack per
    // open connection, not per connection it ever accepted. List nodes
    // never move, so each thread's reference to its Done flag stays valid.
    struct Connection {
      std::atomic<bool> Done{false};
      std::thread T;
    };
    std::list<Connection> Connections;
    // poll()ed accept: a shutdown request (op, SIGTERM, SIGINT) stops
    // admission within one 50ms tick — no self-dial tricks needed.
    while (!shutdownRequested()) {
      Connections.remove_if([](Connection &C) {
        if (!C.Done.load(std::memory_order_acquire))
          return false;
        C.T.join();
        return true;
      });
      pollfd P{};
      P.fd = Listen;
      P.events = POLLIN;
      int R = ::poll(&P, 1, 50);
      if (R <= 0)
        continue; // timeout or EINTR: re-check the shutdown flag
      int Conn = ::accept(Listen, nullptr, nullptr);
      if (Conn < 0)
        continue;
      // Bound writes so a client that stops reading cannot wedge its
      // serving thread past any drain deadline.
      timeval SendTimeout{};
      SendTimeout.tv_sec = 5;
      ::setsockopt(Conn, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                   sizeof(SendTimeout));
      Connection &C = Connections.emplace_back();
      C.T = std::thread([this, Conn, &Done = C.Done] {
        if (Config.Hello)
          writeAll(Conn, helloBanner(Service.shards(),
                                     Service.cacheBudgetBytes(),
                                     Config.MaxInflightBytes)
                                 .str() +
                             "\n");
        LineReader Reader(Conn, Config.MaxLineBytes);
        std::string Line;
        // Admission is the read: once the shutdown flag is up, no further
        // line is taken off this connection, but the line being served
        // right now finishes (or is cancelled by the drain watcher) and
        // its response is written — responses per connection form a
        // contiguous prefix of the requests sent.
        while (!shutdownRequested() &&
               Reader.next(Line, [this] { return shutdownRequested(); })) {
          if (Line.empty())
            continue;
          if (!writeAll(Conn, handleLine(Line) + "\n"))
            break;
        }
        ::close(Conn);
        Done.store(true, std::memory_order_release);
      });
    }
    ::close(Listen);
    ::unlink(Path.c_str());
    for (Connection &C : Connections)
      C.T.join();
  } // joins the watcher: drainDegraded() is final past this point
  return drainDegraded() ? 3 : 0;
}
