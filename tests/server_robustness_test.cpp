//===- tests/server_robustness_test.cpp - crash-only serving ----------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-only serving layer (DESIGN.md §13), bottom-up:
///
///  * Deadline / CancelToken — expiry, sticky cancel, parent chaining, and
///    the deadline-wins reason() contract;
///  * checkAllocBudget + the allocators — a stopped token aborts allocation
///    with the matching AllocError kind at the next round boundary;
///  * CompileService — deadline_ms answers deadline-exceeded, a drain
///    cancel answers cancelled, and aborted requests insert NOTHING into
///    the cache (the determinism contract under wall-clock races);
///  * ShardPool submission racing the barrier — deterministic
///    interleavings built from cancel-token gates and single-shard FIFO
///    order, never sleeps;
///  * the ShardPool watchdog — a worker that ignores its token trips the
///    watchdog, degrades the shard, and the shard recovers on completion;
///  * Server — the NDJSON line cap, the new stats counters, and graceful
///    drain end-to-end over serveStdio (clean exit 0, degraded exit 3,
///    signal-flag admission stop) driven by the deterministic mid-request
///    shutdown chaos site rather than real signals;
///  * serveSocket — a client that hangs up before its reply is written
///    costs its connection, never the server process.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"

#include "gtest/gtest.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

namespace {

/// Spin until \p Done returns true or ~5s pass. The gates these tests wait
/// on are set by running threads, so this terminates promptly; the bound
/// only exists so a regression fails instead of hanging CTest.
template <typename Fn> bool spinUntil(Fn &&Done) {
  auto End = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!Done()) {
    if (std::chrono::steady_clock::now() > End)
      return false;
    std::this_thread::yield();
  }
  return true;
}

/// A module heavy enough that cold allocation takes well over the tight
/// deadlines used below (many simultaneously-live values, nested control
/// flow, repeated \p N times as independent functions).
std::string heavyModule(unsigned N) {
  std::string S;
  for (unsigned I = 0; I != N; ++I) {
    char Buf[768];
    std::snprintf(Buf, sizeof(Buf),
                  "int hot%u(int n) {\n"
                  "  int a = n + %u; int b = n * 3; int c = a - b;\n"
                  "  int d = a * b %% 9973; int e = c + d; int f = e * 2;\n"
                  "  for (int i = 0; i < n; i = i + 1) {\n"
                  "    int t = a * i + b;\n"
                  "    if (t %% 2 == 0) { a = a + c * i; b = b + e; }\n"
                  "    else { d = d + f - t; e = e + a %% 367; }\n"
                  "    c = c + (a + b) %% 275; f = f + (c - d) * 3;\n"
                  "  }\n"
                  "  return a + b + c + d + e + f;\n"
                  "}\n",
                  I, I);
    S += Buf;
  }
  S += "int main() { int acc = 0;\n";
  for (unsigned I = 0; I != N; ++I)
    S += "  acc = acc + hot" + std::to_string(I) + "(7);\n";
  S += "  return acc; }\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Deadline / CancelToken.
//===----------------------------------------------------------------------===//

TEST(Deadline, UnarmedNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.armed());
  EXPECT_FALSE(D.expired());
  CancelToken T;
  EXPECT_FALSE(T.stopRequested());
  EXPECT_STREQ(T.reason(), "");
}

TEST(Deadline, PastDeadlineExpires) {
  Deadline D = Deadline::at(Deadline::Clock::now() -
                            std::chrono::milliseconds(1));
  EXPECT_TRUE(D.armed());
  EXPECT_TRUE(D.expired());
  CancelToken T(D);
  EXPECT_TRUE(T.stopRequested());
  EXPECT_STREQ(T.reason(), "deadline-exceeded");
}

TEST(Deadline, CancelIsSticky) {
  CancelToken T;
  T.cancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.stopRequested());
  EXPECT_STREQ(T.reason(), "cancelled");
}

TEST(Deadline, ParentCancelPropagates) {
  CancelToken Parent;
  CancelToken Child(Deadline(), &Parent);
  EXPECT_FALSE(Child.stopRequested());
  Parent.cancel();
  EXPECT_TRUE(Child.cancelled());
  EXPECT_TRUE(Child.stopRequested());
}

TEST(Deadline, ExpiryWinsOverCancelInReason) {
  CancelToken T(Deadline::at(Deadline::Clock::now() -
                             std::chrono::milliseconds(1)));
  T.cancel();
  EXPECT_STREQ(T.reason(), "deadline-exceeded");
}

//===----------------------------------------------------------------------===//
// The allocator round-boundary guard.
//===----------------------------------------------------------------------===//

AllocErrorKind allocUnderToken(const CancelToken &Token) {
  CompileOptions CO;
  CO.Allocator = AllocatorKind::None;
  CompileResult CR = compileMiniC(heavyModule(1), CO);
  EXPECT_TRUE(CR.ok()) << CR.Errors;
  AllocOptions Options;
  Options.K = 3;
  Options.Cancel = &Token;
  try {
    allocateRap(*CR.Prog->functions()[0], Options);
  } catch (const AllocError &E) {
    return E.kind();
  }
  return AllocErrorKind::Internal;
}

TEST(AllocBudget, CancelledTokenAbortsAllocation) {
  CancelToken T;
  T.cancel();
  EXPECT_EQ(allocUnderToken(T), AllocErrorKind::Cancelled);
}

TEST(AllocBudget, ExpiredDeadlineAbortsAllocation) {
  CancelToken T(Deadline::at(Deadline::Clock::now() -
                             std::chrono::milliseconds(1)));
  EXPECT_EQ(allocUnderToken(T), AllocErrorKind::DeadlineExceeded);
}

//===----------------------------------------------------------------------===//
// CompileService deadlines + cache hygiene.
//===----------------------------------------------------------------------===//

TEST(ServiceDeadline, TightDeadlineAnswersDeadlineExceeded) {
  ServiceConfig Config;
  Config.Shards = 2;
  CompileService Service(Config);
  RequestOptions Opts;
  Opts.K = 3;
  Opts.DeadlineMs = 1;
  ServiceResult Res = Service.compile(heavyModule(24), Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Status, ServiceStatus::DeadlineExceeded);
  EXPECT_EQ(std::string(serviceStatusName(Res.Status)), "deadline-exceeded");
  EXPECT_EQ(Service.counters().DeadlineExceeded, 1u);
}

TEST(ServiceDeadline, AbortedRequestInsertsNothingIntoTheCache) {
  ServiceConfig Config;
  Config.Shards = 2;
  CompileService Service(Config);
  std::string Source = heavyModule(24);
  RequestOptions Tight;
  Tight.K = 3;
  Tight.DeadlineMs = 1;
  ServiceResult Aborted = Service.compile(Source, Tight);
  ASSERT_FALSE(Aborted.Ok);

  // The follow-up compile of the same source must see a completely cold
  // cache: an aborted request may have *looked up* entries, never inserted
  // them, so deterministic replays are unaffected by wall-clock aborts.
  RequestOptions Free;
  Free.K = 3;
  ServiceResult Cold = Service.compile(Source, Free);
  ASSERT_TRUE(Cold.Ok) << Cold.Errors;
  EXPECT_EQ(Cold.CacheHits, 0u);

  // And the non-aborted compile DID insert: a third pass is all hits.
  ServiceResult Warm = Service.compile(Source, Free);
  ASSERT_TRUE(Warm.Ok) << Warm.Errors;
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.OutputHash, Cold.OutputHash);
}

TEST(ServiceDeadline, DrainTokenCancelsRequests) {
  CancelToken Drain;
  ServiceConfig Config;
  Config.Shards = 1;
  Config.StopToken = &Drain;
  CompileService Service(Config);
  Drain.cancel();
  RequestOptions Opts;
  Opts.K = 3;
  ServiceResult Res = Service.compile(heavyModule(2), Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Status, ServiceStatus::Cancelled);
  EXPECT_EQ(Service.counters().Cancelled, 1u);
}

//===----------------------------------------------------------------------===//
// ShardPool: submission racing the barrier, skip-on-stop, the watchdog.
//===----------------------------------------------------------------------===//

TEST(ShardPoolRaces, SubmissionRacesCompletionSafely) {
  // expect() everything up front, then let early tasks complete (and call
  // done()) while later submits are still in flight — the barrier must
  // neither release early nor lose a count.
  ShardPool Pool(4, WatchdogConfig{0, 0});
  TaskGroup Group;
  constexpr unsigned N = 200;
  Group.expect(N);
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I != N; ++I)
    Pool.submit(I, [&] { Ran.fetch_add(1, std::memory_order_relaxed); },
                &Group);
  Group.wait();
  EXPECT_EQ(Ran.load(), N);
  EXPECT_EQ(Pool.tasksRun(), N);
}

TEST(ShardPoolRaces, StoppedTokenSkipsQueuedTasksButReleasesBarrier) {
  ShardPool Pool(2, WatchdogConfig{0, 0});
  CancelToken Stopped;
  Stopped.cancel();
  TaskGroup Group;
  Group.expect(8);
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I != 8; ++I)
    Pool.submit(I, [&] { Ran.fetch_add(1, std::memory_order_relaxed); },
                &Group, &Stopped);
  Group.wait(); // must release even though nothing ran
  EXPECT_EQ(Ran.load(), 0u);
  EXPECT_EQ(Pool.tasksSkipped(), 8u);
  EXPECT_EQ(Pool.tasksRun(), 0u);
}

TEST(ShardPoolRaces, MidstreamCancelSkipsTheTail) {
  // One shard = FIFO order: the first task cancels the token the remaining
  // seven were submitted with, so the tail is deterministically skipped.
  ShardPool Pool(1, WatchdogConfig{0, 0});
  CancelToken Token;
  TaskGroup Group;
  Group.expect(8);
  // Hold the worker at the gate until every task is queued, so the cancel
  // is ordered before any of the tail dequeues.
  CancelToken AllQueued;
  Pool.submit(0, [&] {
    while (!AllQueued.cancelled())
      std::this_thread::yield();
    Token.cancel();
  }, &Group, nullptr);
  std::atomic<unsigned> Ran{0};
  for (unsigned I = 0; I != 7; ++I)
    Pool.submit(0, [&] { Ran.fetch_add(1, std::memory_order_relaxed); },
                &Group, &Token);
  AllQueued.cancel();
  Group.wait();
  EXPECT_EQ(Ran.load(), 0u);
  EXPECT_EQ(Pool.tasksSkipped(), 7u);
}

TEST(ShardPoolWatchdog, TripsOnTokenIgnoringTaskAndRecovers) {
  WatchdogConfig Watchdog;
  Watchdog.Factor = 1;
  Watchdog.PollMs = 1;
  ShardPool Pool(1, Watchdog);
  // The task's own deadline is short but safely past worker pickup (a
  // pre-expired token would be skipped, not run); the task then ignores it
  // (the failure mode the watchdog exists for) until we release it.
  CancelToken Wedged(Deadline::afterMs(20));
  CancelToken Release;
  TaskGroup Group;
  Group.expect(1);
  Pool.submit(0, [&] {
    while (!Release.cancelled())
      std::this_thread::yield();
  }, &Group, &Wedged);
  EXPECT_TRUE(spinUntil([&] { return Pool.watchdogTrips() >= 1; }));
  EXPECT_EQ(Pool.shardsDegraded(), 1u);
  Release.cancel();
  Group.wait();
  // Degradation is sticky only while the wedged task runs.
  EXPECT_TRUE(spinUntil([&] { return Pool.shardsDegraded() == 0; }));
  EXPECT_GE(Pool.watchdogTrips(), 1u);
}

//===----------------------------------------------------------------------===//
// Server: line cap, stats counters, deadline over the protocol, drain.
//===----------------------------------------------------------------------===//

TEST(ServerRobustness, OversizedLineAnswersBadRequest) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.MaxLineBytes = 128;
  Server S(Config);
  std::string Long = "{\"op\":\"ping\",\"id\":1,\"pad\":\"" +
                     std::string(256, 'x') + "\"}";
  std::string Out = S.handleLine(Long);
  EXPECT_NE(Out.find("\"ok\":false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"kind\":\"bad-request\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("max-line-bytes"), std::string::npos) << Out;
  // A line at the cap still serves.
  std::string Ping = "{\"op\":\"ping\",\"id\":2}";
  EXPECT_NE(S.handleLine(Ping).find("pong"), std::string::npos);
  EXPECT_EQ(S.counters().RejectedRequests, 1u);
}

TEST(ServerRobustness, StatsCarryCrashOnlyCounters) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.DrainMs = 1234;
  Server S(Config);
  std::string Out = S.handleLine("{\"op\":\"stats\",\"id\":9}");
  for (const char *Key :
       {"\"deadline_exceeded\"", "\"cancelled\"", "\"watchdog_trips\"",
        "\"shards_degraded\"", "\"chaos_injected\"", "\"drain_ms\":1234",
        "\"drain_degraded\":false"})
    EXPECT_NE(Out.find(Key), std::string::npos) << Key << " missing: " << Out;
}

TEST(ServerRobustness, DeadlineExceededOverTheProtocol) {
  ServerConfig Config;
  Config.Service.Shards = 2;
  Server S(Config);
  std::string Line =
      "{\"op\":\"compile\",\"id\":4,\"source\":" +
      json::Value(heavyModule(24)).str() +
      ",\"options\":{\"alloc\":\"rap\",\"k\":3,\"deadline_ms\":1}}";
  std::string Out = S.handleLine(Line);
  EXPECT_NE(Out.find("\"kind\":\"deadline-exceeded\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"id\":4"), std::string::npos) << Out;
}

TEST(ServerRobustness, BadDeadlineIsRejected) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Server S(Config);
  std::string Out = S.handleLine(
      "{\"op\":\"compile\",\"id\":5,\"source\":\"int main(){return 0;}\","
      "\"options\":{\"deadline_ms\":0}}");
  EXPECT_NE(Out.find("\"kind\":\"bad-request\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("deadline_ms"), std::string::npos) << Out;
}

TEST(ServerDrain, CleanDrainViaShutdownOpExitsZero) {
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Server S(Config);
  std::istringstream In("{\"op\":\"ping\",\"id\":1}\n"
                        "{\"op\":\"shutdown\",\"id\":2}\n"
                        "{\"op\":\"ping\",\"id\":3}\n");
  std::ostringstream Out;
  EXPECT_EQ(S.serveStdio(In, Out), 0);
  std::string Text = Out.str();
  EXPECT_NE(Text.find("pong"), std::string::npos);
  EXPECT_NE(Text.find("shutting-down"), std::string::npos);
  // The third line was never admitted: drain stops admission.
  EXPECT_EQ(Text.find("\"id\":3"), std::string::npos) << Text;
  EXPECT_FALSE(S.drainDegraded());
}

TEST(ServerDrain, SignalFlagStopsAdmissionBeforeServing) {
  static volatile std::sig_atomic_t Flag = 0;
  Flag = 1;
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Config.StopFlag = &Flag;
  Server S(Config);
  std::istringstream In("{\"op\":\"ping\",\"id\":1}\n");
  std::ostringstream Out;
  EXPECT_EQ(S.serveStdio(In, Out), 0);
  EXPECT_TRUE(Out.str().empty());
  Flag = 0;
}

TEST(ServerDrain, DrainDeadlineCancelsInflightAndExitsThree) {
  // Deterministic mid-request shutdown via the chaos sites: the first
  // dispatch flips the stop flag (as if SIGTERM landed mid-compile), the
  // first allocation task stalls for 500ms so the 25ms drain window passes
  // while the big compile is still running however fast the allocator is,
  // the drain watcher cancels it, and the request answers "cancelled" — no
  // response lost, exit code 3.
  ServerConfig Config;
  Config.Service.Shards = 2;
  Config.Hello = false;
  Config.DrainMs = 25;
  Config.Service.Chaos = FaultPlan::fromString("shutdown:1,stall:1");
  Config.Service.ChaosStallMs = 500;
  Server S(Config);
  std::istringstream In(
      "{\"op\":\"compile\",\"id\":1,\"source\":" +
      json::Value(heavyModule(48)).str() +
      ",\"options\":{\"alloc\":\"rap\",\"k\":3}}\n"
      "{\"op\":\"ping\",\"id\":2}\n");
  std::ostringstream Out;
  EXPECT_EQ(S.serveStdio(In, Out), 3);
  std::string Text = Out.str();
  EXPECT_NE(Text.find("\"id\":1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"kind\":\"cancelled\""), std::string::npos) << Text;
  EXPECT_EQ(Text.find("\"id\":2"), std::string::npos) << Text;
  EXPECT_TRUE(S.drainDegraded());
  EXPECT_GE(S.service().counters().Cancelled, 1u);
}

//===----------------------------------------------------------------------===//
// Server over a real socket.
//===----------------------------------------------------------------------===//

TEST(ServerSocket, ClientThatHangsUpBeforeItsReplyCostsOnlyItsConnection) {
  // A client sends a compile that takes tens of milliseconds and closes at
  // once, so the server writes that reply to a closed socket. The write
  // must fail with EPIPE, not raise SIGPIPE (which would end this whole
  // process): the server then answers a ping on a new connection, and a
  // shutdown op makes serveSocket return 0.
  static volatile std::sig_atomic_t Stop = 0;
  ServerConfig Config;
  Config.Service.Shards = 2;
  Config.Hello = false;
  Config.StopFlag = &Stop;
  Server S(Config);
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("rap_hangup_" + std::to_string(::getpid()) + ".sock"))
          .string();
  int Code = -1;
  std::thread Serving([&] { Code = S.serveSocket(Path); });
  // On an early exit from the test, stop the server before joining it.
  struct StopAndJoin {
    std::thread &T;
    ~StopAndJoin() {
      if (T.joinable()) {
        Stop = 1;
        T.join();
      }
    }
  } Guard{Serving};

  // Client retries its connect until the server has bound the path.
  ClientConfig CC;
  CC.SocketPath = Path;
  Client C(CC);
  auto kindOf = [&C](const std::string &Line) {
    json::Value Reply;
    std::string Error;
    EXPECT_TRUE(C.call(Line, Reply, Error)) << Error;
    return Reply["kind"].isString() ? Reply["kind"].asString() : Error;
  };
  ASSERT_EQ(kindOf("{\"op\":\"ping\",\"id\":1}"), "pong");

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  int Gone = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_EQ(
      ::connect(Gone, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  const std::string Line = "{\"op\":\"compile\",\"id\":2,\"source\":" +
                           json::Value(heavyModule(200)).str() +
                           ",\"options\":{\"alloc\":\"rap\",\"k\":3}}\n";
  ASSERT_EQ(::send(Gone, Line.data(), Line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Line.size()));
  ::close(Gone);

  // The server folds a compile's ledger in right before it writes the
  // reply, so the ping goes out around that failing write. serveSocket
  // joins the writing thread before it returns: the write lands inside
  // this test either way.
  EXPECT_TRUE(spinUntil([&] { return S.totalAllocStats().GraphBuilds > 0; }));
  C.close();
  EXPECT_EQ(kindOf("{\"op\":\"ping\",\"id\":3}"), "pong");
  EXPECT_EQ(kindOf("{\"op\":\"shutdown\",\"id\":4}"), "shutting-down");
  Serving.join();
  EXPECT_EQ(Code, 0);
}

} // namespace
