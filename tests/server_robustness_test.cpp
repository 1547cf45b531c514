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
///    order, never sleeps — and several threads waking an idle pool with
///    thousands of tasks, none of them lost;
///  * the ShardPool watchdog — a worker that ignores its token trips the
///    watchdog, degrades the shard, and the shard recovers on completion;
///    an overstay nobody reads counts as one trip when the task finishes;
///  * Server — the NDJSON line cap, the new stats counters, and graceful
///    drain end-to-end over serveStdio on pipes (clean exit 0, degraded
///    exit 3, stop-flag admission stop, an idle serve that stops within a
///    tick of the flag) driven by the deterministic mid-request shutdown
///    chaos site rather than real signals; the line cap applied while a
///    stdio line is read;
///  * serveSocket — a client that hangs up before its reply is written
///    costs its connection, never the server process; a stale-socket probe
///    that times out in a live listener's full backlog refuses to start.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"
#include "server/Wire.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
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

/// Serves \p Input through serveStdio over two pipes, the way rapd serves
/// its stdin and stdout, and returns everything the server wrote; \p Code
/// gets serveStdio's exit code.
std::string serveOverPipes(Server &S, const std::string &Input, int &Code) {
  int In[2], Out[2];
  EXPECT_EQ(::pipe(In), 0);
  EXPECT_EQ(::pipe(Out), 0);
  std::thread Writer([&] {
    for (size_t Off = 0; Off < Input.size();) {
      ssize_t N = ::write(In[1], Input.data() + Off, Input.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(In[1]);
  });
  std::string Output;
  std::thread Reader([&] {
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Out[0], Buf, sizeof(Buf))) > 0)
      Output.append(Buf, static_cast<size_t>(N));
  });
  Code = S.serveStdio(In[0], Out[1]);
  ::close(Out[1]);
  Reader.join();
  Writer.join();
  ::close(In[0]);
  ::close(Out[0]);
  return Output;
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
  ShardPool Pool(4, WatchdogConfig{0});
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
  ShardPool Pool(2, WatchdogConfig{0});
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
  ShardPool Pool(1, WatchdogConfig{0});
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

TEST(ShardPoolRaces, SubmittersWakeAnIdlePoolForEveryTask) {
  // Four threads submit 4,000 tasks in batches of 4, each batch waiting on
  // its own TaskGroup, so the workers park and wake again between batches.
  // A lost wakeup strands a batch and its submitter.
  ShardPool Pool(4, WatchdogConfig{0});
  const Deadline Idle = Deadline::afterMs(20); // let every worker park
  while (!Idle.expired())
    std::this_thread::yield();
  constexpr unsigned Threads = 4, Batches = 250, PerBatch = 4;
  std::atomic<unsigned> Ran{0}, Released{0};
  std::vector<std::thread> Submitters;
  for (unsigned T = 0; T != Threads; ++T)
    Submitters.emplace_back([&, T] {
      for (unsigned B = 0; B != Batches; ++B) {
        TaskGroup Group;
        Group.expect(PerBatch);
        for (unsigned I = 0; I != PerBatch; ++I)
          Pool.submit(T + I,
                      [&] { Ran.fetch_add(1, std::memory_order_relaxed); },
                      &Group);
        Group.wait();
        Released.fetch_add(1);
      }
    });
  bool AllReleased =
      spinUntil([&] { return Released.load() == Threads * Batches; });
  EXPECT_TRUE(AllReleased) << Released.load() << " batches released";
  while (Released.load() != Threads * Batches) // unstrand them to join
    Pool.submit(0, [] {});
  for (std::thread &S : Submitters)
    S.join();
  EXPECT_EQ(Ran.load(), Threads * Batches * PerBatch);
}

TEST(ShardPoolWatchdog, TripsOnTokenIgnoringTaskAndRecovers) {
  WatchdogConfig Watchdog;
  Watchdog.Factor = 1;
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

TEST(ShardPoolWatchdog, UnreadOverstayCountsOneTripWhenItFinishes) {
  // Nobody reads the counters while the task overstays its 20 ms budget
  // five times over: the verdict taken when it finishes counts it, once.
  WatchdogConfig Watchdog;
  Watchdog.Factor = 1;
  ShardPool Pool(1, Watchdog);
  CancelToken Wedged(Deadline::afterMs(20));
  TaskGroup Group;
  Group.expect(1);
  Pool.submit(0, [&] {
    const Deadline Overstayed = Deadline::afterMs(100);
    while (!Overstayed.expired())
      std::this_thread::yield();
  }, &Group, &Wedged);
  Group.wait();
  EXPECT_EQ(Pool.watchdogTrips(), 1u);
  EXPECT_EQ(Pool.shardsDegraded(), 0u);
}

TEST(ShardPoolWatchdog, DegradedExactlyWhileTheOverstayingTaskRuns) {
  WatchdogConfig Watchdog;
  Watchdog.Factor = 1;
  ShardPool Pool(1, Watchdog);
  CancelToken Wedged(Deadline::afterMs(20));
  CancelToken Release;
  TaskGroup Group;
  Group.expect(1);
  Pool.submit(0, [&] {
    while (!Release.cancelled())
      std::this_thread::yield();
  }, &Group, &Wedged);
  EXPECT_TRUE(spinUntil([&] { return Pool.shardsDegraded() == 1; }));
  // Read many times while it runs and once more as it finishes: one trip.
  EXPECT_EQ(Pool.watchdogTrips(), 1u);
  Release.cancel();
  Group.wait();
  EXPECT_EQ(Pool.shardsDegraded(), 0u);
  EXPECT_EQ(Pool.watchdogTrips(), 1u);
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
  int Code = -1;
  std::string Text = serveOverPipes(S,
                                    "{\"op\":\"ping\",\"id\":1}\n"
                                    "{\"op\":\"shutdown\",\"id\":2}\n"
                                    "{\"op\":\"ping\",\"id\":3}\n",
                                    Code);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Text.find("pong"), std::string::npos);
  EXPECT_NE(Text.find("shutting-down"), std::string::npos);
  // The third line was never admitted: drain stops admission.
  EXPECT_EQ(Text.find("\"id\":3"), std::string::npos) << Text;
  EXPECT_FALSE(S.drainDegraded());
}

TEST(ServerDrain, SignalFlagStopsAdmissionBeforeServing) {
  std::atomic<bool> Flag{true};
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Config.StopFlag = &Flag;
  Server S(Config);
  int Code = -1;
  EXPECT_TRUE(serveOverPipes(S, "{\"op\":\"ping\",\"id\":1}\n", Code).empty());
  EXPECT_EQ(Code, 0);
}

TEST(ServerDrain, IdleStdioServeStopsWithinATickOfTheStopFlag) {
  // Nothing arrives and the input stays open: only the flag, raised with
  // no signal sent, can end the serve.
  std::atomic<bool> Flag{false};
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Config.StopFlag = &Flag;
  Server S(Config);
  int In[2], Out[2];
  ASSERT_EQ(::pipe(In), 0);
  ASSERT_EQ(::pipe(Out), 0);
  std::atomic<bool> Returned{false};
  int Code = -1;
  std::thread Serving([&] {
    Code = S.serveStdio(In[0], Out[1]);
    Returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(3 * TickMs));
  EXPECT_FALSE(Returned.load());
  auto Raised = std::chrono::steady_clock::now();
  Flag.store(true);
  Serving.join();
  auto Took = std::chrono::steady_clock::now() - Raised;
  EXPECT_EQ(Code, 0);
  // One tick for the reader and the loop to see the flag; the bound leaves
  // room for a loaded or instrumented run.
  EXPECT_LT(Took, std::chrono::milliseconds(10 * TickMs))
      << std::chrono::duration_cast<std::chrono::milliseconds>(Took).count()
      << " ms";
  for (int Fd : {In[0], In[1], Out[0], Out[1]})
    ::close(Fd);
}

TEST(ServerStdio, OversizedLineIsCutWhileRead) {
  // A 4 MB newline-less line against a 128-byte cap answers bad-request
  // from the Cap + 1 bytes the reader kept, and the next line still serves.
  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Config.MaxLineBytes = 128;
  Server S(Config);
  int Code = -1;
  std::string Text = serveOverPipes(
      S, std::string(4u << 20, 'x') + "\n{\"op\":\"ping\",\"id\":2}\n", Code);
  EXPECT_EQ(Code, 0);
  size_t NL = Text.find('\n');
  ASSERT_NE(NL, std::string::npos) << Text;
  EXPECT_NE(Text.find("\"kind\":\"bad-request\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("line of 129+ bytes"), std::string::npos) << Text;
  EXPECT_NE(Text.find("pong", NL), std::string::npos) << Text;
  EXPECT_EQ(S.counters().RejectedRequests, 1u);
}

TEST(ServerDrain, DrainDeadlineCancelsInflightAndExitsThree) {
  // Deterministic mid-request shutdown via the chaos sites: the first
  // dispatch flips the stop flag (as if SIGTERM landed mid-compile), the
  // first allocation task stalls for 500ms so the 25ms drain window passes
  // while the big compile is still running however fast the allocator is,
  // the serve loop cancels it, and the request answers "cancelled" — no
  // response lost, exit code 3.
  ServerConfig Config;
  Config.Service.Shards = 2;
  Config.Hello = false;
  Config.DrainMs = 25;
  Config.Service.Chaos = FaultPlan::fromString("shutdown:1,stall:1");
  Config.Service.ChaosStallMs = 500;
  Server S(Config);
  int Code = -1;
  std::string Text = serveOverPipes(
      S,
      "{\"op\":\"compile\",\"id\":1,\"source\":" +
          json::Value(heavyModule(48)).str() +
          ",\"options\":{\"alloc\":\"rap\",\"k\":3}}\n"
          "{\"op\":\"ping\",\"id\":2}\n",
      Code);
  EXPECT_EQ(Code, 3);
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
  std::atomic<bool> Stop{false};
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
    std::atomic<bool> &Stop;
    ~StopAndJoin() {
      if (T.joinable()) {
        Stop.store(true);
        T.join();
      }
    }
  } Guard{Serving, Stop};

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

  int Gone = connectUnix(Path, ConnectTimeoutMs);
  ASSERT_GE(Gone, 0);
  const std::string Line = "{\"op\":\"compile\",\"id\":2,\"source\":" +
                           json::Value(heavyModule(200)).str() +
                           ",\"options\":{\"alloc\":\"rap\",\"k\":3}}\n";
  ASSERT_TRUE(writeAll(Gone, Line));
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

TEST(ServerSocket, ProbeThatTimesOutInAFullBacklogRefusesSocketInUse) {
  // A live listener that does not accept, with a full backlog: the
  // stale-socket probe can neither connect nor be refused. It must give up
  // after ConnectTimeoutMs and refuse the path, not hang or steal it.
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("rap_backlog_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ::unlink(Path.c_str());
  sockaddr_un Addr;
  ASSERT_TRUE(unixAddress(Path, Addr));
  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_EQ(
      ::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  ASSERT_EQ(::listen(Listen, 0), 0);
  // Non-blocking connects queue until the backlog is full (EAGAIN).
  std::vector<int> Held;
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr))) {
      EXPECT_EQ(errno, EAGAIN);
      ::close(Fd);
      break;
    }
    Held.push_back(Fd);
    ASSERT_LT(Held.size(), 64u);
  }

  ServerConfig Config;
  Config.Service.Shards = 1;
  Config.Hello = false;
  Server S(Config);
  testing::internal::CaptureStderr();
  auto Start = std::chrono::steady_clock::now();
  int Code = S.serveSocket(Path);
  auto Took = std::chrono::steady_clock::now() - Start;
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Code, 1);
  EXPECT_NE(Err.find("socket-in-use"), std::string::npos) << Err;
  EXPECT_LT(Took, std::chrono::milliseconds(ConnectTimeoutMs + 1000));
  // Refused, not stolen: the listener's file is still there.
  struct stat St;
  EXPECT_EQ(::lstat(Path.c_str(), &St), 0);
  for (int Fd : Held)
    ::close(Fd);
  ::close(Listen);
  ::unlink(Path.c_str());
}

} // namespace
