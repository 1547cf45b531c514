//===- tests/server_client_test.cpp - rapd client retry contract ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retry contract of server::Client (DESIGN.md §12), each case against
/// a scripted stand-in for rapd on a Unix socket, so a server behaviour the
/// real rapd never shows on purpose (a wrong id, a line cut off by a close)
/// can be played exactly:
///
///  * a {"rapd":...} banner before the reply is skipped;
///  * "overloaded" with retry_after_ms is waited out and the request resent
///    on the same connection;
///  * a reply with the wrong id closes the connection, and the client
///    reconnects and resends;
///  * a server that closes in the middle of a line is reconnected;
///  * an exhausted retry or time budget returns false with an Error.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

namespace {

/// One accepted connection of a FakeServer, read a line at a time.
class FakeConn {
public:
  explicit FakeConn(int Fd) : Fd(Fd) {}

  /// The next '\n'-terminated line; false at EOF or after 5 s of silence.
  bool readLine(std::string &Line) {
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line.assign(Buf, 0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, 5000) <= 0)
        return false;
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  void send(const std::string &Data) {
    ASSERT_EQ(::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Data.size()));
  }

  /// Waits for the client to close its end (true), up to 5 s.
  bool waitForClose() {
    std::string Line;
    while (readLine(Line)) {
    }
    pollfd P{Fd, POLLIN, 0};
    char C;
    return ::poll(&P, 1, 0) == 1 && ::read(Fd, &C, 1) == 0;
  }

private:
  int Fd;
  std::string Buf;
};

/// A scripted rapd stand-in: accepts one connection per script, in order,
/// and runs that script on it. Every request line a script reads is kept.
class FakeServer {
public:
  using Script = std::function<void(FakeConn &, FakeServer &)>;

  explicit FakeServer(std::vector<Script> Scripts) {
    static std::atomic<unsigned> Counter{0};
    Path = (std::filesystem::temp_directory_path() /
            ("rap_client_" + std::to_string(::getpid()) + "_" +
             std::to_string(Counter++) + ".sock"))
               .string();
    ::unlink(Path.c_str());
    Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    EXPECT_EQ(::bind(Listen, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)),
              0);
    EXPECT_EQ(::listen(Listen, 8), 0);
    T = std::thread([this, Scripts = std::move(Scripts)] {
      for (const Script &S : Scripts) {
        pollfd P{Listen, POLLIN, 0};
        if (::poll(&P, 1, 5000) <= 0)
          return;
        int Fd = ::accept(Listen, nullptr, nullptr);
        if (Fd < 0)
          return;
        Accepted.fetch_add(1);
        FakeConn C(Fd);
        S(C, *this);
        ::close(Fd);
      }
    });
  }

  ~FakeServer() {
    T.join();
    ::close(Listen);
    ::unlink(Path.c_str());
  }

  /// Reads one request line off \p C and records it.
  bool request(FakeConn &C) {
    std::string Line;
    if (!C.readLine(Line))
      return false;
    std::lock_guard<std::mutex> Lock(M);
    Requests.push_back(Line);
    return true;
  }

  const std::string &path() const { return Path; }
  unsigned accepted() const { return Accepted.load(); }
  std::vector<std::string> requests() {
    std::lock_guard<std::mutex> Lock(M);
    return Requests;
  }

private:
  std::string Path;
  int Listen = -1;
  std::thread T;
  std::atomic<unsigned> Accepted{0};
  std::mutex M;
  std::vector<std::string> Requests;
};

const std::string Ping = "{\"op\":\"ping\",\"id\":7}";
const std::string Pong = "{\"id\":7,\"ok\":true,\"kind\":\"pong\"}\n";

ClientConfig configFor(const FakeServer &S) {
  ClientConfig CC;
  CC.SocketPath = S.path();
  CC.BackoffMs = 5;
  return CC;
}

TEST(ServerClient, BannerBeforeTheReplyIsSkipped) {
  FakeServer S({[](FakeConn &C, FakeServer &S) {
    C.send("{\"rapd\":\"v1\",\"shards\":1}\n");
    if (S.request(C))
      C.send(Pong);
  }});
  Client Cl(configFor(S));
  json::Value Reply;
  std::string Error;
  ASSERT_TRUE(Cl.call(Ping, Reply, Error)) << Error;
  EXPECT_EQ(Reply["kind"].asString(), "pong");
  EXPECT_EQ(Reply["id"].asInt(), 7);
  EXPECT_EQ(S.requests().size(), 1u);
}

TEST(ServerClient, OverloadedIsWaitedOutAndResentOnTheSameConnection) {
  FakeServer S({[](FakeConn &C, FakeServer &S) {
    if (!S.request(C))
      return;
    C.send("{\"ok\":false,\"kind\":\"overloaded\",\"retry_after_ms\":150}\n");
    if (S.request(C))
      C.send(Pong);
  }});
  Client Cl(configFor(S));
  json::Value Reply;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  ASSERT_TRUE(Cl.call(Ping, Reply, Error)) << Error;
  auto Waited = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Reply["kind"].asString(), "pong");
  EXPECT_GE(Waited, std::chrono::milliseconds(150));
  EXPECT_EQ(S.requests(), std::vector<std::string>({Ping, Ping}));
  Cl.close();
  EXPECT_EQ(S.accepted(), 1u);
}

TEST(ServerClient, WrongIdClosesReconnectsAndResends) {
  std::atomic<bool> FirstClosed{false};
  FakeServer S({[&](FakeConn &C, FakeServer &S) {
                  if (!S.request(C))
                    return;
                  C.send("{\"id\":99,\"ok\":true,\"kind\":\"pong\"}\n");
                  FirstClosed.store(C.waitForClose());
                },
                [](FakeConn &C, FakeServer &S) {
                  if (S.request(C))
                    C.send(Pong);
                }});
  Client Cl(configFor(S));
  json::Value Reply;
  std::string Error;
  ASSERT_TRUE(Cl.call(Ping, Reply, Error)) << Error;
  EXPECT_EQ(Reply["id"].asInt(), 7);
  Cl.close();
  EXPECT_EQ(S.accepted(), 2u);
  EXPECT_EQ(S.requests(), std::vector<std::string>({Ping, Ping}));
  EXPECT_TRUE(FirstClosed.load());
}

TEST(ServerClient, ServerThatClosesMidLineIsReconnected) {
  FakeServer S({[](FakeConn &C, FakeServer &S) {
                  if (S.request(C))
                    C.send("{\"id\":7,\"ok\":tr");
                },
                [](FakeConn &C, FakeServer &S) {
                  if (S.request(C))
                    C.send(Pong);
                }});
  Client Cl(configFor(S));
  json::Value Reply;
  std::string Error;
  ASSERT_TRUE(Cl.call(Ping, Reply, Error)) << Error;
  EXPECT_EQ(Reply["kind"].asString(), "pong");
  Cl.close();
  EXPECT_EQ(S.accepted(), 2u);
  EXPECT_EQ(S.requests().size(), 2u);
}

TEST(ServerClient, ExhaustedRetryBudgetReturnsFalseWithError) {
  FakeServer S({[](FakeConn &C, FakeServer &S) {
    while (S.request(C))
      C.send("{\"ok\":false,\"kind\":\"overloaded\",\"retry_after_ms\":1}\n");
  }});
  ClientConfig CC = configFor(S);
  CC.MaxRetries = 2;
  Client Cl(CC);
  json::Value Reply;
  std::string Error;
  EXPECT_FALSE(Cl.call(Ping, Reply, Error));
  EXPECT_NE(Error.find("retry budget exhausted"), std::string::npos) << Error;
  Cl.close();
  // The first send and one resend per retry.
  EXPECT_EQ(S.requests().size(), 3u);
}

TEST(ServerClient, ExhaustedTimeBudgetReturnsFalseWithError) {
  // The server takes the request and never answers.
  FakeServer S({[](FakeConn &C, FakeServer &S) {
    if (S.request(C))
      C.waitForClose();
  }});
  ClientConfig CC = configFor(S);
  CC.RequestTimeoutMs = 200;
  Client Cl(CC);
  json::Value Reply;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Cl.call(Ping, Reply, Error));
  auto Took = std::chrono::steady_clock::now() - Start;
  EXPECT_NE(Error.find("request budget exhausted"), std::string::npos)
      << Error;
  EXPECT_GE(Took, std::chrono::milliseconds(200));
  EXPECT_LT(Took, std::chrono::seconds(3));
  Cl.close();
}

TEST(ServerClient, NoListenerExhaustsTheRetryBudget) {
  ClientConfig CC;
  CC.SocketPath = (std::filesystem::temp_directory_path() /
                   ("rap_client_none_" + std::to_string(::getpid()) + ".sock"))
                      .string();
  CC.MaxRetries = 1;
  CC.BackoffMs = 1;
  Client Cl(CC);
  json::Value Reply;
  std::string Error;
  EXPECT_FALSE(Cl.call(Ping, Reply, Error));
  EXPECT_NE(Error.find("retry budget exhausted"), std::string::npos) << Error;
  EXPECT_NE(Error.find("connect"), std::string::npos) << Error;
}

} // namespace
