//===- server/Wire.cpp - rapd-v1 line transport -----------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;

LineReader::Result LineReader::next(std::string &Out,
                                    const std::function<bool()> &Stop) {
  for (;;) {
    size_t NL = Buf.find('\n', Scanned);
    if (NL != std::string::npos) {
      Out.assign(Buf, Head, NL - Head);
      Head = Scanned = NL + 1;
      return Line;
    }
    Scanned = Buf.size();
    if (Eof) {
      if (Head == Buf.size())
        return Closed;
      Out.assign(Buf, Head);
      Head = Buf.size();
      return Tail;
    }
    if (Stop())
      return Stopped;
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, TickMs);
    if (R == 0 || (R < 0 && errno == EINTR))
      continue;
    char Chunk[1 << 16];
    ssize_t N = R < 0 ? -1 : ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      Eof = true;
    else
      ingest(Chunk, static_cast<size_t>(N));
  }
}

void LineReader::ingest(const char *P, size_t N) {
  // Consumed lines are dropped once per read, not once per line.
  Buf.erase(0, Head);
  Scanned -= Head;
  Head = 0;
  while (N != 0) {
    const char *NL = static_cast<const char *>(std::memchr(P, '\n', N));
    size_t Len = NL ? static_cast<size_t>(NL - P) : N;
    size_t Kept = std::min(Len, Keep - LineLen);
    Buf.append(P, Kept);
    LineLen += Kept;
    if (!NL)
      return;
    Buf.push_back('\n');
    LineLen = 0;
    P = NL + 1;
    N -= Len + 1;
  }
}

bool rap::server::writeAll(int Fd, const std::string &Data) {
  bool Socket = true;
  for (size_t Off = 0; Off < Data.size();) {
    const char *P = Data.data() + Off;
    size_t Left = Data.size() - Off;
    ssize_t N = Socket ? ::send(Fd, P, Left, MSG_NOSIGNAL)
                       : ::write(Fd, P, Left);
    if (N < 0 && Socket && errno == ENOTSOCK) {
      Socket = false;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool rap::server::unixAddress(const std::string &Path, sockaddr_un &Addr) {
  Addr = sockaddr_un{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.data(), Path.size());
  return true;
}

int rap::server::connectUnix(const std::string &Path, unsigned TimeoutMs) {
  sockaddr_un Addr;
  if (!unixAddress(Path, Addr)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  // A blocking AF_UNIX connect waits for room in a full backlog for at most
  // the send timeout, then fails with EAGAIN.
  timeval Timeout{static_cast<time_t>(TimeoutMs / 1000),
                  static_cast<suseconds_t>(TimeoutMs % 1000 * 1000)};
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    int Err = errno == EAGAIN ? ETIMEDOUT : errno;
    ::close(Fd);
    errno = Err;
    return -1;
  }
  Timeout = timeval{};
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  return Fd;
}
