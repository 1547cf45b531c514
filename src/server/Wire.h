//===- server/Wire.h - rapd-v1 line transport -------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire code both ends of rapd-v1 share: one line reader, one writer
/// and one Unix-socket connect. Server serves stdin/stdout and every
/// accepted socket with the reader and the writer and probes a stale socket
/// with the connect; Client talks to rapd with all three.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_WIRE_H
#define RAP_SERVER_WIRE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include <sys/un.h>

namespace rap {
namespace server {

/// The poll tick of every wire wait: an idle reader re-checks its stop
/// predicate this often, and a serve loop reaps, accepts and runs the drain
/// window on it.
constexpr int TickMs = 50;

/// How long a connect waits for room in a live listener's full backlog:
/// the client's default and the stale-socket probe's bound.
constexpr unsigned ConnectTimeoutMs = 1000;

/// Reads '\n'-terminated lines from a file descriptor with poll() ticks,
/// so a caller's stop predicate (a drain, a deadline) is seen within a tick
/// even when nothing arrives. A line longer than the cap is cut while it is
/// read: the reader keeps Cap + 1 bytes of it and drops the rest as it
/// arrives, so a newline-less flood costs bounded memory and still reads
/// back as a line the caller can tell is too long.
class LineReader {
public:
  enum Result {
    Line,    ///< a whole line, without its '\n'
    Tail,    ///< the stream ended inside a line: its bytes, unterminated
    Closed,  ///< the stream ended, or a read failed, between lines
    Stopped, ///< \p Stop held while no whole line was buffered
  };

  explicit LineReader(int Fd = -1, size_t Cap = SIZE_MAX)
      : Fd(Fd), Keep(Cap < SIZE_MAX ? Cap + 1 : Cap) {}

  /// Blocks until a whole line is buffered, the stream ends, or \p Stop
  /// returns true; \p Stop is asked before every wait.
  Result next(std::string &Out, const std::function<bool()> &Stop);

private:
  void ingest(const char *P, size_t N);

  int Fd;
  size_t Keep;         ///< bytes kept of one line (the cap plus one)
  std::string Buf;     ///< unconsumed bytes start at Head
  size_t Head = 0;
  size_t Scanned = 0;  ///< Buf[Head, Scanned) holds no '\n'
  size_t LineLen = 0;  ///< bytes kept of the unterminated last line
  bool Eof = false;
};

/// Writes all of \p Data to \p Fd: send(MSG_NOSIGNAL) on a socket, so a
/// peer that hung up costs an EPIPE and never a SIGPIPE, and write() on a
/// pipe or file. False on any failure, an SO_SNDTIMEO expiry included.
bool writeAll(int Fd, const std::string &Data);

/// Fills \p Addr for \p Path; false when the path does not fit.
bool unixAddress(const std::string &Path, sockaddr_un &Addr);

/// Connects a stream socket to the Unix-domain socket at \p Path and
/// returns it (blocking, with no timeout left set), or -1 with errno set.
/// A connect still waiting for room in a full backlog after \p TimeoutMs
/// (0 = no bound) fails with ETIMEDOUT; a path too long, ENAMETOOLONG.
int connectUnix(const std::string &Path, unsigned TimeoutMs);

} // namespace server
} // namespace rap

#endif // RAP_SERVER_WIRE_H
