//===- perfbench/Harness.h - Shared benchmark machinery ---------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two phases every workload runs, and what they share: the run's
/// arguments, the result that the final JSON line reports, the span recorder
/// of the traced run, order statistics, the seeded input transformations and
/// the run metadata.
///
/// A workload is a corpus of programs plus a stream of compile requests to a
/// warm rapd server. Its run sets up (builds the inputs, their unallocated
/// reference results and a server warmed with the stream's first requests),
/// then alternates rounds of its two phases until --seconds have passed: the
/// compile phase (compileMiniC + Interpreter over the corpus, RAP and GRA
/// passes alternating) and the request phase (the stream through
/// Server::handleLine, one closed-loop client). Alternating rounds lets both
/// phases sample the whole run, so neither sits in a slow stretch of a
/// shared host alone.
///
/// Timing rules both phases follow:
///  * setup runs once before the phases and again after each round, and is
///    reported as the median, so work moved into set-up shows;
///  * a warm-up (the first pass; the first requests) is discarded; times
///    are the fastest pass or request (layer values: medians);
///  * tracing is off in the end-to-end run (--trace 0); the traced run
///    (--trace 1) wraps each call into a layer's public function in a span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "ir/RtValue.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rap {
class DiagnosticEngine;
class IlocProgram;
namespace server {
class Server;
} // namespace server
} // namespace rap

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 7;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< span file of the traced run; empty = none
};

/// What one run reports: the correctness verdict, every attempted
/// operation and failure, and the metrics in insertion order.
class Result {
public:
  /// Counts one attempted operation (a compile, a run, a request, a check).
  void attempt(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    Correct = false;
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  }

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }

  double failedPct() const {
    return Attempted ? 100.0 * static_cast<double>(Failed) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }

  /// The final stdout line: {"correct","attempted","failed","metrics"}.
  std::string json() const;

  /// Prints every metric as "name value unit" lines (the human report).
  void print(std::FILE *Out) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  std::vector<Metric> Metrics;
};

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (0 <= Q <= 1, 0 giving the minimum); 0
/// for an empty sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// The median; the mean of the middle two for an even sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Spans of the traced run
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  double Start, End; ///< seconds since the trace epoch
  int Parent;        ///< index into the span list, -1 for a root
  uint64_t Id;       ///< the program (job) or request the span belongs to
};

/// Records nested spans in memory; written out once the run ends.
class Trace {
public:
  Trace() : Epoch(Clock::now()) { Spans.reserve(1 << 16); }

  void open(const char *Name, uint64_t Id) {
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, now(), 0, Parent, Id});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
  }
  void close() {
    Spans[static_cast<size_t>(Stack.back())].End = now();
    Stack.pop_back();
  }

  /// Times \p Fn as a span named \p Name and returns its result.
  template <typename FnT> auto span(const char *Name, uint64_t Id, FnT &&Fn) {
    open(Name, Id);
    struct Closer {
      Trace &T;
      ~Closer() { T.close(); }
    } C{*this};
    return Fn();
  }

  size_t size() const { return Spans.size(); }

  /// Self time per span name over spans [From, size()): each span's
  /// duration minus the time its child spans cover.
  std::map<std::string, double> selfTimes(size_t From) const;

  /// Total duration per span name over spans [From, size()).
  std::map<std::string, double> durations(size_t From) const;

  /// Writes every span as Chrome trace-event JSON (loadable in Perfetto).
  bool write(const std::string &Path) const;

private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Metric values keyed by name: a traced pass's or request's layer values,
/// or what a phase measured.
using Layers = std::map<std::string, double>;

inline double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// The front of compileMiniC, each call in a span: lex, parse, sema and
/// lower \p Source. Adds the token count and the lowered IR's size to \p L;
/// null on a compile error (reported in \p Diags).
std::unique_ptr<rap::IlocProgram> tracedFrontend(const std::string &Source,
                                                 Trace &Tr, uint64_t Id,
                                                 Layers &L,
                                                 rap::DiagnosticEngine &Diags);

//===----------------------------------------------------------------------===//
// The compile phase (Compile.cpp)
//===----------------------------------------------------------------------===//

/// A program of a workload's corpus.
struct Program {
  std::string Name;
  std::string Source;
  rap::RtValue Expected;  ///< main()'s result without register allocation
  unsigned Functions = 0; ///< functions of its lowered code
};

/// The compile phase's input: every (program, k) job, with RAP and GRA.
struct Corpus {
  std::vector<Program> Programs;
  std::vector<unsigned> Ks;
  /// AllocOptions::Threads: more than one only where a pass is long enough
  /// that thread start-up does not dominate.
  unsigned AllocThreads = 1;
};

/// Compiles and runs every program of \p C without register allocation:
/// its reference result and function count (set-up work).
void addReferences(Corpus &C, Result &R);

/// What a phase measured: end-to-end values on an untraced run, layer
/// values on a traced one. \c Traced and \c Untraced are the time of the
/// traced work and of the untraced work that alternates with it, for
/// trace.overhead_pct.
struct PhaseResult {
  Layers Values;
  double Traced = 0, Untraced = 0;
};

/// One of a run's two kinds of timed work. Construction runs the warm-up;
/// the run then alternates the phases' rounds.
class Phase {
public:
  virtual ~Phase() = default;
  /// One round of timed work.
  virtual void round() = 0;
  /// Whether the phase has timed enough work for its medians.
  virtual bool enough() const = 0;
  /// Checks what needs the whole run and returns the metrics.
  virtual PhaseResult finish() = 0;
};

/// Compiles and runs the corpus, checking every result. A round gives RAP
/// passes and then GRA passes half a second each (at least one pass); on a
/// traced run, one traced and one untraced pass of both allocators.
std::unique_ptr<Phase> compilePhase(const Corpus &C, const Args &A,
                                    Result &R, Trace &Tr);

//===----------------------------------------------------------------------===//
// The request phase (Requests.cpp)
//===----------------------------------------------------------------------===//

/// Worker threads of the request phase's server.
constexpr unsigned ServerShards = 2;

/// One compile request (RAP at \c K) and what its reply must show.
struct CompileRequest {
  std::string Source;
  unsigned K = 0;
  unsigned Functions = 0; ///< function slots of the reply
  int Misses = -1;        ///< how many of them miss the cache; -1 unknown
};

/// The client of the request phase: the requests that warm a fresh server
/// during setup, then the timed ones.
class RequestStream {
public:
  virtual ~RequestStream() = default;
  virtual std::vector<CompileRequest> warmup() const = 0;
  virtual CompileRequest next() = 0;
};

/// Re-sends the corpus's RAP jobs unchanged, in a seed-shuffled order, to a
/// server warmed with each of them: every function hits the cache.
std::unique_ptr<RequestStream> resubmitStream(const Corpus &C, uint64_t Seed);

/// The server_load editing session: \ref sessionModule() warm, then two
/// seed-chosen function bodies edited per request.
std::unique_ptr<RequestStream> sessionStream(uint64_t Seed);

/// The editing session's module before its first edit.
std::string sessionModule();

/// A server as the request phase uses it (2 shards, in-memory cache), with
/// \p Stream's warm-up requests sent and checked.
std::unique_ptr<rap::server::Server> warmServer(const RequestStream &Stream,
                                                Result &R);

/// Sends \p Stream's requests through Server::handleLine: \p Warmup
/// untimed ones, then rounds of at least one request and \p RoundSeconds.
/// Enough means \p MinRequests timed requests. Samples replies for a cold
/// (cache off) recompile at the end.
std::unique_ptr<Phase> requestPhase(rap::server::Server &S,
                                    RequestStream &Stream, const Args &A,
                                    double RoundSeconds, unsigned Warmup,
                                    unsigned MinRequests, Result &R,
                                    Trace &Tr);

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// splitmix64: the benchmark's only source of randomness.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

/// Appends a seed-derived tag of fixed width to every identifier of a MiniC
/// program except keywords and `main`. Each seed gives a distinct source
/// text whose lowered code, allocation and execution are those of the
/// original, so the work measured does not depend on the seed.
std::string renameIdentifiers(const std::string &Source, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Run metadata
//===----------------------------------------------------------------------===//

/// Peak resident set of this process in MiB.
double peakRssMb();

/// One "perfbench-meta {...}" line: workload, seed, host cores, build type,
/// interpreter dispatch kind, allocation threads and server shards.
void printMeta(const Args &A, unsigned AllocThreads, unsigned Shards);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
