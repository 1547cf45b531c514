//===- perfbench/main.cpp - End-to-end benchmark entry point --------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload table1|module|deep|session --seed N --seconds S
//           --trace 0|1 [--trace-out FILE]
//
// Runs one workload in this process and prints, as the last stdout line,
// {"correct","attempted","failed","metrics"}: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1, on every workload.
// BENCHMARK.json lists the metrics and why each workload was chosen; run.py
// builds and invokes this.
//
//   table1   the paper's 37 routines x k in {3,5,7,9}
//   session  the server_load editing session's module at k=3, and the
//            session itself as the request stream
//   module   the ROADMAP Baseline Module (1000 functions) at k=5
//   deep     the Baseline Deep function (one function, ~2,400 regions) at
//            k=9
//
// module and deep run by hand; BENCHMARK.json leaves them out (see
// README.md).
//
// Module and Deep are the ScaleProgram programs of the Baseline (generator
// seed 7); the run's seed renames their identifiers. A seed that picked the
// generator seed would change the work itself: over generator seeds 1-10,
// RAP takes 1.8-6.3 s on Deep and Module executes 32k-71k cycles.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "benchprogs/BenchPrograms.h"
#include "fuzz/ScaleProgram.h"
#include "interp/Interpreter.h"
#include "server/Server.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

namespace {

/// A finite number with all its digits; integral values print as integers.
std::string number(double V) {
  char Buf[64];
  if (std::nearbyint(V) == V && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string Result::json() const {
  bool AllFinite = true;
  std::string M;
  for (const Metric &X : Metrics) {
    AllFinite &= std::isfinite(X.Value);
    if (!M.empty())
      M += ", ";
    M += "\"" + X.Name + "\": {\"value\": " +
         number(std::isfinite(X.Value) ? X.Value : 0) + ", \"unit\": \"" +
         X.Unit + "\"}";
  }
  return std::string("{\"correct\": ") +
         (Correct && AllFinite ? "true" : "false") +
         ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {" + M +
         "}}";
}

void Result::print(std::FILE *Out) const {
  for (const Metric &X : Metrics)
    std::fprintf(Out, "  %-34s %16.6f %s\n", X.Name.c_str(), X.Value,
                 X.Unit.c_str());
  std::fprintf(Out, "  %-34s %16.6f %% (%llu of %llu operations)\n",
               "failed_pct", failedPct(),
               static_cast<unsigned long long>(Failed),
               static_cast<unsigned long long>(Attempted));
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

std::map<std::string, double> Trace::selfTimes(size_t From) const {
  std::vector<double> ChildTime(Spans.size() - From, 0);
  for (size_t I = From; I != Spans.size(); ++I) {
    int P = Spans[I].Parent;
    if (P >= static_cast<int>(From))
      ChildTime[static_cast<size_t>(P) - From] += Spans[I].End - Spans[I].Start;
  }
  std::map<std::string, double> Self;
  for (size_t I = From; I != Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].End - Spans[I].Start - ChildTime[I - From];
  return Self;
}

std::map<std::string, double> Trace::durations(size_t From) const {
  std::map<std::string, double> Dur;
  for (size_t I = From; I != Spans.size(); ++I)
    Dur[Spans[I].Name] += Spans[I].End - Spans[I].Start;
  return Dur;
}

bool Trace::write(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"span\": %zu, \"parent\": %d}}%s\n",
                  S.Name, S.Start * 1e6, (S.End - S.Start) * 1e6,
                  static_cast<unsigned long long>(S.Id), I, S.Parent,
                  I + 1 == Spans.size() ? "" : ",");
    OS << Buf;
  }
  OS << "]}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// Seeded inputs and metadata
//===----------------------------------------------------------------------===//

std::string perfbench::renameIdentifiers(const std::string &Source,
                                         uint64_t Seed) {
  static const char *const Keep[] = {"int",   "float", "void",   "if",
                                     "else",  "while", "for",    "return",
                                     "main"};
  static const char Digits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string Tag = "_";
  uint64_t H = Rng(Seed).next();
  for (int I = 0; I != 6; ++I, H /= 36)
    Tag += Digits[H % 36];

  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::string Out;
  Out.reserve(Source.size() + Source.size() / 4);
  for (size_t I = 0; I != Source.size();) {
    char C = Source[I];
    if (!IsWord(C)) {
      Out += C;
      ++I;
      continue;
    }
    size_t J = I;
    while (J != Source.size() && IsWord(Source[J]))
      ++J;
    std::string Word = Source.substr(I, J - I);
    Out += Word;
    bool IsNumber = std::isdigit(static_cast<unsigned char>(C));
    if (!IsNumber && std::find_if(std::begin(Keep), std::end(Keep),
                                  [&](const char *K) { return Word == K; }) ==
                         std::end(Keep))
      Out += Tag;
    I = J;
  }
  return Out;
}

double perfbench::peakRssMb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not do:
  // it keeps the high-water mark of the process that forked this one (the
  // Python driver's ~14 MB) across exec.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  return 0;
}

void perfbench::printMeta(const Args &A, unsigned AllocThreads,
                          unsigned Shards) {
  std::printf("perfbench-meta {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"host_cores\": %u, "
              "\"build_type\": \"%s\", \"interp_dispatch\": \"%s\", "
              "\"alloc_threads\": %u, \"server_shards\": %u}\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE,
              rap::defaultInterpDispatch() == rap::DispatchKind::Switch
                  ? "switch"
                  : "threaded",
              AllocThreads, Shards);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// What --trace 0 reports on every workload, in BENCHMARK.json's order.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},           {"compile_s.rap", "s"},
    {"compile_s.gra", "s"},     {"exec_s", "s"},
    {"exec_cycles.rap", "count"}, {"exec_cycles.gra", "count"},
    {"spill_ops.rap", "count"}, {"spill_ops.gra", "count"},
    {"code_instrs.rap", "count"}, {"code_instrs.gra", "count"},
    {"peak_rss_mb", "MB"},      {"request_min_ms", "ms"},
};

/// What --trace 1 reports on every workload, in BENCHMARK.json's order.
const MetricSpec PerLayer[] = {
    {"frontend.lex_s", "s"},
    {"frontend.parse_s", "s"},
    {"frontend.sema_s", "s"},
    {"frontend.tokens", "count"},
    {"lower.time_s", "s"},
    {"lower.instrs", "count"},
    {"lower.regions", "count"},
    {"lower.vregs", "count"},
    {"cfg.build_s", "s"},
    {"cfg.liveness_s", "s"},
    {"pdg.reaching_defs_s", "s"},
    {"regalloc.rap_s", "s"},
    {"regalloc.rap.graph_build_s", "s"},
    {"regalloc.rap.liveness_s", "s"},
    {"regalloc.rap.cleanup_s", "s"},
    {"regalloc.rap.movement_s", "s"},
    {"regalloc.rap.peephole_s", "s"},
    {"regalloc.rap.rewrite_s", "s"},
    {"regalloc.rap.unattributed_s", "s"},
    {"regalloc.gra_s", "s"},
    {"regalloc.gra.graph_build_s", "s"},
    {"regalloc.gra.liveness_s", "s"},
    {"regalloc.gra.unattributed_s", "s"},
    {"regalloc.rap.graph_builds", "count"},
    {"regalloc.rap.regions_processed", "count"},
    {"regalloc.rap.spill_rounds", "count"},
    {"regalloc.rap.spilled_vregs", "count"},
    {"regalloc.rap.color_nodes", "count"},
    {"regalloc.rap.spill_instrs_inserted", "count"},
    {"regalloc.rap.spill_instrs_removed", "count"},
    {"regalloc.gra.rounds", "count"},
    {"regalloc.gra.spilled_vregs", "count"},
    {"regalloc.gra.color_nodes", "count"},
    {"regalloc.gra.spill_instrs_inserted", "count"},
    {"regalloc.rap.visits_per_region", "ratio"},
    {"regalloc.rap.builds_per_visit", "ratio"},
    {"regalloc.rap.spill_removed_pct", "%"},
    {"interp.decode_s", "s"},
    {"interp.run_s", "s"},
    {"interp.cycles_per_s", "1/s"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"server.parse_s", "s"},
    {"server.compile_s", "s"},
    {"server.serialize_s", "s"},
    {"server.frontend_lower_s", "s"},
    {"server.cache_hits", "count"},
    {"server.cache_misses", "count"},
    {"server.hit_pct", "%"},
    {"server.cache_bytes", "bytes"},
    {"server.tasks_stolen", "count"},
    {"server.queue_depth_max", "count"},
};

/// How a workload's request phase runs beside its compile phase, whose
/// rounds take a second or two (a RAP and a GRA share of at least half a
/// second each).
struct Plan {
  double RequestRoundS;    ///< request time per round (at least a request)
  unsigned WarmupRequests; ///< untimed first requests
  unsigned MinRequests;    ///< timed requests at least
};

Plan planFor(const std::string &Workload) {
  // The session's requests are its point: about half the run (over 500),
  // and at least 200 for a p95. table1's requests are cheap, so a fifth of
  // the run gives thousands. On module and deep one request resubmits a whole
  // program (under a second on module) and one a round leaves the compile
  // phase most of the run.
  if (Workload == "session")
    return {1.2, 10, 200};
  if (Workload == "table1")
    return {0.25, 10, 200};
  return {0, 1, 8};
}

rap::fuzz::ScaleProgramConfig baselineConfig() {
  rap::fuzz::ScaleProgramConfig C;
  C.Seed = 7;
  C.NumFunctions = 1000;
  C.DeepDepth = 5;
  C.DeepFanout = 3;
  C.PressureVars = 2;
  return C;
}

/// The workload's programs; their references are set-up work as well.
Corpus makeCorpus(const Args &A) {
  Corpus C;
  if (A.Workload == "table1") {
    for (const rap::BenchProgram &P : rap::benchPrograms())
      C.Programs.push_back({P.Name, P.Source, {}, 0});
    C.Ks = {3, 5, 7, 9};
  } else if (A.Workload == "session") {
    C.Programs.push_back({"session", sessionModule(), {}, 0});
    C.Ks = {3};
  } else {
    rap::fuzz::ScaleProgramBuilder B(baselineConfig());
    bool Module = A.Workload == "module";
    C.Programs.push_back(
        {A.Workload,
         renameIdentifiers(Module ? B.buildModule() : B.buildDeepFunction(),
                           A.Seed),
         {},
         0});
    C.Ks = {Module ? 5u : 9u};
    // The Module's 1000 functions allocate on three workers (four threads
    // with the waiting main thread, one per core of the 4-core host), so a
    // run fits seven or more RAP passes.
    C.AllocThreads = Module ? 3 : 1;
  }
  return C;
}

/// Reports each metric of \p Specs from \p Values; one that was not
/// measured is a failure.
template <size_t N>
void report(const MetricSpec (&Specs)[N], const Layers &Values, Result &R) {
  for (const MetricSpec &M : Specs) {
    auto It = Values.find(M.Name);
    R.attempt(It != Values.end(),
              std::string("metric ") + M.Name + " was not measured");
    if (It != Values.end())
      R.metric(M.Name, It->second, M.Unit);
  }
}

/// What setup makes: the workload's inputs and a warm server.
struct Setup {
  Corpus C;
  std::unique_ptr<RequestStream> Stream; ///< refers to C
  std::unique_ptr<rap::server::Server> Server;
};

/// Fills \p S and returns the seconds it took.
double setUp(const Args &A, Result &R, Setup &S) {
  Clock::time_point T = Clock::now();
  S.C = makeCorpus(A);
  addReferences(S.C, R);
  S.Stream = A.Workload == "session" ? sessionStream(A.Seed)
                                     : resubmitStream(S.C, A.Seed);
  S.Server = warmServer(*S.Stream, R);
  return secondsSince(T);
}

void runWorkload(const Args &A, Result &R) {
  Plan P = planFor(A.Workload);
  Setup Kept;
  std::vector<double> SetupTimes{setUp(A, R, Kept)};
  const Corpus &C = Kept.C;
  printMeta(A, C.AllocThreads, ServerShards);

  Trace Tr;
  std::unique_ptr<Phase> Compiles = compilePhase(C, A, R, Tr);
  std::unique_ptr<Phase> Requests =
      requestPhase(*Kept.Server, *Kept.Stream, A, P.RequestRoundS,
                   P.WarmupRequests, P.MinRequests, R, Tr);
  Clock::time_point Start = Clock::now();
  do {
    Compiles->round();
    Requests->round();
    // A setup a round, so that its median spans the run as the phases'
    // samples do; what it makes is dropped untimed.
    Setup Again;
    SetupTimes.push_back(setUp(A, R, Again));
  } while (!Compiles->enough() || !Requests->enough() ||
           SetupTimes.size() < 3 || secondsSince(Start) < A.Seconds);
  PhaseResult Compile = Compiles->finish();
  PhaseResult Served = Requests->finish();
  Layers V = Compile.Values;
  V.insert(Served.Values.begin(), Served.Values.end());
  if (!A.Trace) {
    V["setup_s"] = median(SetupTimes);
    report(EndToEnd, V, R);
    return;
  }

  // Coverage: the share of the pipeline's time (compile, exec and request
  // spans, without the added unit analyses) that layer spans account for.
  Layers Self = Tr.selfTimes(0), Dur = Tr.durations(0);
  double Pipeline = Dur["compile"] + Dur["exec"] + Dur["request"] -
                    Dur["cfg.build"] - Dur["cfg.liveness"] -
                    Dur["pdg.reaching_defs"];
  V["trace.coverage_pct"] =
      100 * (1 - ratio(Self["compile"] + Self["exec"] + Self["request"],
                       Pipeline));
  V["trace.overhead_pct"] =
      100 * (ratio(Compile.Traced + Served.Traced,
                   Compile.Untraced + Served.Untraced) -
             1);
  report(PerLayer, V, R);
  if (!A.TraceOut.empty() && !Tr.write(A.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table1|module|deep|session --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || errno != 0 || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 == argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Val = argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = Val;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Val, A.Seed))
        return usage("--seed must be a non-negative integer");
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Val, N) || N == 0 || N > 120)
        return usage("--seconds must be an integer in 1..120");
      A.Seconds = static_cast<double>(N);
    } else if (Flag == "--trace") {
      if (!parseUnsigned(Val, N) || N > 1)
        return usage("--trace must be 0 or 1");
      A.Trace = N == 1;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Val;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }

  if (A.Workload != "table1" && A.Workload != "module" &&
      A.Workload != "deep" && A.Workload != "session")
    return usage("--workload must be table1, module, deep or session");
  Result R;
  runWorkload(A, R);
  R.print(stdout);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
