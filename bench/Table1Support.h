//===- bench/Table1Support.h - Shared Table 1 machinery ---------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the evaluation harnesses: run one benchmark under
/// one allocator configuration, compute the paper's percentage metrics, and
/// format table rows the way Table 1 presents them.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_BENCH_TABLE1SUPPORT_H
#define RAP_BENCH_TABLE1SUPPORT_H

#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace rap::bench {

//===----------------------------------------------------------------------===//
// Shared command-line handling. Every table harness accepts the same flags
// (--csv, --json, --k=3,5,...) with the same validation, so the drivers and
// CI scripts can treat them uniformly.
//===----------------------------------------------------------------------===//

struct BenchFlags {
  bool Csv = false;
  bool Json = false;
  std::vector<unsigned> Ks; ///< empty = the harness's default sweep
  bool Ok = true;
  std::string Error; ///< set when !Ok
};

inline BenchFlags parseBenchFlags(int argc, char **argv) {
  BenchFlags F;
  for (int I = 1; I != argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--csv") == 0) {
      F.Csv = true;
    } else if (std::strcmp(Arg, "--json") == 0) {
      F.Json = true;
    } else if (std::strncmp(Arg, "--k=", 4) == 0) {
      F.Ks.clear();
      const char *P = Arg + 4;
      while (*P) {
        char *End = nullptr;
        long K = std::strtol(P, &End, 10);
        if (End == P || K < 3 || (*End != '\0' && *End != ',')) {
          F.Ok = false;
          F.Error = std::string("bad --k list '") + (Arg + 4) +
                    "' (comma-separated integers >= 3)";
          return F;
        }
        F.Ks.push_back(static_cast<unsigned>(K));
        P = *End == ',' ? End + 1 : End;
      }
      if (F.Ks.empty()) {
        F.Ok = false;
        F.Error = "--k needs at least one value";
        return F;
      }
    } else {
      F.Ok = false;
      F.Error = std::string("unknown option '") + Arg + "'";
      return F;
    }
  }
  if (F.Csv && F.Json) {
    F.Ok = false;
    F.Error = "--csv and --json are mutually exclusive";
  }
  return F;
}

/// Wraps \p Rows in the shared "rap-bench-v1" envelope every harness's
/// --json mode emits: {"schema","bench","rows"}. Consumers key on "bench"
/// to know the row shape.
inline json::Value benchDoc(const char *Bench, json::Array Rows) {
  json::Object Root;
  Root["schema"] = "rap-bench-v1";
  Root["bench"] = Bench;
  Root["rows"] = json::Value(std::move(Rows));
  return json::Value(std::move(Root));
}

struct Measurement {
  ExecStats Stats;
  AllocStats Alloc;
  int64_t Checksum = 0;
  bool HasSpillCode = false; ///< allocated code contains ldm/stm
};

/// Compiles and runs \p P under \p Options; verifies the checksum against
/// \p ExpectedChecksum (aborting loudly on miscompilation, since a wrong
/// binary invalidates the whole table).
inline Measurement measure(const BenchProgram &P,
                           const CompileOptions &Options,
                           int64_t ExpectedChecksum) {
  CompileResult CR = compileMiniC(P.Source, Options);
  if (!CR.ok()) {
    std::fprintf(stderr, "FATAL: %s failed to compile:\n%s\n", P.Name,
                 CR.Errors.c_str());
    std::abort();
  }
  Measurement M;
  M.Alloc = CR.Alloc;
  for (const auto &F : CR.Prog->functions()) {
    F->root()->forEachInstr([&](Instr *I) {
      M.HasSpillCode |=
          I->Op == Opcode::LdSpill || I->Op == Opcode::StSpill;
    });
  }
  Interpreter Interp(*CR.Prog);
  RunResult R = Interp.run();
  if (!R.Ok) {
    std::fprintf(stderr, "FATAL: %s failed to run: %s\n", P.Name,
                 R.Error.c_str());
    std::abort();
  }
  M.Stats = R.Stats;
  M.Checksum = R.ReturnValue.asInt();
  if (M.Checksum != ExpectedChecksum) {
    std::fprintf(stderr,
                 "FATAL: %s miscompiled (checksum %lld, expected %lld)\n",
                 P.Name, static_cast<long long>(M.Checksum),
                 static_cast<long long>(ExpectedChecksum));
    std::abort();
  }
  return M;
}

/// Reference (unallocated) checksum for \p P.
inline int64_t referenceChecksum(const BenchProgram &P) {
  CompileOptions Opts;
  RunResult R = compileAndRun(P.Source, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "FATAL: %s reference run failed: %s\n", P.Name,
                 R.Error.c_str());
    std::abort();
  }
  return R.ReturnValue.asInt();
}

/// The paper's Table 1 metrics for one (benchmark, k) cell: percentage
/// decrease in total executed cycles and the portions attributable to loads
/// and stores.
struct Cell {
  double Tot = 0.0;
  double Ld = 0.0;
  double St = 0.0;
  bool HasSpill = false; ///< blank row entry when neither binary spills
};

inline Cell makeCell(const Measurement &Gra, const Measurement &Rap) {
  Cell C;
  double Base = static_cast<double>(Gra.Stats.Cycles);
  C.Tot = 100.0 *
          (static_cast<double>(Gra.Stats.Cycles) -
           static_cast<double>(Rap.Stats.Cycles)) /
          Base;
  C.Ld = 100.0 *
         (static_cast<double>(Gra.Stats.Loads) -
          static_cast<double>(Rap.Stats.Loads)) /
         Base;
  C.St = 100.0 *
         (static_cast<double>(Gra.Stats.Stores) -
          static_cast<double>(Rap.Stats.Stores)) /
         Base;
  // The paper blanks a cell "if the allocated code does not contain spill
  // code"; copy-statement differences still produce entries (the dominant
  // effect at k=9), so only fully identical executions blank out.
  C.HasSpill = Gra.HasSpillCode || Rap.HasSpillCode ||
               Gra.Stats.Cycles != Rap.Stats.Cycles;
  return C;
}

inline std::string fmtPct(double V, bool Blank) {
  if (Blank)
    return "     -";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%6.1f", V);
  return Buf;
}

/// One Measurement as a JSON object: the dynamic counters plus the
/// allocator ledger (allocStatsJson's shape, shared with rap-stats-v1).
inline json::Object measurementJson(const Measurement &M) {
  json::Object O = execStatsJson(M.Stats);
  O["checksum"] = static_cast<int64_t>(M.Checksum);
  O["has_spill_code"] = M.HasSpillCode;
  O["alloc"] = allocStatsJson(M.Alloc);
  return O;
}

} // namespace rap::bench

#endif // RAP_BENCH_TABLE1SUPPORT_H
