//===- driver/Report.h - Stats rendering (text + JSON) ----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a CompileResult's allocation statistics for the driver and the
/// bench harnesses: a human-readable text block and the machine-readable
/// "rap-stats-v1" JSON document. The JSON is deterministic at any thread
/// count except its "timing" and "timers" sections (wall clocks) — the
/// determinism tests erase exactly those keys before diffing.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_DRIVER_REPORT_H
#define RAP_DRIVER_REPORT_H

#include "driver/Pipeline.h"
#include "support/Json.h"

#include <string>

namespace rap {

/// Context the stats document records about the run that produced it.
struct ReportMeta {
  std::string Allocator; ///< "rap", "gra", or "none"
  unsigned K = 0;
  unsigned Threads = 1;
};

/// The "rap-stats-v1" document: run metadata, the aggregated AllocStats
/// ledger, the telemetry counter/timer aggregate, and a per-function
/// outcome array in program order.
json::Value statsJson(const CompileResult &R, const ReportMeta &Meta);

/// Human-readable rendering of the same data (multi-line, trailing \n).
std::string statsText(const CompileResult &R, const ReportMeta &Meta);

/// AllocStats as a sorted-key JSON object (shared by statsJson and the
/// bench harnesses' --json emitters).
json::Value allocStatsJson(const AllocStats &S);

/// A run's execution counters (cycles, loads, stores, their spill shares,
/// copies, calls) as a JSON object: rapcc's `--stats=json` "exec" object,
/// rapd's compile-response "exec" object and the Table 1 bench rows. Each
/// caller adds its own keys.
json::Object execStatsJson(const ExecStats &S);

} // namespace rap

#endif // RAP_DRIVER_REPORT_H
