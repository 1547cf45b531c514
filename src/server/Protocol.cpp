//===- server/Protocol.cpp - rapd-v1 wire protocol --------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "driver/Report.h"
#include "support/Deadline.h"
#include "support/Hash.h"

using namespace rap;
using namespace rap::server;

namespace {

/// Seeds a response object with the echoed id and ok flag.
json::Object responseBase(const Request &Req, bool Ok) {
  json::Object O;
  O["id"] = Req.HasId ? json::Value(Req.Id) : json::Value(nullptr);
  O["ok"] = Ok;
  return O;
}

} // namespace

bool server::parseRequest(const json::Value &V, Request &Out,
                          std::string &Error) {
  if (!V.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  if (V.has("id")) {
    if (!V["id"].isInt()) {
      Error = "'id' must be an integer";
      return false;
    }
    Out.HasId = true;
    Out.Id = V["id"].asInt();
  }
  std::string Op = V["op"].isString() ? V["op"].asString() : "";
  if (Op == "compile")
    Out.Op = RequestOp::Compile;
  else if (Op == "stats")
    Out.Op = RequestOp::Stats;
  else if (Op == "ping")
    Out.Op = RequestOp::Ping;
  else if (Op == "shutdown")
    Out.Op = RequestOp::Shutdown;
  else {
    Error = Op.empty() ? "missing 'op'" : "unknown op '" + Op + "'";
    return false;
  }
  if (Out.Op != RequestOp::Compile)
    return true;

  if (!V["source"].isString()) {
    Error = "compile needs a string 'source'";
    return false;
  }
  Out.Source = V["source"].asString();

  const json::Value &Opts = V["options"];
  if (!Opts.isNull() && !Opts.isObject()) {
    Error = "'options' must be an object";
    return false;
  }
  if (Opts.has("alloc")) {
    const std::string &A = Opts["alloc"].asString();
    Out.Options.Allocator = allocatorKindFromString(A);
    if (Out.Options.Allocator == AllocatorKind::None && A != "none") {
      Error = "unknown allocator '" + A + "'";
      return false;
    }
  }
  if (Opts.has("k")) {
    if (!Opts["k"].isInt() || Opts["k"].asInt() < 3 ||
        Opts["k"].asInt() > MaxK) {
      Error = "'k' must be an integer in [3, " + std::to_string(MaxK) + "]";
      return false;
    }
    Out.Options.K = static_cast<unsigned>(Opts["k"].asInt());
  }
  if (Opts.has("granularity")) {
    const std::string &G = Opts["granularity"].asString();
    if (G == "stmt")
      Out.Options.Granularity = RegionGranularity::PerStatement;
    else if (G == "merged")
      Out.Options.Granularity = RegionGranularity::Merged;
    else {
      Error = "unknown granularity '" + G + "'";
      return false;
    }
  }
  if (Opts.has("copies")) {
    const std::string &C = Opts["copies"].asString();
    if (C == "naive")
      Out.Options.Copies = CopyStyle::Naive;
    else if (C == "direct")
      Out.Options.Copies = CopyStyle::Direct;
    else {
      Error = "unknown copy style '" + C + "'";
      return false;
    }
  }
  if (Opts.has("run")) {
    if (!Opts["run"].isBool()) {
      Error = "'run' must be a boolean";
      return false;
    }
    Out.Options.Run = Opts["run"].asBool();
  }
  if (Opts.has("fuel")) {
    if (!Opts["fuel"].isInt() || Opts["fuel"].asInt() <= 0) {
      Error = "'fuel' must be a positive integer";
      return false;
    }
    Out.Options.Fuel = static_cast<uint64_t>(Opts["fuel"].asInt());
  }
  if (Opts.has("dump")) {
    if (!Opts["dump"].isBool()) {
      Error = "'dump' must be a boolean";
      return false;
    }
    Out.Dump = Opts["dump"].asBool();
  }
  if (Opts.has("deadline_ms")) {
    const json::Value &D = Opts["deadline_ms"];
    if (!D.isInt() || D.asInt() <= 0 ||
        static_cast<uint64_t>(D.asInt()) > MaxDeadlineMs) {
      Error = "'deadline_ms' must be an integer in [1, " +
              std::to_string(MaxDeadlineMs) + "]";
      return false;
    }
    Out.Options.DeadlineMs =
        static_cast<uint64_t>(Opts["deadline_ms"].asInt());
  }
  return true;
}

json::Value server::compileResponse(const Request &Req,
                                    const ServiceResult &Res) {
  if (!Res.Ok) {
    // Aborted statuses (deadline-exceeded/cancelled) are mapped to their
    // error kinds by the server's dispatch; here !Ok means diagnostics.
    json::Object O = responseBase(Req, false);
    O["kind"] = serviceStatusName(Res.Status);
    O["error"] = Res.Errors;
    return json::Value(std::move(O));
  }
  json::Object O = responseBase(Req, true);
  O["functions"] = static_cast<uint64_t>(Res.Functions.size());
  O["cache_hits"] = Res.CacheHits;
  O["cache_misses"] = Res.CacheMisses;
  O["degraded"] = Res.degraded();
  O["output_hash"] = hashHex(Res.OutputHash);
  json::Array PerFunction;
  for (const FunctionReport &F : Res.Functions) {
    json::Object FO;
    FO["name"] = F.Outcome.Function;
    FO["fingerprint"] = hashHex(F.Fingerprint);
    FO["cached"] = F.CacheHit;
    FO["status"] = allocStatusName(F.Outcome.Status);
    if (!F.Outcome.Error.empty())
      FO["error"] = F.Outcome.Error;
    PerFunction.push_back(json::Value(std::move(FO)));
  }
  O["per_function"] = json::Value(std::move(PerFunction));
  // The aggregated allocation ledger: four of rap-stats-v1's "alloc" keys
  // (clients diff warm vs cold ledgers for bit-identity evidence beyond
  // the output hash).
  json::Object Ledger;
  Ledger["spilled_vregs"] = Res.Alloc.SpilledVRegs;
  Ledger["spill_loads_inserted"] = Res.Alloc.SpillLoadsInserted;
  Ledger["spill_stores_inserted"] = Res.Alloc.SpillStoresInserted;
  Ledger["copies_deleted"] = Res.Alloc.CopiesDeleted;
  O["alloc"] = json::Value(std::move(Ledger));
  if (Req.Options.Run) {
    json::Object Exec;
    if (Res.Exec.Ok) {
      Exec = execStatsJson(Res.Exec.Stats);
      Exec["result"] = Res.Exec.ReturnValue.str();
    } else {
      Exec["trap"] = Res.Exec.TrapInfo.Kind != TrapKind::None
                         ? Res.Exec.TrapInfo.str()
                         : Res.Exec.Error;
    }
    Exec["ok"] = Res.Exec.Ok;
    O["exec"] = json::Value(std::move(Exec));
  }
  if (Req.Dump) {
    std::string Text;
    for (const auto &F : Res.Prog->functions())
      Text += F->str();
    O["iloc"] = Text;
  }
  return json::Value(std::move(O));
}

json::Value server::errorResponse(const Request &Req, const char *Kind,
                                  const std::string &Message) {
  json::Object O = responseBase(Req, false);
  O["kind"] = Kind;
  O["error"] = Message;
  return json::Value(std::move(O));
}

json::Value server::overloadedResponse(const Request &Req,
                                       unsigned RetryAfterMs) {
  json::Object O = responseBase(Req, false);
  O["kind"] = "overloaded";
  O["error"] = "in-flight byte budget exceeded; retry later";
  O["retry_after_ms"] = RetryAfterMs;
  return json::Value(std::move(O));
}

json::Value server::serverStatsJson(const ServiceCounters &C) {
  json::Object S;
  S["requests"] = C.Requests;
  S["functions"] = C.CacheHits + C.CacheMisses;
  S["cache_hits"] = C.CacheHits;
  S["cache_misses"] = C.CacheMisses;
  S["cache_bytes"] = C.CacheBytes;
  S["cache_evictions"] = C.CacheEvictions;
  S["queue_depth_max"] = C.QueueDepthMax;
  S["tasks_stolen"] = C.TasksStolen;
  S["rejected_requests"] = C.RejectedRequests;
  S["deadline_exceeded"] = C.DeadlineExceeded;
  S["cancelled"] = C.Cancelled;
  S["watchdog_trips"] = C.WatchdogTrips;
  S["shards_degraded"] = C.ShardsDegraded;
  S["chaos_injected"] = C.ChaosInjected;
  S["drain_ms"] = C.DrainMs;
  S["drain_degraded"] = C.DrainDegraded;
  return json::Value(std::move(S));
}

json::Value server::statsResponse(const Request &Req,
                                  const ServiceCounters &C) {
  json::Object O = responseBase(Req, true);
  O["stats"] = serverStatsJson(C);
  return json::Value(std::move(O));
}

json::Value server::ackResponse(const Request &Req, const char *Kind) {
  json::Object O = responseBase(Req, true);
  O["kind"] = Kind;
  return json::Value(std::move(O));
}

json::Value server::helloBanner(unsigned Shards, size_t CacheBytes,
                                size_t MaxInflightBytes) {
  json::Object O;
  O["rapd"] = "v1";
  O["shards"] = Shards;
  O["cache_bytes"] = static_cast<uint64_t>(CacheBytes);
  O["max_inflight_bytes"] = static_cast<uint64_t>(MaxInflightBytes);
  return json::Value(std::move(O));
}
