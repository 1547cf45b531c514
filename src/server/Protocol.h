//===- server/Protocol.h - rapd-v1 wire protocol ----------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rapd newline-delimited JSON protocol ("rapd-v1", DESIGN.md §12).
/// One request per line, one response line per request; a line holding a
/// JSON *array* of requests is a batch and yields an array of responses in
/// request order. Requests:
///
///   {"op":"compile","id":7,"source":"...","options":{"alloc":"rap","k":5,
///    "granularity":"stmt","copies":"naive","run":false,"fuel":N,
///    "dump":false,"deadline_ms":250}}
///   {"op":"stats","id":8}     -> server counters (serverStatsJson)
///   {"op":"ping","id":9}      -> liveness probe
///   {"op":"shutdown","id":10} -> acknowledge, then drain and stop serving
///
/// Every response carries "id" (echoed; null when the request had none) and
/// "ok". Failures set "kind" to a stable machine-readable string:
/// "bad-request" (unparseable line / oversized line / unknown op / bad
/// options), "compile-error" (diagnostics in "error"), "overloaded"
/// (backpressure; "retry_after_ms" says when to retry), "deadline-exceeded"
/// (the request's deadline_ms budget ran out), "cancelled" (a server drain
/// aborted it), "internal-error" (a contained server-side fault; the
/// connection stays usable). Responses to "compile" report
/// function count, cache hits/misses, degraded count, the 16-hex-digit
/// "output_hash" of the allocated module, a "per_function" array, the
/// aggregated "alloc" ledger, optionally "exec" (run:true) and "iloc"
/// (dump:true).
///
/// This header is transport-free: parsing/serialization only, shared by the
/// server, the load bench, and the protocol tests.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_PROTOCOL_H
#define RAP_SERVER_PROTOCOL_H

#include "server/CompileService.h"
#include "support/Json.h"

#include <cstdint>
#include <string>

namespace rap {
namespace server {

enum class RequestOp { Compile, Stats, Ping, Shutdown };

struct Request {
  RequestOp Op = RequestOp::Compile;
  bool HasId = false;
  int64_t Id = 0;
  std::string Source;
  RequestOptions Options;
  bool Dump = false; ///< include the allocated ILOC text in the response
};

/// Decodes one request object (not an array — the server splits batches).
/// On failure returns false with \p Error set to the "bad-request" detail.
bool parseRequest(const json::Value &V, Request &Out, std::string &Error);

/// The compile response for \p Res (ok or compile-error).
json::Value compileResponse(const Request &Req, const ServiceResult &Res);

/// Error response with a stable "kind".
json::Value errorResponse(const Request &Req, const char *Kind,
                          const std::string &Message);

/// Backpressure response: kind "overloaded" plus "retry_after_ms".
json::Value overloadedResponse(const Request &Req, unsigned RetryAfterMs);

/// rapd's counters as one JSON object: the `stats` reply's "stats" and
/// rapd --stats' rap-stats-v1 "server" section.
json::Value serverStatsJson(const ServiceCounters &C);

/// Stats response: serverStatsJson(\p C) under "stats".
json::Value statsResponse(const Request &Req, const ServiceCounters &C);

/// Simple acks for ping/shutdown.
json::Value ackResponse(const Request &Req, const char *Kind);

/// The one-line banner rapd prints on startup so clients can sanity-check
/// the protocol version and config: {"rapd":"v1","shards":...,...}.
json::Value helloBanner(unsigned Shards, size_t CacheBytes,
                        size_t MaxInflightBytes);

} // namespace server
} // namespace rap

#endif // RAP_SERVER_PROTOCOL_H
