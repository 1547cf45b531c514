//===- regalloc/FaultInjection.cpp - Deterministic fault injection ----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/FaultInjection.h"

#include "support/Env.h"

#include <cstdio>
#include <stdexcept>

using namespace rap;

const char *rap::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::Coloring:
    return "color";
  case FaultSite::SpillInsert:
    return "spill";
  case FaultSite::PhysicalRewrite:
    return "rewrite";
  case FaultSite::RegionAlloc:
    return "region";
  case FaultSite::ProtocolParse:
    return "parse";
  case FaultSite::CacheInsert:
    return "cache-insert";
  case FaultSite::WorkerStall:
    return "stall";
  case FaultSite::MidShutdown:
    return "shutdown";
  }
  return "unknown";
}

static FaultSite parseSite(const std::string &Name) {
  if (Name == "color")
    return FaultSite::Coloring;
  if (Name == "spill")
    return FaultSite::SpillInsert;
  if (Name == "rewrite")
    return FaultSite::PhysicalRewrite;
  if (Name == "region")
    return FaultSite::RegionAlloc;
  if (Name == "parse")
    return FaultSite::ProtocolParse;
  if (Name == "cache-insert")
    return FaultSite::CacheInsert;
  if (Name == "stall")
    return FaultSite::WorkerStall;
  if (Name == "shutdown")
    return FaultSite::MidShutdown;
  throw std::invalid_argument(
      "unknown fault site '" + Name +
      "' (expected color|spill|rewrite|region|parse|cache-insert|stall|"
      "shutdown)");
}

FaultPlan FaultPlan::fromString(const std::string &Spec) {
  FaultPlan Plan;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Entry = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;
    if (Entry.empty())
      continue;

    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos)
      throw std::invalid_argument("fault entry '" + Entry +
                                  "' lacks ':<n>' countdown");
    Arm A;
    A.Site = parseSite(Entry.substr(0, Colon));
    std::string Rest = Entry.substr(Colon + 1);
    size_t At = Rest.find('@');
    if (At != std::string::npos) {
      A.Function = Rest.substr(At + 1);
      Rest = Rest.substr(0, At);
    }
    size_t Used = 0;
    int N;
    try {
      N = std::stoi(Rest, &Used);
    } catch (const std::exception &) {
      throw std::invalid_argument("fault entry '" + Entry +
                                  "' has a non-numeric countdown");
    }
    if (Used != Rest.size() || N < 1)
      throw std::invalid_argument("fault entry '" + Entry +
                                  "' needs a countdown >= 1");
    A.Nth = static_cast<unsigned>(N);
    Plan.Arms.push_back(std::move(A));
  }
  return Plan;
}

FaultInjector::FaultInjector(const FaultPlan &Plan, std::string Function)
    : Function(std::move(Function)) {
  for (const FaultPlan::Arm &A : Plan.Arms) {
    if (!A.Function.empty() && A.Function != this->Function)
      continue;
    Counters.push_back(Counter{A.Site, A.Nth});
  }
}

void FaultInjector::hitSlow(FaultSite S) {
  if (firesSlow(S))
    throwAllocError(AllocErrorKind::InjectedFault,
                    std::string("fault injected at site '") +
                        faultSiteName(S) + "'",
                    Function);
}

bool FaultInjector::firesSlow(FaultSite S) {
  bool Fired = false;
  for (Counter &C : Counters) {
    if (C.Site != S)
      continue;
    if (--C.Remaining == 0)
      Fired = true;
  }
  return Fired;
}

const FaultPlan &rap::envFaultPlan() {
  static const FaultPlan Plan = [] {
    const std::optional<std::string> &Spec = env::get("RAP_FAULT_INJECT");
    if (!Spec)
      return FaultPlan();
    try {
      return FaultPlan::fromString(*Spec);
    } catch (const std::invalid_argument &E) {
      std::fprintf(stderr, "RAP_FAULT_INJECT ignored: %s\n", E.what());
      return FaultPlan();
    }
  }();
  return Plan;
}
