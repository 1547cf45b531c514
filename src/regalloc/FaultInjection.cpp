//===- regalloc/FaultInjection.cpp - Deterministic fault injection ----------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "regalloc/FaultInjection.h"

#include "support/Env.h"

#include <cstdio>
#include <iterator>
#include <stdexcept>

using namespace rap;

namespace {
/// Each site's name in a plan spec, indexed by FaultSite.
constexpr const char *SiteNames[] = {"color",  "spill",        "rewrite",
                                     "region", "parse",        "cache-insert",
                                     "stall",  "shutdown"};
static_assert(std::size(SiteNames) ==
              static_cast<size_t>(FaultSite::MidShutdown) + 1);
} // namespace

const char *rap::faultSiteName(FaultSite S) {
  return SiteNames[static_cast<size_t>(S)];
}

static FaultSite parseSite(const std::string &Name) {
  std::string Expected;
  for (size_t I = 0; I != std::size(SiteNames); ++I) {
    if (Name == SiteNames[I])
      return static_cast<FaultSite>(I);
    Expected += (I ? "|" : "") + std::string(SiteNames[I]);
  }
  throw std::invalid_argument("unknown fault site '" + Name + "' (expected " +
                              Expected + ")");
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
