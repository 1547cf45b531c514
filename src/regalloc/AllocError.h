//===- regalloc/AllocError.h - Structured allocation failures ---*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error that replaces the allocators' historical fatal
/// asserts and `abort()` calls. Every invariant violation, resource-limit
/// breach, verifier rejection, or injected fault inside the allocation
/// pipeline is reported as an AllocError naming the failure kind, the
/// function, and (when known) the PDG region — so the per-function driver
/// can isolate the failure and degrade that one function to the
/// spill-everything fallback instead of killing the process.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_ALLOCERROR_H
#define RAP_REGALLOC_ALLOCERROR_H

#include <exception>
#include <string>

namespace rap {

enum class AllocErrorKind {
  Internal,           ///< unexpected condition with no better classification
  InvariantViolation, ///< a paper/bookkeeping invariant did not hold
  NonConvergence,     ///< the spill/color loop exceeded its round budget
  Unallocatable,      ///< only unspillable pressure left (k too small)
  ResourceLimit,      ///< a guard (graph bytes, spill actions) hit
  VerifierReject,     ///< checked mode: AssignmentVerifier found violations
  InjectedFault,      ///< deterministic fault injection fired (testing)
  DeadlineExceeded,   ///< the compile's CancelToken deadline passed
  Cancelled,          ///< the compile's CancelToken was cancelled (drain)
};

inline const char *allocErrorKindName(AllocErrorKind K) {
  switch (K) {
  case AllocErrorKind::Internal:
    return "internal";
  case AllocErrorKind::InvariantViolation:
    return "invariant-violation";
  case AllocErrorKind::NonConvergence:
    return "non-convergence";
  case AllocErrorKind::Unallocatable:
    return "unallocatable";
  case AllocErrorKind::ResourceLimit:
    return "resource-limit";
  case AllocErrorKind::VerifierReject:
    return "verifier-reject";
  case AllocErrorKind::InjectedFault:
    return "injected-fault";
  case AllocErrorKind::DeadlineExceeded:
    return "deadline-exceeded";
  case AllocErrorKind::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

class AllocError : public std::exception {
public:
  AllocError(AllocErrorKind Kind, std::string Function, int Region,
             std::string Message)
      : Kind(Kind), Function(std::move(Function)), Region(Region),
        Message(std::move(Message)) {
    render();
  }

  AllocErrorKind kind() const { return Kind; }
  const std::string &function() const { return Function; }
  int region() const { return Region; } ///< PDG region id, or -1
  const std::string &message() const { return Message; }

  /// Fills in the function name when the throw site did not know it (e.g.
  /// colorGraph, CodeEditor). First writer wins.
  void setFunction(const std::string &Name) {
    if (Function.empty()) {
      Function = Name;
      render();
    }
  }

  const char *what() const noexcept override { return Rendered.c_str(); }

private:
  void render() {
    Rendered = std::string(allocErrorKindName(Kind));
    if (!Function.empty())
      Rendered += " in '" + Function + "'";
    if (Region >= 0)
      Rendered += " (region R" + std::to_string(Region) + ")";
    Rendered += ": " + Message;
  }

  AllocErrorKind Kind;
  std::string Function;
  int Region;
  std::string Message;
  std::string Rendered;
};

/// Throws AllocError; a function-call (rather than `throw` at every call
/// site) keeps the cold path out of the allocators' hot loops.
[[noreturn]] inline void throwAllocError(AllocErrorKind Kind,
                                         std::string Message,
                                         std::string Function = {},
                                         int Region = -1) {
  throw AllocError(Kind, std::move(Function), Region, std::move(Message));
}

/// Invariant check replacing `assert` in the allocation pipeline: active in
/// every build type, reports through AllocError instead of aborting.
inline void allocCheck(bool Cond, AllocErrorKind Kind, const char *Message) {
  if (!Cond)
    throwAllocError(Kind, Message);
}

} // namespace rap

#endif // RAP_REGALLOC_ALLOCERROR_H
