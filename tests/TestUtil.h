//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#ifndef RAP_TESTS_TESTUTIL_H
#define RAP_TESTS_TESTUTIL_H

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "lower/AstLowering.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <memory>
#include <sstream>
#include <string>

namespace rap::test {

/// Compiles MiniC source to an unallocated IlocProgram, failing the current
/// test on any diagnostic.
inline std::unique_ptr<IlocProgram>
compile(const std::string &Source,
        RegionGranularity G = RegionGranularity::PerStatement) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit TU = P.parseTranslationUnit();
  if (Diags.hasErrors()) {
    ADD_FAILURE() << "compile errors:\n" << Diags.str();
    return nullptr;
  }
  if (!analyze(TU, Diags)) {
    ADD_FAILURE() << "sema errors:\n" << Diags.str();
    return nullptr;
  }
  return lowerToIloc(TU, G);
}

/// Parses and type-checks, returning the diagnostics text ("" on success).
inline std::string diagnose(const std::string &Source) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit TU = P.parseTranslationUnit();
  if (!Diags.hasErrors())
    analyze(TU, Diags);
  return Diags.str();
}

/// \p Telem's Chrome trace with wall clocks and lane assignment normalized
/// away: metadata events dropped, ts/dur/tid zeroed. Slice names, order,
/// regions, and deterministic args all survive normalization.
inline std::string normalizedTrace(const telemetry::Telemetry &Telem) {
  std::ostringstream OS;
  Telem.writeChromeTrace(OS);
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(OS.str(), Doc, &Error)) << Error;
  json::Array Kept;
  for (json::Value &E : Doc.asObject()["traceEvents"].asArray()) {
    if (E["ph"].asString() != "X")
      continue;
    E.asObject()["ts"] = 0;
    E.asObject()["dur"] = 0;
    E.asObject()["tid"] = 0;
    Kept.push_back(std::move(E));
  }
  Doc.asObject()["traceEvents"] = json::Value(std::move(Kept));
  return Doc.str(1);
}

} // namespace rap::test

#endif // RAP_TESTS_TESTUTIL_H
