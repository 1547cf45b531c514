//===- tests/ir_support_test.cpp - IR types, printing, diagnostics ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/IlocProgram.h"
#include "ir/Instr.h"
#include "ir/RtValue.h"
#include "support/CmdLine.h"
#include "support/Diagnostics.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

using namespace rap;

namespace {

TEST(RtValue, TaggedAccess) {
  RtValue I = RtValue::makeInt(-42);
  EXPECT_FALSE(I.isFloat());
  EXPECT_EQ(I.asInt(), -42);
  EXPECT_DOUBLE_EQ(I.asNumber(), -42.0);

  RtValue F = RtValue::makeFloat(2.5);
  EXPECT_TRUE(F.isFloat());
  EXPECT_DOUBLE_EQ(F.asFloat(), 2.5);
  EXPECT_DOUBLE_EQ(F.asNumber(), 2.5);
}

TEST(RtValue, EqualityIsTagAware) {
  EXPECT_EQ(RtValue::makeInt(3), RtValue::makeInt(3));
  EXPECT_NE(RtValue::makeInt(3), RtValue::makeInt(4));
  EXPECT_NE(RtValue::makeInt(3), RtValue::makeFloat(3.0))
      << "an int 3 and a float 3.0 are distinct cells";
  EXPECT_EQ(RtValue::makeFloat(1.5), RtValue::makeFloat(1.5));
}

TEST(InstrPrinting, IlocFlavouredForms) {
  IlocFunction F("t");
  Instr *Ld = F.createInstr(Opcode::LdSpill);
  Ld->Dst = 2;
  Ld->Slot = 20;
  EXPECT_EQ(Ld->str(), "ldm %2, s20") << "the paper's Figure 6 spelling";

  Instr *St = F.createInstr(Opcode::StSpill);
  St->Slot = 20;
  St->Src = {2};
  EXPECT_EQ(St->str(), "stm s20, %2");

  Instr *Add = F.createInstr(Opcode::Add);
  Add->Dst = 3;
  Add->Src = {1, 2};
  EXPECT_EQ(Add->str(), "%3 = add %1, %2");

  Instr *Cbr = F.createInstr(Opcode::Cbr);
  Cbr->Src = {4};
  Cbr->Label0 = 1;
  Cbr->Label1 = 2;
  EXPECT_EQ(Cbr->str(), "cbr %4 -> L1, L2");

  Instr *Call = F.createInstr(Opcode::Call);
  Call->Dst = 5;
  Call->Callee = 0;
  Call->Src = {6, 7};
  EXPECT_EQ(Call->str(), "%5 = call f0(%6, %7)");

  Instr *Mv = F.createInstr(Opcode::Mv);
  Mv->Dst = 1;
  Mv->Src = {2};
  EXPECT_EQ(Mv->str(), "%1 = mv %2");
}

TEST(Opcode, ClassPredicates) {
  EXPECT_TRUE(isLoadOpcode(Opcode::LdSpill));
  EXPECT_TRUE(isLoadOpcode(Opcode::LdGlob));
  EXPECT_TRUE(isLoadOpcode(Opcode::LdIdx));
  EXPECT_FALSE(isLoadOpcode(Opcode::StSpill));
  EXPECT_TRUE(isStoreOpcode(Opcode::StIdx));
  EXPECT_FALSE(isStoreOpcode(Opcode::Add));
  EXPECT_TRUE(isBranchOpcode(Opcode::Ret));
  EXPECT_TRUE(isBranchOpcode(Opcode::Jmp));
  EXPECT_TRUE(isBranchOpcode(Opcode::Cbr));
  EXPECT_FALSE(isBranchOpcode(Opcode::Call))
      << "calls fall through within the caller's block";
}

TEST(IlocProgram, GlobalLayoutIsPacked) {
  IlocProgram P;
  // addGlobal's reference is invalidated by the next insertion; look the
  // globals up once the table is complete.
  P.addGlobal("a", 10, TypeKind::Int, true);
  P.addGlobal("s", 1, TypeKind::Float, false);
  EXPECT_EQ(P.findGlobal("a")->Addr, 0);
  EXPECT_EQ(P.findGlobal("s")->Addr, 10);
  EXPECT_EQ(P.globalMemorySize(), 11);
  EXPECT_EQ(P.findGlobal("a")->Size, 10);
  EXPECT_EQ(P.findGlobal("missing"), nullptr);
}

TEST(IlocProgram, FunctionLookupAndIds) {
  IlocProgram P;
  IlocFunction *F0 = P.createFunction("alpha");
  IlocFunction *F1 = P.createFunction("beta");
  EXPECT_EQ(P.functionId(F0), 0);
  EXPECT_EQ(P.functionId(F1), 1);
  EXPECT_EQ(P.findFunction("beta"), F1);
  EXPECT_EQ(P.findFunction("gamma"), nullptr);
}

TEST(IlocFunction, ParamRegsDefaultToIdentity) {
  IlocFunction F("t");
  F.setNumParams(3);
  EXPECT_EQ(F.paramReg(0), 0u);
  EXPECT_EQ(F.paramReg(2), 2u);
  F.setParamRegs({4, 0, 1});
  EXPECT_EQ(F.paramReg(0), 4u);
  EXPECT_EQ(F.paramReg(2), 1u);
}

TEST(SmallVector, StaysInlineThenSpills) {
  SmallVector<int, 2> V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), 2u);
  V.push_back(10);
  V.push_back(20);
  EXPECT_EQ(V.capacity(), 2u) << "two elements fit inline";
  V.push_back(30);
  EXPECT_GT(V.capacity(), 2u) << "third element spills to the heap";
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 10);
  EXPECT_EQ(V[1], 20);
  EXPECT_EQ(V[2], 30);
  EXPECT_EQ(V.front(), 10);
  EXPECT_EQ(V.back(), 30);
}

TEST(SmallVector, AssignCopyMoveEquality) {
  SmallVector<int, 2> A = {1, 2, 3, 4};
  SmallVector<int, 2> B(A);
  EXPECT_EQ(A, B);
  B.push_back(5);
  EXPECT_NE(A, B);

  SmallVector<int, 2> C;
  C = A;
  EXPECT_EQ(C, A);

  std::vector<int> Std = {7, 8};
  C = Std;
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0], 7);

  // Move steals the heap buffer and leaves the source empty and reusable.
  SmallVector<int, 2> D(std::move(A));
  ASSERT_EQ(D.size(), 4u);
  EXPECT_EQ(D[3], 4);
  EXPECT_TRUE(A.empty());
  A.push_back(99);
  EXPECT_EQ(A[0], 99);
}

TEST(SmallVector, IteratorsWorkWithStdAlgorithms) {
  SmallVector<int, 4> V = {3, 1, 2};
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V[0], 1);
  EXPECT_EQ(V[2], 3);
  int Sum = 0;
  for (int X : V)
    Sum += X;
  EXPECT_EQ(Sum, 6);
  V.pop_back();
  EXPECT_EQ(V.size(), 2u);
  V.clear();
  EXPECT_TRUE(V.empty());
}

TEST(CmdLine, ParseUnsignedTakesTheWholeArgumentOrNothing) {
  unsigned U = 7;
  EXPECT_TRUE(parseUnsigned("42", U));
  EXPECT_EQ(U, 42u);
  for (const char *Bad : {"", "2x", "x2", "-1", "+1", " 1", "1 ", "0x10"}) {
    EXPECT_FALSE(parseUnsigned(Bad, U)) << "'" << Bad << "'";
    EXPECT_EQ(U, 42u) << "a rejected value leaves the target untouched";
  }
  uint64_t Big = 0;
  EXPECT_TRUE(parseUnsigned("18446744073709551615", Big));
  EXPECT_EQ(Big, UINT64_MAX);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", Big));
  EXPECT_FALSE(parseUnsigned("4294967296", U)) << "no truncation to unsigned";
}

TEST(CmdLine, ParseUnsignedEnforcesTheFlagRange) {
  unsigned Threads = 1;
  EXPECT_TRUE(parseUnsigned("256", Threads, 1, MaxWorkerThreads));
  EXPECT_EQ(Threads, MaxWorkerThreads);
  EXPECT_FALSE(parseUnsigned("257", Threads, 1, MaxWorkerThreads));
  EXPECT_FALSE(parseUnsigned("0", Threads, 1, MaxWorkerThreads));
  EXPECT_EQ(Threads, MaxWorkerThreads);
}

TEST(Diagnostics, CollectsAndRenders) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc{3, 7}, "something odd");
  D.error(SourceLoc{9, 1}, "another thing");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.diagnostics().size(), 2u);
  std::string S = D.str();
  EXPECT_NE(S.find("3:7: error: something odd"), std::string::npos);
  EXPECT_NE(S.find("9:1: error: another thing"), std::string::npos);
}

} // namespace
