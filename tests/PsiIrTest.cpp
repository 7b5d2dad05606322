//===- tests/PsiIrTest.cpp - PSI IR engine unit tests ---------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct tests of the PSI-style probabilistic IR and its exact and
/// sampling engines, independent of the Bayonet frontend.
///
//===----------------------------------------------------------------------===//

#include "psi/PsiExact.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

Rational q(int64_t N, int64_t D = 1) { return Rational(BigInt(N), BigInt(D)); }

TEST(PsiIrTest, ConstantProgram) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pInt(7)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(7));
}

TEST(PsiIrTest, FlipGivesBernoulli) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 3)))));
  P.Result = pBin(BinOpKind::Eq, pVar(X), pInt(1));
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(1, 3));
}

TEST(PsiIrTest, UniformIntExpectation) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pUniformInt(pInt(1), pInt(6))));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(7, 2));
}

TEST(PsiIrTest, ObserveConditions) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pUniformInt(pInt(1), pInt(6))));
  P.Body.push_back(sObserve(pBin(BinOpKind::Ge, pVar(X), pInt(3))));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(9, 2));
  EXPECT_EQ(R.OkMass.concreteValue(), q(2, 3));
}

TEST(PsiIrTest, AssertMakesErrorMass) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 4)))));
  P.Body.push_back(sAssert(pBin(BinOpKind::Eq, pVar(X), pInt(0))));
  P.Result = pVar(X);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 4));
  EXPECT_EQ(R.OkMass.concreteValue(), q(3, 4));
}

TEST(PsiIrTest, QueuePushPopSemantics) {
  PsiProgram P;
  unsigned Q = P.addVar("q");
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(Q, pTuple({})));
  P.Body.push_back(sPushBack(Q, pInt(1), 2));
  P.Body.push_back(sPushBack(Q, pInt(2), 2));
  P.Body.push_back(sPushBack(Q, pInt(3), 2)); // dropped: at capacity
  P.Body.push_back(sPushFront(Q, pInt(9), 2)); // dropped: at capacity
  P.Body.push_back(sPopFront(Q, X));
  P.Result = pBin(BinOpKind::Add,
                  pBin(BinOpKind::Mul, pVar(X), pInt(10)),
                  pLen(pVar(Q)));
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  // Head was 1, one element (the 2) remains: 1*10 + 1 = 11.
  EXPECT_EQ(*R.concreteValue(), q(11));
}

TEST(PsiIrTest, PopFrontOnEmptyIsError) {
  PsiProgram P;
  unsigned Q = P.addVar("q");
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(Q, pTuple({})));
  P.Body.push_back(sPopFront(Q, X));
  P.Result = pInt(0);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
  EXPECT_TRUE(R.OkMass.isZero());
}

TEST(PsiIrTest, WhileLoopCountsDown) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned N = P.addVar("n");
  P.Body.push_back(sAssign(X, pInt(5)));
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(X, pBin(BinOpKind::Sub, pVar(X), pInt(1))));
  Body.push_back(sAssign(N, pBin(BinOpKind::Add, pVar(N), pInt(1))));
  P.Body.push_back(
      sWhile(pBin(BinOpKind::Gt, pVar(X), pInt(0)), std::move(Body)));
  P.Result = pVar(N);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(5));
}

TEST(PsiIrTest, WhileFuelExhaustionIsError) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pInt(1)));
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(X, pInt(1)));
  P.Body.push_back(
      sWhile(pBin(BinOpKind::Eq, pVar(X), pInt(1)), std::move(Body)));
  P.Result = pInt(0);
  PsiExactOptions Opts;
  Opts.WhileFuel = 50;
  PsiExactResult R = PsiExact(P, Opts).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
}

TEST(PsiIrTest, RepeatMergesEnvironments) {
  // A geometric-style random walk: 20 steps of x += flip(1/2), merging
  // keeps the distribution linear in the step count.
  PsiProgram P;
  unsigned X = P.addVar("x");
  std::vector<PStmtPtr> Body;
  Body.push_back(
      sAssign(X, pBin(BinOpKind::Add, pVar(X), pFlip(pConst(q(1, 2))))));
  P.Body.push_back(sRepeat(20, std::move(Body)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(10));
  // 21 distinct values of x, not 2^20 paths.
  EXPECT_LE(R.MaxDistSize, 21u);
}

TEST(PsiIrTest, RepeatWithoutMergingBlowsUp) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  std::vector<PStmtPtr> Body;
  Body.push_back(
      sAssign(X, pBin(BinOpKind::Add, pVar(X), pFlip(pConst(q(1, 2))))));
  P.Body.push_back(sRepeat(12, std::move(Body)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactOptions Opts;
  Opts.MergeEnvs = false;
  PsiExactResult R = PsiExact(P, Opts).run();
  EXPECT_EQ(*R.concreteValue(), q(6));
  // Exponentially many paths without merging (2^11 at the last statement
  // entry, where the peak is measured).
  EXPECT_GE(R.MaxDistSize, 2048u);
}

TEST(PsiIrTest, TupleConstructionAndProjection) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  std::vector<PExprPtr> Inner;
  Inner.push_back(pInt(6));
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(4));
  Elems.push_back(pInt(5));
  Elems.push_back(pTuple(std::move(Inner)));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems))));
  P.Result = pBin(
      BinOpKind::Add, pTupleGet(pVar(T), 1),
      pTupleGet(pIndex(pVar(T), pInt(2)), 0));
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(11));
}

TEST(PsiIrTest, IndexOutOfRangeIsError) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(1));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems))));
  P.Body.push_back(sAssign(X, pIndex(pVar(T), pInt(5))));
  P.Result = pInt(0);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
}

TEST(PsiIrTest, SymbolicComparisonSplits) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned Param = P.Params.getOrAdd("P");
  P.ParamValues.resize(1);
  std::vector<PStmtPtr> Then, Else;
  Then.push_back(sAssign(X, pInt(1)));
  Else.push_back(sAssign(X, pInt(0)));
  P.Body.push_back(sIf(pBin(BinOpKind::Lt, pParam(Param), pInt(5)),
                       std::move(Then), std::move(Else)));
  P.Result = pBin(BinOpKind::Eq, pVar(X), pInt(1));
  PsiExactResult R = PsiExact(P).run();
  auto Cases = R.cases();
  ASSERT_EQ(Cases.size(), 3u); // P < 5, P == 5, P > 5 after partitioning.
  for (const ProbCase &C : Cases) {
    auto Model = C.Region.findModel(1);
    ASSERT_TRUE(Model.has_value());
    bool Lt = (*Model)[0] < Rational(5);
    EXPECT_EQ(C.Value, Lt ? q(1) : q(0));
  }
}

TEST(PsiIrTest, SamplerMatchesExact) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pUniformInt(pInt(0), pInt(9))));
  P.Body.push_back(sObserve(pBin(BinOpKind::Lt, pVar(X), pInt(5))));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult Exact = PsiExact(P).run();
  EXPECT_EQ(*Exact.concreteValue(), q(2));
}

TEST(PsiIrTest, PrinterRoundsTrips) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 2)))));
  P.Result = pVar(X);
  std::string Text = printPsiProgram(P);
  EXPECT_NE(Text.find("x = flip(1/2);"), std::string::npos);
  EXPECT_NE(Text.find("return x;"), std::string::npos);
}

} // namespace
