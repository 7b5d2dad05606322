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

#include "api/Bayonet.h"
#include "psi/PsiExact.h"
#include "psi/PsiLiveness.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Runs \p P with and without environment merging and requires the three
/// masses to agree bit for bit; returns the merging run.
PsiExactResult runBothWays(const PsiProgram &P) {
  PsiExactOptions Off;
  Off.MergeEnvs = false;
  PsiExactResult Plain = PsiExact(P, Off).run();
  PsiExactResult Merged = PsiExact(P).run();
  EXPECT_TRUE(Merged.QueryMass == Plain.QueryMass);
  EXPECT_TRUE(Merged.OkMass == Plain.OkMass);
  EXPECT_TRUE(Merged.ErrorMass == Plain.ErrorMass);
  return Merged;
}

bool deadAtIter(const PsiProgram &P, const PStmt &Loop, unsigned Slot) {
  const PsiLiveness Live = computeMergeLiveness(P);
  const std::vector<unsigned> &Dead = Live.at(&Loop).Iter;
  return std::find(Dead.begin(), Dead.end(), Slot) != Dead.end();
}

TEST(PsiIrTest, DeadTemporaryMergesAcrossRepeat) {
  // repeat 4 { t = uniformInt(0, 9); x = x + (t == 0); }: t is written
  // before it is read in every iteration, so it is dead at the merge and
  // the distribution after it is just x's 5 values. Keeping t alive would
  // multiply that by t's 10 values.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned T = P.addVar("t");
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(T, pUniformInt(pInt(0), pInt(9))));
  Body.push_back(sAssign(
      X, pBin(BinOpKind::Add, pVar(X), pBin(BinOpKind::Eq, pVar(T), pInt(0)))));
  P.Body.push_back(sRepeat(4, std::move(Body)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  EXPECT_TRUE(deadAtIter(P, *P.Body[0], T));
  EXPECT_FALSE(deadAtIter(P, *P.Body[0], X));
  PsiExactResult R = runBothWays(P);
  EXPECT_EQ(*R.concreteValue(), q(2, 5));
  // At most 4 values of x after three merges, times 10 draws of t.
  EXPECT_LE(R.MaxDistSize, 40u);
}

TEST(PsiIrTest, SlotReadInNextIterationStaysLive) {
  // A rotor that is read at the top of the next iteration before it is
  // written: resetting it at the merge would run the flip every time. The
  // "__" prefix marks a scheduler temporary in translated programs and
  // must not make it dead.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned Rotor = P.addVar("__rotor");
  std::vector<PStmtPtr> Then, Else;
  Then.push_back(
      sAssign(X, pBin(BinOpKind::Add, pVar(X), pFlip(pConst(q(1, 2))))));
  Then.push_back(sAssign(Rotor, pInt(1)));
  Else.push_back(sAssign(Rotor, pInt(0)));
  std::vector<PStmtPtr> Body;
  Body.push_back(sIf(pBin(BinOpKind::Eq, pVar(Rotor), pInt(0)),
                     std::move(Then), std::move(Else)));
  P.Body.push_back(sRepeat(6, std::move(Body)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  EXPECT_FALSE(deadAtIter(P, *P.Body[0], Rotor));
  PsiExactResult R = runBothWays(P);
  EXPECT_EQ(*R.concreteValue(), q(3, 2));
}

TEST(PsiIrTest, ReadThatOnlyDecidesFailureIsAUse) {
  // repeat 4 { j = q[k]; k = k + flip(1/2); }: j is never read, but
  // q[k] fails once k reaches 2, so k is live at the merge and the error
  // mass is P(k reaches 2 within three flips) = 1/2.
  PsiProgram P;
  unsigned Q = P.addVar("q");
  unsigned K = P.addVar("k");
  unsigned J = P.addVar("j");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(0));
  Elems.push_back(pInt(0));
  P.Body.push_back(sAssign(Q, pTuple(std::move(Elems))));
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(J, pIndex(pVar(Q), pVar(K))));
  Body.push_back(
      sAssign(K, pBin(BinOpKind::Add, pVar(K), pFlip(pConst(q(1, 2))))));
  P.Body.push_back(sRepeat(4, std::move(Body)));
  P.Result = pInt(1);
  EXPECT_FALSE(deadAtIter(P, *P.Body[1], K));
  EXPECT_FALSE(deadAtIter(P, *P.Body[1], Q));
  EXPECT_TRUE(deadAtIter(P, *P.Body[1], J));
  PsiExactResult R = runBothWays(P);
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 2));
}

// Parking: inside a Repeat, a branch whose iteration ran without a fork,
// without the general evaluator and without changing a live slot skips the
// remaining iterations. The tests below pin where that must and must not
// happen.

TEST(PsiIrTest, WhileNeverParksAndSpendsItsFuel) {
  // while (x == 1) { t = 0; }: the body leaves the live state unchanged,
  // but a While has no parking, so x = 1 still runs out of fuel.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned T = P.addVar("t");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 2)))));
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(T, pInt(0)));
  P.Body.push_back(
      sWhile(pBin(BinOpKind::Eq, pVar(X), pInt(1)), std::move(Body)));
  P.Result = pInt(1);
  PsiExactOptions Opts;
  Opts.WhileFuel = 50;
  PsiExactResult R = PsiExact(P, Opts).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 2));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 2));
  // Both environments enter the first iteration, x = 1 all 50.
  EXPECT_EQ(R.BranchesExpanded, 51u);
}

/// repeat 6 { if (done == 0) { x = x + flip(1/2); k = k + 1;
/// done = flip(1/3); } }: k records when an environment stopped, so the
/// stopped ones stay distinct. When \p Counter, a live iteration counter
/// c = c + 1 keeps every environment changing, so nothing can park.
PsiProgram stopAtRandom(bool Counter) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned K = P.addVar("k");
  unsigned Done = P.addVar("done");
  unsigned C = P.addVar("c");
  std::vector<PStmtPtr> Then, Body;
  Then.push_back(
      sAssign(X, pBin(BinOpKind::Add, pVar(X), pFlip(pConst(q(1, 2))))));
  Then.push_back(sAssign(K, pBin(BinOpKind::Add, pVar(K), pInt(1))));
  Then.push_back(sAssign(Done, pFlip(pConst(q(1, 3)))));
  Body.push_back(
      sIf(pBin(BinOpKind::Eq, pVar(Done), pInt(0)), std::move(Then)));
  if (Counter)
    Body.push_back(sAssign(C, pBin(BinOpKind::Add, pVar(C), pInt(1))));
  for (unsigned Slot : {X, K, Done, C})
    P.Body.push_back(sAssign(Slot, pInt(0)));
  P.Body.push_back(sRepeat(6, std::move(Body)));
  // x + 0 * (k + c) keeps k and c live to the end.
  P.Result = pBin(
      BinOpKind::Add, pVar(X),
      pBin(BinOpKind::Mul, pInt(0), pBin(BinOpKind::Add, pVar(K), pVar(C))));
  P.Kind = QueryKind::Expectation;
  return P;
}

TEST(PsiIrTest, ParkedAndDrawingEnvironmentsMix) {
  // Environments with done = 1 reach a fixpoint and park while the others
  // keep drawing. E[x] = 1/2 * sum_{k<6} (2/3)^k = 3/2 * (1 - (2/3)^6).
  PsiExactResult Parked = runBothWays(stopAtRandom(false));
  EXPECT_EQ(*Parked.concreteValue(), q(665, 486));
  EXPECT_EQ(Parked.OkMass.concreteValue(), q(1));
  // The twin whose counter rules parking out gives the same masses.
  PsiExactResult Twin = runBothWays(stopAtRandom(true));
  EXPECT_TRUE(Twin.QueryMass == Parked.QueryMass);
  EXPECT_TRUE(Twin.OkMass == Parked.OkMass);
  EXPECT_TRUE(Twin.ErrorMass == Parked.ErrorMass);
  EXPECT_LT(Parked.BranchesExpanded, Twin.BranchesExpanded);
}

TEST(PsiIrTest, FixpointRewritingADeadTemporaryParks) {
  // repeat 1000 { n = x < 3; if (n > 0) { x = x + 1; } }: from x = 3 on,
  // every iteration writes n = 0 and nothing else. n is dead at the merge
  // (the translator's __n guard), so the environment parks at iteration 4
  // and the loop ends there.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned N = P.addVar("n");
  std::vector<PStmtPtr> Then, Body;
  Then.push_back(sAssign(X, pBin(BinOpKind::Add, pVar(X), pInt(1))));
  Body.push_back(sAssign(N, pBin(BinOpKind::Lt, pVar(X), pInt(3))));
  Body.push_back(
      sIf(pBin(BinOpKind::Gt, pVar(N), pInt(0)), std::move(Then)));
  P.Body.push_back(sAssign(X, pInt(0)));
  P.Body.push_back(sRepeat(1000, std::move(Body)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  ASSERT_TRUE(deadAtIter(P, *P.Body[1], N));
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(3));
  EXPECT_EQ(R.BranchesExpanded, 4u);
}

TEST(PsiIrTest, FailedObserveIsNeverParked) {
  // repeat 5 { observe(x == 1); } with x = flip(1/2): x = 1 parks, x = 0
  // is dropped by the observe and must stay dropped after the loop.
  PsiProgram P;
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 2)))));
  std::vector<PStmtPtr> Body;
  Body.push_back(sObserve(pBin(BinOpKind::Eq, pVar(X), pInt(1))));
  P.Body.push_back(sRepeat(5, std::move(Body)));
  P.Result = pVar(X);
  PsiExactResult R = runBothWays(P);
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 2));
  EXPECT_EQ(*R.concreteValue(), q(1));
  EXPECT_EQ(R.BranchesExpanded, 2u);
}

TEST(PsiIrTest, ForkingIterationIsNeverParked) {
  // repeat 3 { observe(flip(1/2)); }: the surviving branch leaves every
  // slot unchanged but halves its weight, so it must run all three
  // iterations: Ok mass 1/8, not the 1/2 a parked branch would keep.
  PsiProgram P;
  std::vector<PStmtPtr> Body;
  Body.push_back(sObserve(pFlip(pConst(q(1, 2)))));
  P.Body.push_back(sRepeat(3, std::move(Body)));
  P.Result = pInt(1);
  PsiExactResult R = runBothWays(P);
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 8));
  EXPECT_EQ(R.BranchesExpanded, 3u);
}

// Schedule: one step of a net/Scheduler over queue-guarded arms. In the
// programs below, queue i holds Sizes[i] entries (a negative size makes
// it the scalar 7) and arm i adds 10^i to x, so x names the arms that ran.

/// Adds the queue slots q0.. of \p Sizes to \p P with their initial
/// values, then the slot x = 0; returns the queue slots.
std::vector<unsigned> addQueues(PsiProgram &P, const std::vector<int> &Sizes) {
  std::vector<unsigned> Queues;
  for (size_t I = 0; I < Sizes.size(); ++I) {
    unsigned Q = P.addVar("q" + std::to_string(I));
    Queues.push_back(Q);
    if (Sizes[I] < 0) {
      P.Body.push_back(sAssign(Q, pInt(7)));
      continue;
    }
    std::vector<PExprPtr> Elems;
    for (int E = 0; E < Sizes[I]; ++E)
      Elems.push_back(pInt(E));
    P.Body.push_back(sAssign(Q, pTuple(std::move(Elems))));
  }
  P.Body.push_back(sAssign(P.addVar("x"), pInt(0)));
  return Queues;
}

/// One Schedule over \p Queues whose arm i adds 10^i to slot \p X.
PStmtPtr scheduleStep(SchedulerKind Kind, std::vector<int64_t> Weights,
                      unsigned Rotor, const std::vector<unsigned> &Queues,
                      unsigned X) {
  std::vector<PStmtPtr> Arms;
  int64_t Pow = 1;
  for (unsigned Q : Queues) {
    std::vector<PStmtPtr> Body;
    Body.push_back(sAssign(X, pBin(BinOpKind::Add, pVar(X), pInt(Pow))));
    Arms.push_back(sArm(Q, std::move(Body)));
    Pow *= 10;
  }
  return sSchedule(Kind, std::move(Weights), Rotor, std::move(Arms));
}

/// One Schedule of \p Kind over queues of \p Sizes; the result is x.
PsiProgram scheduleProgram(SchedulerKind Kind, std::vector<int64_t> Weights,
                           const std::vector<int> &Sizes) {
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, Sizes);
  unsigned X = P.VarNames.size() - 1;
  P.Body.push_back(scheduleStep(Kind, std::move(Weights), 0, Queues, X));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  return P;
}

/// The probability that one Schedule of \p Kind over queues of \p Sizes
/// ran arm \p Arm, for each arm in turn.
std::vector<Rational> armProbs(SchedulerKind Kind,
                               const std::vector<int64_t> &Weights,
                               const std::vector<int> &Sizes) {
  std::vector<Rational> Probs;
  int64_t Pow = 1;
  for (size_t Arm = 0; Arm < Sizes.size(); ++Arm, Pow *= 10) {
    PsiProgram P = scheduleProgram(Kind, Weights, Sizes);
    P.Result = pBin(BinOpKind::Eq, std::move(P.Result), pInt(Pow));
    P.Kind = QueryKind::Probability;
    Probs.push_back(*PsiExact(P).run().concreteValue());
  }
  return Probs;
}

TEST(PsiIrTest, ScheduleUniformSplitsEnabledArmsEvenly) {
  EXPECT_EQ(armProbs(SchedulerKind::Uniform, {}, {1, 0, 2, 1}),
            (std::vector<Rational>{q(1, 3), q(0), q(1, 3), q(1, 3)}));
}

TEST(PsiIrTest, ScheduleWeightedForksOncePerArm) {
  // Arms 0, 1 are node 0's (weight 3), arm 2 is node 1's (weight 1):
  // 3/7, 3/7, 1/7. Inside a one-iteration repeat, the iteration merge
  // sees one branch per enabled arm, not one per weight unit.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1, 1, 1, 0});
  unsigned X = P.VarNames.size() - 1;
  std::vector<PStmtPtr> Step;
  Step.push_back(scheduleStep(SchedulerKind::Weighted, {3, 1}, 0, Queues, X));
  P.Body.push_back(sRepeat(1, std::move(Step)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.MergeAttempts, 3u);
  EXPECT_EQ(armProbs(SchedulerKind::Weighted, {3, 1}, {1, 1, 1, 0}),
            (std::vector<Rational>{q(3, 7), q(3, 7), q(1, 7), q(0)}));
}

TEST(PsiIrTest, ScheduleDeterministicTakesFirstEnabledArm) {
  EXPECT_EQ(armProbs(SchedulerKind::Deterministic, {}, {0, 2, 1, 1}),
            (std::vector<Rational>{q(0), q(1), q(0), q(0)}));
}

TEST(PsiIrTest, ScheduleRoundRobinRotorWrapsAndIsWritten) {
  // Rotor 3 over four slots with only arms 0 and 1 enabled: the first
  // step wraps to arm 0 and sets the rotor to 1, the second takes arm 1
  // and sets it to 2. Result: x * 100 + rotor = 11 * 100 + 2.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1, 1, 0, 0});
  unsigned X = P.VarNames.size() - 1;
  unsigned Rotor = P.addVar("__rotor");
  P.Body.push_back(sAssign(Rotor, pInt(3)));
  for (int Step = 0; Step < 2; ++Step)
    P.Body.push_back(
        scheduleStep(SchedulerKind::RoundRobin, {}, Rotor, Queues, X));
  P.Result = pBin(BinOpKind::Add, pBin(BinOpKind::Mul, pVar(X), pInt(100)),
                  pVar(Rotor));
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(1102));
}

TEST(PsiIrTest, ScheduleWithNothingEnabledParks) {
  // repeat 1000 { schedule over empty queues }: the first iteration is the
  // identity, so the environment parks and the loop ends there.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {0, 0, 0});
  unsigned X = P.VarNames.size() - 1;
  std::vector<PStmtPtr> Step;
  Step.push_back(scheduleStep(SchedulerKind::Uniform, {}, 0, Queues, X));
  P.Body.push_back(sRepeat(1000, std::move(Step)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(*R.concreteValue(), q(0));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1));
  EXPECT_EQ(R.BranchesExpanded, 1u);
}

TEST(PsiIrTest, ScheduleOnScalarQueueIsError) {
  // As len() on a scalar: the whole branch goes to the error mass, even
  // though another arm is enabled.
  PsiExactResult R =
      PsiExact(scheduleProgram(SchedulerKind::Uniform, {}, {1, -1})).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
  EXPECT_TRUE(R.OkMass.isZero());
}

TEST(PsiIrTest, ScheduleKeepsArmQueuesAndRotorLive) {
  // An arm queue is read by the next iteration's Schedule, the rotor by
  // every roundrobin step and x by the arm bodies, so none of them may be
  // reset at the merge.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1, 0});
  unsigned X = P.VarNames.size() - 1;
  unsigned Rotor = P.addVar("__rotor");
  P.Body.push_back(sAssign(Rotor, pInt(0)));
  std::vector<PStmtPtr> Step;
  Step.push_back(
      scheduleStep(SchedulerKind::RoundRobin, {}, Rotor, Queues, X));
  P.Body.push_back(sRepeat(3, std::move(Step)));
  P.Result = pInt(1);
  const PStmt &Loop = *P.Body.back();
  EXPECT_FALSE(deadAtIter(P, Loop, Queues[0]));
  EXPECT_FALSE(deadAtIter(P, Loop, Queues[1]));
  EXPECT_FALSE(deadAtIter(P, Loop, Rotor));
  EXPECT_FALSE(deadAtIter(P, Loop, X));
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

// The concrete evaluator declines to eval on every input below; these pin
// the general path's answers so a fast path that took them would show.

TEST(PsiIrTest, ShortCircuitSkipsBadIndex) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned C = P.addVar("c");
  unsigned D = P.addVar("d");
  unsigned X = P.addVar("x");
  unsigned Y = P.addVar("y");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(1));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems))));
  P.Body.push_back(sAssign(C, pInt(0)));
  P.Body.push_back(sAssign(D, pInt(1)));
  // t[5] is out of range, but c == 0 decides && and d == 1 decides ||.
  P.Body.push_back(
      sAssign(X, pBin(BinOpKind::And, pVar(C), pIndex(pVar(T), pInt(5)))));
  P.Body.push_back(
      sAssign(Y, pBin(BinOpKind::Or, pVar(D), pIndex(pVar(T), pInt(5)))));
  P.Result = pBin(BinOpKind::Add, pBin(BinOpKind::Mul, pVar(X), pInt(10)),
                  pVar(Y));
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_TRUE(R.ErrorMass.isZero());
  EXPECT_EQ(R.OkMass.concreteValue(), q(1));
  EXPECT_EQ(*R.concreteValue(), q(1)); // x = 0, y = 1.
}

TEST(PsiIrTest, ShortCircuitEvaluatesRightWhenUndecided) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned C = P.addVar("c");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(3));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems))));
  P.Body.push_back(sAssign(C, pFlip(pConst(q(1, 4)))));
  // c == 1 (mass 1/4) reads t[5] and fails; c == 0 short-circuits to 0.
  P.Body.push_back(
      sAssign(X, pBin(BinOpKind::And, pVar(C), pIndex(pVar(T), pInt(5)))));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 4));
  EXPECT_EQ(R.OkMass.concreteValue(), q(3, 4));
  EXPECT_EQ(*R.concreteValue(), q(0));
}

TEST(PsiIrTest, DivisionByZeroIsError) {
  PsiProgram P;
  unsigned B = P.addVar("b");
  unsigned Y = P.addVar("y");
  unsigned X = P.addVar("x");
  P.Body.push_back(sAssign(B, pFlip(pConst(q(1, 4)))));
  P.Body.push_back(sAssign(Y, pInt(0)));
  std::vector<PStmtPtr> Then;
  Then.push_back(sAssign(X, pBin(BinOpKind::Div, pInt(1), pVar(Y))));
  P.Body.push_back(sIf(pVar(B), std::move(Then)));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  PsiExactResult R = PsiExact(P).run();
  // The whole b == 1 branch (mass 1/4) fails; x stays 0 elsewhere.
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 4));
  EXPECT_EQ(R.OkMass.concreteValue(), q(3, 4));
  EXPECT_EQ(*R.concreteValue(), q(0));
}

TEST(PsiIrTest, TupleConditionIsError) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(1));
  Elems.push_back(pInt(2));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems))));
  std::vector<PStmtPtr> Then;
  Then.push_back(sAssign(X, pInt(1)));
  P.Body.push_back(sIf(pVar(T), std::move(Then)));
  P.Result = pVar(X);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
  EXPECT_TRUE(R.OkMass.isZero());
}

TEST(PsiIrTest, PushOntoScalarIsError) {
  PsiProgram P;
  unsigned S = P.addVar("s");
  P.Body.push_back(sAssign(S, pInt(3)));
  P.Body.push_back(sPushBack(S, pInt(1), -1));
  P.Result = pInt(1);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1));
  EXPECT_TRUE(R.OkMass.isZero());
}

/// q = ((1, 2), (3, 4)); x = q[0][Col].
PsiProgram nestedRead(int64_t Col) {
  PsiProgram P;
  unsigned Q = P.addVar("q");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Rows;
  for (int64_t Row = 0; Row < 2; ++Row) {
    std::vector<PExprPtr> Cells;
    Cells.push_back(pInt(2 * Row + 1));
    Cells.push_back(pInt(2 * Row + 2));
    Rows.push_back(pTuple(std::move(Cells)));
  }
  P.Body.push_back(sAssign(Q, pTuple(std::move(Rows))));
  P.Body.push_back(
      sAssign(X, pIndex(pIndex(pVar(Q), pInt(0)), pInt(Col))));
  P.Result = pVar(X);
  P.Kind = QueryKind::Expectation;
  return P;
}

TEST(PsiIrTest, NestedIndexReadsOneElement) {
  PsiProgram P = nestedRead(1);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_TRUE(R.ErrorMass.isZero());
  EXPECT_EQ(*R.concreteValue(), q(2));

  PsiProgram Bad = nestedRead(7);
  PsiExactResult RB = PsiExact(Bad).run();
  EXPECT_EQ(RB.ErrorMass.concreteValue(), q(1));
  EXPECT_TRUE(RB.OkMass.isZero());
}

TEST(PsiIrTest, BoundParameterIsConcrete) {
  // SymbolicComparisonSplits with P bound to 3: no split, one case.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned Param = P.Params.getOrAdd("P");
  P.ParamValues.assign(1, q(3));
  std::vector<PStmtPtr> Then, Else;
  Then.push_back(sAssign(X, pInt(1)));
  Else.push_back(sAssign(X, pInt(0)));
  P.Body.push_back(sIf(pBin(BinOpKind::Lt, pParam(Param), pInt(5)),
                       std::move(Then), std::move(Else)));
  P.Result = pBin(BinOpKind::Eq, pVar(X), pInt(1));
  PsiExactResult R = PsiExact(P).run();
  ASSERT_TRUE(R.QueryMass.isConcrete());
  EXPECT_EQ(R.cases().size(), 1u);
  EXPECT_EQ(*R.concreteValue(), q(1));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1));
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

TEST(PsiIrTest, PrinterShowsScheduleArms) {
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1, 0});
  unsigned X = P.VarNames.size() - 1;
  P.Body.push_back(scheduleStep(SchedulerKind::Weighted, {2}, 0, Queues, X));
  std::string Text = printPsiProgram(P);
  EXPECT_NE(Text.find("schedule weighted weights 2 {"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("when q1.length > 0 {"), std::string::npos) << Text;
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

// The arm transition cache: a `schedule` arm's run is memoized per (arm
// shape, blocks it touches) and replayed on later hits, with the same
// answers and work counts as running the arm.

/// Runs \p P with the arm cache on and off, expects identical masses and
/// work counts, and returns the cached run.
PsiExactResult runCacheBothWays(const PsiProgram &P) {
  PsiExactOptions Off;
  Off.TxCacheBytes = 0;
  PsiExactResult Plain = PsiExact(P, Off).run();
  PsiExactResult Cached = PsiExact(P).run();
  EXPECT_TRUE(Cached.QueryMass == Plain.QueryMass);
  EXPECT_TRUE(Cached.OkMass == Plain.OkMass);
  EXPECT_TRUE(Cached.ErrorMass == Plain.ErrorMass);
  EXPECT_EQ(Cached.BranchesExpanded, Plain.BranchesExpanded);
  EXPECT_EQ(Cached.MergeAttempts, Plain.MergeAttempts);
  EXPECT_EQ(Cached.MergeHits, Plain.MergeHits);
  EXPECT_EQ(Cached.BranchesParked, Plain.BranchesParked);
  EXPECT_EQ(Plain.TxHits + Plain.TxMisses, 0u);
  return Cached;
}

PsiProgram translatedProgram(const std::string &File) {
  DiagEngine Diags;
  auto Net = loadNetworkFile(std::string(BAYONET_EXAMPLES_DIR) + "/" + File,
                             Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  auto Psi = translateToPsi(Net->Spec, Diags);
  EXPECT_TRUE(Psi.has_value()) << Diags.toString();
  return std::move(*Psi);
}

TEST(PsiIrTest, ArmCacheHitsOnFigure2) {
  // The direct engine's TxCache replays figure2's node programs ~98% of
  // the time; the translated arms recur just as often.
  PsiExactResult R = runCacheBothWays(translatedProgram("figure2.bay"));
  EXPECT_EQ(R.concreteValue()->toString(), "30378810105265/67706637778944");
  ASSERT_GT(R.TxHits + R.TxMisses, 0u);
  EXPECT_GE(static_cast<double>(R.TxHits) /
                static_cast<double>(R.TxHits + R.TxMisses),
            0.9)
      << R.TxHits << " hits, " << R.TxMisses << " misses";
}

TEST(PsiIrTest, ArmCacheReplaysBothFlipOutcomes) {
  // repeat 2 { schedule { when q { y = flip(1/3) } } }. Iteration 1 misses
  // on y = 0 and records both outcomes; iteration 2 replays them on the
  // y = 0 branch (a hit) and records y = 1's. P(y = 1) is still 1/3 only
  // if the replay restores both outcomes with their weights.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1});
  unsigned Y = P.addVar("y");
  std::vector<PStmtPtr> Body;
  Body.push_back(sAssign(Y, pFlip(pConst(q(1, 3)))));
  std::vector<PStmtPtr> Arms;
  Arms.push_back(sArm(Queues[0], std::move(Body)));
  std::vector<PStmtPtr> Step;
  Step.push_back(sSchedule(SchedulerKind::Uniform, {}, 0, std::move(Arms)));
  P.Body.push_back(sRepeat(2, std::move(Step)));
  P.Result = pBin(BinOpKind::Eq, pVar(Y), pInt(1));
  PsiExactResult R = runCacheBothWays(P);
  EXPECT_EQ(*R.concreteValue(), q(1, 3));
  EXPECT_EQ(R.TxHits, 1u);
  EXPECT_EQ(R.TxMisses, 2u);
}

TEST(PsiIrTest, ArmCacheReplaysSymbolicRegions) {
  // figure2_symbolic's node programs split on a symbolic cost: replayed
  // outcomes carry their guards into the same three regions.
  PsiProgram P = translatedProgram("figure2_symbolic.bay");
  PsiExactResult R = runCacheBothWays(P);
  EXPECT_GT(R.TxHits, 0u);
  PsiExactOptions Off;
  Off.TxCacheBytes = 0;
  std::vector<ProbCase> Cached = R.cases(), Plain = PsiExact(P, Off).run().cases();
  ASSERT_EQ(Cached.size(), 3u);
  ASSERT_EQ(Plain.size(), 3u);
  for (size_t I = 0; I < Cached.size(); ++I) {
    EXPECT_TRUE(Cached[I].Region == Plain[I].Region) << I;
    EXPECT_EQ(Cached[I].Value, Plain[I].Value) << I;
  }
}

TEST(PsiIrTest, ArmCacheReplayedIdentityArmParks) {
  // x = flip(1/2), then two loops whose arms write only the dead slot t:
  // each iteration is the identity on the live slots. The two arms have
  // one shape, so the second loop's runs are hits, and the replayed runs
  // still park both branches after one iteration of repeat 1000.
  PsiProgram P;
  std::vector<unsigned> Queues = addQueues(P, {1});
  unsigned X = P.VarNames.size() - 1;
  unsigned T = P.addVar("t");
  P.Body.push_back(sAssign(X, pFlip(pConst(q(1, 2)))));
  for (int64_t Count : {1, 1000}) {
    std::vector<PStmtPtr> Body;
    Body.push_back(sAssign(T, pInt(5)));
    std::vector<PStmtPtr> Arms;
    Arms.push_back(sArm(Queues[0], std::move(Body)));
    std::vector<PStmtPtr> Step;
    Step.push_back(sSchedule(SchedulerKind::Uniform, {}, 0, std::move(Arms)));
    P.Body.push_back(sRepeat(Count, std::move(Step)));
  }
  P.Result = pVar(X);
  PsiExactResult R = runCacheBothWays(P);
  EXPECT_EQ(*R.concreteValue(), q(1, 2));
  EXPECT_EQ(R.TxHits, 2u);
  EXPECT_EQ(R.BranchesExpanded, 4u);
  EXPECT_EQ(R.BranchesParked, 4u);
}

} // namespace
