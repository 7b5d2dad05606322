//===- tests/BudgetTest.cpp - Resource governance ---------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource-governance tests: every budget class trips deterministically on
/// Table 1 scenarios — the partial statistics an interrupted run reports
/// are bit-identical for 1, 2 and 8 worker threads — cancellation drains
/// in-flight pool workers without wedging the pool, the fallback policy
/// degrades exact inference to SMC within tolerance, and no failure on the
/// inference path escapes api/Bayonet as an exception.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "scenarios/Scenarios.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return std::move(*Net);
}

/// Everything an interrupted exact run reports that must not depend on the
/// worker count.
std::string exactFingerprint(const ExactResult &R, const ParamTable &Params) {
  return R.QueryMass.toString(Params) + "|" + R.OkMass.toString(Params) +
         "|" + R.ErrorMass.toString(Params) + "|" +
         std::to_string(R.ConfigsExpanded) + "|" +
         std::to_string(R.StepsUsed) + "|" +
         std::to_string(R.MaxFrontierSize) + "|" +
         std::to_string(R.MergeHits);
}

ExactResult exactGoverned(const LoadedNetwork &Net, const BudgetLimits &L,
                          unsigned Threads) {
  ExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1; // Force the sharded path for Threads > 1.
  Opts.Budget = std::make_shared<BudgetTracker>(L);
  return ExactEngine(Net.Spec, Opts).run();
}

TEST(Budget, ViolationRendering) {
  BudgetViolation V{BudgetClass::States, 120, 100};
  EXPECT_EQ(V.toString(), "state budget exceeded (observed 120, limit 100)");
  EngineStatus S;
  S.Code = StatusCode::BudgetExceeded;
  S.Violation = V;
  EXPECT_EQ(S.toString(),
            "budget exceeded: state budget exceeded (observed 120, limit "
            "100)");
  EXPECT_EQ(EngineStatus{}.toString(), "ok");
  EXPECT_EQ(EngineStatus::invalid("bad").toString(), "invalid input: bad");
}

// Each deterministic budget class trips on gossip(4) with the same
// violation and bit-identical partial statistics at 1, 2 and 8 threads.
TEST(Budget, ExactEveryClassTripsDeterministically) {
  struct Case {
    const char *Name;
    BudgetLimits Limits;
    BudgetClass Expected;
  };
  Case Cases[] = {
      {"states", {}, BudgetClass::States},
      {"frontier", {}, BudgetClass::Frontier},
      {"merges", {}, BudgetClass::Merges},
      {"bytes", {}, BudgetClass::Bytes},
      {"sched-steps", {}, BudgetClass::SchedSteps},
      {"injected-deadline", {}, BudgetClass::WallClock},
  };
  Cases[0].Limits.MaxStates = 50;
  Cases[1].Limits.MaxFrontier = 20;
  Cases[2].Limits.MaxMerges = 5;
  Cases[3].Limits.MaxBytes = 4000;
  Cases[4].Limits.MaxSchedSteps = 3;
  Cases[5].Limits.Fault = "deadline-at-40";

  LoadedNetwork Net = load(scenarios::gossip(4));
  for (const Case &C : Cases) {
    ExactResult Base = exactGoverned(Net, C.Limits, 1);
    ASSERT_EQ(Base.Status.Code, StatusCode::BudgetExceeded) << C.Name;
    EXPECT_EQ(Base.Status.Violation.Which, C.Expected) << C.Name;
    // A tripped run still reports how far it got.
    EXPECT_GT(Base.ConfigsExpanded, 0u) << C.Name;
    std::string BaseFp = exactFingerprint(Base, Net.Spec.Params);
    for (unsigned Threads : {2u, 8u}) {
      ExactResult R = exactGoverned(Net, C.Limits, Threads);
      ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded)
          << C.Name << " with " << Threads << " threads";
      EXPECT_EQ(R.Status.Violation.Which, C.Expected) << C.Name;
      EXPECT_EQ(exactFingerprint(R, Net.Spec.Params), BaseFp)
          << C.Name << " with " << Threads << " threads";
    }
  }
}

// A generous budget must not change the answer or the trajectory: the
// governed run is bit-identical to the ungoverned one.
TEST(Budget, GenerousBudgetIsTransparent) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  ExactOptions Plain;
  Plain.ParallelThreshold = 1;
  ExactResult Ungoverned = ExactEngine(Net.Spec, Plain).run();
  ASSERT_TRUE(Ungoverned.Status.ok());

  BudgetLimits Generous;
  Generous.MaxStates = 100000000;
  Generous.MaxFrontier = 100000000;
  Generous.MaxMerges = 100000000;
  Generous.MaxBytes = uint64_t(1) << 40;
  Generous.MaxSchedSteps = 100000000;
  ExactResult Governed = exactGoverned(Net, Generous, 1);
  ASSERT_TRUE(Governed.Status.ok()) << Governed.Status.toString();
  EXPECT_EQ(exactFingerprint(Governed, Net.Spec.Params),
            exactFingerprint(Ungoverned, Net.Spec.Params));
  ASSERT_TRUE(Governed.concreteValue().has_value());
  EXPECT_EQ(Governed.concreteValue()->toString(), "94/27");
  EXPECT_GE(Governed.WallMs, 0.0);
}

TEST(Budget, ExactCancellationStopsPromptlyAndPoolSurvives) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  // Already-cancelled token: the engine must stop at the first boundary.
  {
    CancelToken Tok;
    Tok.requestCancel();
    ExactOptions Opts;
    Opts.Threads = 8;
    Opts.ParallelThreshold = 1;
    Opts.Budget = std::make_shared<BudgetTracker>(BudgetLimits{}, Tok);
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    EXPECT_EQ(R.Status.Code, StatusCode::Cancelled);
    EXPECT_EQ(R.ConfigsExpanded, 0u);
  }
  // Cancel fault mid-batch: in-flight workers drain; the shared pool then
  // answers the next (ungoverned) query normally — no stuck workers.
  {
    BudgetLimits L;
    L.Fault = "cancel-at-40";
    ExactResult R = exactGoverned(Net, L, 8);
    EXPECT_EQ(R.Status.Code, StatusCode::Cancelled);
  }
  ExactOptions Plain;
  Plain.Threads = 8;
  Plain.ParallelThreshold = 1;
  ExactResult After = ExactEngine(Net.Spec, Plain).run();
  ASSERT_TRUE(After.Status.ok());
  ASSERT_TRUE(After.concreteValue().has_value());
  EXPECT_EQ(After.concreteValue()->toString(), "94/27");
}

// Cancellation wins over a tripped budget in the reported status.
TEST(Budget, CancelledBeatsBudgetExceeded) {
  BudgetLimits L;
  L.MaxStates = 10;
  CancelToken Tok;
  BudgetTracker T(L, Tok);
  T.chargeStates(20);
  EXPECT_FALSE(T.checkpoint(1));
  Tok.requestCancel();
  T.chargeStates(1);
  EXPECT_EQ(T.status().Code, StatusCode::Cancelled);
}

TEST(Budget, PsiExactStatesBudgetDeterministicAcrossThreads) {
  LoadedNetwork Net = load(scenarios::paperExample());
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();
  auto runWith = [&](unsigned Threads) {
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    BudgetLimits L;
    L.MaxStates = 200;
    Opts.Budget = std::make_shared<BudgetTracker>(L);
    return PsiExact(*Psi, Opts).run();
  };
  PsiExactResult Base = runWith(1);
  ASSERT_EQ(Base.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(Base.Status.Violation.Which, BudgetClass::States);
  EXPECT_GT(Base.BranchesExpanded, 0u);
  for (unsigned Threads : {2u, 8u}) {
    PsiExactResult R = runWith(Threads);
    ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded) << Threads;
    EXPECT_EQ(R.Status.Violation.Which, BudgetClass::States) << Threads;
    EXPECT_EQ(R.BranchesExpanded, Base.BranchesExpanded) << Threads;
    EXPECT_EQ(R.MaxDistSize, Base.MaxDistSize) << Threads;
    EXPECT_EQ(R.MergeHits, Base.MergeHits) << Threads;
    EXPECT_EQ(R.ErrorMass.toString(Net.Spec.Params),
              Base.ErrorMass.toString(Net.Spec.Params))
        << Threads;
  }
}

// PsiExact restarts its byte gauge at every scheduler iteration, like the
// direct engine at every step, so the gauge measures one iteration's
// distribution and a byte budget sized from it means the same at any
// iteration and any thread count.
TEST(Budget, PsiExactByteBudgetIsPerIteration) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();
  auto runWith = [&](unsigned Threads, const BudgetLimits &L,
                     BudgetSpend *Spent = nullptr) {
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.Budget = std::make_shared<BudgetTracker>(L);
    PsiExactResult R = PsiExact(*Psi, Opts).run();
    if (Spent)
      *Spent = Opts.Budget->spendSnapshot();
    return R;
  };
  auto Fingerprint = [&](const PsiExactResult &R) {
    return R.ErrorMass.toString(Net.Spec.Params) + "|" +
           std::to_string(R.BranchesExpanded) + "|" +
           std::to_string(R.MaxDistSize) + "|" +
           std::to_string(R.MergeAttempts) + "|" +
           std::to_string(R.MergeHits);
  };
  BudgetSpend Free;
  PsiExactResult Base = runWith(1, BudgetLimits{}, &Free);
  ASSERT_TRUE(Base.Status.ok()) << Base.Status.toString();
  ASSERT_GT(Free.PeakBytes, 0u);
  // The direct engine's gauge, also reset per step, on the same network:
  // per-iteration bytes are of the same order, not the sum over a loop.
  ExactOptions EOpts;
  EOpts.Budget = std::make_shared<BudgetTracker>();
  ASSERT_TRUE(ExactEngine(Net.Spec, EOpts).run().Status.ok());
  EXPECT_LE(Free.PeakBytes, 2 * EOpts.Budget->spendSnapshot().PeakBytes);

  BudgetLimits Roomy;
  Roomy.MaxBytes = 4 * Free.PeakBytes;
  PsiExactResult Fits = runWith(1, Roomy);
  ASSERT_TRUE(Fits.Status.ok()) << Fits.Status.toString();
  EXPECT_TRUE(Fits.QueryMass == Base.QueryMass);
  EXPECT_EQ(Fingerprint(Fits), Fingerprint(Base));

  BudgetLimits Tight;
  Tight.MaxBytes = Free.PeakBytes / 2;
  PsiExactResult Tripped = runWith(1, Tight);
  ASSERT_EQ(Tripped.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(Tripped.Status.Violation.Which, BudgetClass::Bytes);
  EXPECT_GT(Tripped.BranchesExpanded, 0u);
  EXPECT_LT(Tripped.BranchesExpanded, Base.BranchesExpanded);
  for (unsigned Threads : {2u, 8u}) {
    PsiExactResult R = runWith(Threads, Tight);
    ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded) << Threads;
    EXPECT_EQ(R.Status.Violation.Which, BudgetClass::Bytes) << Threads;
    EXPECT_EQ(Fingerprint(R), Fingerprint(Tripped)) << Threads;
  }

  // The engine's own distribution cap trips at an iteration boundary with
  // a typed status.
  PsiExactOptions Capped;
  Capped.Threads = 1;
  Capped.MaxDist = Base.MaxDistSize / 2;
  PsiExactResult R = PsiExact(*Psi, Capped).run();
  ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(R.Status.Violation.Which, BudgetClass::Frontier);
  EXPECT_GT(R.Status.Violation.Observed, Capped.MaxDist);
  EXPECT_TRUE(R.QueryUnsupported);
}

TEST(Budget, SamplerSchedStepBudgetDeterministicAcrossThreads) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(2));
  auto runWith = [&](unsigned Threads) {
    SampleOptions Opts;
    Opts.Particles = 200;
    Opts.Seed = 42;
    Opts.Threads = Threads;
    BudgetLimits L;
    L.MaxSchedSteps = 5;
    Opts.Budget = std::make_shared<BudgetTracker>(L);
    return Sampler(Net.Spec, Opts).run();
  };
  SampleResult Base = runWith(1);
  ASSERT_EQ(Base.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(Base.Status.Violation.Which, BudgetClass::SchedSteps);
  // The budget trips once the counter *exceeds* the limit, at the next
  // boundary: 6 steps run under a limit of 5.
  EXPECT_EQ(Base.StepsRun, 6);
  for (unsigned Threads : {2u, 8u}) {
    SampleResult R = runWith(Threads);
    ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded) << Threads;
    EXPECT_EQ(R.StepsRun, Base.StepsRun) << Threads;
    // The partial estimate aggregates the boundary population, which is
    // bit-identical for any worker count.
    EXPECT_EQ(R.Value, Base.Value) << Threads;
    EXPECT_EQ(R.Survivors, Base.Survivors) << Threads;
    EXPECT_EQ(R.ErrorFraction, Base.ErrorFraction) << Threads;
  }
}

TEST(Budget, SamplerCancelFaultDrainsWorkers) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(2));
  SampleOptions Opts;
  Opts.Particles = 500;
  Opts.Seed = 7;
  Opts.Threads = 8;
  BudgetLimits L;
  L.Fault = "cancel-at-100";
  Opts.Budget = std::make_shared<BudgetTracker>(L);
  SampleResult R = Sampler(Net.Spec, Opts).run();
  EXPECT_EQ(R.Status.Code, StatusCode::Cancelled);
  // The pool is still healthy.
  SampleOptions Plain;
  Plain.Particles = 100;
  Plain.Seed = 7;
  Plain.Threads = 8;
  SampleResult After = Sampler(Net.Spec, Plain).run();
  EXPECT_TRUE(After.Status.ok());
}

// The tentpole's degradation path: exact inference trips its state budget
// on the reliability chain, and the API returns an SMC estimate within
// sampling tolerance of the closed form (1 - 1/2000)^2, attributed to the
// fallback engine.
TEST(Budget, FallbackToSmcWithinTolerance) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(2));
  InferenceOptions Opts;
  Opts.Engine = EngineChoice::Exact;
  Opts.Particles = 4000;
  Opts.Seed = 9;
  Opts.Limits.MaxStates = 20;
  Opts.OnBudgetExceeded = BudgetPolicy::FallbackSmc;
  InferenceResult R = runInference(Net, Opts);
  ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
  EXPECT_TRUE(R.FellBack);
  EXPECT_EQ(R.EngineUsed, EngineChoice::Smc);
  EXPECT_EQ(R.ExactStatus.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(R.ExactStatus.Violation.Which, BudgetClass::States);
  ASSERT_TRUE(R.Sampled.has_value());
  double Expected = std::pow(1.0 - 1.0 / 2000.0, 2);
  EXPECT_NEAR(R.Sampled->Value, Expected, 0.01);
  // The spend report covers the failed exact attempt too.
  EXPECT_GT(R.Spent.StatesExpanded, 20u);
}

TEST(Budget, FailPolicyReportsTheViolation) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  InferenceOptions Opts;
  Opts.Limits.MaxStates = 50;
  InferenceResult R = runInference(Net, Opts);
  EXPECT_EQ(R.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(R.Status.Violation.Which, BudgetClass::States);
  EXPECT_FALSE(R.FellBack);
  ASSERT_TRUE(R.Exact.has_value());
  EXPECT_GT(R.Exact->ConfigsExpanded, 0u);
}

// Cancellation never degrades to the fallback: a user who cancelled wants
// no answer, not a cheaper one.
TEST(Budget, CancellationDoesNotFallBack) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  InferenceOptions Opts;
  Opts.OnBudgetExceeded = BudgetPolicy::FallbackSmc;
  Opts.Cancel.requestCancel();
  InferenceResult R = runInference(Net, Opts);
  EXPECT_EQ(R.Status.Code, StatusCode::Cancelled);
  EXPECT_FALSE(R.FellBack);
}

// An untranslatable program surfaces as a typed Invalid status with the
// translator's diagnostic — not as an exception. The checker rejects every
// such program, so the query is edited after checking: a random draw in a
// query has no translation.
TEST(Budget, UntranslatableProgramIsInvalidNotThrow) {
  LoadedNetwork Net = load(scenarios::paperExample());
  QueryDecl &Q = Net.File->Queries.front();
  Q.Body = std::make_unique<FlipExpr>(std::move(Q.Body), Q.Loc);
  InferenceOptions Opts;
  Opts.Engine = EngineChoice::Translated;
  InferenceResult R = runInference(Net, Opts);
  EXPECT_EQ(R.Status.Code, StatusCode::Invalid);
  EXPECT_NE(R.Status.Diagnostic.find("not allowed in a query"),
            std::string::npos)
      << R.Status.Diagnostic;
}

TEST(Budget, DeadlineTripsAfterItPasses) {
  BudgetLimits L;
  L.DeadlineMs = 1;
  BudgetTracker T(L);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(T.remainingMs(), 0);
  EXPECT_FALSE(T.checkpoint(1));
  EXPECT_EQ(T.status().Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(T.status().Violation.Which, BudgetClass::WallClock);
  EXPECT_TRUE(BudgetTracker().remainingMs() == -1) << "no deadline set";
}

// A real (not injected) deadline interrupts exact inference; gossip(4)
// takes orders of magnitude longer than 1 ms, so this cannot flake fast.
TEST(Budget, RealDeadlineTripsOnExact) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  BudgetLimits L;
  L.DeadlineMs = 1;
  ExactResult R = exactGoverned(Net, L, 2);
  ASSERT_EQ(R.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(R.Status.Violation.Which, BudgetClass::WallClock);
  EXPECT_GE(R.Status.Violation.Observed, 1u);
}

TEST(Budget, OomFaultTripsByteBudget) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  BudgetLimits L;
  L.Fault = "oom-at-30";
  ExactResult Base = exactGoverned(Net, L, 1);
  ASSERT_EQ(Base.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(Base.Status.Violation.Which, BudgetClass::Bytes);
  EXPECT_EQ(Base.Status.Violation.Limit, 0u) << "fault-injected, no limit";
  std::string BaseFp = exactFingerprint(Base, Net.Spec.Params);
  for (unsigned Threads : {2u, 8u}) {
    ExactResult R = exactGoverned(Net, L, Threads);
    EXPECT_EQ(exactFingerprint(R, Net.Spec.Params), BaseFp) << Threads;
  }
}

} // namespace
