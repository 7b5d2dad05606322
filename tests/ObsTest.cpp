//===- tests/ObsTest.cpp - Observability layer ------------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability tests: histogram buckets folded from the run log follow
/// Prometheus `le` semantics exactly, the log restores robustly, the tracer
/// renders well-formed and well-nested Chrome-trace JSON with
/// deterministic span ids, and every counted quantity is bit-identical
/// across 1 / 2 / 8 worker threads and with observability on or off.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "scenarios/Scenarios.h"
#include "support/Snapshot.h"
#include "translate/Translator.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <vector>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return std::move(*Net);
}

/// Pulls every "key":<number> with the given key out of a JSON string, in
/// document order. Enough of a parser for the flat event objects the
/// tracer emits.
std::vector<uint64_t> jsonNumbers(const std::string &Json,
                                  const std::string &Key) {
  std::vector<uint64_t> Out;
  std::regex Re("\"" + Key + "\":([0-9]+)");
  for (auto It = std::sregex_iterator(Json.begin(), Json.end(), Re);
       It != std::sregex_iterator(); ++It)
    Out.push_back(std::stoull((*It)[1].str()));
  return Out;
}

/// Blanks the only nondeterministic fields (ts / dur, microseconds) so two
/// traces of the same run can be compared byte-for-byte.
std::string stripTimestamps(std::string Json) {
  Json = std::regex_replace(Json, std::regex("\"ts\":[0-9]+"), "\"ts\":T");
  return std::regex_replace(Json, std::regex("\"dur\":[0-9]+"), "\"dur\":D");
}

size_t countSubstr(const std::string &Hay, const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

//===----------------------------------------------------------------------===//
// Run log and its metric view
//===----------------------------------------------------------------------===//

namespace {

const MetricValue &snapshotOf(const std::vector<MetricValue> &Snap,
                              Metric M) {
  return Snap[static_cast<size_t>(M)];
}

/// A committed exact-engine row with the given frontier and wall ms.
BoundaryRow exactRow(uint64_t FrontierIn, double Ms = 0) {
  BoundaryRow R;
  R.Kind = EngineKind::Exact;
  R.FrontierIn = FrontierIn;
  R.Ms = Ms;
  return R;
}

} // namespace

TEST(Obs, HistogramBucketBoundaries) {
  // Frontier-size bounds: 1, 8, 64, ..., 2097152; step-duration bounds:
  // 0.1, 0.5, 2, ..., 5000 ms.
  RunLog Log;
  const std::pair<uint64_t, double> Rows[] = {
      {1, 0.05}, {8, 0.1}, {9, 0.3}, {3000000, 0.5}, {0, 0.6}, {2, 9000}};
  for (auto [Frontier, Ms] : Rows)
    Log.Rows.push_back(exactRow(Frontier, Ms));
  MetricTable T(Log);
  auto Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), NumMetrics);
  // Prometheus `le` semantics: a value equal to a bound lands IN that
  // bucket; anything above the last bound lands in +Inf.
  const MetricValue &F = snapshotOf(Snap, Metric::FrontierSize);
  ASSERT_EQ(F.BucketCounts.size(), 9u); // 8 finite + the +Inf bucket.
  EXPECT_EQ(F.BucketCounts[0], 2u);     // le=1: 0, 1 (== bound)
  EXPECT_EQ(F.BucketCounts[1], 4u);     // le=8: + 2, 8 (== bound)
  EXPECT_EQ(F.BucketCounts[2], 5u);     // le=64: + 9
  EXPECT_EQ(F.BucketCounts[7], 5u);     // le=2097152: nothing more
  EXPECT_EQ(F.BucketCounts[8], 6u);     // +Inf: + 3e6
  EXPECT_EQ(F.Value, 6u);
  EXPECT_EQ(T.value(Metric::FrontierSize), 6u);
  EXPECT_NEAR(F.Sum, 3000020.0, 1e-9);
  const MetricValue &D = snapshotOf(Snap, Metric::StepDurMs);
  EXPECT_EQ(D.BucketCounts,
            (std::vector<uint64_t>{2, 4, 5, 5, 5, 5, 5, 5, 6}));
  EXPECT_NEAR(D.Sum, 9001.55, 1e-9); // Micro-scaled, so exact to 1e-6.
  // Exact rows feed no SMC histogram.
  EXPECT_EQ(T.value(Metric::EssFraction), 0u);
  EXPECT_EQ(T.value(Metric::SchedSteps), 6u);
}

TEST(Obs, GaugeIsMaxOverRows) {
  RunLog Log;
  MetricTable T(Log);
  Log.Rows.push_back(exactRow(7));
  EXPECT_EQ(T.value(Metric::PeakFrontier), 7u);
  Log.Rows.push_back(exactRow(3)); // Lower: no effect.
  EXPECT_EQ(T.value(Metric::PeakFrontier), 7u);
  Log.Rows.push_back(exactRow(11));
  EXPECT_EQ(T.value(Metric::PeakFrontier), 11u);
  // PSI gauges the distribution a statement leaves, not the one entering.
  BoundaryRow Psi;
  Psi.Kind = EngineKind::Psi;
  Psi.FrontierIn = 50;
  Psi.FrontierOut = 12;
  Psi.TxBytes = 4096;
  Log.Rows.push_back(Psi);
  EXPECT_EQ(T.value(Metric::PeakFrontier), 12u);
  EXPECT_EQ(T.value(Metric::TxCacheBytes), 4096u);
}

TEST(Obs, RenderPromFormat) {
  RunLog Log;
  Log.Rows.push_back(exactRow(1, 0.5));
  Log.Rows.back().Expanded = 40;
  Log.Rows.push_back(exactRow(1, 9000));
  Log.Rows.back().Expanded = 2;
  std::string Prom = MetricTable(Log).renderProm({.Batches = 3, .Tasks = 9});
  EXPECT_EQ(Prom.rfind("# HELP bayonet_states_expanded_total NetConfig "
                       "states expanded by the exact engines\n"
                       "# TYPE bayonet_states_expanded_total counter\n"
                       "bayonet_states_expanded_total 42\n",
                       0),
            0u)
      << "metrics render in Metric order";
  EXPECT_NE(Prom.find("# TYPE bayonet_step_duration_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("bayonet_step_duration_ms_bucket{le=\"0.1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("bayonet_step_duration_ms_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("bayonet_step_duration_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("bayonet_step_duration_ms_sum 9000.5\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("bayonet_step_duration_ms_count 2\n"),
            std::string::npos);
  // The pool counters are passed in at render time.
  EXPECT_NE(Prom.find("bayonet_pool_batches_total 3\n"), std::string::npos);
  EXPECT_NE(Prom.find("bayonet_pool_tasks_total 9\n"), std::string::npos);
  EXPECT_EQ(countSubstr(Prom, "# HELP "), NumMetrics);
}

// A snapshot file is outside input. The run log's section round-trips
// byte for byte; every proper prefix of it, a row of an unknown engine
// family, and a row count the remaining bytes cannot hold are reported as
// corrupt, and leave the log empty.
TEST(Obs, RunLogRestoreRejectsTruncatedAndAbsurdSections) {
  RunLog Log;
  Log.CheckpointWrites = 2;
  Log.CheckpointBytes = 999;
  Log.BudgetTrips = 1;
  Log.Rows.push_back(exactRow(5, 1.25));
  Log.Rows.back().Expanded = 17;
  BoundaryRow Smc;
  Smc.Kind = EngineKind::Smc;
  Smc.Step = 3;
  Smc.Active = 100;
  Smc.Alive = 40;
  Smc.Resampled = true;
  Log.Rows.push_back(Smc);

  SnapWriter Full;
  Log.snapshotTo(Full);
  RunLog Copy;
  SnapReader CR(Full.buffer());
  ASSERT_TRUE(Copy.restoreFrom(CR));
  EXPECT_TRUE(CR.atEnd());
  SnapWriter Again;
  Copy.snapshotTo(Again);
  EXPECT_EQ(Again.buffer(), Full.buffer());
  EXPECT_EQ(MetricTable(Copy).renderProm(), MetricTable(Log).renderProm());

  for (size_t Len = 0; Len < Full.buffer().size(); ++Len) {
    RunLog Cut;
    SnapReader CutR(Full.buffer().data(), Len);
    EXPECT_FALSE(Cut.restoreFrom(CutR)) << "prefix of " << Len << " bytes";
    EXPECT_TRUE(Cut.Rows.empty());
    EXPECT_EQ(Cut.CheckpointWrites, 0u);
  }

  // The first row's engine-family byte follows four counters and the row
  // count.
  std::string BadKind = Full.buffer();
  BadKind[5 * 8] = 7;
  RunLog Bad;
  SnapReader BR(BadKind);
  EXPECT_FALSE(Bad.restoreFrom(BR));
  EXPECT_TRUE(Bad.Rows.empty());

  // A row count of 2^60 with a few bytes behind it is rejected before
  // anything is reserved (a reserve of that size would throw).
  SnapWriter Absurd;
  for (int I = 0; I < 4; ++I)
    Absurd.u64(0);
  Absurd.u64(uint64_t(1) << 60);
  Absurd.u64(0);
  RunLog Huge;
  SnapReader HR(Absurd.buffer());
  EXPECT_FALSE(Huge.restoreFrom(HR));
  EXPECT_TRUE(Huge.Rows.empty());
  EXPECT_EQ(Huge.Rows.capacity(), 0u);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Obs, TraceJsonSchemaAndNesting) {
  Tracer T;
  {
    Span Outer = T.span("outer");
    Outer.arg("k", std::string("v\"q"));
    {
      Span Inner = T.span("inner");
      T.event("tick", {{"n", "1"}});
    }
  }
  std::string Json = T.renderChromeJson();
  // Shape: one trace-events array, spans as "X" with dur, instants as "i".
  EXPECT_NE(Json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\\\"q"), std::string::npos); // Escaped quote in arg.
  // Nesting via span_id/parent_id (timestamp-free): outer is 1 under root
  // 0, inner is 2 under 1, the instant event reports parent 2.
  EXPECT_EQ(jsonNumbers(Json, "span_id"), (std::vector<uint64_t>{1, 2, 0}));
  EXPECT_EQ(jsonNumbers(Json, "parent_id"),
            (std::vector<uint64_t>{0, 1, 2}));
}

// The trace render is Trace Event JSON: events in begin order, so ts
// never goes backwards, and dur only on complete ("X") events.
TEST(Obs, ChromeTraceFormatSchema) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto Ctx = std::make_shared<ObsContext>(true, false);
  InferenceOptions Opts;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  ASSERT_TRUE(R.Status.ok());

  std::string Json = Ctx->tracer()->renderChromeJson();
  std::vector<uint64_t> Ts = jsonNumbers(Json, "ts");
  ASSERT_FALSE(Ts.empty());
  for (size_t I = 1; I < Ts.size(); ++I)
    EXPECT_LE(Ts[I - 1], Ts[I]);
  EXPECT_EQ(countSubstr(Json, "\"dur\":"),
            countSubstr(Json, "\"ph\":\"X\""));
}

//===----------------------------------------------------------------------===//
// End-to-end determinism
//===----------------------------------------------------------------------===//

namespace {

/// Runs the exact engine under a fresh metrics-only context and returns
/// (context, result). ParallelThreshold 1 forces the sharded path so the
/// thread count actually matters.
std::pair<std::shared_ptr<ObsContext>, ExactResult>
exactWithObs(const LoadedNetwork &Net, unsigned Threads) {
  auto Ctx = std::make_shared<ObsContext>(false, true);
  ExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1;
  Opts.Obs = Ctx;
  return {Ctx, ExactEngine(Net.Spec, Opts).run()};
}

/// Every deterministic engine metric (everything except the duration
/// histogram, whose bucket placement is wall-clock dependent).
std::string metricFingerprint(const ObsContext &Ctx) {
  std::string Out;
  for (const MetricValue &V : Ctx.metrics()->snapshot()) {
    if (V.Name == "bayonet_step_duration_ms" ||
        V.Name == "bayonet_pool_batches_total" ||
        V.Name == "bayonet_pool_tasks_total")
      continue; // Duration- or thread-count-dependent by design.
    Out += V.Name + "=" + std::to_string(V.Value);
    for (uint64_t B : V.BucketCounts)
      Out += "," + std::to_string(B);
    Out += ";";
  }
  return Out;
}

} // namespace

TEST(Obs, ExactCountersIdenticalAcrossThreadCounts) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto [Ctx1, R1] = exactWithObs(Net, 1);
  auto [Ctx2, R2] = exactWithObs(Net, 2);
  auto [Ctx8, R8] = exactWithObs(Net, 8);
  ASSERT_TRUE(R1.Status.ok());
  ASSERT_TRUE(R2.Status.ok());
  ASSERT_TRUE(R8.Status.ok());
  EXPECT_GT(Ctx1->metrics()->value(Metric::StatesExpanded), 0u);
  std::string F1 = metricFingerprint(*Ctx1);
  EXPECT_EQ(F1, metricFingerprint(*Ctx2));
  EXPECT_EQ(F1, metricFingerprint(*Ctx8));
  // The registry view agrees with the engine's own result statistics.
  EXPECT_EQ(Ctx1->metrics()->value(Metric::StatesExpanded),
            R1.ConfigsExpanded);
  EXPECT_EQ(Ctx1->metrics()->value(Metric::MergeHits), R1.MergeHits);
  EXPECT_EQ(Ctx1->metrics()->value(Metric::MergeAttempts),
            R1.MergeAttempts);
  EXPECT_GE(R1.MergeAttempts, R1.MergeHits);
  EXPECT_EQ(Ctx1->metrics()->value(Metric::PeakFrontier),
            R1.MaxFrontierSize);
}

TEST(Obs, AnswersIdenticalWithObsOnAndOff) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  ExactResult Plain = ExactEngine(Net.Spec).run();
  auto [Ctx, Observed] = exactWithObs(Net, 2);
  ASSERT_TRUE(Plain.Status.ok());
  ASSERT_TRUE(Observed.Status.ok());
  EXPECT_TRUE(Plain.QueryMass == Observed.QueryMass);
  EXPECT_EQ(Plain.ConfigsExpanded, Observed.ConfigsExpanded);
  EXPECT_EQ(Plain.MergeHits, Observed.MergeHits);
}

TEST(Obs, SamplerCountersIdenticalAcrossThreadCounts) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(1));
  auto run = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, true);
    SampleOptions Opts;
    Opts.Particles = 512;
    Opts.Seed = 7;
    Opts.Threads = Threads;
    Opts.Obs = Ctx;
    SampleResult R = Sampler(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx;
  };
  auto C1 = run(1), C2 = run(2), C8 = run(8);
  EXPECT_GT(C1->metrics()->value(Metric::Particles), 0u);
  std::string F1 = metricFingerprint(*C1);
  EXPECT_EQ(F1, metricFingerprint(*C2));
  EXPECT_EQ(F1, metricFingerprint(*C8));
}

// The --txcache {on, off} x --threads {1, 2, 8} matrix: metric
// fingerprints and trace shapes are byte-identical across thread counts
// within each cache mode, the cache-on runs surface nonzero hit counters
// and the txcache span, and the cache-off runs surface neither.
TEST(Obs, TxCacheMatrixCountersAndTraceShape) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto runWith = [&](uint64_t CacheBytes, unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(true, true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.TxCacheBytes = CacheBytes;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return std::make_pair(Ctx, R);
  };
  std::optional<Rational> Posterior;
  for (uint64_t CacheBytes : {uint64_t(0), TxCacheDefaultBytes}) {
    auto [Ctx1, R1] = runWith(CacheBytes, 1);
    std::string Metrics1 = metricFingerprint(*Ctx1);
    std::string Trace1 = stripTimestamps(Ctx1->tracer()->renderChromeJson());
    for (unsigned Threads : {2u, 8u}) {
      auto [Ctx, R] = runWith(CacheBytes, Threads);
      EXPECT_EQ(metricFingerprint(*Ctx), Metrics1)
          << "txcache=" << CacheBytes << " threads=" << Threads;
      EXPECT_EQ(stripTimestamps(Ctx->tracer()->renderChromeJson()), Trace1)
          << "txcache=" << CacheBytes << " threads=" << Threads;
    }
    // The posterior is identical across the cache modes too.
    ASSERT_TRUE(R1.concreteValue().has_value());
    if (!Posterior)
      Posterior = *R1.concreteValue();
    else
      EXPECT_EQ(*R1.concreteValue(), *Posterior);
    uint64_t Hits = Ctx1->metrics()->value(Metric::TxCacheHits);
    bool HasSpan =
        Trace1.find("\"name\":\"exact.txcache\"") != std::string::npos;
    if (CacheBytes) {
      EXPECT_GT(Hits, 0u);
      EXPECT_EQ(Hits, R1.TxHits);
      EXPECT_TRUE(HasSpan);
    } else {
      EXPECT_EQ(Hits, 0u);
      EXPECT_FALSE(HasSpan);
    }
  }
}

TEST(Obs, TraceShapeDeterministicAcrossRunsAndThreads) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto traceOf = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(true, false);
    InferenceOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs = Ctx;
    InferenceResult R = runInference(Net, Opts);
    EXPECT_TRUE(R.Status.ok());
    return stripTimestamps(Ctx->tracer()->renderChromeJson());
  };
  std::string A = traceOf(1);
  // Same event sequence, names, span ids, parents, args — byte for byte —
  // across a rerun and across thread counts.
  EXPECT_EQ(A, traceOf(1));
  EXPECT_EQ(A, traceOf(2));
  EXPECT_EQ(A, traceOf(8));
  EXPECT_NE(A.find("\"name\":\"inference\""), std::string::npos);
  EXPECT_NE(A.find("\"name\":\"exact.run\""), std::string::npos);
  EXPECT_NE(A.find("\"name\":\"exact.step\""), std::string::npos);
  EXPECT_NE(A.find("\"name\":\"exact.expand\""), std::string::npos);
  EXPECT_NE(A.find("\"name\":\"exact.merge\""), std::string::npos);

  // Same guarantee with the sharded path forced (ParallelThreshold 1):
  // the serial fused expand+merge emits the identical span pair the
  // two-phase parallel step does.
  auto forcedTraceOf = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(true, false);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return stripTimestamps(Ctx->tracer()->renderChromeJson());
  };
  std::string F = forcedTraceOf(1);
  EXPECT_EQ(F, forcedTraceOf(2));
  EXPECT_EQ(F, forcedTraceOf(8));
}

TEST(Obs, TranslatedEngineEmitsPsiSpans) {
  LoadedNetwork Net = load(scenarios::paperExample());
  auto Ctx = std::make_shared<ObsContext>(true, true);
  InferenceOptions Opts;
  Opts.Engine = EngineChoice::Translated;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  ASSERT_TRUE(R.Status.ok());
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_NE(Json.find("\"name\":\"translate\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"psi.run\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"psi.stmt\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"psi.round\""), std::string::npos);
  ASSERT_TRUE(R.Translated.has_value());
  EXPECT_EQ(Ctx->metrics()->value(Metric::StatesExpanded),
            R.Translated->BranchesExpanded);
  EXPECT_EQ(R.Spent.MergeAttempts, R.Translated->MergeAttempts);
}

TEST(Obs, SmcEmitsResampleSpansAndParticleCounters) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(2));
  auto Ctx = std::make_shared<ObsContext>(true, true);
  InferenceOptions Opts;
  Opts.Engine = EngineChoice::Smc;
  Opts.Particles = 256;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  ASSERT_TRUE(R.Status.ok());
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_NE(Json.find("\"name\":\"smc.run\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"smc.step\""), std::string::npos);
  EXPECT_GT(Ctx->metrics()->value(Metric::Particles), 0u);
}

TEST(Obs, BudgetTripBecomesEventCounterAndSpendField) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  auto Ctx = std::make_shared<ObsContext>(true, true);
  InferenceOptions Opts;
  Opts.Limits.MaxStates = 50;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  EXPECT_EQ(R.Status.Code, StatusCode::BudgetExceeded);
  EXPECT_EQ(R.Spent.TrippedBudget, "state");
  EXPECT_EQ(Ctx->metrics()->value(Metric::BudgetTrips), 1u);
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_NE(Json.find("\"name\":\"budget-trip\""), std::string::npos);
  EXPECT_NE(Json.find("\"class\":\"state\""), std::string::npos);
}

// A byte budget trips inside a step, on whichever lane charges past the
// limit. The API counts the trip once, on the serial thread after the run,
// so the metrics at 4 threads equal the serial run's.
TEST(Obs, ByteBudgetTripCountedOnceAtFourThreads) {
  struct Case {
    const char *Program;
    EngineChoice Engine;
    uint64_t MaxBytes;
  };
  const Case Cases[] = {{"gossip4.bay", EngineChoice::Exact, 2000000},
                        {"figure2.bay", EngineChoice::Translated, 500000}};
  for (const Case &C : Cases) {
    DiagEngine Diags;
    auto Net = loadNetworkFile(
        std::string(BAYONET_EXAMPLES_DIR) + "/" + C.Program, Diags);
    ASSERT_TRUE(Net.has_value()) << Diags.toString();
    auto fingerprintAt = [&](unsigned Threads) {
      auto Ctx = std::make_shared<ObsContext>(false, true);
      InferenceOptions Opts;
      Opts.Engine = C.Engine;
      Opts.Threads = Threads;
      Opts.Limits.MaxBytes = C.MaxBytes;
      Opts.Obs = Ctx;
      InferenceResult R = runInference(*Net, Opts);
      EXPECT_EQ(R.Spent.TrippedBudget, "byte") << C.Program;
      EXPECT_EQ(Ctx->metrics()->value(Metric::BudgetTrips), 1u)
          << C.Program << " threads=" << Threads;
      return metricFingerprint(*Ctx);
    };
    EXPECT_EQ(fingerprintAt(4), fingerprintAt(1)) << C.Program;
  }
}

TEST(Obs, FallbackEmitsEventAndCounter) {
  LoadedNetwork Net = load(scenarios::gossip(4));
  auto Ctx = std::make_shared<ObsContext>(true, true);
  InferenceOptions Opts;
  Opts.Limits.MaxStates = 50;
  Opts.OnBudgetExceeded = BudgetPolicy::FallbackSmc;
  Opts.Particles = 512;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  EXPECT_TRUE(R.FellBack);
  EXPECT_EQ(Ctx->metrics()->value(Metric::Fallbacks), 1u);
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_NE(Json.find("\"name\":\"fallback-smc\""), std::string::npos);
  // The fallback sampler reuses the same context: its spans follow.
  EXPECT_NE(Json.find("\"name\":\"smc.run\""), std::string::npos);
}

TEST(Obs, FrontendPhasesEmitSpans) {
  auto Ctx = std::make_shared<ObsContext>(true, false);
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::gossip(3), Diags, ObsHandle(Ctx));
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_NE(Json.find("\"name\":\"lex\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"check\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Inference-quality diagnostics
//===----------------------------------------------------------------------===//

// The headline diagnostics guarantee: the full DiagReport JSON — every
// per-step ESS, weight CV, frontier size, merge hit-rate, and warning
// line — is byte-identical at 1 / 2 / 8 threads, for both engine
// families, with the sharded path forced.
TEST(Obs, DiagReportByteIdenticalAcrossThreadCountsExact) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto diagOf = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };
  std::string D1 = diagOf(1);
  EXPECT_FALSE(D1.empty());
  EXPECT_NE(D1.find("\"engine\": \"exact\""), std::string::npos);
  EXPECT_NE(D1.find("\"exact_rounds\": ["), std::string::npos);
  EXPECT_EQ(D1, diagOf(2));
  EXPECT_EQ(D1, diagOf(8));
}

TEST(Obs, DiagReportByteIdenticalAcrossThreadCountsSmc) {
  LoadedNetwork Net = load(scenarios::reliabilityChain(2));
  auto diagOf = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    SampleOptions Opts;
    Opts.Particles = 512;
    Opts.Seed = 7;
    Opts.Threads = Threads;
    Opts.Obs = Ctx;
    SampleResult R = Sampler(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };
  std::string D1 = diagOf(1);
  EXPECT_NE(D1.find("\"engine\": \"smc\""), std::string::npos);
  EXPECT_NE(D1.find("\"smc_steps\": ["), std::string::npos);
  EXPECT_EQ(D1, diagOf(2));
  EXPECT_EQ(D1, diagOf(8));
}

// Turning the other exporters on or off must not perturb the diagnostics:
// all diag quantities are charged at the same serial points whether or not
// a tracer / metrics registry is attached.
TEST(Obs, DiagReportIdenticalWithOtherExportersOnOrOff) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto diagOf = [&](bool Trace, bool Metrics) {
    auto Ctx = std::make_shared<ObsContext>(Trace, Metrics, true);
    ExactOptions Opts;
    Opts.Threads = 2;
    Opts.ParallelThreshold = 1;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };
  std::string DiagOnly = diagOf(false, false);
  EXPECT_EQ(DiagOnly, diagOf(true, true));
  EXPECT_EQ(DiagOnly, diagOf(true, false));
}

// Degeneracy end to end: a peaked observation kills ~95% of the particles
// in one step, so the warning fires, the degeneracy counter ticks, and the
// resample count agrees between the report, the per-step series, and the
// smc.resample spans in the trace.
TEST(Obs, DegenerateSmcStepWarnsAndCountersAgree) {
  LoadedNetwork Net = load(testnets::PeakedDieNetwork);
  auto Ctx = std::make_shared<ObsContext>(true, true, true);
  SampleOptions Opts;
  Opts.Particles = 2000;
  Opts.Seed = 11;
  Opts.Obs = Ctx;
  SampleResult R = Sampler(Net.Spec, Opts).run();
  ASSERT_TRUE(R.Status.ok());

  DiagReport Rep = Ctx->diag()->report();
  EXPECT_LT(Rep.Summary.MinEssFraction, Ctx->diag()->essWarnFraction());
  ASSERT_FALSE(Rep.Summary.Warnings.empty());
  EXPECT_NE(Rep.Summary.Warnings.front().find("ESS fell to"),
            std::string::npos);

  uint64_t ResampledSteps = 0;
  for (const BoundaryRow &S : Rep.Rows)
    if (S.Kind == EngineKind::Smc && S.Resampled)
      ++ResampledSteps;
  EXPECT_GT(Rep.Summary.Resamples, 0u);
  EXPECT_EQ(Rep.Summary.Resamples, ResampledSteps);
  std::string Json = Ctx->tracer()->renderChromeJson();
  EXPECT_EQ(countSubstr(Json, "\"name\":\"smc.resample\""),
            Rep.Summary.Resamples);
  EXPECT_EQ(countSubstr(Json, "\"name\":\"diag.degeneracy\""),
            Ctx->metrics()->value(Metric::DegeneracySteps));
  EXPECT_GE(Ctx->metrics()->value(Metric::DegeneracySteps), 1u);
}

// The optional exact-vs-SMC cross-check: on a small network the budgeted
// exact reference run exists, so the TV divergence is reported and small.
TEST(Obs, CrossCheckTvDivergenceReportedAndSmall) {
  LoadedNetwork Net = load(testnets::CoinNetwork);
  auto Ctx = std::make_shared<ObsContext>(false, false, true);
  InferenceOptions Opts;
  Opts.Engine = EngineChoice::Smc;
  Opts.Particles = 20000;
  Opts.CrossCheckTv = true;
  Opts.Obs = Ctx;
  InferenceResult R = runInference(Net, Opts);
  ASSERT_TRUE(R.Status.ok());
  ASSERT_TRUE(R.Diagnostics.TvDivergence.has_value());
  EXPECT_GE(*R.Diagnostics.TvDivergence, 0.0);
  EXPECT_LT(*R.Diagnostics.TvDivergence, 0.05);
  EXPECT_EQ(R.Diagnostics.Engine, "smc");
}

//===----------------------------------------------------------------------===//
// The run log across a crash and a resume
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void removeSnapshot(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

/// Runs \p Net exact through the API, checkpointing every boundary to
/// \p Out (and resuming from \p Resume when set).
InferenceResult checkpointedRun(const LoadedNetwork &Net,
                                std::shared_ptr<ObsContext> Ctx,
                                const std::string &Out,
                                const std::string &Resume = "",
                                const std::string &Fault = "") {
  CheckpointOptions CO;
  CO.OutPath = Out;
  CO.ResumePath = Resume;
  CO.Fault = Fault;
  CO.Every = 1;
  InferenceOptions Opts;
  Opts.Obs = std::move(Ctx);
  Opts.Checkpoint = std::make_shared<Checkpointer>(CO);
  return runInference(Net, Opts);
}

} // namespace

// A run checkpointed with no exporter on still snapshots its run log, so a
// resume with metrics and diagnostics on reports the whole run: the same
// metric totals and DiagReport as a straight run with the same checkpoint
// configuration, not just the boundaries after the resume.
TEST(Obs, ResumeWithExportersAfterCheckpointWithoutReportsWholeRun) {
  DiagEngine Diags;
  auto Net = loadNetworkFile(
      std::string(BAYONET_EXAMPLES_DIR) + "/gossip4.bay", Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  const std::string Base = ::testing::TempDir() + "bayonet_obs_straight.snap";
  const std::string Path = ::testing::TempDir() + "bayonet_obs_resumed.snap";

  auto Straight = std::make_shared<ObsContext>(false, true, true);
  ASSERT_TRUE(checkpointedRun(*Net, Straight, Base).Status.ok());
  InferenceResult Dead =
      checkpointedRun(*Net, nullptr, Path, "", "crash-at-checkpoint=3");
  EXPECT_EQ(Dead.Status.Code, StatusCode::Internal);
  auto Resumed = std::make_shared<ObsContext>(false, true, true);
  InferenceResult R = checkpointedRun(*Net, Resumed, Path, Path);
  ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
  removeSnapshot(Base);
  removeSnapshot(Path);

  EXPECT_EQ(metricFingerprint(*Resumed), metricFingerprint(*Straight));
  EXPECT_EQ(Resumed->diag()->report().toJson(),
            Straight->diag()->report().toJson());
  EXPECT_EQ(Resumed->metrics()->value(Metric::StatesExpanded), 8080u);
  EXPECT_EQ(Resumed->metrics()->value(Metric::SchedSteps), 16u);
  EXPECT_EQ(Resumed->diag()->report().Rows.size(), 16u);
}

// Version 2 changed the common section's layout, so a version-1 file is
// refused by name and never parsed. The file here is a real snapshot
// relabelled version 1; its checksum covers only the payload, so it stays
// valid and the version is the only thing wrong with it.
TEST(Obs, SnapshotVersionOneIsRejected) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  const std::string Path = ::testing::TempDir() + "bayonet_obs_v1.snap";
  ASSERT_TRUE(checkpointedRun(Net, nullptr, Path).Status.ok());
  std::string File = readFile(Path);
  removeSnapshot(Path);
  ASSERT_GT(File.size(), 32u);
  ASSERT_EQ(File.substr(0, 12), std::string("BAYSNAP1\2\0\0\0", 12));
  File[8] = 1;
  uint64_t Sum = 0;
  for (int I = 7; I >= 0; --I)
    Sum = Sum << 8 | static_cast<unsigned char>(File[24 + I]);
  ASSERT_EQ(fnv1a(File.data() + 32, File.size() - 32), Sum);
  std::ofstream(Path, std::ios::binary) << File;

  InferenceResult R = checkpointedRun(Net, nullptr, "", Path);
  std::remove(Path.c_str());
  EXPECT_EQ(R.Status.Code, StatusCode::Invalid);
  EXPECT_NE(R.Status.Diagnostic.find(Path + ": unsupported snapshot version 1"),
            std::string::npos)
      << R.Status.Diagnostic;
}

//===----------------------------------------------------------------------===//
// Prometheus exposition conformance
//===----------------------------------------------------------------------===//

// Prometheus 0.0.4 conformance over a real run's full registry render:
// HELP escaping, HELP/TYPE preceding every sample family, cumulative
// nondecreasing buckets, and +Inf bucket == _count.
TEST(Obs, RenderPromConformance) {
  // Escaping first, on a metric we control.
  {
    MetricValue Esc;
    Esc.Name = "esc_total";
    Esc.Help = "line one\nline two \\ backslash";
    std::string Prom = renderProm({Esc});
    EXPECT_NE(Prom.find("# HELP esc_total line one\\nline two \\\\ "
                        "backslash\n"),
              std::string::npos);
    EXPECT_EQ(Prom.find("line one\nline"), std::string::npos)
        << "raw newline must not survive in HELP";
  }

  // Then the full engine table after a real run.
  LoadedNetwork Net = load(scenarios::gossip(3));
  auto [Ctx, R] = exactWithObs(Net, 2);
  ASSERT_TRUE(R.Status.ok());
  std::string Prom = Ctx->metrics()->renderProm();

  // Every family renders "# HELP name ..." then "# TYPE name kind", then
  // its samples; scan linewise.
  std::string PendingHelp, PendingType;
  size_t Families = 0;
  size_t Pos = 0;
  while (Pos < Prom.size()) {
    size_t Eol = Prom.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos) << "render must end in a newline";
    std::string Line = Prom.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.rfind("# HELP ", 0) == 0) {
      PendingHelp = Line.substr(7, Line.find(' ', 7) - 7);
      ++Families;
    } else if (Line.rfind("# TYPE ", 0) == 0) {
      PendingType = Line.substr(7, Line.find(' ', 7) - 7);
      EXPECT_EQ(PendingType, PendingHelp) << "TYPE follows its HELP";
    } else {
      ASSERT_FALSE(Line.empty());
      std::string Name = Line.substr(0, Line.find_first_of(" {"));
      EXPECT_EQ(Name.rfind(PendingType, 0), 0u)
          << "sample '" << Name << "' outside its TYPE'd family";
    }
  }
  EXPECT_GT(Families, 5u);

  // Histogram buckets are cumulative and end at +Inf == _count.
  for (const MetricValue &V : Ctx->metrics()->snapshot()) {
    if (V.BucketCounts.empty())
      continue;
    for (size_t I = 1; I < V.BucketCounts.size(); ++I)
      EXPECT_GE(V.BucketCounts[I], V.BucketCounts[I - 1]) << V.Name;
    EXPECT_EQ(V.BucketCounts.back(), V.Value)
        << V.Name << ": +Inf bucket must equal _count";
    std::string CountLine =
        V.Name + "_count " + std::to_string(V.Value) + "\n";
    EXPECT_NE(Prom.find(CountLine), std::string::npos);
    std::string InfLine =
        V.Name + "_bucket{le=\"+Inf\"} " + std::to_string(V.Value) + "\n";
    EXPECT_NE(Prom.find(InfLine), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Golden pin: engine boundary outputs
//===----------------------------------------------------------------------===//

// Every engine feeds its six sinks (budget, checkpoint, metrics, profiler,
// diagnostics, trace) at serial boundaries. These runs pin what those
// sinks end up holding — the timestamp-stripped trace, the metric
// fingerprint, the DiagReport JSON, and the canonical profile
// counts — byte for byte against files under tests/golden/, for a
// completed run, a budget-tripped run, a checkpointed run, and a
// cancelled checkpointed run of each engine. On a mismatch the actual
// output is written to golden.actual/ under the test's working directory;
// copying it over the golden file accepts an intended change.

namespace {

struct GoldenRun {
  const char *Name;
  const char *Program;
  EngineChoice Engine;
  uint64_t MaxStates = 0;
  uint64_t MaxBytes = 0;
  const char *Fault = "";
  bool Checkpoint = false;
};

std::string goldenOutputs(const GoldenRun &G) {
  DiagEngine Diags;
  auto Net = loadNetworkFile(
      std::string(BAYONET_EXAMPLES_DIR) + "/" + G.Program, Diags);
  if (!Net)
    return "load failed: " + Diags.toString();
  auto Ctx = std::make_shared<ObsContext>(true, true, true, true);
  InferenceOptions Opts;
  Opts.Engine = G.Engine;
  Opts.Threads = 1;
  Opts.Particles = 500;
  Opts.Seed = 7;
  Opts.Limits.MaxStates = G.MaxStates;
  Opts.Limits.MaxBytes = G.MaxBytes;
  Opts.Limits.Fault = G.Fault;
  Opts.Obs = Ctx;
  const std::string Snap =
      ::testing::TempDir() + "bayonet_golden_" + G.Name + ".snap";
  if (G.Checkpoint) {
    CheckpointOptions CO;
    CO.OutPath = Snap;
    CO.Every = 1;
    Opts.Checkpoint = std::make_shared<Checkpointer>(CO);
  }
  InferenceResult R = runInference(*Net, Opts);
  std::remove(Snap.c_str());
  std::remove((Snap + ".prev").c_str());
  return "status: " + R.Status.toString() + "\n== metrics ==\n" +
         metricFingerprint(*Ctx) + "\n== diag ==\n" +
         Ctx->diag()->report().toJson() + "\n== profile ==\n" +
         Ctx->profiler()->renderCanonicalCounts() + "== trace ==\n" +
         stripTimestamps(Ctx->tracer()->renderChromeJson()) + "\n";
}

void expectGolden(const GoldenRun &G) {
  const std::string Actual = goldenOutputs(G);
  const std::string File = std::string(G.Name) + ".txt";
  std::ifstream In(std::string(BAYONET_GOLDEN_DIR) + "/" + File);
  std::stringstream Expected;
  Expected << In.rdbuf();
  if (In && Expected.str() == Actual)
    return;
  std::filesystem::create_directories("golden.actual");
  std::ofstream("golden.actual/" + File) << Actual;
  ADD_FAILURE() << G.Name << ": output differs from tests/golden/" << File
                << "; actual written to golden.actual/" << File;
}

} // namespace

TEST(ObsGolden, ExactGossip) {
  expectGolden({"exact_gossip4", "gossip4.bay", EngineChoice::Exact});
}

TEST(ObsGolden, SmcGossip) {
  expectGolden({"smc_gossip4", "gossip4.bay", EngineChoice::Smc});
}

// Observations kill particles here, so the resample path is pinned too.
TEST(ObsGolden, SmcResampling) {
  expectGolden({"smc_reliability_bayes_13", "reliability_bayes_13.bay",
                EngineChoice::Smc});
}

TEST(ObsGolden, TranslatedFigure2) {
  expectGolden({"translated_figure2", "figure2.bay", EngineChoice::Translated});
}

// Budget trips: the byte budget stops the exact engines mid-step (the
// abort path restores the last boundary); the sampler charges its bytes at
// init, so its state budget trips at a step boundary instead.
TEST(ObsGolden, ExactBudgetTrip) {
  expectGolden({"budget_exact_gossip4", "gossip4.bay", EngineChoice::Exact, 0,
                2000000});
}

TEST(ObsGolden, SmcBudgetTrip) {
  expectGolden(
      {"budget_smc_gossip4", "gossip4.bay", EngineChoice::Smc, 3000});
}

TEST(ObsGolden, TranslatedBudgetTrip) {
  expectGolden({"budget_translated_figure2", "figure2.bay",
                EngineChoice::Translated, 0, 500000});
}

TEST(ObsGolden, ExactCheckpointEveryBoundary) {
  expectGolden({"checkpoint_exact_gossip4", "gossip4.bay", EngineChoice::Exact,
                0, 0, "", true});
}

TEST(ObsGolden, SmcCheckpointEveryBoundary) {
  expectGolden({"checkpoint_smc_gossip4", "gossip4.bay", EngineChoice::Smc, 0,
                0, "", true});
}

TEST(ObsGolden, TranslatedCheckpointEveryBoundary) {
  expectGolden({"checkpoint_translated_figure2", "figure2.bay",
                EngineChoice::Translated, 0, 0, "", true});
}

// A cancellation mid-step writes the final snapshot from the boundary mark.
TEST(ObsGolden, ExactCancelWritesFinalSnapshot) {
  expectGolden({"cancel_exact_gossip4", "gossip4.bay", EngineChoice::Exact, 0,
                0, "cancel-at-3000", true});
}

TEST(ObsGolden, SmcCancelWritesFinalSnapshot) {
  expectGolden({"cancel_smc_gossip4", "gossip4.bay", EngineChoice::Smc, 0, 0,
                "cancel-at-3000", true});
}

TEST(ObsGolden, TranslatedCancelWritesFinalSnapshot) {
  expectGolden({"cancel_translated_figure2", "figure2.bay",
                EngineChoice::Translated, 0, 0, "cancel-at-1000", true});
}
