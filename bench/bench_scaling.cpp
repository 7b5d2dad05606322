//===- bench/bench_scaling.cpp - Section 5.4 network-size scaling ---------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Section 5.4 "Performance and Network Size" study as
/// per-size series: exact and approximate inference swept over network
/// sizes up to the paper's 30 nodes (the size covering 70% of the
/// production networks in the Internet Topology Zoo analysis the paper
/// cites), on three topology families: diamond chains (congestion and
/// reliability), rings, and complete-graph gossip.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "scenarios/Scenarios.h"
#include "support/Snapshot.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace bayonet;
using namespace bayonet::benchutil;

namespace {

/// The parallel lane count the scaling study compares against serial: at
/// least 2 so the sharded code path runs even on a single-core box.
unsigned scalingThreads() {
  return std::max(2u, ThreadPool::defaultThreads());
}

/// Runs the exact engine on \p Net with \p Threads lanes, returning the
/// wall-clock seconds and the rendered result value.
double timedExact(const LoadedNetwork &Net, unsigned Threads,
                  std::string &Value) {
  ExactOptions Opts;
  Opts.Threads = Threads;
  auto T0 = std::chrono::steady_clock::now();
  ExactResult R = ExactEngine(Net.Spec, Opts).run();
  double Secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  auto V = R.concreteValue();
  Value = V ? fmt(V->toDouble()) : "?";
  benchmark::DoNotOptimize(R);
  return Secs;
}

void BM_ReliabilityScaling(benchmark::State &State) {
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(Diamonds));
  unsigned Par = scalingThreads();
  std::string Serial, Parallel;
  double Secs1 = 0, SecsN = 0;
  for (auto _ : State) {
    Secs1 = timedExact(Net, 1, Serial);
    SecsN = timedExact(Net, Par, Parallel);
  }
  if (Parallel != Serial)
    Serial += " (PARALLEL MISMATCH: " + Parallel + ")";
  std::string Name =
      "reliability chain, " + std::to_string(4 * Diamonds + 2) + " nodes";
  addRow(Name, "exact", "(1-1/2000)^D", Serial, Secs1);
  addScalingRow(Name, 1, Secs1, Serial);
  addScalingRow(Name, Par, SecsN, Parallel);
}

void BM_CongestionScalingSmc(benchmark::State &State) {
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::congestionChain(Diamonds));
  double Value = 0, Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    SampleResult R = Sampler(Net.Spec).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    Value = R.Value;
    benchmark::DoNotOptimize(R);
  }
  addRow("congestion chain, " + std::to_string(4 * Diamonds + 2) + " nodes",
         "SMC-1000", "grows with size", fmt(Value), Secs);
}

void BM_RingScaling(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::ringReliability(N));
  unsigned Par = scalingThreads();
  std::string Serial, Parallel;
  double Secs1 = 0, SecsN = 0;
  for (auto _ : State) {
    Secs1 = timedExact(Net, 1, Serial);
    SecsN = timedExact(Net, Par, Parallel);
  }
  if (Parallel != Serial)
    Serial += " (PARALLEL MISMATCH: " + Parallel + ")";
  // Closed form (99/100)^(N-1).
  Rational Expected(1);
  for (unsigned I = 1; I < N; ++I)
    Expected *= Rational(BigInt(99), BigInt(100));
  std::string Name = "ring, " + std::to_string(N) + " nodes";
  addRow(Name, "exact", fmt(Expected.toDouble()), Serial, Secs1);
  addScalingRow(Name, 1, Secs1, Serial);
  addScalingRow(Name, Par, SecsN, Parallel);
}

void BM_StarScaling(benchmark::State &State) {
  unsigned Leaves = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::starIncast(Leaves));
  std::string Measured;
  double Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    auto V = R.concreteValue();
    Measured = V ? (V->toString() + " ~" + fmt(V->toDouble())) : "timeout";
    benchmark::DoNotOptimize(R);
  }
  addRow("star incast, " + std::to_string(Leaves) + " leaves", "exact",
         "<= leaves (queue drops)", Measured, Secs);
}

void BM_GossipScalingSmc(benchmark::State &State) {
  unsigned K = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::gossip(K));
  double Value = 0, Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    SampleResult R = Sampler(Net.Spec).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    Value = R.Value;
    benchmark::DoNotOptimize(R);
  }
  addRow("gossip, " + std::to_string(K) + " nodes", "SMC-1000",
         "~0.8*K infected", fmt(Value), Secs);
}

/// Measures what attaching a (never-tripping) budget tracker costs the
/// exact engine: the charging fast-path plus one checkpoint per scheduler
/// step. Target: under 2% against the ungoverned run (BENCH_budget.json).
void BM_GovernanceOverhead(benchmark::State &State) {
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(Diamonds));
  BudgetLimits Generous;
  Generous.MaxStates = uint64_t(1) << 40;
  Generous.MaxFrontier = uint64_t(1) << 40;
  Generous.MaxMerges = uint64_t(1) << 40;
  Generous.MaxBytes = uint64_t(1) << 50;
  Generous.MaxSchedSteps = uint64_t(1) << 40;
  std::string Ungoverned, Governed;
  double BestUn = 1e99, BestGov = 1e99;
  for (auto _ : State) {
    BestUn = std::min(BestUn, timedExact(Net, 1, Ungoverned));
    ExactOptions Opts;
    Opts.Threads = 1;
    Opts.Budget = std::make_shared<BudgetTracker>(Generous);
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    BestGov = std::min(
        BestGov,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count());
    auto V = R.concreteValue();
    Governed = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  if (Governed != Ungoverned)
    Ungoverned += " (GOVERNED MISMATCH: " + Governed + ")";
  std::string Name = "governance overhead, reliability " +
                     std::to_string(4 * Diamonds + 2) + " nodes";
  addRow(Name, "exact", "< 2% overhead", Ungoverned, BestGov);
  addBudgetRow(Name, BestUn, BestGov);
}

/// Median of \p V (destructive); 0 when empty.
double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// Cost of durable checkpointing on the exact hot path: the same workload
/// with no checkpointer and with a Checkpointer writing fsync'd snapshots
/// at the default `--checkpoint-every` stride (32). Each iteration times
/// the pair back-to-back and the row reports the median of the paired
/// differences against the median plain runtime: scheduling noise on a
/// shared box is several times the true cost, but it hits both halves of
/// a pair alike, so the paired median converges where min-of-iterations
/// (two independent minima) keeps bouncing. The answers must match
/// bit-for-bit — checkpointing must never perturb the run it protects.
/// Target: under 3% overhead (BENCH_snapshot.json).
void BM_CheckpointOverhead(benchmark::State &State) {
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(Diamonds));
  std::string SnapPath = outPath(".bench_checkpoint.snap");
  std::string Plain, Checkpointed;
  std::vector<double> PlainTimes, Deltas;
  uint64_t Writes = 0;
  for (auto _ : State) {
    double PlainSecs = timedExact(Net, 1, Plain);
    CheckpointOptions CO;
    CO.OutPath = SnapPath; // Every stays at the CLI default stride (32).
    ExactOptions Opts;
    Opts.Threads = 1;
    Opts.Checkpoint = std::make_shared<Checkpointer>(CO);
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    double CkSecs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    PlainTimes.push_back(PlainSecs);
    Deltas.push_back(CkSecs - PlainSecs);
    Writes = Opts.Checkpoint->writesDone();
    auto V = R.concreteValue();
    Checkpointed = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  std::remove(SnapPath.c_str());
  std::remove((SnapPath + ".prev").c_str());
  if (Checkpointed != Plain)
    Plain += " (CHECKPOINTED MISMATCH: " + Checkpointed + ")";
  double MedPlain = medianOf(std::move(PlainTimes));
  // A negative median difference means the cost is below the noise floor.
  double MedCk = MedPlain + std::max(0.0, medianOf(std::move(Deltas)));
  std::string Name = "checkpoint overhead, reliability " +
                     std::to_string(4 * Diamonds + 2) + " nodes";
  addRow(Name, "exact", "< 3% overhead", Plain, MedCk);
  addSnapshotRow(Name, MedPlain, MedCk, Writes);
}

// Cost of the observability layer on the exact hot path: the same
// workload with no ObsContext (every probe site is one null-check branch)
// and with tracing + metrics fully live. Serial, min-of-iterations, and
// the answers must match bit-for-bit — observation must never perturb.
void BM_ObsOverhead(benchmark::State &State) {
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(Diamonds));
  std::string Disabled, Enabled;
  double BestOff = 1e99, BestOn = 1e99;
  for (auto _ : State) {
    BestOff = std::min(BestOff, timedExact(Net, 1, Disabled));
    ExactOptions Opts;
    Opts.Threads = 1;
    Opts.Obs = std::make_shared<ObsContext>(true, true);
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    BestOn = std::min(
        BestOn,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count());
    auto V = R.concreteValue();
    Enabled = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  if (Enabled != Disabled)
    Disabled += " (OBSERVED MISMATCH: " + Enabled + ")";
  std::string Name = "obs overhead, reliability " +
                     std::to_string(4 * Diamonds + 2) + " nodes";
  addRow(Name, "exact", "< 5% enabled", Disabled, BestOn);
  addObsRow(Name, BestOff, BestOn);
}

/// Cost of the source-attributed cost profiler on the exact hot path.
/// Arg 0 ("off"): the same workload with no profiler vs an ObsContext
/// carrying no profiler either — the off path is one null-check branch
/// per charge site and must be free (~0%). Arg 1 ("on"): no profiler vs
/// the profiler fully live — attribution stack, per-lane shard charges
/// and serial drains. Paired median, same as
/// BM_CheckpointOverhead: each iteration times the pair back-to-back so
/// scheduling noise cancels. The answers must match bit-for-bit —
/// attribution must never perturb. Target: under 3% overhead with the
/// profiler on (BENCH_profile.json).
void BM_ProfileOverhead(benchmark::State &State) {
  bool ProfileOn = State.range(0) == 1;
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(10));
  std::string Plain, Profiled;
  std::vector<double> PlainTimes, Deltas;
  for (auto _ : State) {
    double PlainSecs = timedExact(Net, 1, Plain);
    ExactOptions Opts;
    Opts.Threads = 1;
    Opts.Obs = std::make_shared<ObsContext>(
        /*Trace=*/false, /*Metrics=*/false, /*Diag=*/false, ProfileOn);
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    double ProfSecs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    PlainTimes.push_back(PlainSecs);
    Deltas.push_back(ProfSecs - PlainSecs);
    auto V = R.concreteValue();
    Profiled = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  if (Profiled != Plain)
    Plain += " (PROFILED MISMATCH: " + Profiled + ")";
  double MedPlain = medianOf(std::move(PlainTimes));
  // A negative median difference means the cost is below the noise floor.
  double MedProf = MedPlain + std::max(0.0, medianOf(std::move(Deltas)));
  std::string Name =
      std::string("profile overhead ") + (ProfileOn ? "on" : "off") +
      ", reliability 42 nodes";
  addRow(Name, "exact", ProfileOn ? "< 3% overhead" : "~ 0% overhead",
         Plain, MedProf);
  addProfileRow(Name, ProfileOn ? "on" : "off", MedPlain, MedProf);
}

} // namespace

BENCHMARK(BM_ReliabilityScaling)
    ->DenseRange(1, 7)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CongestionScalingSmc)
    ->DenseRange(1, 7, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RingScaling)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StarScaling)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GossipScalingSmc)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Arg(20)
    ->Arg(25)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GovernanceOverhead)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObsOverhead)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointOverhead)
    ->Arg(10)
    ->MinTime(4.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProfileOverhead)
    ->DenseRange(0, 1)
    ->MinTime(4.0)
    ->Unit(benchmark::kMillisecond);

BAYONET_BENCH_MAIN("Section 5.4 scaling with network size")
