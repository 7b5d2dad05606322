//===- obs/Metrics.h - The run log and its metric view ----------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a run did, kept once: the RunLog holds one row per committed
/// boundary (appended by Boundary::commit, on the serial thread) and the
/// few run-level counters charged outside the engines — checkpoint writes,
/// budget trips, fallbacks. The snapshot stores the log; every export is a
/// view of it. This file holds the Prometheus view: a fixed list of
/// counters, gauges and fixed-bucket histograms, folded from the log when
/// it is read.
///
/// Every counted quantity is a pure function of the committed rows, so as
/// long as the engines commit a thread-count-independent row sequence
/// (they do — see docs/IMPLEMENTATION.md §7), counter and histogram values
/// are bit-identical for every thread count. Only durations may vary.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_METRICS_H
#define BAYONET_OBS_METRICS_H

#include "support/ThreadPool.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bayonet {

class SnapReader;
class SnapWriter;

/// The engine families, which differ in their span names, profiler frame
/// layout and diagnostics series.
enum class EngineKind : uint8_t { Exact, Psi, Smc };

/// What one completed boundary did. Counts are deltas over the boundary;
/// the byte fields are the retained totals after it.
struct BoundaryDelta {
  int64_t Step = 0; ///< Scheduler step / top-level statement index.
  uint64_t FrontierIn = 0, FrontierOut = 0;
  uint64_t Expanded = 0, MergeAttempts = 0, MergeHits = 0;
  uint64_t TxHits = 0, TxMisses = 0, TxEvictions = 0, TxBytes = 0;
  uint64_t InternHits = 0, InternMisses = 0, InternEvictions = 0;
  uint64_t InternBytes = 0;
  uint64_t Active = 0, Alive = 0; ///< SMC: particles stepped / surviving.
  bool Resampled = false;
  /// PSI: the profiler frame of the statement this boundary completed
  /// (Profiler::InvalidSlot: none). Consumed at commit; not snapshotted.
  uint32_t ProfSlot = UINT32_MAX;

  /// The delta between two cumulative counter snapshots: the counts
  /// subtract, every other field is the later snapshot's.
  friend BoundaryDelta operator-(BoundaryDelta After,
                                 const BoundaryDelta &Before) {
    After.Expanded -= Before.Expanded;
    After.MergeAttempts -= Before.MergeAttempts;
    After.MergeHits -= Before.MergeHits;
    After.TxHits -= Before.TxHits;
    After.TxMisses -= Before.TxMisses;
    After.TxEvictions -= Before.TxEvictions;
    After.InternHits -= Before.InternHits;
    After.InternMisses -= Before.InternMisses;
    After.InternEvictions -= Before.InternEvictions;
    return After;
  }
};

/// One committed boundary: its delta, the engine family that committed it
/// and the step's wall milliseconds.
struct BoundaryRow : BoundaryDelta {
  EngineKind Kind = EngineKind::Exact;
  double Ms = 0;
};

/// Everything one run committed. Rows and counters are snapshotted; the
/// run facts are set by the engine that is running (at attach and at the
/// end), so a resume sets them again.
struct RunLog {
  std::vector<BoundaryRow> Rows;
  uint64_t CheckpointWrites = 0, CheckpointBytes = 0;
  uint64_t BudgetTrips = 0, Fallbacks = 0;

  std::string Engine;     ///< Last engine attached ("exact", "smc", ...).
  uint64_t Particles = 0; ///< Sampler population (0: none ran).
  uint64_t Support = 0;   ///< Terminal support / surviving particles.
  std::optional<double> Residual; ///< Observe-discarded mass (exact).
  std::optional<double> Tv;       ///< Exact-vs-SMC cross-check.

  /// An SMC row's surviving fraction of the population. Hard observes give
  /// 0/1 weights, so the effective sample size is the survivor count.
  double essFraction(const BoundaryRow &R) const {
    return Particles ? static_cast<double>(R.Alive) /
                           static_cast<double>(Particles)
                     : 0.0;
  }

  /// Serializes the rows and counters (checkpoint support).
  void snapshotTo(SnapWriter &W) const;
  /// Replaces the rows and counters with a checkpointed section. The
  /// section is outside input: returns false, leaving them empty, on a
  /// corrupt or truncated one.
  bool restoreFrom(SnapReader &R);
};

/// Every engine metric, in exposition order.
enum class Metric : uint8_t {
  StatesExpanded,   ///< Counter: NetConfig states expanded (exact).
  MergeAttempts,    ///< Counter: state-merge lookups.
  MergeHits,        ///< Counter: lookups that coalesced a state.
  SchedSteps,       ///< Counter: scheduler steps executed.
  Particles,        ///< Counter: particles advanced (sampling).
  Resamples,        ///< Counter: SMC resample generations.
  BudgetTrips,      ///< Counter: budget violations recorded.
  Fallbacks,        ///< Counter: exact→SMC fallbacks taken.
  PeakFrontier,     ///< Gauge (max): largest frontier seen.
  FrontierSize,     ///< Histogram: frontier size per sched step.
  StepDurMs,        ///< Histogram: wall ms per sched step.
  PoolBatches,      ///< Counter: thread-pool batches dispatched.
  PoolTasks,        ///< Counter: thread-pool tasks executed.
  EssFraction,      ///< Histogram: per-step ESS / population.
  DegeneracySteps,  ///< Counter: steps with ESS below warn level.
  TxCacheHits,      ///< Counter: transition-cache expansion hits.
  TxCacheMisses,    ///< Counter: transition-cache expansion misses.
  TxCacheEvictions, ///< Counter: transition-cache FIFO evictions.
  TxCacheBytes,     ///< Gauge (max): retained transition-cache bytes.
  InternHits,       ///< Counter: intern-arena canonicalization hits.
  InternMisses,     ///< Counter: intern-arena canonicalization misses.
  InternEvictions,  ///< Counter: intern-arena FIFO evictions.
  InternBytes,      ///< Gauge (max): retained intern-arena bytes.
  CheckpointWrites, ///< Counter: durable snapshots written.
  CheckpointBytes,  ///< Counter: total snapshot bytes written.
};

inline constexpr size_t NumMetrics =
    static_cast<size_t>(Metric::CheckpointBytes) + 1;

/// What a metric means, for the text exposition.
enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// Value of one metric at snapshot time.
struct MetricValue {
  std::string Name;
  std::string Help;
  MetricKind Kind = MetricKind::Counter;
  uint64_t Value = 0; ///< Counter total / gauge value / histogram count.
  /// Histogram only: cumulative counts per bucket (Prometheus `le`
  /// semantics, value <= bound), the +Inf bucket last.
  std::vector<uint64_t> BucketCounts;
  std::vector<double> BucketBounds;
  double Sum = 0; ///< Histogram only: sum of observed values.
};

/// Prometheus text exposition 0.0.4 (HELP/TYPE comments + samples).
std::string renderProm(const std::vector<MetricValue> &Values);

/// The metric view of a run log: counter sums, gauge maxima and histogram
/// buckets, folded from the rows each time it is read.
class MetricTable {
public:
  explicit MetricTable(const RunLog &Log) : Log(Log) {}

  /// Every metric, in Metric order. The pool dispatch counters are
  /// process-global, not part of the run, so the caller passes them in.
  std::vector<MetricValue> snapshot(ThreadPool::PoolStats Pool = {}) const;

  /// Value of one counter/gauge (histograms: total count).
  uint64_t value(Metric M) const {
    return snapshot()[static_cast<size_t>(M)].Value;
  }

  std::string renderProm(ThreadPool::PoolStats Pool = {}) const {
    return bayonet::renderProm(snapshot(Pool));
  }

private:
  const RunLog &Log;
};

} // namespace bayonet

#endif // BAYONET_OBS_METRICS_H
