//===- obs/Metrics.h - The engine metric table -----------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine metrics: a fixed list of monotonic counters, gauges and
/// fixed-bucket histograms, kept as a plain table of integer slots. Every
/// charge runs on the serial thread — the engines charge at their step
/// boundaries (obs/Boundary.h), the API charges budget trips and
/// fallbacks after the engine returns, the Checkpointer charges its
/// writes — so the table needs no atomics and no locks.
///
/// Everything counted here is a pure sum of per-boundary charges, so as
/// long as the engines charge a thread-count-independent event set (they
/// do — see docs/IMPLEMENTATION.md §7), counter and histogram values are
/// bit-identical for every thread count. Only durations may vary.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_METRICS_H
#define BAYONET_OBS_METRICS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace bayonet {

class SnapReader;
class SnapWriter;

/// Every engine metric, in exposition and snapshot order.
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

/// One run's metric values. Counters and gauges own one slot; a histogram
/// owns one slot per bucket, one +Inf slot and one micro-scaled sum slot.
class MetricTable {
public:
  /// Slots of the whole table: 22 scalars plus three histograms of eight
  /// finite buckets (ten slots each).
  static constexpr size_t NumSlots = 52;

  /// Adds \p N to a counter.
  void add(Metric M, uint64_t N = 1);
  /// Sets a counter or gauge.
  void set(Metric M, uint64_t V);
  /// Raises a gauge to at least \p V.
  void max(Metric M, uint64_t V);
  /// Records one histogram observation. Prometheus `le` semantics: the
  /// value lands in the first bucket whose bound is >= the value.
  void observe(Metric M, double V);

  /// Value of one counter/gauge (histograms: total count).
  uint64_t value(Metric M) const;

  /// Every metric, in Metric order.
  std::vector<MetricValue> snapshot() const;

  std::string renderProm() const { return bayonet::renderProm(snapshot()); }

  /// Serializes every metric's raw integer slots by name — exact
  /// integers, so restore + re-snapshot is byte-stable. Checkpoint support
  /// (support/Snapshot.h).
  void snapshotTo(SnapWriter &W) const;

  /// Installs checkpointed slots by name lookup: the snapshot is outside
  /// input, so unknown names are skipped and slots beyond a metric's own
  /// are dropped. Returns false on a corrupt or truncated section.
  bool restoreFrom(SnapReader &R);

private:
  std::array<uint64_t, NumSlots> Slots{};
};

} // namespace bayonet

#endif // BAYONET_OBS_METRICS_H
