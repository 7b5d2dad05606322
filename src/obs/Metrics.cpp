//===- obs/Metrics.cpp - The run log and its metric view ------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Diagnostics.h"
#include "support/Snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

using namespace bayonet;

namespace {

struct MetricDesc {
  const char *Name;
  const char *Help;
  MetricKind Kind;
  std::span<const double> Bounds = {}; ///< Histogram bucket upper bounds.
};

// Frontier sizes span a few states on toy programs to hundreds of
// thousands before a budget trips; step durations are sub-ms to seconds.
constexpr double SizeBounds[] = {1,    8,     64,     512,
                                 4096, 32768, 262144, 2097152};
constexpr double MsBounds[] = {0.1, 0.5, 2, 10, 50, 250, 1000, 5000};
// ESS fractions live in [0, 1]; bounds chosen so a degeneracy collapse
// (most mass below 0.1) is visible at a glance.
constexpr double FracBounds[] = {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1};

constexpr MetricKind Counter = MetricKind::Counter;
constexpr MetricKind Gauge = MetricKind::Gauge;
constexpr MetricKind Histogram = MetricKind::Histogram;

/// One row per Metric, in enum order.
constexpr MetricDesc Descs[NumMetrics] = {
    {"bayonet_states_expanded_total",
     "NetConfig states expanded by the exact engines", Counter},
    {"bayonet_merge_attempts_total",
     "State-merge table lookups during frontier folding", Counter},
    {"bayonet_merge_hits_total",
     "Merge lookups that coalesced into an existing state", Counter},
    {"bayonet_sched_steps_total", "Scheduler steps executed", Counter},
    {"bayonet_particles_total", "Particles advanced by the samplers", Counter},
    {"bayonet_resamples_total", "SMC resample generations triggered", Counter},
    {"bayonet_budget_trips_total", "Resource-budget violations recorded",
     Counter},
    {"bayonet_fallbacks_total", "Exact-to-SMC fallbacks taken", Counter},
    {"bayonet_peak_frontier_states", "Largest frontier size observed", Gauge},
    {"bayonet_frontier_size", "Frontier size per scheduler step", Histogram,
     SizeBounds},
    {"bayonet_step_duration_ms", "Wall milliseconds per scheduler step",
     Histogram, MsBounds},
    {"bayonet_pool_batches_total", "Thread-pool batches dispatched", Counter},
    {"bayonet_pool_tasks_total", "Thread-pool tasks executed", Counter},
    {"bayonet_smc_ess_fraction", "Per-step effective-sample-size fraction",
     Histogram, FracBounds},
    {"bayonet_degeneracy_steps_total",
     "SMC steps whose ESS fell below the degeneracy warning level", Counter},
    {"bayonet_txcache_hits_total",
     "Transition-cache hits (memoized node-program expansions replayed)",
     Counter},
    {"bayonet_txcache_misses_total",
     "Transition-cache misses (node-program expansions computed and staged)",
     Counter},
    {"bayonet_txcache_evictions_total",
     "Transition-cache entries evicted by the FIFO byte cap", Counter},
    {"bayonet_txcache_bytes", "Peak retained transition-cache bytes", Gauge},
    {"bayonet_intern_hits_total",
     "Intern-arena hits (blocks canonicalized to a published class)",
     Counter},
    {"bayonet_intern_misses_total",
     "Intern-arena misses (new content classes staged for publication)",
     Counter},
    {"bayonet_intern_evictions_total",
     "Intern-arena content classes evicted by the FIFO byte cap", Counter},
    {"bayonet_intern_bytes", "Peak retained intern-arena bytes", Gauge},
    {"bayonet_checkpoint_writes_total",
     "Durable snapshots written by the Checkpointer", Counter},
    {"bayonet_checkpoint_bytes_total",
     "Total snapshot bytes written by the Checkpointer", Counter},
};

/// Histogram sums are folded as micro-unit integers, which keeps six
/// fractional digits of millisecond latencies and makes the fold
/// independent of the order of the rows.
constexpr double SumScale = 1e6;

std::string fmtDouble(double V) {
  char Buf[64];
  if (V == static_cast<uint64_t>(V) && V < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// Prometheus text exposition 0.0.4: in HELP text, backslash and newline
/// must be escaped as `\\` and `\n`.
std::string escapeHelp(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

/// A row's counts, in snapshot order.
constexpr uint64_t BoundaryDelta::*RowCounts[] = {
    &BoundaryDelta::FrontierIn,      &BoundaryDelta::FrontierOut,
    &BoundaryDelta::Expanded,        &BoundaryDelta::MergeAttempts,
    &BoundaryDelta::MergeHits,       &BoundaryDelta::TxHits,
    &BoundaryDelta::TxMisses,        &BoundaryDelta::TxEvictions,
    &BoundaryDelta::TxBytes,         &BoundaryDelta::InternHits,
    &BoundaryDelta::InternMisses,    &BoundaryDelta::InternEvictions,
    &BoundaryDelta::InternBytes,     &BoundaryDelta::Active,
    &BoundaryDelta::Alive};

} // namespace

void RunLog::snapshotTo(SnapWriter &W) const {
  for (uint64_t V : {CheckpointWrites, CheckpointBytes, BudgetTrips, Fallbacks})
    W.u64(V);
  W.u64(Rows.size());
  for (const BoundaryRow &R : Rows) {
    W.u8(static_cast<uint8_t>(R.Kind));
    W.i64(R.Step);
    for (auto Count : RowCounts)
      W.u64(R.*Count);
    W.boolean(R.Resampled);
    W.f64(R.Ms);
  }
}

bool RunLog::restoreFrom(SnapReader &R) {
  // Encoded row size: kind, step, the counts, resampled, wall ms.
  constexpr uint64_t RowBytes = 1 + 8 + std::size(RowCounts) * 8 + 1 + 8;
  Rows.clear();
  for (uint64_t *V : {&CheckpointWrites, &CheckpointBytes, &BudgetTrips,
                      &Fallbacks})
    *V = R.u64();
  uint64_t N = R.u64();
  if (N > R.remaining() / RowBytes)
    R.fail(); // Also rejects an absurd count before anything is reserved.
  Rows.reserve(R.ok() ? N : 0);
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    BoundaryRow &Row = Rows.emplace_back();
    uint8_t Kind = R.u8();
    if (Kind > static_cast<uint8_t>(EngineKind::Smc))
      R.fail();
    Row.Kind = static_cast<EngineKind>(Kind);
    Row.Step = R.i64();
    for (auto Count : RowCounts)
      Row.*Count = R.u64();
    Row.Resampled = R.boolean();
    Row.Ms = R.f64();
  }
  if (R.ok())
    return true;
  *this = RunLog();
  return false;
}

std::vector<MetricValue>
MetricTable::snapshot(ThreadPool::PoolStats Pool) const {
  std::vector<MetricValue> Out(NumMetrics);
  for (size_t MI = 0; MI < NumMetrics; ++MI) {
    const MetricDesc &D = Descs[MI];
    Out[MI].Name = D.Name;
    Out[MI].Help = D.Help;
    Out[MI].Kind = D.Kind;
    Out[MI].BucketBounds.assign(D.Bounds.begin(), D.Bounds.end());
    if (D.Kind == MetricKind::Histogram)
      Out[MI].BucketCounts.assign(D.Bounds.size() + 1, 0);
  }
  auto at = [&](Metric M) -> MetricValue & {
    return Out[static_cast<size_t>(M)];
  };
  auto add = [&](Metric M, uint64_t N) { at(M).Value += N; };
  auto max = [&](Metric M, uint64_t V) {
    at(M).Value = std::max(at(M).Value, V);
  };
  uint64_t Micro[NumMetrics] = {};
  auto observe = [&](Metric M, double X) {
    // Prometheus `le` semantics: the value lands in the first bucket
    // whose bound is >= the value, or in +Inf past the last bound.
    MetricValue &V = at(M);
    size_t B = std::find_if(V.BucketBounds.begin(), V.BucketBounds.end(),
                            [X](double Bound) { return X <= Bound; }) -
               V.BucketBounds.begin();
    ++V.BucketCounts[B];
    ++V.Value;
    Micro[static_cast<size_t>(M)] +=
        X <= 0 ? 0 : static_cast<uint64_t>(std::llround(X * SumScale));
  };

  for (const BoundaryRow &R : Log.Rows) {
    add(Metric::StatesExpanded, R.Expanded);
    add(Metric::MergeAttempts, R.MergeAttempts);
    add(Metric::MergeHits, R.MergeHits);
    add(Metric::SchedSteps, 1);
    add(Metric::Particles, R.Active);
    add(Metric::Resamples, R.Resampled);
    add(Metric::TxCacheHits, R.TxHits);
    add(Metric::TxCacheMisses, R.TxMisses);
    add(Metric::TxCacheEvictions, R.TxEvictions);
    max(Metric::TxCacheBytes, R.TxBytes);
    add(Metric::InternHits, R.InternHits);
    add(Metric::InternMisses, R.InternMisses);
    add(Metric::InternEvictions, R.InternEvictions);
    max(Metric::InternBytes, R.InternBytes);
    if (R.Kind == EngineKind::Smc) {
      observe(Metric::EssFraction, Log.essFraction(R));
      add(Metric::DegeneracySteps, degenerate(Log, R));
    } else {
      // The exact engine gauges the frontier a round expands; PSI the
      // distribution a statement leaves.
      uint64_t F = R.Kind == EngineKind::Exact ? R.FrontierIn : R.FrontierOut;
      max(Metric::PeakFrontier, F);
      observe(Metric::FrontierSize, static_cast<double>(F));
    }
    observe(Metric::StepDurMs, R.Ms);
  }
  add(Metric::BudgetTrips, Log.BudgetTrips);
  add(Metric::Fallbacks, Log.Fallbacks);
  add(Metric::PoolBatches, Pool.Batches);
  add(Metric::PoolTasks, Pool.Tasks);
  add(Metric::CheckpointWrites, Log.CheckpointWrites);
  add(Metric::CheckpointBytes, Log.CheckpointBytes);

  for (size_t MI = 0; MI < NumMetrics; ++MI) {
    MetricValue &V = Out[MI];
    for (size_t B = 1; B < V.BucketCounts.size(); ++B)
      V.BucketCounts[B] += V.BucketCounts[B - 1];
    V.Sum = static_cast<double>(Micro[MI]) / SumScale;
  }
  return Out;
}

std::string bayonet::renderProm(const std::vector<MetricValue> &Values) {
  std::string Out;
  for (const MetricValue &V : Values) {
    Out += "# HELP " + V.Name + " " + escapeHelp(V.Help) + "\n";
    if (V.Kind != MetricKind::Histogram) {
      Out += "# TYPE " + V.Name +
             (V.Kind == MetricKind::Counter ? " counter\n" : " gauge\n");
      Out += V.Name + " " + std::to_string(V.Value) + "\n";
      continue;
    }
    Out += "# TYPE " + V.Name + " histogram\n";
    for (size_t I = 0; I < V.BucketCounts.size(); ++I) {
      std::string Le =
          I < V.BucketBounds.size() ? fmtDouble(V.BucketBounds[I]) : "+Inf";
      Out += V.Name + "_bucket{le=\"" + Le + "\"} " +
             std::to_string(V.BucketCounts[I]) + "\n";
    }
    Out += V.Name + "_sum " + fmtDouble(V.Sum) + "\n";
    Out += V.Name + "_count " + std::to_string(V.Value) + "\n";
  }
  return Out;
}
