//===- obs/Obs.h - Observability context and engine handle ------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the engines and the observability primitives. An
/// ObsContext owns an optional Tracer and an optional MetricsRegistry and
/// pre-registers the engine metric set; engines receive it through their
/// options as `std::shared_ptr<ObsContext>` (mirroring BudgetTracker from
/// the budget layer) and charge it through ObsHandle, whose every method
/// inlines to a single null-check branch when no context is attached —
/// that branch is the entire disabled-path cost.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_OBS_H
#define BAYONET_OBS_OBS_H

#include "obs/Diagnostics.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"

#include <memory>
#include <string>

namespace bayonet {

/// Pre-registered metric ids for every engine probe site. Invalid ids (the
/// default) make every charge a no-op, so a trace-only context costs
/// nothing on the metrics side.
struct EngineMetricIds {
  MetricId StatesExpanded;  ///< Counter: NetConfig states expanded (exact).
  MetricId MergeAttempts;   ///< Counter: state-merge lookups.
  MetricId MergeHits;       ///< Counter: lookups that coalesced a state.
  MetricId SchedSteps;      ///< Counter: scheduler steps executed.
  MetricId Particles;       ///< Counter: particles advanced (sampling).
  MetricId Resamples;       ///< Counter: SMC resample generations.
  MetricId BudgetTrips;     ///< Counter: budget violations recorded.
  MetricId Fallbacks;       ///< Counter: exact→SMC fallbacks taken.
  MetricId PeakFrontier;    ///< Gauge (max): largest frontier seen.
  MetricId FrontierSize;    ///< Histogram: frontier size per sched step.
  MetricId StepDurMs;       ///< Histogram: wall ms per sched step.
  MetricId PoolBatches;     ///< Counter: thread-pool batches dispatched.
  MetricId PoolTasks;       ///< Counter: thread-pool tasks executed.
  MetricId EssFraction;     ///< Histogram: per-step ESS / population.
  MetricId DegeneracySteps; ///< Counter: steps with ESS below warn level.
  MetricId TxCacheHits;     ///< Counter: transition-cache expansion hits.
  MetricId TxCacheMisses;   ///< Counter: transition-cache expansion misses.
  MetricId TxCacheEvictions; ///< Counter: transition-cache FIFO evictions.
  MetricId TxCacheBytes;    ///< Gauge (max): retained transition-cache bytes.
  MetricId InternHits;      ///< Counter: intern-arena canonicalization hits.
  MetricId InternMisses;    ///< Counter: intern-arena canonicalization misses.
  MetricId InternEvictions; ///< Counter: intern-arena FIFO evictions.
  MetricId InternBytes;     ///< Gauge (max): retained intern-arena bytes.
  MetricId CheckpointWrites; ///< Counter: durable snapshots written.
  MetricId CheckpointBytes; ///< Counter: total snapshot bytes written.
};

/// Owns the observability state for one run: an optional tracer, an
/// optional metrics registry, and the pre-registered engine metric ids.
class ObsContext {
public:
  ObsContext(bool EnableTrace, bool EnableMetrics, bool EnableDiag = false,
             bool EnableProfile = false);

  Tracer *tracer() { return Trace.get(); }
  const Tracer *tracer() const { return Trace.get(); }
  MetricsRegistry *metrics() { return Reg.get(); }
  const MetricsRegistry *metrics() const { return Reg.get(); }
  DiagCollector *diag() { return Diag.get(); }
  const DiagCollector *diag() const { return Diag.get(); }
  Profiler *profiler() { return Prof.get(); }
  const Profiler *profiler() const { return Prof.get(); }
  const EngineMetricIds &ids() const { return Ids; }

private:
  std::unique_ptr<Tracer> Trace;
  std::unique_ptr<MetricsRegistry> Reg;
  std::unique_ptr<DiagCollector> Diag;
  std::unique_ptr<Profiler> Prof;
  EngineMetricIds Ids;
};

/// Cheap value-type handle the engines thread through their hot paths. A
/// default-constructed handle is inert: every method is an inlined
/// null-check. All metric charges happen at serial per-step/statement
/// boundaries, so counted quantities are thread-count-independent.
class ObsHandle {
public:
  ObsHandle() = default;
  explicit ObsHandle(ObsContext *Ctx) : Ctx(Ctx) {}
  explicit ObsHandle(const std::shared_ptr<ObsContext> &Ctx)
      : Ctx(Ctx.get()) {}

  explicit operator bool() const { return Ctx != nullptr; }
  ObsContext *context() const { return Ctx; }

  /// Opens a span (no-op Span when tracing is off).
  Span span(std::string Name) {
    if (Ctx && Ctx->tracer())
      return Ctx->tracer()->span(std::move(Name));
    return Span();
  }

  /// Records an instant event on the innermost open span.
  void event(std::string Name,
             std::vector<std::pair<std::string, std::string>> Args = {}) {
    if (Ctx && Ctx->tracer())
      Ctx->tracer()->event(std::move(Name), std::move(Args));
  }

  /// Adds to one of the pre-registered counters.
  void count(MetricId EngineMetricIds::*M, uint64_t N = 1) {
    if (Ctx && Ctx->metrics() && N)
      Ctx->metrics()->add(Ctx->ids().*M, N);
  }

  /// Raises a gauge to at least V.
  void gaugeMax(MetricId EngineMetricIds::*M, uint64_t V) {
    if (Ctx && Ctx->metrics())
      Ctx->metrics()->max(Ctx->ids().*M, V);
  }

  /// Records a histogram observation.
  void observe(MetricId EngineMetricIds::*M, double V) {
    if (Ctx && Ctx->metrics())
      Ctx->metrics()->observe(Ctx->ids().*M, V);
  }

  /// Whether tracing is live (to skip arg-formatting work when off).
  bool tracing() const { return Ctx && Ctx->tracer(); }

  /// The diagnostics collector, or null when diagnostics are off. Engines
  /// only touch it at serial checkpoint boundaries.
  DiagCollector *diag() const { return Ctx ? Ctx->diag() : nullptr; }

  /// The cost profiler, or null when profiling is off. The serial thread
  /// owns its attribution stack and aggregates; lanes only write their
  /// own shard arrays.
  Profiler *profiler() const { return Ctx ? Ctx->profiler() : nullptr; }

private:
  ObsContext *Ctx = nullptr;
};

} // namespace bayonet

#endif // BAYONET_OBS_OBS_H
