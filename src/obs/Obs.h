//===- obs/Obs.h - Observability context and engine handle ------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the engines and the observability primitives. An
/// ObsContext owns an optional Tracer and an optional MetricTable; engines
/// receive it through their options as `std::shared_ptr<ObsContext>`
/// (mirroring BudgetTracker from the budget layer) and charge it through
/// ObsHandle, whose every method inlines to a single null-check branch
/// when no context is attached — that branch is the entire disabled-path
/// cost. Every metric charge runs on the serial thread; a budget trip,
/// which a worker lane may record, is charged by the API after the engine
/// returns.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_OBS_H
#define BAYONET_OBS_OBS_H

#include "obs/Diagnostics.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"

#include <memory>
#include <optional>
#include <string>

namespace bayonet {

/// Owns the observability state for one run: an optional tracer, metric
/// table, diagnostics collector and profiler.
class ObsContext {
public:
  ObsContext(bool EnableTrace, bool EnableMetrics, bool EnableDiag = false,
             bool EnableProfile = false) {
    if (EnableTrace)
      Trace = std::make_unique<Tracer>();
    if (EnableMetrics)
      Table.emplace();
    if (EnableDiag)
      Diag = std::make_unique<DiagCollector>();
    if (EnableProfile)
      Prof = std::make_unique<Profiler>();
  }

  Tracer *tracer() { return Trace.get(); }
  const Tracer *tracer() const { return Trace.get(); }
  MetricTable *metrics() { return Table ? &*Table : nullptr; }
  const MetricTable *metrics() const { return Table ? &*Table : nullptr; }
  DiagCollector *diag() { return Diag.get(); }
  const DiagCollector *diag() const { return Diag.get(); }
  Profiler *profiler() { return Prof.get(); }
  const Profiler *profiler() const { return Prof.get(); }

private:
  std::unique_ptr<Tracer> Trace;
  std::optional<MetricTable> Table;
  std::unique_ptr<DiagCollector> Diag;
  std::unique_ptr<Profiler> Prof;
};

/// Cheap value-type handle the engines thread through their hot paths. A
/// default-constructed handle is inert: every method is an inlined
/// null-check. All metric charges happen on the serial thread, at
/// per-step/statement boundaries or after the run, so counted quantities
/// are thread-count-independent.
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

  /// Adds to a counter.
  void count(Metric M, uint64_t N = 1) {
    if (Ctx && Ctx->metrics() && N)
      Ctx->metrics()->add(M, N);
  }

  /// Raises a gauge to at least V.
  void gaugeMax(Metric M, uint64_t V) {
    if (Ctx && Ctx->metrics())
      Ctx->metrics()->max(M, V);
  }

  /// Records a histogram observation.
  void observe(Metric M, double V) {
    if (Ctx && Ctx->metrics())
      Ctx->metrics()->observe(M, V);
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
