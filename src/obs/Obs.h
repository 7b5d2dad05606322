//===- obs/Obs.h - Observability context and engine handle ------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the engines and the observability primitives. An
/// ObsContext owns the run log (obs/Metrics.h) and the views chosen for
/// the run: an optional Tracer, metric table, diagnostics view and
/// profiler. Engines receive it through their options as
/// `std::shared_ptr<ObsContext>` (mirroring BudgetTracker from the budget
/// layer) and reach it through ObsHandle, whose every method inlines to a
/// single null-check branch when no context is attached — that branch is
/// the entire disabled-path cost. The flags choose which views exist, not
/// what is logged: every context logs every committed boundary.
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

/// Owns the observability state for one run: the run log, and an
/// optional tracer, metric view, diagnostics view and profiler.
class ObsContext {
public:
  ObsContext(bool EnableTrace, bool EnableMetrics, bool EnableDiag = false,
             bool EnableProfile = false) {
    if (EnableTrace)
      Trace = std::make_unique<Tracer>();
    if (EnableMetrics)
      Table.emplace(Log);
    if (EnableDiag)
      Diag.emplace(Log);
    if (EnableProfile)
      Prof = std::make_unique<Profiler>();
  }
  // The views refer to the log.
  ObsContext(const ObsContext &) = delete;
  ObsContext &operator=(const ObsContext &) = delete;

  RunLog &log() { return Log; }
  Tracer *tracer() { return Trace.get(); }
  const Tracer *tracer() const { return Trace.get(); }
  const MetricTable *metrics() const { return Table ? &*Table : nullptr; }
  const DiagCollector *diag() const { return Diag ? &*Diag : nullptr; }
  Profiler *profiler() { return Prof.get(); }
  const Profiler *profiler() const { return Prof.get(); }

private:
  RunLog Log;
  std::unique_ptr<Tracer> Trace;
  std::optional<MetricTable> Table;
  std::optional<DiagCollector> Diag;
  std::unique_ptr<Profiler> Prof;
};

/// Cheap value-type handle the engines thread through their hot paths. A
/// default-constructed handle is inert: every method is an inlined
/// null-check. The log is appended on the serial thread only, at
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

  /// The run log, or null without a context. Charged on the serial
  /// thread only.
  RunLog *log() const { return Ctx ? &Ctx->log() : nullptr; }

  /// Whether tracing is live (to skip arg-formatting work when off).
  bool tracing() const { return Ctx && Ctx->tracer(); }

  /// The diagnostics view, or null when diagnostics are off.
  const DiagCollector *diag() const { return Ctx ? Ctx->diag() : nullptr; }

  /// The cost profiler, or null when profiling is off. The serial thread
  /// owns its attribution stack and aggregates; lanes only write their
  /// own shard arrays.
  Profiler *profiler() const { return Ctx ? Ctx->profiler() : nullptr; }

private:
  ObsContext *Ctx = nullptr;
};

} // namespace bayonet

#endif // BAYONET_OBS_OBS_H
