//===- obs/Diagnostics.h - Inference-quality diagnostics --------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistical-health diagnostics for an inference run. The execution layer
/// (Trace/Metrics) says *where time went*; this layer says *whether the
/// answer can be trusted*: per-step effective sample size and weight spread
/// for the samplers, per-round frontier and merge-rate trajectories for the
/// exact engines, and an optional exact-vs-SMC total-variation cross-check.
///
/// Like the metrics, the diagnostics are a view of the run log
/// (obs/Metrics.h): the series and the warnings are computed from the
/// committed boundary rows, so a DiagReport is bit-identical across 1, 2
/// or 8 threads, across obs on/off, and across a crash and resume.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_DIAGNOSTICS_H
#define BAYONET_OBS_DIAGNOSTICS_H

#include "obs/Metrics.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bayonet {

/// Summary handed back on InferenceResult: the headline numbers a caller
/// should look at before trusting the answer.
struct InferenceDiagnostics {
  std::string Engine;          ///< Last engine attached.
  uint64_t Particles = 0;      ///< Population size (samplers only).
  uint64_t Resamples = 0;      ///< Resample generations triggered.
  double FinalEss = 0;         ///< ESS at the last recorded step.
  double MinEss = 0;           ///< Smallest per-step ESS.
  double MinEssFraction = 1;   ///< MinEss / population size.
  int64_t MinEssStep = -1;     ///< Step where the minimum occurred.
  uint64_t SupportSize = 0;    ///< Terminal support (exact) / survivors.
  uint64_t PeakFrontier = 0;   ///< Largest frontier seen (exact).
  double ResidualMass = 0;     ///< Observe-discarded mass (exact, concrete).
  bool ResidualMassKnown = false;
  std::optional<double> TvDivergence; ///< |p_exact - p_smc| cross-check.
  std::vector<std::string> Warnings;  ///< Degeneracy / blowup warnings.
};

/// Full report: the summary plus the per-step series, exportable as
/// deterministic JSON (`--diag-out`): SMC rows as `smc_steps`, exact and
/// PSI rows as `exact_rounds`. Doubles are printed with %.9g so the bytes
/// are identical whenever the values are.
struct DiagReport {
  InferenceDiagnostics Summary;
  std::vector<BoundaryRow> Rows;

  std::string toJson() const;
};

/// Merge hits / attempts of one boundary (0 when no attempts).
double mergeHitRate(const BoundaryDelta &D);

/// Whether an SMC row's ESS fell below the degeneracy warning fraction.
bool degenerate(const RunLog &Log, const BoundaryRow &R);

/// The diagnostics view of a run log. Owned by ObsContext; engines reach
/// it through `ObsHandle::diag()` (null when diagnostics are off).
class DiagCollector {
public:
  explicit DiagCollector(const RunLog &Log) : Log(Log) {}

  /// A step whose ESS falls below this fraction of the population counts
  /// as degenerate.
  double essWarnFraction() const;

  /// Whether row \p I is the run's first exact round whose frontier
  /// reached the blowup warning size.
  bool firstBlowup(size_t I) const;

  /// The report, with summary fields (min/final ESS, peak frontier,
  /// warning lines) computed from the rows.
  DiagReport report() const;

  /// Summary only (what InferenceResult carries).
  InferenceDiagnostics summary() const { return report().Summary; }

private:
  const RunLog &Log;
};

} // namespace bayonet

#endif // BAYONET_OBS_DIAGNOSTICS_H
