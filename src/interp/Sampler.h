//===- interp/Sampler.h - Approximate inference by sampling ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Approximate inference over the global network semantics: sequential
/// Monte Carlo with a particle population (the paper uses WebPPL SMC with
/// 1000 particles), plus a plain rejection/likelihood-weighting mode.
/// Observation failures zero out a particle; SMC resamples the population
/// from the survivors when too many particles have died.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_INTERP_SAMPLER_H
#define BAYONET_INTERP_SAMPLER_H

#include "interp/Exec.h"
#include "net/NetworkSpec.h"
#include "net/Scheduler.h"
#include "obs/Obs.h"
#include "support/Budget.h"
#include "support/Prng.h"

#include <memory>
#include <string>
#include <vector>

namespace bayonet {

class Checkpointer;

/// Sampling configuration. The defaults match the paper's setup.
struct SampleOptions {
  enum class Method { Smc, Rejection };
  Method Mode = Method::Smc;
  unsigned Particles = 1000;
  uint64_t Seed = 0x5eed;
  /// Worker lanes for particle stepping. 0 = the process default
  /// (BAYONET_THREADS env or hardware_concurrency); 1 = serial. Each
  /// particle owns an independent PRNG substream (xoshiro jump splitting)
  /// assigned serially in particle order, and aggregation runs serially in
  /// particle order, so a fixed seed gives bit-identical results for every
  /// thread count.
  unsigned Threads = 0;
  /// Optional resource governor. Particle-steps are charged as states; the
  /// tracker is consulted at every scheduler-step boundary, and a stop
  /// aggregates the population as of the last completed boundary (for the
  /// deterministic budget classes this partial estimate is bit-identical
  /// for any Threads value). Null = ungoverned.
  std::shared_ptr<BudgetTracker> Budget;
  /// Optional observability context: spans per run/step/resample
  /// generation, particle and resample counters charged at serial
  /// boundaries (bit-identical at any thread count). Null = unobserved.
  std::shared_ptr<ObsContext> Obs;
  /// Optional durable checkpoint/restore driver (support/Snapshot.h). When
  /// set, the engine snapshots the whole population (configs and PRNG
  /// streams) at its serial step boundaries and can resume a run from such
  /// a snapshot; a resumed run is bit-identical to an uninterrupted one.
  std::shared_ptr<Checkpointer> Checkpoint;
};

/// Result of one sampling run.
struct SampleResult {
  QueryKind Kind = QueryKind::Probability;
  /// The query estimate (probability or expected value).
  double Value = 0.0;
  /// Monte-Carlo standard error of the estimate (sample standard
  /// deviation over sqrt(#ok particles)); 0 when fewer than 2 particles
  /// contributed. A ~95% interval is Value +- 1.96*StdError.
  double StdError = 0.0;
  /// Fraction of retained particles that ended in the error state.
  double ErrorFraction = 0.0;
  /// Particles surviving all observations (the basis of the estimate).
  unsigned Survivors = 0;
  unsigned Particles = 0;
  /// Set when the query could not be evaluated on some particle.
  bool QueryUnsupported = false;
  std::string UnsupportedReason;

  /// Outcome of the run: Ok, or why it stopped early. On a budget stop the
  /// estimate covers the particles terminal at the last completed boundary.
  EngineStatus Status;
  /// Scheduler steps completed before the run ended.
  int64_t StepsRun = 0;
  /// Wall-clock time spent inside run(), milliseconds.
  double WallMs = 0;
};

/// Particle-based approximate inference engine.
class Sampler {
public:
  explicit Sampler(const NetworkSpec &Spec, SampleOptions Opts = {})
      : Spec(Spec), Opts(Opts), Exec(Spec) {}

  /// Runs sampling inference for the spec's query.
  SampleResult run() const;

private:
  const NetworkSpec &Spec;
  SampleOptions Opts;
  NodeExecutor Exec;

  /// Particle population in structure-of-arrays layout. The status flags
  /// (the 0/1 weights of hard-observe SMC), the PRNG streams, the
  /// enabled-slot masks and the configurations each live in their own
  /// contiguous array, so the batch loops — the active scan at a step
  /// boundary, the scheduler pick, and survivor gathering for a resample —
  /// stream over dense bytes instead of striding across fat per-particle
  /// records or the configurations' heap-scattered node blocks.
  struct Population {
    std::vector<NetConfig> Configs;
    /// Per-particle private PRNG streams, contiguous: particles evolve
    /// independently of each other and of the lane that steps them.
    std::vector<Xoshiro> Rngs;
    std::vector<uint8_t> Dead;     ///< Observation failed: zero weight.
    std::vector<uint8_t> Error;    ///< ⊥ state.
    std::vector<uint8_t> Terminal; ///< No enabled actions remain.
    /// Enabled scheduler slots, MaskWords words per particle: bit 2i is
    /// Run i (node i's input queue is nonempty), bit 2i+1 is Fwd i (its
    /// output queue is nonempty). Always equal to a recompute from the
    /// particle's configuration.
    std::vector<uint64_t> Mask;
    size_t MaskWords = 0;

    size_t size() const { return Configs.size(); }
    uint64_t *mask(size_t I) { return Mask.data() + I * MaskWords; }
    void resize(size_t N) {
      Configs.resize(N);
      Rngs.resize(N);
      Dead.assign(N, 0);
      Error.assign(N, 0);
      Terminal.assign(N, 0);
      Mask.assign(N * MaskWords, 0);
    }
    void reserve(size_t N) {
      Configs.reserve(N);
      Rngs.reserve(N);
      Dead.reserve(N);
      Error.reserve(N);
      Terminal.reserve(N);
      Mask.reserve(N * MaskWords);
    }
  };

  /// Samples the initial configuration (state initializers and packets)
  /// for particle \p I using the particle's own stream.
  void initParticle(Population &Pop, size_t I, int64_t InitSchedState) const;
  /// The second pass of a step: executes slot \p Slot, picked for
  /// particle \p I in the first pass together with the scheduler state
  /// \p Next, and refreshes the mask bits of the nodes it changes (draws
  /// from the particle's own stream). When profiling, \p PF / \p ProfDefs
  /// / \p Lane locate the lane shard a Run action's statement counts are
  /// charged into (one writer per lane; the serial boundary folds shards in
  /// lane order).
  void execute(Population &Pop, size_t I, int64_t Slot, int64_t Next,
               Profiler *PF,
               const std::vector<Profiler::DefFrames> *ProfDefs,
               unsigned Lane) const;
};

} // namespace bayonet

#endif // BAYONET_INTERP_SAMPLER_H
