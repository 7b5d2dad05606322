//===- obs/Obs.cpp - Observability context and engine handle ---------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

using namespace bayonet;

ObsContext::ObsContext(bool EnableTrace, bool EnableMetrics, bool EnableDiag,
                       bool EnableProfile) {
  if (EnableTrace)
    Trace = std::make_unique<Tracer>();
  if (EnableDiag)
    Diag = std::make_unique<DiagCollector>();
  if (EnableProfile)
    Prof = std::make_unique<Profiler>();
  if (!EnableMetrics)
    return;
  Reg = std::make_unique<MetricsRegistry>();
  // Frontier sizes span a few states on toy programs to hundreds of
  // thousands before a budget trips; step durations are sub-ms to seconds.
  std::vector<double> SizeBounds = {1,    8,     64,     512,   4096,
                                    32768, 262144, 2097152};
  std::vector<double> MsBounds = {0.1, 0.5, 2, 10, 50, 250, 1000, 5000};
  Ids.StatesExpanded = Reg->counter(
      "bayonet_states_expanded_total",
      "NetConfig states expanded by the exact engines");
  Ids.MergeAttempts = Reg->counter(
      "bayonet_merge_attempts_total",
      "State-merge table lookups during frontier folding");
  Ids.MergeHits = Reg->counter(
      "bayonet_merge_hits_total",
      "Merge lookups that coalesced into an existing state");
  Ids.SchedSteps = Reg->counter("bayonet_sched_steps_total",
                                "Scheduler steps executed");
  Ids.Particles = Reg->counter("bayonet_particles_total",
                               "Particles advanced by the samplers");
  Ids.Resamples = Reg->counter("bayonet_resamples_total",
                               "SMC resample generations triggered");
  Ids.BudgetTrips = Reg->counter("bayonet_budget_trips_total",
                                 "Resource-budget violations recorded");
  Ids.Fallbacks = Reg->counter("bayonet_fallbacks_total",
                               "Exact-to-SMC fallbacks taken");
  Ids.PeakFrontier = Reg->gauge("bayonet_peak_frontier_states",
                                "Largest frontier size observed");
  Ids.FrontierSize = Reg->histogram("bayonet_frontier_size",
                                    "Frontier size per scheduler step",
                                    SizeBounds);
  Ids.StepDurMs = Reg->histogram("bayonet_step_duration_ms",
                                 "Wall milliseconds per scheduler step",
                                 MsBounds);
  Ids.PoolBatches = Reg->counter("bayonet_pool_batches_total",
                                 "Thread-pool batches dispatched");
  Ids.PoolTasks = Reg->counter("bayonet_pool_tasks_total",
                               "Thread-pool tasks executed");
  // ESS fractions live in [0, 1]; bounds chosen so a degeneracy collapse
  // (most mass below 0.1) is visible at a glance.
  std::vector<double> FracBounds = {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1};
  Ids.EssFraction = Reg->histogram("bayonet_smc_ess_fraction",
                                   "Per-step effective-sample-size fraction",
                                   FracBounds);
  Ids.DegeneracySteps = Reg->counter(
      "bayonet_degeneracy_steps_total",
      "SMC steps whose ESS fell below the degeneracy warning level");
  Ids.TxCacheHits = Reg->counter(
      "bayonet_txcache_hits_total",
      "Transition-cache hits (memoized node-program expansions replayed)");
  Ids.TxCacheMisses = Reg->counter(
      "bayonet_txcache_misses_total",
      "Transition-cache misses (node-program expansions computed and staged)");
  Ids.TxCacheEvictions = Reg->counter(
      "bayonet_txcache_evictions_total",
      "Transition-cache entries evicted by the FIFO byte cap");
  Ids.TxCacheBytes = Reg->gauge("bayonet_txcache_bytes",
                                "Peak retained transition-cache bytes");
  Ids.InternHits = Reg->counter(
      "bayonet_intern_hits_total",
      "Intern-arena hits (blocks canonicalized to a published class)");
  Ids.InternMisses = Reg->counter(
      "bayonet_intern_misses_total",
      "Intern-arena misses (new content classes staged for publication)");
  Ids.InternEvictions = Reg->counter(
      "bayonet_intern_evictions_total",
      "Intern-arena content classes evicted by the FIFO byte cap");
  Ids.InternBytes = Reg->gauge("bayonet_intern_bytes",
                               "Peak retained intern-arena bytes");
  Ids.CheckpointWrites = Reg->counter(
      "bayonet_checkpoint_writes_total",
      "Durable snapshots written by the Checkpointer");
  Ids.CheckpointBytes = Reg->counter(
      "bayonet_checkpoint_bytes_total",
      "Total snapshot bytes written by the Checkpointer");
}
