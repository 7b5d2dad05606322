//===- interp/ExactEngine.h - Exact probabilistic inference ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact inference over the global network semantics (paper Figure 7).
/// The engine explores the distribution over global configurations level by
/// level (one scheduler action per level), merging identical configurations
/// — this computes the paper's normalized aggregate trace semantics with
/// exact rational (or piecewise-rational, for symbolic parameters) weights,
/// playing the role of the PSI exact solver.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_INTERP_EXACTENGINE_H
#define BAYONET_INTERP_EXACTENGINE_H

#include "interp/Exec.h"
#include "interp/TxCache.h"
#include "net/NetworkSpec.h"
#include "support/Intern.h"
#include "net/Scheduler.h"
#include "obs/Obs.h"
#include "support/Budget.h"
#include "symbolic/SymProb.h"

#include <memory>
#include <string>
#include <vector>

namespace bayonet {

class Checkpointer;

/// Tuning knobs for the exact engine (the defaults reproduce the paper).
struct ExactOptions {
  /// Merge identical configurations between steps. Disabling this degrades
  /// the engine to pure trace enumeration (the ablation in bench_ablation).
  bool MergeStates = true;
  /// Abort when the frontier exceeds this many configurations.
  size_t MaxFrontier = 50'000'000;
  /// Keep the terminal distribution (for tests and debugging).
  bool CollectTerminals = false;
  /// Worker lanes for frontier expansion. 0 = the process default
  /// (BAYONET_THREADS env or hardware_concurrency); 1 = the serial code
  /// path. Results are bit-identical for every value: expansion is sharded
  /// and merged by a hash-sharded reduction in a fixed order, and all
  /// weight arithmetic is exact.
  unsigned Threads = 0;
  /// Minimum frontier size before a step fans out to the pool; smaller
  /// frontiers expand serially (fan-out overhead would dominate).
  size_t ParallelThreshold = 64;
  /// Optional resource governor. When set, the engine charges expansions,
  /// merges and frontier bytes to it and consults it at every scheduler-step
  /// boundary; on a stop it returns partial statistics as of the last
  /// completed boundary (bit-identical for any Threads value) with
  /// Result.Status naming the cause. Null = ungoverned (no overhead).
  std::shared_ptr<BudgetTracker> Budget;
  /// Optional observability context. When set, the engine opens a span per
  /// run and per scheduler step and charges metrics as deltas at step
  /// boundaries — serial points, so every counted quantity is bit-identical
  /// at any thread count. Null = unobserved (one branch per probe site).
  std::shared_ptr<ObsContext> Obs;
  /// Byte cap for the successor-transition cache (memoized node-program
  /// expansions, see interp/TxCache.h). 0 disables the cache entirely.
  /// Results are bit-identical with the cache on or off and for every
  /// Threads value: lookups read only the snapshot published at the last
  /// step boundary, and misses replay the exact uncached arithmetic.
  uint64_t TxCacheBytes = TxCacheDefaultBytes;
  /// Byte cap for the state-interning arena (hash-consed canonical node
  /// blocks, see support/Intern.h). 0 disables interning entirely.
  /// Results are bit-identical with the arena on or off and for every
  /// Threads value: canonicalization swaps a block for a structurally
  /// equal one, lane lookups read only the snapshot published at the last
  /// step boundary, and publication is serial and content-sorted.
  uint64_t InternBytes = InternDefaultBytes;
  /// Optional durable checkpoint/restore driver (support/Snapshot.h). When
  /// set, the engine snapshots the full frontier and partial result at its
  /// serial step boundaries and can resume a run from such a snapshot; a
  /// resumed run is bit-identical to an uninterrupted one.
  std::shared_ptr<Checkpointer> Checkpoint;
};

/// Result of one exact inference run.
struct ExactResult : ExactAnswer {
  QueryKind Kind = QueryKind::Probability;

  /// Outcome of the run: Ok, or why it stopped early (budget/cancellation).
  /// On a non-Ok status the masses and statistics are the partial state as
  /// of the last completed scheduler-step boundary.
  EngineStatus Status;
  /// Wall-clock time spent inside run(), milliseconds.
  double WallMs = 0;

  // Statistics.
  size_t ConfigsExpanded = 0;
  size_t MaxFrontierSize = 0;
  int64_t StepsUsed = 0;
  /// Configurations expanded per worker lane (parallel steps only; empty
  /// when every step ran serially). Summed over steps, indexed by lane.
  std::vector<size_t> WorkerConfigsExpanded;
  /// Successor configurations that merged into an existing frontier entry
  /// (weight addition instead of insertion).
  size_t MergeHits = 0;
  /// Merge-table lookups (every successor when merging is on). The hit
  /// rate MergeHits/MergeAttempts is the spend-line figure of merit.
  size_t MergeAttempts = 0;
  /// Terminal configurations reached (the support of the terminal
  /// distribution as visited; merged duplicates count once per arrival).
  size_t TerminalConfigs = 0;
  /// Transition-cache statistics (all zero when the cache is off). Hits
  /// and misses count Run-action expansions; evictions and bytes reflect
  /// the cache state after the final publication. All four are pure
  /// functions of (spec, options minus Threads): lookups see only
  /// step-boundary snapshots, so the counts are thread-count-invariant.
  uint64_t TxHits = 0;
  uint64_t TxMisses = 0;
  uint64_t TxEvictions = 0;
  uint64_t TxBytes = 0;
  /// Interning-arena statistics (all zero when the arena is off). Hits
  /// and misses count block canonicalization probes; evictions and bytes
  /// reflect the arena after the final publication. Thread-count
  /// invariant for the same reason the transition-cache counters are:
  /// probes see only step-boundary snapshots.
  uint64_t InternHits = 0;
  uint64_t InternMisses = 0;
  uint64_t InternEvictions = 0;
  uint64_t InternBytes = 0;

  /// Terminal distribution (only when CollectTerminals was set).
  std::vector<std::pair<NetConfig, SymProb>> Terminals;

  /// Error probability relative to all retained mass.
  std::optional<Rational> errorProbability() const {
    if (!ErrorMass.isConcrete() || !OkMass.isConcrete())
      return std::nullopt;
    Rational Total = ErrorMass.concreteValue() + OkMass.concreteValue();
    if (Total.isZero())
      return std::nullopt;
    return ErrorMass.concreteValue() / Total;
  }
};

/// Exact inference engine over a checked network.
class ExactEngine {
public:
  explicit ExactEngine(const NetworkSpec &Spec, ExactOptions Opts = {})
      : Spec(Spec), Opts(Opts), Exec(Spec) {}

  /// Runs exact inference for the spec's query.
  ExactResult run() const;

  /// Builds the initial configuration distribution: state initializers
  /// (which may be random or symbolic) and initial packets.
  std::vector<std::pair<NetConfig, SymProb>> initialDistribution() const;

private:
  const NetworkSpec &Spec;
  ExactOptions Opts;
  NodeExecutor Exec;

  void accumulateQuery(const NetConfig &C, const SymProb &Wt,
                       ExactResult &Result) const;
};

} // namespace bayonet

#endif // BAYONET_INTERP_EXACTENGINE_H
