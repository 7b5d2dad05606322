//===- psi/PsiExact.h - Exact inference on the PSI IR ----------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact inference for PSI IR programs over a distribution of weighted
/// environments. Each environment runs straight through the statements,
/// one branch at a time; it forks only where a statement has several
/// outcomes (a draw, a split on a symbolic parameter, a failure). After
/// every loop iteration, environments that agree on every live slot
/// (psi/PsiLiveness.h) merge. Weights are exact piecewise rationals. This
/// is the standalone probabilistic-inference backend that translated
/// Bayonet programs run on (mirroring the paper's use of the PSI solver).
///
/// It shares what the direct engine shares: an environment is a short
/// array of shared, immutable, hash-cached blocks (PsiProgram::Layout), so
/// a fork copies pointers and a write copies one block; and the run of a
/// `schedule` arm is memoized per (arm, blocks it touches) in a transition
/// cache published at serial boundaries exactly like interp/TxCache.h.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PSI_PSIEXACT_H
#define BAYONET_PSI_PSIEXACT_H

#include "interp/TxCache.h"
#include "obs/Obs.h"
#include "psi/PsiIr.h"
#include "support/Budget.h"
#include "support/Intern.h"
#include "symbolic/SymProb.h"

#include <memory>
#include <string>
#include <vector>

namespace bayonet {

class Checkpointer;

/// Result of one exact PSI run. Field meanings match interp::ExactResult.
struct PsiExactResult : ExactAnswer {
  QueryKind Kind = QueryKind::Probability;

  /// Outcome of the run: Ok, or why it stopped early (budget/cancellation).
  /// On a non-Ok status the statistics are the partial state as of the last
  /// boundary: a top-level statement or an iteration of a top-level loop.
  EngineStatus Status;
  /// Wall-clock time spent inside run(), milliseconds.
  double WallMs = 0;

  /// Environments entering a loop iteration: the analogue of the direct
  /// engine's configurations run through one scheduler step.
  size_t BranchesExpanded = 0;
  /// Peak distribution size at a top-level statement or an iteration of a
  /// top-level loop.
  size_t MaxDistSize = 0;
  /// Branches expanded per worker lane (sharded passes only; empty when
  /// everything ran serially). Summed over passes, by lane.
  std::vector<size_t> WorkerBranchesExpanded;
  /// Environments that merged into an existing distribution entry.
  size_t MergeHits = 0;
  /// Merge-table lookups after loop iterations (hit rate =
  /// MergeHits/MergeAttempts).
  size_t MergeAttempts = 0;
  /// Branches whose Repeat iteration was the identity on the live slots,
  /// so they skipped the loop's remaining iterations.
  size_t BranchesParked = 0;
  /// Arm transition cache: replayed and computed arm runs, entries
  /// evicted, and retained bytes (the meanings of ExactResult's fields).
  uint64_t TxHits = 0;
  uint64_t TxMisses = 0;
  uint64_t TxEvictions = 0;
  uint64_t TxBytes = 0;
};

/// Options for the exact PSI engine.
struct PsiExactOptions {
  /// Merge environments after each loop iteration, after resetting the
  /// slots dead there.
  bool MergeEnvs = true;
  /// Iteration bound for while loops.
  int64_t WhileFuel = 100000;
  /// Abort when the distribution exceeds this many environments.
  size_t MaxDist = 50'000'000;
  /// Worker lanes for distribution expansion. 0 = the process default
  /// (BAYONET_THREADS env or hardware_concurrency); 1 = the serial code
  /// path. Exact weights make results bit-identical for every value.
  unsigned Threads = 0;
  /// Minimum distribution size before a pass over it (a top-level
  /// statement or an iteration of a top-level loop) fans out to the pool.
  size_t ParallelThreshold = 64;
  /// Byte cap of the arm transition cache, which memoizes the runs of
  /// `schedule` arms (FIFO eviction). 0 disables it; results are identical
  /// either way.
  uint64_t TxCacheBytes = TxCacheDefaultBytes;
  /// Byte cap of the arena that hash-conses environment blocks, so equal
  /// blocks share one pointer and compare in O(1). 0 disables it; results
  /// are identical either way.
  uint64_t InternBytes = InternDefaultBytes;
  /// Optional resource governor. Branches entering a loop iteration are
  /// charged as states and their bytes; top-level statements and
  /// iterations of top-level loops are scheduler steps, where the tracker
  /// is consulted and the byte gauge restarts, so budget stops are
  /// bit-identical for any Threads value. Null = ungoverned (no overhead).
  std::shared_ptr<BudgetTracker> Budget;
  /// Optional observability context: spans per run / top-level statement /
  /// top-level repeat round, metrics charged as deltas at statement
  /// boundaries (serial, so bit-identical at any thread count). Null =
  /// unobserved.
  std::shared_ptr<ObsContext> Obs;
  /// Optional durable checkpoint/restore driver (support/Snapshot.h). When
  /// set, the engine snapshots the environment distribution at top-level
  /// statement boundaries and can resume a run from such a snapshot; a
  /// resumed run is bit-identical to an uninterrupted one.
  std::shared_ptr<Checkpointer> Checkpoint;
};

/// Exact distribution-of-environments engine.
class PsiExact {
public:
  explicit PsiExact(const PsiProgram &P, PsiExactOptions Opts = {})
      : P(P), Opts(Opts) {}

  PsiExactResult run() const;

private:
  const PsiProgram &P;
  PsiExactOptions Opts;
};

} // namespace bayonet

#endif // BAYONET_PSI_PSIEXACT_H
