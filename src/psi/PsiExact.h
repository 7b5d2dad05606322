//===- psi/PsiExact.h - Exact inference on the PSI IR ----------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact inference for PSI IR programs: the program is executed on a
/// distribution of environments; probabilistic draws and comparisons on
/// symbolic parameters split the distribution, merge points (If joins, loop
/// iterations) merge environments that agree on every live slot
/// (psi/PsiLiveness.h). Weights are exact piecewise rationals. This is
/// the standalone probabilistic-inference backend that translated Bayonet
/// programs run on (mirroring the paper's use of the PSI solver).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PSI_PSIEXACT_H
#define BAYONET_PSI_PSIEXACT_H

#include "obs/Obs.h"
#include "psi/PsiIr.h"
#include "support/Budget.h"
#include "symbolic/SymProb.h"

#include <memory>
#include <string>
#include <vector>

namespace bayonet {

class Checkpointer;

/// Result of one exact PSI run. Field meanings match interp::ExactResult.
struct PsiExactResult {
  QueryKind Kind = QueryKind::Probability;
  SymProb QueryMass;
  SymProb OkMass;
  SymProb ErrorMass;
  bool QueryUnsupported = false;
  std::string UnsupportedReason;

  /// Outcome of the run: Ok, or why it stopped early (budget/cancellation).
  /// On a non-Ok status the statistics are the partial state as of the last
  /// completed statement boundary.
  EngineStatus Status;
  /// Wall-clock time spent inside run(), milliseconds.
  double WallMs = 0;

  size_t BranchesExpanded = 0;
  size_t MaxDistSize = 0;
  /// Branches expanded per worker lane (parallel statements only; empty
  /// when everything ran serially). Summed over statements, by lane.
  std::vector<size_t> WorkerBranchesExpanded;
  /// Environments that merged into an existing distribution entry.
  size_t MergeHits = 0;
  /// Merge-table lookups at loop/branch boundaries (hit rate =
  /// MergeHits/MergeAttempts).
  size_t MergeAttempts = 0;

  std::vector<ProbCase> cases() const {
    return partitionRatio(QueryMass, OkMass);
  }
  std::optional<Rational> concreteValue() const {
    if (!QueryMass.isConcrete() || !OkMass.isConcrete() ||
        OkMass.concreteValue().isZero())
      return std::nullopt;
    return QueryMass.concreteValue() / OkMass.concreteValue();
  }
};

/// Options for the exact PSI engine.
struct PsiExactOptions {
  /// Merge environments at merge points, after resetting the slots dead
  /// there.
  bool MergeEnvs = true;
  /// Iteration bound for while loops.
  int64_t WhileFuel = 100000;
  /// Abort when the distribution exceeds this many environments.
  size_t MaxDist = 50'000'000;
  /// Worker lanes for distribution expansion. 0 = the process default
  /// (BAYONET_THREADS env or hardware_concurrency); 1 = the serial code
  /// path. Exact weights make results bit-identical for every value.
  unsigned Threads = 0;
  /// Minimum distribution size before a statement fans out to the pool.
  size_t ParallelThreshold = 64;
  /// Optional resource governor. Branch expansions are charged as states,
  /// statements as scheduler steps; the tracker is consulted at every
  /// statement boundary, so budget stops are bit-identical for any Threads
  /// value. Null = ungoverned (no overhead).
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
