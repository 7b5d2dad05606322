//===- obs/Boundary.h - The serial-boundary record --------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bookkeeping every engine does at its serial step boundaries, kept in
/// one place. An engine does inference; at each boundary it calls this
/// record, which feeds the sinks — budget, checkpoint, run log, profiler
/// and trace. A run is
///
///   attach  { open  beginStep  (commit | abort) }*  finish
///
/// and three determinism rules live here and nowhere else:
///   1. charge only completed boundaries: commit() is the only place a
///      boundary's counts reach a sink;
///   2. discard on abort: abort() drops the lane shards and restores the
///      engine's counters to the last boundary;
///   3. publish in a fixed order: commit() appends the boundary's row to
///      the run log, then charges the profiler, then emits the
///      diagnostics trace events and the step-span args, always in that
///      order. The metrics and diagnostics are views of the log.
///
/// Per-state charges (BudgetTracker::chargeStates/chargeBytes/chargeMerges,
/// the profiler's lane arrays) and cache publication stay inside the
/// engines' expansion code; the log is appended only here, on the serial
/// thread (runInference counts a lane's budget trip after the run).
/// With no ObsContext and no Checkpointer each call costs one null check
/// beyond the budget decision itself.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_BOUNDARY_H
#define BAYONET_OBS_BOUNDARY_H

#include "obs/Obs.h"
#include "support/Snapshot.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace bayonet {

struct NetworkSpec;
struct PsiProgram;
class SymProb;

/// The engine's profiler frames and population, fixed at attach.
struct BoundaryLayout {
  unsigned Lanes = 1;                ///< Lane shards to size.
  const NetworkSpec *Spec = nullptr; ///< Exact/SMC: node programs.
  const PsiProgram *Psi = nullptr;   ///< PSI: the program body.
  bool InternFrame = false;          ///< Exact: the intern arena is on.
  bool TxCacheFrame = false;         ///< Exact: the transition cache is on.
  uint64_t Particles = 0;            ///< SMC population size.
};

/// How a run ended, for finish().
struct RunSummary {
  uint64_t States = 0;  ///< Engine work units (profiler totals).
  uint64_t Peak = 0;    ///< Peak frontier / distribution size.
  uint64_t Steps = 0;   ///< SMC: scheduler steps run.
  uint64_t Support = 0; ///< Terminal support / surviving particles.
  std::optional<double> Residual = std::nullopt; ///< Discarded mass, if known.
};

/// The mass observations discarded, 1 - ok - error, when both retained
/// masses are concrete (exact rationals, so the rest vanished exactly).
std::optional<double> residualMass(const SymProb &Ok, const SymProb &Err);

class Boundary {
public:
  Boundary(EngineKind K, std::string Engine, ObsContext *Obs,
           BudgetTracker *BT, Checkpointer *CP);

  /// Snapshot identity (set before attach when checkpointing).
  uint64_t SpecFp = 0, OptsFp = 0;
  /// Serializes the engine state as of the current boundary.
  std::function<void(SnapWriter &)> Payload;
  /// Snapshot / restore of the engine's reported counters.
  std::function<void()> Save, Restore;

  /// Restores a resumed run's common snapshot section, then opens the run
  /// span, names the engine in the run log, lays out the profiler frames
  /// and, on resume, opens the engine section.
  /// Returns the Invalid status of a requested resume that found no valid
  /// snapshot for this engine.
  std::optional<EngineStatus> attach(const BoundaryLayout &L);

  /// The resumed snapshot's engine section, or null on a fresh run.
  SnapReader *resumeReader() const { return Resume; }
  Profiler *profiler() const { return PF; }
  /// Per-node program frames (exact and SMC layouts).
  const std::vector<Profiler::DefFrames> &defs() const { return Defs; }

  /// Opens a top-level boundary: checkpoint write, crash check, boundary
  /// mark, budget decision. Returns the status when the run stops here.
  std::optional<EngineStatus> open(uint64_t Frontier);
  /// The budget decision and counter snapshot; nested PSI statements call
  /// it alone. At the \p Top level a cancellation also writes the final
  /// snapshot. False = stop.
  bool budget(uint64_t Frontier, bool Top = false);

  /// The trace span, profiler frame and wall timer of one step. Ends
  /// (uncharged) when destroyed, so an aborted step leaves only its span.
  class Step {
    friend class Boundary;
    Span Sp;
    std::optional<Profiler::Scope> Frame;
    std::chrono::steady_clock::time_point T0;
  };
  /// Opens a step's span and frame; \p In is the work entering it
  /// (frontier, distribution, or active particles).
  Step beginStep(int64_t Index, uint64_t In);
  /// Charges a completed step to every sink, in the fixed order.
  void commit(Step &S, const BoundaryDelta &D);

  /// A step stopped midway: discards the lane shards and, for a budget or
  /// cancel stop, restores the counters (and, for the exact engine, writes
  /// a cancel's final snapshot from the mark).
  void abort();

  /// Ends the run: run-span args and, when \p Completed, stamps the exact
  /// engines' profiler totals and records the run's support in the log.
  void finish(const RunSummary &S, bool Completed = true);

private:
  void registerDefs(const NetworkSpec &Spec);

  const EngineKind K;
  const std::string Engine;
  ObsHandle O;
  BudgetTracker *BT;
  Checkpointer *CP;
  Profiler *PF = nullptr;
  BoundaryMark Mark;
  SnapReader *Resume = nullptr;
  std::vector<Profiler::DefFrames> Defs;
  uint32_t StepSlot = Profiler::InvalidSlot, ExpandSlot = StepSlot,
           MergeSlot = StepSlot, InternSlot = StepSlot, ResampleSlot = StepSlot;
  Span RunSpan;
  std::optional<Profiler::Scope> RunFrame;
};

} // namespace bayonet

#endif // BAYONET_OBS_BOUNDARY_H
