//===- obs/Boundary.cpp - The serial-boundary record ----------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Boundary.h"

#include "net/NetworkSpec.h"
#include "psi/PsiIr.h"
#include "symbolic/SymProb.h"

#include <cstdio>
#include <map>

using namespace bayonet;

namespace {

/// A family's trace names: the run and step spans, the step span's in/out
/// args, and the run span's work/peak args (null: not recorded).
struct FamilyNames {
  const char *Run, *Step, *In, *Out, *Work, *Peak;
};

const FamilyNames &names(EngineKind K) {
  static constexpr FamilyNames Names[] = {
      {"exact.run", "exact.step", "frontier_in", "expanded", "states",
       "peak_frontier"},
      {"psi.run", "psi.stmt", "dist_in", "dist_out", "branches", "peak_dist"},
      {"smc.run", "smc.step", "active", nullptr, "steps", nullptr}};
  return Names[static_cast<int>(K)];
}

std::string fmt9(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

std::optional<double> bayonet::residualMass(const SymProb &Ok,
                                            const SymProb &Err) {
  auto Known = [](const SymProb &M) { return M.isConcrete() || M.isZero(); };
  if (!Known(Ok) || !Known(Err))
    return std::nullopt;
  return 1.0 - Ok.concreteValue().toDouble() - Err.concreteValue().toDouble();
}

Boundary::Boundary(EngineKind K, std::string Engine, ObsContext *Obs,
                   BudgetTracker *BT, Checkpointer *CP)
    : K(K), Engine(std::move(Engine)), O(Obs), BT(BT), CP(CP) {}

std::optional<EngineStatus> Boundary::attach(const BoundaryLayout &L) {
  if (CP) {
    // Must run before the first span opens: restoring the trace arms span
    // adoption for the spans that were open at the snapshot boundary.
    CP->restoreCommon(BT, O.context());
    // A requested resume without a valid snapshot is an error, never a
    // silent fresh start.
    if (CP->resumeFailed())
      return EngineStatus::invalid("cannot resume: " + CP->resumeError());
  }
  RunSpan = O.span(names(K).Run);
  if (RunLog *Log = O.log()) {
    Log->Engine = Engine;
    if (L.Particles)
      Log->Particles = L.Particles;
  }
  // Profiler attach (serial): the engine frame, its phase frames, and the
  // program statements (each assigned its dense slot), then the per-lane
  // shard arrays. Runs after restoreCommon so a resumed aggregate
  // re-interns to the same slots the statements are about to be charged
  // through.
  PF = O.profiler();
  if (PF) {
    RunFrame.emplace(PF, Engine);
    switch (K) {
    case EngineKind::Exact:
      StepSlot = PF->push("step");
      ExpandSlot = PF->push("expand");
      registerDefs(*L.Spec);
      PF->pop();
      MergeSlot = PF->internAt(StepSlot, "merge", {});
      if (L.InternFrame)
        InternSlot = PF->internAt(StepSlot, "intern", {});
      if (L.TxCacheFrame)
        PF->internAt(StepSlot, "txcache", {});
      PF->pop();
      break;
    case EngineKind::Psi:
      registerPsiBody(*PF, PF->current(), L.Psi->Body);
      break;
    case EngineKind::Smc:
      PF->child("init", {});
      StepSlot = PF->push("step");
      registerDefs(*L.Spec);
      ResampleSlot = PF->internAt(StepSlot, "resample", {});
      PF->pop();
      break;
    }
    PF->beginLanes(L.Lanes);
  }
  if (CP && CP->resumed()) {
    Resume = CP->beginEngine(Engine, SpecFp, OptsFp);
    if (!Resume)
      return EngineStatus::invalid("cannot resume: " + CP->resumeError());
  }
  return std::nullopt;
}

void Boundary::registerDefs(const NetworkSpec &Spec) {
  // A program shared by several nodes is registered once.
  std::map<const DefDecl *, Profiler::DefFrames> Seen;
  Defs.resize(Spec.NodePrograms.size());
  for (size_t N = 0; N < Spec.NodePrograms.size(); ++N) {
    const DefDecl *Def = Spec.NodePrograms[N];
    if (!Def)
      continue;
    auto [It, New] = Seen.try_emplace(Def);
    if (New)
      It->second = PF->registerDef(*Def);
    Defs[N] = It->second;
  }
}

std::optional<EngineStatus> Boundary::open(uint64_t Frontier) {
  if (CP) {
    // Serial boundary: everything charged so far is a pure function of the
    // workload, so a snapshot taken here resumes bit-identically at any
    // thread count. Written before the budget charges below so a resumed
    // run re-executes them exactly once.
    CP->maybeWrite(Engine, SpecFp, OptsFp, BT, O.context(), Payload);
    if (CP->crashed())
      return injectedCrashStatus();
    Mark.Valid = true;
    if (BT)
      Mark.Spend = BT->spendSnapshot();
    if (Tracer *T = O.context() ? O.context()->tracer() : nullptr) {
      Mark.TraceOpenStack.clear();
      T->captureMark(Mark.TraceEvents, Mark.TraceNextId, Mark.TraceOpenStack);
    }
  }
  if (!budget(Frontier, true))
    return BT->status();
  return std::nullopt;
}

bool Boundary::budget(uint64_t Frontier, bool Top) {
  if (!BT)
    return true;
  // Deterministic budget decision: a pure function of the cumulative
  // counters, independent of thread interleaving.
  if (!BT->checkpoint(Frontier)) {
    // The boundary itself was reached, so its counters are the report; at
    // the top level the state is intact and a cancel writes its final
    // snapshot here.
    if (Save)
      Save();
    if (Top && CP && BT->cancelled())
      CP->writeFinal(Engine, SpecFp, OptsFp, BT, O.context(), Payload);
    return false;
  }
  BT->chargeSchedStep();
  // The byte gauge tracks the frontier being built. The sampler allocates
  // its population once, so its gauge is charged at init and never reset.
  if (K != EngineKind::Smc)
    BT->resetBytes();
  if (Save)
    Save();
  return true;
}

Boundary::Step Boundary::beginStep(int64_t Index, uint64_t In) {
  Step S;
  if (!O)
    return S;
  S.Sp = O.span(names(K).Step);
  if (PF && K != EngineKind::Psi)
    S.Frame.emplace(PF, "step");
  S.T0 = std::chrono::steady_clock::now();
  if (O.tracing()) {
    if (K != EngineKind::Psi)
      S.Sp.arg("step", static_cast<uint64_t>(Index));
    S.Sp.arg(names(K).In, In);
  }
  return S;
}

void Boundary::commit(Step &S, const BoundaryDelta &D) {
  if (!O)
    return;
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - S.T0)
                        .count();

  // 1. The run log.
  RunLog &Log = *O.log();
  Log.Rows.push_back({D, K, Ms});

  // 2. Profiler: charge the phase frames from the same deltas, then fold
  // the lanes' statement shards into the serial aggregate. Integer counts
  // summed at a serial point, so every count column is
  // thread-count-invariant. Frames that carry only cache columns (intern,
  // txcache) keep zero work columns, so the work fingerprint is identical
  // with the caches off.
  if (PF) {
    switch (K) {
    case EngineKind::Exact:
      PF->charge(ExpandSlot, {.States = D.Expanded, .Execs = 1});
      PF->charge(MergeSlot, {.Execs = 1,
                             .MergeAttempts = D.MergeAttempts,
                             .MergeHits = D.MergeHits});
      PF->charge(StepSlot, {.Execs = 1});
      if (InternSlot != Profiler::InvalidSlot)
        PF->charge(InternSlot, {.InternHits = D.InternHits,
                                .InternMisses = D.InternMisses});
      break;
    case EngineKind::Psi:
      PF->charge(D.ProfSlot, {.States = D.Expanded,
                              .MergeAttempts = D.MergeAttempts,
                              .MergeHits = D.MergeHits});
      PF->chargeTime(D.ProfSlot, static_cast<uint64_t>(Ms * 1e6));
      break;
    case EngineKind::Smc:
      PF->charge(StepSlot, {.States = D.Active, .Execs = 1});
      if (D.Resampled)
        PF->charge(ResampleSlot, {.Execs = 1});
      break;
    }
    PF->drainLanes();
  }

  // 3. The diagnostics' trace events, when both views are on.
  const DiagCollector *DC = O.diag();
  if (DC && O.tracing() && K == EngineKind::Smc) {
    std::vector<std::pair<std::string, std::string>> Args = {
        {"step", std::to_string(D.Step)},
        {"ess", std::to_string(D.Alive)},
        {"fraction", fmt9(Log.essFraction(Log.Rows.back()))}};
    O.event("diag.ess", Args);
    if (degenerate(Log, Log.Rows.back()))
      O.event("diag.degeneracy", Args);
  } else if (DC && O.tracing()) {
    O.event("diag.frontier", {{"step", std::to_string(D.Step)},
                              {"frontier_out", std::to_string(D.FrontierOut)},
                              {"merge_hit_rate", fmt9(mergeHitRate(D))}});
    if (DC->firstBlowup(Log.Rows.size() - 1))
      O.event("diag.blowup", {{"step", std::to_string(D.Step)},
                              {"frontier", std::to_string(D.FrontierOut)}});
  }

  // 4. Step-span args.
  if (O.tracing() && names(K).Out)
    S.Sp.arg(names(K).Out,
             K == EngineKind::Exact ? D.Expanded : D.FrontierOut);
}

void Boundary::abort() {
  if (PF)
    PF->discardLanes(); // Partial step: keep the boundary aggregate.
  // An engine's own size limit keeps its partial counts; a budget or
  // cancel stop reports the last completed boundary, identical for every
  // thread count whichever stop class fired.
  if (!BT || !BT->stop())
    return;
  if (Restore)
    Restore();
  // Only the exact engine expands into a new frontier, so only its state
  // is still the boundary's mid-step; PSI and the sampler mutate theirs in
  // place and write no mid-step final snapshot.
  if (K == EngineKind::Exact && CP && BT->cancelled())
    CP->writeFinal(Engine, SpecFp, OptsFp, BT, O.context(), Payload, &Mark);
}

void Boundary::finish(const RunSummary &S, bool Completed) {
  if (O.tracing()) {
    RunSpan.arg(names(K).Work, K == EngineKind::Smc ? S.Steps : S.States);
    if (names(K).Peak)
      RunSpan.arg(names(K).Peak, S.Peak);
  }
  // A run that ended at a completed boundary has frames whose States sum
  // to the engine's own counter exactly; stamping it as the total lets
  // consumers cross-check the attribution (check_obs.py --profile).
  // Samplers leave the totals unset.
  if (PF && Completed && K != EngineKind::Smc)
    PF->setTotals({.States = S.States});
  if (RunLog *Log = O.log(); Log && Completed) {
    Log->Support = S.Support;
    if (K != EngineKind::Smc)
      Log->Residual = S.Residual;
  }
}
