//===- interp/ExactEngine.cpp - Exact probabilistic inference -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/ExactEngine.h"

#include "obs/Boundary.h"
#include "query/QueryEval.h"
#include "support/FlatIndexMap.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace bayonet;

namespace {

/// Applies an exact-mode world's guard list to a weight; empty result means
/// the branch is infeasible.
SymProb applyGuards(SymProb W, const std::vector<Constraint> &Guards) {
  for (const Constraint &G : Guards) {
    W = W.restricted(G);
    if (W.isZero())
      break;
  }
  return W;
}

} // namespace

std::vector<std::pair<NetConfig, SymProb>>
ExactEngine::initialDistribution() const {
  std::vector<std::pair<NetConfig, SymProb>> Worlds;
  NetConfig Base;
  Base.Nodes.resize(Spec.Topo.numNodes());
  for (unsigned I = 0; I < Spec.Topo.numNodes(); ++I) {
    NodeConfig &NC = Base.Nodes.mut(I);
    NC.QIn = PacketQueue(Spec.QueueCapacity);
    NC.QOut = PacketQueue(Spec.QueueCapacity);
  }
  auto Sched = Scheduler::forSpec(Spec);
  Base.SchedState = Sched->initialState();
  Worlds.emplace_back(std::move(Base), SymProb::concrete(Rational(1)));

  // Evaluate state initializers node by node (each may branch the world).
  for (unsigned Node = 0; Node < Spec.Topo.numNodes(); ++Node) {
    const DefDecl *Def = Spec.NodePrograms[Node];
    if (!Def)
      continue;
    for (unsigned Slot = 0; Slot < Def->StateVars.size(); ++Slot) {
      const StateVarDecl &SV = Def->StateVars[Slot];
      std::vector<std::pair<NetConfig, SymProb>> Next;
      for (auto &[C, W] : Worlds) {
        if (!SV.Init) {
          NetConfig C2 = C;
          C2.invalidateHash();
          C2.Nodes.mut(Node).State.push_back(Value(Rational(0)));
          Next.emplace_back(std::move(C2), W);
          continue;
        }
        for (NodeExecutor::InitOutcome &O : Exec.evalInitExact(*SV.Init)) {
          SymProb W2 = applyGuards(W.scaled(O.Prob), O.Guards);
          if (W2.isZero())
            continue;
          NetConfig C2 = C;
          C2.invalidateHash();
          if (O.Failed)
            C2.Error = true;
          else
            C2.Nodes.mut(Node).State.push_back(O.V);
          Next.emplace_back(std::move(C2), std::move(W2));
        }
      }
      Worlds = std::move(Next);
    }
  }

  // Inject the initial packets (deterministic).
  for (auto &[C, W] : Worlds) {
    C.invalidateHash();
    if (C.Error)
      continue;
    for (const InitPacketSpec &Init : Spec.Inits) {
      Packet Pkt;
      Pkt.Fields.reserve(Init.Fields.size());
      for (const Rational &F : Init.Fields)
        Pkt.Fields.push_back(Value(F));
      C.Nodes.mut(Init.Node).QIn.pushBack({std::move(Pkt), 0});
    }
  }
  return Worlds;
}

void ExactEngine::accumulateQuery(const NetConfig &C, const SymProb &WtIn,
                                  ExactResult &Result) const {
  if (!Spec.Query || !Spec.Query->Body) {
    Result.OkMass += WtIn;
    Result.QueryUnsupported = true;
    Result.UnsupportedReason = "no query";
    return;
  }
  auto unsupported = [&](std::string Reason) {
    Result.QueryUnsupported = true;
    Result.UnsupportedReason = std::move(Reason);
  };
  // A "given" clause acts as a terminal-state observation: mass violating
  // it is discarded before normalization.
  SymProb Wt = WtIn;
  if (Spec.Query->Given) {
    SymProb Kept;
    for (QueryOutcome &O : evalQueryTruth(Spec, *Spec.Query->Given, C)) {
      if (O.Failed)
        unsupported(std::move(O.FailReason));
      else if (!O.V.isZero())
        Kept += applyGuards(Wt, O.Guards);
    }
    Wt = std::move(Kept);
    if (Wt.isZero())
      return;
  }
  Result.OkMass += Wt;
  const bool Probability = Spec.Query->Kind == QueryKind::Probability;
  for (QueryOutcome &O : Probability
                             ? evalQueryTruth(Spec, *Spec.Query->Body, C)
                             : evalQuery(Spec, *Spec.Query->Body, C)) {
    if (O.Failed)
      unsupported(std::move(O.FailReason));
    else if (!O.V.isConstant())
      unsupported("expectation of a symbolic value is not supported");
    else if (O.V.isZero())
      continue;
    else if (Probability)
      Result.QueryMass += applyGuards(Wt, O.Guards);
    else
      Result.QueryMass += applyGuards(Wt, O.Guards).scaled(O.V.constant());
  }
}

namespace {

/// The run's cumulative boundary counters; a round's delta is the
/// difference of the snapshots on either side of it.
BoundaryDelta counters(const ExactResult &R) {
  return {.Expanded = R.ConfigsExpanded,
          .MergeAttempts = R.MergeAttempts,
          .MergeHits = R.MergeHits,
          .TxHits = R.TxHits,
          .TxMisses = R.TxMisses,
          .TxEvictions = R.TxEvictions,
          .TxBytes = R.TxBytes,
          .InternHits = R.InternHits,
          .InternMisses = R.InternMisses,
          .InternEvictions = R.InternEvictions,
          .InternBytes = R.InternBytes};
}

/// Folds a worker-lane partial result into the final result. Weight sums
/// are exact, so the fixed lane order only pins tie-breaking details like
/// which unsupported-reason string wins.
void foldPartial(ExactResult &Result, ExactResult &Partial) {
  Result.QueryMass += Partial.QueryMass;
  Result.OkMass += Partial.OkMass;
  Result.ErrorMass += Partial.ErrorMass;
  if (Partial.QueryUnsupported && !Result.QueryUnsupported) {
    Result.QueryUnsupported = true;
    Result.UnsupportedReason = std::move(Partial.UnsupportedReason);
  }
  Result.ConfigsExpanded += Partial.ConfigsExpanded;
  Result.TerminalConfigs += Partial.TerminalConfigs;
  Result.TxHits += Partial.TxHits;
  Result.TxMisses += Partial.TxMisses;
  for (auto &TW : Partial.Terminals)
    Result.Terminals.push_back(std::move(TW));
}

} // namespace

ExactResult ExactEngine::run() const {
  const auto WallStart = std::chrono::steady_clock::now();
  ExactResult Result;
  if (Spec.Query)
    Result.Kind = Spec.Query->Kind;
  auto Sched = Scheduler::forSpec(Spec);
  const unsigned Threads = resolveThreads(Opts.Threads);
  auto setWall = [&] {
    Result.WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - WallStart)
                        .count();
  };

  BudgetTracker *BT = Opts.Budget.get();
  const std::atomic<bool> *StopF = BT ? &BT->stopFlag() : nullptr;
  Checkpointer *CP = Opts.Checkpoint.get();
  Boundary Bound(EngineKind::Exact, "exact", Opts.Obs.get(), BT, CP);
  if (CP) {
    Bound.SpecFp = specFingerprint(Spec);
    Bound.OptsFp = Fingerprint()
                   .mix(std::string("exact"))
                   .mix(Opts.MergeStates)
                   .mix(Opts.MaxFrontier)
                   .mix(Opts.CollectTerminals)
                   .mix(Opts.TxCacheBytes)
                   .mix(Opts.InternBytes)
                   .value();
  }
  if (auto St = Bound.attach({.Lanes = Threads,
                              .Spec = &Spec,
                              .InternFrame = Opts.InternBytes != 0,
                              .TxCacheFrame = Opts.TxCacheBytes != 0})) {
    Result.Status = *St;
    setWall();
    return Result;
  }
  ObsHandle O(Opts.Obs);
  Profiler *PF = Bound.profiler();
  const std::vector<Profiler::DefFrames> &ProfDefs = Bound.defs();
  // Per-lane scratch over the largest def's statement range, used to
  // record a program run's counts for the lane shard and the cache entry.
  std::vector<std::vector<uint64_t>> ProfScratch;
  if (PF) {
    uint32_t MaxStmts = 0;
    for (const Profiler::DefFrames &DF : ProfDefs)
      MaxStmts = std::max(MaxStmts, DF.Count);
    ProfScratch.assign(Threads, std::vector<uint64_t>(MaxStmts, 0));
  }

  // Boundary snapshot of everything the run reports. Budget *decisions*
  // happen serially at scheduler-step boundaries, but cancellation, the
  // wall-clock deadline, and the byte gauge can stop a step midway; in that
  // case the partial work is discarded and the result restored to the last
  // completed boundary, so what a failed run reports is bit-identical for
  // any thread count regardless of which stop class fired. Terminals only
  // grow within a step, so they are restored by length, never copied.
  ExactResult Saved;
  size_t SavedTerminals = 0;
  Bound.Save = [&] {
    auto Terminals = std::move(Result.Terminals);
    Saved = Result;
    Result.Terminals = std::move(Terminals);
    SavedTerminals = Result.Terminals.size();
  };
  Bound.Restore = [&] {
    auto Terminals = std::move(Result.Terminals);
    Result = Saved;
    Terminals.resize(SavedTerminals);
    Result.Terminals = std::move(Terminals);
  };
  // A mid-step budget or cancel stop reports the last completed boundary.
  auto stopMidStep = [&] {
    Bound.abort();
    Result.Status = BT->status();
    setWall();
  };
  // The engine's own frontier cap keeps the partial step's counts.
  auto frontierTrip = [&](size_t Size) {
    Bound.abort();
    Result.QueryUnsupported = true;
    Result.UnsupportedReason = "frontier size limit exceeded";
    Result.Status.Code = StatusCode::BudgetExceeded;
    Result.Status.Violation = {BudgetClass::Frontier, Size, Opts.MaxFrontier};
    setWall();
  };

  using Frontier = std::vector<std::pair<NetConfig, SymProb>>;
  Frontier Cur;

  // Successor-transition cache: memoizes node-program expansion per
  // (program, node block). Lookups during a step read only the snapshot
  // published at the previous boundary; misses stage per lane and publish
  // serially below — so hit/miss counts, eviction order, and every weight
  // are bit-identical for any thread count, with the cache on or off.
  std::unique_ptr<TxCache> Cache;
  if (Opts.TxCacheBytes)
    Cache = std::make_unique<TxCache>(Opts.TxCacheBytes, Threads);

  // Hash-consing arena for canonical node blocks (support/Intern.h): the
  // same read-published/stage/publish discipline as the cache above, so
  // interning swaps blocks for structurally equal ones and changes
  // pointers, never results.
  std::unique_ptr<InternArena> Arena;
  if (Opts.InternBytes)
    Arena = std::make_unique<InternArena>(Opts.InternBytes, Threads);

  // Stable program<->index mapping for snapshot (de)serialization: a
  // program is named by the first node that runs it.
  auto DefIndex = [&](const DefDecl *Def) -> uint32_t {
    for (uint32_t I = 0, N = Spec.NodePrograms.size(); I < N; ++I)
      if (Spec.NodePrograms[I] == Def)
        return I;
    return 0xFFFFFFFFu;
  };
  auto DefAt = [&](uint32_t I) -> const DefDecl * {
    return I < Spec.NodePrograms.size() ? Spec.NodePrograms[I] : nullptr;
  };

  int64_t StartStep = 0;
  if (SnapReader *R = Bound.resumeReader()) {
    BlockReadTable T;
    StartStep = R->i64();
    uint64_t N = R->count();
    Cur.reserve(N);
    bool Ok = true;
    for (uint64_t I = 0; I < N && Ok && R->ok(); ++I) {
      NetConfig C;
      SymProb W;
      Ok = readNetConfig(*R, T, C) && readSymProb(*R, W);
      if (Ok)
        Cur.emplace_back(std::move(C), std::move(W));
    }
    Ok = Ok && readSymProb(*R, Result.QueryMass) &&
         readSymProb(*R, Result.OkMass) && readSymProb(*R, Result.ErrorMass);
    Result.QueryUnsupported = R->boolean();
    Result.UnsupportedReason = R->str();
    Result.ConfigsExpanded = R->u64();
    Result.MaxFrontierSize = R->u64();
    Result.StepsUsed = R->i64();
    Result.MergeHits = R->u64();
    Result.MergeAttempts = R->u64();
    Result.TerminalConfigs = R->u64();
    Result.TxHits = R->u64();
    Result.TxMisses = R->u64();
    Result.TxEvictions = R->u64();
    Result.TxBytes = R->u64();
    Result.InternHits = R->u64();
    Result.InternMisses = R->u64();
    Result.InternEvictions = R->u64();
    Result.InternBytes = R->u64();
    uint64_t NW = R->count();
    Result.WorkerConfigsExpanded.assign(NW, 0);
    for (uint64_t I = 0; I < NW && R->ok(); ++I)
      Result.WorkerConfigsExpanded[I] = R->u64();
    bool HadTerminals = R->boolean();
    Ok = Ok && HadTerminals == Opts.CollectTerminals;
    if (Ok && HadTerminals) {
      uint64_t NT = R->count();
      Result.Terminals.reserve(NT);
      for (uint64_t I = 0; I < NT && Ok && R->ok(); ++I) {
        NetConfig C;
        SymProb W;
        Ok = readNetConfig(*R, T, C) && readSymProb(*R, W);
        if (Ok)
          Result.Terminals.emplace_back(std::move(C), std::move(W));
      }
    }
    bool HadCache = R->boolean();
    Ok = Ok && HadCache == (Cache != nullptr);
    if (Ok && Cache)
      Ok = Cache->restoreFrom(*R, T, DefAt);
    bool HadArena = Ok && R->boolean();
    Ok = Ok && HadArena == (Arena != nullptr);
    if (Ok && Arena)
      Ok = Arena->restoreFrom(*R, T);
    if (!Ok || !R->ok()) {
      Result = ExactResult();
      if (Spec.Query)
        Result.Kind = Spec.Query->Kind;
      Result.Status =
          EngineStatus::invalid("corrupt snapshot: exact engine payload");
      setWall();
      return Result;
    }
  } else {
    Cur = initialDistribution();
    if (Arena) {
      // Seed the initial distribution (serial, tiny): first-step
      // canonicalization then dedups a mutated-but-unchanged block straight
      // back to its initial instance instead of staging a fresh class.
      for (auto &[C, W] : Cur)
        for (size_t I = 0, N = C.Nodes.size(); I < N; ++I)
          C.Nodes.setBlock(I, Arena->seed(C.Nodes.block(I)));
      Arena->publishStaged();
      Result.InternBytes = Arena->bytes();
    }
  }

  // Serializes the engine state as of the current serial boundary. Cur is
  // const for the duration of a step (expansion writes Next), and mid-step
  // finals restore Result to the boundary snapshot before serializing, so
  // this always describes the last completed boundary exactly.
  int64_t BoundStep = StartStep;
  auto SerializeState = [&](SnapWriter &W) {
    BlockTable T;
    W.i64(BoundStep);
    W.u64(Cur.size());
    for (const auto &[C, Wt] : Cur) {
      snapNetConfig(W, T, C);
      snapSymProb(W, Wt);
    }
    snapSymProb(W, Result.QueryMass);
    snapSymProb(W, Result.OkMass);
    snapSymProb(W, Result.ErrorMass);
    W.boolean(Result.QueryUnsupported);
    W.str(Result.UnsupportedReason);
    W.u64(Result.ConfigsExpanded);
    W.u64(Result.MaxFrontierSize);
    W.i64(Result.StepsUsed);
    W.u64(Result.MergeHits);
    W.u64(Result.MergeAttempts);
    W.u64(Result.TerminalConfigs);
    W.u64(Result.TxHits);
    W.u64(Result.TxMisses);
    W.u64(Result.TxEvictions);
    W.u64(Result.TxBytes);
    W.u64(Result.InternHits);
    W.u64(Result.InternMisses);
    W.u64(Result.InternEvictions);
    W.u64(Result.InternBytes);
    W.u64(Result.WorkerConfigsExpanded.size());
    for (size_t V : Result.WorkerConfigsExpanded)
      W.u64(V);
    W.boolean(Opts.CollectTerminals);
    if (Opts.CollectTerminals) {
      W.u64(Result.Terminals.size());
      for (const auto &[C, Wt] : Result.Terminals) {
        snapNetConfig(W, T, C);
        snapSymProb(W, Wt);
      }
    }
    W.boolean(Cache != nullptr);
    if (Cache)
      Cache->snapshotTo(W, T, DefIndex);
    W.boolean(Arena != nullptr);
    if (Arena)
      Arena->snapshotTo(W, T);
  };
  Bound.Payload = SerializeState;

  // Per-lane scheduler-choice scratch: choicesInto fills these in place so
  // steady-state expansion allocates nothing per configuration.
  std::vector<std::vector<SchedChoice>> ChoiceScratch(Threads);

  // Expands one weighted configuration: terminal and error mass go into
  // \p Res (a lane-local partial in parallel steps), successors into Emit.
  // \p Lane names the staging lane for transition-cache misses.
  auto expandOne = [&](const NetConfig &C, const SymProb &W, bool LastStep,
                       ExactResult &Res, unsigned Lane, auto &&Emit) {
    ++Res.ConfigsExpanded;
    if (BT)
      BT->chargeStates();
    if (C.Error) {
      Res.ErrorMass += W;
      return;
    }
    std::vector<SchedChoice> &Choices = ChoiceScratch[Lane];
    Sched->choicesInto(C, Choices);
    if (Choices.empty()) {
      // Terminal configuration: evaluate the query.
      ++Res.TerminalConfigs;
      if (Opts.CollectTerminals)
        Res.Terminals.emplace_back(C, W);
      accumulateQuery(C, W, Res);
      return;
    }
    if (LastStep) {
      // Live mass at the step bound: assert(terminated()) fails.
      Res.ErrorMass += W;
      return;
    }
    for (const SchedChoice &Choice : Choices) {
      SymProb Base = W.scaled(Choice.Prob);
      if (Choice.Act.K == Action::Kind::Fwd) {
        NetConfig C2 = C;
        C2.invalidateHash(); // The copy carries C's cached hash.
        C2.SchedState = Choice.NextSchedState;
        NodeConfig &Src = C2.Nodes.mut(Choice.Act.Node);
        QueueEntry E = Src.QOut.takeFront();
        auto Peer = Spec.Topo.peer(Choice.Act.Node, E.Port);
        if (Peer) {
          E.Port = Peer->Port;
          // pushBack on a full queue is a no-op: congestion drop.
          C2.Nodes.mut(Peer->Node).QIn.pushBack(std::move(E));
        }
        // No link on that port: the packet leaves the network (dropped).
        if (Arena) {
          // Canonicalize the mutated blocks: equal successors re-derived
          // along different enumeration paths then share pointers, so the
          // merge below compares in O(1). A congestion drop clones the
          // peer block without changing it; canon dedups it straight back.
          C2.Nodes.setBlock(Choice.Act.Node,
                            Arena->canon(Lane,
                                         C2.Nodes.block(Choice.Act.Node)));
          if (Peer && Peer->Node != Choice.Act.Node)
            C2.Nodes.setBlock(Peer->Node,
                              Arena->canon(Lane, C2.Nodes.block(Peer->Node)));
        }
        Emit(std::move(C2), std::move(Base));
        continue;
      }
      // Run action. runExact is pure in (program, node configuration), so
      // the expansion is memoizable per node block: a hit replays the
      // recorded worlds; a miss, or a run with the cache off, records them
      // first. Both emit through the identical weight arithmetic below.
      const DefDecl *Def = Spec.NodePrograms[Choice.Act.Node];
      const unsigned Node = Choice.Act.Node;
      const TxEntry *E =
          Cache ? Cache->lookup(Def, C.Nodes.block(Node)) : nullptr;
      TxEntry NE;
      if (E) {
        ++Res.TxHits;
        if (PF)
          PF->laneTxHits(Lane)[ProfDefs[Node].Root] += 1;
      } else {
        NE.Def = Def;
        NE.Key = C.Nodes.block(Node);
        StmtProfSink RunSink;
        if (Cache)
          ++Res.TxMisses;
        if (PF) {
          // Record this run's statement counts into zeroed lane scratch;
          // the entry keeps them as sparse (statement, count) pairs.
          const Profiler::DefFrames &DF = ProfDefs[Node];
          std::fill_n(ProfScratch[Lane].begin(), DF.Count, 0);
          RunSink.Execs = ProfScratch[Lane].data();
          if (Cache)
            PF->laneTxMisses(Lane)[DF.Root] += 1;
        }
        for (ExecWorld &World :
             Exec.runExact(*Def, C.Nodes[Node], PF ? &RunSink : nullptr)) {
          if (World.ObserveFailed)
            continue; // Observation failure: the mass is discarded.
          // Error worlds record a null block; only their mass matters. A
          // cached block is canonicalized here, so replays share it.
          NodeArray::BlockPtr NB;
          if (!World.Error)
            NB = std::make_shared<NodeBlock>(std::move(World.Node));
          if (NB && Arena && Cache)
            NB = Arena->canon(Lane, NB);
          NE.Worlds.push_back({std::move(NB), std::move(World.Prob),
                               std::move(World.Guards), World.Error});
        }
        if (PF)
          for (uint32_t I = 0; I < ProfDefs[Node].Count; ++I)
            if (uint64_t N = ProfScratch[Lane][I])
              NE.ProfExecs.emplace_back(I, N);
        E = &NE;
      }
      if (PF) {
        // Charge the statement counts recorded when the entry was
        // computed, so a replay's Execs columns match a cache-off run.
        const Profiler::DefFrames &DF = ProfDefs[Node];
        uint64_t *LE = PF->laneExecs(Lane);
        for (const auto &[Idx, Count] : E->ProfExecs)
          LE[DF.First + Idx] += Count;
      }
      for (const TxWorld &TW : E->Worlds) {
        SymProb W2 = applyGuards(Base.scaled(TW.Prob), TW.Guards);
        if (W2.isZero())
          continue;
        if (TW.Error) {
          Res.ErrorMass += W2;
          continue;
        }
        NetConfig C2 = C;
        C2.invalidateHash();
        C2.SchedState = Choice.NextSchedState;
        // Without the cache, only successors that carry mass are
        // canonicalized.
        C2.Nodes.setBlock(Node, Arena && !Cache ? Arena->canon(Lane, TW.Node)
                                                : TW.Node);
        Emit(std::move(C2), std::move(W2));
      }
      if (Cache && E == &NE)
        Cache->stage(Lane, std::move(NE));
    }
  };

  // Merge tables: open-addressing index over the dense frontier keyed by
  // the configuration hash (support/FlatIndexMap.h). With the arena on, the
  // equality probe short-circuits on canonical pointers / intern ids; the
  // tables persist across steps so steady-state merging allocates nothing.
  FlatIndexMap SerialIndex;
  std::vector<FlatIndexMap> BucketIndex(Threads);
  auto addTo = [&](Frontier &F, FlatIndexMap &Index, NetConfig C, SymProb W) {
    if (!Opts.MergeStates) {
      F.emplace_back(std::move(C), std::move(W));
      return;
    }
    ++Result.MergeAttempts;
    uint64_t H = C.hash();
    uint32_t NewIdx = static_cast<uint32_t>(F.size());
    uint32_t At = Index.findOrInsert(
        H, NewIdx, [&](uint32_t I) { return F[I].first == C; });
    if (At == NewIdx) {
      F.emplace_back(std::move(C), std::move(W));
    } else {
      F[At].second += std::move(W);
      ++Result.MergeHits;
      if (BT)
        BT->chargeMerges();
    }
  };

  for (int64_t Step = StartStep; Step <= Spec.NumSteps; ++Step) {
    if (Cur.empty())
      break;
    BoundStep = Step;
    if (auto St = Bound.open(Cur.size())) {
      Result.Status = *St;
      setWall();
      return Result;
    }
    Result.MaxFrontierSize = std::max(Result.MaxFrontierSize, Cur.size());
    Result.StepsUsed = Step;
    bool LastStep = Step == Spec.NumSteps;

    // One span per scheduler round; the round's counts reach the sinks as
    // deltas when it completes (Bound.commit below, a serial point — counted
    // quantities are therefore independent of the thread count). Rounds
    // cut short by a stop charge nothing (Bound.abort).
    Boundary::Step StepObs = Bound.beginStep(Step, Cur.size());
    const BoundaryDelta Before = counters(Result);

    Frontier Next;
    if (Threads <= 1 || Cur.size() < Opts.ParallelThreshold) {
      // Serial step: expand and merge in one pass. The expand/merge spans
      // mirror the parallel path's phase structure (names, ids, args) so
      // the trace shape is identical at any thread count; the merge span
      // is zero-width here because merging is inlined into expansion.
      Span ExpandSpan = O.span("exact.expand");
      Profiler::Scope ProfExpandScope(PF, "expand");
      FlatIndexMap &NextIndex = SerialIndex;
      NextIndex.clear();
      NextIndex.reserve(Cur.size()); // Frontier sizes are step-correlated.
      Next.reserve(Cur.size());
      for (auto &[C, W] : Cur) {
        if (BT && BT->stop())
          break; // Mid-step stop; the post-step check restores and returns.
        expandOne(C, W, LastStep, Result, /*Lane=*/0,
                  [&](NetConfig C2, SymProb W2) {
                    if (BT)
                      BT->chargeBytes(C2.approxBytes());
                    addTo(Next, NextIndex, std::move(C2), std::move(W2));
                  });
        if (Next.size() > Opts.MaxFrontier) {
          frontierTrip(Next.size());
          return Result;
        }
      }
      ExpandSpan.end();
      ProfExpandScope.end();
      Span MergeSpan = O.span("exact.merge");
      Profiler::Scope ProfMergeScope(PF, "merge");
    } else {
      // Parallel step. Phase 1: each lane expands a contiguous shard of the
      // frontier, routing successors into hash-addressed buckets (bucket =
      // hash % Threads) and folding terminal/error mass into a lane-local
      // partial result. Phase 2: each bucket is merged independently,
      // consuming lane outputs in lane order — so the merged frontier, and
      // with it every weight, is a pure function of (frontier, Threads),
      // and all weights are exact rationals, making query results
      // bit-identical for every thread count.
      ThreadPool &Pool = ThreadPool::global();
      Span ExpandSpan = O.span("exact.expand");
      Profiler::Scope ProfExpandScope(PF, "expand");
      const size_t Lanes = Threads;
      const size_t Chunk = (Cur.size() + Lanes - 1) / Lanes;
      struct LaneOut {
        std::vector<Frontier> Buckets;
        ExactResult Partial;
      };
      std::vector<LaneOut> Outs(Lanes);
      Pool.parallelFor(Lanes, [&](size_t Lane) {
        LaneOut &O = Outs[Lane];
        O.Buckets.resize(Lanes);
        size_t Lo = std::min(Cur.size(), Lane * Chunk);
        size_t Hi = std::min(Cur.size(), Lo + Chunk);
        for (size_t I = Lo; I < Hi; ++I) {
          if (StopF && StopF->load(std::memory_order_acquire))
            return; // Drain: partial lane output is discarded below.
          expandOne(Cur[I].first, Cur[I].second, LastStep, O.Partial,
                    static_cast<unsigned>(Lane),
                    [&](NetConfig C2, SymProb W2) {
                      if (BT)
                        BT->chargeBytes(C2.approxBytes());
                      size_t B = C2.hash() % Lanes;
                      O.Buckets[B].emplace_back(std::move(C2),
                                                std::move(W2));
                    });
        }
      }, StopF);
      if (BT && BT->stop()) {
        // Mid-step stop (cancel, deadline, byte trip): discard the lanes'
        // partial output and report the last completed boundary.
        stopMidStep();
        return Result;
      }
      if (Result.WorkerConfigsExpanded.size() < Lanes)
        Result.WorkerConfigsExpanded.resize(Lanes, 0);
      for (size_t Lane = 0; Lane < Lanes; ++Lane) {
        Result.WorkerConfigsExpanded[Lane] +=
            Outs[Lane].Partial.ConfigsExpanded;
        foldPartial(Result, Outs[Lane].Partial);
      }
      ExpandSpan.end();
      ProfExpandScope.end();
      // Phase 2: merge each bucket (deterministic lane order within).
      Span MergeSpan = O.span("exact.merge");
      Profiler::Scope ProfMergeScope(PF, "merge");
      std::vector<Frontier> Merged(Lanes);
      std::vector<size_t> BucketHits(Lanes, 0);
      std::vector<size_t> BucketAttempts(Lanes, 0);
      Pool.parallelFor(Lanes, [&](size_t B) {
        size_t Total = 0;
        for (size_t Lane = 0; Lane < Lanes; ++Lane)
          Total += Outs[Lane].Buckets[B].size();
        Frontier &F = Merged[B];
        F.reserve(Total);
        if (!Opts.MergeStates) {
          for (size_t Lane = 0; Lane < Lanes; ++Lane)
            for (auto &CW : Outs[Lane].Buckets[B])
              F.push_back(std::move(CW));
          return;
        }
        BucketAttempts[B] = Total; // Every input is one merge lookup.
        FlatIndexMap &Index = BucketIndex[B];
        Index.clear();
        Index.reserve(Total);
        for (size_t Lane = 0; Lane < Lanes; ++Lane)
          for (auto &CW : Outs[Lane].Buckets[B]) {
            uint64_t H = CW.first.hash();
            uint32_t NewIdx = static_cast<uint32_t>(F.size());
            uint32_t At = Index.findOrInsert(
                H, NewIdx,
                [&](uint32_t I) { return F[I].first == CW.first; });
            if (At == NewIdx) {
              F.emplace_back(std::move(CW.first), std::move(CW.second));
            } else {
              F[At].second += std::move(CW.second);
              ++BucketHits[B];
            }
          }
      }, StopF);
      size_t Total = 0;
      size_t StepHits = 0;
      for (size_t B = 0; B < Lanes; ++B) {
        Total += Merged[B].size();
        StepHits += BucketHits[B];
        Result.MergeAttempts += BucketAttempts[B];
      }
      Result.MergeHits += StepHits;
      if (BT)
        BT->chargeMerges(StepHits);
      if (Total > Opts.MaxFrontier) {
        frontierTrip(Total);
        return Result;
      }
      Next.reserve(Total);
      for (size_t B = 0; B < Lanes; ++B)
        for (auto &CW : Merged[B])
          Next.push_back(std::move(CW));
    }
    if (BT && BT->stop()) {
      // A stop fired during the step (serial break, or phase 2 of the
      // parallel path): the step did not complete, so report the boundary.
      stopMidStep();
      return Result;
    }
    // Serial publication of this step's staged entries, arena first:
    // canonical blocks become visible before the transition cache
    // publishes, so cache entries staged alongside them replay
    // already-canonical blocks. Inserted bytes are charged to the budget
    // (both tables are retained memory, unlike the per-step frontier
    // gauge, so they are charged on growth only).
    auto publish = [&](auto &Table, const char *Name, bool ReportStaged,
                       uint64_t &Evictions, uint64_t &Bytes) {
      if (!Table)
        return;
      Span S = O.span(std::string("exact.") + Name);
      Profiler::Scope ProfScope(PF, Name);
      PublishStats PS = Table->publishStaged();
      Evictions += PS.Evicted;
      Bytes = Table->bytes();
      if (BT && PS.InsertedBytes)
        BT->chargeBytes(PS.InsertedBytes);
      if (O.tracing()) {
        // The arena's staged count reflects in-lane dedup, the one publish
        // statistic that depends on the lane split, so only the cache
        // reports it. The rest are pure functions of the content set.
        if (ReportStaged)
          S.arg("staged", PS.Staged);
        S.arg("inserted", PS.Inserted);
        S.arg("evicted", PS.Evicted);
        S.arg("bytes", Table->bytes());
      }
    };
    publish(Arena, "intern", false, Result.InternEvictions, Result.InternBytes);
    if (Arena)
      Arena->drainCounters(Result.InternHits, Result.InternMisses);
    publish(Cache, "txcache", true, Result.TxEvictions, Result.TxBytes);
    BoundaryDelta D = counters(Result) - Before;
    D.Step = Step;
    D.FrontierIn = Cur.size();
    D.FrontierOut = Next.size();
    Bound.commit(StepObs, D);
    Cur = std::move(Next);
  }
  Bound.finish({.States = Result.ConfigsExpanded,
                .Peak = Result.MaxFrontierSize,
                .Support = Result.TerminalConfigs,
                .Residual = residualMass(Result.OkMass, Result.ErrorMass)});
  setWall();
  return Result;
}
