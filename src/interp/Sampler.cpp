//===- interp/Sampler.cpp - Approximate inference by sampling -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Sampler.h"
#include "obs/Boundary.h"
#include "query/QueryEval.h"
#include "support/Snapshot.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>

using namespace bayonet;

namespace {

/// SMC resamples when the live fraction of particles drops below this.
constexpr double ResampleThreshold = 0.5;

/// How far ahead of the executing particle the second pass of a step
/// prefetches the picked node. Executing a slot walks a chain of dependent
/// loads, so the prefetch is staged: the particle's Blocks[] slot this many
/// particles ahead, the NodeBlock it points to half as many ahead, and the
/// queue (and state) arrays inside the block a quarter as many ahead; each
/// stage reads only lines the one before it fetched.
constexpr size_t PrefetchAhead = 12;

/// Sets or clears bit \p Slot of the enabled-slot mask \p Mask.
void setSlot(uint64_t *Mask, int64_t Slot, bool On) {
  const uint64_t Bit = uint64_t(1) << (Slot & 63);
  uint64_t &W = Mask[Slot >> 6];
  W = On ? W | Bit : W & ~Bit;
}

/// Refreshes node \p Node's Run and Fwd bits from its queues.
void maskNode(uint64_t *Mask, unsigned Node, const NodeConfig &NC) {
  setSlot(Mask, 2 * static_cast<int64_t>(Node), !NC.QIn.empty());
  setSlot(Mask, 2 * static_cast<int64_t>(Node) + 1, !NC.QOut.empty());
}

/// Recomputes the whole enabled-slot mask of \p C.
void buildMask(const NetConfig &C, uint64_t *Mask, size_t Words) {
  std::fill(Mask, Mask + Words, 0);
  for (unsigned N = 0; N < C.Nodes.size(); ++N)
    maskNode(Mask, N, C.Nodes[N]);
}

} // namespace

void Sampler::initParticle(Population &Pop, size_t I,
                           int64_t InitSchedState) const {
  NetConfig &Config = Pop.Configs[I];
  Xoshiro &Rng = Pop.Rngs[I];
  Config.Nodes.resize(Spec.Topo.numNodes());
  for (unsigned N = 0; N < Spec.Topo.numNodes(); ++N) {
    NodeConfig &NC = Config.Nodes.mut(N);
    NC.QIn = PacketQueue(Spec.QueueCapacity);
    NC.QOut = PacketQueue(Spec.QueueCapacity);
  }
  Config.SchedState = InitSchedState;

  for (unsigned Node = 0; Node < Spec.Topo.numNodes(); ++Node) {
    const DefDecl *Def = Spec.NodePrograms[Node];
    if (!Def)
      continue;
    for (const StateVarDecl &SV : Def->StateVars) {
      if (!SV.Init) {
        Config.Nodes.mut(Node).State.push_back(Value(Rational(0)));
        continue;
      }
      auto V = Exec.evalInitSampled(*SV.Init, Rng);
      if (!V) {
        Pop.Error[I] = 1;
        return;
      }
      Config.Nodes.mut(Node).State.push_back(std::move(*V));
    }
  }
  for (const InitPacketSpec &Init : Spec.Inits) {
    Packet Pkt;
    Pkt.Fields.reserve(Init.Fields.size());
    for (const Rational &F : Init.Fields)
      Pkt.Fields.push_back(Value(F));
    Config.Nodes.mut(Init.Node).QIn.pushBack({std::move(Pkt), 0});
  }
}

void Sampler::execute(Population &Pop, size_t Idx, int64_t Slot,
                      int64_t Next, Profiler *PF,
                      const std::vector<Profiler::DefFrames> *ProfDefs,
                      unsigned Lane) const {
  NetConfig &Config = Pop.Configs[Idx];
  uint64_t *Mask = Pop.mask(Idx);
  const Action Act = slotAction(Slot);
  Config.SchedState = Next;
  if (Act.K == Action::Kind::Fwd) {
    // A Fwd changes only the source's output queue and the peer's input
    // queue, so only those two bits can flip.
    NodeConfig &Src = Config.Nodes.mut(Act.Node);
    QueueEntry E = Src.QOut.takeFront();
    setSlot(Mask, Slot, !Src.QOut.empty());
    if (auto Peer = Spec.Topo.peer(Act.Node, E.Port)) {
      E.Port = Peer->Port;
      NodeConfig &Dst = Config.Nodes.mut(Peer->Node);
      Dst.QIn.pushBack(std::move(E));
      setSlot(Mask, 2 * static_cast<int64_t>(Peer->Node), !Dst.QIn.empty());
    }
    return;
  }
  const DefDecl *Def = Spec.NodePrograms[Act.Node];
  StmtProfSink Sink;
  const StmtProfSink *SinkP = nullptr;
  if (PF) {
    // Point the executor at this lane's shard, offset to the def's
    // statement range (Stmt::ProfIndex is def-local).
    const Profiler::DefFrames &DF = (*ProfDefs)[Act.Node];
    Sink.Execs = PF->laneExecs(Lane) + DF.First;
    Sink.Samples = PF->laneSamples(Lane) + DF.First;
    SinkP = &Sink;
  }
  // A node program touches only its own node's queues.
  NodeConfig &Node = Config.Nodes.mut(Act.Node);
  SampleStatus St = Exec.runSampled(*Def, Node, Pop.Rngs[Idx], SinkP);
  maskNode(Mask, Act.Node, Node);
  if (St == SampleStatus::Error)
    Pop.Error[Idx] = 1;
  else if (St == SampleStatus::ObserveFailed)
    Pop.Dead[Idx] = 1;
}

SampleResult Sampler::run() const {
  const auto WallStart = std::chrono::steady_clock::now();
  SampleResult Result;
  if (Spec.Query)
    Result.Kind = Spec.Query->Kind;
  Result.Particles = Opts.Particles;
  const unsigned Threads = resolveThreads(Opts.Threads);
  auto Sched = Scheduler::forSpec(Spec);
  const SlotSampler Picker(*Sched, Spec.Topo.numNodes());

  BudgetTracker *BT = Opts.Budget.get();
  const std::atomic<bool> *StopF = BT ? &BT->stopFlag() : nullptr;
  const std::string EngineName =
      Opts.Mode == SampleOptions::Method::Smc ? "smc" : "reject";
  Checkpointer *CP = Opts.Checkpoint.get();
  auto setWall = [&] {
    Result.WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - WallStart)
                        .count();
  };
  Boundary Bound(EngineKind::Smc, EngineName, Opts.Obs.get(), BT, CP);
  if (CP) {
    // The resample threshold stays in the fingerprint, bit-exactly, so
    // SMC snapshots written by earlier builds still match and resume.
    uint64_t ThresholdBits = 0;
    std::memcpy(&ThresholdBits, &ResampleThreshold,
                sizeof(ThresholdBits));
    Bound.SpecFp = specFingerprint(Spec);
    Bound.OptsFp = Fingerprint()
                       .mix(EngineName)
                       .mix(static_cast<uint64_t>(Opts.Particles))
                       .mix(Opts.Seed)
                       .mix(ThresholdBits)
                       .value();
  }
  // Statement counts go to per-lane shards folded at the serial step
  // boundary.
  if (auto St = Bound.attach(
          {.Lanes = Threads, .Spec = &Spec, .Particles = Opts.Particles})) {
    Result.Status = *St;
    setWall();
    return Result;
  }
  ObsHandle O(Opts.Obs);
  Profiler *PF = Bound.profiler();
  const std::vector<Profiler::DefFrames> &ProfDefs = Bound.defs();

  // Stream assignment is serial and in particle order: particle I's draws
  // are a pure function of (Seed, I), never of which lane steps it. The
  // resampler gets its own stream so population-level draws are likewise
  // thread-count-independent.
  Xoshiro Master(Opts.Seed);
  Xoshiro ResampleRng = Master.split();
  Population Pop;
  Pop.MaskWords = Picker.words();
  Pop.resize(Opts.Particles);
  for (Xoshiro &R : Pop.Rngs)
    R = Master.split();
  // Per-lane scratch for the non-uniform schedulers' choice lists: reused
  // across every particle-step a lane runs, so the steady-state step loop
  // allocates nothing.
  std::vector<std::vector<SchedChoice>> ChoiceScratch(Threads);
  // A step's first pass leaves each particle's picked slot (-1: none) and
  // scheduler successor state here for the second pass.
  std::vector<int64_t> PickSlot(Pop.size()), PickNext(Pop.size());

  // Particles are fully independent between population-level events, so
  // lanes can step disjoint particles concurrently. Each lane owns a
  // contiguous chunk, so the lane index is a stable identity the profiler
  // shards by (one writer per lane shard during a batch). Fn gets the
  // particle, the end of its lane's chunk and the lane.
  auto forParticles = [&](auto &&Fn) {
    if (Threads <= 1) {
      for (size_t I = 0; I < Pop.size(); ++I) {
        if (StopF && StopF->load(std::memory_order_acquire))
          return; // Cooperative mid-batch stop (deadline / cancellation).
        Fn(I, Pop.size(), 0);
      }
      return;
    }
    const size_t Lanes = Threads;
    const size_t Chunk = (Pop.size() + Lanes - 1) / Lanes;
    ThreadPool::global().parallelFor(
        Lanes,
        [&](size_t Lane) {
          size_t Lo = std::min(Pop.size(), Lane * Chunk);
          size_t Hi = std::min(Pop.size(), Lo + Chunk);
          for (size_t I = Lo; I < Hi; ++I) {
            if (StopF && StopF->load(std::memory_order_acquire))
              return;
            Fn(I, Hi, static_cast<unsigned>(Lane));
          }
        },
        StopF);
  };

  int64_t StartStep = 0;
  bool Resumed = false;
  if (SnapReader *R = Bound.resumeReader()) {
    BlockReadTable T;
    StartStep = R->i64();
    Result.StepsRun = R->i64();
    bool Ok = readRng(*R, ResampleRng);
    uint64_t N = R->count();
    Ok = Ok && N == Pop.size();
    for (uint64_t I = 0; I < N && Ok && R->ok(); ++I) {
      Ok = readNetConfig(*R, T, Pop.Configs[I]) &&
           Pop.Configs[I].Nodes.size() == Spec.Topo.numNodes() &&
           readRng(*R, Pop.Rngs[I]);
      if (Ok)
        buildMask(Pop.Configs[I], Pop.mask(I), Pop.MaskWords);
      Pop.Dead[I] = R->boolean();
      Pop.Error[I] = R->boolean();
      Pop.Terminal[I] = R->boolean();
    }
    if (!Ok || !R->ok()) {
      Result = SampleResult();
      if (Spec.Query)
        Result.Kind = Spec.Query->Kind;
      Result.Particles = Opts.Particles;
      Result.Status =
          EngineStatus::invalid("corrupt snapshot: sampler engine payload");
      setWall();
      return Result;
    }
    Resumed = true;
  }

  if (!Resumed) {
    Profiler::Scope ProfInitScope(PF, "init");
    forParticles([&](size_t I, size_t, unsigned) {
      initParticle(Pop, I, Sched->initialState());
      buildMask(Pop.Configs[I], Pop.mask(I), Pop.MaskWords);
      if (BT) {
        BT->chargeStates();
        // The population's memory is allocated once, up front: the byte
        // gauge is charged at init and never reset.
        BT->chargeBytes(Pop.Configs[I].approxBytes());
      }
    });
    // Init is population-level: charge it once, serially (draw-level
    // attribution starts with the step loop).
    if (PF)
      PF->charge(ProfInitScope.slot(),
                 {.States = Pop.size(), .Execs = Pop.size()});
  }

  // Serializes the population as of the current serial boundary. Written
  // before the boundary's budget/obs charges, so a resumed run re-executes
  // them exactly once; never written mid-step (lanes mutate particles).
  int64_t BoundStep = StartStep;
  auto SerializeState = [&](SnapWriter &W) {
    BlockTable T;
    W.i64(BoundStep);
    W.i64(Result.StepsRun);
    snapRng(W, ResampleRng);
    W.u64(Pop.size());
    // Interleaved per-particle order: byte-identical to the record-layout
    // snapshot format, so SoA and pre-SoA snapshots interchange.
    for (size_t I = 0; I < Pop.size(); ++I) {
      snapNetConfig(W, T, Pop.Configs[I]);
      snapRng(W, Pop.Rngs[I]);
      W.boolean(Pop.Dead[I]);
      W.boolean(Pop.Error[I]);
      W.boolean(Pop.Terminal[I]);
    }
  };

  Bound.Payload = SerializeState;
  std::vector<size_t> SurvivorIdx; // Resample scratch, reused across steps.
  for (int64_t Step = StartStep; Step < Spec.NumSteps; ++Step) {
    // Serial boundary: the population is a pure function of (seed,
    // completed steps) here, so a snapshot resumes bit-identically and the
    // deterministic budget classes stop at the same boundary for every
    // thread count.
    BoundStep = Step;
    if (auto St = Bound.open(Pop.size())) {
      Result.Status = *St;
      break;
    }
    // Particle-steps are counted serially here: the set of active particles
    // at a boundary never depends on lane interleaving. Dense flag scan:
    // touches three byte arrays, never the configs.
    uint64_t Active = 0;
    if (O)
      for (size_t I = 0; I < Pop.size(); ++I)
        if (!Pop.Dead[I] && !Pop.Terminal[I] && !Pop.Error[I])
          ++Active;
    Boundary::Step StepObs = Bound.beginStep(Step, Active);
    // Pass 1: every active particle picks its action from its dense mask
    // and its own stream, touching no node block. A particle with no
    // enabled slot becomes terminal.
    forParticles([&](size_t I, size_t, unsigned Lane) {
      PickSlot[I] = -1;
      if (Pop.Dead[I] || Pop.Terminal[I] || Pop.Error[I])
        return;
      if (BT)
        BT->chargeStates(); // One particle-step.
      Xoshiro &Rng = Pop.Rngs[I];
      PickSlot[I] = Picker.pick(
          Pop.mask(I), Pop.Configs[I].SchedState,
          [&Rng] { return Rng.nextDouble(); }, ChoiceScratch[Lane],
          PickNext[I]);
      if (PickSlot[I] < 0)
        Pop.Terminal[I] = 1;
    });
    // Pass 2: execute the picks in particle order. The picked node is
    // known ahead, so its block is prefetched a few particles early (only
    // within the lane's own chunk, which no other lane writes). Each
    // particle's executor draws follow its pick draw, as in a one-pass
    // step, so every stream sees the same sequence.
    forParticles([&](size_t I, size_t End, unsigned Lane) {
      if (size_t J = I + PrefetchAhead; J < End && PickSlot[J] >= 0)
        __builtin_prefetch(&Pop.Configs[J].Nodes.block(PickSlot[J] / 2));
      if (size_t J = I + PrefetchAhead / 2; J < End && PickSlot[J] >= 0)
        __builtin_prefetch(Pop.Configs[J].Nodes.block(PickSlot[J] / 2).get());
      if (size_t J = I + PrefetchAhead / 4; J < End && PickSlot[J] >= 0) {
        const NodeConfig &NC = Pop.Configs[J].Nodes[PickSlot[J] / 2];
        if (PickSlot[J] % 2)
          __builtin_prefetch(NC.QOut.entries().data());
        else {
          __builtin_prefetch(NC.QIn.entries().data());
          __builtin_prefetch(NC.State.data());
        }
      }
      if (PickSlot[I] < 0)
        return;
      execute(Pop, I, PickSlot[I], PickNext[I], PF, &ProfDefs, Lane);
#ifndef NDEBUG
      std::vector<uint64_t> Full(Pop.MaskWords);
      buildMask(Pop.Configs[I], Full.data(), Full.size());
      assert(std::equal(Full.begin(), Full.end(), Pop.mask(I)) &&
             "incremental enabled mask diverged from its configuration");
#endif
    });
    bool AnyLive = false;
    unsigned Alive = 0;
    for (size_t I = 0; I < Pop.size(); ++I) {
      if (Pop.Dead[I])
        continue;
      ++Alive;
      if (!Pop.Terminal[I] && !Pop.Error[I])
        AnyLive = true;
    }
    // SMC: resample from the survivors when too many particles died on
    // observations (self-normalized; weights are 0/1 with hard observes).
    // Resampling is a population-level event: it runs serially on the
    // dedicated resample stream, and every resampled copy gets a fresh
    // stream (identical copies sharing a stream would evolve identically).
    bool DidResample = false;
    if (Opts.Mode == SampleOptions::Method::Smc && Alive > 0 &&
        Alive < Opts.Particles * ResampleThreshold) {
      DidResample = true;
      Span ResampleSpan = O.span("smc.resample");
      Profiler::Scope ProfResampleScope(PF, "resample");
      if (O.tracing())
        ResampleSpan.arg("alive", static_cast<uint64_t>(Alive));
      // Systematic pass over the SoA arrays: survivor indices are gathered
      // in particle order from the dense Dead flags, then every slot of
      // the new population copies a survivor picked on the dedicated
      // resample stream and receives a fresh split stream. The
      // nextBelow()/split() draw sequence matches the record-layout
      // resampler draw for draw, so sampled posteriors are bit-identical.
      SurvivorIdx.clear();
      for (size_t I = 0; I < Pop.size(); ++I)
        if (!Pop.Dead[I])
          SurvivorIdx.push_back(I);
      Population NewPop;
      NewPop.MaskWords = Pop.MaskWords;
      NewPop.reserve(Opts.Particles);
      for (unsigned I = 0; I < Opts.Particles; ++I) {
        size_t J = SurvivorIdx[ResampleRng.nextBelow(SurvivorIdx.size())];
        NewPop.Configs.push_back(Pop.Configs[J]); // COW: block refs shared.
        NewPop.Rngs.push_back(ResampleRng.split());
        NewPop.Dead.push_back(0);
        NewPop.Error.push_back(Pop.Error[J]);
        NewPop.Terminal.push_back(Pop.Terminal[J]);
        NewPop.Mask.insert(NewPop.Mask.end(), Pop.mask(J),
                           Pop.mask(J) + Pop.MaskWords);
      }
      Pop = std::move(NewPop);
    }
    if (BT && BT->stop()) {
      // The stop fired mid-step (only the timing-dependent classes can):
      // report it and aggregate whatever is terminal. The step does not
      // count as completed.
      Bound.abort();
      Result.Status = BT->status();
      break;
    }
    Result.StepsRun = Step + 1;
    Bound.commit(StepObs, {.Step = Step,
                           .Active = Active,
                           .Alive = Alive,
                           .Resampled = DidResample});
    if (!AnyLive)
      break;
  }

  // Aggregate: particles still running at the bound are error particles
  // (assert(terminated()) fails); dead particles are discarded. Runs
  // serially in particle order — double addition is not associative, so a
  // sharded sum would vary with the thread count.
  double Sum = 0, SumSq = 0;
  unsigned Ok = 0, Errors = 0;
  for (size_t PI = 0; PI < Pop.size(); ++PI) {
    if (Pop.Dead[PI])
      continue;
    if (Pop.Error[PI] || !Pop.Terminal[PI]) {
      ++Errors;
      continue;
    }
    if (!Spec.Query || !Spec.Query->Body) {
      Result.QueryUnsupported = true;
      Result.UnsupportedReason = "no query";
      continue;
    }
    // The "given" clause is a terminal-state observation: particles that
    // violate it are discarded like failed observes. A sampled state is
    // concrete, so the query evaluator's answer is one unguarded constant;
    // anything else (a failure, or a split on an unbound parameter) makes
    // the query unsupported.
    std::string Reason;
    if (Spec.Query->Given) {
      auto G = evalQueryConstant(Spec, *Spec.Query->Given, Pop.Configs[PI],
                                 Reason);
      if (!G) {
        Result.QueryUnsupported = true;
        Result.UnsupportedReason =
            Reason.empty() ? "given clause not evaluable" : Reason;
        continue;
      }
      if (G->isZero())
        continue;
    }
    auto V =
        evalQueryConstant(Spec, *Spec.Query->Body, Pop.Configs[PI], Reason);
    if (!V) {
      Result.QueryUnsupported = true;
      Result.UnsupportedReason =
          Reason.empty() ? "query not evaluable on a sampled state" : Reason;
      continue;
    }
    double Sample = Result.Kind == QueryKind::Probability
                        ? (V->isZero() ? 0.0 : 1.0)
                        : V->toDouble();
    Sum += Sample;
    SumSq += Sample * Sample;
    ++Ok;
  }
  Result.Survivors = Ok + Errors;
  Bound.finish({.Steps = static_cast<uint64_t>(Result.StepsRun),
                .Support = Result.Survivors});
  Result.ErrorFraction =
      Result.Survivors ? static_cast<double>(Errors) / Result.Survivors : 0.0;
  Result.Value = Ok ? Sum / Ok : 0.0;
  if (Ok >= 2) {
    double Var =
        (SumSq - Sum * Sum / Ok) / (Ok - 1); // Sample variance.
    Result.StdError = Var > 0 ? std::sqrt(Var / Ok) : 0.0;
  }
  // Tearing down the population (every particle's node blocks) is part of
  // the run's cost: release it before stamping the wall time.
  Pop = Population();
  setWall();
  return Result;
}
