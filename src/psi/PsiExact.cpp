//===- psi/PsiExact.cpp - Exact inference on the PSI IR --------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "psi/PsiExact.h"

#include "obs/Boundary.h"
#include "psi/PsiLiveness.h"
#include "support/FlatIndexMap.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

using namespace bayonet;

namespace {

using Env = std::vector<PsiValue>;

struct EnvHash {
  size_t operator()(const Env &E) const {
    size_t H = 0x811c9dc5;
    for (const PsiValue &V : E)
      H = H * 0x100000001b3ULL ^ V.hash();
    return H;
  }
};

/// One weighted environment.
struct Branch {
  Env Vars;
  SymProb W;
};

using Dist = std::vector<Branch>;

/// One outcome of evaluating an expression on a fixed environment.
struct Outcome {
  PsiValue V;
  Rational Prob = Rational(1);
  std::vector<Constraint> Guards;
  bool Failed = false;
  std::string FailReason;

  static Outcome fail(std::string Reason) {
    Outcome O;
    O.Failed = true;
    O.FailReason = std::move(Reason);
    return O;
  }

  /// A failure outcome carrying the combined probability and guards of two
  /// evaluated operands. Binary draws (uniformInt, indexing) must use this
  /// for every failure: a failure outcome with the default Prob = 1 counts
  /// the whole branch as failed even when only (say) half of the operand
  /// mass reaches the failing combination — and emitting a bare failed
  /// operand once per outcome of the other operand multiplies its mass by
  /// that outcome count.
  static Outcome failCombined(std::string Reason, const Outcome &A,
                              const Outcome &B) {
    Outcome O;
    O.Failed = true;
    O.FailReason = std::move(Reason);
    O.Prob = A.Prob * B.Prob;
    O.Guards = A.Guards;
    for (const Constraint &G : B.Guards)
      O.Guards.push_back(G);
    return O;
  }
};

SymProb applyGuards(SymProb W, const std::vector<Constraint> &Guards) {
  for (const Constraint &G : Guards) {
    W = W.restricted(G);
    if (W.isZero())
      break;
  }
  return W;
}

/// The run's cumulative boundary counters; a statement's delta is the
/// difference of the snapshots on either side of it.
BoundaryDelta counters(const PsiExactResult &R) {
  return {.Expanded = R.BranchesExpanded,
          .MergeAttempts = R.MergeAttempts,
          .MergeHits = R.MergeHits};
}

/// The exact interpreter over distributions.
class Interp {
public:
  Interp(const PsiProgram &P, const PsiExactOptions &Opts,
         PsiExactResult &Result)
      : P(P), Opts(Opts), Result(Result), Threads(resolveThreads(Opts.Threads)),
        BT(Opts.Budget.get()), StopF(BT ? &BT->stopFlag() : nullptr),
        O(Opts.Obs), Dead(computeMergeLiveness(P)),
        Bound(EngineKind::Psi, "psi", Opts.Obs.get(), BT,
              Opts.Checkpoint.get()) {
    if (Opts.Checkpoint) {
      // The PSI IR has no structural identity beyond its text: fingerprint
      // the printed program (deterministic, covers every statement).
      Bound.SpecFp = Fingerprint().mix(printPsiProgram(P)).value();
      Bound.OptsFp = Fingerprint()
                         .mix(std::string("psi"))
                         .mix(Opts.MergeEnvs)
                         .mix(static_cast<uint64_t>(Opts.WhileFuel))
                         .mix(Opts.MaxDist)
                         .value();
      Bound.Payload = [this](SnapWriter &W) { serializeState(W); };
    }
    // A mid-statement stop (cancellation, deadline, byte trip) discards the
    // statement's partial work and reports the last statement boundary.
    Bound.Save = [this] { Saved = this->Result; };
    Bound.Restore = [this] { this->Result = Saved; };
  }

  void run() {
    // Every IR statement becomes a profiler frame under the engine root.
    // The interpreter spine is serial (parallelism lives inside
    // expandBranches/splitCond), so one lane shard suffices.
    if (auto St = Bound.attach({.Psi = &P})) {
      Result.Status = *St;
      return;
    }
    PF = Bound.profiler();
    Dist D;
    size_t StartIdx = 0;
    bool Resumed = false;
    if (SnapReader *R = Bound.resumeReader()) {
      StartIdx = static_cast<size_t>(R->i64());
      R->i64(); // The diagnostics round index, equal to StartIdx.
      uint64_t N = R->count();
      D.reserve(N);
      bool Ok = StartIdx <= P.Body.size();
      for (uint64_t I = 0; I < N && Ok && R->ok(); ++I) {
        Branch B;
        uint64_t NV = R->count();
        Ok = NV == P.VarNames.size();
        B.Vars.reserve(NV);
        for (uint64_t V = 0; V < NV && Ok && R->ok(); ++V) {
          PsiValue PV;
          Ok = readPsiValue(*R, PV);
          if (Ok)
            B.Vars.push_back(std::move(PV));
        }
        Ok = Ok && readSymProb(*R, B.W);
        if (Ok)
          D.push_back(std::move(B));
      }
      Ok = Ok && readSymProb(*R, Result.ErrorMass);
      Result.QueryUnsupported = R->boolean();
      Result.UnsupportedReason = R->str();
      Result.BranchesExpanded = R->u64();
      Result.MaxDistSize = R->u64();
      Result.MergeHits = R->u64();
      Result.MergeAttempts = R->u64();
      uint64_t NW = R->count();
      Result.WorkerBranchesExpanded.assign(NW, 0);
      for (uint64_t I = 0; I < NW && R->ok(); ++I)
        Result.WorkerBranchesExpanded[I] = R->u64();
      if (!Ok || !R->ok()) {
        Result = PsiExactResult();
        Result.Kind = P.Kind;
        Result.Status =
            EngineStatus::invalid("corrupt snapshot: psi engine payload");
        return;
      }
      Resumed = true;
    }
    if (!Resumed) {
      Env Init(P.VarNames.size(), PsiValue());
      D.push_back({std::move(Init), SymProb::concrete(Rational(1))});
    }
    // Top-level statements execute one by one so the checkpointer can
    // snapshot at their boundaries, where D is the whole engine state.
    TopD = &D;
    for (size_t I = StartIdx; I < P.Body.size() && !Aborted && !D.empty();
         ++I) {
      TopIdx = static_cast<int64_t>(I);
      if (auto St = Bound.open(D.size())) {
        Result.Status = *St;
        Aborted = true;
        break;
      }
      execStmt(*P.Body[I], D);
    }
    TopD = nullptr;
    RunSummary Summary{.States = Result.BranchesExpanded,
                       .Peak = Result.MaxDistSize};
    if (Aborted || stopped()) {
      // The run span records the work done; a budget or cancel stop then
      // reports the last completed statement boundary (bit-identical for
      // every thread count for the deterministic stop classes).
      Bound.finish(Summary, /*Completed=*/false);
      Bound.abort();
      if (stopped())
        Result.Status = BT->status();
      return;
    }
    {
      Profiler::Scope ProfFinish(PF, "finish");
      finish(D);
    }
    if (stopped())
      Result.Status = BT->status(); // Stop raced in during finish().
    Summary.Support = D.size(); // Surviving environments.
    Summary.Residual = residualMass(Result.OkMass, Result.ErrorMass);
    Bound.finish(Summary);
  }

private:
  const PsiProgram &P;
  const PsiExactOptions &Opts;
  PsiExactResult &Result;
  const unsigned Threads;
  BudgetTracker *BT;
  const std::atomic<bool> *StopF;
  ObsHandle O;
  /// Dead slots at every merge point; mergeDist resets them to PsiValue()
  /// so environments that differ only in dead values merge.
  const PsiLiveness Dead;
  Boundary Bound;
  Profiler *PF = nullptr;
  /// The reported statistics as of the last statement boundary.
  PsiExactResult Saved;
  /// The top-level distribution and statement index, valid while run()'s
  /// statement loop is live: snapshots are only taken at its boundaries,
  /// where this pair is the whole resumable state.
  Dist *TopD = nullptr;
  int64_t TopIdx = 0;
  /// Statement nesting depth; only top-level statements are boundaries, so
  /// obs cost is bounded by the program's length.
  unsigned Depth = 0;
  bool Aborted = false;

  /// Serializes the engine state as of the current top-level statement
  /// boundary (run()'s loop keeps TopD/TopIdx current; D is untouched
  /// between the boundary and the statement's first expansion). The
  /// diagnostics round index written second equals the statement index.
  void serializeState(SnapWriter &W) {
    W.i64(TopIdx);
    W.i64(TopIdx);
    W.u64(TopD->size());
    for (const Branch &B : *TopD) {
      W.u64(B.Vars.size());
      for (const PsiValue &V : B.Vars)
        snapPsiValue(W, V);
      snapSymProb(W, B.W);
    }
    snapSymProb(W, Result.ErrorMass);
    W.boolean(Result.QueryUnsupported);
    W.str(Result.UnsupportedReason);
    W.u64(Result.BranchesExpanded);
    W.u64(Result.MaxDistSize);
    W.u64(Result.MergeHits);
    W.u64(Result.MergeAttempts);
    W.u64(Result.WorkerBranchesExpanded.size());
    for (size_t V : Result.WorkerBranchesExpanded)
      W.u64(V);
  }

  static size_t envBytes(const Env &E) {
    size_t B = 0;
    for (const PsiValue &V : E)
      B += V.approxBytes();
    return B;
  }

  /// Charges one expanded branch to the governor (thread-safe).
  void chargeBranch(const Branch &B) {
    if (!BT)
      return;
    BT->chargeStates();
    BT->chargeBytes(envBytes(B.Vars));
  }

  bool stopped() const { return BT && BT->stop(); }

  void fail(Branch &B, const std::string &Reason, SymProb &ErrMass) {
    (void)Reason;
    ErrMass += B.W;
  }
  void fail(Branch &B, const std::string &Reason) {
    fail(B, Reason, Result.ErrorMass);
  }

  /// The environment of outcome \p I of \p N evaluated on \p B: a copy,
  /// except that the last outcome takes B's own — every caller consumes the
  /// branches it expands, and most statements have a single outcome.
  static Env outcomeEnv(Branch &B, size_t I, size_t N) {
    if (I + 1 < N)
      return B.Vars;
    return std::move(B.Vars);
  }

  bool useParallel(size_t N) const {
    return Threads > 1 && N >= Opts.ParallelThreshold;
  }

  /// Expands every branch of \p D independently through \p PerBranch,
  /// which receives (branch, successor sink, error-mass accumulator) and
  /// must only touch those. Serial below the threshold; above it the
  /// distribution is sharded into contiguous chunks and per-lane outputs
  /// are committed in lane order, so the successor distribution is
  /// independent of the thread count (weights are exact, so even the
  /// one-lane order would give identical masses after merging).
  template <typename Fn> Dist expandBranches(Dist &D, Fn PerBranch) {
    if (!useParallel(D.size())) {
      Dist Next;
      Next.reserve(D.size());
      for (Branch &B : D) {
        if (stopped()) {
          Aborted = true; // Mid-statement stop; run() restores the boundary.
          break;
        }
        ++Result.BranchesExpanded;
        chargeBranch(B);
        PerBranch(B, Next, Result.ErrorMass);
      }
      return Next;
    }
    struct Shard {
      Dist Out;
      SymProb Err;
      size_t Expanded = 0;
    };
    const size_t Lanes = Threads;
    const size_t Chunk = (D.size() + Lanes - 1) / Lanes;
    std::vector<Shard> Shards(Lanes);
    ThreadPool::global().parallelFor(Lanes, [&](size_t Lane) {
      Shard &S = Shards[Lane];
      size_t Lo = std::min(D.size(), Lane * Chunk);
      size_t Hi = std::min(D.size(), Lo + Chunk);
      S.Out.reserve(Hi - Lo);
      for (size_t I = Lo; I < Hi; ++I) {
        if (StopF && StopF->load(std::memory_order_acquire))
          return; // Drain; partial shard output is discarded by run().
        ++S.Expanded;
        chargeBranch(D[I]);
        PerBranch(D[I], S.Out, S.Err);
      }
    }, StopF);
    if (stopped()) {
      Aborted = true;
      return {};
    }
    if (Result.WorkerBranchesExpanded.size() < Lanes)
      Result.WorkerBranchesExpanded.resize(Lanes, 0);
    size_t Total = 0;
    for (const Shard &S : Shards)
      Total += S.Out.size();
    Dist Next;
    Next.reserve(Total);
    for (size_t Lane = 0; Lane < Lanes; ++Lane) {
      Shard &S = Shards[Lane];
      Result.BranchesExpanded += S.Expanded;
      Result.WorkerBranchesExpanded[Lane] += S.Expanded;
      Result.ErrorMass += S.Err;
      for (Branch &B : S.Out)
        Next.push_back(std::move(B));
    }
    return Next;
  }

  static void resetDead(Env &E, const std::vector<unsigned> &DeadSlots) {
    for (unsigned Slot : DeadSlots)
      E[Slot] = PsiValue();
  }

  /// Merges equal environments of \p D after resetting \p DeadSlots in
  /// each (before it is hashed, on the serial and the parallel path alike,
  /// so the merged distribution is independent of the thread count).
  void mergeDist(Dist &D, const std::vector<unsigned> &DeadSlots) {
    if (!Opts.MergeEnvs || D.size() < 2)
      return;
    if (!useParallel(D.size())) {
      // Open-addressing merge index over the dense distribution
      // (support/Intern.h): the environment hash is computed once per
      // branch and reused for the probe, and the table allocates nothing
      // per insert.
      Dist Merged;
      Merged.reserve(D.size());
      FlatIndexMap Index;
      Index.reserve(D.size());
      Result.MergeAttempts += D.size();
      for (Branch &B : D) {
        resetDead(B.Vars, DeadSlots);
        uint64_t H = EnvHash()(B.Vars);
        uint32_t NewIdx = static_cast<uint32_t>(Merged.size());
        uint32_t At = Index.findOrInsert(
            H, NewIdx, [&](uint32_t I) { return Merged[I].Vars == B.Vars; });
        if (At == NewIdx) {
          Merged.push_back(std::move(B));
        } else {
          Merged[At].W += std::move(B.W);
          ++Result.MergeHits;
          if (BT)
            BT->chargeMerges();
        }
      }
      D = std::move(Merged);
      return;
    }
    // Hash-sharded parallel merge: route each environment to bucket
    // hash % Lanes, merge each bucket independently (scanning lanes in
    // order), then concatenate buckets — a pure function of (D, Threads).
    ThreadPool &Pool = ThreadPool::global();
    const size_t Lanes = Threads;
    const size_t Chunk = (D.size() + Lanes - 1) / Lanes;
    // The routed entries carry their environment hash: it is computed
    // exactly once per branch and reused for both the bucket route and
    // the merge-table probe below (hashing a PsiValue environment walks
    // the whole value tree, so the recomputation was pure waste).
    struct HashedBranch {
      uint64_t Hash;
      Branch B;
    };
    std::vector<std::vector<std::vector<HashedBranch>>> Routed(Lanes);
    Pool.parallelFor(Lanes, [&](size_t Lane) {
      std::vector<std::vector<HashedBranch>> &Buckets = Routed[Lane];
      Buckets.resize(Lanes);
      size_t Lo = std::min(D.size(), Lane * Chunk);
      size_t Hi = std::min(D.size(), Lo + Chunk);
      for (size_t I = Lo; I < Hi; ++I) {
        resetDead(D[I].Vars, DeadSlots);
        uint64_t H = EnvHash()(D[I].Vars);
        Buckets[H % Lanes].push_back({H, std::move(D[I])});
      }
    }, StopF);
    std::vector<Dist> Merged(Lanes);
    std::vector<size_t> BucketHits(Lanes, 0);
    Pool.parallelFor(Lanes, [&](size_t B) {
      size_t Total = 0;
      for (size_t Lane = 0; Lane < Lanes; ++Lane)
        Total += Routed[Lane][B].size();
      Dist &F = Merged[B];
      F.reserve(Total);
      FlatIndexMap Index;
      Index.reserve(Total);
      for (size_t Lane = 0; Lane < Lanes; ++Lane)
        for (HashedBranch &Hb : Routed[Lane][B]) {
          uint32_t NewIdx = static_cast<uint32_t>(F.size());
          uint32_t At = Index.findOrInsert(Hb.Hash, NewIdx, [&](uint32_t I) {
            return F[I].Vars == Hb.B.Vars;
          });
          if (At == NewIdx) {
            F.push_back(std::move(Hb.B));
          } else {
            F[At].W += std::move(Hb.B.W);
            ++BucketHits[B];
          }
        }
    }, StopF);
    if (stopped()) {
      Aborted = true;
      D.clear();
      return;
    }
    size_t Total = 0;
    size_t Hits = 0;
    for (size_t B = 0; B < Lanes; ++B) {
      Total += Merged[B].size();
      Hits += BucketHits[B];
    }
    Result.MergeAttempts += D.size(); // Every routed env is one lookup.
    Result.MergeHits += Hits;
    if (BT)
      BT->chargeMerges(Hits);
    D.clear();
    D.reserve(Total);
    for (size_t B = 0; B < Lanes; ++B)
      for (Branch &Br : Merged[B])
        D.push_back(std::move(Br));
  }

  void execBlock(const std::vector<PStmtPtr> &Body, Dist &D) {
    for (const PStmtPtr &S : Body) {
      if (Aborted || D.empty())
        return;
      execStmt(*S, D);
    }
  }

  void execStmt(const PStmt &S, Dist &D) {
    // run() opened a top-level statement's boundary; nested statements keep
    // only the budget decision.
    if (Depth > 0 && !Bound.budget(D.size())) {
      Aborted = true;
      return;
    }
    Result.MaxDistSize = std::max(Result.MaxDistSize, D.size());
    if (D.size() > Opts.MaxDist) {
      Result.QueryUnsupported = true;
      Result.UnsupportedReason = "distribution size limit exceeded";
      Result.Status.Code = StatusCode::BudgetExceeded;
      Result.Status.Violation = {BudgetClass::Frontier, D.size(),
                                 Opts.MaxDist};
      Aborted = true;
      return;
    }
    if (Depth > 0) {
      ++Depth;
      execStmtInner(S, D);
      --Depth;
      return;
    }
    // Top-level statements are the PSI engine's rounds: nested statements
    // stay probe-free, their work folded into the enclosing delta.
    Boundary::Step St = Bound.beginStep(TopIdx, D.size());
    const size_t DistIn = D.size();
    const BoundaryDelta Before = counters(Result);
    ++Depth;
    execStmtInner(S, D);
    --Depth;
    if (Aborted)
      return; // Incomplete statement: nothing is charged.
    BoundaryDelta Delta = counters(Result) - Before;
    Delta.Step = TopIdx;
    Delta.FrontierIn = DistIn;
    Delta.FrontierOut = D.size();
    Delta.ProfSlot = S.ProfSlot;
    Bound.commit(St, Delta);
  }

  /// Pushes \p V onto queue \p Q for a PushBack/PushFront \p S; a push
  /// onto a full bounded queue drops the value.
  static void push(const PStmt &S, PsiValue &Q, PsiValue V) {
    auto &Elems = Q.elems();
    if (S.Capacity >= 0 && static_cast<int64_t>(Elems.size()) >= S.Capacity)
      return;
    if (S.Kind == PStmtKind::PushBack)
      Elems.push_back(std::move(V));
    else
      Elems.insert(Elems.begin(), std::move(V));
  }

  void execStmtInner(const PStmt &S, Dist &D) {
    if (PF)
      // One exec per branch entering the statement (the PSI analogue of
      // per-world statement executions). Staged in the lane shard, folded
      // only at completed top-level boundaries.
      PF->laneExecs(0)[S.ProfSlot] += D.size();
    switch (S.Kind) {
    case PStmtKind::Assign: {
      D = expandBranches(D, [&](Branch &B, Dist &Out, SymProb &Err) {
        PsiValue V;
        if (evalConcrete(*S.E, B.Vars, V)) {
          if (!B.W.isZero()) {
            B.Vars[S.Var] = std::move(V);
            Out.push_back(std::move(B));
          }
          return;
        }
        std::vector<Outcome> Outs = eval(*S.E, B.Vars);
        for (size_t I = 0; I < Outs.size(); ++I) {
          Outcome &O = Outs[I];
          SymProb W = applyGuards(B.W.scaled(O.Prob), O.Guards);
          if (W.isZero())
            continue;
          Branch NB{outcomeEnv(B, I, Outs.size()), std::move(W)};
          if (O.Failed) {
            fail(NB, O.FailReason, Err);
            continue;
          }
          NB.Vars[S.Var] = std::move(O.V);
          Out.push_back(std::move(NB));
        }
      });
      return;
    }
    case PStmtKind::PushBack:
    case PStmtKind::PushFront: {
      D = expandBranches(D, [&](Branch &B, Dist &Out, SymProb &Err) {
        PsiValue V;
        if (B.Vars[S.Var].isTuple() && evalConcrete(*S.E, B.Vars, V)) {
          if (!B.W.isZero()) {
            push(S, B.Vars[S.Var], std::move(V));
            Out.push_back(std::move(B));
          }
          return;
        }
        std::vector<Outcome> Outs = eval(*S.E, B.Vars);
        for (size_t I = 0; I < Outs.size(); ++I) {
          Outcome &O = Outs[I];
          SymProb W = applyGuards(B.W.scaled(O.Prob), O.Guards);
          if (W.isZero())
            continue;
          Branch NB{outcomeEnv(B, I, Outs.size()), std::move(W)};
          if (O.Failed) {
            fail(NB, O.FailReason, Err);
            continue;
          }
          if (!NB.Vars[S.Var].isTuple()) {
            fail(NB, "push on a non-queue value", Err);
            continue;
          }
          push(S, NB.Vars[S.Var], std::move(O.V));
          Out.push_back(std::move(NB));
        }
      });
      return;
    }
    case PStmtKind::PopFront: {
      D = expandBranches(D, [&](Branch &B, Dist &Out, SymProb &Err) {
        if (!B.Vars[S.Var].isTuple() || B.Vars[S.Var].elems().empty()) {
          fail(B, "takeFront on an empty queue", Err);
          return;
        }
        auto &Elems = B.Vars[S.Var].elems();
        B.Vars[S.Var2] = Elems.front();
        Elems.erase(Elems.begin());
        Out.push_back(std::move(B));
      });
      return;
    }
    case PStmtKind::Observe:
    case PStmtKind::Assert: {
      Dist Next;
      bool IsObserve = S.Kind == PStmtKind::Observe;
      splitCond(*S.E, D,
                [&](Branch B, bool Truth) {
                  if (Truth) {
                    Next.push_back(std::move(B));
                    return;
                  }
                  if (!IsObserve)
                    fail(B, "assertion failed");
                  // Observe failure: mass silently discarded.
                });
      D = std::move(Next);
      return;
    }
    case PStmtKind::If: {
      Dist ThenD, ElseD;
      splitCond(*S.E, D, [&](Branch B, bool Truth) {
        (Truth ? ThenD : ElseD).push_back(std::move(B));
      });
      execBlock(S.Then, ThenD);
      execBlock(S.Else, ElseD);
      D = std::move(ThenD);
      for (Branch &B : ElseD)
        D.push_back(std::move(B));
      mergeDist(D, Dead.at(&S).Exit);
      return;
    }
    case PStmtKind::While: {
      Dist Live = std::move(D);
      D.clear();
      for (int64_t Iter = 0; Iter < Opts.WhileFuel && !Live.empty();
           ++Iter) {
        if (Aborted)
          return;
        Dist Continue;
        splitCond(*S.E, Live, [&](Branch B, bool Truth) {
          if (Truth)
            Continue.push_back(std::move(B));
          else
            D.push_back(std::move(B));
        });
        execBlock(S.Then, Continue);
        mergeDist(Continue, Dead.at(&S).Iter);
        Live = std::move(Continue);
      }
      for (Branch &B : Live)
        fail(B, "while loop exceeded the fuel bound");
      mergeDist(D, Dead.at(&S).Exit);
      return;
    }
    case PStmtKind::Repeat: {
      for (int64_t Iter = 0; Iter < S.Count && !D.empty(); ++Iter) {
        if (Aborted)
          return;
        // A top-level repeat is the translated scheduler loop: give each
        // iteration its own "round" span, nested under the stmt span.
        Span RoundSpan = Depth == 1 ? O.span("psi.round") : Span();
        if (Depth == 1 && O.tracing()) {
          RoundSpan.arg("iter", static_cast<uint64_t>(Iter));
          RoundSpan.arg("dist", static_cast<uint64_t>(D.size()));
        }
        execBlock(S.Then, D);
        mergeDist(D, Dead.at(&S).Iter);
      }
      return;
    }
    }
  }

  /// Evaluates \p Cond on one branch, emitting (branch, truth) pairs.
  /// Symbolic scalar conditions split on [E != 0] / [E == 0]; failures go
  /// to \p Err.
  template <typename Fn>
  void splitCondOne(const PExpr &Cond, Branch &B, SymProb &Err, Fn Emit) {
    PsiValue V;
    if (evalConcrete(Cond, B.Vars, V) && V.isRational()) {
      if (!B.W.isZero())
        Emit(std::move(B), !V.rational().isZero());
      return;
    }
    std::vector<Outcome> Outs = eval(Cond, B.Vars);
    for (size_t I = 0; I < Outs.size(); ++I) {
      Outcome &O = Outs[I];
      SymProb W = applyGuards(B.W.scaled(O.Prob), O.Guards);
      if (W.isZero())
        continue;
      Branch NB{outcomeEnv(B, I, Outs.size()), std::move(W)};
      if (O.Failed) {
        fail(NB, O.FailReason, Err);
        continue;
      }
      if (!O.V.isScalar()) {
        fail(NB, "tuple used as a condition", Err);
        continue;
      }
      if (O.V.isRational()) {
        Emit(std::move(NB), !O.V.rational().isZero());
        continue;
      }
      LinExpr E = O.V.toLinExpr();
      Branch TrueB = NB;
      TrueB.W = TrueB.W.restricted(Constraint(E, RelKind::NE));
      if (!TrueB.W.isZero())
        Emit(std::move(TrueB), true);
      NB.W = NB.W.restricted(Constraint(E, RelKind::EQ));
      if (!NB.W.isZero())
        Emit(std::move(NB), false);
    }
  }

  /// Evaluates a condition across a distribution, calling \p Sink with each
  /// resulting (branch, truth) pair. Large distributions evaluate in
  /// parallel shards; the collected pairs are replayed into \p Sink in
  /// shard order, so Sink runs serially and sees a thread-count-independent
  /// branch order.
  template <typename Fn>
  void splitCond(const PExpr &Cond, Dist &D, Fn Sink) {
    if (!useParallel(D.size())) {
      for (Branch &B : D) {
        if (stopped()) {
          Aborted = true; // Mid-statement stop; run() restores the boundary.
          return;
        }
        ++Result.BranchesExpanded;
        chargeBranch(B);
        splitCondOne(Cond, B, Result.ErrorMass, [&](Branch NB, bool Truth) {
          Sink(std::move(NB), Truth);
        });
      }
      return;
    }
    struct Shard {
      std::vector<std::pair<Branch, bool>> Out;
      SymProb Err;
      size_t Expanded = 0;
    };
    const size_t Lanes = Threads;
    const size_t Chunk = (D.size() + Lanes - 1) / Lanes;
    std::vector<Shard> Shards(Lanes);
    ThreadPool::global().parallelFor(Lanes, [&](size_t Lane) {
      Shard &S = Shards[Lane];
      size_t Lo = std::min(D.size(), Lane * Chunk);
      size_t Hi = std::min(D.size(), Lo + Chunk);
      for (size_t I = Lo; I < Hi; ++I) {
        if (StopF && StopF->load(std::memory_order_acquire))
          return; // Drain; partial shard output is discarded by run().
        ++S.Expanded;
        chargeBranch(D[I]);
        splitCondOne(Cond, D[I], S.Err, [&](Branch NB, bool Truth) {
          S.Out.emplace_back(std::move(NB), Truth);
        });
      }
    }, StopF);
    if (stopped()) {
      Aborted = true;
      return;
    }
    if (Result.WorkerBranchesExpanded.size() < Lanes)
      Result.WorkerBranchesExpanded.resize(Lanes, 0);
    for (size_t Lane = 0; Lane < Lanes; ++Lane) {
      Shard &S = Shards[Lane];
      Result.BranchesExpanded += S.Expanded;
      Result.WorkerBranchesExpanded[Lane] += S.Expanded;
      Result.ErrorMass += S.Err;
      for (auto &[NB, Truth] : S.Out)
        Sink(std::move(NB), Truth);
    }
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  std::vector<Outcome> single(PsiValue V) {
    Outcome O;
    O.V = std::move(V);
    return {O};
  }

  std::vector<Outcome> eval(const PExpr &E, const Env &Vars) {
    switch (E.Kind) {
    case PExprKind::Const:
      return single(PsiValue(E.ConstVal));
    case PExprKind::Param:
      return single(PsiValue(P.paramValue(E.Index)));
    case PExprKind::Var:
      return single(Vars[E.Index]);
    case PExprKind::UnOp: {
      std::vector<Outcome> Out;
      for (Outcome &O : eval(*E.Ops[0], Vars)) {
        if (O.Failed || !O.V.isScalar()) {
          Out.push_back(O.Failed ? std::move(O)
                                 : Outcome::fail("unary op on a tuple"));
          continue;
        }
        if (E.UnOp == UnOpKind::Neg) {
          O.V = PsiValue(O.V.toLinExpr().scaled(Rational(-1)));
          Out.push_back(std::move(O));
          continue;
        }
        // Logical not with symbolic split.
        if (O.V.isRational()) {
          O.V = PsiValue(Rational(O.V.rational().isZero() ? 1 : 0));
          Out.push_back(std::move(O));
          continue;
        }
        LinExpr L = O.V.toLinExpr();
        Outcome True = O;
        True.V = PsiValue(Rational(0));
        True.Guards.push_back(Constraint(L, RelKind::NE));
        Out.push_back(std::move(True));
        O.V = PsiValue(Rational(1));
        O.Guards.push_back(Constraint(L, RelKind::EQ));
        Out.push_back(std::move(O));
      }
      return Out;
    }
    case PExprKind::BinOp:
      return evalBin(E, Vars);
    case PExprKind::Flip: {
      std::vector<Outcome> Out;
      for (Outcome &PR : eval(*E.Ops[0], Vars)) {
        if (PR.Failed) {
          Out.push_back(std::move(PR));
          continue;
        }
        if (!PR.V.isRational()) {
          Out.push_back(Outcome::fail("flip probability must be concrete"));
          continue;
        }
        Rational Prob = PR.V.rational();
        if (Prob.isNegative() || Prob > Rational(1)) {
          Out.push_back(Outcome::fail("flip probability out of [0,1]"));
          continue;
        }
        if (!Prob.isZero()) {
          Outcome True = PR;
          True.V = PsiValue(Rational(1));
          True.Prob = PR.Prob * Prob;
          Out.push_back(std::move(True));
        }
        if (Prob != Rational(1)) {
          Outcome False = std::move(PR);
          False.Prob = False.Prob * (Rational(1) - Prob);
          False.V = PsiValue(Rational(0));
          Out.push_back(std::move(False));
        }
      }
      return Out;
    }
    case PExprKind::UniformInt: {
      std::vector<Outcome> Out;
      for (Outcome &Lo : eval(*E.Ops[0], Vars))
        for (Outcome &Hi : eval(*E.Ops[1], Vars)) {
          if (Lo.Failed || Hi.Failed) {
            Out.push_back(Outcome::failCombined(
                Lo.Failed ? Lo.FailReason : Hi.FailReason, Lo, Hi));
            continue;
          }
          if (!Lo.V.isRational() || !Hi.V.isRational() ||
              !Lo.V.rational().isInteger() || !Hi.V.rational().isInteger() ||
              !Lo.V.rational().num().isSmall() ||
              !Hi.V.rational().num().isSmall()) {
            Out.push_back(Outcome::failCombined(
                "uniformInt bounds must be concrete integers", Lo, Hi));
            continue;
          }
          int64_t L = Lo.V.rational().num().getSmall();
          int64_t H = Hi.V.rational().num().getSmall();
          if (L > H) {
            Out.push_back(
                Outcome::failCombined("uniformInt range is empty", Lo, Hi));
            continue;
          }
          Rational Prob(BigInt(1), BigInt(H - L + 1));
          for (int64_t I = L; I <= H; ++I) {
            Outcome O;
            O.V = PsiValue(Rational(I));
            O.Prob = Lo.Prob * Hi.Prob * Prob;
            O.Guards = Lo.Guards;
            for (const Constraint &G : Hi.Guards)
              O.Guards.push_back(G);
            Out.push_back(std::move(O));
          }
        }
      return Out;
    }
    case PExprKind::Len: {
      std::vector<Outcome> Out;
      for (Outcome &O : eval(*E.Ops[0], Vars)) {
        if (O.Failed) {
          Out.push_back(std::move(O));
          continue;
        }
        if (!O.V.isTuple()) {
          Out.push_back(Outcome::fail("length of a non-tuple"));
          continue;
        }
        O.V = PsiValue(Rational(static_cast<int64_t>(O.V.elems().size())));
        Out.push_back(std::move(O));
      }
      return Out;
    }
    case PExprKind::Index: {
      std::vector<Outcome> Out;
      for (Outcome &T : eval(*E.Ops[0], Vars))
        for (Outcome &I : eval(*E.Ops[1], Vars)) {
          if (T.Failed || I.Failed) {
            Out.push_back(Outcome::failCombined(
                T.Failed ? T.FailReason : I.FailReason, T, I));
            continue;
          }
          if (!T.V.isTuple() || !I.V.isRational() ||
              !I.V.rational().isInteger() ||
              !I.V.rational().num().isSmall()) {
            Out.push_back(Outcome::failCombined("bad tuple indexing", T, I));
            continue;
          }
          int64_t Idx = I.V.rational().num().getSmall();
          if (Idx < 0 || Idx >= static_cast<int64_t>(T.V.elems().size())) {
            Out.push_back(
                Outcome::failCombined("tuple index out of range", T, I));
            continue;
          }
          Outcome O;
          O.V = T.V.elems()[Idx];
          O.Prob = T.Prob * I.Prob;
          O.Guards = T.Guards;
          for (const Constraint &G : I.Guards)
            O.Guards.push_back(G);
          Out.push_back(std::move(O));
        }
      return Out;
    }
    case PExprKind::Tuple: {
      std::vector<Outcome> Out;
      Outcome Base;
      Base.V = PsiValue::tuple({});
      Out.push_back(std::move(Base));
      for (const PExprPtr &Op : E.Ops) {
        std::vector<Outcome> Next;
        for (Outcome &Prefix : Out) {
          if (Prefix.Failed) {
            Next.push_back(std::move(Prefix));
            continue;
          }
          for (Outcome &Elem : eval(*Op, Vars)) {
            Outcome O;
            O.Prob = Prefix.Prob * Elem.Prob;
            O.Guards = Prefix.Guards;
            for (const Constraint &G : Elem.Guards)
              O.Guards.push_back(G);
            if (Elem.Failed) {
              O.Failed = true;
              O.FailReason = Elem.FailReason;
              Next.push_back(std::move(O));
              continue;
            }
            O.V = Prefix.V;
            O.V.elems().push_back(Elem.V);
            Next.push_back(std::move(O));
          }
        }
        Out = std::move(Next);
      }
      return Out;
    }
    case PExprKind::TupleGet: {
      std::vector<Outcome> Out;
      for (Outcome &T : eval(*E.Ops[0], Vars)) {
        if (T.Failed) {
          Out.push_back(std::move(T));
          continue;
        }
        if (!T.V.isTuple() || E.Index >= T.V.elems().size()) {
          Out.push_back(Outcome::fail("tuple projection out of range"));
          continue;
        }
        // Copy the element out before assigning: T.V's variant destroys
        // the tuple vector first, which would free the element in place.
        PsiValue Elem = T.V.elems()[E.Index];
        T.V = std::move(Elem);
        Out.push_back(std::move(T));
      }
      return Out;
    }
    }
    return {Outcome::fail("unknown expression")};
  }

  std::vector<Outcome> evalBin(const PExpr &E, const Env &Vars) {
    BinOpKind Op = E.BinOp;
    // Short-circuit boolean operators.
    if (Op == BinOpKind::And || Op == BinOpKind::Or) {
      bool IsAnd = Op == BinOpKind::And;
      std::vector<Outcome> Out;
      for (Outcome &L : eval(*E.Ops[0], Vars)) {
        if (L.Failed) {
          Out.push_back(std::move(L));
          continue;
        }
        for (Outcome &LT : boolSplit(std::move(L))) {
          bool Truth = !LT.V.rational().isZero();
          if (Truth != IsAnd) {
            Out.push_back(std::move(LT));
            continue;
          }
          for (Outcome &R : eval(*E.Ops[1], Vars)) {
            if (R.Failed) {
              Outcome F = std::move(R);
              F.Prob = LT.Prob * F.Prob;
              Out.push_back(std::move(F));
              continue;
            }
            for (Outcome &RT : boolSplit(std::move(R))) {
              Outcome O;
              O.V = RT.V;
              O.Prob = LT.Prob * RT.Prob;
              O.Guards = LT.Guards;
              for (const Constraint &G : RT.Guards)
                O.Guards.push_back(G);
              Out.push_back(std::move(O));
            }
          }
        }
      }
      return Out;
    }

    std::vector<Outcome> Out;
    for (Outcome &L : eval(*E.Ops[0], Vars)) {
      if (L.Failed) {
        Out.push_back(std::move(L));
        continue;
      }
      for (Outcome &R : eval(*E.Ops[1], Vars)) {
        Outcome Base;
        Base.Prob = L.Prob * R.Prob;
        Base.Guards = L.Guards;
        for (const Constraint &G : R.Guards)
          Base.Guards.push_back(G);
        if (R.Failed) {
          Base.Failed = true;
          Base.FailReason = R.FailReason;
          Out.push_back(std::move(Base));
          continue;
        }
        if (!L.V.isScalar() || !R.V.isScalar()) {
          Base.Failed = true;
          Base.FailReason = "arithmetic on tuples";
          Out.push_back(std::move(Base));
          continue;
        }
        applyScalar(Op, L.V.toLinExpr(), R.V.toLinExpr(), std::move(Base),
                    Out);
      }
    }
    return Out;
  }

  /// Truth-normalizes an outcome to 0/1 (splitting symbolic scalars).
  std::vector<Outcome> boolSplit(Outcome O) {
    std::vector<Outcome> Out;
    if (!O.V.isScalar()) {
      Out.push_back(Outcome::fail("tuple used as a boolean"));
      return Out;
    }
    if (O.V.isRational()) {
      O.V = PsiValue(Rational(O.V.rational().isZero() ? 0 : 1));
      Out.push_back(std::move(O));
      return Out;
    }
    LinExpr L = O.V.toLinExpr();
    Outcome True = O;
    True.V = PsiValue(Rational(1));
    True.Guards.push_back(Constraint(L, RelKind::NE));
    Out.push_back(std::move(True));
    O.V = PsiValue(Rational(0));
    O.Guards.push_back(Constraint(L, RelKind::EQ));
    Out.push_back(std::move(O));
    return Out;
  }

  void applyScalar(BinOpKind Op, const LinExpr &L, const LinExpr &R,
                   Outcome Base, std::vector<Outcome> &Out) {
    switch (Op) {
    case BinOpKind::Add:
      Base.V = PsiValue(L + R);
      Out.push_back(std::move(Base));
      return;
    case BinOpKind::Sub:
      Base.V = PsiValue(L - R);
      Out.push_back(std::move(Base));
      return;
    case BinOpKind::Mul: {
      auto M = L.mul(R);
      if (!M) {
        Base.Failed = true;
        Base.FailReason = "nonlinear symbolic arithmetic";
      } else
        Base.V = PsiValue(std::move(*M));
      Out.push_back(std::move(Base));
      return;
    }
    case BinOpKind::Div: {
      auto Q = L.div(R);
      if (!Q) {
        Base.Failed = true;
        Base.FailReason = "division by zero or by a symbolic value";
      } else
        Base.V = PsiValue(std::move(*Q));
      Out.push_back(std::move(Base));
      return;
    }
    default: {
      LinExpr D = L - R;
      Constraint C = [&] {
        switch (Op) {
        case BinOpKind::Eq:
          return Constraint(D, RelKind::EQ);
        case BinOpKind::Ne:
          return Constraint(D, RelKind::NE);
        case BinOpKind::Lt:
          return Constraint(D, RelKind::LT);
        case BinOpKind::Le:
          return Constraint(D, RelKind::LE);
        case BinOpKind::Gt:
          return Constraint(-D, RelKind::LT);
        default:
          return Constraint(-D, RelKind::LE);
        }
      }();
      if (auto Decided = C.tryDecide()) {
        Base.V = PsiValue(Rational(*Decided ? 1 : 0));
        Out.push_back(std::move(Base));
        return;
      }
      Outcome True = Base;
      True.V = PsiValue(Rational(1));
      True.Guards.push_back(C);
      Out.push_back(std::move(True));
      Base.V = PsiValue(Rational(0));
      Base.Guards.push_back(C.negated());
      Out.push_back(std::move(Base));
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Concrete evaluation
  //===--------------------------------------------------------------------===//

  /// The value of \p E when eval would return exactly one successful,
  /// unguarded outcome of probability 1 — a deterministic expression over
  /// concrete values — computed without outcome vectors or LinExpr. Returns
  /// false (decline) on draws, unbound parameters, symbolic or tuple
  /// operands where a scalar is needed, and every input on which eval
  /// fails; the caller then runs eval, which stays the only producer of
  /// failures, draws and symbolic splits.
  bool evalConcrete(const PExpr &E, const Env &Vars, PsiValue &Out) {
    if (!concreteValue(E, Vars, Out))
      return false;
#ifndef NDEBUG
    std::vector<Outcome> Outs = eval(E, Vars);
    assert(Outs.size() == 1 && !Outs[0].Failed &&
           Outs[0].Prob == Rational(1) && Outs[0].Guards.empty() &&
           Outs[0].V == Out && "concrete evaluation diverged from eval");
#endif
    return true;
  }

  bool concreteValue(const PExpr &E, const Env &Vars, PsiValue &Out) {
    switch (E.Kind) {
    case PExprKind::Var:
    case PExprKind::TupleGet:
    case PExprKind::Index: {
      PsiValue Tmp;
      const PsiValue *V = concreteRef(E, Vars, Tmp);
      if (!V)
        return false;
      Out = *V;
      return true;
    }
    case PExprKind::Tuple: {
      PsiValue::Tuple Elems(E.Ops.size());
      for (size_t I = 0; I < E.Ops.size(); ++I)
        if (!concreteValue(*E.Ops[I], Vars, Elems[I]))
          return false;
      Out = PsiValue::tuple(std::move(Elems));
      return true;
    }
    default: {
      Rational R;
      if (!concreteScalar(E, Vars, R))
        return false;
      Out = PsiValue(std::move(R));
      return true;
    }
    }
  }

  /// A Var / TupleGet / Index path resolved to the value it names inside
  /// \p Vars, so reading one queue element copies nothing else; any other
  /// expression is evaluated into \p Tmp. nullptr declines.
  const PsiValue *concreteRef(const PExpr &E, const Env &Vars, PsiValue &Tmp) {
    switch (E.Kind) {
    case PExprKind::Var:
      return &Vars[E.Index];
    case PExprKind::TupleGet: {
      const PsiValue *T = concreteRef(*E.Ops[0], Vars, Tmp);
      if (!T || !T->isTuple() || E.Index >= T->elems().size())
        return nullptr;
      return &T->elems()[E.Index];
    }
    case PExprKind::Index: {
      const PsiValue *T = concreteRef(*E.Ops[0], Vars, Tmp);
      Rational I;
      if (!T || !T->isTuple() || !concreteScalar(*E.Ops[1], Vars, I) ||
          !I.isInteger() || !I.num().isSmall())
        return nullptr;
      int64_t Idx = I.num().getSmall();
      if (Idx < 0 || Idx >= static_cast<int64_t>(T->elems().size()))
        return nullptr;
      return &T->elems()[Idx];
    }
    default:
      return concreteValue(E, Vars, Tmp) ? &Tmp : nullptr;
    }
  }

  /// A concrete rational value of \p E; false declines.
  bool concreteScalar(const PExpr &E, const Env &Vars, Rational &Out) {
    switch (E.Kind) {
    case PExprKind::Const:
      Out = E.ConstVal;
      return true;
    case PExprKind::Param:
      if (E.Index >= P.ParamValues.size() || !P.ParamValues[E.Index])
        return false;
      Out = *P.ParamValues[E.Index];
      return true;
    case PExprKind::Var:
    case PExprKind::TupleGet:
    case PExprKind::Index: {
      PsiValue Tmp;
      const PsiValue *V = concreteRef(E, Vars, Tmp);
      if (!V || !V->isRational())
        return false;
      Out = V->rational();
      return true;
    }
    case PExprKind::Len: {
      PsiValue Tmp;
      const PsiValue *T = concreteRef(*E.Ops[0], Vars, Tmp);
      if (!T || !T->isTuple())
        return false;
      Out = Rational(static_cast<int64_t>(T->elems().size()));
      return true;
    }
    case PExprKind::UnOp:
      if (!concreteScalar(*E.Ops[0], Vars, Out))
        return false;
      if (E.UnOp == UnOpKind::Neg)
        Out = -Out;
      else
        Out = Rational(Out.isZero() ? 1 : 0);
      return true;
    case PExprKind::BinOp:
      return concreteBin(E, Vars, Out);
    default: // Flip, UniformInt, Tuple.
      return false;
    }
  }

  bool concreteBin(const PExpr &E, const Env &Vars, Rational &Out) {
    Rational L;
    if (!concreteScalar(*E.Ops[0], Vars, L))
      return false;
    const BinOpKind Op = E.BinOp;
    if (Op == BinOpKind::And || Op == BinOpKind::Or) {
      // As in evalBin: the right operand is evaluated only when the left
      // one does not decide the result.
      if (!L.isZero() == (Op == BinOpKind::And) &&
          !concreteScalar(*E.Ops[1], Vars, L))
        return false;
      Out = Rational(L.isZero() ? 0 : 1);
      return true;
    }
    Rational R;
    if (!concreteScalar(*E.Ops[1], Vars, R))
      return false;
    switch (Op) {
    case BinOpKind::Add:
      Out = L + R;
      return true;
    case BinOpKind::Sub:
      Out = L - R;
      return true;
    case BinOpKind::Mul:
      Out = L * R;
      return true;
    case BinOpKind::Div:
      if (R.isZero())
        return false;
      Out = L / R;
      return true;
    default:
      break;
    }
    // The comparisons decide Constraint(L - R, rel) as applyScalar does,
    // Gt/Ge (and its default) through the negated difference.
    const int Cmp = Rational::compare(L, R);
    bool Truth;
    switch (Op) {
    case BinOpKind::Eq:
      Truth = Cmp == 0;
      break;
    case BinOpKind::Ne:
      Truth = Cmp != 0;
      break;
    case BinOpKind::Lt:
      Truth = Cmp < 0;
      break;
    case BinOpKind::Le:
      Truth = Cmp <= 0;
      break;
    case BinOpKind::Gt:
      Truth = Cmp > 0;
      break;
    default:
      Truth = Cmp >= 0;
      break;
    }
    Out = Rational(Truth ? 1 : 0);
    return true;
  }

  /// Per-branch terminal accounting; partials go to lane-local state in
  /// parallel runs and are folded in lane order.
  struct FinishPartial {
    SymProb OkMass;
    SymProb QueryMass;
    bool Unsupported = false;
    std::string UnsupportedReason;
  };

  void finishOne(const Branch &B, FinishPartial &Res) {
    Res.OkMass += B.W;
    if (!P.Result) {
      Res.Unsupported = true;
      Res.UnsupportedReason = "program has no result expression";
      return;
    }
    PsiValue V;
    if (evalConcrete(*P.Result, B.Vars, V) && V.isRational()) {
      if (B.W.isZero())
        return;
      if (P.Kind != QueryKind::Probability)
        Res.QueryMass += B.W.scaled(V.rational());
      else if (!V.rational().isZero())
        Res.QueryMass += B.W;
      return;
    }
    for (Outcome &O : eval(*P.Result, B.Vars)) {
      SymProb W = applyGuards(B.W.scaled(O.Prob), O.Guards);
      if (W.isZero())
        continue;
      if (O.Failed || !O.V.isScalar()) {
        Res.Unsupported = true;
        Res.UnsupportedReason = O.Failed ? O.FailReason : "tuple-valued result";
        continue;
      }
      if (P.Kind == QueryKind::Probability) {
        if (O.V.isRational()) {
          if (!O.V.rational().isZero())
            Res.QueryMass += W;
          continue;
        }
        Res.QueryMass +=
            W.restricted(Constraint(O.V.toLinExpr(), RelKind::NE));
        continue;
      }
      // Expectation.
      if (!O.V.isRational()) {
        Res.Unsupported = true;
        Res.UnsupportedReason =
            "expectation of a symbolic value is not supported";
        continue;
      }
      Res.QueryMass += W.scaled(O.V.rational());
    }
  }

  void foldFinish(const FinishPartial &Part) {
    Result.OkMass += Part.OkMass;
    Result.QueryMass += Part.QueryMass;
    if (Part.Unsupported && !Result.QueryUnsupported) {
      Result.QueryUnsupported = true;
      Result.UnsupportedReason = Part.UnsupportedReason;
    }
  }

  void finish(Dist &D) {
    if (Aborted)
      return;
    if (!useParallel(D.size())) {
      FinishPartial Part;
      for (Branch &B : D) {
        if (stopped())
          return; // Skip folding the partial terminal accounting.
        finishOne(B, Part);
      }
      foldFinish(Part);
      return;
    }
    const size_t Lanes = Threads;
    const size_t Chunk = (D.size() + Lanes - 1) / Lanes;
    std::vector<FinishPartial> Parts(Lanes);
    ThreadPool::global().parallelFor(Lanes, [&](size_t Lane) {
      size_t Lo = std::min(D.size(), Lane * Chunk);
      size_t Hi = std::min(D.size(), Lo + Chunk);
      for (size_t I = Lo; I < Hi; ++I) {
        if (StopF && StopF->load(std::memory_order_acquire))
          return;
        finishOne(D[I], Parts[Lane]);
      }
    }, StopF);
    if (stopped())
      return;
    for (const FinishPartial &Part : Parts)
      foldFinish(Part);
  }
};

} // namespace

PsiExactResult PsiExact::run() const {
  const auto WallStart = std::chrono::steady_clock::now();
  PsiExactResult Result;
  Result.Kind = P.Kind;
  Interp I(P, Opts, Result);
  I.run();
  Result.WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();
  return Result;
}
