//===- psi/PsiExact.cpp - Exact inference on the PSI IR --------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "psi/PsiExact.h"

#include "lang/Ops.h"
#include "net/Scheduler.h"
#include "obs/Boundary.h"
#include "psi/PsiLiveness.h"
#include "support/FlatIndexMap.h"
#include "support/StagedTable.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

using namespace bayonet;

namespace {

/// An immutable, shared, hash-cached group of environment slots, held
/// the way net/Config.h's NodeArray holds NodeBlocks: Env::mut() clones a
/// block that any other environment (or the arm cache) still shares. The
/// caches are relaxed atomics for the same reason as NodeBlock's; the
/// count is CowPtr's, so a block found unique is safe to write even when
/// its former sharers ran on other lanes.
struct EnvBlock {
  std::vector<PsiValue> Vals;
  mutable std::atomic<size_t> Hash{0}, Bytes{0};
  /// Content class assigned by the block arena, 0 = none: equal nonzero
  /// ids prove equal content, unequal ones prove nothing (an evicted class
  /// re-interns under a new id). Not copied.
  mutable std::atomic<uint64_t> Id{0};
  mutable std::atomic<uint32_t> Refs{0}; ///< CowPtr's count.

  explicit EnvBlock(std::vector<PsiValue> V) : Vals(std::move(V)) {}
  EnvBlock(const EnvBlock &B) : Vals(B.Vals) {}
  EnvBlock &operator=(const EnvBlock &) = delete;

  size_t hash() const {
    size_t H = Hash.load(std::memory_order_relaxed);
    if (!H) {
      H = 0x7a3f9d1b;
      for (const PsiValue &V : Vals)
        H = H * 0x100000001b3ULL ^ V.hash();
      H = H ? H : 1; // 0 is the "not computed" sentinel.
      Hash.store(H, std::memory_order_relaxed);
    }
    return H;
  }
  size_t approxBytes() const {
    size_t B = Bytes.load(std::memory_order_relaxed);
    if (!B) {
      for (const PsiValue &V : Vals)
        B += V.approxBytes();
      Bytes.store(B, std::memory_order_relaxed);
    }
    return B;
  }
};

using BlockPtr = CowPtr<EnvBlock>;

/// The slot -> (block, offset) map of a run's environments, each block's
/// slot count, and each block with every slot PsiValue(), shared.
struct EnvLayout {
  std::vector<SlotHome> Home;
  std::vector<unsigned> Sizes;
  std::vector<BlockPtr> Zero;

  /// \p P's layout when it is a valid one, else one block per slot.
  explicit EnvLayout(const PsiProgram &P) {
    const size_t N = P.VarNames.size();
    Home = P.Layout;
    bool Ok = Home.size() == N;
    for (size_t S = 0; S < N && Ok; ++S) {
      if (Home[S].Block >= Sizes.size())
        Sizes.resize(Home[S].Block + 1, 0);
      Ok = Home[S].Offset == Sizes[Home[S].Block]++;
    }
    if (!Ok || std::find(Sizes.begin(), Sizes.end(), 0u) != Sizes.end()) {
      Home.resize(N);
      Sizes.assign(N, 1);
      for (unsigned S = 0; S < N; ++S)
        Home[S] = {S, 0};
    }
    for (unsigned Size : Sizes)
      Zero.push_back(BlockPtr::make(std::vector<PsiValue>(Size)));
  }
};

/// Content equality of two blocks: shared or one arena class first, then
/// the cached hashes.
bool sameBlock(const BlockPtr &A, const BlockPtr &B) {
  if (A == B)
    return true;
  uint64_t IdA = A->Id.load(std::memory_order_relaxed);
  if (IdA && IdA == B->Id.load(std::memory_order_relaxed))
    return true;
  return A->hash() == B->hash() && A->Vals == B->Vals;
}

/// A variable frame: copy-on-write blocks of slots. Copying an Env shares
/// every block; mut() copies only the touched one.
class Env {
public:
  Env() = default;
  /// Every slot PsiValue().
  explicit Env(const EnvLayout &L) : L(&L), Blocks(L.Zero) {}

  const PsiValue &operator[](unsigned Slot) const {
    const SlotHome &H = L->Home[Slot];
    return Blocks[H.Block]->Vals[H.Offset];
  }
  /// Slot \p Slot for writing; valid until this Env is next copied.
  PsiValue &mut(unsigned Slot) {
    const SlotHome &H = L->Home[Slot];
    BlockPtr &B = Blocks[H.Block];
    if (!B.unique())
      B = BlockPtr::make(*B);
    B->Hash.store(0, std::memory_order_relaxed);
    B->Bytes.store(0, std::memory_order_relaxed);
    B->Id.store(0, std::memory_order_relaxed);
    return B->Vals[H.Offset];
  }
  const BlockPtr &block(unsigned I) const { return Blocks[I]; }
  /// Calls \p F on each block pointer, which it may replace by an equal
  /// block.
  template <typename Fn> void forEachBlock(Fn &&F) {
    for (BlockPtr &B : Blocks)
      F(B);
  }
  void setBlock(unsigned I, BlockPtr B) { Blocks[I] = std::move(B); }
  size_t numSlots() const { return L->Home.size(); }

  /// Folds the cached block hashes.
  size_t hash() const {
    size_t H = 0x811c9dc5;
    for (const BlockPtr &B : Blocks)
      H = H * 0x100000001b3ULL ^ B->hash();
    return H;
  }
  size_t approxBytes() const {
    size_t N = 0;
    for (const BlockPtr &B : Blocks)
      N += B->approxBytes();
    return N;
  }
  friend bool operator==(const Env &A, const Env &B) {
    for (size_t I = 0; I < A.Blocks.size(); ++I)
      if (!sameBlock(A.Blocks[I], B.Blocks[I]))
        return false;
    return true;
  }

private:
  const EnvLayout *L = nullptr;
  std::vector<BlockPtr> Blocks;
};

//===----------------------------------------------------------------------===//
// The arm transition cache
//===----------------------------------------------------------------------===//

struct BlockPtrHash {
  size_t operator()(const BlockPtr &B) const { return B->hash(); }
};
struct BlockPtrEq {
  bool operator()(const BlockPtr &A, const BlockPtr &B) const {
    return sameBlock(A, B);
  }
};

/// Hash-consing of environment blocks, as support/Intern.h does for the
/// direct engine's node blocks and under the same staged protocol: lanes
/// read the classes published at the last serial boundary, share one
/// pointer among the equal blocks they stage in between, and publication
/// gives every staged block its class id, so equal blocks compare in O(1)
/// in merge probes and arm-cache keys. The arena changes pointers and ids,
/// never values, so nothing it does is observable but time and memory.
class BlockArena {
public:
  BlockArena(uint64_t ByteCap, unsigned Lanes)
      : Table(ByteCap, Lanes), Local(std::max(1u, Lanes)) {}

  /// Replaces \p B by its published representative or by an equal block
  /// its lane staged since; else stages it.
  void canon(unsigned Lane, BlockPtr &B) {
    if (B->Id.load(std::memory_order_relaxed))
      return;
    if (const auto *E = Table.find(B)) {
      B = E->first;
      return;
    }
    LaneSet &L = Local[Lane];
    uint32_t New = static_cast<uint32_t>(L.Blocks.size());
    uint32_t At = L.Index.findOrInsert(
        B->hash(), New, [&](uint32_t I) { return sameBlock(L.Blocks[I], B); });
    if (At != New) {
      B = L.Blocks[At];
      return;
    }
    L.Blocks.push_back(B);
    Table.stage(Lane, B, 0);
  }

  void publish() {
    for (LaneSet &L : Local) {
      L.Blocks.clear();
      L.Index.clear();
    }
    // Which equal block wins is unobservable, so no content order.
    Table.publish(
        [](const auto &, const auto &) { return false; },
        [this](const BlockPtr &B, char &) -> uint64_t {
          B->Id.store(++NextId, std::memory_order_relaxed);
          return sizeof(EnvBlock) + B->approxBytes();
        },
        // Another lane staged an equal block: it joins the class, so the
        // environments holding it compare in O(1) from now on.
        [](BlockPtr &Dup, const BlockPtr &Canon) {
          Dup->Id.store(Canon->Id.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
        });
  }

private:
  struct alignas(64) LaneSet {
    std::vector<BlockPtr> Blocks;
    FlatIndexMap Index;
  };
  StagedTable<BlockPtr, char, BlockPtrHash, BlockPtrEq> Table;
  std::vector<LaneSet> Local;
  uint64_t NextId = 0;
};

/// One way a memoized arm run can end.
struct ArmOutcome {
  /// The arm's written blocks afterwards, in ArmInfo::WritePos order.
  std::vector<BlockPtr> Blocks;
  /// The weight the run was recorded with, started at 1: a replay
  /// multiplies the branch's weight by it (see times()).
  SymProb W;
  /// The run changed no slot live at its loop's merge (a parking test).
  bool Still = false;
};

/// Every outcome of running one arm on the blocks of its key. Like
/// interp/TxCache.h's entries, a pure value: eviction only costs a rerun.
struct ArmEntry {
  /// In the order the run finished them.
  std::vector<ArmOutcome> Outs;
  /// Recorded weight of the runs that failed.
  SymProb Err;
  /// The run never forked: its one outcome continues the branch in place.
  bool InPlace = false;
  /// Sparse (statement, count) executions of the run, the statement by
  /// its ArmInfo::ProfSlots index, replayed on every hit as
  /// TxEntry::ProfExecs are.
  std::vector<std::pair<uint32_t, uint64_t>> ProfExecs;
};

/// An arm shape and the blocks holding every slot the arm reads or writes.
struct ArmKey {
  uint32_t Shape = 0;
  std::vector<BlockPtr> Blocks;
};

struct ArmKeyHash {
  size_t operator()(const ArmKey &K) const {
    size_t H = 0x9e3779b97f4a7c15ULL * (K.Shape + 1);
    for (const BlockPtr &B : K.Blocks)
      H = H * 0x100000001b3ULL ^ B->hash();
    return H;
  }
};

struct ArmKeyEq {
  bool operator()(const ArmKey &A, const ArmKey &B) const {
    if (A.Shape != B.Shape)
      return false;
    for (size_t I = 0; I < A.Blocks.size(); ++I)
      if (!sameBlock(A.Blocks[I], B.Blocks[I]))
        return false;
    return true;
  }
};

using ArmCache = StagedTable<ArmKey, ArmEntry, ArmKeyHash, ArmKeyEq>;

/// Retained bytes of a cache entry, for the byte cap.
uint64_t entryBytes(const ArmKey &K, const ArmEntry &E) {
  auto blocks = [](const std::vector<BlockPtr> &Bs) {
    size_t N = 0;
    for (const BlockPtr &B : Bs)
      N += sizeof(EnvBlock) + B->approxBytes();
    return N;
  };
  size_t N = sizeof(ArmKey) + sizeof(ArmEntry) + blocks(K.Blocks) +
             E.Err.terms().size() * sizeof(SymProb::Term) +
             E.ProfExecs.size() * sizeof(E.ProfExecs[0]);
  for (const ArmOutcome &O : E.Outs)
    N += sizeof(ArmOutcome) + blocks(O.Blocks) +
         O.W.terms().size() * sizeof(SymProb::Term);
  return N;
}

/// \p W times a weight \p F recorded from 1. Every recorded weight is a
/// sum of terms v*[G] built by scaling and restricting, and SymProb keeps
/// terms and guards canonical, so scaling \p W by each v and restricting
/// it by each constraint of G gives bit for bit the weight the branch
/// would have reached running the arm itself.
SymProb times(const SymProb &W, const SymProb &F) {
  if (F.isConcrete())
    return W.scaled(F.concreteValue());
  SymProb R;
  for (const SymProb::Term &T : F.terms()) {
    SymProb Part = W.scaled(T.Value);
    for (const Constraint &C : T.Guard.constraints()) {
      if (Part.isZero())
        break;
      Part = Part.restricted(C);
    }
    R += std::move(Part);
  }
  return R;
}

/// The resets of one merge point's dead slots.
struct DeadPlan {
  std::vector<unsigned> Blocks; ///< Every slot dead: the zero block.
  std::vector<unsigned> Slots;  ///< The dead slots of the other blocks.
};

/// One weighted environment.
struct Branch {
  Env Vars;
  SymProb W;
};

using Dist = std::vector<Branch>;

/// Moves every branch of \p From to the end of \p Into.
void append(Dist &Into, Dist &From) {
  if (Into.empty())
    Into = std::move(From);
  else
    Into.insert(Into.end(), std::make_move_iterator(From.begin()),
                std::make_move_iterator(From.end()));
  From.clear();
}

/// Where a branch resumes: statements [Idx, End) of Block.
struct Frame {
  const std::vector<PStmtPtr> *Block;
  size_t Idx, End;
};

/// A continuation: a stack of frames held inline up to four deep, so
/// copying one for a fork does not allocate.
class Frames {
public:
  Frames() = default;
  Frames(Frame F) { push_back(F); }
  bool empty() const { return N == 0; }
  Frame &back() { return N <= Inline ? In[N - 1] : Spill.back(); }
  void push_back(Frame F) {
    if (N < Inline)
      In[N] = F;
    else
      Spill.push_back(F);
    ++N;
  }
  void pop_back() {
    if (N-- > Inline)
      Spill.pop_back();
  }

private:
  static constexpr unsigned Inline = 4;
  std::array<Frame, Inline> In;
  std::vector<Frame> Spill; ///< Frames past the fourth.
  unsigned N = 0;
};

/// One branch and the statements it has still to run in its pass.
struct Task {
  Branch B;
  Frames K;
  /// So far this Repeat iteration is the identity on the live slots: no
  /// fork, no general eval, no live slot changed.
  bool Still = false;
};

/// What a pass runs: the Body statements, after the While condition Cond
/// when that is set.
struct Pass {
  Frame Body;
  const PExpr *Cond = nullptr;
  /// Repeat: the slots dead at the iteration merge, by slot, so branches
  /// can park. Null for every other pass.
  const std::vector<bool> *Dead = nullptr;

  /// A loop iteration (While or Repeat) rather than a top-level statement.
  bool iteration() const { return Cond || Dead; }
};

/// Where the branches of one pass end up.
struct PassOut {
  Dist Done;   ///< Ran the pass to its end.
  Dist Exit;   ///< While: the condition was false.
  Dist Parked; ///< Repeat: the iteration was the identity on live slots.
};

/// One lane's counts during a pass; the spine commits lanes in lane order.
struct Tally {
  SymProb Err;
  size_t Expanded = 0, MergeAttempts = 0, MergeHits = 0, Parked = 0;
  uint64_t TxHits = 0, TxMisses = 0;
  /// Arm-cache hits and misses by shape, interleaved.
  std::vector<uint64_t> ShapeTx;
  unsigned Lane = 0;         ///< Where arm-cache misses stage.
  uint64_t *Execs = nullptr; ///< The lane's profiler exec shard, or null.
  /// Zeroed per-lane counts an arm run is recorded into, or null.
  uint64_t *RecExecs = nullptr;
  std::vector<SchedChoice> Choices; ///< Scratch for Schedule statements.
  ArmKey Probe;                     ///< Scratch arm-cache lookup key.
  std::vector<Task> Work;           ///< Spare runBranch stack.
};

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
    Outcome O = combined(A, B);
    O.Failed = true;
    O.FailReason = std::move(Reason);
    return O;
  }

  /// An outcome with the probability and guards of both operands, failed
  /// with B's reason if B failed.
  static Outcome combined(const Outcome &A, const Outcome &B) {
    Outcome O;
    O.Failed = B.Failed;
    O.FailReason = B.FailReason;
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
          .MergeHits = R.MergeHits,
          .TxHits = R.TxHits,
          .TxMisses = R.TxMisses,
          .TxEvictions = R.TxEvictions,
          .TxBytes = R.TxBytes};
}

/// What PsiExact knows of one `schedule` arm.
struct ArmInfo {
  /// Its cache class: arms of one shape share entries.
  uint32_t Shape = 0;
  /// Runs are memoized (see Interp::buildArm).
  bool Cacheable = false;
  /// Blocks holding a slot the arm may read or write, ascending: its
  /// cache key.
  std::vector<unsigned> Keys;
  /// Positions in Keys of the blocks it may write: what a replay installs.
  std::vector<uint32_t> WritePos;
  /// Profiler frames of its body's statements in pre-order (profiling on
  /// only); ArmEntry::ProfExecs index this list.
  std::vector<uint32_t> ProfSlots;
};

/// The exact interpreter over distributions.
class Interp {
public:
  Interp(const PsiProgram &P, const PsiExactOptions &Opts,
         PsiExactResult &Result)
      : P(P), Opts(Opts), Result(Result), Threads(resolveThreads(Opts.Threads)),
        BT(Opts.Budget.get()), StopF(BT ? &BT->stopFlag() : nullptr),
        O(Opts.Obs), Layout(P),
        Bound(EngineKind::Psi, "psi", Opts.Obs.get(), BT,
              Opts.Checkpoint.get()) {
    for (const auto &[S, Slots] : computeMergeLiveness(P)) {
      Plans[S] = {plan(Slots.Iter), plan(Slots.Exit)};
      if (S->Kind != PStmtKind::Repeat)
        continue;
      std::vector<bool> &Mask = IterDead[S];
      Mask.assign(P.VarNames.size(), false);
      for (unsigned Slot : Slots.Iter)
        Mask[Slot] = true;
    }
    buildSchedulers(P.Body, nullptr);
    Shapes.resize(ShapeRep.size());
    if (Opts.TxCacheBytes)
      Cache = std::make_unique<ArmCache>(Opts.TxCacheBytes, Threads);
    if (Opts.InternBytes) {
      Arena = std::make_unique<BlockArena>(Opts.InternBytes, Threads);
      for (BlockPtr B : Layout.Zero)
        Arena->canon(0, B);
      Arena->publish();
    }
    if (Opts.Checkpoint) {
      // The PSI IR has no structural identity beyond its text: fingerprint
      // the printed program (deterministic, covers every statement).
      Bound.SpecFp = Fingerprint().mix(printPsiProgram(P)).value();
      Bound.OptsFp = Fingerprint()
                         .mix(std::string("psi"))
                         .mix(Opts.MergeEnvs)
                         .mix(static_cast<uint64_t>(Opts.WhileFuel))
                         .mix(Opts.MaxDist)
                         .mix(Opts.TxCacheBytes)
                         .mix(Opts.InternBytes)
                         .value();
      Bound.Payload = [this](SnapWriter &W) { serializeState(W); };
    }
    // A mid-pass stop (cancellation, deadline, byte trip) discards the
    // pass's partial work and reports the last boundary: a top-level
    // statement or an iteration of a top-level loop.
    Bound.Save = [this] { Saved = this->Result; };
    Bound.Restore = [this] { this->Result = Saved; };
  }

  void run() {
    // Every IR statement becomes a profiler frame under the engine root,
    // with one exec shard per lane of a sharded pass.
    if (auto St = Bound.attach({.Lanes = Threads, .Psi = &P})) {
      Result.Status = *St;
      return;
    }
    PF = Bound.profiler();
    if (PF && Cache) {
      // Per-lane scratch an arm run records its statement counts into.
      uint32_t Slots = 0;
      for (auto &[Arm, AI] : Arms) {
        collectProfSlots(Arm->Then, AI.ProfSlots);
        for (uint32_t Slot : AI.ProfSlots)
          Slots = std::max(Slots, Slot + 1);
      }
      RecExecs.assign(Threads, std::vector<uint64_t>(Slots, 0));
    }
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
        Branch B{Env(Layout), SymProb()};
        Ok = R->count() == P.VarNames.size();
        for (unsigned V = 0; V < P.VarNames.size() && Ok && R->ok(); ++V)
          Ok = readPsiValue(*R, B.Vars.mut(V));
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
      Result.BranchesParked = R->u64();
      Result.TxHits = R->u64();
      Result.TxMisses = R->u64();
      Result.TxEvictions = R->u64();
      Result.TxBytes = R->u64();
      Ok = Ok && R->boolean() == (Cache != nullptr);
      for (ShapeStats &St : Shapes) {
        St.Hits = R->u64();
        St.Misses = R->u64();
        St.Off = R->boolean();
      }
      Ok = Ok && (!Cache || restoreCache(*R));
      if (!Ok || !R->ok()) {
        Result = PsiExactResult();
        Result.Kind = P.Kind;
        Result.Status =
            EngineStatus::invalid("corrupt snapshot: psi engine payload");
        return;
      }
      Resumed = true;
    }
    if (!Resumed)
      D.push_back({Env(Layout), SymProb::concrete(Rational(1))});
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
      execTop(I, D);
    }
    TopD = nullptr;
    RunSummary Summary{.States = Result.BranchesExpanded,
                       .Peak = Result.MaxDistSize};
    if (Aborted || stopped()) {
      // The run span records the work done; a budget or cancel stop then
      // reports the last completed boundary (bit-identical for
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
  /// Each loop's iteration and exit merge resets of the slots dead there
  /// (psi/PsiLiveness.h), so environments that differ only in dead values
  /// merge.
  std::unordered_map<const PStmt *, std::pair<DeadPlan, DeadPlan>> Plans;
  /// Each Repeat's iteration-merge dead slots as a per-slot mask, for the
  /// parking test.
  std::unordered_map<const PStmt *, std::vector<bool>> IterDead;
  /// Every Schedule statement's net/Scheduler and the ArmInfo of each of
  /// its arms, in slot order.
  struct SchedInfo {
    std::unique_ptr<Scheduler> Sched;
    std::vector<const ArmInfo *> Arms;
  };
  std::unordered_map<const PStmt *, SchedInfo> Scheds;
  const EnvLayout Layout;
  /// Every arm's cache facts; the shapes, and one arm of each.
  std::unordered_map<const PStmt *, ArmInfo> Arms;
  std::map<std::string, uint32_t> ShapeIds;
  std::vector<const ArmInfo *> ShapeRep;
  /// Each shape's published hits and misses, and whether it stopped
  /// being cached.
  struct ShapeStats {
    uint64_t Hits = 0, Misses = 0;
    bool Off = false;
  };
  std::vector<ShapeStats> Shapes;
  /// The arm transition cache (null when off): lanes read the entries
  /// published at the last serial boundary and stage their misses, as the
  /// direct engine's TxCache does.
  std::unique_ptr<ArmCache> Cache;
  /// The block arena (null when off).
  std::unique_ptr<BlockArena> Arena;
  /// Per-lane scratch for recording an arm run's statement counts.
  std::vector<std::vector<uint64_t>> RecExecs;
  Boundary Bound;
  Profiler *PF = nullptr;
  /// The reported statistics as of the last boundary.
  PsiExactResult Saved;
  /// The top-level distribution and statement index, valid while run()'s
  /// statement loop is live: snapshots are only taken at its boundaries,
  /// where this pair is the whole resumable state.
  Dist *TopD = nullptr;
  int64_t TopIdx = 0;
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
      W.u64(B.Vars.numSlots());
      for (unsigned V = 0; V < B.Vars.numSlots(); ++V)
        snapPsiValue(W, B.Vars[V]);
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
    W.u64(Result.BranchesParked);
    W.u64(Result.TxHits);
    W.u64(Result.TxMisses);
    W.u64(Result.TxEvictions);
    W.u64(Result.TxBytes);
    W.boolean(Cache != nullptr);
    for (const ShapeStats &St : Shapes) {
      W.u64(St.Hits);
      W.u64(St.Misses);
      W.boolean(St.Off);
    }
    if (Cache)
      Cache->snapshot(W, [&](const ArmKey &K, const ArmEntry &E) {
        W.u32(K.Shape);
        snapBlocks(W, K.Blocks);
        W.u64(E.Outs.size());
        for (const ArmOutcome &O : E.Outs) {
          snapBlocks(W, O.Blocks);
          snapSymProb(W, O.W);
          W.boolean(O.Still);
        }
        snapSymProb(W, E.Err);
        W.boolean(E.InPlace);
        W.u64(E.ProfExecs.size());
        for (const auto &[Stmt, Count] : E.ProfExecs) {
          W.u32(Stmt);
          W.u64(Count);
        }
      });
  }

  static void snapBlocks(SnapWriter &W, const std::vector<BlockPtr> &Bs) {
    W.u64(Bs.size());
    for (const BlockPtr &B : Bs) {
      W.u64(B->Vals.size());
      for (const PsiValue &V : B->Vals)
        snapPsiValue(W, V);
    }
  }

  /// Reads the blocks written by snapBlocks.
  static bool readBlocks(SnapReader &R, std::vector<BlockPtr> &Bs) {
    for (uint64_t I = 0, N = R.count(); I < N && R.ok(); ++I) {
      std::vector<PsiValue> Vals(R.count());
      for (PsiValue &V : Vals)
        if (!readPsiValue(R, V))
          return false;
      Bs.push_back(BlockPtr::make(std::move(Vals)));
    }
    return R.ok();
  }

  /// Restores the published arm cache from a snapshot, in its FIFO order,
  /// so a resumed run hits and evicts exactly as an uninterrupted one.
  bool restoreCache(SnapReader &R) {
    return Cache->restore(R, [&](ArmKey &K, ArmEntry &E, uint64_t &Bytes) {
      K.Shape = R.u32();
      if (K.Shape >= ShapeRep.size())
        return false;
      const ArmInfo &AI = *ShapeRep[K.Shape];
      if (!readBlocks(R, K.Blocks) || K.Blocks.size() != AI.Keys.size())
        return false;
      E.Outs.resize(R.count());
      for (ArmOutcome &O : E.Outs) {
        if (!R.ok() || !readBlocks(R, O.Blocks) ||
            O.Blocks.size() != AI.WritePos.size() || !readSymProb(R, O.W))
          return false;
        for (size_t I = 0; I < O.Blocks.size(); ++I)
          if (O.Blocks[I]->Vals.size() !=
              K.Blocks[AI.WritePos[I]]->Vals.size())
            return false;
        O.Still = R.boolean();
      }
      if (!readSymProb(R, E.Err))
        return false;
      E.InPlace = R.boolean();
      E.ProfExecs.resize(R.count());
      for (auto &[Stmt, Count] : E.ProfExecs) {
        Stmt = R.u32();
        Count = R.u64();
        if (PF && Stmt >= AI.ProfSlots.size())
          return false;
      }
      Bytes = entryBytes(K, E);
      return R.ok();
    });
  }

  /// Splits \p DeadSlots into wholly dead blocks and the other slots.
  DeadPlan plan(const std::vector<unsigned> &DeadSlots) const {
    DeadPlan Plan;
    std::vector<unsigned> Count(Layout.Sizes.size(), 0);
    for (unsigned Slot : DeadSlots)
      ++Count[Layout.Home[Slot].Block];
    for (unsigned B = 0; B < Count.size(); ++B)
      if (Count[B] == Layout.Sizes[B])
        Plan.Blocks.push_back(B);
    for (unsigned Slot : DeadSlots)
      if (Count[Layout.Home[Slot].Block] != Layout.Sizes[Layout.Home[Slot].Block])
        Plan.Slots.push_back(Slot);
    return Plan;
  }

  /// Builds the net/Scheduler of every Schedule and the ArmInfo of every
  /// arm; \p Dead is the iteration-dead mask of the innermost enclosing
  /// Repeat (null outside one or inside a While).
  void buildSchedulers(const std::vector<PStmtPtr> &Body,
                       const std::vector<bool> *Dead) {
    for (const PStmtPtr &S : Body) {
      if (S->Kind == PStmtKind::Schedule) {
        SchedInfo &SI = Scheds[S.get()];
        SI.Sched = Scheduler::create(S->Sched, S->Weights);
        for (const PStmtPtr &Arm : S->Then)
          SI.Arms.push_back(&Arms[Arm.get()]);
      }
      if (S->Kind == PStmtKind::Arm && Opts.TxCacheBytes)
        buildArm(*S, Dead);
      const std::vector<bool> *Inner =
          S->Kind == PStmtKind::Repeat  ? &IterDead.at(S.get())
          : S->Kind == PStmtKind::While ? nullptr
                                        : Dead;
      buildSchedulers(S->Then, Inner);
      buildSchedulers(S->Else, Inner);
    }
  }

  /// Fills Arms[&Arm]. A straight-line arm is cacheable. Arms whose
  /// bodies agree up to the renaming of their key blocks (same-program
  /// nodes) share a shape, and so share cache entries.
  void buildArm(const PStmt &Arm, const std::vector<bool> *Dead) {
    ArmInfo &AI = Arms[&Arm];
    BodyUses U = computeBodyUses(Arm.Then);
    std::vector<unsigned> Writes;
    for (unsigned Slot : U.Writes)
      Writes.push_back(Layout.Home[Slot].Block);
    AI.Keys = Writes;
    for (unsigned Slot : U.Reads)
      AI.Keys.push_back(Layout.Home[Slot].Block);
    for (std::vector<unsigned> *V : {&AI.Keys, &Writes}) {
      std::sort(V->begin(), V->end());
      V->erase(std::unique(V->begin(), V->end()), V->end());
    }
    for (unsigned B : Writes)
      AI.WritePos.push_back(keyPos(AI, B));
    AI.Cacheable = straightLine(Arm.Then);
    // The shape: the body with each slot renamed to (key position,
    // offset), and whether each written slot is dead at the merge.
    std::string Shape;
    auto Put = [&](uint64_t V) {
      Shape.append(reinterpret_cast<const char *>(&V), sizeof V);
    };
    auto Slot = [&](unsigned S) {
      Put(uint64_t(keyPos(AI, Layout.Home[S].Block)) << 33 |
          uint64_t(Layout.Home[S].Offset) << 1 | (Dead && (*Dead)[S]));
    };
    std::function<void(const PExpr &)> Expr = [&](const PExpr &E) {
      Put(uint64_t(E.Kind) << 32 | E.Ops.size());
      if (E.Kind == PExprKind::Const) {
        std::string C = E.ConstVal.toString();
        Put(C.size());
        Shape += C;
      } else if (E.Kind == PExprKind::Var) {
        Slot(E.Index);
      } else {
        Put(E.Index);
        Put(uint64_t(E.BinOp) << 32 | uint64_t(E.UnOp));
      }
      for (const PExprPtr &Op : E.Ops)
        Expr(*Op);
    };
    std::function<void(const std::vector<PStmtPtr> &)> Block =
        [&](const std::vector<PStmtPtr> &Stmts) {
          Put(Stmts.size());
          for (const PStmtPtr &St : Stmts) {
            Put(uint64_t(St->Kind));
            Put(static_cast<uint64_t>(St->Capacity));
            if (St->Kind == PStmtKind::Assign ||
                St->Kind == PStmtKind::PushBack ||
                St->Kind == PStmtKind::PushFront ||
                St->Kind == PStmtKind::PopFront)
              Slot(St->Var);
            if (St->Kind == PStmtKind::PopFront)
              Slot(St->Var2);
            Put(St->E != nullptr);
            if (St->E)
              Expr(*St->E);
            Block(St->Then);
            Block(St->Else);
          }
        };
    Block(Arm.Then);
    auto [It, New] = ShapeIds.try_emplace(
        std::move(Shape), static_cast<uint32_t>(ShapeRep.size()));
    if (New)
      ShapeRep.push_back(&AI);
    AI.Shape = It->second;
  }

  static uint32_t keyPos(const ArmInfo &AI, unsigned Block) {
    return static_cast<uint32_t>(
        std::lower_bound(AI.Keys.begin(), AI.Keys.end(), Block) -
        AI.Keys.begin());
  }

  static bool straightLine(const std::vector<PStmtPtr> &Body) {
    for (const PStmtPtr &S : Body)
      if (S->Kind == PStmtKind::While || S->Kind == PStmtKind::Repeat ||
          S->Kind == PStmtKind::Schedule || !straightLine(S->Then) ||
          !straightLine(S->Else))
        return false;
    return true;
  }

  static void collectProfSlots(const std::vector<PStmtPtr> &Body,
                               std::vector<uint32_t> &Out) {
    for (const PStmtPtr &S : Body) {
      Out.push_back(S->ProfSlot);
      collectProfSlots(S->Then, Out);
      collectProfSlots(S->Else, Out);
    }
  }

  /// Charges one expanded branch to the governor (thread-safe).
  void chargeBranch(const Branch &B) {
    if (!BT)
      return;
    BT->chargeStates();
    BT->chargeBytes(B.Vars.approxBytes());
  }

  bool stopped() const { return BT && BT->stop(); }

  /// The environment of outcome \p I of \p N evaluated on \p B: a copy,
  /// except that the last outcome takes B's own.
  static Env outcomeEnv(Branch &B, size_t I, size_t N) {
    if (I + 1 < N)
      return B.Vars;
    return std::move(B.Vars);
  }

  bool useParallel(size_t N) const {
    return Threads > 1 && N >= Opts.ParallelThreshold;
  }

  /// Resets the slots of \p Plan to PsiValue(): a wholly dead block
  /// becomes the shared zero block, and elsewhere only a block where a
  /// dead slot holds something else is copied.
  void resetDead(Env &E, const DeadPlan &Plan) const {
    for (unsigned B : Plan.Blocks)
      E.setBlock(B, Layout.Zero[B]);
    for (unsigned Slot : Plan.Slots)
      if (const PsiValue &V = E[Slot]; !V.isRational() || !V.rational().isZero())
        E.mut(Slot) = PsiValue();
  }

  /// Merges equal environments of \p D after resetting \p DeadSlots in
  /// each, counting into \p Attempts and \p Hits. On the spine (\p Spine)
  /// a large distribution is merged in hash-sharded lanes; the dead slots
  /// are reset before hashing on both paths, so the merged distribution is
  /// independent of the thread count.
  void mergeDist(Dist &D, const DeadPlan &DeadSlots,
                 size_t &Attempts, size_t &Hits, bool Spine) {
    if (!Opts.MergeEnvs)
      return;
    if (D.size() < 2) {
      // Nothing to merge, but reset anyway: arm-cache keys then see the
      // same scratch blocks as in merged distributions.
      for (Branch &B : D)
        resetDead(B.Vars, DeadSlots);
      return;
    }
    if (!Spine || !useParallel(D.size())) {
      // Open-addressing merge index over the dense distribution
      // (support/Intern.h): the environment hash is computed once per
      // branch and reused for the probe, and the table allocates nothing
      // per insert.
      Dist Merged;
      Merged.reserve(D.size());
      FlatIndexMap Index;
      Index.reserve(D.size());
      Attempts += D.size();
      for (Branch &B : D) {
        resetDead(B.Vars, DeadSlots);
        uint64_t H = B.Vars.hash();
        uint32_t NewIdx = static_cast<uint32_t>(Merged.size());
        uint32_t At = Index.findOrInsert(
            H, NewIdx, [&](uint32_t I) { return Merged[I].Vars == B.Vars; });
        if (At == NewIdx) {
          Merged.push_back(std::move(B));
        } else {
          Merged[At].W += std::move(B.W);
          ++Hits;
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
        uint64_t H = D[I].Vars.hash();
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
    size_t Merges = 0;
    for (size_t B = 0; B < Lanes; ++B) {
      Total += Merged[B].size();
      Merges += BucketHits[B];
    }
    Attempts += D.size(); // Every routed env is one lookup.
    Hits += Merges;
    if (BT)
      BT->chargeMerges(Merges);
    D.clear();
    D.reserve(Total);
    for (size_t B = 0; B < Lanes; ++B)
      for (Branch &Br : Merged[B])
        D.push_back(std::move(Br));
  }

  /// Pushes \p V onto \p E's queue S.Var for a PushBack/PushFront \p S; a
  /// push onto a full bounded queue drops the value and copies no block.
  /// True when the queue changed.
  static bool push(const PStmt &S, Env &E, PsiValue V) {
    if (S.Capacity >= 0 &&
        static_cast<int64_t>(E[S.Var].elems().size()) >= S.Capacity)
      return false;
    auto &Elems = E.mut(S.Var).elems();
    if (S.Kind == PStmtKind::PushBack)
      Elems.push_back(std::move(V));
    else
      Elems.insert(Elems.begin(), std::move(V));
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Execution: one branch at a time
  //===--------------------------------------------------------------------===//

  /// Runs top-level statement \p I as one boundary: a loop iterates on the
  /// spine, every other statement is one pass over the distribution.
  void execTop(size_t I, Dist &D) {
    const PStmt &S = *P.Body[I];
    if (!sizeOk(D.size()))
      return;
    Boundary::Step St = Bound.beginStep(TopIdx, D.size());
    const size_t DistIn = D.size();
    const BoundaryDelta Before = counters(Result);
    if (S.Kind == PStmtKind::Repeat || S.Kind == PStmtKind::While) {
      if (PF)
        PF->laneExecs(0)[S.ProfSlot] += D.size();
      loop(S, D, nullptr);
    } else {
      PassOut Out;
      pass(D, {.Body = {&P.Body, I, I + 1}}, Out, nullptr);
      D = std::move(Out.Done);
      if (!Aborted)
        publishArms();
    }
    if (Aborted)
      return; // Incomplete statement: nothing is charged.
    BoundaryDelta Delta = counters(Result) - Before;
    Delta.Step = TopIdx;
    Delta.FrontierIn = DistIn;
    Delta.FrontierOut = D.size();
    Delta.ProfSlot = S.ProfSlot;
    Bound.commit(St, Delta);
  }

  /// Serial-boundary publication of the arm runs the lanes staged, in
  /// (arm, key hash) order, so hits and evictions are the same for every
  /// thread count.
  void publishArms() {
    if (Arena)
      Arena->publish();
    if (!Cache)
      return;
    PublishStats PS = Cache->publish(
        [](const ArmCache::Staged &A, const ArmCache::Staged &B) {
          if (A.K.Shape != B.K.Shape)
            return A.K.Shape < B.K.Shape;
          return ArmKeyHash()(A.K) < ArmKeyHash()(B.K);
        },
        [](const ArmKey &K, ArmEntry &E) { return entryBytes(K, E); },
        [](ArmKey &, const ArmKey &) {});
    Result.TxEvictions += PS.Evicted;
    Result.TxBytes = Cache->bytes();
    // A shape that misses more than it hits costs more to record than its
    // replays save (a forward whose key spans every node, say): it runs
    // uncached from here on. The counts are published ones, so the choice
    // is the same at every thread count.
    for (ShapeStats &St : Shapes)
      St.Off = St.Off || (St.Misses >= 256 && St.Hits < St.Misses);
  }

  /// Records the peak distribution size and enforces MaxDist. False = stop.
  bool sizeOk(size_t N) {
    Result.MaxDistSize = std::max(Result.MaxDistSize, N);
    if (N <= Opts.MaxDist)
      return true;
    Result.QueryUnsupported = true;
    Result.UnsupportedReason = "distribution size limit exceeded";
    Result.Status.Code = StatusCode::BudgetExceeded;
    Result.Status.Violation = {BudgetClass::Frontier, N, Opts.MaxDist};
    Aborted = true;
    return false;
  }

  /// Runs loop \p S over \p D at distribution level, merging once per
  /// iteration after resetting the slots dead there. On the spine
  /// (\p Nested null: a top-level loop) every iteration is a budget
  /// boundary; a loop nested in a branch runs inside that branch's lane.
  /// In a Repeat, a branch whose iteration was the identity on the live
  /// slots parks: it ran deterministically on them, so every later
  /// iteration would be the identity too. It skips them and rejoins the
  /// distribution after the loop.
  void loop(const PStmt &S, Dist &D, Tally *Nested) {
    const auto &[IterPlan, ExitPlan] = Plans.at(&S);
    const bool IsWhile = S.Kind == PStmtKind::While;
    const Pass C{.Body = {&S.Then, 0, S.Then.size()},
                 .Cond = IsWhile ? S.E.get() : nullptr,
                 .Dead = IsWhile ? nullptr : &IterDead.at(&S)};
    size_t &Attempts = Nested ? Nested->MergeAttempts : Result.MergeAttempts;
    size_t &Hits = Nested ? Nested->MergeHits : Result.MergeHits;
    Dist Exit, Parked;
    const int64_t Count = IsWhile ? Opts.WhileFuel : S.Count;
    for (int64_t Iter = 0; Iter < Count && !D.empty(); ++Iter) {
      // A top-level repeat is the translated scheduler loop: give each
      // iteration its own "round" span, nested under the stmt span.
      Span RoundSpan = !Nested && !IsWhile ? O.span("psi.round") : Span();
      if (!Nested && !IsWhile && O.tracing()) {
        RoundSpan.arg("iter", static_cast<uint64_t>(Iter));
        RoundSpan.arg("dist", static_cast<uint64_t>(D.size()));
      }
      if (!iterationOk(D.size(), Nested))
        return;
      PassOut Out;
      pass(D, C, Out, Nested);
      if (!Aborted)
        mergeDist(Out.Done, IterPlan, Attempts, Hits, !Nested);
      if (Aborted)
        return;
      if (!Nested)
        publishArms();
      D = std::move(Out.Done);
      append(Exit, Out.Exit);
      append(Parked, Out.Parked);
    }
    if (IsWhile) {
      SymProb &Err = Nested ? Nested->Err : Result.ErrorMass;
      for (Branch &B : D)
        Err += std::move(B.W); // The while loop exceeded the fuel bound.
      D = std::move(Exit);
      mergeDist(D, ExitPlan, Attempts, Hits, !Nested);
    } else if (!Parked.empty()) {
      append(D, Parked);
      mergeDist(D, IterPlan, Attempts, Hits, !Nested);
    }
  }

  /// The boundary before a loop iteration. On the spine: the budget
  /// decision and the size limit. Nested in a lane: only the stop flag, as
  /// budget decisions are taken at serial points. False = stop.
  bool iterationOk(size_t N, const Tally *Nested) {
    if (Nested)
      return !StopF || !StopF->load(std::memory_order_acquire);
    if (!Bound.budget(N)) {
      Aborted = true;
      return false;
    }
    return sizeOk(N);
  }

  /// Runs every branch of \p D (consumed) through one pass of \p C. On the
  /// spine (\p Nested null) a large distribution is cut into contiguous
  /// chunks, one per lane, each running into its own output and tally;
  /// lanes are committed in lane order, so outputs and counts are the same
  /// for every thread count. A nested pass runs inside its enclosing lane.
  void pass(Dist &D, const Pass &C, PassOut &Out, Tally *Nested) {
    auto Run = [&](size_t Lo, size_t Hi, PassOut &LaneOut, Tally &T) {
      for (size_t I = Lo; I < Hi; ++I) {
        if (StopF && StopF->load(std::memory_order_acquire))
          return; // Drain; run() discards the partial pass.
        // Branches entering an iteration are the analogue of the direct
        // engine's configurations run through one scheduler step.
        if (C.iteration()) {
          ++T.Expanded;
          chargeBranch(D[I]);
        }
        runBranch(std::move(D[I]), C, LaneOut, T);
      }
    };
    if (Nested) {
      Run(0, D.size(), Out, *Nested);
      return;
    }
    const size_t Lanes = useParallel(D.size()) ? Threads : 1;
    const size_t Chunk = (D.size() + Lanes - 1) / Lanes;
    std::vector<PassOut> Outs(Lanes);
    std::vector<Tally> Tallies(Lanes);
    auto RunLane = [&](size_t Lane) {
      Tallies[Lane].Lane = static_cast<unsigned>(Lane);
      Tallies[Lane].Execs = PF ? PF->laneExecs(Lane) : nullptr;
      if (!RecExecs.empty())
        Tallies[Lane].RecExecs = RecExecs[Lane].data();
      size_t Lo = std::min(D.size(), Lane * Chunk);
      Run(Lo, std::min(D.size(), Lo + Chunk), Outs[Lane], Tallies[Lane]);
    };
    if (Lanes == 1)
      RunLane(0);
    else
      ThreadPool::global().parallelFor(Lanes, RunLane, StopF);
    if (stopped()) {
      Aborted = true; // Mid-pass stop; run() restores the boundary.
      return;
    }
    if (Lanes > 1 && Result.WorkerBranchesExpanded.size() < Lanes)
      Result.WorkerBranchesExpanded.resize(Lanes, 0);
    for (size_t Lane = 0; Lane < Lanes; ++Lane) {
      Tally &T = Tallies[Lane];
      Result.BranchesExpanded += T.Expanded;
      if (Lanes > 1)
        Result.WorkerBranchesExpanded[Lane] += T.Expanded;
      Result.ErrorMass += std::move(T.Err);
      Result.MergeAttempts += T.MergeAttempts;
      Result.MergeHits += T.MergeHits;
      Result.BranchesParked += T.Parked;
      Result.TxHits += T.TxHits;
      Result.TxMisses += T.TxMisses;
      for (size_t I = 0; I < T.ShapeTx.size(); I += 2) {
        Shapes[I / 2].Hits += T.ShapeTx[I];
        Shapes[I / 2].Misses += T.ShapeTx[I + 1];
      }
      append(Out.Done, Outs[Lane].Done);
      append(Out.Exit, Outs[Lane].Exit);
      append(Out.Parked, Outs[Lane].Parked);
    }
  }

  /// Runs one branch through a pass straight-line, forking only where a
  /// statement has several outcomes (a draw, a symbolic split, a failure).
  /// Every branch it leads to ends in \p Out, in T.Err, or dropped by a
  /// failed observe.
  void runBranch(Branch B, const Pass &C, PassOut &Out, Tally &T) {
    // Reuse the lane's stack; a nested loop's runBranch finds it taken and
    // makes its own.
    std::vector<Task> Work = std::move(T.Work);
    Work.clear();
    auto Start = [&](Branch NB, bool Still) {
      Work.push_back({std::move(NB), {C.Body}, Still});
    };
    PsiValue X;
    if (!C.Cond)
      Start(std::move(B), C.Dead != nullptr);
    else if (evalConcrete(*C.Cond, B.Vars, X) && X.isRational())
      X.rational().isZero() ? Out.Exit.push_back(std::move(B))
                            : Start(std::move(B), false);
    else
      splitCond(*C.Cond, B, T.Err, [&](Branch NB, bool Truth) {
        Truth ? Start(std::move(NB), false) : Out.Exit.push_back(std::move(NB));
      });
    while (!Work.empty()) {
      Task Tk = std::move(Work.back());
      Work.pop_back();
      if (!exec(Tk, C, T, Work))
        continue;
      if (Arena)
        Tk.B.Vars.forEachBlock(
            [&](BlockPtr &B) { Arena->canon(T.Lane, B); });
      T.Parked += Tk.Still;
      (Tk.Still ? Out.Parked : Out.Done).push_back(std::move(Tk.B));
    }
    T.Work = std::move(Work);
  }

  /// Runs \p Tk until its continuation is empty (true) or it ends: by a
  /// failure, a failed observe, or a fork whose successors are pushed onto
  /// \p Work. Deterministic statements run through evalConcrete in place.
  bool exec(Task &Tk, const Pass &C, Tally &T, std::vector<Task> &Work) {
    Env &V = Tk.B.Vars;
    while (!Tk.K.empty()) {
      Frame &F = Tk.K.back();
      if (F.Idx == F.End) {
        Tk.K.pop_back();
        continue;
      }
      const PStmt &S = *(*F.Block)[F.Idx++];
      if (T.Execs)
        ++T.Execs[S.ProfSlot];
      PsiValue X;
      switch (S.Kind) {
      case PStmtKind::Assign:
        if (!evalConcrete(*S.E, V, X))
          break;
        write(Tk, C, S.Var, std::move(X));
        continue;
      case PStmtKind::PushBack:
      case PStmtKind::PushFront:
        if (!V[S.Var].isTuple() || !evalConcrete(*S.E, V, X))
          break;
        if (push(S, V, std::move(X)))
          touch(Tk, C, S.Var);
        continue;
      case PStmtKind::PopFront: {
        if (!V[S.Var].isTuple() || V[S.Var].elems().empty()) {
          T.Err += std::move(Tk.B.W); // takeFront on an empty queue.
          return false;
        }
        auto &Q = V.mut(S.Var).elems();
        PsiValue Head = std::move(Q.front());
        Q.erase(Q.begin());
        touch(Tk, C, S.Var);
        write(Tk, C, S.Var2, std::move(Head));
        continue;
      }
      case PStmtKind::If:
      case PStmtKind::Observe:
      case PStmtKind::Assert:
        if (!evalConcrete(*S.E, V, X) || !X.isRational())
          break;
        if (!decide(Tk, S, !X.rational().isZero(), T))
          return false;
        continue;
      case PStmtKind::Schedule:
        if (!schedule(S, Tk, C, T, Work))
          return false;
        continue;
      case PStmtKind::Arm:
        assert(false && "an arm runs only as its Schedule's choice");
        continue;
      case PStmtKind::While:
      case PStmtKind::Repeat: {
        // A nested loop runs at distribution level on this one branch.
        Dist D;
        D.push_back(std::move(Tk.B));
        loop(S, D, &T);
        for (Branch &B : D)
          Work.push_back({std::move(B), Tk.K, false});
        return false;
      }
      }
      fork(S, Tk, T, Work);
      return false;
    }
    return true;
  }

  /// Runs Schedule \p S on \p Tk through its net/Scheduler, as the direct
  /// engines do: the arms whose queue is nonempty are the enabled action
  /// slots, the scheduler assigns their probabilities, and the chosen
  /// arm's body runs. Nothing enabled is a no-op and one choice continues
  /// in place (true); several fork one task per choice, in slot order,
  /// onto \p Work (false). A non-queue arm slot, or a roundrobin σ_s that
  /// is not a small integer, sends the branch to the error mass (false).
  bool schedule(const PStmt &S, Task &Tk, const Pass &C, Tally &T,
                std::vector<Task> &Work) {
    const Env &V = Tk.B.Vars;
    std::vector<SchedChoice> &Ch = T.Choices;
    Ch.clear();
    for (size_t I = 0; I < S.Then.size(); ++I) {
      const PsiValue &Q = V[S.Then[I]->Var];
      if (!Q.isTuple()) {
        T.Err += std::move(Tk.B.W); // The length of a non-queue value.
        return false;
      }
      if (!Q.elems().empty())
        Ch.push_back({slotAction(static_cast<int64_t>(I)), Rational(), 0});
    }
    if (Ch.empty())
      return true;
    int64_t State = 0;
    const bool Rotor = S.Sched == SchedulerKind::RoundRobin;
    if (Rotor) {
      const PsiValue &R = V[S.Var];
      if (!R.isRational() || !R.rational().isInteger() ||
          !R.rational().num().isSmall() || R.rational().isNegative()) {
        T.Err += std::move(Tk.B.W);
        return false;
      }
      State = R.rational().num().getSmall();
    }
    const SchedInfo &SI = Scheds.at(&S);
    SI.Sched->assign(Ch, State, static_cast<int64_t>(S.Then.size()));
    if (Rotor)
      write(Tk, C, S.Var, PsiValue(Rational(Ch[0].NextSchedState)));
    auto Enter = [&](const SchedChoice &Pick, Task &Into) {
      size_t Slot = actionSlot(Pick.Act);
      return enter(*S.Then[Slot], *SI.Arms[Slot], Into, C, T, Work);
    };
    if (Ch.size() == 1) {
      assert(Ch[0].Prob == Rational(1) && "a sole choice has probability 1");
      return Enter(Ch[0], Tk);
    }
    for (size_t I = 0; I < Ch.size(); ++I) {
      SymProb W = Tk.B.W.scaled(Ch[I].Prob);
      if (W.isZero())
        continue;
      Task NT{{outcomeEnv(Tk.B, I, Ch.size()), std::move(W)}, Tk.K, false};
      if (Enter(Ch[I], NT))
        Work.push_back(std::move(NT));
    }
    return false;
  }

  /// Starts arm \p Arm on \p Tk: pushes its body, or, for a cacheable arm
  /// with the cache on, replays the arm's memoized run, first recording it
  /// on a miss. True when \p Tk continues in place; false when its
  /// successors went to \p Work instead.
  bool enter(const PStmt &Arm, const ArmInfo &AI, Task &Tk, const Pass &C,
             Tally &T, std::vector<Task> &Work) {
    if (T.Execs)
      ++T.Execs[Arm.ProfSlot];
    if (!Cache || !AI.Cacheable || Shapes[AI.Shape].Off) {
      if (!Arm.Then.empty())
        Tk.K.push_back({&Arm.Then, 0, Arm.Then.size()});
      return true;
    }
    if (T.ShapeTx.empty())
      T.ShapeTx.assign(2 * Shapes.size(), 0);
    ArmKey &Key = T.Probe;
    Key.Shape = AI.Shape;
    Key.Blocks.clear();
    for (unsigned B : AI.Keys)
      Key.Blocks.push_back(Tk.B.Vars.block(B));
    if (const ArmCache::Entry *Hit = Cache->find(Key)) {
      Key.Blocks.clear(); // Hold no extra reference to the branch's blocks.
      ++T.TxHits;
      ++T.ShapeTx[2 * AI.Shape];
      if (PF)
        ++PF->laneTxHits(T.Lane)[Arm.ProfSlot];
      return replay(AI, Hit->second, Tk, T, Work);
    }
    ++T.TxMisses;
    ++T.ShapeTx[2 * AI.Shape + 1];
    if (PF)
      ++PF->laneTxMisses(T.Lane)[Arm.ProfSlot];
    ArmEntry E = record(AI, Arm, Tk.B.Vars, C, T);
    bool InPlace = replay(AI, E, Tk, T, Work);
    Cache->stage(T.Lane, std::move(Key), std::move(E));
    return InPlace;
  }

  /// Runs cacheable arm \p Arm alone on \p In with weight 1 and records
  /// how each of its paths ends. The run starts still when its pass can
  /// park, so each outcome notes whether it kept the live slots.
  ArmEntry record(const ArmInfo &AI, const PStmt &Arm, const Env &In,
                  const Pass &C, Tally &T) {
    Tally RT;
    RT.Execs = T.RecExecs;
    std::vector<Task> Work;
    Work.push_back({{In, SymProb::concrete(Rational(1))},
                    {{&Arm.Then, 0, Arm.Then.size()}},
                    C.Dead != nullptr});
    ArmEntry E;
    for (bool Root = true; !Work.empty(); Root = false) {
      Task Tk = std::move(Work.back());
      Work.pop_back();
      if (!exec(Tk, C, RT, Work))
        continue;
      E.InPlace = Root;
      ArmOutcome &O = E.Outs.emplace_back();
      for (uint32_t Pos : AI.WritePos) {
        BlockPtr &B = O.Blocks.emplace_back(Tk.B.Vars.block(AI.Keys[Pos]));
        if (Arena)
          Arena->canon(T.Lane, B);
      }
      O.W = std::move(Tk.B.W);
      O.Still = Tk.Still;
    }
    E.Err = std::move(RT.Err);
    if (RT.Execs)
      for (uint32_t I = 0; I < AI.ProfSlots.size(); ++I)
        if (uint64_t &N = RT.Execs[AI.ProfSlots[I]]) {
          E.ProfExecs.emplace_back(I, N);
          N = 0;
        }
    return E;
  }

  /// Applies memoized arm run \p E to \p Tk. As the arm run itself does, a
  /// run that never forked continues \p Tk in place (true); otherwise each
  /// outcome becomes a successor pushed so that \p Work pops them in the
  /// order the run finished them (false).
  bool replay(const ArmInfo &AI, const ArmEntry &E, Task &Tk, Tally &T,
              std::vector<Task> &Work) {
    if (T.Execs)
      for (const auto &[Stmt, Count] : E.ProfExecs)
        T.Execs[AI.ProfSlots[Stmt]] += Count;
    if (!E.Err.isZero())
      T.Err += times(Tk.B.W, E.Err);
    auto Install = [&](Env &V, const ArmOutcome &O) {
      for (size_t I = 0; I < AI.WritePos.size(); ++I)
        V.setBlock(AI.Keys[AI.WritePos[I]], O.Blocks[I]);
    };
    if (E.InPlace) {
      Install(Tk.B.Vars, E.Outs[0]);
      Tk.Still = Tk.Still && E.Outs[0].Still;
      return true;
    }
    for (size_t I = E.Outs.size(); I-- > 0;) {
      SymProb W = times(Tk.B.W, E.Outs[I].W);
      if (W.isZero())
        continue;
      Task NT{{I ? Tk.B.Vars : std::move(Tk.B.Vars), std::move(W)}, Tk.K,
              false};
      Install(NT.B.Vars, E.Outs[I]);
      Work.push_back(std::move(NT));
    }
    return false;
  }

  /// Runs \p S on \p Tk through the general evaluator: one successor task
  /// per outcome of nonzero weight, failures to T.Err.
  void fork(const PStmt &S, Task &Tk, Tally &T, std::vector<Task> &Work) {
    if (S.Kind == PStmtKind::If || S.Kind == PStmtKind::Observe ||
        S.Kind == PStmtKind::Assert) {
      splitCond(*S.E, Tk.B, T.Err, [&](Branch NB, bool Truth) {
        Task NT{std::move(NB), Tk.K, false};
        if (decide(NT, S, Truth, T))
          Work.push_back(std::move(NT));
      });
      return;
    }
    std::vector<Outcome> Outs = eval(*S.E, Tk.B.Vars);
    for (size_t I = 0; I < Outs.size(); ++I) {
      Outcome &O = Outs[I];
      SymProb W = applyGuards(Tk.B.W.scaled(O.Prob), O.Guards);
      if (W.isZero())
        continue;
      Branch NB{outcomeEnv(Tk.B, I, Outs.size()), std::move(W)};
      if (O.Failed || (S.Kind != PStmtKind::Assign && !NB.Vars[S.Var].isTuple())) {
        T.Err += std::move(NB.W); // Failed, or a push on a non-queue value.
        continue;
      }
      if (S.Kind == PStmtKind::Assign)
        NB.Vars.mut(S.Var) = std::move(O.V);
      else
        push(S, NB.Vars, std::move(O.V));
      Work.push_back({std::move(NB), Tk.K, false});
    }
  }

  /// Applies the decided condition of an If/Observe/Assert \p S to \p Tk.
  /// False when the branch ends: a failed observe drops its mass, a failed
  /// assert sends it to the error mass.
  static bool decide(Task &Tk, const PStmt &S, bool Truth, Tally &T) {
    if (S.Kind == PStmtKind::If) {
      const std::vector<PStmtPtr> &Block = Truth ? S.Then : S.Else;
      if (!Block.empty())
        Tk.K.push_back({&Block, 0, Block.size()});
      return true;
    }
    if (!Truth && S.Kind == PStmtKind::Assert)
      T.Err += std::move(Tk.B.W);
    return Truth;
  }

  /// Notes that \p Tk changed slot \p Slot: an iteration that changes a
  /// slot live at its Repeat's merge is not a fixpoint.
  static void touch(Task &Tk, const Pass &C, unsigned Slot) {
    if (Tk.Still && !(*C.Dead)[Slot])
      Tk.Still = false;
  }

  static void write(Task &Tk, const Pass &C, unsigned Slot, PsiValue X) {
    if (Tk.Still && Tk.B.Vars[Slot] != X)
      touch(Tk, C, Slot);
    Tk.B.Vars.mut(Slot) = std::move(X);
  }

  /// Evaluates \p Cond on \p B through the general evaluator, emitting
  /// (branch, truth) pairs. Symbolic scalar conditions split on [E != 0] /
  /// [E == 0]; failures go to \p Err.
  template <typename Fn>
  void splitCond(const PExpr &Cond, Branch &B, SymProb &Err, Fn Emit) {
    std::vector<Outcome> Outs = eval(Cond, B.Vars);
    for (size_t I = 0; I < Outs.size(); ++I) {
      Outcome &O = Outs[I];
      SymProb W = applyGuards(B.W.scaled(O.Prob), O.Guards);
      if (W.isZero())
        continue;
      Branch NB{outcomeEnv(B, I, Outs.size()), std::move(W)};
      if (O.Failed || !O.V.isScalar()) {
        Err += std::move(NB.W); // Failed, or a tuple used as a condition.
        continue;
      }
      ops::LinResult T = ops::truth(O.V.toLinExpr());
      if (T.K == ops::LinResult::Kind::Value) {
        Emit(std::move(NB), !T.V.isZero());
        continue;
      }
      Branch TrueB = NB;
      TrueB.W = TrueB.W.restricted(T.C);
      if (!TrueB.W.isZero())
        Emit(std::move(TrueB), true);
      NB.W = NB.W.restricted(T.C.negated());
      if (!NB.W.isZero())
        Emit(std::move(NB), false);
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
        LinExpr X = O.V.toLinExpr();
        ops::append(ops::truth(X), std::move(O), Out, /*Negate=*/true);
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
        O.V = PsiValue(
            Rational(static_cast<int64_t>(std::as_const(O.V).elems().size())));
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
          const PsiValue::Tuple &Elems = std::as_const(T.V).elems();
          if (Idx < 0 || Idx >= static_cast<int64_t>(Elems.size())) {
            Out.push_back(
                Outcome::failCombined("tuple index out of range", T, I));
            continue;
          }
          Outcome O;
          O.V = Elems[Idx];
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
        if (!T.V.isTuple() || E.Index >= std::as_const(T.V).elems().size()) {
          Out.push_back(Outcome::fail("tuple projection out of range"));
          continue;
        }
        // Copy the element out before assigning: T.V's variant destroys
        // the tuple vector first, which would free the element in place.
        PsiValue Elem = std::as_const(T.V).elems()[E.Index];
        T.V = std::move(Elem);
        Out.push_back(std::move(T));
      }
      return Out;
    }
    }
    return {Outcome::fail("unknown expression")};
  }

  std::vector<Outcome> evalBin(const PExpr &E, const Env &Vars) {
    // Operators take scalars: a tuple operand fails.
    auto operand = [&](const PExpr &X) {
      std::vector<Outcome> Outs = eval(X, Vars);
      for (Outcome &O : Outs)
        if (!O.Failed && !O.V.isScalar()) {
          O.Failed = true;
          O.FailReason = "scalar operator on a tuple";
        }
      return Outs;
    };
    return ops::applyOutcomes(
        E.BinOp, operand(*E.Ops[0]), [&] { return operand(*E.Ops[1]); },
        Outcome::combined);
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
      std::optional<PsiValue> Tmp;
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
      if (int64_t I; concreteInt(E, Vars, I)) {
        Out = PsiValue(Rational(I));
        return true;
      }
      Rational R;
      if (!concreteScalar(E, Vars, R))
        return false;
      Out = PsiValue(std::move(R));
      return true;
    }
    }
  }

  /// concreteScalar's value of \p E when every operand on its way is a
  /// small integer and no step overflows (conditions, ports, lengths and
  /// counters), in int64 arithmetic; false declines to concreteScalar.
  bool concreteInt(const PExpr &E, const Env &Vars, int64_t &Out) {
    auto Small = [&](const Rational &R) {
      if (!R.isInteger() || !R.num().isSmall())
        return false;
      Out = R.num().getSmall();
      return true;
    };
    switch (E.Kind) {
    case PExprKind::Const:
      return Small(E.ConstVal);
    case PExprKind::Param:
      return E.Index < P.ParamValues.size() && P.ParamValues[E.Index] &&
             Small(*P.ParamValues[E.Index]);
    case PExprKind::Var:
    case PExprKind::TupleGet:
    case PExprKind::Index: {
      std::optional<PsiValue> Tmp;
      const PsiValue *V = concreteRef(E, Vars, Tmp);
      return V && V->isRational() && Small(V->rational());
    }
    case PExprKind::Len: {
      std::optional<PsiValue> Tmp;
      const PsiValue *T = concreteRef(*E.Ops[0], Vars, Tmp);
      if (!T || !T->isTuple())
        return false;
      Out = static_cast<int64_t>(T->elems().size());
      return true;
    }
    case PExprKind::UnOp:
      if (!concreteInt(*E.Ops[0], Vars, Out))
        return false;
      if (E.UnOp == UnOpKind::Not)
        Out = Out == 0;
      else if (Out == INT64_MIN)
        return false;
      else
        Out = -Out;
      return true;
    case PExprKind::BinOp:
      break;
    default: // Flip, UniformInt, Tuple.
      return false;
    }
    // Rational quotients are concreteScalar's; the right operand of
    // `and` / `or` is evaluated only where the left one does not decide.
    int64_t L, R;
    if (E.BinOp == BinOpKind::Div || !concreteInt(*E.Ops[0], Vars, L))
      return false;
    if (ops::isLogical(E.BinOp) && ops::decidedByLhs(E.BinOp, L != 0)) {
      Out = L != 0;
      return true;
    }
    if (!concreteInt(*E.Ops[1], Vars, R))
      return false;
    auto X = ops::applyInt(E.BinOp, L, R);
    if (!X)
      return false;
    Out = *X;
    return true;
  }

  /// A Var / TupleGet / Index path resolved to the value it names inside
  /// \p Vars, so reading one queue element copies nothing else; any other
  /// expression is evaluated into \p Tmp. nullptr declines.
  const PsiValue *concreteRef(const PExpr &E, const Env &Vars,
                              std::optional<PsiValue> &Tmp) {
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
      if (!T || !T->isTuple())
        return nullptr;
      int64_t Idx;
      if (!concreteInt(*E.Ops[1], Vars, Idx)) {
        Rational I;
        if (!concreteScalar(*E.Ops[1], Vars, I) || !I.isInteger() ||
            !I.num().isSmall())
          return nullptr;
        Idx = I.num().getSmall();
      }
      if (Idx < 0 || Idx >= static_cast<int64_t>(T->elems().size()))
        return nullptr;
      return &T->elems()[Idx];
    }
    default:
      return concreteValue(E, Vars, Tmp.emplace()) ? &*Tmp : nullptr;
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
      std::optional<PsiValue> Tmp;
      const PsiValue *V = concreteRef(E, Vars, Tmp);
      if (!V || !V->isRational())
        return false;
      Out = V->rational();
      return true;
    }
    case PExprKind::Len: {
      std::optional<PsiValue> Tmp;
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
    // As in evalBin: the right operand of `and` / `or` is evaluated only
    // where the left one does not decide the result.
    if (ops::isLogical(Op) && ops::decidedByLhs(Op, !L.isZero())) {
      Out = Rational(L.isZero() ? 0 : 1);
      return true;
    }
    Rational R;
    if (!concreteScalar(*E.Ops[1], Vars, R))
      return false;
    auto X = ops::applyRational(Op, L, R);
    if (!X)
      return false;
    Out = std::move(*X);
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
        ops::LinResult T = ops::truth(O.V.toLinExpr());
        if (T.K == ops::LinResult::Kind::Split)
          Res.QueryMass += W.restricted(T.C);
        else if (!T.V.isZero())
          Res.QueryMass += W;
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
