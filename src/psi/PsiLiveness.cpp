//===- psi/PsiLiveness.cpp - Dead slots at PSI IR merge points ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "psi/PsiLiveness.h"

#include <algorithm>
#include <cstdint>

using namespace bayonet;

namespace {

/// Live slots, one bit per frame slot, in words so that the loop-header
/// fixpoint unites and compares whole sets cheaply.
class SlotSet {
public:
  explicit SlotSet(size_t N) : Words((N + 63) / 64, 0), N(N) {}
  size_t size() const { return N; }
  bool test(size_t I) const { return Words[I / 64] >> (I % 64) & 1; }
  void set(size_t I, bool V) {
    uint64_t Bit = uint64_t(1) << (I % 64);
    Words[I / 64] = V ? Words[I / 64] | Bit : Words[I / 64] & ~Bit;
  }
  void unite(const SlotSet &O) {
    for (size_t W = 0; W < Words.size(); ++W)
      Words[W] |= O.Words[W];
  }
  friend bool operator==(const SlotSet &A, const SlotSet &B) {
    return A.Words == B.Words;
  }

private:
  std::vector<uint64_t> Words;
  size_t N;
};

/// Calls \p Use on every slot \p E reads.
template <typename Fn> void forEachUse(const PExpr &E, Fn &&Use) {
  if (E.Kind == PExprKind::Var)
    Use(E.Index);
  for (const PExprPtr &Op : E.Ops)
    forEachUse(*Op, Use);
}

void addUses(const PExpr &E, SlotSet &Live) {
  forEachUse(E, [&](unsigned Slot) { Live.set(Slot, true); });
}

std::vector<unsigned> deadSlots(const SlotSet &Live) {
  std::vector<unsigned> Dead;
  for (size_t I = 0; I < Live.size(); ++I)
    if (!Live.test(I))
      Dead.push_back(static_cast<unsigned>(I));
  return Dead;
}

class LivenessPass {
public:
  PsiLiveness Table;

  /// Turns \p Live from the live-out set of \p Body into its live-in set,
  /// recording the dead slots of every merge point inside.
  void block(const std::vector<PStmtPtr> &Body, SlotSet &Live) {
    for (auto It = Body.rbegin(); It != Body.rend(); ++It)
      stmt(**It, Live);
  }

private:
  /// Solves a loop header: the live set H at the per-iteration merge is
  /// Always ∪ live-in(Body, H). The last pass over Body runs at the
  /// fixpoint, so the nested merge points keep its dead slots.
  SlotSet loopHeader(const std::vector<PStmtPtr> &Body,
                     const SlotSet &Always) {
    SlotSet H = Always;
    for (;;) {
      SlotSet Next = H;
      block(Body, Next);
      Next.unite(Always);
      if (Next == H)
        return H;
      H = std::move(Next);
    }
  }

  void stmt(const PStmt &S, SlotSet &Live) {
    switch (S.Kind) {
    case PStmtKind::Assign:
      Live.set(S.Var, false);
      addUses(*S.E, Live);
      return;
    case PStmtKind::PushBack:
    case PStmtKind::PushFront:
      // The queue is read (capacity, non-queue failure) and updated.
      Live.set(S.Var, true);
      addUses(*S.E, Live);
      return;
    case PStmtKind::PopFront:
      Live.set(S.Var2, false);
      Live.set(S.Var, true);
      return;
    case PStmtKind::Observe:
    case PStmtKind::Assert:
      addUses(*S.E, Live);
      return;
    case PStmtKind::If: {
      SlotSet Else = Live;
      block(S.Then, Live);
      block(S.Else, Else);
      Live.unite(Else);
      addUses(*S.E, Live);
      return;
    }
    case PStmtKind::Schedule: {
      // Every arm's queue is read (enabledness, non-queue failure) and so
      // is σ_s; when no arm is enabled the statement is a no-op, so the
      // live-out set flows through too.
      SlotSet Out = Live;
      for (const PStmtPtr &Arm : S.Then) {
        SlotSet In = Out;
        block(Arm->Then, In);
        Live.unite(In);
        Live.set(Arm->Var, true);
      }
      if (S.Sched == SchedulerKind::RoundRobin)
        Live.set(S.Var, true);
      return;
    }
    case PStmtKind::Arm:
      return; // Handled by its Schedule.
    case PStmtKind::Repeat: {
      SlotSet H = loopHeader(S.Then, Live);
      Table[&S].Iter = deadSlots(H);
      if (S.Count > 0) {
        // The body runs at least once: the live-in set is its live-in at
        // the fixpoint header.
        Live = std::move(H);
        block(S.Then, Live);
      }
      return;
    }
    case PStmtKind::While: {
      MergeDeadSlots &Dead = Table[&S];
      Dead.Exit = deadSlots(Live);
      addUses(*S.E, Live);
      Live = loopHeader(S.Then, Live);
      Dead.Iter = deadSlots(Live);
      return;
    }
    }
  }
};

} // namespace

namespace {

/// Appends every slot \p Body may read to \p U.Reads and every slot it
/// may write to \p U.Writes, as the liveness pass counts them.
void collectUses(const std::vector<PStmtPtr> &Body, BodyUses &U) {
  auto Read = [&](unsigned Slot) { U.Reads.push_back(Slot); };
  for (const PStmtPtr &S : Body) {
    if (S->E)
      forEachUse(*S->E, Read);
    switch (S->Kind) {
    case PStmtKind::Assign:
      U.Writes.push_back(S->Var);
      break;
    case PStmtKind::PushBack:
    case PStmtKind::PushFront:
      Read(S->Var);
      U.Writes.push_back(S->Var);
      break;
    case PStmtKind::PopFront:
      Read(S->Var);
      U.Writes.push_back(S->Var);
      U.Writes.push_back(S->Var2);
      break;
    case PStmtKind::Schedule:
      for (const PStmtPtr &Arm : S->Then)
        Read(Arm->Var);
      if (S->Sched == SchedulerKind::RoundRobin) {
        Read(S->Var);
        U.Writes.push_back(S->Var);
      }
      break;
    default:
      break;
    }
    collectUses(S->Then, U);
    collectUses(S->Else, U);
  }
}

} // namespace

BodyUses bayonet::computeBodyUses(const std::vector<PStmtPtr> &Body) {
  BodyUses U;
  collectUses(Body, U);
  for (std::vector<unsigned> *V : {&U.Reads, &U.Writes}) {
    std::sort(V->begin(), V->end());
    V->erase(std::unique(V->begin(), V->end()), V->end());
  }
  return U;
}

PsiLiveness bayonet::computeMergeLiveness(const PsiProgram &P) {
  SlotSet Live(P.VarNames.size());
  if (P.Result)
    addUses(*P.Result, Live);
  LivenessPass Pass;
  Pass.block(P.Body, Live);
  return std::move(Pass.Table);
}
