//===- psi/PsiLiveness.cpp - Dead slots at PSI IR merge points ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "psi/PsiLiveness.h"

using namespace bayonet;

namespace {

/// Live slots, one flag per frame slot.
using SlotSet = std::vector<bool>;

void addUses(const PExpr &E, SlotSet &Live) {
  if (E.Kind == PExprKind::Var)
    Live[E.Index] = true;
  for (const PExprPtr &Op : E.Ops)
    addUses(*Op, Live);
}

void unite(SlotSet &Into, const SlotSet &From) {
  for (size_t I = 0; I < Into.size(); ++I)
    if (From[I])
      Into[I] = true;
}

std::vector<unsigned> deadSlots(const SlotSet &Live) {
  std::vector<unsigned> Dead;
  for (size_t I = 0; I < Live.size(); ++I)
    if (!Live[I])
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
      unite(Next, Always);
      if (Next == H)
        return H;
      H = std::move(Next);
    }
  }

  void stmt(const PStmt &S, SlotSet &Live) {
    switch (S.Kind) {
    case PStmtKind::Assign:
      Live[S.Var] = false;
      addUses(*S.E, Live);
      return;
    case PStmtKind::PushBack:
    case PStmtKind::PushFront:
      // The queue is read (capacity, non-queue failure) and updated.
      Live[S.Var] = true;
      addUses(*S.E, Live);
      return;
    case PStmtKind::PopFront:
      Live[S.Var2] = false;
      Live[S.Var] = true;
      return;
    case PStmtKind::Observe:
    case PStmtKind::Assert:
      addUses(*S.E, Live);
      return;
    case PStmtKind::If: {
      SlotSet Else = Live;
      block(S.Then, Live);
      block(S.Else, Else);
      unite(Live, Else);
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
        unite(Live, In);
        Live[Arm->Var] = true;
      }
      if (S.Sched == SchedulerKind::RoundRobin)
        Live[S.Var] = true;
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

PsiLiveness bayonet::computeMergeLiveness(const PsiProgram &P) {
  SlotSet Live(P.VarNames.size(), false);
  if (P.Result)
    addUses(*P.Result, Live);
  LivenessPass Pass;
  Pass.block(P.Body, Live);
  return std::move(Pass.Table);
}
