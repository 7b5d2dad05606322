//===- psi/PsiIr.h - PSI-style probabilistic IR ----------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small imperative probabilistic intermediate representation standing in
/// for the PSI language of the paper's Section 4. Programs are flat
/// variable frames with expressions (arithmetic, comparisons, Bernoulli and
/// uniform draws, tuples) and statements (assignment, bounded-queue pushes
/// and pops, conditionals, loops, observe/assert, and one scheduler step
/// over queue-guarded arms). Bayonet networks are compiled into this IR by
/// translate/Translator; psi/PsiExact runs exact inference on it.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PSI_PSIIR_H
#define BAYONET_PSI_PSIIR_H

#include "lang/Ast.h" // for BinOpKind/UnOpKind/QueryKind
#include "net/NetworkSpec.h" // for SchedulerKind
#include "psi/PsiValue.h"

#include <memory>
#include <string>
#include <vector>

namespace bayonet {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class PExprKind {
  Const,      ///< A rational constant.
  Param,      ///< A symbolic parameter (by ParamTable index).
  Var,        ///< A frame variable (by slot).
  BinOp,      ///< Scalar arithmetic / comparison / boolean op.
  UnOp,       ///< Negation / logical not.
  Flip,       ///< Bernoulli draw.
  UniformInt, ///< Uniform integer draw.
  Len,        ///< Length of a tuple value.
  Index,      ///< Tuple element by computed index.
  Tuple,      ///< Tuple construction.
  TupleGet,   ///< Tuple element by constant index.
};

struct PExpr;
using PExprPtr = std::unique_ptr<PExpr>;

struct PExpr {
  PExprKind Kind;
  // Const.
  Rational ConstVal;
  // Param / Var / TupleGet index.
  unsigned Index = 0;
  // BinOp / UnOp.
  BinOpKind BinOp = BinOpKind::Add;
  UnOpKind UnOp = UnOpKind::Neg;
  // Operands (BinOp: 2; UnOp/Len/TupleGet: 1; Flip: 1; UniformInt: 2;
  // Index: 2 (tuple, index); Tuple: n).
  std::vector<PExprPtr> Ops;
};

PExprPtr pConst(Rational V);
PExprPtr pInt(int64_t V);
PExprPtr pParam(unsigned Index);
PExprPtr pVar(unsigned Slot);
PExprPtr pBin(BinOpKind Op, PExprPtr L, PExprPtr R);
PExprPtr pUn(UnOpKind Op, PExprPtr E);
PExprPtr pFlip(PExprPtr Prob);
PExprPtr pUniformInt(PExprPtr Lo, PExprPtr Hi);
PExprPtr pLen(PExprPtr Tuple);
PExprPtr pIndex(PExprPtr Tuple, PExprPtr Index);
PExprPtr pTuple(std::vector<PExprPtr> Elems);
PExprPtr pTupleGet(PExprPtr Tuple, unsigned Index);
/// Deep copy.
PExprPtr pClone(const PExpr &E);

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class PStmtKind {
  Assign,    ///< var = expr
  PushBack,  ///< queue push at back, no-op when at capacity
  PushFront, ///< queue push at front, no-op when at capacity
  PopFront,  ///< dst = queue head; removes it; runtime error when empty
  If,
  While,
  Repeat, ///< fixed-count loop (the unrolled num_steps driver)
  Observe,
  Assert,
  /// One step of a net/Scheduler over the Arm children in Then: the arms
  /// whose queue is nonempty are the enabled action slots, in order; the
  /// scheduler picks one (a draw when several can be picked) and its body
  /// runs. Nothing enabled: a no-op.
  Schedule,
  /// A Schedule child: enabled iff tuple slot Var is nonempty; Then is the
  /// body. Runs only as the chosen arm of its Schedule.
  Arm,
};

struct PStmt;
using PStmtPtr = std::unique_ptr<PStmt>;

struct PStmt {
  PStmtKind Kind;
  /// Target slot (Assign/Push*/PopFront queue, Arm queue; the σ_s slot of
  /// a roundrobin Schedule).
  unsigned Var = 0;
  unsigned Var2 = 0; ///< PopFront destination slot.
  int64_t Capacity = -1; ///< Push* capacity; -1 = unbounded.
  int64_t Count = 0;     ///< Repeat count.
  /// Schedule: the scheduler and, for Weighted, one weight per node (arms
  /// 2i and 2i+1 are node i's).
  SchedulerKind Sched = SchedulerKind::Uniform;
  std::vector<int64_t> Weights;
  PExprPtr E;            ///< Assign value / push value / condition.
  std::vector<PStmtPtr> Then;
  std::vector<PStmtPtr> Else;
  /// Source position of the Bayonet statement this lowered from (invalid
  /// for translator-synthesized glue).
  SourceLoc Loc;
  /// Profiler site for this statement, stamped by registerPsiBody.
  /// Mutable for the same reason as Stmt::ProfIndex: attribution identity,
  /// not program semantics. UINT32_MAX (Profiler::InvalidSlot) when
  /// profiling is off.
  mutable uint32_t ProfSlot = UINT32_MAX;
};

PStmtPtr sAssign(unsigned Var, PExprPtr E);
PStmtPtr sPushBack(unsigned Queue, PExprPtr E, int64_t Capacity);
PStmtPtr sPushFront(unsigned Queue, PExprPtr E, int64_t Capacity);
PStmtPtr sPopFront(unsigned Queue, unsigned Dst);
PStmtPtr sIf(PExprPtr Cond, std::vector<PStmtPtr> Then,
             std::vector<PStmtPtr> Else = {});
PStmtPtr sWhile(PExprPtr Cond, std::vector<PStmtPtr> Body);
PStmtPtr sRepeat(int64_t Count, std::vector<PStmtPtr> Body);
PStmtPtr sObserve(PExprPtr Cond);
PStmtPtr sAssert(PExprPtr Cond);
/// A Schedule over \p Arms; \p StateSlot is σ_s (read only by RoundRobin).
PStmtPtr sSchedule(SchedulerKind Kind, std::vector<int64_t> Weights,
                   unsigned StateSlot, std::vector<PStmtPtr> Arms);
PStmtPtr sArm(unsigned Queue, std::vector<PStmtPtr> Body);

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// Where a slot lives in psi/PsiExact's environment blocks.
struct SlotHome {
  unsigned Block = 0, Offset = 0;
};

/// A complete PSI IR program: a variable frame, a body, and a result
/// expression evaluated on each surviving final environment.
struct PsiProgram {
  std::vector<std::string> VarNames;
  /// Optional grouping of the slots into psi/PsiExact's shared
  /// environment blocks, one entry per slot, each block's offsets counting
  /// up from 0 in slot order. Slots written together belong together,
  /// since a write copies its whole block. Empty (or malformed) = one
  /// block per slot.
  std::vector<SlotHome> Layout;
  std::vector<PStmtPtr> Body;
  PExprPtr Result;
  QueryKind Kind = QueryKind::Probability;
  ParamTable Params;
  std::vector<std::optional<Rational>> ParamValues;

  unsigned addVar(std::string Name) {
    VarNames.push_back(std::move(Name));
    return VarNames.size() - 1;
  }

  /// The value of parameter \p Index (binding or symbolic).
  LinExpr paramValue(unsigned Index) const {
    if (Index < ParamValues.size() && ParamValues[Index])
      return LinExpr(*ParamValues[Index]);
    return LinExpr::param(Index);
  }
};

/// Renders a program as readable PSI-style pseudo-source.
std::string printPsiProgram(const PsiProgram &P);

class Profiler;

/// Registers every statement of \p Body (recursively) as a profiler frame
/// under \p Parent and stamps PStmt::ProfSlot. The walk is deterministic
/// (body order, "#n" suffixes on same-parent label collisions), so running
/// it after a checkpoint restore re-interns the identical slots.
void registerPsiBody(Profiler &PF, uint32_t Parent,
                     const std::vector<PStmtPtr> &Body);

} // namespace bayonet

#endif // BAYONET_PSI_PSIIR_H
