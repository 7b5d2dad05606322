//===- lang/Ops.h - What the binary operators mean -------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of `+ - * / == != < <= > >= and or`, in the three
/// domains the engines evaluate in:
///
///  * int64 — a fast path that declines (nullopt) on overflow and on `/`,
///    whose result is rational;
///  * Rational — exact, declines only on division by zero;
///  * LinExpr — linear expressions over symbolic parameters: a value, a
///    constraint to split on, or the reason the operation is undefined.
///
/// It also holds the truth split of a scalar (any nonzero value is true; a
/// symbolic value splits on [x != 0] / [x == 0]) and the short-circuit rule
/// of `and` / `or`. The direct engine's node executors, PsiExact, the query
/// evaluator and the checker's constant folder all call these; none of them
/// spells an operator out itself. The printers spell operators on purpose.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_LANG_OPS_H
#define BAYONET_LANG_OPS_H

#include "lang/Ast.h"
#include "symbolic/Constraint.h"

#include <cassert>
#include <optional>
#include <vector>

namespace bayonet::ops {

/// Why an operator has no value — one string per failure. A node program
/// that hits one goes to ⊥ with it as the reason; a query that hits one is
/// unsupported with it as the reason.
inline constexpr const char *DivisionByZero = "division by zero";
inline constexpr const char *SymbolicDivisor =
    "division by a symbolic value is not supported";
inline constexpr const char *Nonlinear =
    "nonlinear arithmetic on symbolic parameters is not supported";

inline bool isArithmetic(BinOpKind Op) {
  return Op == BinOpKind::Add || Op == BinOpKind::Sub ||
         Op == BinOpKind::Mul || Op == BinOpKind::Div;
}

inline bool isLogical(BinOpKind Op) {
  return Op == BinOpKind::And || Op == BinOpKind::Or;
}

/// The short-circuit rule: whether the truth of the left operand of `and` /
/// `or` decides the result alone (a false left `and`, a true left `or`).
/// The result is then that truth, and the right operand is not evaluated.
inline bool decidedByLhs(BinOpKind Op, bool LhsTruth) {
  return LhsTruth != (Op == BinOpKind::And);
}

/// Whether comparison \p Op holds between operands whose three-way
/// comparison is \p Cmp (negative, zero or positive).
inline bool compares(BinOpKind Op, int Cmp) {
  switch (Op) {
  case BinOpKind::Eq:
    return Cmp == 0;
  case BinOpKind::Ne:
    return Cmp != 0;
  case BinOpKind::Lt:
    return Cmp < 0;
  case BinOpKind::Le:
    return Cmp <= 0;
  case BinOpKind::Gt:
    return Cmp > 0;
  default:
    assert(Op == BinOpKind::Ge && "not a comparison");
    return Cmp >= 0;
  }
}

/// \p Op on int64 operands. Declines on overflow and on `/`. `and` / `or`
/// combine the operands' truths (the caller applies the short-circuit).
inline std::optional<int64_t> applyInt(BinOpKind Op, int64_t L, int64_t R) {
  int64_t Out;
  switch (Op) {
  case BinOpKind::Add:
    return __builtin_add_overflow(L, R, &Out) ? std::nullopt
                                              : std::optional(Out);
  case BinOpKind::Sub:
    return __builtin_sub_overflow(L, R, &Out) ? std::nullopt
                                              : std::optional(Out);
  case BinOpKind::Mul:
    return __builtin_mul_overflow(L, R, &Out) ? std::nullopt
                                              : std::optional(Out);
  case BinOpKind::Div:
    return std::nullopt;
  case BinOpKind::And:
    return L != 0 && R != 0;
  case BinOpKind::Or:
    return L != 0 || R != 0;
  default:
    return compares(Op, L < R ? -1 : L > R ? 1 : 0);
  }
}

/// \p Op on exact rationals. Declines on division by zero.
inline std::optional<Rational> applyRational(BinOpKind Op, const Rational &L,
                                             const Rational &R) {
  switch (Op) {
  case BinOpKind::Add:
    return L + R;
  case BinOpKind::Sub:
    return L - R;
  case BinOpKind::Mul:
    return L * R;
  case BinOpKind::Div:
    if (R.isZero())
      return std::nullopt;
    return L / R;
  case BinOpKind::And:
    return Rational(!L.isZero() && !R.isZero() ? 1 : 0);
  case BinOpKind::Or:
    return Rational(!L.isZero() || !R.isZero() ? 1 : 0);
  default: {
    // Equality tests need no ordering: operator== is inline and cheaper
    // than Rational::compare.
    const bool Equality = Op == BinOpKind::Eq || Op == BinOpKind::Ne;
    const int Cmp = Equality ? (L == R ? 0 : 1) : Rational::compare(L, R);
    return Rational(compares(Op, Cmp) ? 1 : 0);
  }
  }
}

/// The constraint under which comparison \p Op holds: a relation of L - R
/// to 0, with `>` and `>=` through the negated difference.
inline Constraint comparison(BinOpKind Op, const LinExpr &L,
                             const LinExpr &R) {
  LinExpr D = L - R;
  switch (Op) {
  case BinOpKind::Eq:
    return Constraint(std::move(D), RelKind::EQ);
  case BinOpKind::Ne:
    return Constraint(std::move(D), RelKind::NE);
  case BinOpKind::Lt:
    return Constraint(std::move(D), RelKind::LT);
  case BinOpKind::Le:
    return Constraint(std::move(D), RelKind::LE);
  case BinOpKind::Gt:
    return Constraint(-D, RelKind::LT);
  default:
    assert(Op == BinOpKind::Ge && "not a comparison");
    return Constraint(-D, RelKind::LE);
  }
}

/// An operator's result on linear expressions.
struct LinResult {
  enum class Kind : uint8_t { Value, Split, Fail };
  Kind K = Kind::Value;
  /// Kind::Value: the result.
  LinExpr V;
  /// Kind::Split: the result is 1 where C holds and 0 where C.negated()
  /// does.
  Constraint C;
  /// Kind::Fail: why the operation is undefined (one of the strings above).
  const char *Reason = nullptr;

  static LinResult value(LinExpr V) {
    LinResult R;
    R.V = std::move(V);
    return R;
  }
  static LinResult split(Constraint C) {
    LinResult R;
    R.K = Kind::Split;
    R.C = std::move(C);
    return R;
  }
  static LinResult fail(const char *Reason) {
    LinResult R;
    R.K = Kind::Fail;
    R.Reason = Reason;
    return R;
  }
};

/// \p Op on linear expressions. On two constants this is applyRational.
/// `and` / `or` take constant operands: callers split a symbolic operand
/// with truth() first, which is where the short-circuit happens.
inline LinResult applyLin(BinOpKind Op, const LinExpr &L, const LinExpr &R) {
  if (L.isConstant() && R.isConstant()) {
    if (auto X = applyRational(Op, L.constant(), R.constant()))
      return LinResult::value(LinExpr(std::move(*X)));
    return LinResult::fail(DivisionByZero);
  }
  switch (Op) {
  case BinOpKind::Add:
    return LinResult::value(L + R);
  case BinOpKind::Sub:
    return LinResult::value(L - R);
  case BinOpKind::Mul:
    if (auto P = L.mul(R))
      return LinResult::value(std::move(*P));
    return LinResult::fail(Nonlinear);
  case BinOpKind::Div:
    if (!R.isConstant())
      return LinResult::fail(SymbolicDivisor);
    if (R.constant().isZero())
      return LinResult::fail(DivisionByZero);
    return LinResult::value(*L.div(R));
  case BinOpKind::And:
  case BinOpKind::Or:
    assert(false && "split and/or operands with truth() first");
    return LinResult::fail("and/or on an unsplit symbolic value");
  default: {
    Constraint C = comparison(Op, L, R);
    if (auto Decided = C.tryDecide())
      return LinResult::value(LinExpr(Rational(*Decided ? 1 : 0)));
    return LinResult::split(std::move(C));
  }
  }
}

/// The truth of a scalar as 0/1: decided on a constant (any nonzero value
/// is true), a split on [X != 0] / [X == 0] on a symbolic value.
inline LinResult truth(const LinExpr &X) {
  if (X.isConstant())
    return LinResult::value(LinExpr(Rational(X.constant().isZero() ? 0 : 1)));
  return LinResult::split(Constraint(X, RelKind::NE));
}

/// Appends the outcomes \p R stands for to \p Out, each a copy of \p Base
/// (which carries the operands' guards, and probability if any) with its
/// value filled in: one outcome for a value or a failure, two for a split,
/// the one guarded by R.C first. \p Negate turns a truth into its logical
/// `not`. OutcomeT has a scalar V constructible from a LinExpr, a guard
/// vector Guards, and Failed / FailReason.
template <typename OutcomeT>
void append(LinResult R, OutcomeT Base, std::vector<OutcomeT> &Out,
            bool Negate = false) {
  using ValueT = decltype(Base.V);
  switch (R.K) {
  case LinResult::Kind::Value:
    Base.V = Negate ? ValueT(LinExpr(Rational(R.V.isZero() ? 1 : 0)))
                    : ValueT(std::move(R.V));
    Out.push_back(std::move(Base));
    return;
  case LinResult::Kind::Fail:
    Base.Failed = true;
    Base.FailReason = R.Reason;
    Out.push_back(std::move(Base));
    return;
  case LinResult::Kind::Split: {
    OutcomeT True = Base;
    True.V = ValueT(LinExpr(Rational(Negate ? 0 : 1)));
    True.Guards.push_back(R.C);
    Out.push_back(std::move(True));
    Base.V = ValueT(LinExpr(Rational(Negate ? 1 : 0)));
    Base.Guards.push_back(R.C.negated());
    Out.push_back(std::move(Base));
    return;
  }
  }
}

/// A scalar value as a linear expression: a LinExpr itself, or a value
/// type with toLinExpr() (the engines' Value and PsiValue).
inline const LinExpr &linear(const LinExpr &X) { return X; }
template <typename ValueT> LinExpr linear(const ValueT &X) {
  return X.toLinExpr();
}

/// `L op R` over its operands' outcomes: the one evaluation order every
/// evaluator shares. \p Lhs holds the left operand's outcomes, each failed
/// or scalar. \p EvalRhs() returns the right operand's; it runs at most
/// once (the right operand does not depend on the left one), and not at
/// all where the short-circuit rule decides every left truth of `and` /
/// `or`. \p Combine(L, R) returns an outcome with the probability and
/// guards of both operands, failed with R's reason if R failed.
template <typename OutcomeT, typename RhsFn, typename CombineFn>
std::vector<OutcomeT> applyOutcomes(BinOpKind Op, std::vector<OutcomeT> Lhs,
                                    RhsFn EvalRhs, CombineFn Combine) {
  std::vector<OutcomeT> Out, Rhs, Truths;
  auto withRhs = [&](const OutcomeT &L) {
    if (Rhs.empty())
      Rhs = EvalRhs();
    for (const OutcomeT &R : Rhs) {
      OutcomeT Base = Combine(L, R);
      if (R.Failed)
        Out.push_back(std::move(Base));
      else if (isLogical(Op))
        append(truth(linear(R.V)), std::move(Base), Out);
      else
        append(applyLin(Op, linear(L.V), linear(R.V)), std::move(Base), Out);
    }
  };
  for (OutcomeT &L : Lhs) {
    if (L.Failed) {
      Out.push_back(std::move(L));
    } else if (!isLogical(Op)) {
      withRhs(L);
    } else {
      // Split the left operand to its truth; where that decides, it is
      // the result.
      Truths.clear();
      LinExpr X = linear(L.V);
      append(truth(X), std::move(L), Truths);
      for (OutcomeT &T : Truths) {
        if (decidedByLhs(Op, !linear(T.V).isZero()))
          Out.push_back(std::move(T));
        else
          withRhs(T);
      }
    }
  }
  return Out;
}

} // namespace bayonet::ops

#endif // BAYONET_LANG_OPS_H
