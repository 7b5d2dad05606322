//===- tests/OpsTest.cpp - Operator semantics table ------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every binary operator of lang/Ops.h over a grid of operands, in all
/// three domains: the int64 form, where it does not decline, equals the
/// Rational form; the Rational form equals the LinExpr form on constants;
/// the int64 form declines on every overflow; `/` by 0 declines in every
/// domain. Then the symbolic cases: splits, failures and the truth split.
///
//===----------------------------------------------------------------------===//

#include "lang/Ops.h"

#include <gtest/gtest.h>

#include <climits>

using namespace bayonet;

namespace {

const BinOpKind AllOps[] = {
    BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul, BinOpKind::Div,
    BinOpKind::Eq,  BinOpKind::Ne,  BinOpKind::Lt,  BinOpKind::Le,
    BinOpKind::Gt,  BinOpKind::Ge,  BinOpKind::And, BinOpKind::Or};

bool isComparison(BinOpKind Op) {
  return !ops::isArithmetic(Op) && !ops::isLogical(Op);
}

Rational q(int64_t N, int64_t D = 1) { return Rational(BigInt(N), BigInt(D)); }

/// The grid: small values of both signs, fractions, the int64 extremes,
/// and values whose products overflow int64.
std::vector<Rational> grid() {
  return {q(-2),        q(-1, 2),     q(0),         q(1, 3),
          q(1),         q(7),         q(INT64_MIN), q(INT64_MAX),
          q(1LL << 32), q(3037000500), q(-3037000500)};
}

TEST(OpsTable, ThreeDomainsAgree) {
  for (BinOpKind Op : AllOps)
    for (const Rational &L : grid())
      for (const Rational &R : grid()) {
        SCOPED_TRACE(L.toString() + " op" +
                     std::to_string(static_cast<int>(Op)) + " " +
                     R.toString());
        std::optional<Rational> X = ops::applyRational(Op, L, R);
        const bool DivByZero = Op == BinOpKind::Div && R.isZero();
        ASSERT_EQ(X.has_value(), !DivByZero);

        ops::LinResult Lin = ops::applyLin(Op, LinExpr(L), LinExpr(R));
        if (DivByZero) {
          EXPECT_EQ(Lin.K, ops::LinResult::Kind::Fail);
          EXPECT_STREQ(Lin.Reason, ops::DivisionByZero);
        } else {
          ASSERT_EQ(Lin.K, ops::LinResult::Kind::Value);
          EXPECT_EQ(Lin.V, LinExpr(*X));
        }
        if (isComparison(Op)) {
          // The comparison map decides constants as the Rational form does.
          auto Decided =
              ops::comparison(Op, LinExpr(L), LinExpr(R)).tryDecide();
          ASSERT_TRUE(Decided.has_value());
          EXPECT_EQ(*Decided, !X->isZero());
        }

        if (!L.isInteger() || !R.isInteger())
          continue;
        std::optional<int64_t> I =
            ops::applyInt(Op, L.num().getSmall(), R.num().getSmall());
        if (Op == BinOpKind::Div) {
          EXPECT_FALSE(I.has_value()); // Quotients are rational.
          continue;
        }
        // Declines exactly when the exact result leaves int64.
        const bool Fits = X->isInteger() && X->num().isSmall();
        EXPECT_EQ(I.has_value(), Fits);
        if (I) {
          EXPECT_EQ(Rational(*I), *X);
        }
      }
}

TEST(OpsTable, OverflowingPairsDecline) {
  const std::pair<int64_t, int64_t> Mul[] = {
      {INT64_MAX, 2}, {INT64_MIN, -1}, {1LL << 32, 1LL << 32},
      {3037000500, 3037000500}, {-3037000500, 3037000500}};
  for (auto [L, R] : Mul)
    EXPECT_FALSE(ops::applyInt(BinOpKind::Mul, L, R).has_value())
        << L << " * " << R;
  EXPECT_FALSE(ops::applyInt(BinOpKind::Add, INT64_MAX, 1).has_value());
  EXPECT_FALSE(ops::applyInt(BinOpKind::Sub, INT64_MIN, 1).has_value());
  EXPECT_FALSE(ops::applyInt(BinOpKind::Sub, 0, INT64_MIN).has_value());
  EXPECT_EQ(ops::applyInt(BinOpKind::Mul, 3037000499, 3037000499),
            std::optional<int64_t>(3037000499LL * 3037000499LL));
}

TEST(OpsTable, DivisionByZeroDeclinesEverywhere) {
  for (int64_t L : {int64_t(0), int64_t(5), INT64_MIN})
    EXPECT_FALSE(ops::applyInt(BinOpKind::Div, L, 0).has_value());
  EXPECT_FALSE(ops::applyRational(BinOpKind::Div, q(1, 3), q(0)));
  // A symbolic numerator over a zero divisor fails the same way.
  ops::LinResult R =
      ops::applyLin(BinOpKind::Div, LinExpr::param(0), LinExpr(q(0)));
  EXPECT_EQ(R.K, ops::LinResult::Kind::Fail);
  EXPECT_STREQ(R.Reason, ops::DivisionByZero);
}

TEST(OpsTable, ShortCircuitRule) {
  EXPECT_TRUE(ops::decidedByLhs(BinOpKind::And, false));
  EXPECT_FALSE(ops::decidedByLhs(BinOpKind::And, true));
  EXPECT_TRUE(ops::decidedByLhs(BinOpKind::Or, true));
  EXPECT_FALSE(ops::decidedByLhs(BinOpKind::Or, false));
  // Where the left truth does not decide, the result is the right truth.
  for (int64_t R : {0, 1, -4}) {
    EXPECT_EQ(ops::applyInt(BinOpKind::And, 1, R), R != 0);
    EXPECT_EQ(ops::applyInt(BinOpKind::Or, 0, R), R != 0);
  }
}

TEST(OpsTable, SymbolicOperands) {
  const LinExpr P = LinExpr::param(0), Q = LinExpr::param(1);
  auto failsWith = [](ops::LinResult R, const char *Reason) {
    return R.K == ops::LinResult::Kind::Fail &&
           std::string(R.Reason) == Reason;
  };
  EXPECT_TRUE(failsWith(ops::applyLin(BinOpKind::Mul, P, Q), ops::Nonlinear));
  EXPECT_TRUE(failsWith(ops::applyLin(BinOpKind::Div, LinExpr(q(1)), P),
                        ops::SymbolicDivisor));
  // Linear results are values.
  ops::LinResult Scaled = ops::applyLin(BinOpKind::Mul, P, LinExpr(q(3)));
  ASSERT_EQ(Scaled.K, ops::LinResult::Kind::Value);
  EXPECT_EQ(Scaled.V, P.scaled(q(3)));
  ops::LinResult Half = ops::applyLin(BinOpKind::Div, P, LinExpr(q(2)));
  ASSERT_EQ(Half.K, ops::LinResult::Kind::Value);
  EXPECT_EQ(Half.V, P.scaled(q(1, 2)));
  // A comparison whose difference is constant is decided.
  ops::LinResult Decided =
      ops::applyLin(BinOpKind::Lt, P, P + LinExpr(q(1)));
  ASSERT_EQ(Decided.K, ops::LinResult::Kind::Value);
  EXPECT_EQ(Decided.V, LinExpr(q(1)));
  // Otherwise it splits on L - R, `>` / `>=` through the negated difference.
  const std::pair<BinOpKind, Constraint> Splits[] = {
      {BinOpKind::Eq, Constraint(P - Q, RelKind::EQ)},
      {BinOpKind::Ne, Constraint(P - Q, RelKind::NE)},
      {BinOpKind::Lt, Constraint(P - Q, RelKind::LT)},
      {BinOpKind::Le, Constraint(P - Q, RelKind::LE)},
      {BinOpKind::Gt, Constraint(Q - P, RelKind::LT)},
      {BinOpKind::Ge, Constraint(Q - P, RelKind::LE)}};
  for (const auto &[Op, C] : Splits) {
    ops::LinResult R = ops::applyLin(Op, P, Q);
    ASSERT_EQ(R.K, ops::LinResult::Kind::Split);
    EXPECT_EQ(R.C, C);
  }
}

TEST(OpsTable, TruthSplit) {
  const LinExpr P = LinExpr::param(0);
  ops::LinResult T = ops::truth(P);
  ASSERT_EQ(T.K, ops::LinResult::Kind::Split);
  EXPECT_EQ(T.C, Constraint(P, RelKind::NE));
  EXPECT_EQ(T.C.negated(), Constraint(P, RelKind::EQ));
  for (const Rational &X : grid()) {
    ops::LinResult D = ops::truth(LinExpr(X));
    ASSERT_EQ(D.K, ops::LinResult::Kind::Value);
    EXPECT_EQ(D.V, LinExpr(q(X.isZero() ? 0 : 1)));
  }

  // append: a split becomes two guarded outcomes, true first; Negate is
  // logical `not`.
  struct Out {
    LinExpr V;
    std::vector<Constraint> Guards;
    bool Failed = false;
    std::string FailReason;
  };
  std::vector<Out> Outs;
  ops::append(ops::truth(P), Out{}, Outs, /*Negate=*/true);
  ASSERT_EQ(Outs.size(), 2u);
  EXPECT_EQ(Outs[0].V, LinExpr(q(0)));
  EXPECT_EQ(Outs[0].Guards, std::vector{Constraint(P, RelKind::NE)});
  EXPECT_EQ(Outs[1].V, LinExpr(q(1)));
  EXPECT_EQ(Outs[1].Guards, std::vector{Constraint(P, RelKind::EQ)});
  Outs.clear();
  ops::append(ops::applyLin(BinOpKind::Div, P, LinExpr()), Out{}, Outs);
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_TRUE(Outs[0].Failed);
  EXPECT_EQ(Outs[0].FailReason, ops::DivisionByZero);
}

} // namespace
