//===- tests/RationalTest.cpp - Rational unit and property tests ----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace bayonet;

namespace {

Rational q(int64_t N, int64_t D) { return Rational(BigInt(N), BigInt(D)); }

TEST(RationalTest, CanonicalForm) {
  EXPECT_EQ(q(2, 4).toString(), "1/2");
  EXPECT_EQ(q(-2, 4).toString(), "-1/2");
  EXPECT_EQ(q(2, -4).toString(), "-1/2");
  EXPECT_EQ(q(-2, -4).toString(), "1/2");
  EXPECT_EQ(q(0, -7).toString(), "0");
  EXPECT_EQ(q(0, -7).den().toString(), "1");
  EXPECT_EQ(q(6, 3).toString(), "2");
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ((q(1, 2) + q(1, 3)).toString(), "5/6");
  EXPECT_EQ((q(1, 2) - q(1, 3)).toString(), "1/6");
  EXPECT_EQ((q(2, 3) * q(3, 4)).toString(), "1/2");
  EXPECT_EQ((q(2, 3) / q(4, 3)).toString(), "1/2");
  EXPECT_EQ((-q(2, 3)).toString(), "-2/3");
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(q(1, 3), q(1, 2));
  EXPECT_LT(q(-1, 2), q(-1, 3));
  EXPECT_LE(q(2, 4), q(1, 2));
  EXPECT_EQ(q(2, 4), q(1, 2));
  EXPECT_GT(q(7, 8), q(6, 7));
}

TEST(RationalTest, FromString) {
  Rational R;
  EXPECT_TRUE(Rational::fromString("3/9", R));
  EXPECT_EQ(R.toString(), "1/3");
  EXPECT_TRUE(Rational::fromString("-42", R));
  EXPECT_EQ(R.toString(), "-42");
  EXPECT_FALSE(Rational::fromString("1/0", R));
  EXPECT_FALSE(Rational::fromString("1/", R));
  EXPECT_FALSE(Rational::fromString("/2", R));
  EXPECT_FALSE(Rational::fromString("a/2", R));
  EXPECT_TRUE(Rational::fromString("30378810105265/67706637778944", R));
  EXPECT_NEAR(R.toDouble(), 0.4487, 1e-4);
}

TEST(RationalTest, TruncAndFloor) {
  EXPECT_EQ(q(7, 2).truncToInteger().toString(), "3");
  EXPECT_EQ(q(-7, 2).truncToInteger().toString(), "-3");
  EXPECT_EQ(q(7, 2).floorToInteger().toString(), "3");
  EXPECT_EQ(q(-7, 2).floorToInteger().toString(), "-4");
  EXPECT_EQ(q(-6, 2).floorToInteger().toString(), "-3");
}

TEST(RationalTest, FieldAxiomsOnRandomValues) {
  Xoshiro Rng(2024);
  auto randQ = [&Rng] {
    int64_t N = static_cast<int64_t>(Rng.next() % 2001) - 1000;
    int64_t D = static_cast<int64_t>(Rng.next() % 1000) + 1;
    return Rational(BigInt(N), BigInt(D));
  };
  for (int Iter = 0; Iter < 300; ++Iter) {
    Rational A = randQ(), B = randQ(), C = randQ();
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + (-A), Rational(0));
    if (!A.isZero()) {
      EXPECT_EQ(A / A, Rational(1));
    }
    EXPECT_EQ(A - B, A + (-B));
  }
}

// Reference arithmetic straight out of the definition, in pure BigInt —
// no Rational fast paths anywhere: cross-multiply, then reduce with
// BigInt::gcd. The property tests below pit the small-int64 fast paths
// (and their overflow-promotion to the BigInt path) against this.
struct RefQ {
  BigInt N, D; // D > 0, gcd(N, D) == 1.

  static RefQ make(BigInt N, BigInt D) {
    if (D.isNegative()) {
      N = -N;
      D = -D;
    }
    if (N.isZero())
      return {BigInt(0), BigInt(1)};
    BigInt G = BigInt::gcd(N, D);
    return {N / G, D / G};
  }
  static RefQ of(const Rational &Q) { return {Q.num(), Q.den()}; }
  static RefQ add(const RefQ &A, const RefQ &B) {
    return make(A.N * B.D + B.N * A.D, A.D * B.D);
  }
  static RefQ sub(const RefQ &A, const RefQ &B) {
    return make(A.N * B.D - B.N * A.D, A.D * B.D);
  }
  static RefQ mul(const RefQ &A, const RefQ &B) {
    return make(A.N * B.N, A.D * B.D);
  }
  static RefQ div(const RefQ &A, const RefQ &B) {
    return make(A.N * B.D, A.D * B.N);
  }
  bool matches(const Rational &Q) const {
    return Q.num().toString() == N.toString() &&
           Q.den().toString() == D.toString();
  }
};

TEST(RationalTest, SmallBigBoundaryCrossings) {
  // Magnitudes chosen to straddle the INT64 overflow boundary: products
  // and cross-products of two ~2^62 components overflow int64, so every
  // operation exercises the promotion bail-out; small magnitudes keep the
  // fast path itself covered, including gcd normalization both sides.
  Xoshiro Rng(0xb0a7);
  auto randComponent = [&Rng]() -> int64_t {
    switch (Rng.next() % 4) {
    case 0: // Tiny: stays on the fast path through every op.
      return static_cast<int64_t>(Rng.next() % 64) + 1;
    case 1: // Mid: products overflow, sums do not.
      return static_cast<int64_t>(Rng.next() % (1ull << 33)) + 3;
    case 2: // Near the boundary: nearly everything overflows.
      return INT64_MAX - static_cast<int64_t>(Rng.next() % 1024);
    default: // Edge values, including INT64_MIN's magnitude.
      return static_cast<int64_t>((1ull << 63) -
                                  (Rng.next() % 3) * (Rng.next() % 2));
    }
  };
  auto randQ = [&]() -> Rational {
    int64_t N = randComponent();
    if (Rng.next() & 1)
      N = (N == INT64_MIN) ? INT64_MIN : -N;
    int64_t D = randComponent();
    if (D == INT64_MIN)
      D = INT64_MAX; // Keep the denominator positive-representable.
    return Rational(BigInt(N), BigInt(D));
  };
  for (int Iter = 0; Iter < 500; ++Iter) {
    Rational A = randQ(), B = randQ();
    RefQ RA = RefQ::of(A), RB = RefQ::of(B);
    EXPECT_TRUE(RefQ::add(RA, RB).matches(A + B));
    EXPECT_TRUE(RefQ::sub(RA, RB).matches(A - B));
    EXPECT_TRUE(RefQ::mul(RA, RB).matches(A * B));
    if (!B.isZero())
      EXPECT_TRUE(RefQ::div(RA, RB).matches(A / B));
    // Compound ops must agree with their out-of-place forms exactly.
    Rational S = A;
    S += B;
    EXPECT_EQ(S, A + B);
    S = A;
    S -= B;
    EXPECT_EQ(S, A - B);
    S = A;
    S *= B;
    EXPECT_EQ(S, A * B);
    if (!B.isZero()) {
      S = A;
      S /= B;
      EXPECT_EQ(S, A / B);
    }
    // Canonical-form invariants hold on both sides of the boundary.
    Rational P = A * B;
    EXPECT_TRUE(P.isZero() || BigInt::gcd(P.num(), P.den()).isOne());
    EXPECT_FALSE(P.den().isNegative());
  }
}

TEST(RationalTest, SmallBigBoundaryEdgeCases) {
  const int64_t Min = INT64_MIN, Max = INT64_MAX;
  // INT64_MIN numerators and magnitudes: negation in the fast paths would
  // overflow, so these must promote — and still come out canonical.
  Rational MinQ{BigInt(Min), BigInt(1)};
  EXPECT_EQ(MinQ + MinQ, Rational(BigInt(Min) + BigInt(Min), BigInt(1)));
  EXPECT_EQ(MinQ - MinQ, Rational(0));
  EXPECT_TRUE(RefQ::mul(RefQ::of(MinQ), RefQ::of(MinQ))
                  .matches(MinQ * MinQ));
  EXPECT_EQ(MinQ / MinQ, Rational(1));
  Rational MinOverMax{BigInt(Min), BigInt(Max)};
  EXPECT_TRUE(RefQ::div(RefQ::of(MinOverMax), RefQ::of(MinOverMax))
                  .matches(MinOverMax / MinOverMax));
  // Denominator sign normalization across the divide fast path.
  Rational Neg = q(1, 3) / q(-2, 5);
  EXPECT_EQ(Neg, q(-5, 6));
  EXPECT_FALSE(Neg.den().isNegative());
  // A sum whose intermediate cross products overflow but whose reduced
  // result is small again: (Max-1)/Max + 1/Max == 1.
  Rational AlmostOne{BigInt(Max - 1), BigInt(Max)};
  EXPECT_TRUE((AlmostOne + Rational(BigInt(1), BigInt(Max))).isOne());
}

TEST(RationalTest, HashConsistentWithEquality) {
  EXPECT_EQ(q(2, 4).hash(), q(1, 2).hash());
  EXPECT_EQ(q(-10, 5).hash(), Rational(-2).hash());
}

TEST(RationalTest, ProbabilityAccumulationExactness) {
  // Summing 1/3 three times is exactly one; no floating-point drift.
  Rational Third = q(1, 3);
  Rational Sum = Third + Third + Third;
  EXPECT_TRUE(Sum.isOne());
  // Geometric-style accumulation stays exact.
  Rational Total;
  Rational W(1);
  for (int I = 0; I < 20; ++I) {
    W = W * q(1, 2);
    Total += W;
  }
  EXPECT_EQ(Total, Rational(1) - W);
}

TEST(RationalTest, ToDoubleWithComponentsPastDoubleRange) {
  // 2000^120 is about 2^1316: both components overflow a double, and
  // dividing their doubles gave inf/inf = NaN.
  Rational P(1);
  for (int I = 0; I < 120; ++I)
    P *= q(1999, 2000);
  ASSERT_FALSE(P.den().fits128());
  // pow's own error is about 120 ulps of 0.9995.
  EXPECT_NEAR(P.toDouble(), std::pow(0.9995, 120), 1e-13);
  // (2^1100 + 1) / 2^1101.
  BigInt P1000(1);
  for (int I = 0; I < 1000; ++I)
    P1000 = P1000 + P1000;
  const BigInt P1100 = P1000 * BigInt(int64_t(1) << 50) *
                       BigInt(int64_t(1) << 50);
  Rational H(P1100 + BigInt(1), P1100 + P1100);
  EXPECT_DOUBLE_EQ(H.toDouble(), 0.5);
  EXPECT_DOUBLE_EQ((-H).toDouble(), -0.5);
  // A ratio far from 1 keeps its exponent: 2^100 / 3 and 3 / 2^100.
  EXPECT_DOUBLE_EQ(Rational(P1100, P1000 * BigInt(3)).toDouble(),
                   std::ldexp(1.0, 100) / 3);
  EXPECT_DOUBLE_EQ(Rational(P1000 * BigInt(3), P1100).toDouble(),
                   std::ldexp(3.0, -100));
  // Components inside a double's range divide as before.
  EXPECT_DOUBLE_EQ(q(1, 3).toDouble(), 1.0 / 3);
  EXPECT_DOUBLE_EQ(q(-7, 2).toDouble(), -3.5);
}

TEST(RationalTest, WideTierMatchesReference) {
  // Components of 1..140 bits, so operations run the int64 path, the
  // 128-bit path, its overflow bail-outs, and the limb path; each result
  // must match the pure-BigInt reference and be canonical.
  Xoshiro Rng(0x128);
  auto randBig = [&Rng](bool Positive) {
    static const int Widths[] = {8, 40, 63, 64, 65, 100, 127, 128, 129, 140};
    const int Bits =
        1 + static_cast<int>(Rng.nextBelow(Widths[Rng.nextBelow(10)]));
    BigInt V(0);
    for (int Done = 0; Done < Bits; Done += 32) {
      const int Take = Bits - Done < 32 ? Bits - Done : 32;
      V = V * BigInt(int64_t(1) << Take) +
          BigInt(static_cast<int64_t>(Rng.next() >> (64 - Take)));
    }
    if (V.isZero())
      V = BigInt(1);
    return (!Positive && (Rng.next() & 1)) ? -V : V;
  };
  // Shared factors make the gcd reductions do real work.
  const BigInt Shared[] = {BigInt(1), BigInt(6),
                           BigInt(int64_t(1) << 62) * BigInt(4),
                           BigInt(int64_t(1) << 50) * BigInt(10007)};
  auto randQ = [&] {
    const BigInt &K = Shared[Rng.nextBelow(4)];
    return Rational(randBig(false) * K, randBig(true) * K);
  };
  auto canonical = [](const Rational &X) {
    return !X.den().isNegative() && !X.den().isZero() &&
           BigInt::gcd(X.num(), X.den()).isOne();
  };
  for (int Iter = 0; Iter < 1500; ++Iter) {
    const Rational A = randQ(), B = randQ();
    const RefQ RA = RefQ::of(A), RB = RefQ::of(B);
    EXPECT_TRUE(canonical(A));
    EXPECT_TRUE(RefQ::add(RA, RB).matches(A + B));
    EXPECT_TRUE(RefQ::sub(RA, RB).matches(A - B));
    EXPECT_TRUE(RefQ::mul(RA, RB).matches(A * B));
    EXPECT_TRUE(RefQ::div(RA, RB).matches(A / B));
    EXPECT_TRUE(canonical(A + B) && canonical(A * B) && canonical(A / B));
    const int Ref = BigInt::compare(A.num() * B.den(), B.num() * A.den());
    EXPECT_EQ(Rational::compare(A, B), Ref);
    EXPECT_EQ(Rational::compare(B, A), -Ref);
    EXPECT_TRUE((A - A).isZero());
    EXPECT_EQ(Rational::compare(A, A), 0);
  }
}

} // namespace
