//===- tests/BigIntTest.cpp - BigInt unit and property tests --------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bayonet;

namespace {

BigInt big(const char *Text) {
  BigInt V;
  EXPECT_TRUE(BigInt::fromString(Text, V)) << Text;
  return V;
}

// 2^K, built by doubling so it goes through the arithmetic under test.
BigInt pow2(int K) {
  BigInt V(1);
  for (int I = 0; I < K; ++I)
    V = V + V;
  return V;
}

// The tier the canonical form must use, read off the exported limbs: int64
// range -> small; magnitude below 2^128 -> inline; otherwise heap.
void expectCanonical(const BigInt &V) {
  int Sign;
  std::vector<uint32_t> Mag;
  V.toMag(Sign, Mag);
  const bool FitsInt64 =
      Mag.size() < 2 || (Mag.size() == 2 && (Mag[1] < 0x80000000u ||
                                             (Sign < 0 && Mag[1] == 0x80000000u &&
                                              Mag[0] == 0)));
  EXPECT_EQ(V.isSmall(), FitsInt64) << V.toString();
  EXPECT_EQ(V.fits128(), Mag.size() <= 4) << V.toString();
  EXPECT_TRUE(Mag.empty() || Mag.back() != 0) << V.toString();
  EXPECT_EQ(Sign, V.sign()) << V.toString();
}

TEST(BigIntTest, DefaultIsZero) {
  BigInt Z;
  EXPECT_TRUE(Z.isZero());
  EXPECT_FALSE(Z.isNegative());
  EXPECT_EQ(Z.toString(), "0");
}

TEST(BigIntTest, SmallArithmetic) {
  BigInt A(7), B(-3);
  EXPECT_EQ((A + B).toString(), "4");
  EXPECT_EQ((A - B).toString(), "10");
  EXPECT_EQ((A * B).toString(), "-21");
  EXPECT_EQ((A / B).toString(), "-2");
  EXPECT_EQ((A % B).toString(), "1");
}

TEST(BigIntTest, NegationOfInt64Min) {
  BigInt A(INT64_MIN);
  BigInt N = -A;
  EXPECT_FALSE(N.isNegative());
  EXPECT_EQ(N.toString(), "9223372036854775808");
  EXPECT_EQ((-N).toString(), std::to_string(INT64_MIN));
  EXPECT_EQ(-(-N), N);
}

TEST(BigIntTest, OverflowPromotesToBig) {
  BigInt A(INT64_MAX);
  BigInt B = A + BigInt(1);
  EXPECT_FALSE(B.isSmall());
  EXPECT_EQ(B.toString(), "9223372036854775808");
  EXPECT_EQ((B - BigInt(1)).toString(), std::to_string(INT64_MAX));
  EXPECT_TRUE((B - BigInt(1)).isSmall());
}

TEST(BigIntTest, LargeMultiplication) {
  BigInt A, B;
  ASSERT_TRUE(BigInt::fromString("123456789012345678901234567890", A));
  ASSERT_TRUE(BigInt::fromString("987654321098765432109876543210", B));
  EXPECT_EQ((A * B).toString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  BigInt V;
  EXPECT_FALSE(BigInt::fromString("", V));
  EXPECT_FALSE(BigInt::fromString("-", V));
  EXPECT_FALSE(BigInt::fromString("12a3", V));
  EXPECT_FALSE(BigInt::fromString("+5", V));
  EXPECT_TRUE(BigInt::fromString("-987654321987654321987654321", V));
  EXPECT_EQ(V.toString(), "-987654321987654321987654321");
}

TEST(BigIntTest, ComparisonOrdering) {
  BigInt Big;
  ASSERT_TRUE(BigInt::fromString("99999999999999999999999999", Big));
  EXPECT_LT(BigInt(5), Big);
  EXPECT_LT(-Big, BigInt(-5));
  EXPECT_LT(-Big, Big);
  EXPECT_EQ(BigInt::compare(Big, Big), 0);
  EXPECT_GE(Big, Big);
}

TEST(BigIntTest, DivModIdentityOnRandomValues) {
  // Property: for random a, b != 0: a == (a/b)*b + a%b and |a%b| < |b|.
  Xoshiro Rng(42);
  for (int Iter = 0; Iter < 500; ++Iter) {
    BigInt A(static_cast<int64_t>(Rng.next()));
    BigInt B(static_cast<int64_t>(Rng.next() | 1));
    // Mix in some genuinely large operands.
    if (Iter % 3 == 0)
      A = A * A * A;
    if (Iter % 5 == 0)
      B = B * B;
    BigInt Q, R;
    BigInt::divMod(A, B, Q, R);
    EXPECT_EQ(Q * B + R, A) << "a=" << A.toString() << " b=" << B.toString();
    EXPECT_LT(R.abs(), B.abs());
    // C semantics: remainder has the sign of the dividend (or is zero).
    if (!R.isZero()) {
      EXPECT_EQ(R.isNegative(), A.isNegative());
    }
  }
}

TEST(BigIntTest, MulDivRoundTripLarge) {
  Xoshiro Rng(7);
  for (int Iter = 0; Iter < 200; ++Iter) {
    BigInt A(static_cast<int64_t>(Rng.next() >> 8));
    BigInt B(static_cast<int64_t>(Rng.next() >> 16) + 1);
    BigInt C = A * A * B;
    EXPECT_EQ(C / (A.isZero() ? BigInt(1) : A),
              A.isZero() ? BigInt(0) : A * B);
  }
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).toString(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).toString(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).toString(), "0");
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(-7)).toString(), "7");
  BigInt A, B;
  ASSERT_TRUE(BigInt::fromString("123456789012345678901234567890", A));
  ASSERT_TRUE(BigInt::fromString("987654321098765432109876543210", B));
  EXPECT_EQ(BigInt::gcd(A, B).toString(), "9000000000900000000090");
}

TEST(BigIntTest, ToStringRoundTrip) {
  Xoshiro Rng(99);
  for (int Iter = 0; Iter < 200; ++Iter) {
    BigInt A(static_cast<int64_t>(Rng.next()));
    BigInt B = A * A * A * A;
    BigInt Back;
    ASSERT_TRUE(BigInt::fromString(B.toString(), Back));
    EXPECT_EQ(B, Back);
  }
}

TEST(BigIntTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(1000).toDouble(), 1000.0);
  BigInt A;
  ASSERT_TRUE(BigInt::fromString("10000000000000000000", A));
  EXPECT_DOUBLE_EQ(A.toDouble(), 1e19);
  EXPECT_DOUBLE_EQ((-A).toDouble(), -1e19);
}

TEST(BigIntTest, HashEqualValuesAgree) {
  BigInt A = BigInt(INT64_MAX) + BigInt(12345);
  BigInt B = BigInt(12345) + BigInt(INT64_MAX);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  // Big value brought back into small range hashes like a native small.
  BigInt C = A - BigInt(12345);
  EXPECT_EQ(C.hash(), BigInt(INT64_MAX).hash());
}

TEST(BigIntTest, DivisionSignMatrix) {
  // All four sign combinations, C truncation semantics.
  EXPECT_EQ((BigInt(7) / BigInt(2)).toString(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).toString(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).toString(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).toString(), "3");
  EXPECT_EQ((BigInt(7) % BigInt(2)).toString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).toString(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).toString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).toString(), "-1");
}

TEST(BigIntTest, PaperDenominatorArithmetic) {
  // The Section 2 congestion probability: 30378810105265/67706637778944.
  BigInt Num, Den;
  ASSERT_TRUE(BigInt::fromString("30378810105265", Num));
  ASSERT_TRUE(BigInt::fromString("67706637778944", Den));
  EXPECT_EQ(BigInt::gcd(Num, Den).toString(), "1");
  EXPECT_NEAR(Num.toDouble() / Den.toDouble(), 0.4487, 1e-4);
}


TEST(BigIntTest, CompoundOpsInPlaceSmallPath) {
  BigInt A(10);
  A += BigInt(32);
  EXPECT_EQ(A.toString(), "42");
  EXPECT_TRUE(A.isSmall());
  A -= BigInt(50);
  EXPECT_EQ(A.toString(), "-8");
  A *= BigInt(-6);
  EXPECT_EQ(A.toString(), "48");
  EXPECT_TRUE(A.isSmall());
  // Self-aliasing: the in-place path must read B before writing *this.
  A += A;
  EXPECT_EQ(A.toString(), "96");
  A -= A;
  EXPECT_TRUE(A.isZero());
  BigInt M(7);
  M *= M;
  EXPECT_EQ(M.toString(), "49");
}

TEST(BigIntTest, CompoundOpsOverflowFallsBackToBig) {
  BigInt A(INT64_MAX);
  A += BigInt(1);
  EXPECT_FALSE(A.isSmall());
  EXPECT_EQ(A.toString(), "9223372036854775808");
  A -= BigInt(1);
  EXPECT_EQ(A.toString(), "9223372036854775807");
  BigInt B(INT64_MIN);
  B -= BigInt(1);
  EXPECT_EQ(B.toString(), "-9223372036854775809");
  BigInt C(1);
  for (int I = 0; I < 4; ++I)
    C *= BigInt(INT64_MAX);
  EXPECT_EQ(C, BigInt(INT64_MAX) * BigInt(INT64_MAX) * BigInt(INT64_MAX) *
                   BigInt(INT64_MAX));
  // Mixed small/big compound ops route through the full operation.
  BigInt D(5);
  D += C;
  EXPECT_EQ(D, C + BigInt(5));
}

// Every tier edge: the int64 limits, 2^63 either side, 2^64, 2^96, 2^127,
// 2^128 - 1 (the widest inline value), 2^128 and 2^128 + 1 (the narrowest
// heap values).
std::vector<BigInt> tierEdges() {
  std::vector<BigInt> Out;
  const BigInt P63 = pow2(63), P64 = pow2(64), P127 = pow2(127),
               P128 = pow2(128);
  for (const BigInt &V :
       {BigInt(INT64_MAX), BigInt(INT64_MIN), P63, P64, pow2(96), P127,
        P128 - BigInt(1), P128, P128 + BigInt(1)}) {
    Out.push_back(V);
    Out.push_back(-V);
  }
  return Out;
}

TEST(BigIntTest, TierEdgesAreCanonical) {
  EXPECT_EQ(pow2(64).toString(), "18446744073709551616");
  EXPECT_EQ((pow2(128) - BigInt(1)).toString(),
            "340282366920938463463374607431768211455");
  for (const BigInt &V : tierEdges()) {
    expectCanonical(V);
    // Parsing, limb export and negation land in the same tier.
    BigInt Parsed = big(V.toString().c_str());
    EXPECT_EQ(Parsed, V);
    expectCanonical(Parsed);
    int Sign;
    std::vector<uint32_t> Mag;
    V.toMag(Sign, Mag);
    BigInt Back = BigInt::fromMag(Sign, Mag);
    EXPECT_EQ(Back, V);
    expectCanonical(Back);
    expectCanonical(-V);
    EXPECT_EQ(-(-V), V);
  }
  EXPECT_TRUE(BigInt(INT64_MAX).isSmall());
  EXPECT_FALSE(pow2(63).isSmall());
  EXPECT_TRUE((-pow2(63)).isSmall());
  EXPECT_TRUE((pow2(128) - BigInt(1)).fits128());
  EXPECT_FALSE(pow2(128).fits128());
}

TEST(BigIntTest, OperationsAcrossTiers) {
  const BigInt Max(INT64_MAX), Min(INT64_MIN), P63 = pow2(63),
      P64 = pow2(64), P127 = pow2(127), P128 = pow2(128);
  // small <-> inline.
  EXPECT_EQ(Max + BigInt(1), P63);
  EXPECT_EQ(-Min, P63);
  EXPECT_TRUE((P63 - BigInt(1)).isSmall());
  EXPECT_TRUE((-P63).isSmall());
  EXPECT_EQ(Min - BigInt(1), -(P63 + BigInt(1)));
  EXPECT_EQ(Min * BigInt(-1), P63);
  EXPECT_EQ(Min / BigInt(-1), P63);
  EXPECT_TRUE((Min % BigInt(-1)).isZero());
  EXPECT_EQ(P64 / BigInt(2), P63);
  EXPECT_TRUE((P64 / BigInt(4)).isSmall());
  EXPECT_EQ(P64 - P63 - BigInt(1), Max);
  // inline <-> heap.
  EXPECT_EQ(P64 * P64, P128);
  EXPECT_EQ(P127 + P127, P128);
  EXPECT_EQ(P127 * BigInt(-2), -P128);
  EXPECT_EQ((P128 - BigInt(1)) + BigInt(1), P128);
  EXPECT_EQ(P128 - BigInt(1) - (P128 - BigInt(2)), BigInt(1));
  EXPECT_EQ(P128 / BigInt(2), P127);
  EXPECT_EQ(P128 / P64, P64);
  EXPECT_EQ(-P128 / P63, -(P64 + P64));
  EXPECT_EQ((P128 + BigInt(5)) % P64, BigInt(5));
  EXPECT_EQ((-(P128 + BigInt(5))) % P64, BigInt(-5));
  // heap <-> small.
  EXPECT_EQ(P128 / (P127 - BigInt(1)), BigInt(2));
  EXPECT_TRUE((P128 - P128).isZero());
  EXPECT_EQ(BigInt(3) / P128, BigInt(0));
  EXPECT_EQ(BigInt(-3) % P128, BigInt(-3));
  // Comparison across all three tiers.
  EXPECT_LT(Max, P63);
  EXPECT_LT(-P63 - BigInt(1), Min);
  EXPECT_LT(P128 - BigInt(1), P128);
  EXPECT_LT(-P128, -(P128 - BigInt(1)));
  EXPECT_LT(-P128, Min);
  for (const BigInt &A : tierEdges()) {
    for (const BigInt &B : tierEdges()) {
      expectCanonical(A + B);
      expectCanonical(A - B);
      expectCanonical(A * B);
      BigInt Q, R;
      BigInt::divMod(A, B, Q, R);
      expectCanonical(Q);
      expectCanonical(R);
      EXPECT_EQ(Q * B + R, A) << A.toString() << " / " << B.toString();
      EXPECT_EQ(A + B - B, A);
      EXPECT_EQ(BigInt::compare(A, B), -BigInt::compare(B, A));
    }
  }
}

TEST(BigIntTest, GcdAcrossTiers) {
  const BigInt P64 = pow2(64), P128 = pow2(128);
  // heap with inline, small and zero.
  EXPECT_EQ(BigInt::gcd(P128 * BigInt(3), P64 * BigInt(6)),
            pow2(65) * BigInt(3));
  EXPECT_EQ(BigInt::gcd(P128 + BigInt(1), BigInt(0)), P128 + BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), -P128), P128);
  EXPECT_EQ(BigInt::gcd(P128 * BigInt(9), BigInt(-6)), BigInt(6));
  EXPECT_EQ(BigInt::gcd((P128 + BigInt(1)) * BigInt(9), BigInt(-6)),
            BigInt(3));
  // A gcd wider than one word from two heap operands.
  const BigInt G = P64 * BigInt(1000003);
  EXPECT_EQ(BigInt::gcd(G * P64 * BigInt(7), G * P64 * BigInt(11)),
            G * P64);
  EXPECT_EQ(BigInt::gcd(G * BigInt(7), -G * BigInt(11)), G);
  // The int64 edge: gcd(INT64_MIN, INT64_MIN) is 2^63, an inline value.
  EXPECT_EQ(BigInt::gcd(BigInt(INT64_MIN), BigInt(INT64_MIN)), pow2(63));
  expectCanonical(BigInt::gcd(BigInt(INT64_MIN), BigInt(INT64_MIN)));
  EXPECT_TRUE(BigInt::gcdMag128(0, 0) == 0);
  EXPECT_TRUE(BigInt::gcdMag128(static_cast<U128>(12) << 100, 18) == 6);
}

TEST(BigIntTest, WideHashFoldsLimbs) {
  // A value wider than int64 hashes by folding its 32-bit limbs from the
  // least significant one, whichever tier holds it; cache and intern
  // publication order depend on this staying fixed.
  auto fold = [](const BigInt &V) {
    int Sign;
    std::vector<uint32_t> Mag;
    V.toMag(Sign, Mag);
    size_t H = Sign < 0 ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
    for (uint32_t L : Mag)
      H = H * 0x100000001b3ULL ^ L;
    return H;
  };
  for (const BigInt &V : tierEdges()) {
    if (V.isSmall())
      continue;
    EXPECT_EQ(V.hash(), fold(V)) << V.toString();
    EXPECT_EQ(V.hash(), big(V.toString().c_str()).hash());
  }
  // Limbs spelled out by hand: 2^96 + 2^32 + 5 and 2^130 + 1.
  const BigInt A = BigInt::fromMag(1, {5, 1, 0, 1});
  EXPECT_EQ(A, pow2(96) + pow2(32) + BigInt(5));
  EXPECT_EQ(A.hash(), fold(A));
  EXPECT_EQ(A.hash(), big("79228162514264337597838917637").hash());
  const BigInt B = BigInt::fromMag(-1, {1, 0, 0, 0, 4});
  EXPECT_EQ(B, -(pow2(130) + BigInt(1)));
  EXPECT_EQ(B.hash(), fold(B));
  // Leading zero limbs trim away before the hash sees them.
  EXPECT_EQ(BigInt::fromMag(1, {5, 1, 0, 1, 0, 0}).hash(), A.hash());
}

TEST(BigIntTest, RandomizedIdentitiesAcrossTiers) {
  // Operands of 1..200 bits, so every pair of tiers meets.
  Xoshiro Rng(0x71e5);
  auto randBig = [&Rng] {
    const int Bits = 1 + static_cast<int>(Rng.nextBelow(200));
    BigInt V(0);
    for (int Done = 0; Done < Bits; Done += 32) {
      const int Take = Bits - Done < 32 ? Bits - Done : 32;
      V = V * BigInt(int64_t(1) << Take) +
          BigInt(static_cast<int64_t>(Rng.next() >> (64 - Take)));
    }
    return (Rng.next() & 1) ? -V : V;
  };
  for (int Iter = 0; Iter < 2000; ++Iter) {
    BigInt A = randBig(), B = randBig();
    if (B.isZero())
      B = BigInt(1);
    BigInt Q, R;
    BigInt::divMod(A, B, Q, R);
    expectCanonical(Q);
    expectCanonical(R);
    EXPECT_EQ(Q * B + R, A) << A.toString() << " / " << B.toString();
    EXPECT_LT(R.abs(), B.abs());
    if (!R.isZero()) {
      EXPECT_EQ(R.isNegative(), A.isNegative());
    }
    const BigInt P = A * B;
    expectCanonical(P);
    EXPECT_EQ(P / B, A);
    EXPECT_TRUE((P % B).isZero());
    const BigInt G = BigInt::gcd(A, B);
    expectCanonical(G);
    if (!G.isZero()) {
      EXPECT_TRUE((A % G).isZero());
      EXPECT_TRUE((B % G).isZero());
      EXPECT_TRUE(BigInt::gcd(A / G, B / G).isOne());
    }
  }
}

} // namespace
