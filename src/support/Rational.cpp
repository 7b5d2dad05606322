//===- support/Rational.cpp - Exact rational numbers ---------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <cmath>

using namespace bayonet;

namespace {

/// Sign and 128-bit magnitude of a component that fits128().
struct Mag {
  int S;
  U128 M;
  explicit Mag(const BigInt &V) : S(V.sign()), M(V.mag128()) {}
};

bool allFit128(const Rational &A, const Rational &B) {
  return A.num().fits128() && A.den().fits128() && B.num().fits128() &&
         B.den().fits128();
}

/// X * Y, or false when the product needs more than 128 bits.
bool mul128(U128 X, U128 Y, U128 &Out) {
  return !__builtin_mul_overflow(X, Y, &Out);
}

/// Three-way comparison of the 256-bit products A * B and C * D.
int cmpProducts(U128 A, U128 B, U128 C, U128 D) {
  auto mul256 = [](U128 X, U128 Y, U128 &Hi, U128 &Lo) {
    const uint64_t X0 = static_cast<uint64_t>(X), X1 = X >> 64;
    const uint64_t Y0 = static_cast<uint64_t>(Y), Y1 = Y >> 64;
    const U128 P00 = static_cast<U128>(X0) * Y0;
    const U128 P01 = static_cast<U128>(X0) * Y1;
    const U128 P10 = static_cast<U128>(X1) * Y0;
    const U128 Mid = (P00 >> 64) + static_cast<uint64_t>(P01) +
                     static_cast<uint64_t>(P10);
    Lo = Mid << 64 | static_cast<uint64_t>(P00);
    Hi = static_cast<U128>(X1) * Y1 + (P01 >> 64) + (P10 >> 64) + (Mid >> 64);
  };
  U128 H1 = 0, L1 = 0, H2 = 0, L2 = 0;
  mul256(A, B, H1, L1);
  mul256(C, D, H2, L2);
  if (H1 != H2)
    return H1 < H2 ? -1 : 1;
  return L1 < L2 ? -1 : L1 > L2 ? 1 : 0;
}

} // namespace

Rational::Rational(BigInt N, BigInt D) : Num(std::move(N)), Den(std::move(D)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  // Small fast path: int64 gcd instead of BigInt's division loop. The
  // INT64_MIN magnitudes are excluded so the negations below cannot
  // overflow; they take the general path.
  if (isSmallRepr()) {
    int64_t N = Num.getSmall(), D = Den.getSmall();
    if (N != INT64_MIN && D != INT64_MIN) {
      if (N == 0) {
        Den = BigInt(1);
        return;
      }
      if (D < 0) {
        N = -N;
        D = -D;
      }
      const uint64_t G = gcdMag(mag64(N), static_cast<uint64_t>(D));
      if (G > 1) {
        N /= static_cast<int64_t>(G);
        D /= static_cast<int64_t>(G);
      }
      setSmall(N, D);
      return;
    }
  }
  if (Num.fits128() && Den.fits128()) {
    const Mag N(Num), D(Den);
    if (N.S == 0) {
      setSmall(0, 1);
      return;
    }
    const U128 G = BigInt::gcdMag128(N.M, D.M);
    Num = BigInt::fromMag128(N.S * D.S, N.M / G);
    Den = BigInt::fromMag128(1, D.M / G);
    return;
  }
  if (Den.isNegative()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (!G.isOne()) {
    Num = Num / G;
    Den = Den / G;
  }
}

int Rational::compare(const Rational &A, const Rational &B) {
  // a/b <=> c/d  iff  a*d <=> c*b (b, d > 0).
  if (A.isSmallRepr() && B.isSmallRepr()) {
    // 128-bit cross products are always exact for int64 components.
    const __int128 L =
        static_cast<__int128>(A.Num.getSmall()) * B.Den.getSmall();
    const __int128 R =
        static_cast<__int128>(B.Num.getSmall()) * A.Den.getSmall();
    return L < R ? -1 : L > R ? 1 : 0;
  }
  if (allFit128(A, B)) {
    const int SA = A.Num.sign(), SB = B.Num.sign();
    if (SA != SB || SA == 0)
      return SA < SB ? -1 : SA > SB ? 1 : 0;
    const int C = cmpProducts(A.Num.mag128(), B.Den.mag128(),
                              B.Num.mag128(), A.Den.mag128());
    return SA < 0 ? -C : C;
  }
  return BigInt::compare(A.Num * B.Den, B.Num * A.Den);
}

Rational Rational::operator-() const {
  Rational R;
  R.Num = -Num;
  R.Den = Den;
  return R;
}

Rational Rational::operator+(const Rational &B) const {
  Rational R = *this;
  if (R.addSubFast(B, /*Sub=*/false))
    return R;
  R.addBig(B, /*Sub=*/false);
  return R;
}

Rational Rational::operator-(const Rational &B) const {
  Rational R = *this;
  if (R.addSubFast(B, /*Sub=*/true))
    return R;
  R.addBig(B, /*Sub=*/true);
  return R;
}

void Rational::addBig(const Rational &B, bool Sub) {
  // Knuth 4.5.1: with canonical inputs, any common factor of the sum
  // a*(d/g) +- c*(b/g) and the denominator b*(d/g) must divide
  // g = gcd(b, d), so one gcd against g canonicalizes the result. The
  // frontier-merge workloads this serves add weights whose denominators
  // share almost everything (powers of one link probability), where
  // normalizing the raw cross product would run Euclid on the combined
  // magnitudes instead.
  if (allFit128(*this, B) && addWide(B, Sub))
    return;
  const BigInt G = BigInt::gcd(Den, B.Den);
  const bool Coprime = G.isOne();
  const BigInt DB = Coprime ? B.Den : B.Den / G; // d/g
  const BigInt DA = Coprime ? Den : Den / G;     // b/g
  BigInt N = Sub ? Num * DB - B.Num * DA : Num * DB + B.Num * DA;
  if (N.isZero()) {
    Num = BigInt(0);
    Den = BigInt(1);
    return;
  }
  BigInt D = Den * DB;
  if (!Coprime) {
    const BigInt G2 = BigInt::gcd(N, G);
    if (!G2.isOne()) {
      N = N / G2;
      D = D / G2;
    }
  }
  Num = std::move(N);
  Den = std::move(D);
}

bool Rational::addWide(const Rational &B, bool Sub) {
  // addBig's reduction on the 128-bit magnitudes; false (with *this
  // untouched) when a cross product or the sum needs more than 128 bits.
  const Mag N1(Num), D1(Den), N2(B.Num), D2(B.Den);
  const U128 G = BigInt::gcdMag128(D1.M, D2.M);
  const U128 DA = D1.M / G, DB = D2.M / G;
  U128 T1 = 0, T2 = 0, D = 0, N = 0;
  if (!mul128(N1.M, DB, T1) || !mul128(N2.M, DA, T2) || !mul128(D1.M, DB, D))
    return false;
  // The result takes the sign of the larger term, which is nonzero
  // whenever the sum is.
  const int S1 = N1.S, S2 = Sub ? -N2.S : N2.S;
  int S = S1;
  if (S1 == S2) {
    if (__builtin_add_overflow(T1, T2, &N))
      return false;
  } else if (T1 >= T2) {
    N = T1 - T2;
  } else {
    N = T2 - T1;
    S = S2;
  }
  if (N == 0) {
    setSmall(0, 1);
    return true;
  }
  const U128 G2 = G == 1 ? 1 : BigInt::gcdMag128(N, G);
  Num = BigInt::fromMag128(S, N / G2);
  Den = BigInt::fromMag128(1, D / G2);
  return true;
}

Rational Rational::operator*(const Rational &B) const {
  Rational R = *this;
  if (R.mulFast(B))
    return R;
  // GMP-style cross reduction (the big-number twin of mulFast): with both
  // inputs canonical, gcd(Num/G1 * B.Num/G2, Den/G2 * B.Den/G1) == 1, so
  // the product needs no normalize(). The cross gcds run against the
  // *operand* components — when one factor is a small step probability
  // (the exact engines multiply long products like 99^k/100^k by 99/100),
  // Euclid collapses to near-machine cost after one BigInt mod, where
  // normalizing the product would grind a full division loop on the
  // combined magnitudes every step.
  if (allFit128(*this, B)) {
    const Mag N1(Num), D1(Den), N2(B.Num), D2(B.Den);
    if (N1.S == 0 || N2.S == 0)
      return Rational();
    const U128 G1 = BigInt::gcdMag128(N1.M, D2.M);
    const U128 G2 = BigInt::gcdMag128(N2.M, D1.M);
    U128 N = 0, D = 0;
    if (mul128(N1.M / G1, N2.M / G2, N) && mul128(D1.M / G2, D2.M / G1, D)) {
      R.Num = BigInt::fromMag128(N1.S * N2.S, N);
      R.Den = BigInt::fromMag128(1, D);
      return R;
    }
  }
  const BigInt G1 = BigInt::gcd(Num, B.Den);
  const BigInt G2 = BigInt::gcd(B.Num, Den);
  R.Num = (G1.isOne() ? Num : Num / G1) * (G2.isOne() ? B.Num : B.Num / G2);
  R.Den = (G2.isOne() ? Den : Den / G2) * (G1.isOne() ? B.Den : B.Den / G1);
  return R;
}

Rational Rational::operator/(const Rational &B) const {
  assert(!B.isZero() && "rational division by zero");
  Rational R = *this;
  if (R.divFast(B))
    return R;
  // Multiply by the reciprocal, the divisor's sign moved onto its new
  // numerator to keep the Den > 0 invariant.
  Rational Inv;
  Inv.Num = B.isNegative() ? -B.Den : B.Den;
  Inv.Den = B.Num.abs();
  return *this * Inv;
}

Rational Rational::truncToInteger() const {
  Rational R;
  R.Num = Num / Den;
  R.Den = BigInt(1);
  return R;
}

Rational Rational::floorToInteger() const {
  BigInt Q, Rem;
  BigInt::divMod(Num, Den, Q, Rem);
  if (Num.isNegative() && !Rem.isZero())
    Q = Q - BigInt(1);
  Rational R;
  R.Num = std::move(Q);
  R.Den = BigInt(1);
  return R;
}

bool Rational::fromString(std::string_view Text, Rational &Out) {
  Out = Rational();
  size_t Slash = Text.find('/');
  if (Slash == std::string_view::npos) {
    BigInt N;
    if (!BigInt::fromString(Text, N))
      return false;
    Out = Rational(std::move(N), BigInt(1));
    return true;
  }
  BigInt N, D;
  if (!BigInt::fromString(Text.substr(0, Slash), N) ||
      !BigInt::fromString(Text.substr(Slash + 1), D) || D.isZero())
    return false;
  Out = Rational(std::move(N), std::move(D));
  return true;
}

std::string Rational::toString() const {
  if (Den.isOne())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

double Rational::toDouble() const {
  // Each component as M * 2^E with M its top 64 bits, so components past
  // 2^1024 (whose doubles are inf, and inf/inf is NaN) still divide
  // finitely; the exponents go back in once, on the quotient.
  int EN, ED;
  const double N = Num.toDoubleScaled(EN), D = Den.toDoubleScaled(ED);
  return EN == ED ? N / D : std::ldexp(N / D, EN - ED);
}

size_t Rational::hash() const {
  size_t H = Num.hash();
  H ^= Den.hash() + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}
