//===- support/Rational.h - Exact rational numbers -------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational arithmetic over BigInt. The Bayonet value domain is
/// Vals = Q (paper Figure 4), and exact inference weights are rationals.
///
/// Two fast paths sit in front of the general BigInt path:
///
///  - Small: when both components are in BigInt's small (int64) tier —
///    every dyadic probability the schedulers and flip() produce — the four
///    operations and the compound assignments run in int64 arithmetic
///    (int64 gcd, overflow-checked products) and edit the components in
///    place.
///  - Wide: when all four components of an operation fit BigInt's inline
///    tier (magnitudes below 2^128, e.g. products of the ~2^50 weights of
///    the load-balancing network), addition, multiplication, division,
///    normalization and comparison run on the unsigned __int128 magnitudes
///    directly, gcds included.
///
/// Overflow at any step falls back to the next path, so every path yields
/// the same canonical value. None of them allocates; only components of
/// 2^128 and beyond reach BigInt's heap limbs.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_RATIONAL_H
#define BAYONET_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace bayonet {

/// Exact rational number, always stored in canonical form:
/// gcd(Num, Den) == 1, Den > 0, and zero is 0/1.
class Rational {
public:
  /// Constructs zero.
  Rational() : Den(1) {}
  /// Constructs an integer value.
  Rational(int64_t V) : Num(V), Den(1) {}
  Rational(int V) : Num(V), Den(1) {}
  /// Constructs Num/Den and normalizes. \pre !Den.isZero()
  Rational(BigInt Num, BigInt Den);

  // Forced inline: values are copied, moved and destroyed all over the
  // interpreter, and large translation units would otherwise hit GCC's
  // unit-growth limit and call these out of line.
  [[gnu::always_inline]] Rational(const Rational &) = default;
  [[gnu::always_inline]] Rational(Rational &&) = default;
  [[gnu::always_inline]] Rational &operator=(const Rational &) = default;
  [[gnu::always_inline]] Rational &operator=(Rational &&) = default;
  [[gnu::always_inline]] ~Rational() = default;

  /// Parses "a", "-a", or "a/b" in decimal. Returns false on malformed
  /// input or a zero denominator.
  static bool fromString(std::string_view Text, Rational &Out);

  const BigInt &num() const { return Num; }
  const BigInt &den() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isOne() const { return Num.isOne() && Den.isOne(); }
  bool isNegative() const { return Num.isNegative(); }
  /// True if the denominator is one.
  bool isInteger() const { return Den.isOne(); }

  static int compare(const Rational &A, const Rational &B);

  friend bool operator==(const Rational &A, const Rational &B) {
    return A.Num == B.Num && A.Den == B.Den;
  }
  friend bool operator!=(const Rational &A, const Rational &B) {
    return !(A == B);
  }
  friend bool operator<(const Rational &A, const Rational &B) {
    return compare(A, B) < 0;
  }
  friend bool operator<=(const Rational &A, const Rational &B) {
    return compare(A, B) <= 0;
  }
  friend bool operator>(const Rational &A, const Rational &B) {
    return compare(A, B) > 0;
  }
  friend bool operator>=(const Rational &A, const Rational &B) {
    return compare(A, B) >= 0;
  }

  Rational operator-() const;
  Rational operator+(const Rational &B) const;
  Rational operator-(const Rational &B) const;
  Rational operator*(const Rational &B) const;
  /// \pre !B.isZero()
  Rational operator/(const Rational &B) const;

  // True in-place updates: the small fast path rewrites Num/Den directly
  // (no temporary Rational, no limb churn); only overflow or an already-big
  // operand pays for the out-of-place BigInt computation.
  Rational &operator+=(const Rational &B) {
    if (addSubFast(B, /*Sub=*/false))
      return *this;
    return *this = *this + B;
  }
  Rational &operator-=(const Rational &B) {
    if (addSubFast(B, /*Sub=*/true))
      return *this;
    return *this = *this - B;
  }
  Rational &operator*=(const Rational &B) {
    if (mulFast(B))
      return *this;
    return *this = *this * B;
  }
  Rational &operator/=(const Rational &B) {
    if (divFast(B))
      return *this;
    return *this = *this / B;
  }

  /// True when both components are in BigInt's small (int64)
  /// representation, i.e. arithmetic takes the int64 path.
  bool isSmallRepr() const { return Num.isSmall() && Den.isSmall(); }

  /// Truncation toward zero to an integer rational.
  Rational truncToInteger() const;
  /// Floor to an integer rational.
  Rational floorToInteger() const;

  /// Renders as "a" or "a/b".
  std::string toString() const;
  double toDouble() const;
  size_t hash() const;

private:
  BigInt Num;
  BigInt Den;
  void normalize();
  /// Big-number add/subtract with Knuth 4.5.1 reduced normalization.
  /// \pre both operands canonical (the class invariant).
  void addBig(const Rational &B, bool Sub);
  /// addBig on the 128-bit magnitudes. Returns false, leaving *this
  /// untouched, when an intermediate needs more than 128 bits.
  /// \pre all four components fits128().
  bool addWide(const Rational &B, bool Sub);

  /// Magnitude of an int64 as uint64 (correct for INT64_MIN).
  static uint64_t mag64(int64_t V) {
    return V < 0 ? 0ull - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
  }
  /// gcd of two magnitudes; gcdMag(0, x) == x.
  static uint64_t gcdMag(uint64_t X, uint64_t Y) {
    while (Y) {
      uint64_t T = X % Y;
      X = Y;
      Y = T;
    }
    return X;
  }
  /// Installs an already-canonical small value. \pre gcd(N, D) == 1, D > 0.
  void setSmall(int64_t N, int64_t D) {
    Num = BigInt(N);
    Den = BigInt(D);
  }

  /// In-place small-path a/b ± c/d with the denominators reduced by their
  /// gcd first, so intermediates overflow no earlier than the result
  /// itself. Returns false (leaving *this untouched) when any operand is
  /// big or any step overflows int64.
  bool addSubFast(const Rational &B, bool Sub) {
    if (!isSmallRepr() || !B.isSmallRepr())
      return false;
    const int64_t N1 = Num.getSmall(), D1 = Den.getSmall();
    int64_t N2 = B.Num.getSmall();
    const int64_t D2 = B.Den.getSmall();
    if (Sub) {
      if (N2 == INT64_MIN)
        return false;
      N2 = -N2;
    }
    const uint64_t G =
        gcdMag(static_cast<uint64_t>(D1), static_cast<uint64_t>(D2));
    int64_t T1, T2, N, D;
    if (G == 1) {
      // Coprime denominators: the sum is canonical without a second gcd
      // (any prime of D1*D2 divides exactly one cross term).
      if (__builtin_mul_overflow(N1, D2, &T1) ||
          __builtin_mul_overflow(N2, D1, &T2) ||
          __builtin_add_overflow(T1, T2, &N) ||
          __builtin_mul_overflow(D1, D2, &D))
        return false;
      if (N == 0)
        setSmall(0, 1);
      else
        setSmall(N, D);
      return true;
    }
    const int64_t A = D1 / static_cast<int64_t>(G);
    const int64_t Bq = D2 / static_cast<int64_t>(G);
    if (__builtin_mul_overflow(N1, Bq, &T1) ||
        __builtin_mul_overflow(N2, A, &T2) ||
        __builtin_add_overflow(T1, T2, &N) ||
        __builtin_mul_overflow(static_cast<int64_t>(G), A, &D) ||
        __builtin_mul_overflow(D, Bq, &D))
      return false;
    // Only a divisor of G can still be shared between N and D = G*A*Bq.
    const uint64_t G2 = gcdMag(mag64(N), G);
    if (N == 0) {
      setSmall(0, 1);
      return true;
    }
    if (G2 > 1) {
      N /= static_cast<int64_t>(G2);
      D /= static_cast<int64_t>(G2);
    }
    setSmall(N, D);
    return true;
  }

  /// In-place small-path multiply with cross-gcd reduction (GMP style):
  /// dividing N1 by gcd(N1, D2) and N2 by gcd(N2, D1) before multiplying
  /// keeps the products minimal and yields a canonical result directly.
  bool mulFast(const Rational &B) {
    if (!isSmallRepr() || !B.isSmallRepr())
      return false;
    const int64_t N1 = Num.getSmall(), D1 = Den.getSmall();
    const int64_t N2 = B.Num.getSmall(), D2 = B.Den.getSmall();
    if (N1 == 0 || N2 == 0) {
      setSmall(0, 1);
      return true;
    }
    // Both gcds divide a positive denominator, so they fit in int64.
    const uint64_t G1 = gcdMag(mag64(N1), static_cast<uint64_t>(D2));
    const uint64_t G2 = gcdMag(mag64(N2), static_cast<uint64_t>(D1));
    const int64_t A = N1 / static_cast<int64_t>(G1);
    const int64_t Bn = N2 / static_cast<int64_t>(G2);
    const int64_t C = D1 / static_cast<int64_t>(G2);
    const int64_t Dd = D2 / static_cast<int64_t>(G1);
    int64_t N, D;
    if (__builtin_mul_overflow(A, Bn, &N) || __builtin_mul_overflow(C, Dd, &D))
      return false;
    setSmall(N, D);
    return true;
  }

  /// In-place small-path divide: multiply by the reciprocal, normalizing
  /// the sign onto the numerator. \pre !B.isZero()
  bool divFast(const Rational &B) {
    if (!isSmallRepr() || !B.isSmallRepr())
      return false;
    const int64_t N1 = Num.getSmall(), D1 = Den.getSmall();
    const int64_t N2 = B.Num.getSmall(), D2 = B.Den.getSmall();
    assert(N2 != 0 && "rational division by zero");
    if (N1 == 0) {
      setSmall(0, 1);
      return true;
    }
    const uint64_t G1 = gcdMag(mag64(N1), mag64(N2));
    if (G1 > static_cast<uint64_t>(INT64_MAX))
      return false; // Both numerators are INT64_MIN.
    const uint64_t G2 =
        gcdMag(static_cast<uint64_t>(D1), static_cast<uint64_t>(D2));
    int64_t A = N1 / static_cast<int64_t>(G1);
    int64_t Nd = N2 / static_cast<int64_t>(G1);
    const int64_t C = D1 / static_cast<int64_t>(G2);
    const int64_t Dd = D2 / static_cast<int64_t>(G2);
    if (Nd < 0) {
      if (Nd == INT64_MIN || A == INT64_MIN)
        return false;
      Nd = -Nd;
      A = -A;
    }
    int64_t N, D;
    if (__builtin_mul_overflow(A, Dd, &N) || __builtin_mul_overflow(C, Nd, &D))
      return false;
    setSmall(N, D);
    return true;
  }
};

} // namespace bayonet

#endif // BAYONET_SUPPORT_RATIONAL_H
