//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integer with two allocation-free tiers.
///
/// Exact inference multiplies and adds many scheduler-choice probabilities;
/// the resulting rational weights (e.g. 30378810105265/67706637778944 in the
/// paper's Section 2 example) overflow 64-bit integers, so weights need
/// arbitrary precision. Almost every value still fits in 128 bits: weights
/// with ~2^50 denominators multiply into ~2^100 intermediates. So a value
/// lives in one of three tiers, each used only when the one before cannot
/// hold it:
///
///   small   int64 value (machine arithmetic);
///   inline  sign + magnitude below 2^128 in two words inside the object
///           (unsigned __int128 arithmetic, no heap);
///   heap    sign + 32-bit limb vector, for magnitudes of 2^128 and up.
///
/// The object is 40 bytes in every tier, as wide as the old int64-or-limbs
/// layout, so the byte accounting of every structure holding values is
/// unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_BIGINT_H
#define BAYONET_SUPPORT_BIGINT_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bayonet {

/// Unsigned 128-bit magnitude of the small and inline tiers.
using U128 = unsigned __int128;

/// Arbitrary-precision signed integer.
///
/// Every operation produces the canonical tier for its result: small if the
/// value fits int64, else inline if its magnitude is below 2^128, else heap
/// limbs (least significant first, no leading zero limbs). Each value
/// therefore has exactly one representation, and hash() of any value wider
/// than int64 folds its 32-bit limbs whichever of the two wide tiers holds
/// it.
class BigInt {
public:
  /// Constructs zero.
  BigInt() {}
  /// Constructs from a machine integer.
  BigInt(int64_t V) : Small(V) {}
  BigInt(int V) : Small(V) {}

  // Copy, move and destroy stay inline for the two word tiers: one tag
  // test and a word copy. Only heap values call out of line. Forced
  // inline, because large translation units otherwise reach GCC's
  // unit-growth limit and call them out of line on every value.
  [[gnu::always_inline]] BigInt(const BigInt &O)
      : Small(O.Small), Sign(O.Sign), Kind(O.Kind) {
    if (O.Kind == HeapTier) [[unlikely]]
      copyHeap(O);
    else
      Wide = O.Wide;
  }
  [[gnu::always_inline]] BigInt(BigInt &&O) noexcept
      : Small(O.Small), Sign(O.Sign), Kind(O.Kind) {
    if (O.Kind == HeapTier) [[unlikely]]
      stealHeap(O);
    else
      Wide = O.Wide;
  }
  [[gnu::always_inline]] BigInt &operator=(const BigInt &O) {
    if (((Kind | O.Kind) & HeapTier) == 0) [[likely]] {
      setWords(O);
      return *this;
    }
    return assignSlow(O);
  }
  [[gnu::always_inline]] BigInt &operator=(BigInt &&O) noexcept {
    if (((Kind | O.Kind) & HeapTier) == 0) [[likely]] {
      setWords(O);
      return *this;
    }
    return assignSlow(std::move(O));
  }
  [[gnu::always_inline]] ~BigInt() {
    if (Kind == HeapTier) [[unlikely]]
      releaseHeap();
  }

  /// Parses a decimal integer with optional leading '-'.
  /// Returns false (and leaves the value zero) on malformed input.
  static bool fromString(std::string_view Text, BigInt &Out);

  /// Returns true if the value fits in the small representation.
  bool isSmall() const { return Kind == SmallTier; }
  /// Returns the value as int64. Only valid if isSmall().
  int64_t getSmall() const { return Small; }

  /// Returns true if the magnitude is below 2^128 (small or inline tier),
  /// i.e. mag128() is valid and arithmetic on the value never allocates.
  bool fits128() const { return Kind != HeapTier; }
  /// Magnitude of a value that fits128().
  U128 mag128() const {
    if (Kind == SmallTier)
      return Small < 0 ? 0 - static_cast<uint64_t>(Small)
                       : static_cast<uint64_t>(Small);
    return static_cast<U128>(Wide.Hi) << 64 | Wide.Lo;
  }
  /// -1, 0 or +1.
  int sign() const {
    if (Kind == SmallTier)
      return (Small > 0) - (Small < 0);
    return Sign;
  }
  /// Builds the canonical value Sign * Mag. \pre Sign is +-1 unless Mag
  /// is zero.
  static BigInt fromMag128(int Sign, U128 Mag) {
    BigInt R;
    if (Mag <= static_cast<uint64_t>(INT64_MAX))
      R.Small = Sign < 0 ? -static_cast<int64_t>(Mag)
                         : static_cast<int64_t>(Mag);
    else if (Sign < 0 && Mag == static_cast<uint64_t>(INT64_MAX) + 1)
      R.Small = INT64_MIN;
    else {
      R.Kind = InlineTier;
      R.Sign = Sign;
      R.Wide = {static_cast<uint64_t>(Mag), static_cast<uint64_t>(Mag >> 64)};
    }
    return R;
  }
  /// gcd of two 128-bit magnitudes; gcdMag128(0, x) == x.
  static U128 gcdMag128(U128 X, U128 Y);

  bool isZero() const { return isSmall() && Small == 0; }
  bool isNegative() const { return isSmall() ? Small < 0 : Sign < 0; }
  bool isOne() const { return isSmall() && Small == 1; }

  /// Three-way comparison: negative, zero, or positive.
  static int compare(const BigInt &A, const BigInt &B);

  friend bool operator==(const BigInt &A, const BigInt &B) {
    return compare(A, B) == 0;
  }
  friend bool operator!=(const BigInt &A, const BigInt &B) {
    return compare(A, B) != 0;
  }
  friend bool operator<(const BigInt &A, const BigInt &B) {
    return compare(A, B) < 0;
  }
  friend bool operator<=(const BigInt &A, const BigInt &B) {
    return compare(A, B) <= 0;
  }
  friend bool operator>(const BigInt &A, const BigInt &B) {
    return compare(A, B) > 0;
  }
  friend bool operator>=(const BigInt &A, const BigInt &B) {
    return compare(A, B) >= 0;
  }

  BigInt operator-() const;
  BigInt operator+(const BigInt &B) const;
  BigInt operator-(const BigInt &B) const;
  BigInt operator*(const BigInt &B) const;
  /// Truncating division (C semantics: quotient rounds toward zero).
  /// \pre !B.isZero()
  BigInt operator/(const BigInt &B) const;
  /// Remainder with the sign of the dividend (C semantics).
  /// \pre !B.isZero()
  BigInt operator%(const BigInt &B) const;

  // The compound operators mutate in place on the small-representation
  // fast path (no temporary BigInt) — these dominate weight accumulation
  // during exact-engine frontier merges. Overflow and wider operands fall
  // back to the full out-of-place operation.
  BigInt &operator+=(const BigInt &B) {
    int64_t R;
    if (isSmall() && B.isSmall() &&
        !__builtin_add_overflow(Small, B.Small, &R)) {
      Small = R;
      return *this;
    }
    return *this = *this + B;
  }
  BigInt &operator-=(const BigInt &B) {
    int64_t R;
    if (isSmall() && B.isSmall() &&
        !__builtin_sub_overflow(Small, B.Small, &R)) {
      Small = R;
      return *this;
    }
    return *this = *this - B;
  }
  BigInt &operator*=(const BigInt &B) {
    int64_t R;
    if (isSmall() && B.isSmall() &&
        !__builtin_mul_overflow(Small, B.Small, &R)) {
      Small = R;
      return *this;
    }
    return *this = *this * B;
  }

  /// Computes quotient and remainder in one pass (C semantics).
  /// \pre !B.isZero()
  static void divMod(const BigInt &A, const BigInt &B, BigInt &Quot,
                     BigInt &Rem);

  /// Greatest common divisor; always non-negative. gcd(0,0) == 0.
  static BigInt gcd(BigInt A, BigInt B);

  BigInt abs() const;

  /// Decimal rendering, e.g. "-12345".
  std::string toString() const;

  /// Closest double; may lose precision or overflow to +-inf.
  double toDouble() const;
  /// The value as D * 2^Exp, where D is the double of the magnitude's top
  /// 64 bits (truncated) with the value's sign; Exp is 0 for magnitudes
  /// below 2^64, where D is toDouble(). Never overflows.
  double toDoubleScaled(int &Exp) const;

  /// Hash suitable for unordered containers. Equal values hash equally.
  size_t hash() const;

  /// Exports the value as sign (-1/0/+1) and little-endian 32-bit limbs
  /// with no leading zero limbs. The pair round-trips exactly through
  /// fromMag, so snapshots serialize limbs directly instead of rendering
  /// decimal digits (toString is quadratic in the digit count).
  void toMag(int &SignOut, std::vector<uint32_t> &MagOut) const;
  /// Builds a canonical BigInt from sign and magnitude; trims leading zero
  /// limbs and drops to the small or inline tier when the magnitude fits,
  /// so any input yields the canonical form. \pre Sign is +-1 unless the
  /// magnitude is zero.
  static BigInt fromMag(int Sign, std::vector<uint32_t> Mag);

private:
  using Span = std::span<const uint32_t>;
  enum Tier : uint8_t { SmallTier = 0, InlineTier = 1, HeapTier = 2 };
  struct Words {
    uint64_t Lo, Hi;
  };

  // Small tier: the value. Unused otherwise.
  int64_t Small = 0;
  // Inline and heap tiers: -1 or +1.
  int32_t Sign = 0;
  Tier Kind = SmallTier;
  union {
    // Inline tier: the magnitude, low word first (written, and ignored,
    // in the small tier too, so word copies never read it uninitialized).
    Words Wide = {0, 0};
    // Heap tier: the magnitude in limbs (LSB first, no leading zero limbs,
    // at least five of them).
    std::vector<uint32_t> Limbs;
  };

  void setWords(const BigInt &O) {
    Small = O.Small;
    Sign = O.Sign;
    Kind = O.Kind;
    Wide = O.Wide;
  }
  // Out-of-line heap-tier halves of the copy/move/destroy operations.
  void copyHeap(const BigInt &O);
  void stealHeap(BigInt &O);
  void releaseHeap();
  BigInt &assignSlow(const BigInt &O);
  BigInt &assignSlow(BigInt &&O);

  /// The magnitude as limbs: the heap vector in place, or the word tiers
  /// unpacked into Buf.
  Span limbs(uint32_t (&Buf)[4]) const;

  // Limb algorithms for operands wider than 128 bits, reading both
  // operands in place.
  static int cmpMag(Span A, Span B);
  static std::vector<uint32_t> addMag(Span A, Span B);
  // \pre cmpMag(A, B) >= 0
  static std::vector<uint32_t> subMag(Span A, Span B);
  static std::vector<uint32_t> mulMag(Span A, Span B);
  static void divModMag(Span A, Span B, std::vector<uint32_t> &Quot,
                        std::vector<uint32_t> &Rem);
  /// A + B with B's sign replaced by SB (negated for a difference).
  static BigInt addSigned(const BigInt &A, const BigInt &B, int SB);

  static void trim(std::vector<uint32_t> &Mag);
};

static_assert(sizeof(BigInt) == 40,
              "BigInt size feeds every approxBytes; keep it at 40 bytes");

} // namespace bayonet

#endif // BAYONET_SUPPORT_BIGINT_H
