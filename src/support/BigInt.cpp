//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <cassert>
#include <cmath>
#include <new>
#include <utility>

using namespace bayonet;

static const uint64_t LimbBase = 1ULL << 32;

//===----------------------------------------------------------------------===//
// Heap-tier storage
//===----------------------------------------------------------------------===//

void BigInt::copyHeap(const BigInt &O) {
  new (&Limbs) std::vector<uint32_t>(O.Limbs);
}

void BigInt::stealHeap(BigInt &O) {
  new (&Limbs) std::vector<uint32_t>(std::move(O.Limbs));
  O.Limbs.~vector();
  O.Small = 0;
  O.Sign = 0;
  O.Kind = SmallTier;
  O.Wide = {0, 0};
}

void BigInt::releaseHeap() { Limbs.~vector(); }

BigInt &BigInt::assignSlow(const BigInt &O) {
  if (Kind == HeapTier && O.Kind == HeapTier) {
    Limbs = O.Limbs; // Reuses this value's buffer.
    Sign = O.Sign;
    return *this;
  }
  if (Kind == HeapTier)
    releaseHeap();
  Small = O.Small;
  Sign = O.Sign;
  Kind = O.Kind;
  if (O.Kind == HeapTier)
    copyHeap(O);
  else
    Wide = O.Wide;
  return *this;
}

BigInt &BigInt::assignSlow(BigInt &&O) {
  if (this == &O)
    return *this;
  if (Kind == HeapTier)
    releaseHeap();
  Small = O.Small;
  Sign = O.Sign;
  Kind = O.Kind;
  if (O.Kind == HeapTier)
    stealHeap(O);
  else
    Wide = O.Wide;
  return *this;
}

//===----------------------------------------------------------------------===//
// Limb views and conversions
//===----------------------------------------------------------------------===//

void BigInt::trim(std::vector<uint32_t> &Mag) {
  while (!Mag.empty() && Mag.back() == 0)
    Mag.pop_back();
}

BigInt::Span BigInt::limbs(uint32_t (&Buf)[4]) const {
  if (Kind == HeapTier)
    return Limbs;
  size_t N = 0;
  for (U128 M = mag128(); M; M >>= 32)
    Buf[N++] = static_cast<uint32_t>(M);
  return {Buf, N};
}

void BigInt::toMag(int &SignOut, std::vector<uint32_t> &MagOut) const {
  uint32_t Buf[4] = {};
  Span M = limbs(Buf);
  SignOut = sign();
  MagOut.assign(M.begin(), M.end());
}

BigInt BigInt::fromMag(int Sign, std::vector<uint32_t> Mag) {
  trim(Mag);
  if (Mag.size() <= 4) {
    U128 M = 0;
    for (size_t I = Mag.size(); I-- > 0;)
      M = M << 32 | Mag[I];
    return fromMag128(Mag.empty() ? 0 : Sign, M);
  }
  assert(Sign == 1 || Sign == -1);
  BigInt R;
  R.Sign = Sign;
  R.Kind = HeapTier;
  new (&R.Limbs) std::vector<uint32_t>(std::move(Mag));
  return R;
}

//===----------------------------------------------------------------------===//
// Limb algorithms (operands wider than 128 bits)
//===----------------------------------------------------------------------===//

int BigInt::cmpMag(Span A, Span B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

std::vector<uint32_t> BigInt::addMag(Span A, Span B) {
  Span Lo = A.size() < B.size() ? A : B;
  Span Hi = A.size() < B.size() ? B : A;
  std::vector<uint32_t> R;
  R.reserve(Hi.size() + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < Hi.size(); ++I) {
    uint64_t Sum = Carry + Hi[I] + (I < Lo.size() ? Lo[I] : 0);
    R.push_back(static_cast<uint32_t>(Sum));
    Carry = Sum >> 32;
  }
  if (Carry)
    R.push_back(static_cast<uint32_t>(Carry));
  return R;
}

std::vector<uint32_t> BigInt::subMag(Span A, Span B) {
  assert(cmpMag(A, B) >= 0 && "subMag requires A >= B");
  std::vector<uint32_t> R;
  R.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) -
                   (I < B.size() ? static_cast<int64_t>(B[I]) : 0) - Borrow;
    Borrow = 0;
    if (Diff < 0) {
      Diff += static_cast<int64_t>(LimbBase);
      Borrow = 1;
    }
    R.push_back(static_cast<uint32_t>(Diff));
  }
  trim(R);
  return R;
}

std::vector<uint32_t> BigInt::mulMag(Span A, Span B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> R(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Carry = 0;
    uint64_t AV = A[I];
    for (size_t J = 0; J < B.size(); ++J) {
      uint64_t Cur = R[I + J] + AV * B[J] + Carry;
      R[I + J] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t Cur = R[K] + Carry;
      R[K] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
      ++K;
    }
  }
  trim(R);
  return R;
}

/// Schoolbook long division on magnitudes (Knuth algorithm D, simplified
/// with a per-limb estimate loop). Both quotient and remainder are produced.
void BigInt::divModMag(Span A, Span B, std::vector<uint32_t> &Quot,
                       std::vector<uint32_t> &Rem) {
  assert(!B.empty() && "division by zero magnitude");
  Quot.clear();
  Rem.clear();
  if (cmpMag(A, B) < 0) {
    Rem.assign(A.begin(), A.end());
    return;
  }
  if (B.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t D = B[0];
    Quot.assign(A.size(), 0);
    uint64_t R = 0;
    for (size_t I = A.size(); I-- > 0;) {
      uint64_t Cur = (R << 32) | A[I];
      Quot[I] = static_cast<uint32_t>(Cur / D);
      R = Cur % D;
    }
    trim(Quot);
    if (R)
      Rem.push_back(static_cast<uint32_t>(R));
    return;
  }

  // General case: normalize so the divisor's top limb has its high bit set.
  int Shift = 0;
  uint32_t Top = B.back();
  while (!(Top & 0x80000000u)) {
    Top <<= 1;
    ++Shift;
  }
  auto shiftLeft = [](Span V, int S) {
    std::vector<uint32_t> R(V.size() + 1, 0);
    for (size_t I = 0; I < V.size(); ++I) {
      R[I] |= V[I] << S;
      if (S)
        R[I + 1] |= static_cast<uint32_t>(
            (static_cast<uint64_t>(V[I]) << S) >> 32);
    }
    trim(R);
    return R;
  };
  std::vector<uint32_t> U = shiftLeft(A, Shift);
  std::vector<uint32_t> V = shiftLeft(B, Shift);
  size_t N = V.size(), M = U.size() >= N ? U.size() - N : 0;
  U.resize(U.size() + 1, 0);
  Quot.assign(M + 1, 0);

  for (size_t J = M + 1; J-- > 0;) {
    // Estimate quotient digit from the top two limbs.
    uint64_t Num = (static_cast<uint64_t>(U[J + N]) << 32) | U[J + N - 1];
    uint64_t QHat = Num / V[N - 1];
    uint64_t RHat = Num % V[N - 1];
    while (QHat >= LimbBase ||
           (N >= 2 &&
            QHat * V[N - 2] > ((RHat << 32) | U[J + N - 2]))) {
      --QHat;
      RHat += V[N - 1];
      if (RHat >= LimbBase)
        break;
    }
    // Multiply-and-subtract; fix up if the estimate was one too large.
    int64_t Borrow = 0;
    uint64_t Carry = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t P = QHat * V[I] + Carry;
      Carry = P >> 32;
      int64_t Sub = static_cast<int64_t>(U[I + J]) -
                    static_cast<int64_t>(static_cast<uint32_t>(P)) - Borrow;
      Borrow = 0;
      if (Sub < 0) {
        Sub += static_cast<int64_t>(LimbBase);
        Borrow = 1;
      }
      U[I + J] = static_cast<uint32_t>(Sub);
    }
    int64_t Sub = static_cast<int64_t>(U[J + N]) -
                  static_cast<int64_t>(Carry) - Borrow;
    if (Sub < 0) {
      // QHat was one too large; add the divisor back.
      Sub += static_cast<int64_t>(LimbBase);
      --QHat;
      uint64_t C = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t S = static_cast<uint64_t>(U[I + J]) + V[I] + C;
        U[I + J] = static_cast<uint32_t>(S);
        C = S >> 32;
      }
      Sub += static_cast<int64_t>(C);
      Sub &= static_cast<int64_t>(LimbBase) - 1;
    }
    U[J + N] = static_cast<uint32_t>(Sub);
    Quot[J] = static_cast<uint32_t>(QHat);
  }
  trim(Quot);

  // Remainder = U >> Shift, truncated to N limbs.
  U.resize(N);
  if (Shift) {
    for (size_t I = 0; I < U.size(); ++I) {
      U[I] >>= Shift;
      if (I + 1 < U.size())
        U[I] |= U[I + 1] << (32 - Shift);
    }
  }
  trim(U);
  Rem = std::move(U);
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

U128 BigInt::gcdMag128(U128 X, U128 Y) {
  // Euclid while either side needs the high word; these gcds mostly pair
  // a ~2^100 product with a much smaller value, where one step gets there.
  while (Y && (X >> 64 || Y >> 64)) {
    U128 T = X % Y;
    X = Y;
    Y = T;
  }
  if (Y == 0)
    return X;
  uint64_t A = static_cast<uint64_t>(X), B = static_cast<uint64_t>(Y);
  if (A == 0)
    return B;
  // One more division step evens out the sizes, then binary gcd on odd
  // values: subtract, keep the minimum, strip twos; the loop body has no
  // data-dependent branch.
  if (A < B)
    std::swap(A, B);
  A %= B;
  if (A == 0)
    return B;
  const int Shift = __builtin_ctzll(A | B);
  A >>= __builtin_ctzll(A);
  B >>= __builtin_ctzll(B);
  while (A != B) {
    const uint64_t D = A > B ? A - B : B - A;
    B = A < B ? A : B;
    A = D >> __builtin_ctzll(D);
  }
  return static_cast<U128>(A) << Shift;
}

int BigInt::compare(const BigInt &A, const BigInt &B) {
  if (A.isSmall() && B.isSmall())
    return A.Small < B.Small ? -1 : (A.Small > B.Small ? 1 : 0);
  const int SA = A.sign(), SB = B.sign();
  if (SA != SB)
    return SA < SB ? -1 : 1;
  int C;
  if (A.fits128() && B.fits128()) {
    const U128 MA = A.mag128(), MB = B.mag128();
    C = MA < MB ? -1 : MA > MB ? 1 : 0;
  } else {
    uint32_t BufA[4] = {}, BufB[4] = {};
    C = cmpMag(A.limbs(BufA), B.limbs(BufB));
  }
  return SA < 0 ? -C : C;
}

BigInt BigInt::operator-() const {
  if (isSmall() && Small != INT64_MIN)
    return BigInt(-Small);
  if (fits128())
    return fromMag128(-sign(), mag128());
  BigInt R = *this;
  R.Sign = -Sign;
  return R;
}

BigInt BigInt::abs() const { return isNegative() ? -*this : *this; }

BigInt BigInt::addSigned(const BigInt &A, const BigInt &B, int SB) {
  const int SA = A.sign();
  if (SB == 0)
    return A;
  if (A.fits128() && B.fits128()) {
    const U128 MA = A.mag128(), MB = B.mag128();
    if (SA != SB) // Also covers A == 0.
      return MA >= MB ? fromMag128(SA, MA - MB) : fromMag128(SB, MB - MA);
    U128 M = 0;
    if (!__builtin_add_overflow(MA, MB, &M))
      return fromMag128(SA, M);
  }
  uint32_t BufA[4] = {}, BufB[4] = {};
  Span MA = A.limbs(BufA), MB = B.limbs(BufB);
  if (SA == SB)
    return fromMag(SA, addMag(MA, MB));
  int C = cmpMag(MA, MB);
  if (C == 0)
    return BigInt();
  if (C > 0)
    return fromMag(SA, subMag(MA, MB));
  return fromMag(SB, subMag(MB, MA));
}

BigInt BigInt::operator+(const BigInt &B) const {
  if (isSmall() && B.isSmall()) {
    int64_t R;
    if (!__builtin_add_overflow(Small, B.Small, &R))
      return BigInt(R);
  }
  return addSigned(*this, B, B.sign());
}

BigInt BigInt::operator-(const BigInt &B) const {
  if (isSmall() && B.isSmall()) {
    int64_t R;
    if (!__builtin_sub_overflow(Small, B.Small, &R))
      return BigInt(R);
  }
  return addSigned(*this, B, -B.sign());
}

BigInt BigInt::operator*(const BigInt &B) const {
  if (isSmall() && B.isSmall()) {
    int64_t R;
    if (!__builtin_mul_overflow(Small, B.Small, &R))
      return BigInt(R);
  }
  const int S = sign() * B.sign();
  if (S == 0)
    return BigInt();
  if (fits128() && B.fits128()) {
    U128 M = 0;
    if (!__builtin_mul_overflow(mag128(), B.mag128(), &M))
      return fromMag128(S, M);
  }
  uint32_t BufA[4] = {}, BufB[4] = {};
  return fromMag(S, mulMag(limbs(BufA), B.limbs(BufB)));
}

void BigInt::divMod(const BigInt &A, const BigInt &B, BigInt &Quot,
                    BigInt &Rem) {
  assert(!B.isZero() && "division by zero");
  // Both results are computed before either output is written, so the
  // outputs may alias the inputs.
  if (A.isSmall() && B.isSmall() &&
      !(A.Small == INT64_MIN && B.Small == -1)) {
    const int64_t Q = A.Small / B.Small, R = A.Small % B.Small;
    Quot = BigInt(Q);
    Rem = BigInt(R);
    return;
  }
  const int SA = A.sign(), SB = B.sign();
  if (A.fits128() && B.fits128()) {
    const U128 MA = A.mag128(), MB = B.mag128();
    BigInt Q = fromMag128(SA * SB, MA / MB);
    Rem = fromMag128(SA, MA % MB);
    Quot = std::move(Q);
    return;
  }
  uint32_t BufA[4] = {}, BufB[4] = {};
  std::vector<uint32_t> MQ, MR;
  divModMag(A.limbs(BufA), B.limbs(BufB), MQ, MR);
  BigInt Q = fromMag(SA * SB, std::move(MQ));
  Rem = fromMag(SA, std::move(MR));
  Quot = std::move(Q);
}

BigInt BigInt::operator/(const BigInt &B) const {
  BigInt Q, R;
  divMod(*this, B, Q, R);
  return Q;
}

BigInt BigInt::operator%(const BigInt &B) const {
  BigInt Q, R;
  divMod(*this, B, Q, R);
  return R;
}

BigInt BigInt::gcd(BigInt A, BigInt B) {
  // Limb Euclid only while both are wider than 128 bits; the first
  // remainder below 2^128 hands the rest to gcdMag128.
  while (!A.fits128() && !B.fits128()) {
    BigInt R = A % B;
    A = std::move(B);
    B = std::move(R);
  }
  if (!A.fits128()) {
    if (B.isZero())
      return A.abs();
    A = A % B;
  } else if (!B.fits128()) {
    if (A.isZero())
      return B.abs();
    B = B % A;
  }
  return fromMag128(1, gcdMag128(A.mag128(), B.mag128()));
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

bool BigInt::fromString(std::string_view Text, BigInt &Out) {
  Out = BigInt();
  if (Text.empty())
    return false;
  bool Neg = false;
  size_t I = 0;
  if (Text[0] == '-') {
    Neg = true;
    I = 1;
    if (Text.size() == 1)
      return false;
  }
  BigInt R;
  BigInt Ten(10);
  for (; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return false;
    R = R * Ten + BigInt(Text[I] - '0');
  }
  Out = Neg ? -R : R;
  return true;
}

std::string BigInt::toString() const {
  if (isSmall())
    return std::to_string(Small);
  // Repeatedly divide the magnitude by 10^9 and print chunks.
  uint32_t Buf[4] = {};
  Span L = limbs(Buf);
  std::vector<uint32_t> M(L.begin(), L.end());
  std::string Out;
  const uint64_t Chunk = 1000000000ULL;
  while (!M.empty()) {
    uint64_t R = 0;
    for (size_t I = M.size(); I-- > 0;) {
      uint64_t Cur = (R << 32) | M[I];
      M[I] = static_cast<uint32_t>(Cur / Chunk);
      R = Cur % Chunk;
    }
    trim(M);
    std::string Part = std::to_string(R);
    if (!M.empty())
      Part.insert(Part.begin(), 9 - Part.size(), '0');
    Out.insert(0, Part);
  }
  if (Sign < 0)
    Out.insert(Out.begin(), '-');
  return Out;
}

double BigInt::toDouble() const {
  if (isSmall())
    return static_cast<double>(Small);
  uint32_t Buf[4] = {};
  Span L = limbs(Buf);
  double R = 0;
  for (size_t I = L.size(); I-- > 0;)
    R = R * 4294967296.0 + L[I];
  return Sign < 0 ? -R : R;
}

double BigInt::toDoubleScaled(int &Exp) const {
  Exp = 0;
  if (isSmall())
    return static_cast<double>(Small);
  // Gather at least 64 significant bits: the whole inline magnitude, or
  // the top three heap limbs.
  U128 Top = 0;
  if (Kind == HeapTier) {
    const size_t N = Limbs.size();
    Top = static_cast<U128>(Limbs[N - 1]) << 64 |
          static_cast<U128>(Limbs[N - 2]) << 32 | Limbs[N - 3];
    Exp = static_cast<int>(32 * (N - 3));
  } else {
    Top = mag128();
  }
  const uint64_t Hi = static_cast<uint64_t>(Top >> 64);
  if (Hi) {
    const int Drop = 64 - __builtin_clzll(Hi);
    Top >>= Drop;
    Exp += Drop;
  }
  const double D = static_cast<double>(static_cast<uint64_t>(Top));
  return Sign < 0 ? -D : D;
}

size_t BigInt::hash() const {
  if (isSmall())
    return std::hash<int64_t>()(Small);
  // Folds the 32-bit limbs in either wide tier, so the hash depends only
  // on the value.
  size_t H = Sign < 0 ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
  uint32_t Buf[4] = {};
  for (uint32_t L : limbs(Buf))
    H = H * 0x100000001b3ULL ^ L;
  return H;
}
