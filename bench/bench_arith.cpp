//===- bench/bench_arith.cpp - Rational/BigInt/SymProb layer costs --------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-operation cost of the arithmetic substrate, one row per operation
/// and operand width, so a regression in the weight arithmetic points at
/// its tier:
///
///   /0  int64:   31-bit components; every step on the int64 path.
///   /1  wide:    54-bit components, the load-balancing weights' shape;
///                operands are int64 but products and cross products need
///                65-128 bits, so the 128-bit path does the work.
///   /2  inline:  65-100-bit components held in BigInt's inline tier;
///                compare stays on 128-bit words, while add and mul
///                results pass 2^128.
///   /3  heap:    130-160-bit components in heap limbs.
///
/// Each row cycles through 256 seeded operand pairs built at run time, so
/// nothing folds at compile time. BM_SymProbMerge times the engine's
/// frontier merge (`Acc += W` on concrete SymProbs) with wide weights.
///
//===----------------------------------------------------------------------===//

#include "support/Prng.h"
#include "support/Rational.h"
#include "symbolic/SymProb.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace bayonet;

namespace {

constexpr size_t PoolSize = 256;

/// A positive BigInt of Lo..Hi bits, top bit set.
BigInt randomMag(Xoshiro &Rng, int Lo, int Hi) {
  const int Bits = Lo + static_cast<int>(Rng.nextBelow(Hi - Lo + 1));
  BigInt V(1);
  for (int Done = 1; Done < Bits; Done += 16) {
    const int Take = Bits - Done < 16 ? Bits - Done : 16;
    V = V * BigInt(int64_t(1) << Take) +
        BigInt(static_cast<int64_t>(Rng.next() >> (64 - Take)));
  }
  return V;
}

struct Pool {
  std::vector<Rational> A, B;
};

const Pool &pool(int64_t Class) {
  static const int Widths[4][2] = {{28, 31}, {50, 54}, {65, 100}, {130, 160}};
  static Pool Pools[4];
  Pool &P = Pools[Class];
  if (P.A.empty()) {
    Xoshiro Rng(0xa417 + Class);
    const int Lo = Widths[Class][0], Hi = Widths[Class][1];
    auto next = [&] {
      BigInt N = randomMag(Rng, Lo, Hi);
      if (Rng.next() & 1)
        N = -N;
      return Rational(N, randomMag(Rng, Lo, Hi));
    };
    for (size_t I = 0; I < PoolSize; ++I) {
      P.A.push_back(next());
      P.B.push_back(next());
    }
  }
  return P;
}

const char *label(int64_t Class) {
  static const char *Labels[] = {"int64", "wide 65-128-bit intermediates",
                                 "inline 65-128-bit operands",
                                 "heap >128-bit operands"};
  return Labels[Class];
}

void BM_RationalAdd(benchmark::State &State) {
  const Pool &P = pool(State.range(0));
  size_t I = 0;
  for (auto _ : State) {
    Rational R = P.A[I] + P.B[I];
    benchmark::DoNotOptimize(R);
    I = (I + 1) % PoolSize;
  }
  State.SetLabel(label(State.range(0)));
}

void BM_RationalMul(benchmark::State &State) {
  const Pool &P = pool(State.range(0));
  size_t I = 0;
  for (auto _ : State) {
    Rational R = P.A[I] * P.B[I];
    benchmark::DoNotOptimize(R);
    I = (I + 1) % PoolSize;
  }
  State.SetLabel(label(State.range(0)));
}

void BM_RationalCompare(benchmark::State &State) {
  const Pool &P = pool(State.range(0));
  size_t I = 0;
  for (auto _ : State) {
    int C = Rational::compare(P.A[I], P.B[I]);
    benchmark::DoNotOptimize(C);
    I = (I + 1) % PoolSize;
  }
  State.SetLabel(label(State.range(0)));
}

/// The frontier merge: a successor's weight added into the accumulated
/// weight of an equal configuration, both concrete.
void BM_SymProbMerge(benchmark::State &State) {
  const Pool &P = pool(1);
  std::vector<SymProb> A, B;
  for (size_t I = 0; I < PoolSize; ++I) {
    A.push_back(SymProb::concrete(P.A[I].isNegative() ? -P.A[I] : P.A[I]));
    B.push_back(SymProb::concrete(P.B[I].isNegative() ? -P.B[I] : P.B[I]));
  }
  SymProb Acc = A[0];
  size_t I = 0;
  for (auto _ : State) {
    Acc = A[I]; // Reuses Acc's term storage, as a frontier slot does.
    Acc += B[I];
    benchmark::DoNotOptimize(Acc);
    I = (I + 1) % PoolSize;
  }
  State.SetLabel(label(1));
}

} // namespace

BENCHMARK(BM_RationalAdd)->DenseRange(0, 3);
BENCHMARK(BM_RationalMul)->DenseRange(0, 3);
BENCHMARK(BM_RationalCompare)->DenseRange(0, 3);
BENCHMARK(BM_SymProbMerge);

BENCHMARK_MAIN();
