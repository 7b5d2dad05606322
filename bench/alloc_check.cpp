//===- bench/alloc_check.cpp - Zero-allocation hot-path assertion ---------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Asserts that the exact engine's weight arithmetic performs zero heap
/// allocations on both allocation-free BigInt tiers:
///
///  - small: the merge step that dominates gossip-style runs is
///    `Frontier.second += W` — a SymProb term-wise addition whose concrete
///    weights are small dyadic / triadic rationals. The tool runs gossip4
///    once for real weights and replays that operation.
///  - inline (128-bit): the load-balancing network's terminal weights have
///    ~2^50 denominators, so the sum or product of two of them leaves int64
///    while every intermediate stays below 2^128. The tool runs
///    loadbalancing once and replays Rational `+=`, `*` and the SymProb
///    merge over pairs of its weights.
///
/// Operations run under the allocation counter from bench/AllocCounter.h.
/// Exit 0: zero allocations (or counting disabled — build with
/// -DBAYONET_COUNT_ALLOCS=ON to arm the check). Exit 1: a hot path
/// allocated. tier1.sh runs this from an armed build.
///
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "api/Bayonet.h"
#include "scenarios/Scenarios.h"

#include <cstdio>

using namespace bayonet;
using namespace bayonet::benchutil;

namespace {

/// Runs a scenario's exact inference and returns its terminal weights, or
/// an empty list after printing why.
std::vector<std::pair<NetConfig, SymProb>> terminals(const char *Name,
                                                     const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  if (!Net) {
    std::fprintf(stderr, "alloc_check: %s failed to load:\n%s", Name,
                 Diags.toString().c_str());
    return {};
  }
  ExactOptions Opts;
  Opts.CollectTerminals = true;
  ExactResult R = ExactEngine(Net->Spec, Opts).run();
  if (!R.Status.ok() || R.Terminals.size() < 2) {
    std::fprintf(stderr, "alloc_check: %s run failed\n", Name);
    return {};
  }
  return std::move(R.Terminals);
}

bool report(const char *What, uint64_t Delta, uint64_t Ops) {
  std::printf("alloc_check: %s: %llu allocations across %llu operations "
              "(%.4f per operation)\n",
              What, static_cast<unsigned long long>(Delta),
              static_cast<unsigned long long>(Ops),
              static_cast<double>(Delta) / Ops);
  if (Delta != 0)
    std::fprintf(stderr, "alloc_check: FAIL — %s must not allocate\n", What);
  return Delta == 0;
}

/// Small tier: gossip4's merge, `Acc += W`, with the accumulated numerator
/// provably inside int64.
bool checkSmallMerge() {
  auto T = terminals("gossip4", scenarios::gossip(4));
  if (T.empty())
    return false;

  // Use the weight with the smallest denominator and bound the merge
  // count so the accumulated numerator stays in the small-int64
  // representation — this part targets the small-rational path, not
  // promotion behavior.
  size_t Best = 0;
  for (size_t I = 1; I < T.size(); ++I) {
    const SymProb &C = T[I].second;
    if (!C.isConcrete() || C.isZero())
      continue;
    if (C.concreteValue() > T[Best].second.concreteValue())
      Best = I; // Weights are positive: larger = smaller denominator.
  }
  const SymProb &W = T[Best].second;
  const Rational WV = W.concreteValue();
  if (!WV.den().isSmall()) {
    std::fprintf(stderr, "alloc_check: gossip4 weight not small-repr?\n");
    return false;
  }
  uint64_t Merges = 100000;
  const uint64_t Den = static_cast<uint64_t>(WV.den().getSmall());
  const uint64_t Cap = (uint64_t(1) << 62) / Den;
  if (Cap < Merges + 128)
    Merges = Cap > 256 ? Cap - 128 : 128;

  // A warm-up settles one-time lazy storage so the loop measures the
  // steady state the engine's hot loop actually runs in.
  SymProb Acc = W;
  for (int I = 0; I < 64; ++I)
    Acc += W;

  const uint64_t Before = allocsNow();
  for (uint64_t I = 0; I < Merges; ++I)
    Acc += W;
  return report("small-tier SymProb merge", allocsNow() - Before, Merges);
}

/// Inline tier: the engine's step shape over loadbalancing's terminal
/// weights — a weight scaled by another (`*`), then merged with a third
/// (Rational `+=` and the SymProb merge).
bool checkWideTier() {
  auto T = terminals("loadbalancing", scenarios::loadBalancing("1001H"));
  if (T.empty())
    return false;

  // Weights whose components are at most 54 bits, so a product of two has
  // components of at most 108 bits. The weights share their denominators'
  // prime factors, which keeps every product-plus-weight cross product
  // below 2^128 as well.
  const int64_t Limit = int64_t(1) << 54;
  std::vector<SymProb> Ws;
  for (const auto &[Config, W] : T) {
    if (!W.isConcrete() || W.isZero())
      continue;
    const Rational V = W.concreteValue();
    if (V.isSmallRepr() && V.num().getSmall() < Limit &&
        V.den().getSmall() < Limit)
      Ws.push_back(W);
  }
  if (Ws.size() < 16) {
    std::fprintf(stderr, "alloc_check: only %zu loadbalancing weights\n",
                 Ws.size());
    return false;
  }
  auto value = [&Ws](size_t I) -> const Rational & {
    return Ws[I].terms().front().Value;
  };
  // Products as SymProbs, built outside the counted loop (construction
  // allocates the term vector; the merge below only reassigns it).
  std::vector<SymProb> Prods;
  for (size_t I = 0; I < Ws.size(); ++I)
    for (size_t J = I + 1; J < Ws.size(); ++J)
      Prods.push_back(SymProb::concrete(value(I) * value(J)));

  // Results go into preallocated slots: Rational and SymProb assignment
  // reuses their storage, as the engine's frontier does.
  Rational Sum, Prod;
  SymProb Merge = Prods[0];
  uint64_t Ops = 0, WideSums = 0, WideProds = 0;
  bool Ok = true;
  auto replay = [&](bool Count) {
    size_t P = 0;
    for (size_t I = 0; I < Ws.size(); ++I) {
      for (size_t J = I + 1; J < Ws.size(); ++J, ++P) {
        Prod = value(I) * value(J);
        for (size_t K = 0; K < Ws.size(); ++K) {
          Sum = Prod;
          Sum += value(K);
          Merge = Prods[P];
          Merge += Ws[K];
          if (!Count)
            continue;
          Ops += 2;
          WideSums += !Sum.isSmallRepr();
          Ok &= Merge.terms().front().Value == Sum;
          Ok &= Sum.num().fits128() && Sum.den().fits128();
        }
        if (!Count)
          continue;
        Ops += 1;
        WideProds += !Prod.isSmallRepr();
        Ok &= Prods[P].terms().front().Value == Prod;
      }
    }
  };
  replay(/*Count=*/false);
  const uint64_t Before = allocsNow();
  replay(/*Count=*/true);
  const uint64_t Delta = allocsNow() - Before;

  std::printf("alloc_check: %zu loadbalancing weights; %llu products and "
              "%llu sums left int64\n",
              Ws.size(), static_cast<unsigned long long>(WideProds),
              static_cast<unsigned long long>(WideSums));
  if (!Ok) {
    std::fprintf(stderr, "alloc_check: wide-tier replay disagrees or "
                         "left the inline tier\n");
    return false;
  }
  if (WideSums == 0 || WideProds == 0) {
    std::fprintf(stderr, "alloc_check: no result reached the inline tier; "
                         "the wide check tested nothing\n");
    return false;
  }
  return report("inline-tier *, += and SymProb merge", Delta, Ops);
}

} // namespace

int main() {
  if (!allocCountingEnabled()) {
    std::printf("alloc_check: counting disabled "
                "(build with -DBAYONET_COUNT_ALLOCS=ON); nothing checked\n");
    return 0;
  }
  const bool Small = checkSmallMerge();
  const bool Wide = checkWideTier();
  if (!Small || !Wide)
    return 1;
  std::printf("alloc_check: OK — zero allocations on both weight tiers\n");
  return 0;
}
