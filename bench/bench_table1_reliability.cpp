//===- bench/bench_table1_reliability.cpp - Table 1 reliability rows ------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1 rows 6-9: reliability of packet delivery across the
/// Figure 11(b) diamond (6 nodes, 0.9995) and the 30-node diamond chain
/// (0.9965), exact and approximate. The paper lists each size twice (two
/// runs); we reproduce that with two sampler seeds. The 30-node network
/// also runs through the translated pipeline (translateToPsi + PsiExact,
/// serial), so the row pair measures the gap between the two exact
/// pipelines.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "psi/PsiExact.h"
#include "scenarios/Scenarios.h"
#include "translate/Translator.h"

using namespace bayonet;
using namespace bayonet::benchutil;

namespace {

struct ReliabilityCase {
  const char *Label;
  unsigned Diamonds;
  const char *PaperExact;
  const char *PaperApprox;
  uint64_t Seed;
};

const ReliabilityCase Cases[] = {
    {"reliability uni 6 nodes (run 1)", 1, "0.9995", "0.9990", 0x5eed},
    {"reliability uni 6 nodes (run 2)", 1, "0.9995", "1.0000", 0xbeef},
    {"reliability uni 30 nodes (run 1)", 7, "0.9965", "0.9940", 0x5eed},
    {"reliability uni 30 nodes (run 2)", 7, "0.9965", "0.9980", 0xbeef},
};

void BM_ReliabilityExact(benchmark::State &State) {
  const ReliabilityCase &C = Cases[State.range(0)];
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(C.Diamonds));
  std::string Measured;
  double Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    auto V = R.concreteValue();
    Measured = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  addRow(C.Label, "exact", C.PaperExact, Measured, Secs);
}

void BM_ReliabilitySmc(benchmark::State &State) {
  const ReliabilityCase &C = Cases[State.range(0)];
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(C.Diamonds));
  SampleOptions Opts;
  Opts.Seed = C.Seed;
  double Value = 0, Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    SampleResult R = Sampler(Net.Spec, Opts).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    Value = R.Value;
    benchmark::DoNotOptimize(R);
  }
  addRow(C.Label, "SMC-1000", C.PaperApprox, fmt(Value), Secs);
}

void BM_ReliabilityTranslated(benchmark::State &State) {
  const ReliabilityCase &C = Cases[2];
  LoadedNetwork Net = mustLoad(scenarios::reliabilityChain(C.Diamonds));
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  if (!Psi) {
    State.SkipWithError("reliability chain did not translate");
    return;
  }
  PsiExactOptions Opts;
  Opts.Threads = 1;
  std::string Measured;
  double Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    PsiExactResult R = PsiExact(*Psi, Opts).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    auto V = R.concreteValue();
    Measured = V ? fmt(V->toDouble()) : "?";
    benchmark::DoNotOptimize(R);
  }
  addRow("reliability uni 30 nodes", "translated", C.PaperExact, Measured,
         Secs);
}

} // namespace

BENCHMARK(BM_ReliabilityExact)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReliabilitySmc)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ReliabilityTranslated)->Unit(benchmark::kMillisecond);

BAYONET_BENCH_MAIN("Table 1 rows 6-9 (reliability)")
