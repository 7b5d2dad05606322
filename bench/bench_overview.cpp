//===- bench/bench_overview.cpp - Section 2.2 overview numbers ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Section 2.2 in-text result: the probability of
/// congestion of the Figure 2 network is 30378810105265/67706637778944
/// (~0.4487) under the uniform scheduler, computed by exact inference,
/// approximate SMC inference, and the translate-to-PSI pipeline.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "psi/PsiExact.h"
#include "scenarios/Scenarios.h"
#include "translate/Translator.h"

using namespace bayonet;
using namespace bayonet::benchutil;

static void BM_OverviewExact(benchmark::State &State) {
  LoadedNetwork Net = mustLoad(scenarios::paperExample());
  std::string Measured;
  double Secs = 0;
  for (auto _ : State) {
    auto T0 = std::chrono::steady_clock::now();
    ExactResult R = ExactEngine(Net.Spec).run();
    Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
               .count();
    auto V = R.concreteValue();
    Measured = V ? V->toString() : "?";
    benchmark::DoNotOptimize(R);
  }
  addRow("overview congestion (Fig 2)", "exact",
         "30378810105265/67706637778944", Measured, Secs);
}
BENCHMARK(BM_OverviewExact)->Unit(benchmark::kMillisecond);

static void BM_OverviewTranslated(benchmark::State &State) {
  LoadedNetwork Net = mustLoad(scenarios::paperExample());
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  // Serial, so cpu_time counts all of the engine's work (pool lanes run
  // on threads google-benchmark does not time).
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
    Measured = V ? V->toString() : "?";
    benchmark::DoNotOptimize(R);
  }
  addRow("overview congestion (Fig 2)", "translated",
         "30378810105265/67706637778944", Measured, Secs);
}
BENCHMARK(BM_OverviewTranslated)->Unit(benchmark::kMillisecond);

static void BM_OverviewSmc(benchmark::State &State) {
  LoadedNetwork Net = mustLoad(scenarios::paperExample());
  SampleOptions Opts;
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
  addRow("overview congestion (Fig 2)", "SMC-1000", "~0.4487 (0.4570)",
         fmt(Value), Secs);
}
BENCHMARK(BM_OverviewSmc)->Unit(benchmark::kMillisecond);

BAYONET_BENCH_MAIN("Section 2.2 overview")
