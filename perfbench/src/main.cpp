//===- perfbench/src/main.cpp - End-to-end benchmark program --------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints every metric by name with
/// its unit; the last line of standard output is one JSON object
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// Usage:
///   bayonet_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                     [--root DIR] [--out-dir DIR] [--reduced] [--wrong-ref]
///
/// --trace 0 measures the end-to-end metrics with recording off. --trace 1
/// spends half the time untraced and half traced, then reports the
/// per-layer metrics from the traced passes and writes the spans as
/// Chrome-trace JSON to OUT-DIR/trace_<workload>_<seed>.json.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "support/BigInt.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace perfbench;
using bayonet::BigInt;
using bayonet::Rational;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string OutDir = ".bench_build";
  bool Reduced = false;
  bool WrongRef = false;
};

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Printed with --trace 0.
const MetricDef EndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/// Printed with --trace 1. A layer a workload never enters reports 0.
const MetricDef PerLayer[] = {
    {"failed_frac", "ratio"},
    {"lang.parse_s", "s"},
    {"lang.check_s", "s"},
    {"lang.source_bytes", "bytes"},
    {"translate.s", "s"},
    {"translate.ir_size", "count"},
    {"psi.exact.run_s", "s"},
    {"psi.exact.branches", "count"},
    {"psi.exact.merge_attempts", "count"},
    {"psi.exact.merge_hit_rate", "ratio"},
    {"psi.exact.peak_dist", "count"},
    {"psi.gap_x", "x"},
    {"interp.exact.run_s", "s"},
    {"interp.exact.states", "count"},
    {"interp.exact.states_per_s", "1/s"},
    {"interp.exact.merge_hit_rate", "ratio"},
    {"interp.exact.peak_frontier", "count"},
    {"interp.txcache.hit_rate", "ratio"},
    {"interp.txcache.bytes", "bytes"},
    {"interp.smc.run_s", "s"},
    {"interp.smc.particle_steps", "count"},
    {"interp.smc.particle_steps_per_s", "1/s"},
    {"interp.smc.survivor_frac", "ratio"},
    {"interp.smc.abs_err", "value"},
    {"net.sched_steps", "count"},
    {"support.rational.max_bits", "bits"},
    {"support.rational.add_ns", "ns"},
    {"support.rational.mul_ns", "ns"},
    {"support.intern.hit_rate", "ratio"},
    {"support.intern.bytes", "bytes"},
    {"support.threadpool.speedup_2t", "x"},
    {"support.threadpool.cpu_per_wall_2t", "ratio"},
    {"symbolic.run_s", "s"},
    {"symbolic.regions", "count"},
    {"symbolic.find_model_s", "s"},
    {"api.overhead_s", "s"},
    {"lang.self_s", "s"},
    {"translate.self_s", "s"},
    {"psi.self_s", "s"},
    {"interp.self_s", "s"},
    {"symbolic.self_s", "s"},
    {"harness.self_s", "s"},
    {"harness.layer_coverage", "ratio"},
    {"harness.traced_wall_s", "s"},
    {"harness.trace_overhead_frac", "ratio"},
};

/// The layers whose self time the traced report gives.
const char *const SpanLayers[] = {"lang",     "translate", "psi",    "interp",
                                  "symbolic", "api",       "harness"};

using Metrics = std::map<std::string, double>;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// User plus system CPU time of the whole process (every thread).
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMib() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

struct PassTimes {
  std::vector<double> Wall;
  std::vector<double> Cpu;
  /// Peak resident set after the first pass: what one run from the
  /// command line needs, before later passes fragment the heap.
  double FirstPeakRssMib = 0;
  /// Times of the workload's setup calls alone, repeated between passes.
  std::vector<double> Setup;
};

/// Repeats the workload's load and translation calls for about 25 ms
/// (at least once). Spread between the passes, these samples see the same
/// host conditions as the passes do.
void sampleSetup(Workload &W, std::vector<double> &Out) {
  Recorder Off(false);
  Context C(Off);
  auto T0 = Clock::now();
  do {
    auto S0 = Clock::now();
    W.setup(C);
    Out.push_back(secondsSince(S0));
  } while (secondsSince(T0) < 0.025);
}

/// Runs whole passes, each under a "harness" root span, until the next
/// one would end past \p Budget seconds; always at least one. With
/// \p SampleSetup, setup samples follow every pass.
PassTimes runPasses(Workload &W, Context &C, double Budget,
                    bool SampleSetup = false) {
  PassTimes P;
  auto T0 = Clock::now();
  while (true) {
    double Cpu0 = cpuSeconds();
    auto Wall0 = Clock::now();
    {
      LayerSpan Root(C.Rec, "harness", "pass");
      W.pass(C);
    }
    P.Wall.push_back(secondsSince(Wall0));
    P.Cpu.push_back(cpuSeconds() - Cpu0);
    if (P.Wall.size() == 1)
      P.FirstPeakRssMib = peakRssMib();
    if (SampleSetup)
      sampleSetup(W, P.Setup);
    double Elapsed = secondsSince(T0);
    if (Elapsed + Elapsed / P.Wall.size() > Budget)
      return P;
  }
}

/// Per-pass layer metrics from the traced spans, then the median of each
/// metric over the traced passes.
Metrics layerMetrics(const Recorder &Rec) {
  const std::vector<SpanRecord> &Spans = Rec.spans();
  std::vector<double> Self = Rec.selfTimes();
  std::vector<int> PassOf(Spans.size(), -1);
  std::vector<Metrics> Passes;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.Parent >= 0) {
      PassOf[I] = PassOf[S.Parent];
    } else if (std::strcmp(S.Layer, "harness") == 0) {
      PassOf[I] = static_cast<int>(Passes.size());
      Passes.emplace_back();
    }
    if (PassOf[I] < 0)
      continue;
    Metrics &M = Passes[PassOf[I]];
    std::string L = S.Layer, N = S.Name;
    M[L + ".self_s"] += Self[I];
    if (S.Parent < 0)
      M["wall"] += S.dur();
    auto Max = [&](const char *K, double V) { M[K] = std::max(M[K], V); };
    if (L == "lang" && N == "parse") {
      M["lang.parse_s"] += S.dur();
      M["lang.source_bytes"] += S.arg("bytes");
    } else if (L == "lang") {
      M["lang.check_s"] += S.dur();
    } else if (L == "translate") {
      M["translate.s"] += S.dur();
      M["translate.ir_size"] += S.arg("ir_size");
    } else if (L == "psi") {
      M["psi.s"] += S.dur();
      M["psi.branches"] += S.arg("branches");
      M["psi.merge_hits"] += S.arg("merge_hits");
      M["psi.merge_attempts"] += S.arg("merge_attempts");
      Max("psi.peak_dist", S.arg("peak_dist"));
    } else if (L == "symbolic" && N == "exact") {
      M["symbolic.s"] += S.dur();
      M["symbolic.regions"] += S.arg("regions");
    } else if (L == "symbolic") {
      M["symbolic.find_model_s"] += S.dur();
    } else if (L == "interp" && N == "smc") {
      M["smc.s"] += S.dur();
      M["smc.particle_steps"] += S.arg("particle_steps");
      M["smc.particles"] += S.arg("particles");
      M["smc.survivors"] += S.arg("survivors");
      M["smc.abs_err"] += S.arg("abs_err");
      M["smc.runs"] += 1;
      M["sched_steps"] += S.arg("sched_steps");
    } else if (L == "interp") {
      M["exact.s"] += S.dur();
      for (const char *K : {"states", "merge_hits", "merge_attempts", "tx_hits",
                            "tx_misses", "intern_hits", "intern_misses"})
        M[std::string("exact.") + K] += S.arg(K);
      Max("exact.peak_frontier", S.arg("peak_frontier"));
      Max("exact.tx_bytes", S.arg("tx_bytes"));
      Max("exact.intern_bytes", S.arg("intern_bytes"));
      M["sched_steps"] += S.arg("sched_steps");
    }
  }

  std::map<std::string, std::vector<double>> Series;
  for (Metrics &M : Passes) {
    Metrics Out;
    for (const char *K :
         {"lang.parse_s", "lang.check_s", "lang.source_bytes", "translate.s",
          "translate.ir_size", "symbolic.regions", "symbolic.find_model_s"})
      Out[K] = M[K];
    Out["psi.exact.run_s"] = M["psi.s"];
    Out["psi.exact.branches"] = M["psi.branches"];
    Out["psi.exact.merge_attempts"] = M["psi.merge_attempts"];
    Out["psi.exact.merge_hit_rate"] =
        ratio(M["psi.merge_hits"], M["psi.merge_attempts"]);
    Out["psi.exact.peak_dist"] = M["psi.peak_dist"];
    Out["psi.gap_x"] = M["psi.s"] > 0 ? ratio(M["psi.s"], M["exact.s"]) : 0;
    Out["interp.exact.run_s"] = M["exact.s"];
    Out["interp.exact.states"] = M["exact.states"];
    Out["interp.exact.states_per_s"] = ratio(M["exact.states"], M["exact.s"]);
    Out["interp.exact.merge_hit_rate"] =
        ratio(M["exact.merge_hits"], M["exact.merge_attempts"]);
    Out["interp.exact.peak_frontier"] = M["exact.peak_frontier"];
    Out["interp.txcache.hit_rate"] = ratio(
        M["exact.tx_hits"], M["exact.tx_hits"] + M["exact.tx_misses"]);
    Out["interp.txcache.bytes"] = M["exact.tx_bytes"];
    Out["interp.smc.run_s"] = M["smc.s"];
    Out["interp.smc.particle_steps"] = M["smc.particle_steps"];
    Out["interp.smc.particle_steps_per_s"] =
        ratio(M["smc.particle_steps"], M["smc.s"]);
    Out["interp.smc.survivor_frac"] =
        ratio(M["smc.survivors"], M["smc.particles"]);
    Out["interp.smc.abs_err"] = ratio(M["smc.abs_err"], M["smc.runs"]);
    Out["net.sched_steps"] = M["sched_steps"];
    Out["support.intern.hit_rate"] =
        ratio(M["exact.intern_hits"],
              M["exact.intern_hits"] + M["exact.intern_misses"]);
    Out["support.intern.bytes"] = M["exact.intern_bytes"];
    Out["symbolic.run_s"] = M["symbolic.s"];
    Out["api.overhead_s"] = M["api.self_s"];
    for (const char *L : SpanLayers)
      Out[std::string(L) + ".self_s"] = M[std::string(L) + ".self_s"];
    Out["harness.layer_coverage"] = 1 - ratio(M["harness.self_s"], M["wall"]);
    Out["harness.traced_wall_s"] = M["wall"];
    for (const auto &[K, V] : Out)
      Series[K].push_back(V);
  }
  Metrics Result;
  for (const auto &[K, V] : Series)
    Result[K] = median(V);
  return Result;
}

unsigned bitLength(BigInt V) {
  if (V.isNegative())
    V = -V;
  unsigned Bits = 0;
  for (BigInt P(1); P <= V; P += P)
    ++Bits;
  return Bits;
}

/// Replays the public Rational + and * over a workload's own terminal
/// weights (neighbouring pairs), and reports the widest component.
void replayArithmetic(const std::vector<Rational> &W, Metrics &M) {
  M["support.rational.max_bits"] = 0;
  M["support.rational.add_ns"] = 0;
  M["support.rational.mul_ns"] = 0;
  if (W.empty())
    return;
  BigInt MaxNum(0), MaxDen(1);
  for (const Rational &R : W) {
    BigInt N = R.num().isNegative() ? -R.num() : R.num();
    if (N > MaxNum)
      MaxNum = N;
    if (R.den() > MaxDen)
      MaxDen = R.den();
  }
  M["support.rational.max_bits"] =
      std::max(bitLength(MaxNum), bitLength(MaxDen));
  size_t N = W.size();
  std::vector<double> Add, Mul;
  size_t Zeros = 0;
  auto T0 = Clock::now();
  while (Add.size() < 5 || (secondsSince(T0) < 0.3 && Add.size() < 1000)) {
    auto A0 = Clock::now();
    for (size_t I = 0; I < N; ++I)
      Zeros += (W[I] + W[(I + 1) % N]).isZero();
    Add.push_back(secondsSince(A0) * 1e9 / N);
    auto M0 = Clock::now();
    for (size_t I = 0; I < N; ++I)
      Zeros += (W[I] * W[(I + 1) % N]).isZero();
    Mul.push_back(secondsSince(M0) * 1e9 / N);
  }
  M["support.rational.add_ns"] = median(Add);
  M["support.rational.mul_ns"] = median(Mul);
  // Keeps the replayed results observable to the optimizer.
  asm volatile("" : : "g"(Zeros) : "memory");
}

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, End);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--reduced") {
      O.Reduced = true;
    } else if (A == "--wrong-ref") {
      O.WrongRef = true;
    } else if (!(V = Next())) {
      return false;
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--root") {
      O.Root = V;
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--out-dir DIR] [--reduced] [--wrong-ref]\n",
                 Argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'; known:", O.Workload.c_str());
    for (const std::string &N : workloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fputc('\n', stderr);
    return 2;
  }
  if (std::string E = W->prepare(O.Root, O.Seed, O.Reduced, O.WrongRef);
      !E.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", E.c_str());
    return 2;
  }

  Metrics M;

  // Untraced passes: the end-to-end figures, or with --trace 1 the
  // baseline that the traced passes are compared against.
  Recorder Off(false);
  Context Plain{Off};
  PassTimes Untraced = runPasses(*W, Plain,
                                 O.Trace ? O.Seconds / 2 : O.Seconds,
                                 /*SampleSetup=*/true);
  // The fastest pass, not the median: on a shared host, passes slow down
  // by 10-40% in bursts that last seconds, and the fastest of a run's
  // passes is the steadiest estimate of what the code itself costs.
  M["wall_s"] = fastest(Untraced.Wall);
  M["cpu_s"] = fastest(Untraced.Cpu);
  M["setup_s"] = median(Untraced.Setup);
  M["peak_rss_mib"] = Untraced.FirstPeakRssMib;
  uint64_t Attempted = Plain.Attempted, Failed = Plain.Failed;
  std::vector<std::string> Failures = Plain.Failures;
  size_t NumPasses = Untraced.Wall.size();

  if (O.Trace) {
    Recorder Rec(true);
    Context Traced{Rec};
    PassTimes TP = runPasses(*W, Traced, O.Seconds / 2);
    NumPasses += TP.Wall.size();
    Attempted += Traced.Attempted;
    Failed += Traced.Failed;
    Failures.insert(Failures.end(), Traced.Failures.begin(),
                    Traced.Failures.end());
    Metrics L = layerMetrics(Rec);
    M.insert(L.begin(), L.end());
    M["harness.trace_overhead_frac"] =
        ratio(fastest(TP.Wall), M["wall_s"]) - 1;

    {
      LayerSpan S(Rec, "support", "rational_replay");
      replayArithmetic(W->terminalWeights(), M);
    }
    M["support.threadpool.speedup_2t"] = 0;
    M["support.threadpool.cpu_per_wall_2t"] = 0;
    if (O.Workload == "exact_loadbalancing") {
      // Parallel wall time is too unsteady for an end-to-end metric; it
      // is recorded here: the faster of two passes at two worker lanes.
      LayerSpan S(Rec, "support", "threadpool_2t");
      Context Two{Off};
      Two.Threads = 2;
      PassTimes P2 = runPasses(*W, Two, 0);
      PassTimes Again = runPasses(*W, Two, 0);
      const PassTimes &B = Again.Wall[0] < P2.Wall[0] ? Again : P2;
      Attempted += Two.Attempted;
      Failed += Two.Failed;
      M["support.threadpool.speedup_2t"] = ratio(M["wall_s"], B.Wall[0]);
      M["support.threadpool.cpu_per_wall_2t"] = ratio(B.Cpu[0], B.Wall[0]);
    }
    std::filesystem::create_directories(O.OutDir);
    std::string Path = O.OutDir + "/trace_" + O.Workload + "_" +
                       std::to_string(O.Seed) + ".json";
    if (!Rec.writeChrome(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    else
      std::fprintf(stderr, "perfbench: wrote %s\n", Path.c_str());
  }
  M["failed_frac"] = ratio(static_cast<double>(Failed), Attempted);

  for (const std::string &F : Failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());
  std::printf("perfbench workload=%s seed=%llu trace=%d passes=%zu "
              "attempted=%llu failed=%llu\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Trace ? 1 : 0, NumPasses,
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  std::printf("untraced pass wall s: n=%zu fastest=%s median=%s slowest=%s\n",
              Untraced.Wall.size(), number(M["wall_s"]).c_str(),
              number(median(Untraced.Wall)).c_str(),
              number(*std::max_element(Untraced.Wall.begin(),
                                       Untraced.Wall.end()))
                  .c_str());
  std::string Json;
  auto Emit = [&](const MetricDef &D) {
    std::printf("metric %-36s %-24s %s\n", D.Name, number(M[D.Name]).c_str(),
                D.Unit);
    Json += std::string(Json.empty() ? "" : ", ") + "\"" + D.Name +
            "\": {\"value\": " + number(M[D.Name]) + ", \"unit\": \"" +
            D.Unit + "\"}";
  };
  if (O.Trace) {
    for (const MetricDef &D : PerLayer)
      Emit(D);
  } else {
    for (const MetricDef &D : EndToEnd)
      Emit(D);
    // Shown for people; the JSON carries it as attempted/failed.
    std::printf("metric %-36s %-24s %s\n", "failed_frac",
                number(M["failed_frac"]).c_str(), "ratio");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Json.c_str());
  return Failed == 0 ? 0 : 1;
}
