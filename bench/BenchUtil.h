//===- bench/BenchUtil.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: loading networks from
/// scenario sources, running the engines, and accumulating a
/// paper-vs-measured comparison table that each binary prints after its
/// google-benchmark timings.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_BENCH_BENCHUTIL_H
#define BAYONET_BENCH_BENCHUTIL_H

#include "AllocCounter.h"
#include "api/Bayonet.h"

#include <benchmark/benchmark.h>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace bayonet::benchutil {

/// Directory every machine-readable benchmark artifact is written to:
/// $BAYONET_BENCH_OUT when set (scripts/bench_all.sh sets it), the current
/// directory otherwise. The caller is responsible for the directory
/// existing.
inline std::string benchOutDir() {
  const char *Dir = std::getenv("BAYONET_BENCH_OUT");
  return Dir && *Dir ? Dir : ".";
}

/// Joins benchOutDir() with a file name.
inline std::string outPath(const std::string &File) {
  return benchOutDir() + "/" + File;
}

/// The suite name of a bench binary: basename of argv[0] without the
/// "bench_" prefix ("bench/bench_table1_gossip" -> "table1_gossip").
inline std::string suiteName(const char *Argv0) {
  std::string Name = Argv0 ? Argv0 : "unknown";
  size_t Slash = Name.find_last_of('/');
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  if (Name.rfind("bench_", 0) == 0)
    Name = Name.substr(6);
  return Name;
}

/// Loads a network or aborts the benchmark binary.
inline LoadedNetwork mustLoad(const std::string &Source) {
  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  if (!Net) {
    std::fprintf(stderr, "benchmark network failed to load:\n%s",
                 Diags.toString().c_str());
    std::exit(1);
  }
  return std::move(*Net);
}

/// One row of the final paper-vs-measured comparison table.
struct Row {
  std::string Benchmark;
  std::string Engine;
  std::string Paper;    ///< The value the paper reports.
  std::string Measured; ///< What this reproduction computes.
  double Seconds = 0;   ///< Wall-clock of the measured run.
  /// Heap allocations per benchmark iteration, measured when the binary
  /// was built with BAYONET_COUNT_ALLOCS; negative = not measured.
  double AllocsPerIter = -1;
};

/// Global registry the benchmarks append to.
inline std::vector<Row> &rows() {
  static std::vector<Row> Rows;
  return Rows;
}

inline void addRow(std::string Benchmark, std::string Engine,
                   std::string Paper, std::string Measured, double Seconds,
                   double AllocsPerIter = -1) {
  // google-benchmark may invoke a benchmark function several times while
  // estimating iteration counts; keep one row per (benchmark, engine).
  for (Row &R : rows()) {
    if (R.Benchmark == Benchmark && R.Engine == Engine) {
      R.Paper = std::move(Paper);
      R.Measured = std::move(Measured);
      R.Seconds = Seconds;
      R.AllocsPerIter = AllocsPerIter;
      return;
    }
  }
  rows().push_back({std::move(Benchmark), std::move(Engine), std::move(Paper),
                    std::move(Measured), Seconds, AllocsPerIter});
}

/// Prints the accumulated comparison table (call after
/// benchmark::RunSpecifiedBenchmarks()).
inline void printComparison(const char *Title) {
  std::printf("\n=== %s: paper vs measured ===\n", Title);
  std::printf("%-36s %-12s %-14s %-20s %10s\n", "benchmark", "engine",
              "paper", "measured", "time[s]");
  for (const Row &R : rows())
    std::printf("%-36s %-12s %-14s %-20s %10.3f\n", R.Benchmark.c_str(),
                R.Engine.c_str(), R.Paper.c_str(), R.Measured.c_str(),
                R.Seconds);
}

/// Escapes a string for embedding in JSON output.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// Writes the paper-vs-measured comparison table as machine-readable JSON
/// (BENCH_<suite>_rows.json in benchOutDir()), so every bench binary — not
/// just the scaling one — emits a uniform artifact.
inline void writeRowsJson(const char *Argv0) {
  if (rows().empty())
    return;
  std::string Suite = suiteName(Argv0);
  std::string Path = outPath("BENCH_" + Suite + "_rows.json");
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "{\"suite\": \"%s\", \"rows\": [\n", Suite.c_str());
  const std::vector<Row> &Rows = rows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"engine\": \"%s\", "
                 "\"paper\": \"%s\", \"measured\": \"%s\", "
                 "\"seconds\": %.6f",
                 jsonEscape(R.Benchmark).c_str(), jsonEscape(R.Engine).c_str(),
                 jsonEscape(R.Paper).c_str(), jsonEscape(R.Measured).c_str(),
                 R.Seconds);
    if (R.AllocsPerIter >= 0)
      std::fprintf(F, ", \"allocs_per_iter\": %.1f", R.AllocsPerIter);
    std::fprintf(F, "}%s\n", I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path.c_str(), Rows.size());
}

/// Formats a double with 4 decimals.
inline std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f", V);
  return Buf;
}

/// One timing of a benchmark at a specific thread count. The scaling
/// benchmarks record each workload once serial and once parallel; the
/// pairs land in BENCH_scaling.json so the 1-thread vs N-thread speedup
/// is machine-readable.
struct ScalingRow {
  std::string Benchmark;
  unsigned Threads = 1;
  double Seconds = 0;
  std::string Value; ///< Engine result — must match across thread counts.
};

inline std::vector<ScalingRow> &scalingRows() {
  static std::vector<ScalingRow> Rows;
  return Rows;
}

inline void addScalingRow(std::string Benchmark, unsigned Threads,
                          double Seconds, std::string Value) {
  for (ScalingRow &R : scalingRows()) {
    if (R.Benchmark == Benchmark && R.Threads == Threads) {
      R.Seconds = Seconds;
      R.Value = std::move(Value);
      return;
    }
  }
  scalingRows().push_back(
      {std::move(Benchmark), Threads, Seconds, std::move(Value)});
}

/// Writes the collected thread-scaling rows as a JSON array (no-op when
/// the binary recorded none). Rows with Threads > 1 carry the speedup
/// against the matching 1-thread row.
inline void writeScalingJson(const char *Path) {
  if (scalingRows().empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "[\n");
  const std::vector<ScalingRow> &Rows = scalingRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const ScalingRow &R = Rows[I];
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"threads\": %u, "
                 "\"seconds\": %.6f, \"value\": \"%s\"",
                 R.Benchmark.c_str(), R.Threads, R.Seconds, R.Value.c_str());
    if (R.Threads > 1) {
      for (const ScalingRow &Base : Rows)
        if (Base.Benchmark == R.Benchmark && Base.Threads == 1 &&
            R.Seconds > 0) {
          std::fprintf(F, ", \"speedup_vs_1thread\": %.3f",
                       Base.Seconds / R.Seconds);
          break;
        }
    }
    std::fprintf(F, "}%s\n", I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path, Rows.size());
}

/// One governance-overhead measurement: the same workload run ungoverned
/// and with a (never-tripping) budget tracker attached. The charging
/// fast-path is the only difference, so the pair bounds the cost of
/// resource governance; the target is under 2% overhead.
struct BudgetRow {
  std::string Benchmark;
  double UngovernedSeconds = 0;
  double GovernedSeconds = 0;
};

inline std::vector<BudgetRow> &budgetRows() {
  static std::vector<BudgetRow> Rows;
  return Rows;
}

inline void addBudgetRow(std::string Benchmark, double UngovernedSeconds,
                         double GovernedSeconds) {
  for (BudgetRow &R : budgetRows()) {
    if (R.Benchmark == Benchmark) {
      R.UngovernedSeconds = UngovernedSeconds;
      R.GovernedSeconds = GovernedSeconds;
      return;
    }
  }
  budgetRows().push_back(
      {std::move(Benchmark), UngovernedSeconds, GovernedSeconds});
}

/// Writes the governance-overhead rows as a JSON array (no-op when the
/// binary recorded none).
inline void writeBudgetJson(const char *Path) {
  if (budgetRows().empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "[\n");
  const std::vector<BudgetRow> &Rows = budgetRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const BudgetRow &R = Rows[I];
    double Pct = R.UngovernedSeconds > 0
                     ? (R.GovernedSeconds / R.UngovernedSeconds - 1.0) * 100.0
                     : 0.0;
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"ungoverned_s\": %.6f, "
                 "\"governed_s\": %.6f, \"overhead_pct\": %.2f}%s\n",
                 R.Benchmark.c_str(), R.UngovernedSeconds, R.GovernedSeconds,
                 Pct, I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path, Rows.size());
}

/// One observability-overhead measurement: the same workload run with no
/// ObsContext attached (the disabled path: one null-check branch per probe
/// site) and with tracing + metrics fully enabled. Targets: the disabled
/// path within the noise floor (< 1%), enabled under 5%.
struct ObsRow {
  std::string Benchmark;
  double DisabledSeconds = 0;
  double EnabledSeconds = 0;
};

inline std::vector<ObsRow> &obsRows() {
  static std::vector<ObsRow> Rows;
  return Rows;
}

inline void addObsRow(std::string Benchmark, double DisabledSeconds,
                      double EnabledSeconds) {
  for (ObsRow &R : obsRows()) {
    if (R.Benchmark == Benchmark) {
      R.DisabledSeconds = DisabledSeconds;
      R.EnabledSeconds = EnabledSeconds;
      return;
    }
  }
  obsRows().push_back(
      {std::move(Benchmark), DisabledSeconds, EnabledSeconds});
}

/// Writes the observability-overhead rows as a JSON array (no-op when the
/// binary recorded none).
inline void writeObsJson(const char *Path) {
  if (obsRows().empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "[\n");
  const std::vector<ObsRow> &Rows = obsRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const ObsRow &R = Rows[I];
    double Pct = R.DisabledSeconds > 0
                     ? (R.EnabledSeconds / R.DisabledSeconds - 1.0) * 100.0
                     : 0.0;
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"obs_disabled_s\": %.6f, "
                 "\"obs_enabled_s\": %.6f, \"overhead_pct\": %.2f}%s\n",
                 R.Benchmark.c_str(), R.DisabledSeconds, R.EnabledSeconds,
                 Pct, I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path, Rows.size());
}

/// One checkpoint-overhead measurement: the same workload run with no
/// checkpointer and with a Checkpointer writing durable snapshots at the
/// default `--checkpoint-every` stride (32). The pair bounds what durable
/// checkpoint/restore costs a run that never crashes; the target is under
/// 3% overhead.
struct SnapshotRow {
  std::string Benchmark;
  double PlainSeconds = 0;
  double CheckpointedSeconds = 0;
  uint64_t SnapshotsWritten = 0;
};

inline std::vector<SnapshotRow> &snapshotRows() {
  static std::vector<SnapshotRow> Rows;
  return Rows;
}

inline void addSnapshotRow(std::string Benchmark, double PlainSeconds,
                           double CheckpointedSeconds,
                           uint64_t SnapshotsWritten) {
  for (SnapshotRow &R : snapshotRows()) {
    if (R.Benchmark == Benchmark) {
      R.PlainSeconds = PlainSeconds;
      R.CheckpointedSeconds = CheckpointedSeconds;
      R.SnapshotsWritten = SnapshotsWritten;
      return;
    }
  }
  snapshotRows().push_back({std::move(Benchmark), PlainSeconds,
                            CheckpointedSeconds, SnapshotsWritten});
}

/// Writes the checkpoint-overhead rows as a JSON array (no-op when the
/// binary recorded none).
inline void writeSnapshotJson(const char *Path) {
  if (snapshotRows().empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "[\n");
  const std::vector<SnapshotRow> &Rows = snapshotRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const SnapshotRow &R = Rows[I];
    double Pct = R.PlainSeconds > 0
                     ? (R.CheckpointedSeconds / R.PlainSeconds - 1.0) * 100.0
                     : 0.0;
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"plain_s\": %.6f, "
                 "\"checkpointed_s\": %.6f, \"snapshots_written\": %llu, "
                 "\"overhead_pct\": %.2f}%s\n",
                 R.Benchmark.c_str(), R.PlainSeconds, R.CheckpointedSeconds,
                 static_cast<unsigned long long>(R.SnapshotsWritten), Pct,
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path, Rows.size());
}

/// One profiler-overhead measurement: the same workload with no profiler
/// attached (every charge site is one null-check branch) and with the
/// source-attributed cost profiler fully live — attribution stack and
/// lane shard drains. Targets: the off path within the
/// noise floor (~0%), on under 3%.
struct ProfileRow {
  std::string Benchmark;
  std::string Mode; // "on" | "off"
  double BaselineSeconds = 0;
  double ProfiledSeconds = 0;
};

inline std::vector<ProfileRow> &profileRows() {
  static std::vector<ProfileRow> Rows;
  return Rows;
}

inline void addProfileRow(std::string Benchmark, std::string Mode,
                          double BaselineSeconds, double ProfiledSeconds) {
  for (ProfileRow &R : profileRows()) {
    if (R.Benchmark == Benchmark) {
      R.Mode = std::move(Mode);
      R.BaselineSeconds = BaselineSeconds;
      R.ProfiledSeconds = ProfiledSeconds;
      return;
    }
  }
  profileRows().push_back({std::move(Benchmark), std::move(Mode),
                           BaselineSeconds, ProfiledSeconds});
}

/// Writes the profiler-overhead rows as a JSON array (no-op when the
/// binary recorded none).
inline void writeProfileJson(const char *Path) {
  if (profileRows().empty())
    return;
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "[\n");
  const std::vector<ProfileRow> &Rows = profileRows();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const ProfileRow &R = Rows[I];
    double Pct = R.BaselineSeconds > 0
                     ? (R.ProfiledSeconds / R.BaselineSeconds - 1.0) * 100.0
                     : 0.0;
    std::fprintf(F,
                 "  {\"benchmark\": \"%s\", \"profiling\": \"%s\", "
                 "\"baseline_s\": %.6f, \"profiled_s\": %.6f, "
                 "\"overhead_pct\": %.2f}%s\n",
                 R.Benchmark.c_str(), R.Mode.c_str(), R.BaselineSeconds,
                 R.ProfiledSeconds, Pct, I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  std::fclose(F);
  std::printf("wrote %s (%zu rows)\n", Path, Rows.size());
}

/// Standard main: run the registered benchmarks, then print the table and
/// write every machine-readable artifact into benchOutDir().
#define BAYONET_BENCH_MAIN(TITLE)                                            \
  int main(int argc, char **argv) {                                         \
    benchmark::Initialize(&argc, argv);                                     \
    if (benchmark::ReportUnrecognizedArguments(argc, argv))                 \
      return 1;                                                             \
    benchmark::RunSpecifiedBenchmarks();                                    \
    benchmark::Shutdown();                                                  \
    bayonet::benchutil::printComparison(TITLE);                             \
    bayonet::benchutil::writeRowsJson(argv[0]);                             \
    bayonet::benchutil::writeScalingJson(                                   \
        bayonet::benchutil::outPath("BENCH_scaling.json").c_str());         \
    bayonet::benchutil::writeBudgetJson(                                    \
        bayonet::benchutil::outPath("BENCH_budget.json").c_str());          \
    bayonet::benchutil::writeObsJson(                                       \
        bayonet::benchutil::outPath("BENCH_obs.json").c_str());             \
    bayonet::benchutil::writeSnapshotJson(                                  \
        bayonet::benchutil::outPath("BENCH_snapshot.json").c_str());        \
    bayonet::benchutil::writeProfileJson(                                   \
        bayonet::benchutil::outPath("BENCH_profile.json").c_str());         \
    return 0;                                                               \
  }

} // namespace bayonet::benchutil

#endif // BAYONET_BENCH_BENCHUTIL_H
