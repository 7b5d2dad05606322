//===- obs/Metrics.cpp - The engine metric table --------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Snapshot.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <span>

using namespace bayonet;

namespace {

struct MetricDesc {
  const char *Name;
  const char *Help;
  MetricKind Kind;
  std::span<const double> Bounds = {}; ///< Histogram bucket upper bounds.
};

// Frontier sizes span a few states on toy programs to hundreds of
// thousands before a budget trips; step durations are sub-ms to seconds.
constexpr double SizeBounds[] = {1,    8,     64,     512,
                                 4096, 32768, 262144, 2097152};
constexpr double MsBounds[] = {0.1, 0.5, 2, 10, 50, 250, 1000, 5000};
// ESS fractions live in [0, 1]; bounds chosen so a degeneracy collapse
// (most mass below 0.1) is visible at a glance.
constexpr double FracBounds[] = {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1};

constexpr MetricKind Counter = MetricKind::Counter;
constexpr MetricKind Gauge = MetricKind::Gauge;
constexpr MetricKind Histogram = MetricKind::Histogram;

/// One row per Metric, in enum order.
constexpr MetricDesc Descs[NumMetrics] = {
    {"bayonet_states_expanded_total",
     "NetConfig states expanded by the exact engines", Counter},
    {"bayonet_merge_attempts_total",
     "State-merge table lookups during frontier folding", Counter},
    {"bayonet_merge_hits_total",
     "Merge lookups that coalesced into an existing state", Counter},
    {"bayonet_sched_steps_total", "Scheduler steps executed", Counter},
    {"bayonet_particles_total", "Particles advanced by the samplers", Counter},
    {"bayonet_resamples_total", "SMC resample generations triggered", Counter},
    {"bayonet_budget_trips_total", "Resource-budget violations recorded",
     Counter},
    {"bayonet_fallbacks_total", "Exact-to-SMC fallbacks taken", Counter},
    {"bayonet_peak_frontier_states", "Largest frontier size observed", Gauge},
    {"bayonet_frontier_size", "Frontier size per scheduler step", Histogram,
     SizeBounds},
    {"bayonet_step_duration_ms", "Wall milliseconds per scheduler step",
     Histogram, MsBounds},
    {"bayonet_pool_batches_total", "Thread-pool batches dispatched", Counter},
    {"bayonet_pool_tasks_total", "Thread-pool tasks executed", Counter},
    {"bayonet_smc_ess_fraction", "Per-step effective-sample-size fraction",
     Histogram, FracBounds},
    {"bayonet_degeneracy_steps_total",
     "SMC steps whose ESS fell below the degeneracy warning level", Counter},
    {"bayonet_txcache_hits_total",
     "Transition-cache hits (memoized node-program expansions replayed)",
     Counter},
    {"bayonet_txcache_misses_total",
     "Transition-cache misses (node-program expansions computed and staged)",
     Counter},
    {"bayonet_txcache_evictions_total",
     "Transition-cache entries evicted by the FIFO byte cap", Counter},
    {"bayonet_txcache_bytes", "Peak retained transition-cache bytes", Gauge},
    {"bayonet_intern_hits_total",
     "Intern-arena hits (blocks canonicalized to a published class)",
     Counter},
    {"bayonet_intern_misses_total",
     "Intern-arena misses (new content classes staged for publication)",
     Counter},
    {"bayonet_intern_evictions_total",
     "Intern-arena content classes evicted by the FIFO byte cap", Counter},
    {"bayonet_intern_bytes", "Peak retained intern-arena bytes", Gauge},
    {"bayonet_checkpoint_writes_total",
     "Durable snapshots written by the Checkpointer", Counter},
    {"bayonet_checkpoint_bytes_total",
     "Total snapshot bytes written by the Checkpointer", Counter},
};

constexpr uint32_t numSlots(const MetricDesc &D) {
  return D.Kind == MetricKind::Histogram
             ? static_cast<uint32_t>(D.Bounds.size()) + 2
             : 1;
}

/// FirstSlot[I] is metric I's first slot; the last entry is the total.
constexpr std::array<uint32_t, NumMetrics + 1> FirstSlot = [] {
  std::array<uint32_t, NumMetrics + 1> A{};
  for (size_t I = 0; I < NumMetrics; ++I)
    A[I + 1] = A[I] + numSlots(Descs[I]);
  return A;
}();
static_assert(FirstSlot[NumMetrics] == MetricTable::NumSlots);

uint32_t first(Metric M) { return FirstSlot[static_cast<size_t>(M)]; }
const MetricDesc &desc(Metric M) { return Descs[static_cast<size_t>(M)]; }

/// Histograms store their running sum as a micro-unit integer, which keeps
/// six fractional digits of millisecond latencies.
constexpr double SumScale = 1e6;

std::string fmtDouble(double V) {
  char Buf[64];
  if (V == static_cast<uint64_t>(V) && V < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// Prometheus text exposition 0.0.4: in HELP text, backslash and newline
/// must be escaped as `\\` and `\n`.
std::string escapeHelp(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

} // namespace

void MetricTable::add(Metric M, uint64_t N) { Slots[first(M)] += N; }

void MetricTable::set(Metric M, uint64_t V) { Slots[first(M)] = V; }

void MetricTable::max(Metric M, uint64_t V) {
  uint64_t &S = Slots[first(M)];
  S = std::max(S, V);
}

void MetricTable::observe(Metric M, double V) {
  const MetricDesc &D = desc(M);
  assert(D.Kind == MetricKind::Histogram && "observe needs a histogram");
  size_t Bucket = std::find_if(D.Bounds.begin(), D.Bounds.end(),
                               [V](double B) { return V <= B; }) -
                  D.Bounds.begin(); // +Inf when past the last bound.
  ++Slots[first(M) + Bucket];
  Slots[first(M) + numSlots(D) - 1] +=
      V <= 0 ? 0 : static_cast<uint64_t>(std::llround(V * SumScale));
}

uint64_t MetricTable::value(Metric M) const {
  if (desc(M).Kind != MetricKind::Histogram)
    return Slots[first(M)];
  uint64_t Count = 0;
  for (uint32_t I = 0; I + 1 < numSlots(desc(M)); ++I)
    Count += Slots[first(M) + I];
  return Count;
}

std::vector<MetricValue> MetricTable::snapshot() const {
  std::vector<MetricValue> Out(NumMetrics);
  for (size_t MI = 0; MI < NumMetrics; ++MI) {
    const MetricDesc &D = Descs[MI];
    const uint32_t Slot = FirstSlot[MI];
    MetricValue &V = Out[MI];
    V.Name = D.Name;
    V.Help = D.Help;
    V.Kind = D.Kind;
    if (D.Kind != MetricKind::Histogram) {
      V.Value = Slots[Slot];
      continue;
    }
    V.BucketBounds.assign(D.Bounds.begin(), D.Bounds.end());
    uint64_t Cumulative = 0;
    for (uint32_t I = 0; I + 1 < numSlots(D); ++I) {
      Cumulative += Slots[Slot + I];
      V.BucketCounts.push_back(Cumulative);
    }
    V.Value = Cumulative;
    V.Sum = static_cast<double>(Slots[Slot + numSlots(D) - 1]) / SumScale;
  }
  return Out;
}

void MetricTable::snapshotTo(SnapWriter &W) const {
  W.u64(NumMetrics);
  for (size_t MI = 0; MI < NumMetrics; ++MI) {
    W.str(Descs[MI].Name);
    W.u64(numSlots(Descs[MI]));
    for (uint32_t I = 0; I < numSlots(Descs[MI]); ++I)
      W.u64(Slots[FirstSlot[MI] + I]);
  }
}

bool MetricTable::restoreFrom(SnapReader &R) {
  uint64_t N = R.count();
  for (uint64_t MI = 0; MI < N && R.ok(); ++MI) {
    std::string Name = R.str();
    uint64_t NumSlots = R.count();
    const auto *Found =
        std::find_if(std::begin(Descs), std::end(Descs),
                     [&](const MetricDesc &D) { return Name == D.Name; });
    const size_t Index = Found - std::begin(Descs);
    const uint32_t Known = Index < NumMetrics ? numSlots(*Found) : 0;
    for (uint64_t I = 0; I < NumSlots && R.ok(); ++I) {
      uint64_t V = R.u64();
      if (I < Known)
        Slots[FirstSlot[Index] + I] = V;
    }
  }
  return R.ok();
}

std::string bayonet::renderProm(const std::vector<MetricValue> &Values) {
  std::string Out;
  for (const MetricValue &V : Values) {
    Out += "# HELP " + V.Name + " " + escapeHelp(V.Help) + "\n";
    if (V.Kind != MetricKind::Histogram) {
      Out += "# TYPE " + V.Name +
             (V.Kind == MetricKind::Counter ? " counter\n" : " gauge\n");
      Out += V.Name + " " + std::to_string(V.Value) + "\n";
      continue;
    }
    Out += "# TYPE " + V.Name + " histogram\n";
    for (size_t I = 0; I < V.BucketCounts.size(); ++I) {
      std::string Le =
          I < V.BucketBounds.size() ? fmtDouble(V.BucketBounds[I]) : "+Inf";
      Out += V.Name + "_bucket{le=\"" + Le + "\"} " +
             std::to_string(V.BucketCounts[I]) + "\n";
    }
    Out += V.Name + "_sum " + fmtDouble(V.Sum) + "\n";
    Out += V.Name + "_count " + std::to_string(V.Value) + "\n";
  }
  return Out;
}
