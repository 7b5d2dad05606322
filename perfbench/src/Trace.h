//===- perfbench/src/Trace.h - Benchmark-side span recording ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer of the
/// library. A span names its layer ("lang", "translate", "psi", "interp",
/// "symbolic", "api", "harness"), the call, the query it belongs to, and
/// its parent; counts go into its args. Spans stay in memory and are
/// written as Chrome-trace JSON at the end of the run. With the recorder
/// off every operation is a no-op, which is the untraced measurement.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PERFBENCH_TRACE_H
#define BAYONET_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Since.
inline double secondsSince(Clock::time_point Since) {
  return std::chrono::duration<double>(Clock::now() - Since).count();
}

struct SpanRecord {
  const char *Layer; ///< Static string: the layer the call enters.
  const char *Name;  ///< Static string: the call.
  uint64_t Query;    ///< Spans of one query share this id; 0 = none.
  int Parent;        ///< Index into the span list; -1 for a root.
  double Start = 0;  ///< Seconds since the recorder's epoch.
  double End = 0;
  std::vector<std::pair<const char *, double>> Args;

  double dur() const { return End - Start; }
  /// The arg named \p Key, or 0 when absent.
  double arg(const char *Key) const;
};

class Recorder {
public:
  explicit Recorder(bool On) : On(On), Epoch(Clock::now()) {}

  bool on() const { return On; }

  /// Starts a new query: spans opened until the next call share its id.
  void beginQuery() { ++CurQuery; }

  /// Opens a child of the innermost open span. Returns -1 when off.
  int open(const char *Layer, const char *Name);
  void close(int Index);
  /// Records a completed child of the innermost open span that ends now
  /// and lasted \p Seconds — an engine's own wall time, reported inside a
  /// call the benchmark can only time as a whole.
  int closedChild(const char *Layer, const char *Name, double Seconds);
  void arg(int Index, const char *Key, double Value);

  const std::vector<SpanRecord> &spans() const { return Spans; }
  /// Each span's duration minus the part its direct children cover.
  std::vector<double> selfTimes() const;
  /// Writes every span as a Chrome-trace "X" event. Returns success.
  bool writeChrome(const std::string &Path) const;

private:
  bool On;
  Clock::time_point Epoch;
  uint64_t CurQuery = 0;
  std::vector<SpanRecord> Spans;
  std::vector<int> Stack;
};

/// RAII span: opens on construction, closes on end() or destruction.
class LayerSpan {
public:
  LayerSpan(Recorder &R, const char *Layer, const char *Name)
      : R(R), Index(R.open(Layer, Name)) {}
  ~LayerSpan() { end(); }
  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;

  void end() {
    if (Index >= 0)
      R.close(Index);
    Index = -1;
  }
  void arg(const char *Key, double Value) {
    if (Index >= 0)
      R.arg(Index, Key, Value);
  }
  /// The span's index in the recorder; -1 when off or ended.
  int index() const { return Index; }

private:
  Recorder &R;
  int Index;
};

} // namespace perfbench

#endif // BAYONET_PERFBENCH_TRACE_H
