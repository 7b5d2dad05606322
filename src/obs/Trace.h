//===- obs/Trace.h - Span-based tracing with Chrome-trace export -*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span-based tracing for the inference pipeline. A Tracer records a tree
/// of spans (RAII `Span` objects) plus instant events attached to the
/// innermost open span, and renders the whole run as Chrome-trace JSON
/// (loadable in chrome://tracing or Perfetto).
///
/// Determinism contract: span IDs come from a serial counter, never from
/// wall-clock or thread identity, and events are stored in begin order —
/// spans are only opened at serial orchestration points (pipeline phases,
/// scheduler rounds, resample generations), so the event sequence, names,
/// IDs, parent links, and args are bit-identical across runs and thread
/// counts. Only the `ts`/`dur` fields (microseconds) vary.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_TRACE_H
#define BAYONET_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bayonet {

class Tracer;
class SnapReader;
class SnapWriter;

/// RAII handle for one span. Default-constructed spans are no-ops, which is
/// how the disabled path stays branch-only. Move-only; ends the span on
/// destruction.
class Span {
public:
  Span() = default;
  Span(Span &&O) noexcept { *this = std::move(O); }
  Span &operator=(Span &&O) noexcept {
    end();
    T = O.T;
    Index = O.Index;
    Id = O.Id;
    O.T = nullptr;
    return *this;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() { end(); }

  /// Attaches a key/value argument to the span (shows up under `args` in
  /// the trace viewer). Safe on a no-op span.
  void arg(const std::string &Key, const std::string &Value);
  void arg(const std::string &Key, uint64_t Value);

  /// Ends the span now (destruction otherwise does it).
  void end();

  /// Deterministic span id; 0 for a no-op span.
  uint64_t id() const { return Id; }

private:
  friend class Tracer;
  Span(Tracer *T, size_t Index, uint64_t Id) : T(T), Index(Index), Id(Id) {}

  Tracer *T = nullptr;
  size_t Index = 0; ///< Index of this span's event in the tracer log.
  uint64_t Id = 0;
};

/// Collects spans and instant events for one run and renders them as
/// Chrome-trace JSON. Thread-safe (a mutex guards the log) — instant
/// events may arrive from worker threads (e.g. a budget trip) — but spans
/// themselves must open/close in LIFO order, which the serial orchestration
/// sites guarantee.
class Tracer {
public:
  Tracer();

  /// Opens a span nested under the innermost open span.
  Span span(std::string Name);

  /// Records an instant event attached to the innermost open span.
  void event(std::string Name,
             std::vector<std::pair<std::string, std::string>> Args = {});

  /// Number of events recorded so far (spans + instants).
  size_t numEvents() const;

  /// Renders the full log as `{"traceEvents":[...]}` JSON. Span events use
  /// phase "X" (complete: ts + dur), instants phase "i". Every event
  /// carries `span_id` and `parent_id` args so nesting can be validated
  /// without relying on timestamps.
  std::string renderChromeJson() const;

  //===--------------------------------------------------------------------===//
  // Checkpoint support (support/Snapshot.h)
  //===--------------------------------------------------------------------===//

  /// Captures the current log position for a later boundary-exact snapshot
  /// (events appended after the mark are truncated out of the write).
  void captureMark(size_t &NumEvents, uint64_t &NextId,
                   std::vector<uint64_t> &OpenStack) const;

  /// Serializes the log. When \p NumEvents is SIZE_MAX the live state is
  /// written; otherwise the log is truncated to the marked boundary and
  /// \p NextId / \p OpenAt stand in for the live counter and open stack.
  void snapshotTo(SnapWriter &W, size_t NumEvents = SIZE_MAX,
                  uint64_t NextId = 0,
                  const std::vector<uint64_t> *OpenAt = nullptr) const;

  /// Replaces the whole log with a checkpointed one and arms span
  /// adoption: the spans that were open at the snapshot boundary are
  /// re-handed out (outermost first) to the next matching span() calls, so
  /// a resumed run continues inside the same span tree instead of opening
  /// duplicates. Clears the adopted spans' args — the resuming code path
  /// re-applies them. Returns false (leaving the tracer empty) on a
  /// corrupt section.
  bool restoreFrom(SnapReader &R);

private:
  friend class Span;

  struct Event {
    std::string Name;
    char Phase;          ///< 'X' span, 'i' instant.
    uint64_t Id;         ///< Deterministic serial id (spans; 0 for instants).
    uint64_t ParentId;   ///< Enclosing span id, 0 at top level.
    uint64_t TsUs;       ///< Microseconds since tracer construction.
    uint64_t DurUs = 0;  ///< Span duration; filled when the span ends.
    bool Open = false;   ///< Span still open (dur not yet final).
    std::vector<std::pair<std::string, std::string>> Args;
  };

  void endSpan(size_t Index, uint64_t Id);
  void spanArg(size_t Index, std::string Key, std::string Value);
  uint64_t nowUs() const;
  void appendEventJson(std::string &Out, const Event &E) const;

  mutable std::mutex Mu;
  std::vector<Event> Events;
  std::vector<uint64_t> OpenStack; ///< Ids of currently open spans.
  uint64_t NextId = 1;
  std::chrono::steady_clock::time_point Epoch;
  /// Restored-open-span adoption queue: indices into Events of the spans
  /// open at the snapshot boundary, outermost first. span() hands these
  /// back instead of opening new events until the queue drains or a name
  /// mismatch drops it (fail-open).
  std::vector<size_t> AdoptQueue;
  size_t AdoptNext = 0;
};

} // namespace bayonet

#endif // BAYONET_OBS_TRACE_H
