//===- obs/Profile.h - Source-attributed cost profiler ---------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A source-attributed cost profiler for the inference engines: every unit
/// of engine work — states expanded, statement executions, PRNG draws,
/// merge attempts/hits, transition-cache hits/misses, wall time, and (when
/// an allocation source is registered) heap allocations — is charged to a
/// stable attribution key: the stack of engine phases and program source
/// locations active when the work happened.
///
/// Keys form a tree of interned frames ("exact" > "step" > "expand" >
/// "def router" > "observe@4:7"). The serial orchestration thread owns the
/// attribution stack (push/pop at the engines' existing serial
/// step/statement boundaries — the same seams Budget/Obs/Snapshot use) and
/// all aggregate cells. Parallel lanes charge per-statement counters into
/// per-lane shard arrays indexed by slot; the serial thread folds the
/// shards into the aggregate only after a step completes (and discards
/// them when a step aborts), so aggregated *count* columns are pure
/// per-event sums over a thread-count-independent event set — bit-identical
/// for every thread count, with or without the transition cache (cache
/// hits replay the per-statement counts recorded when the entry was
/// computed), and across checkpoint crash/resume (the aggregate is part of
/// the snapshot's common section). Time and allocation columns are
/// explicitly nondeterministic and excluded from every fingerprint.
///
/// Export views: deterministic JSON (count columns sorted by key), a
/// collapsed-stack flamegraph (flamegraph.pl and speedscope both import
/// it), and an annotated source listing.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_OBS_PROFILE_H
#define BAYONET_OBS_PROFILE_H

#include "support/Diag.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bayonet {

struct DefDecl;
class SnapReader;
class SnapWriter;

/// Per-key cost cells. The first seven columns are deterministic counts
/// (identical across thread counts / TxCache settings / crash-resume);
/// WallNs and Allocs are wall-clock and heap-allocation attributions,
/// explicitly nondeterministic and excluded from canonical renderings.
struct ProfCounts {
  uint64_t States = 0;        ///< Engine work units (configs / particles /
                              ///< branches) — sums to the engine total.
  uint64_t Execs = 0;         ///< Statement executions (one per live world
                              ///< / particle that ran the statement).
  uint64_t Samples = 0;       ///< PRNG draws (sampling engines).
  uint64_t MergeAttempts = 0; ///< State-merge lookups.
  uint64_t MergeHits = 0;     ///< Merge lookups that coalesced a state.
  uint64_t TxHits = 0;        ///< Transition-cache replays.
  uint64_t TxMisses = 0;      ///< Transition-cache computed expansions.
  uint64_t InternHits = 0;    ///< Intern-arena canonicalization hits.
  uint64_t InternMisses = 0;  ///< Intern-arena staged content classes.
  uint64_t WallNs = 0;        ///< NONDETERMINISTIC: attributed wall time.
  uint64_t Allocs = 0;        ///< NONDETERMINISTIC: attributed allocations.

  bool anyDeterministic() const {
    return States | Execs | Samples | MergeAttempts | MergeHits | TxHits |
           TxMisses | InternHits | InternMisses;
  }
  void addDeterministic(const ProfCounts &O) {
    States += O.States;
    Execs += O.Execs;
    Samples += O.Samples;
    MergeAttempts += O.MergeAttempts;
    MergeHits += O.MergeHits;
    TxHits += O.TxHits;
    TxMisses += O.TxMisses;
    InternHits += O.InternHits;
    InternMisses += O.InternMisses;
  }
};

/// The profiler. Construction is cheap; all registration and aggregate
/// mutation happens on the serial orchestration thread. See the file
/// comment for the determinism contract.
class Profiler {
public:
  Profiler() = default;
  Profiler(const Profiler &) = delete;
  Profiler &operator=(const Profiler &) = delete;

  //===--------------------------------------------------------------------===//
  // Attribution stack (serial thread only)
  //===--------------------------------------------------------------------===//

  /// Pushes a frame under the current stack top, interning it if new.
  /// Returns the frame's slot. Re-pushing the same label finds the same
  /// slot, so per-step push/pop cycles allocate nothing after the first.
  uint32_t push(std::string_view Label, SourceLoc Loc = {});
  void pop();

  /// The current stack top slot (InvalidSlot at root).
  uint32_t current() const {
    return Stack.empty() ? InvalidSlot : Stack.back();
  }

  /// Interns a child frame under the current stack top without pushing.
  uint32_t child(std::string_view Label, SourceLoc Loc = {}) {
    return internAt(current(), Label, Loc);
  }

  /// Interns a child frame under an explicit parent slot (InvalidSlot =
  /// root level).
  uint32_t internAt(uint32_t Parent, std::string_view Label, SourceLoc Loc);

  static constexpr uint32_t InvalidSlot = UINT32_MAX;

  /// RAII stack frame that also attributes its wall time (the only column
  /// a scope charges — deterministic counts are charged explicitly at
  /// completed boundaries so an aborted scope never leaks them).
  class Scope {
  public:
    Scope() = default;
    Scope(Profiler *P, std::string_view Label, SourceLoc Loc = {}) : P(P) {
      if (P) {
        Slot = P->push(Label, Loc);
        Start = std::chrono::steady_clock::now();
      }
    }
    Scope(Scope &&O) noexcept : P(O.P), Slot(O.Slot), Start(O.Start) {
      O.P = nullptr;
    }
    Scope &operator=(Scope &&O) = delete;
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { end(); }

    uint32_t slot() const { return Slot; }
    void end() {
      if (!P)
        return;
      P->chargeTime(Slot,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - Start)
                            .count()));
      P->pop();
      P = nullptr;
    }

  private:
    Profiler *P = nullptr;
    uint32_t Slot = InvalidSlot;
    std::chrono::steady_clock::time_point Start;
  };

  //===--------------------------------------------------------------------===//
  // Program registration (serial thread only)
  //===--------------------------------------------------------------------===//

  /// One registered node program: its statements occupy the contiguous
  /// slot range [First, First + Count), indexed by Stmt::ProfIndex.
  struct DefFrames {
    uint32_t Root = InvalidSlot; ///< The "def NAME" frame.
    uint32_t First = 0;          ///< Slot of statement index 0.
    uint32_t Count = 0;          ///< Statements in the def (pre-order).
  };

  /// Registers \p Def under the current stack position: one "def NAME"
  /// frame plus one frame per statement (labelled "kind@line:col", nested
  /// under their enclosing if/while frames), assigning Stmt::ProfIndex in
  /// pre-order. Idempotent per (stack position, def); the pre-order
  /// numbering is deterministic, so re-registration under another engine's
  /// prefix re-assigns identical indices.
  DefFrames registerDef(const DefDecl &Def);

  /// Total interned slots (lane shards are sized to this).
  size_t slotCount() const { return Sites.size(); }

  //===--------------------------------------------------------------------===//
  // Serial charging
  //===--------------------------------------------------------------------===//

  void charge(uint32_t Slot, const ProfCounts &Delta);
  void chargeTime(uint32_t Slot, uint64_t Ns) {
    if (Slot < Cells.size())
      Cells[Slot].WallNs += Ns;
  }
  void chargeAllocs(uint32_t Slot, uint64_t N) {
    if (Slot < Cells.size())
      Cells[Slot].Allocs += N;
  }

  /// Registers a process-wide allocation counter (e.g. the bench
  /// AllocCounter under BAYONET_COUNT_ALLOCS). When set, engines charge
  /// per-boundary allocation deltas to the step frame.
  void setAllocSource(uint64_t (*Fn)()) { AllocSource = Fn; }
  uint64_t allocsNow() const { return AllocSource ? AllocSource() : 0; }
  bool countingAllocs() const { return AllocSource != nullptr; }

  //===--------------------------------------------------------------------===//
  // Lane shards (one writer per lane during a step; folded serially)
  //===--------------------------------------------------------------------===//

  /// Sizes \p Lanes shards to the current slot count and zeroes them.
  /// Call after registration, before the first parallel step.
  void beginLanes(unsigned Lanes);
  unsigned laneCount() const { return static_cast<unsigned>(Lanes.size()); }

  uint64_t *laneExecs(unsigned L) { return Lanes[L].Execs.data(); }
  uint64_t *laneSamples(unsigned L) { return Lanes[L].Samples.data(); }
  uint64_t *laneTxHits(unsigned L) { return Lanes[L].TxHits.data(); }
  uint64_t *laneTxMisses(unsigned L) { return Lanes[L].TxMisses.data(); }

  /// Folds every lane shard into the aggregate and zeroes it (serial, at
  /// a *completed* step boundary).
  void drainLanes();
  /// Zeroes every lane shard without folding (aborted step: mirrors the
  /// engines' boundary-snapshot restore).
  void discardLanes();

  //===--------------------------------------------------------------------===//
  // Engine totals (stamped by the API layer for the JSON export)
  //===--------------------------------------------------------------------===//

  void setTotals(const ProfCounts &T) {
    Totals = T;
    HaveTotals = true;
  }
  bool haveTotals() const { return HaveTotals; }

  //===--------------------------------------------------------------------===//
  // Checkpoint (serial boundaries only; see support/Snapshot.h)
  //===--------------------------------------------------------------------===//

  /// Serializes the site tree and the deterministic count columns. Wall
  /// time and allocations are process-local and restart at zero on resume
  /// (documented: only count columns survive a crash bit-identically).
  void snapshotTo(SnapWriter &W) const;
  /// Merges a checkpointed aggregate into this profiler by key path:
  /// sites are re-interned, counts installed. Returns false on a corrupt
  /// section.
  bool restoreFrom(SnapReader &R);

  //===--------------------------------------------------------------------===//
  // Export
  //===--------------------------------------------------------------------===//

  /// Deterministic JSON profile: frames sorted by stack key; count
  /// columns listed as deterministic, wall_ns/allocs as nondeterministic.
  std::string renderJson() const;
  /// The fingerprint rendering: one "stack|counts..." line per frame with
  /// any deterministic count, sorted by stack key. Byte-identical across
  /// thread counts, TxCache settings, and crash/resume.
  std::string renderCanonicalCounts() const;
  /// Collapsed-stack flamegraph lines ("a;b;c WEIGHT", self weights).
  std::string renderCollapsed() const;
  /// Annotated source listing: each line of \p Source with a
  /// "% states / % time" margin summed over the frames at that line.
  std::string renderAnnotated(std::string_view Source) const;

  /// The full ";"-joined stack key of a slot (export/test helper).
  std::string stackKey(uint32_t Slot) const;

private:
  struct Site {
    uint32_t Parent = InvalidSlot;
    std::string Label;
    SourceLoc Loc;
  };
  struct LaneShard {
    std::vector<uint64_t> Execs;
    std::vector<uint64_t> Samples;
    std::vector<uint64_t> TxHits;
    std::vector<uint64_t> TxMisses;
  };

  /// A frame's self weight in the collapsed flamegraph: its engine work
  /// units, falling back to statement/draw counts for frames that only
  /// count those.
  static uint64_t selfWeight(const ProfCounts &C) {
    return C.States ? C.States : C.Execs + C.Samples;
  }

  /// Export order: slot indices sorted by full stack key (deterministic
  /// regardless of intern order).
  std::vector<uint32_t> sortedSlots() const;

  uint32_t addSite(uint32_t Parent, std::string Label, SourceLoc Loc);

  std::vector<Site> Sites;
  std::vector<ProfCounts> Cells;
  std::map<std::pair<uint32_t, std::string>, uint32_t> Intern;
  std::vector<uint32_t> Stack;
  std::vector<LaneShard> Lanes;
  ProfCounts Totals;
  bool HaveTotals = false;
  uint64_t (*AllocSource)() = nullptr;
};

} // namespace bayonet

#endif // BAYONET_OBS_PROFILE_H
