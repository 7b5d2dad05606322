//===- support/Snapshot.h - Durable checkpoint/restore ---------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable checkpoint/restore for the inference engines: a versioned,
/// checksummed binary serialization of full inference state (exact
/// frontiers, SMC particle populations with their PRNG streams, budget
/// spend, and the observability log), written atomically at the engines'
/// existing serial step/statement boundaries so a resumed run is
/// bit-identical to an uninterrupted one at any thread count.
///
/// File format (all integers little-endian):
///
///   magic    "BAYSNAP1"                        8 bytes
///   version  u32 (currently 2)                 4 bytes
///   reserved u32                               4 bytes
///   length   u64 payload byte count            8 bytes
///   checksum u64 FNV-1a over the payload       8 bytes
///   payload  ...
///
/// A truncated file fails the length check, a corrupted one the checksum;
/// both are rejected and the loader falls back to the previous good
/// snapshot (`PATH.prev`, rotated on every write). The payload starts with
/// a common section — engine name, spec/options fingerprints, boundary
/// counter, budget spend, tracer, run log and profiler state — followed by
/// the engine-specific state.
///
/// Write protocol (atomic, crash-safe at every instant):
///   1. serialize to memory;  2. write + fsync `PATH.tmp`;
///   3. rename `PATH` -> `PATH.prev`;  4. rename `PATH.tmp` -> `PATH`.
///
/// Fault injection (for tests; the CLI passes its BAYONET_FAULT hook to both
/// this layer and the budget layer, unknown tokens ignored on both sides):
///   crash-at-checkpoint=K   complete the Kth write of this run, then crash
///                           (in-process flag, or _exit(137) with HardExit)
///   torn-write[=K]          the Kth write (default 1st) is truncated
///   corrupt-byte[=K]        the Kth write has one payload byte flipped
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_SNAPSHOT_H
#define BAYONET_SUPPORT_SNAPSHOT_H

#include "net/Config.h"
#include "psi/PsiValue.h"
#include "support/Budget.h"
#include "support/Prng.h"
#include "symbolic/SymProb.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace bayonet {

class ObsContext;
struct NetworkSpec;

//===----------------------------------------------------------------------===//
// FNV-1a (the container checksum and the fingerprint hash)
//===----------------------------------------------------------------------===//

inline constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ULL;

inline uint64_t fnv1a(const void *Data, size_t N, uint64_t H = Fnv1aBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Incremental FNV-1a fingerprint builder for spec/options fingerprints.
class Fingerprint {
public:
  Fingerprint &mix(uint64_t V) {
    unsigned char B[8];
    for (int I = 0; I < 8; ++I)
      B[I] = static_cast<unsigned char>(V >> (8 * I));
    H = fnv1a(B, 8, H);
    return *this;
  }
  Fingerprint &mix(const std::string &S) {
    mix(S.size());
    H = fnv1a(S.data(), S.size(), H);
    return *this;
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = Fnv1aBasis;
};

/// Structural fingerprint of a checked network spec, used to validate that
/// a snapshot belongs to the network being resumed. Covers topology, node
/// names and weights, queue capacity, step bound, scheduler, parameters,
/// and initial packets.
uint64_t specFingerprint(const NetworkSpec &Spec);

//===----------------------------------------------------------------------===//
// SnapWriter / SnapReader: little-endian primitive (de)serialization
//===----------------------------------------------------------------------===//

class SnapWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void boolean(bool V) { u8(V ? 1 : 0); }
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S);
  }

  const std::string &buffer() const { return Buf; }
  size_t size() const { return Buf.size(); }

private:
  std::string Buf;
};

class SnapReader {
public:
  SnapReader() = default;
  SnapReader(const void *Data, size_t N)
      : P(static_cast<const unsigned char *>(Data)), End(P + N) {}
  explicit SnapReader(const std::string &S) : SnapReader(S.data(), S.size()) {}

  bool ok() const { return Ok; }
  /// Marks the stream corrupt; every subsequent read yields zero values.
  void fail() { Ok = false; }
  size_t remaining() const { return Ok ? static_cast<size_t>(End - P) : 0; }
  bool atEnd() const { return !Ok || P == End; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return *P++;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    __builtin_memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    uint64_t N = u64();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }
  /// All remaining bytes (the engine payload tail of the common section).
  std::string rest() {
    if (!Ok)
      return {};
    std::string S(reinterpret_cast<const char *>(P),
                  static_cast<size_t>(End - P));
    P = End;
    return S;
  }
  /// Bounded count for container pre-allocation: fails the stream when the
  /// encoded count cannot fit in the remaining bytes at one byte per item
  /// (protects resize() from absurd corrupt counts that slip past the
  /// checksum only in hand-built test inputs).
  uint64_t count() {
    uint64_t N = u64();
    if (Ok && N > static_cast<uint64_t>(End - P)) {
      fail();
      return 0;
    }
    return N;
  }

private:
  bool need(uint64_t N) {
    if (!Ok || static_cast<uint64_t>(End - P) < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  const unsigned char *P = nullptr;
  const unsigned char *End = nullptr;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// Domain serializers (exact value types shared by the engines)
//===----------------------------------------------------------------------===//

// Rationals travel as their canonical decimal rendering: toString /
// fromString round-trip exactly and re-normalization is the identity on
// canonical input, so re-serialization is byte-stable.
void snapRational(SnapWriter &W, const Rational &V);
bool readRational(SnapReader &R, Rational &Out);

void snapLinExpr(SnapWriter &W, const LinExpr &E);
bool readLinExpr(SnapReader &R, LinExpr &Out);

void snapConstraint(SnapWriter &W, const Constraint &C);
bool readConstraint(SnapReader &R, Constraint &Out);

void snapConstraintSet(SnapWriter &W, const ConstraintSet &S);
bool readConstraintSet(SnapReader &R, ConstraintSet &Out);

void snapSymProb(SnapWriter &W, const SymProb &P);
bool readSymProb(SnapReader &R, SymProb &Out);

void snapValue(SnapWriter &W, const Value &V);
bool readValue(SnapReader &R, Value &Out);

void snapPsiValue(SnapWriter &W, const PsiValue &V);
bool readPsiValue(SnapReader &R, PsiValue &Out);

void snapRng(SnapWriter &W, const Xoshiro &G);
bool readRng(SnapReader &R, Xoshiro &Out);

/// Deduplicates shared NodeBlocks across a whole snapshot (frontier entries
/// and transition-cache entries share blocks): a block is serialized inline
/// the first time it is seen and as a back-reference afterwards, so the
/// copy-on-write sharing structure survives the round trip.
class BlockTable {
public:
  void write(SnapWriter &W, const NodeArray::BlockPtr &B);

private:
  std::unordered_map<const NodeBlock *, uint32_t> Ids;
};

class BlockReadTable {
public:
  bool read(SnapReader &R, NodeArray::BlockPtr &Out);

private:
  std::vector<NodeArray::BlockPtr> Blocks;
};

void snapNodeConfig(SnapWriter &W, const NodeConfig &C);
bool readNodeConfig(SnapReader &R, NodeConfig &Out);

void snapNetConfig(SnapWriter &W, BlockTable &T, const NetConfig &C);
bool readNetConfig(SnapReader &R, BlockReadTable &T, NetConfig &Out);

//===----------------------------------------------------------------------===//
// Boundary marks (state captured at a serial boundary for a late final
// write: a mid-step stop must not leak post-boundary budget charges or
// trace events into the snapshot)
//===----------------------------------------------------------------------===//

struct BoundaryMark {
  bool Valid = false;
  BudgetSpend Spend;
  /// Tracer log position at the boundary (events past it are truncated out
  /// of the snapshot). Empty when tracing is off.
  size_t TraceEvents = 0;
  uint64_t TraceNextId = 1;
  std::vector<uint64_t> TraceOpenStack;
};

//===----------------------------------------------------------------------===//
// Checkpointer
//===----------------------------------------------------------------------===//

/// Checkpoint configuration (the CLI's --checkpoint-out, --checkpoint-every
/// and --resume flags).
struct CheckpointOptions {
  /// Snapshot path; empty disables writing (resume-only is allowed).
  std::string OutPath;
  /// Write every Nth serial boundary (boundary 0 is always written).
  uint64_t Every = 32;
  /// Snapshot to resume from; empty starts fresh.
  std::string ResumePath;
  /// Snapshot-layer fault spec (see file comment). The budget layer's
  /// tokens may share the string; each side ignores the other's.
  std::string Fault;
  /// Injected crashes call _exit(137) instead of raising the in-process
  /// flag (the CLI uses this so a test harness sees a real dead process).
  bool HardExit = false;

  bool enabled() const { return !OutPath.empty() || !ResumePath.empty(); }
};

/// Drives snapshot writing and resuming for one inference run. All methods
/// are called from the engines' serial boundary code (never concurrently).
///
/// Write side: maybeWrite() at every serial boundary (it applies the
/// `Every` stride and the boundary counter), writeFinal() on a graceful
/// cancellation stop. Resume side: restoreCommon() once before any span
/// opens (restores budget spend and the observability log), then
/// beginEngine() hands the engine its payload after validating that the
/// snapshot matches this engine, spec, and option fingerprint.
class Checkpointer {
public:
  explicit Checkpointer(CheckpointOptions O);

  const CheckpointOptions &options() const { return Opts; }

  /// Loads the resume snapshot (falling back to `PATH.prev` when the
  /// primary is truncated/corrupt), restores budget spend into \p BT and
  /// the trace, run log and profile into \p Obs, and stashes the engine
  /// payload for beginEngine(). Idempotent: only the first call acts.
  /// Null \p BT / \p Obs skip the corresponding sections.
  void restoreCommon(BudgetTracker *BT, ObsContext *Obs);

  /// True when a resume was requested (ResumePath set).
  bool resumeRequested() const { return !Opts.ResumePath.empty(); }
  /// True when restoreCommon() loaded a valid snapshot.
  bool resumed() const { return ResumeReady; }
  /// True when a requested resume failed (no valid snapshot). Callers must
  /// surface this as an Invalid status — a bad snapshot is never silently
  /// ignored.
  bool resumeFailed() const { return RestoreDone && resumeRequested() && !ResumeReady; }
  const std::string &resumeError() const { return ResumeErr; }

  /// Validates the loaded snapshot against this engine/spec/options and
  /// returns a reader positioned at the engine payload, or null on
  /// mismatch (resumeError() explains). Also rewinds the boundary counter
  /// to the snapshot's, so the re-executed boundary re-writes identically.
  SnapReader *beginEngine(const std::string &Engine, uint64_t SpecFp,
                          uint64_t OptsFp);

  /// Serial-boundary write point: writes a snapshot when the boundary
  /// counter is on the `Every` stride (then advances the counter), and
  /// applies any armed write faults. \p Payload serializes the engine
  /// state as of this boundary.
  void maybeWrite(const std::string &Engine, uint64_t SpecFp, uint64_t OptsFp,
                  const BudgetTracker *BT, ObsContext *Obs,
                  const std::function<void(SnapWriter &)> &Payload);

  /// Unconditional write (graceful shutdown). \p Mark, when valid,
  /// substitutes boundary-captured budget spend and truncates the trace to
  /// the boundary, so a final written from a mid-step stop still describes
  /// the last completed boundary exactly.
  void writeFinal(const std::string &Engine, uint64_t SpecFp, uint64_t OptsFp,
                  const BudgetTracker *BT, ObsContext *Obs,
                  const std::function<void(SnapWriter &)> &Payload,
                  const BoundaryMark *Mark = nullptr);

  /// True once an injected soft crash tripped; the engine abandons the run
  /// with an Internal "injected crash" status (emulating a killed process
  /// inside one test binary).
  bool crashed() const { return CrashedFlag; }

  /// Completed writes this run (fault-injection counter; not restored).
  uint64_t writesDone() const { return WritesDone; }
  /// Serial boundary counter (restored on resume).
  uint64_t boundaryIndex() const { return BoundaryIdx; }

  /// Status string for the spend report, e.g. "wrote 3 snapshot(s)".
  std::string describe() const;

private:
  void writeNow(const std::string &Engine, uint64_t SpecFp, uint64_t OptsFp,
                const BudgetTracker *BT, ObsContext *Obs,
                const std::function<void(SnapWriter &)> &Payload,
                const BoundaryMark *Mark);
  bool loadFile(const std::string &Path, std::string &PayloadOut,
                std::string &Err);

  CheckpointOptions Opts;

  // Parsed faults (1-based write ordinals; 0 = disarmed).
  uint64_t CrashAtWrite = 0;
  uint64_t TornAtWrite = 0;
  uint64_t CorruptAtWrite = 0;

  uint64_t BoundaryIdx = 0;
  uint64_t WritesDone = 0;
  bool CrashedFlag = false;

  // Resume state.
  bool RestoreDone = false;
  bool ResumeReady = false;
  std::string ResumeErr;
  std::string ResumeEngine;
  uint64_t ResumeSpecFp = 0;
  uint64_t ResumeOptsFp = 0;
  uint64_t ResumeBoundaryIdx = 0;
  std::string EnginePayload;
  SnapReader EngineReader;
};

/// The status an engine reports when an injected soft crash ends the run.
EngineStatus injectedCrashStatus();

} // namespace bayonet

#endif // BAYONET_SUPPORT_SNAPSHOT_H
