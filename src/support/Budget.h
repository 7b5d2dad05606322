//===- support/Budget.h - Resource budgets and cancellation ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for the inference engines: a thread-safe
/// BudgetTracker enforcing wall-clock deadlines, state/frontier/merge
/// counts, approximate heap bytes and scheduler steps, plus a cooperative
/// CancelToken. Engines charge the tracker at expansion-loop granularity
/// and consult it at deterministic step/statement boundaries, so budget
/// failures reproduce bit-identically for every thread count while
/// cancellation and deadlines still take effect mid-step (in-flight pool
/// workers drain through the tracker's stop flag).
///
/// Failure is carried as a typed EngineStatus on every engine result —
/// Ok | BudgetExceeded{which, observed, limit} | Cancelled |
/// Invalid{diagnostic} | Internal{diagnostic} — never as an exception on
/// the inference path. InferenceError wraps a status for callers that
/// prefer throwing APIs (the CLI's top-level handler converts it to an
/// exit code).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_BUDGET_H
#define BAYONET_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace bayonet {

/// The resource classes a budget can bound (and blame on failure).
enum class BudgetClass : uint8_t {
  None = 0,
  WallClock,  ///< Deadline (milliseconds of wall time).
  States,     ///< Configurations / branches / particle-steps expanded.
  Frontier,   ///< Live frontier / distribution size.
  Merges,     ///< Successors merged into existing entries.
  Bytes,      ///< Approximate heap bytes of the live frontier.
  SchedSteps, ///< Engine-level scheduler steps.
};

/// Human-readable name of a budget class ("wall-clock", "state", ...).
const char *budgetClassName(BudgetClass C);

/// Limits for one governed inference run. Zero means unlimited for every
/// field; a default-constructed BudgetLimits imposes nothing.
struct BudgetLimits {
  int64_t DeadlineMs = 0;      ///< Wall-clock budget from tracker creation.
  uint64_t MaxStates = 0;      ///< Total expansion budget.
  uint64_t MaxFrontier = 0;    ///< Live frontier / distribution size cap.
  uint64_t MaxMerges = 0;      ///< Merged-successor budget.
  uint64_t MaxBytes = 0;       ///< Approximate live heap bytes cap.
  uint64_t MaxSchedSteps = 0;  ///< Scheduler step budget.
  /// Fault-injection spec for tests, e.g. "oom-at-100,cancel-at-50":
  /// trips the named class when the cumulative state counter reaches N.
  /// Kinds: oom (Bytes), deadline (WallClock), states (States),
  /// cancel (cooperative cancellation). Malformed entries are ignored.
  /// The CLI fills it from the BAYONET_FAULT test hook.
  std::string Fault;

  /// True when no field imposes a limit and no fault is armed.
  bool unlimited() const {
    return DeadlineMs <= 0 && !MaxStates && !MaxFrontier && !MaxMerges &&
           !MaxBytes && !MaxSchedSteps && Fault.empty();
  }
};

/// Which budget tripped, with the observed value and the limit it crossed.
/// Fault-injected violations carry Limit = 0.
struct BudgetViolation {
  BudgetClass Which = BudgetClass::None;
  uint64_t Observed = 0;
  uint64_t Limit = 0;

  /// Renders like "state budget exceeded (observed 1234, limit 1000)".
  std::string toString() const;
};

/// Outcome classification of a governed engine run.
enum class StatusCode : uint8_t {
  Ok,             ///< Completed within budget.
  BudgetExceeded, ///< A budget tripped; the result holds partial stats.
  Cancelled,      ///< Cooperative cancellation was requested.
  Invalid,        ///< The input cannot be processed (diagnostic set).
  Internal,       ///< An unexpected internal failure (diagnostic set).
};

/// Typed status carried on every engine result instead of exceptions.
struct EngineStatus {
  StatusCode Code = StatusCode::Ok;
  BudgetViolation Violation; ///< Meaningful when Code == BudgetExceeded.
  std::string Diagnostic;    ///< Meaningful for Invalid / Internal.

  bool ok() const { return Code == StatusCode::Ok; }
  /// One-line rendering, e.g. "budget exceeded: state budget exceeded
  /// (observed 1234, limit 1000)".
  std::string toString() const;

  static EngineStatus invalid(std::string Diag) {
    return {StatusCode::Invalid, {}, std::move(Diag)};
  }
  static EngineStatus internal(std::string Diag) {
    return {StatusCode::Internal, {}, std::move(Diag)};
  }
};

/// Exception wrapper for callers that prefer throwing APIs. The library
/// itself returns EngineStatus; the CLI's top-level handler converts any
/// escaped InferenceError into a one-line diagnostic and exit code.
class InferenceError : public std::runtime_error {
public:
  explicit InferenceError(EngineStatus S)
      : std::runtime_error(S.toString()), S(std::move(S)) {}
  const EngineStatus &status() const { return S; }

private:
  EngineStatus S;
};

/// The cumulative spend counters of a BudgetTracker, as captured at a
/// serial boundary (for checkpoint snapshots). Wall-clock state is
/// deliberately absent: a resumed run gets a fresh deadline allowance.
struct BudgetSpend {
  uint64_t States = 0;
  uint64_t StepBytes = 0;
  uint64_t PeakBytes = 0;
  uint64_t PeakFrontier = 0;
  uint64_t Merges = 0;
  uint64_t SchedSteps = 0;
};

/// A shareable cooperative-cancellation handle. Copies observe the same
/// flag; requesting cancellation is thread-safe and sticky.
class CancelToken {
public:
  CancelToken() : Flag(std::make_shared<std::atomic<bool>>(false)) {}

  void requestCancel() const noexcept {
    Flag->store(true, std::memory_order_release);
  }
  bool cancelRequested() const noexcept {
    return Flag->load(std::memory_order_acquire);
  }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

/// Thread-safe resource meter shared by one inference run (and, through
/// the API's fallback policy, by the fallback run that follows it).
///
/// Charging methods are called concurrently from worker lanes and are
/// wait-free (relaxed atomics). Limit *decisions* for the deterministic
/// budget classes (states, frontier, merges, bytes, scheduler steps, and
/// injected faults) happen in checkpoint(), which engines call serially at
/// step/statement boundaries — so whether and where a budget trips is a
/// pure function of the workload, never of thread interleaving. Wall-clock
/// deadlines and cancellation are additionally polled mid-loop (strided in
/// chargeStates) so a single oversized step cannot run away; engines
/// restore their statistics to the last boundary snapshot on any stop,
/// keeping reported partial statistics bit-identical across thread counts.
class BudgetTracker {
public:
  /// An unlimited tracker (still cancellable through \p C).
  BudgetTracker() : BudgetTracker(BudgetLimits{}) {}
  explicit BudgetTracker(const BudgetLimits &L, CancelToken C = {});

  const BudgetLimits &limits() const { return Limits; }
  const CancelToken &cancelToken() const { return Cancel; }

  //===--------------------------------------------------------------------===//
  // Charging (thread-safe, called from worker lanes)
  //===--------------------------------------------------------------------===//

  /// Counts \p N expanded states (configs, branches, particle-steps).
  /// Also polls cancellation, armed cancel faults, and — every 64 states —
  /// the wall-clock deadline, so long steps stop promptly.
  void chargeStates(uint64_t N = 1);

  /// Adds \p N approximate live heap bytes; trips the byte budget
  /// immediately (OOM protection cannot wait for the next boundary).
  void chargeBytes(uint64_t N);

  /// Restarts the live-byte gauge (the engine replaced its frontier).
  void resetBytes();

  /// Counts \p N merged successors.
  void chargeMerges(uint64_t N = 1);

  /// Counts one engine-level scheduler step.
  void chargeSchedStep();

  //===--------------------------------------------------------------------===//
  // Boundary decision and stop propagation
  //===--------------------------------------------------------------------===//

  /// Deterministic budget decision at a step/statement boundary with the
  /// current live frontier/distribution size. Records the first violation
  /// (fixed evaluation order) and returns false once the run must stop.
  bool checkpoint(uint64_t FrontierSize);

  /// True once any budget tripped or cancellation was requested.
  bool stop() const { return StopFlag.load(std::memory_order_acquire); }

  /// The raw stop flag, for ThreadPool batch draining.
  const std::atomic<bool> &stopFlag() const { return StopFlag; }

  /// Folds the tracker state into a status: Cancelled beats
  /// BudgetExceeded beats Ok.
  EngineStatus status() const;

  std::optional<BudgetViolation> violation() const;
  bool cancelled() const { return CancelledFlag.load(std::memory_order_acquire); }

  /// Registers a callback fired exactly once, by whichever thread records
  /// the first violation (so it must be thread-safe and cheap). The
  /// observability layer uses this to attach a budget-trip event to the
  /// trace; the tracker itself stays free of obs dependencies. Set it
  /// before the run starts — registration is not synchronized against
  /// concurrent charging.
  void setViolationObserver(std::function<void(const BudgetViolation &)> Fn) {
    VioObserver = std::move(Fn);
  }

  //===--------------------------------------------------------------------===//
  // Spend accounting (for reports and fallback sizing)
  //===--------------------------------------------------------------------===//

  /// All spend counters at once (for checkpoint snapshots; called at
  /// serial boundaries, values are then stable).
  BudgetSpend spendSnapshot() const {
    BudgetSpend S;
    S.States = States.load(std::memory_order_relaxed);
    S.StepBytes = StepBytes.load(std::memory_order_relaxed);
    S.PeakBytes = PeakBytes.load(std::memory_order_relaxed);
    S.PeakFrontier = PeakFrontier.load(std::memory_order_relaxed);
    S.Merges = Merges.load(std::memory_order_relaxed);
    S.SchedSteps = SchedSteps.load(std::memory_order_relaxed);
    return S;
  }

  /// Installs checkpointed spend counters into a fresh tracker (resume).
  /// Must run before any charging; deadline/violation state is untouched
  /// (a resumed run gets a fresh wall-clock allowance).
  void restoreSpend(const BudgetSpend &S) {
    States.store(S.States, std::memory_order_relaxed);
    StepBytes.store(S.StepBytes, std::memory_order_relaxed);
    PeakBytes.store(S.PeakBytes, std::memory_order_relaxed);
    PeakFrontier.store(S.PeakFrontier, std::memory_order_relaxed);
    Merges.store(S.Merges, std::memory_order_relaxed);
    SchedSteps.store(S.SchedSteps, std::memory_order_relaxed);
  }

  uint64_t statesSpent() const { return States.load(std::memory_order_relaxed); }
  uint64_t mergesSpent() const { return Merges.load(std::memory_order_relaxed); }
  uint64_t schedStepsSpent() const {
    return SchedSteps.load(std::memory_order_relaxed);
  }
  uint64_t peakBytes() const { return PeakBytes.load(std::memory_order_relaxed); }
  uint64_t peakFrontier() const {
    return PeakFrontier.load(std::memory_order_relaxed);
  }
  /// Milliseconds elapsed since the tracker was created.
  double elapsedMs() const;
  /// Milliseconds left before the deadline; -1 when no deadline is set,
  /// 0 when the deadline has passed.
  int64_t remainingMs() const;

private:
  void markCancelled();
  void recordViolation(BudgetClass Which, uint64_t Observed, uint64_t Limit);
  void checkDeadlineNow();

  BudgetLimits Limits;
  CancelToken Cancel;
  std::chrono::steady_clock::time_point Start;
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;

  std::atomic<uint64_t> States{0};
  std::atomic<uint64_t> StepBytes{0};
  std::atomic<uint64_t> PeakBytes{0};
  std::atomic<uint64_t> PeakFrontier{0};
  std::atomic<uint64_t> Merges{0};
  std::atomic<uint64_t> SchedSteps{0};

  std::atomic<bool> StopFlag{false};
  std::atomic<bool> CancelledFlag{false};

  /// First-violation record: 0 = none, 1 = being written, 2 = readable.
  std::atomic<uint8_t> VioState{0};
  BudgetViolation Vio;
  std::function<void(const BudgetViolation &)> VioObserver;

  /// Parsed fault-injection triggers (state-counter thresholds).
  uint64_t CancelAtStates = 0;   ///< 0 = disarmed.
  uint64_t DeadlineAtStates = 0; ///< Injected WallClock violation.
  uint64_t OomAtStates = 0;      ///< Injected Bytes violation.
  uint64_t StatesAtStates = 0;   ///< Injected States violation.
};

} // namespace bayonet

#endif // BAYONET_SUPPORT_BUDGET_H
