//===- support/Budget.cpp - Resource budgets and cancellation -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <cstdlib>

using namespace bayonet;

const char *bayonet::budgetClassName(BudgetClass C) {
  switch (C) {
  case BudgetClass::None:
    return "none";
  case BudgetClass::WallClock:
    return "wall-clock";
  case BudgetClass::States:
    return "state";
  case BudgetClass::Frontier:
    return "frontier";
  case BudgetClass::Merges:
    return "merge";
  case BudgetClass::Bytes:
    return "byte";
  case BudgetClass::SchedSteps:
    return "scheduler-step";
  }
  return "unknown";
}

std::string BudgetViolation::toString() const {
  std::string Out = std::string(budgetClassName(Which)) +
                    " budget exceeded (observed " + std::to_string(Observed);
  if (Limit)
    Out += ", limit " + std::to_string(Limit);
  else
    Out += ", fault-injected";
  Out += ")";
  return Out;
}

std::string EngineStatus::toString() const {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::BudgetExceeded:
    return "budget exceeded: " + Violation.toString();
  case StatusCode::Cancelled:
    return "cancelled";
  case StatusCode::Invalid:
    return "invalid input: " + Diagnostic;
  case StatusCode::Internal:
    return "internal error: " + Diagnostic;
  }
  return "unknown status";
}

BudgetTracker::BudgetTracker(const BudgetLimits &L, CancelToken C)
    : Limits(L), Cancel(std::move(C)),
      Start(std::chrono::steady_clock::now()) {
  if (Limits.DeadlineMs > 0) {
    HasDeadline = true;
    Deadline = Start + std::chrono::milliseconds(Limits.DeadlineMs);
  }
  // Parse the fault spec: comma-separated "<kind>-at-<N>" entries.
  const std::string &F = Limits.Fault;
  size_t Pos = 0;
  while (Pos < F.size()) {
    size_t End = F.find(',', Pos);
    if (End == std::string::npos)
      End = F.size();
    std::string Entry = F.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t At = Entry.find("-at-");
    if (At == std::string::npos)
      continue; // Malformed entry: ignored (documented).
    std::string Kind = Entry.substr(0, At);
    char *EndPtr = nullptr;
    const std::string Num = Entry.substr(At + 4);
    unsigned long long N = std::strtoull(Num.c_str(), &EndPtr, 10);
    if (!EndPtr || *EndPtr != '\0' || N == 0)
      continue;
    if (Kind == "cancel")
      CancelAtStates = N;
    else if (Kind == "deadline")
      DeadlineAtStates = N;
    else if (Kind == "oom")
      OomAtStates = N;
    else if (Kind == "states")
      StatesAtStates = N;
  }
}

void BudgetTracker::markCancelled() {
  bool Expected = false;
  if (CancelledFlag.compare_exchange_strong(Expected, true,
                                            std::memory_order_acq_rel))
    StopFlag.store(true, std::memory_order_release);
}

void BudgetTracker::recordViolation(BudgetClass Which, uint64_t Observed,
                                    uint64_t Limit) {
  uint8_t Expected = 0;
  if (VioState.compare_exchange_strong(Expected, 1,
                                       std::memory_order_acq_rel)) {
    Vio = {Which, Observed, Limit};
    VioState.store(2, std::memory_order_release);
    StopFlag.store(true, std::memory_order_release);
    if (VioObserver)
      VioObserver(Vio);
  }
}

void BudgetTracker::checkDeadlineNow() {
  if (!HasDeadline)
    return;
  auto Now = std::chrono::steady_clock::now();
  if (Now >= Deadline)
    recordViolation(BudgetClass::WallClock,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            Now - Start)
                            .count()),
                    static_cast<uint64_t>(Limits.DeadlineMs));
}

void BudgetTracker::chargeStates(uint64_t N) {
  uint64_t S = States.fetch_add(N, std::memory_order_relaxed) + N;
  // The cancel fault fires mid-batch: the first lane whose charge crosses
  // the threshold requests cancellation, and in-flight workers drain
  // through the stop flag.
  if (CancelAtStates && S >= CancelAtStates)
    markCancelled();
  if (Cancel.cancelRequested())
    markCancelled();
  // Strided wall-clock poll: cheap enough to keep a runaway step honest,
  // rare enough to stay invisible on unbudgeted-scale workloads.
  if (HasDeadline && (S & 63) < N)
    checkDeadlineNow();
}

void BudgetTracker::chargeBytes(uint64_t N) {
  uint64_t B = StepBytes.fetch_add(N, std::memory_order_relaxed) + N;
  uint64_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (B > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, B, std::memory_order_relaxed))
    ;
  if (Limits.MaxBytes && B > Limits.MaxBytes)
    recordViolation(BudgetClass::Bytes, B, Limits.MaxBytes);
}

void BudgetTracker::resetBytes() {
  StepBytes.store(0, std::memory_order_relaxed);
}

void BudgetTracker::chargeMerges(uint64_t N) {
  Merges.fetch_add(N, std::memory_order_relaxed);
}

void BudgetTracker::chargeSchedStep() {
  SchedSteps.fetch_add(1, std::memory_order_relaxed);
}

bool BudgetTracker::checkpoint(uint64_t FrontierSize) {
  uint64_t PeakF = PeakFrontier.load(std::memory_order_relaxed);
  while (FrontierSize > PeakF &&
         !PeakFrontier.compare_exchange_weak(PeakF, FrontierSize,
                                             std::memory_order_relaxed))
    ;
  if (Cancel.cancelRequested())
    markCancelled();
  if (stop())
    return false;

  const uint64_t S = States.load(std::memory_order_relaxed);
  // Injected faults first: they depend only on the (deterministic)
  // boundary state counter, so they trip identically for any thread count.
  if (DeadlineAtStates && S >= DeadlineAtStates)
    recordViolation(BudgetClass::WallClock, S, 0);
  if (OomAtStates && S >= OomAtStates)
    recordViolation(BudgetClass::Bytes, S, 0);
  if (StatesAtStates && S >= StatesAtStates)
    recordViolation(BudgetClass::States, S, 0);

  checkDeadlineNow();
  if (Limits.MaxStates && S > Limits.MaxStates)
    recordViolation(BudgetClass::States, S, Limits.MaxStates);
  if (Limits.MaxFrontier && FrontierSize > Limits.MaxFrontier)
    recordViolation(BudgetClass::Frontier, FrontierSize, Limits.MaxFrontier);
  const uint64_t B = StepBytes.load(std::memory_order_relaxed);
  if (Limits.MaxBytes && B > Limits.MaxBytes)
    recordViolation(BudgetClass::Bytes, B, Limits.MaxBytes);
  const uint64_t M = Merges.load(std::memory_order_relaxed);
  if (Limits.MaxMerges && M > Limits.MaxMerges)
    recordViolation(BudgetClass::Merges, M, Limits.MaxMerges);
  const uint64_t Steps = SchedSteps.load(std::memory_order_relaxed);
  if (Limits.MaxSchedSteps && Steps > Limits.MaxSchedSteps)
    recordViolation(BudgetClass::SchedSteps, Steps, Limits.MaxSchedSteps);
  return !stop();
}

EngineStatus BudgetTracker::status() const {
  EngineStatus S;
  if (cancelled()) {
    S.Code = StatusCode::Cancelled;
    return S;
  }
  if (auto V = violation()) {
    S.Code = StatusCode::BudgetExceeded;
    S.Violation = *V;
  }
  return S;
}

std::optional<BudgetViolation> BudgetTracker::violation() const {
  if (VioState.load(std::memory_order_acquire) != 2)
    return std::nullopt;
  return Vio;
}

double BudgetTracker::elapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

int64_t BudgetTracker::remainingMs() const {
  if (!HasDeadline)
    return -1;
  auto Now = std::chrono::steady_clock::now();
  if (Now >= Deadline)
    return 0;
  return std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
      .count();
}
