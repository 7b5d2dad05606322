//===- api/Bayonet.h - Public facade ---------------------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry points of the Bayonet library: load a Bayonet program
/// (lex, parse, check), then answer its query with one of the inference
/// engines. See examples/quickstart.cpp for typical usage:
///
/// \code
///   DiagEngine Diags;
///   auto Net = loadNetwork(Source, Diags);
///   if (!Net) { /* print Diags */ }
///   ExactResult R = ExactEngine(Net->Spec).run();
///   SampleResult S = Sampler(Net->Spec).run();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_API_BAYONET_H
#define BAYONET_API_BAYONET_H

#include "interp/ExactEngine.h"
#include "interp/Sampler.h"
#include "lang/Checker.h"
#include "lang/Parser.h"
#include "net/NetworkSpec.h"
#include "obs/Obs.h"
#include "psi/PsiExact.h"
#include "support/Budget.h"

#include <memory>
#include <optional>
#include <string>

namespace bayonet {

/// A checked Bayonet network bundled with the AST that owns its programs.
struct LoadedNetwork {
  std::unique_ptr<SourceFile> File;
  NetworkSpec Spec;
};

/// Loads a network from Bayonet source text. Returns nullopt and reports
/// through \p Diags on any lexical, syntactic, or semantic error. When an
/// observability handle is passed, the frontend phases emit "lex", "parse"
/// and "check" spans.
std::optional<LoadedNetwork> loadNetwork(std::string_view Source,
                                         DiagEngine &Diags,
                                         ObsHandle Obs = {});

/// Loads a network from a file on disk.
std::optional<LoadedNetwork> loadNetworkFile(const std::string &Path,
                                             DiagEngine &Diags,
                                             ObsHandle Obs = {});

/// Binds (or re-binds) a symbolic parameter to a concrete value.
/// Returns false if the network declares no such parameter.
bool bindParam(LoadedNetwork &Net, const std::string &Name,
               const Rational &Value);

/// Clears a parameter binding, making the parameter symbolic.
bool unbindParam(LoadedNetwork &Net, const std::string &Name);

//===----------------------------------------------------------------------===//
// Governed inference
//===----------------------------------------------------------------------===//

/// Which inference engine answers the query.
enum class EngineChoice : uint8_t {
  Exact,      ///< interp/ExactEngine (network-level exact).
  Translated, ///< translate to PSI IR, then psi/PsiExact.
  Smc,        ///< interp/Sampler, sequential Monte Carlo.
  Reject,     ///< interp/Sampler, rejection sampling.
};

/// Human-readable engine name ("exact", "translated", "smc", "reject").
const char *engineChoiceName(EngineChoice E);

/// What to do when exact inference exceeds its budget.
enum class BudgetPolicy : uint8_t {
  Fail,        ///< Return the BudgetExceeded status.
  FallbackSmc, ///< Degrade to SMC sized from the remaining time budget.
};

/// Options for a governed inference run through runInference(). These
/// fields are the only configuration: runInference reads no environment
/// variable. The two test hooks live elsewhere: BAYONET_THREADS sets the
/// ThreadPool's process default, and the CLI maps BAYONET_FAULT onto
/// BudgetLimits::Fault and CheckpointOptions::Fault.
struct InferenceOptions {
  EngineChoice Engine = EngineChoice::Exact;
  unsigned Particles = 1000; ///< For the sampling engines and the fallback.
  uint64_t Seed = 0x5eed;
  /// 0 = process default (BAYONET_THREADS or the hardware), 1 = serial.
  unsigned Threads = 0;
  bool CollectTerminals = false; ///< Exact engine: keep the terminal dist.
  /// Exact and translated engines: byte cap for the transition cache
  /// (--txcache): node-program runs in the exact engine, `schedule` arm
  /// runs in PsiExact. 0 disables it; results are bit-identical either way.
  uint64_t TxCacheBytes = TxCacheDefaultBytes;
  /// Exact and translated engines: byte cap for the hash-consing arena of
  /// node or environment blocks (--intern). 0 disables it; results are
  /// bit-identical either way.
  uint64_t InternBytes = InternDefaultBytes;
  /// Resource budgets (default: unlimited).
  BudgetLimits Limits;
  BudgetPolicy OnBudgetExceeded = BudgetPolicy::Fail;
  /// Cooperative cancellation handle; requestCancel() stops the run (and
  /// any fallback) promptly, draining in-flight pool workers.
  CancelToken Cancel;
  /// Optional observability context, threaded through to the engine that
  /// runs (and the fallback). The run emits an "inference" span, budget
  /// trips and fallbacks become trace events and counters. Null = off.
  std::shared_ptr<ObsContext> Obs;
  /// Cross-engine check: after a sampling engine answers a probability
  /// query, run a small budgeted exact reference and record the total
  /// variation divergence |p_exact - p_smc| in the diagnostics. The
  /// reference is silently skipped when it exceeds 200,000 states (exact
  /// inference was not cheap). Off by default.
  bool CrossCheckTv = false;
  /// Optional durable checkpoint/restore driver (support/Snapshot.h),
  /// threaded into the primary engine (never the SMC fallback or the
  /// cross-check reference). Null = no checkpointing.
  std::shared_ptr<Checkpointer> Checkpoint;
};

/// What a governed run consumed, for reports and regression tracking.
struct ResourceSpend {
  uint64_t StatesExpanded = 0; ///< Configs / branches / particle-steps.
  uint64_t MergeHits = 0;
  /// Merge-table lookups (exact engines; 0 for the samplers). The spend
  /// line reports the hit *rate* MergeHits/MergeAttempts.
  uint64_t MergeAttempts = 0;
  uint64_t PeakFrontier = 0;
  uint64_t PeakBytes = 0; ///< Approximate; see BudgetTracker.
  uint64_t SchedSteps = 0;
  double WallMs = 0;
  /// Name of the budget class that tripped ("state", "wall-clock", ...);
  /// empty when no budget tripped.
  std::string TrippedBudget;
};

/// Result of a governed inference run. Exactly one of Exact / Translated /
/// Sampled is populated, per EngineUsed; when the fallback policy fired,
/// EngineUsed is Smc, FellBack is set, and ExactStatus records why the
/// primary engine gave up.
struct InferenceResult {
  EngineStatus Status;
  EngineChoice EngineUsed = EngineChoice::Exact;
  bool FellBack = false;
  EngineStatus ExactStatus; ///< Primary engine's status when FellBack.
  std::optional<ExactResult> Exact;
  std::optional<PsiExactResult> Translated;
  std::optional<SampleResult> Sampled;
  ResourceSpend Spent;
  /// Statistical-health summary: final/min ESS, resample count, support
  /// size, degeneracy warnings (populated from the DiagCollector when
  /// InferenceOptions::Obs carries one; TV divergence when CrossCheckTv).
  InferenceDiagnostics Diagnostics;
};

/// Runs the spec's query under the given engine, budgets, and degradation
/// policy. Never throws on the inference path: every failure — invalid
/// input (untranslatable program), tripped budget, cancellation, or an
/// unexpected internal error — is carried in Result.Status.
InferenceResult runInference(const LoadedNetwork &Net,
                             const InferenceOptions &Opts);

/// Renders the answer of an exact run (ExactResult or PsiExactResult) for
/// humans: a single number for a concrete run, one "guard: value" line per
/// parameter region, or "unsupported: <reason>".
std::string formatExactAnswer(const ExactAnswer &Result,
                              const ParamTable &Params);

/// Renders one network configuration for humans: per-node state variables
/// and queue occupancy, e.g. "H1{pkt_cnt=2} S0{route1=2 route2=2}".
/// Zero-valued state and empty queues are omitted.
std::string describeConfig(const NetworkSpec &Spec, const NetConfig &Config);

} // namespace bayonet

#endif // BAYONET_API_BAYONET_H
