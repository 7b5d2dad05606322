//===- examples/bayonet_cli.cpp - The bayonet command-line tool -----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `bayonet` command-line tool: parse a .bay program, run its query
/// with a chosen inference engine under resource budgets, or emit the
/// translated PSI / WebPPL program (the paper's Figure 1 pipeline).
///
///   bayonet FILE [--engine exact|translated|smc|reject]
///                [--particles N] [--seed N] [--threads N]
///                [--txcache on|off] [--intern on|off]
///                [--deadline-ms N] [--max-states N] [--max-frontier N]
///                [--max-merges N] [--max-bytes N] [--max-sched-steps N]
///                [--on-budget-exceeded fail|fallback-smc]
///                [--param NAME=VALUE]...
///                [--emit-psi] [--emit-webppl]
///                [--stats] [--dist]
///                [--trace-out FILE] [--metrics-out FILE] [--diag-out FILE]
///                [--profile-out FILE] [--profile-format json|collapsed]
///                [--profile-annotate]
///                [--checkpoint-out FILE] [--checkpoint-every N]
///                [--resume FILE]
///
/// Flags are the only configuration. The one environment variable read is
/// the test hook BAYONET_FAULT (e.g. "crash-at-checkpoint=3"), so a test can
/// kill a real process at a checkpoint and resume it.
///
/// Exit codes: 0 = answered, 1 = query unsupported by the engine,
/// 2 = invalid input (usage, parse, check, untranslatable), 3 = budget
/// exceeded or cancelled, 4 = internal error.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "support/Diag.h"
#include "support/Snapshot.h"
#include "support/ThreadPool.h"
#include "translate/Translator.h"
#include "translate/WebPplEmitter.h"

#include <charconv>
#include <cinttypes>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>

using namespace bayonet;

namespace {

/// Cancellation handle tripped by SIGINT/SIGTERM: the engines drain their
/// workers, write a final checkpoint (when one is configured), and return a
/// Cancelled status that exits with code 3.
CancelToken GCancel; // NOLINT: signal handler needs process-global state.

/// Exporter flush shared with main()'s catch handlers, so trace/metrics/
/// diagnostics files are written even when an exception escapes runMain.
std::function<void()> GFlushObs;

extern "C" void handleShutdownSignal(int) {
  // Async-signal-safe: requestCancel is a relaxed atomic store.
  GCancel.requestCancel();
}

void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = handleShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESTART;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

/// The `txcache:` stats line, printed the same for both exact pipelines
/// when the cache was used.
void printTxCache(uint64_t Hits, uint64_t Misses, uint64_t Evictions,
                  uint64_t Bytes) {
  if (Hits || Misses)
    std::printf("txcache: hits=%" PRIu64 " misses=%" PRIu64
                " evictions=%" PRIu64 " bytes=%" PRIu64 "\n",
                Hits, Misses, Evictions, Bytes);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: bayonet FILE [options]\n"
      "  --engine exact|translated|smc|reject   inference engine "
      "(default exact)\n"
      "  --particles N                          particles for sampling "
      "(default 1000)\n"
      "  --seed N                               PRNG seed\n"
      "  --threads N                            worker threads (0 = auto, "
      "1 = serial)\n"
      "  --txcache on|off                       transition cache of the "
      "exact and\n"
      "                                         translated engines (default "
      "on;\n"
      "                                         results identical either "
      "way)\n"
      "  --intern on|off                        hash-consing block arena of "
      "the exact\n"
      "                                         and translated engines "
      "(default on;\n"
      "                                         results identical either "
      "way)\n"
      "  --param NAME=VALUE                     bind a symbolic parameter\n"
      "  --deadline-ms N                        wall-clock budget\n"
      "  --max-states N                         expansion budget (configs / "
      "branches / particle-steps)\n"
      "  --max-frontier N                       live frontier size budget\n"
      "  --max-merges N                         merged-successor budget\n"
      "  --max-bytes N                          approximate live heap bytes "
      "budget\n"
      "  --max-sched-steps N                    scheduler step budget\n"
      "  --on-budget-exceeded fail|fallback-smc degrade to SMC instead of "
      "failing (default fail)\n"
      "  --emit-psi                             print the translated PSI "
      "program\n"
      "  --emit-webppl                          print the translated WebPPL "
      "program\n"
      "  --stats                                print engine statistics and "
      "resource spend\n"
      "  --dist                                 print the exact terminal "
      "distribution\n"
      "  --trace-out FILE                       write a Chrome-trace JSON "
      "of the run\n"
      "  --metrics-out FILE                     write Prometheus text-format "
      "metrics\n"
      "  --diag-out FILE                        write inference-quality "
      "diagnostics JSON\n"
      "                                         (per-step ESS, frontier / "
      "merge trajectory)\n"
      "  --profile-out FILE                     write a source-attributed "
      "cost profile\n"
      "  --profile-format json|collapsed        profile renderer (collapsed "
      "feeds flamegraph.pl\n"
      "                                         and speedscope; default "
      "json)\n"
      "  --profile-annotate                     print the source annotated "
      "with %% states / %% time\n"
      "  --checkpoint-out FILE                  write durable snapshots of "
      "the run\n"
      "  --checkpoint-every N                   snapshot every N serial "
      "boundaries (default 32)\n"
      "  --resume FILE                          resume from a snapshot "
      "(falls back to FILE.prev)\n"
      "\n"
      "Every value flag also takes the --flag=VALUE form.\n"
      "\n"
      "SIGINT/SIGTERM cancel gracefully: workers drain, a final snapshot\n"
      "is written, exporters flush, and the exit code is 3.\n"
      "--diag-out also prints degeneracy warnings on stderr.\n"
      "\n"
      "exit codes: 0 ok, 1 query unsupported, 2 invalid input, 3 budget "
      "exceeded\n"
      "or cancelled, 4 internal error\n");
}

/// Prints a one-line diagnostic in the frontend's format.
void reportError(const std::string &Message) {
  Diag D{DiagKind::Error, {}, Message};
  std::fprintf(stderr, "bayonet: %s\n", D.toString().c_str());
}

int exitCodeFor(const EngineStatus &S, bool QueryUnsupported) {
  switch (S.Code) {
  case StatusCode::Ok:
    return QueryUnsupported ? 1 : 0;
  case StatusCode::BudgetExceeded:
  case StatusCode::Cancelled:
    return 3;
  case StatusCode::Invalid:
    return 2;
  case StatusCode::Internal:
    return 4;
  }
  return 4;
}

int runMain(int argc, char **argv) {
  std::string FileName, Engine = "exact";
  InferenceOptions IOpts;
  // The CLI hard-exits on an injected crash fault (emulating a killed
  // process); in-process tests use soft crashes instead.
  CheckpointOptions CkOpts;
  CkOpts.HardExit = true;
  // BAYONET_FAULT is a test hook, not a setting: it arms fault injection in
  // the budget and snapshot layers, each ignoring the other's tokens.
  if (const char *Fault = std::getenv("BAYONET_FAULT")) {
    IOpts.Limits.Fault = Fault;
    CkOpts.Fault = Fault;
  }
  bool EmitPsi = false, EmitWebPpl = false, Stats = false, Dist = false;
  std::string TraceFile, MetricsFile, DiagFile;
  std::string ProfileFile, ProfileFormat = "json";
  bool ProfileAnnotate = false;
  std::vector<std::pair<std::string, Rational>> ParamBinds;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    // Every value flag takes both "--flag VALUE" and "--flag=VALUE".
    auto takeValue = [&](const char *Name, std::string &Out) -> bool {
      if (Arg == Name) {
        if (I + 1 >= argc) {
          std::fprintf(stderr, "error: %s needs a value\n", Name);
          exit(2);
        }
        Out = argv[++I];
        return true;
      }
      std::string Prefix = std::string(Name) + "=";
      if (Arg.rfind(Prefix, 0) == 0) {
        Out = Arg.substr(Prefix.size());
        return true;
      }
      return false;
    };
    // A decimal integer in [Min, Max]. A sign, trailing junk or overflow
    // is invalid input, never a wrapped or truncated value.
    auto takeNum = [&](const char *Name, auto &Out, uint64_t Min = 0,
                       uint64_t Max = UINT64_MAX) -> bool {
      std::string Val;
      if (!takeValue(Name, Val))
        return false;
      uint64_t N = 0;
      auto [End, Err] = std::from_chars(Val.data(), Val.data() + Val.size(), N);
      if (Err != std::errc() || End != Val.data() + Val.size() || N < Min ||
          N > Max) {
        std::fprintf(stderr,
                     "error: %s expects an integer in [%" PRIu64 ", %" PRIu64
                     "], got '%s'\n",
                     Name, Min, Max, Val.c_str());
        exit(2);
      }
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(N);
      return true;
    };
    // An on|off table switch: on sets the table's default byte cap.
    auto takeSwitch = [&](const char *Name, uint64_t OnBytes,
                          uint64_t &Out) -> bool {
      std::string Val;
      if (!takeValue(Name, Val))
        return false;
      if (Val != "on" && Val != "off") {
        std::fprintf(stderr, "error: %s expects on or off, got '%s'\n", Name,
                     Val.c_str());
        exit(2);
      }
      Out = Val == "on" ? OnBytes : 0;
      return true;
    };
    std::string Val;
    if (takeValue("--engine", Engine) ||
        takeNum("--particles", IOpts.Particles, 1, UINT_MAX) ||
        takeNum("--seed", IOpts.Seed) ||
        takeNum("--threads", IOpts.Threads, 0, 4096) ||
        takeSwitch("--txcache", TxCacheDefaultBytes, IOpts.TxCacheBytes) ||
        takeSwitch("--intern", InternDefaultBytes, IOpts.InternBytes) ||
        takeNum("--deadline-ms", IOpts.Limits.DeadlineMs, 0, INT64_MAX) ||
        takeNum("--max-states", IOpts.Limits.MaxStates) ||
        takeNum("--max-frontier", IOpts.Limits.MaxFrontier) ||
        takeNum("--max-merges", IOpts.Limits.MaxMerges) ||
        takeNum("--max-bytes", IOpts.Limits.MaxBytes) ||
        takeNum("--max-sched-steps", IOpts.Limits.MaxSchedSteps) ||
        takeNum("--checkpoint-every", CkOpts.Every, 1) ||
        takeValue("--trace-out", TraceFile) ||
        takeValue("--metrics-out", MetricsFile) ||
        takeValue("--diag-out", DiagFile) ||
        takeValue("--profile-out", ProfileFile) ||
        takeValue("--profile-format", ProfileFormat) ||
        takeValue("--checkpoint-out", CkOpts.OutPath) ||
        takeValue("--resume", CkOpts.ResumePath)) {
      // Handled by the helper.
    } else if (takeValue("--on-budget-exceeded", Val)) {
      if (Val == "fail")
        IOpts.OnBudgetExceeded = BudgetPolicy::Fail;
      else if (Val == "fallback-smc")
        IOpts.OnBudgetExceeded = BudgetPolicy::FallbackSmc;
      else {
        std::fprintf(stderr,
                     "error: --on-budget-exceeded expects fail or "
                     "fallback-smc, got '%s'\n",
                     Val.c_str());
        return 2;
      }
    } else if (takeValue("--param", Val)) {
      size_t Eq = Val.find('=');
      Rational Value;
      if (Eq == std::string::npos ||
          !Rational::fromString(Val.substr(Eq + 1), Value)) {
        std::fprintf(stderr, "error: bad --param '%s' (want NAME=VALUE)\n",
                     Val.c_str());
        return 2;
      }
      ParamBinds.emplace_back(Val.substr(0, Eq), Value);
    } else if (Arg == "--emit-psi")
      EmitPsi = true;
    else if (Arg == "--emit-webppl")
      EmitWebPpl = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--profile-annotate")
      ProfileAnnotate = true;
    else if (Arg == "--dist")
      Dist = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    } else if (FileName.empty())
      FileName = Arg;
    else {
      std::fprintf(stderr, "error: multiple input files\n");
      return 2;
    }
  }
  if (FileName.empty()) {
    usage();
    return 2;
  }

  if (Engine == "exact")
    IOpts.Engine = EngineChoice::Exact;
  else if (Engine == "translated")
    IOpts.Engine = EngineChoice::Translated;
  else if (Engine == "smc")
    IOpts.Engine = EngineChoice::Smc;
  else if (Engine == "reject")
    IOpts.Engine = EngineChoice::Reject;
  else {
    std::fprintf(stderr, "error: unknown engine '%s'\n", Engine.c_str());
    return 2;
  }
  IOpts.CollectTerminals = Dist;

  if (ProfileFormat != "json" && ProfileFormat != "collapsed") {
    std::fprintf(stderr,
                 "error: --profile-format expects json or collapsed, got "
                 "'%s'\n",
                 ProfileFormat.c_str());
    return 2;
  }
  bool WantProfile = !ProfileFile.empty() || ProfileAnnotate;
  std::shared_ptr<ObsContext> ObsCtx;
  if (!TraceFile.empty() || !MetricsFile.empty() || !DiagFile.empty() ||
      WantProfile)
    ObsCtx = std::make_shared<ObsContext>(
        /*EnableTrace=*/!TraceFile.empty(),
        /*EnableMetrics=*/!MetricsFile.empty(),
        /*EnableDiag=*/!DiagFile.empty(),
        /*EnableProfile=*/WantProfile);
  ObsHandle Obs(ObsCtx);
  IOpts.Obs = ObsCtx;

  std::shared_ptr<Checkpointer> Checkpoint;
  if (CkOpts.enabled()) {
    Checkpoint = std::make_shared<Checkpointer>(CkOpts);
    IOpts.Checkpoint = Checkpoint;
  }

  // Graceful signal-driven shutdown: SIGINT/SIGTERM trip the cancel token
  // the engines poll; they drain, checkpoint, and report Cancelled.
  IOpts.Cancel = GCancel;
  installSignalHandlers();

  // Writes the requested exporter files; called once all spans are closed.
  // Captures by value so main()'s catch handlers can still flush through
  // GFlushObs after this frame has unwound.
  auto exportObs = [ObsCtx, TraceFile, MetricsFile, DiagFile, ProfileFile,
                    ProfileFormat, ProfileAnnotate, FileName]() -> bool {
    if (!ObsCtx)
      return true;
    auto writeFile = [](const std::string &Path,
                        const std::string &Text) -> bool {
      std::ofstream Out(Path);
      Out << Text;
      Out.close();
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        return false;
      }
      return true;
    };
    if (!TraceFile.empty() && ObsCtx->tracer() &&
        !writeFile(TraceFile, ObsCtx->tracer()->renderChromeJson()))
      return false;
    // The pool counters live process-global (they are thread-count
    // dependent by construction); they are passed in at export time.
    if (!MetricsFile.empty() && ObsCtx->metrics() &&
        !writeFile(MetricsFile,
                   ObsCtx->metrics()->renderProm(ThreadPool::stats())))
      return false;
    if (!DiagFile.empty() && ObsCtx->diag()) {
      DiagReport DR = ObsCtx->diag()->report();
      if (!writeFile(DiagFile, DR.toJson()))
        return false;
      // The degeneracy / blowup warnings, also in the report's "warnings".
      for (const std::string &W : DR.Summary.Warnings)
        std::fprintf(stderr, "warning: %s\n", W.c_str());
    }
    if (Profiler *P = ObsCtx->profiler()) {
      if (!ProfileFile.empty() &&
          !writeFile(ProfileFile, ProfileFormat == "collapsed"
                                      ? P->renderCollapsed()
                                      : P->renderJson()))
        return false;
      if (ProfileAnnotate) {
        std::ifstream In(FileName);
        std::stringstream Src;
        Src << In.rdbuf();
        std::fprintf(stderr, "%s", P->renderAnnotated(Src.str()).c_str());
      }
    }
    return true;
  };
  GFlushObs = [exportObs] { (void)exportObs(); };

  // The resource-spend report line; printed on success and on every error
  // exit (a failed run's partial spend is exactly what debugging needs).
  auto printSpend = [&](const ResourceSpend &S) {
    double MergeRate = S.MergeAttempts
                           ? static_cast<double>(S.MergeHits) /
                                 static_cast<double>(S.MergeAttempts)
                           : 0.0;
    std::printf("spent: states=%" PRIu64 " merges=%" PRIu64 "/%" PRIu64
                " (rate %.3f) peak-frontier=%" PRIu64 " peak-bytes=%" PRIu64
                " sched-steps=%" PRIu64 " wall-ms=%.2f",
                S.StatesExpanded, S.MergeHits, S.MergeAttempts, MergeRate,
                S.PeakFrontier, S.PeakBytes, S.SchedSteps, S.WallMs);
    if (!S.TrippedBudget.empty())
      std::printf(" tripped=%s", S.TrippedBudget.c_str());
    std::printf("\n");
  };

  DiagEngine Diags;
  auto Net = loadNetworkFile(FileName, Diags, Obs);
  // Print warnings even on success.
  if (!Diags.diags().empty())
    std::fprintf(stderr, "%s", Diags.toString().c_str());
  if (!Net)
    return 2;

  for (const auto &[Name, Value] : ParamBinds) {
    if (!bindParam(*Net, Name, Value)) {
      std::fprintf(stderr, "error: no parameter named '%s'\n", Name.c_str());
      return 2;
    }
  }

  if (EmitPsi || EmitWebPpl) {
    DiagEngine TDiags;
    auto Psi = translateToPsi(Net->Spec, TDiags);
    if (!Psi) {
      std::fprintf(stderr, "%s", TDiags.toString().c_str());
      return 2;
    }
    if (EmitPsi)
      std::printf("%s", printPsiProgram(*Psi).c_str());
    if (EmitWebPpl)
      std::printf("%s", emitWebPpl(*Psi, IOpts.Particles).c_str());
    return exportObs() ? 0 : 2;
  }

  InferenceResult R = runInference(*Net, IOpts);

  if (R.Status.Code == StatusCode::Invalid ||
      R.Status.Code == StatusCode::Internal) {
    reportError(R.Status.toString());
    if (Stats) {
      printSpend(R.Spent);
      if (Checkpoint)
        std::printf("checkpoint: %s\n", Checkpoint->describe().c_str());
    }
    exportObs();
    return exitCodeFor(R.Status, false);
  }

  // The answer is always the first line on stdout (integration tests
  // anchor their regexes at the start of the output); engine attribution,
  // statistics, and any budget diagnostics follow.
  Span QuerySpan = Obs.span("query-eval");
  bool QueryUnsupported = false;
  switch (R.EngineUsed) {
  case EngineChoice::Exact:
    if (R.Exact) {
      const ExactResult &ER = *R.Exact;
      std::printf("%s\n", formatExactAnswer(ER, Net->Spec.Params).c_str());
      if (Dist) {
        std::printf("terminal distribution (%zu configurations):\n",
                    ER.Terminals.size());
        for (const auto &[Config, Weight] : ER.Terminals)
          std::printf("  %-14s %s\n",
                      Weight.toString(Net->Spec.Params).c_str(),
                      describeConfig(Net->Spec, Config).c_str());
      }
      if (auto E = ER.errorProbability(); E && !E->isZero())
        std::printf("error probability: %s (~%f)\n", E->toString().c_str(),
                    E->toDouble());
      if (Stats) {
        std::printf("configs expanded: %zu, max frontier: %zu, steps: %lld, "
                    "merge hits: %zu\n",
                    ER.ConfigsExpanded, ER.MaxFrontierSize,
                    static_cast<long long>(ER.StepsUsed), ER.MergeHits);
        printTxCache(ER.TxHits, ER.TxMisses, ER.TxEvictions, ER.TxBytes);
        if (ER.InternHits || ER.InternMisses)
          std::printf("intern: hits=%" PRIu64 " misses=%" PRIu64
                      " evictions=%" PRIu64 " bytes=%" PRIu64 "\n",
                      ER.InternHits, ER.InternMisses, ER.InternEvictions,
                      ER.InternBytes);
        if (!ER.WorkerConfigsExpanded.empty()) {
          std::printf("configs expanded per worker:");
          for (size_t N : ER.WorkerConfigsExpanded)
            std::printf(" %zu", N);
          std::printf("\n");
        }
      }
      QueryUnsupported = ER.QueryUnsupported;
    }
    break;
  case EngineChoice::Translated:
    if (R.Translated) {
      const PsiExactResult &PR = *R.Translated;
      std::printf("%s\n", formatExactAnswer(PR, Net->Spec.Params).c_str());
      if (Stats) {
        std::printf("branches expanded: %zu, max dist: %zu, merge hits: "
                    "%zu\n",
                    PR.BranchesExpanded, PR.MaxDistSize, PR.MergeHits);
        printTxCache(PR.TxHits, PR.TxMisses, PR.TxEvictions, PR.TxBytes);
      }
      QueryUnsupported = PR.QueryUnsupported;
    }
    break;
  case EngineChoice::Smc:
  case EngineChoice::Reject:
    if (R.Sampled) {
      const SampleResult &SR = *R.Sampled;
      if (SR.QueryUnsupported)
        std::printf("unsupported: %s\n", SR.UnsupportedReason.c_str());
      else
        std::printf("%f (+- %f at ~95%%)\n", SR.Value, 1.96 * SR.StdError);
      if (SR.ErrorFraction > 0)
        std::printf("error fraction: %f\n", SR.ErrorFraction);
      if (Stats)
        std::printf("survivors: %u / %u particles\n", SR.Survivors,
                    SR.Particles);
      QueryUnsupported = SR.QueryUnsupported;
    }
    break;
  }
  QuerySpan.end();

  if (R.FellBack)
    std::printf("engine: %s (fell back from %s: %s)\n",
                engineChoiceName(R.EngineUsed),
                engineChoiceName(IOpts.Engine),
                R.ExactStatus.toString().c_str());
  else if (Stats)
    std::printf("engine: %s\n", engineChoiceName(R.EngineUsed));
  if (Stats) {
    printSpend(R.Spent);
    if (Checkpoint)
      std::printf("checkpoint: %s\n", Checkpoint->describe().c_str());
  }

  if (!R.Status.ok())
    reportError(R.Status.toString());
  if (!exportObs())
    return 2;
  return exitCodeFor(R.Status, QueryUnsupported);
}

} // namespace

int main(int argc, char **argv) {
  // Top-level handler: nothing below main reports failure by throwing on
  // purpose (the library carries EngineStatus), so anything arriving here
  // is converted to a one-line diagnostic and a stable exit code.
  try {
    return runMain(argc, argv);
  } catch (const InferenceError &E) {
    reportError(E.status().toString());
    if (GFlushObs)
      GFlushObs();
    return exitCodeFor(E.status(), false);
  } catch (const std::exception &E) {
    reportError(std::string("internal error: ") + E.what());
    if (GFlushObs)
      GFlushObs();
    return 4;
  } catch (...) {
    reportError("internal error: unknown exception");
    if (GFlushObs)
      GFlushObs();
    return 4;
  }
}
