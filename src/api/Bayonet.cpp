//===- api/Bayonet.cpp - Public facade -------------------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"

#include "lang/Lexer.h"
#include "support/Snapshot.h"
#include "translate/Translator.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace bayonet;

const char *bayonet::engineChoiceName(EngineChoice E) {
  switch (E) {
  case EngineChoice::Exact:
    return "exact";
  case EngineChoice::Translated:
    return "translated";
  case EngineChoice::Smc:
    return "smc";
  case EngineChoice::Reject:
    return "reject";
  }
  return "unknown";
}

namespace {

/// Fallback sizing: particles per millisecond of remaining deadline (floor
/// 64, cap InferenceOptions::Particles).
constexpr unsigned FallbackParticlesPerMs = 8;

/// The CrossCheckTv exact reference gives up past this many states.
constexpr uint64_t TvRefMaxStates = 200000;

ResourceSpend spendOf(const BudgetTracker &T, double WallMs) {
  ResourceSpend S;
  S.StatesExpanded = T.statesSpent();
  S.MergeHits = T.mergesSpent();
  S.PeakFrontier = T.peakFrontier();
  S.PeakBytes = T.peakBytes();
  S.SchedSteps = T.schedStepsSpent();
  S.WallMs = WallMs;
  if (auto V = T.violation())
    S.TrippedBudget = budgetClassName(V->Which);
  return S;
}

std::string trimmed(std::string S) {
  while (!S.empty() && (S.back() == '\n' || S.back() == ' '))
    S.pop_back();
  return S;
}

/// Runs the selected primary engine, filling status/spend/payload.
void runPrimary(const LoadedNetwork &Net, const InferenceOptions &Opts,
                const std::shared_ptr<ObsContext> &Obs,
                const std::shared_ptr<BudgetTracker> &Tracker,
                const std::shared_ptr<Checkpointer> &Checkpoint,
                InferenceResult &R) {
  switch (Opts.Engine) {
  case EngineChoice::Exact: {
    ExactOptions EO;
    EO.Threads = Opts.Threads;
    EO.CollectTerminals = Opts.CollectTerminals;
    EO.TxCacheBytes = Opts.TxCacheBytes;
    EO.InternBytes = Opts.InternBytes;
    EO.Budget = Tracker;
    EO.Obs = Obs;
    EO.Checkpoint = Checkpoint;
    ExactResult ER = ExactEngine(Net.Spec, EO).run();
    R.Status = ER.Status;
    R.Spent = spendOf(*Tracker, ER.WallMs);
    R.Spent.MergeAttempts = ER.MergeAttempts;
    R.Exact = std::move(ER);
    return;
  }
  case EngineChoice::Translated: {
    DiagEngine TDiags;
    ObsHandle O(Obs);
    Span TranslateSpan = O.span("translate");
    auto Psi = translateToPsi(Net.Spec, TDiags);
    TranslateSpan.end();
    if (!Psi) {
      R.Status = EngineStatus::invalid(trimmed(TDiags.toString()));
      return;
    }
    PsiExactOptions PO;
    PO.Threads = Opts.Threads;
    PO.TxCacheBytes = Opts.TxCacheBytes;
    PO.InternBytes = Opts.InternBytes;
    PO.Budget = Tracker;
    PO.Obs = Obs;
    PO.Checkpoint = Checkpoint;
    PsiExactResult PR = PsiExact(*Psi, PO).run();
    R.Status = PR.Status;
    R.Spent = spendOf(*Tracker, PR.WallMs);
    R.Spent.MergeAttempts = PR.MergeAttempts;
    R.Translated = std::move(PR);
    return;
  }
  case EngineChoice::Smc:
  case EngineChoice::Reject: {
    SampleOptions SO;
    SO.Mode = Opts.Engine == EngineChoice::Smc
                  ? SampleOptions::Method::Smc
                  : SampleOptions::Method::Rejection;
    SO.Particles = Opts.Particles;
    SO.Seed = Opts.Seed;
    SO.Threads = Opts.Threads;
    SO.Budget = Tracker;
    SO.Obs = Obs;
    SO.Checkpoint = Checkpoint;
    SampleResult SR = Sampler(Net.Spec, SO).run();
    R.Status = SR.Status;
    R.Spent = spendOf(*Tracker, SR.WallMs);
    R.Sampled = std::move(SR);
    return;
  }
  }
}

} // namespace

InferenceResult bayonet::runInference(const LoadedNetwork &Net,
                                      const InferenceOptions &Opts) {
  InferenceResult R;
  R.EngineUsed = Opts.Engine;
  // A checkpointed run always keeps a run log, so its snapshots carry the
  // log and a resume with metrics or diagnostics on reports the whole run.
  std::shared_ptr<ObsContext> Obs = Opts.Obs;
  if (!Obs && Opts.Checkpoint)
    Obs = std::make_shared<ObsContext>(false, false);
  ObsHandle O(Obs);
  try {
    auto Tracker = std::make_shared<BudgetTracker>(Opts.Limits, Opts.Cancel);
    const std::shared_ptr<Checkpointer> &Checkpoint = Opts.Checkpoint;
    if (Checkpoint) {
      // Restore before the "inference" span opens: the snapshot's trace is
      // installed wholesale and its open spans (this one included) are
      // re-adopted by the spans the resumed run opens.
      Checkpoint->restoreCommon(Tracker.get(), Obs.get());
      if (Checkpoint->resumeFailed()) {
        // A requested resume without a valid snapshot is an error, never a
        // silent fresh start.
        R.Status = EngineStatus::invalid("cannot resume: " +
                                         Checkpoint->resumeError());
        return R;
      }
    }
    Span InferSpan = O.span("inference");
    if (O.tracing())
      InferSpan.arg("engine", engineChoiceName(Opts.Engine));
    if (O.tracing()) {
      // A budget trip becomes a trace event attached to whatever span is
      // open when it fires. The observer runs on the tripping thread; the
      // tracer is thread-safe.
      ObsHandle VO = O;
      Tracker->setViolationObserver([VO](const BudgetViolation &V) mutable {
        VO.event("budget-trip", {{"class", budgetClassName(V.Which)},
                                 {"observed", std::to_string(V.Observed)},
                                 {"limit", std::to_string(V.Limit)}});
      });
    }
    runPrimary(Net, Opts, Obs, Tracker, Checkpoint, R);
    // The trip is counted here, on the serial thread, once per tracker.
    if (Tracker->violation() && O.log())
      ++O.log()->BudgetTrips;

    // Graceful degradation: an exact engine ran out of budget and the
    // policy prefers an approximate answer over a failure. Cancellation is
    // user intent and never falls back.
    if (R.Status.Code == StatusCode::BudgetExceeded &&
        Opts.OnBudgetExceeded == BudgetPolicy::FallbackSmc &&
        (Opts.Engine == EngineChoice::Exact ||
         Opts.Engine == EngineChoice::Translated)) {
      R.ExactStatus = R.Status;
      if (O.log())
        ++O.log()->Fallbacks;
      O.event("fallback-smc",
              {{"from", engineChoiceName(Opts.Engine)},
               {"why", budgetClassName(R.Status.Violation.Which)}});
      // Size the particle population from the remaining time budget.
      int64_t RemainMs = Tracker->remainingMs();
      unsigned Particles = Opts.Particles;
      BudgetLimits FallbackLimits; // The fallback gets time budget only.
      if (RemainMs >= 0) {
        uint64_t Sized =
            static_cast<uint64_t>(RemainMs) * FallbackParticlesPerMs;
        Particles = static_cast<unsigned>(std::clamp<uint64_t>(
            Sized, 64, Opts.Particles ? Opts.Particles : 64));
        // Keep the fallback itself bounded, but give it enough room to
        // produce the floor-sized estimate even at a spent deadline.
        FallbackLimits.DeadlineMs = std::max<int64_t>(RemainMs, 10);
      }
      auto FallbackTracker =
          std::make_shared<BudgetTracker>(FallbackLimits, Opts.Cancel);
      SampleOptions SO;
      SO.Mode = SampleOptions::Method::Smc;
      SO.Particles = Particles;
      SO.Seed = Opts.Seed;
      SO.Threads = Opts.Threads;
      SO.Budget = FallbackTracker;
      SO.Obs = Obs;
      SampleResult SR = Sampler(Net.Spec, SO).run();
      R.FellBack = true;
      R.EngineUsed = EngineChoice::Smc;
      R.Status = SR.Status;
      // The spend report covers both runs.
      ResourceSpend FS = spendOf(*FallbackTracker, SR.WallMs);
      R.Spent.StatesExpanded += FS.StatesExpanded;
      R.Spent.MergeHits += FS.MergeHits;
      R.Spent.PeakFrontier = std::max(R.Spent.PeakFrontier, FS.PeakFrontier);
      R.Spent.PeakBytes = std::max(R.Spent.PeakBytes, FS.PeakBytes);
      R.Spent.SchedSteps += FS.SchedSteps;
      R.Spent.WallMs += FS.WallMs;
      R.Sampled = std::move(SR);
    }

    // Cross-engine check: a cheap exact reference for a sampled probability
    // answer. The reference runs under its own states budget and without
    // obs, so it neither pollutes the trace nor breaks determinism.
    std::optional<double> Tv;
    if (Opts.CrossCheckTv && R.Sampled && R.Status.Code == StatusCode::Ok &&
        !R.Sampled->QueryUnsupported &&
        R.Sampled->Kind == QueryKind::Probability) {
      ExactOptions EO;
      EO.Threads = Opts.Threads;
      BudgetLimits RefLimits;
      RefLimits.MaxStates = TvRefMaxStates;
      EO.Budget = std::make_shared<BudgetTracker>(RefLimits, Opts.Cancel);
      ExactResult Ref = ExactEngine(Net.Spec, EO).run();
      if (Ref.Status.Code == StatusCode::Ok && !Ref.QueryUnsupported)
        if (auto V = Ref.concreteValue())
          Tv = std::abs(V->toDouble() - R.Sampled->Value);
    }
    if (O.log())
      O.log()->Tv = Tv;
    if (const DiagCollector *DC = O.diag()) {
      R.Diagnostics = DC->summary();
    } else {
      R.Diagnostics.Engine = engineChoiceName(R.EngineUsed);
      R.Diagnostics.TvDivergence = Tv;
    }
  } catch (const InferenceError &E) {
    R.Status = E.status();
  } catch (const std::exception &E) {
    R.Status = EngineStatus::internal(E.what());
  } catch (...) {
    R.Status = EngineStatus::internal("unknown exception");
  }
  return R;
}

std::optional<LoadedNetwork> bayonet::loadNetwork(std::string_view Source,
                                                  DiagEngine &Diags,
                                                  ObsHandle Obs) {
  // Lex and parse run separately (instead of through Parser::parse) so
  // each frontend phase gets its own span.
  Span LexSpan = Obs.span("lex");
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  LexSpan.end();
  Span ParseSpan = Obs.span("parse");
  Parser P(std::move(Tokens), Diags);
  auto File = std::make_unique<SourceFile>(P.parseFile());
  ParseSpan.end();
  if (Diags.hasErrors())
    return std::nullopt;
  Span CheckSpan = Obs.span("check");
  auto Spec = checkNetwork(*File, Diags);
  CheckSpan.end();
  if (!Spec)
    return std::nullopt;
  LoadedNetwork Net;
  Net.File = std::move(File);
  Net.Spec = std::move(*Spec);
  return Net;
}

std::optional<LoadedNetwork> bayonet::loadNetworkFile(const std::string &Path,
                                                      DiagEngine &Diags,
                                                      ObsHandle Obs) {
  std::ifstream In(Path);
  if (!In) {
    Diags.error({}, "cannot open file '" + Path + "'");
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return loadNetwork(Buf.str(), Diags, Obs);
}

bool bayonet::bindParam(LoadedNetwork &Net, const std::string &Name,
                        const Rational &Value) {
  auto Index = Net.Spec.Params.lookup(Name);
  if (!Index)
    return false;
  Net.Spec.ParamValues[*Index] = Value;
  return true;
}

bool bayonet::unbindParam(LoadedNetwork &Net, const std::string &Name) {
  auto Index = Net.Spec.Params.lookup(Name);
  if (!Index)
    return false;
  Net.Spec.ParamValues[*Index] = std::nullopt;
  return true;
}

std::string bayonet::describeConfig(const NetworkSpec &Spec,
                                    const NetConfig &Config) {
  std::string Out;
  for (unsigned Node = 0; Node < Config.Nodes.size(); ++Node) {
    const NodeConfig &NC = Config.Nodes[Node];
    const DefDecl *Def =
        Node < Spec.NodePrograms.size() ? Spec.NodePrograms[Node] : nullptr;
    std::string Body;
    for (unsigned Slot = 0; Slot < NC.State.size(); ++Slot) {
      const Value &V = NC.State[Slot];
      if (V.isConcrete() && V.concrete().isZero())
        continue;
      if (!Body.empty())
        Body += " ";
      std::string Name = Def && Slot < Def->StateVars.size()
                             ? Def->StateVars[Slot].Name
                             : "s" + std::to_string(Slot);
      Body += Name + "=" + V.toString(Spec.Params);
    }
    if (!NC.QIn.empty())
      Body += (Body.empty() ? "" : " ") + std::string("|qin|=") +
              std::to_string(NC.QIn.size());
    if (!NC.QOut.empty())
      Body += (Body.empty() ? "" : " ") + std::string("|qout|=") +
              std::to_string(NC.QOut.size());
    if (Body.empty())
      continue;
    if (!Out.empty())
      Out += " ";
    Out += Spec.NodeNames[Node] + "{" + Body + "}";
  }
  if (Config.Error)
    Out += Out.empty() ? "ERROR" : " ERROR";
  return Out.empty() ? "(all zero)" : Out;
}

std::string bayonet::formatExactAnswer(const ExactAnswer &Result,
                                       const ParamTable &Params) {
  std::string Out;
  if (Result.QueryUnsupported)
    return "unsupported: " + Result.UnsupportedReason;
  if (auto V = Result.concreteValue()) {
    Out = V->toString();
    double D = V->toDouble();
    Out += " (~" + std::to_string(D) + ")";
    return Out;
  }
  for (const ProbCase &C : Result.cases()) {
    if (!Out.empty())
      Out += "\n";
    Out += C.Region.toString(Params) + ": " + C.Value.toString() + " (~" +
           std::to_string(C.Value.toDouble()) + ")";
  }
  if (Out.empty())
    Out = "no surviving mass (Z = 0)";
  return Out;
}
