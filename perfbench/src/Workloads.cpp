//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "api/Bayonet.h"
#include "lang/Checker.h"
#include "lang/Parser.h"
#include "translate/Translator.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

using namespace bayonet;
using namespace perfbench;

void Context::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

namespace {

//===----------------------------------------------------------------------===//
// References. None of them is computed by the code under test.
//===----------------------------------------------------------------------===//

/// Paper Section 5.5, load balancing, observation sequence S1,S0,S0,S1,H1:
/// printed 0.152; this rational matches all printed digits.
constexpr const char *LoadBalancingRef = "168606193907840/1108065772218173";
/// Paper Section 2.2 / Figure 3, the three regions of COST_01 against
/// COST_02 + COST_21 (equal, less, greater). The equality value is also
/// the Figure 2 answer for the concrete costs (2, 1, 1).
constexpr const char *Fig3EqRef = "30378810105265/67706637778944";
constexpr const char *Fig3LtRef = "491806403/1088391168";
constexpr const char *Fig3GtRef = "2025575442161/4231664861184";
/// Paper Section 5.5, Figure 13 with observations (1,2,3): P(rand).
constexpr const char *ReliabilityBayesRef = "41922792469/95643630613";
/// Paper Table 1, gossip with 30 nodes, the paper's SMC estimate.
constexpr double Gossip30Ref = 23.9910;

Rational rat(const char *Text) {
  Rational R;
  Rational::fromString(Text, R);
  return R;
}

/// Closed form for the reliability chains: each of the 7 diamonds of the
/// 30-node network delivers with probability 1 - P_FAIL/2, P_FAIL = 1/1000.
Rational reliability30Ref() {
  Rational Step = rat("1999/2000"), Acc(1);
  for (int I = 0; I < 7; ++I)
    Acc = Acc * Step;
  return Acc;
}

/// A reference moved far enough that every check against it fails.
Rational wrong(const Rational &R) { return R + rat("1/1000"); }

//===----------------------------------------------------------------------===//
// Shared steps
//===----------------------------------------------------------------------===//

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

struct Program {
  std::string Name;
  std::string Text;
};

std::string readProgram(const std::string &Root, const std::string &Name,
                        Program &Out) {
  std::string Path = Root + "/examples/programs/" + Name + ".bay";
  std::ifstream In(Path);
  if (!In)
    return "cannot read " + Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = {Name, Buf.str()};
  return {};
}

/// Lex + parse, then check: the two calls loadNetwork makes, timed apart.
std::optional<LoadedNetwork> load(Context &C, const std::string &Text) {
  DiagEngine Diags;
  std::unique_ptr<SourceFile> File;
  {
    LayerSpan S(C.Rec, "lang", "parse");
    File = std::make_unique<SourceFile>(Parser::parse(Text, Diags));
    S.arg("bytes", static_cast<double>(Text.size()));
  }
  if (Diags.hasErrors())
    return std::nullopt;
  std::optional<NetworkSpec> Spec;
  {
    LayerSpan S(C.Rec, "lang", "check");
    Spec = checkNetwork(*File, Diags);
  }
  if (!Spec)
    return std::nullopt;
  return LoadedNetwork{std::move(File), std::move(*Spec)};
}

size_t irSize(const std::vector<PStmtPtr> &Body) {
  size_t N = 0;
  for (const PStmtPtr &S : Body)
    N += 1 + irSize(S->Then) + irSize(S->Else);
  return N;
}

std::optional<PsiProgram> translate(Context &C, const LoadedNetwork &Net) {
  LayerSpan S(C.Rec, "translate", "translateToPsi");
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  if (Psi)
    S.arg("ir_size", static_cast<double>(irSize(Psi->Body)));
  return Psi;
}

/// The translated pipeline: translateToPsi, then PsiExact.
std::optional<Rational> translatedAnswer(Context &C, const LoadedNetwork &L) {
  auto Psi = translate(C, L);
  if (!Psi)
    return std::nullopt;
  PsiExactOptions O;
  O.Threads = C.Threads;
  LayerSpan S(C.Rec, "psi", "exact");
  PsiExactResult R = PsiExact(*Psi, O).run();
  S.arg("branches", static_cast<double>(R.BranchesExpanded));
  S.arg("merge_hits", static_cast<double>(R.MergeHits));
  S.arg("merge_attempts", static_cast<double>(R.MergeAttempts));
  S.arg("peak_dist", static_cast<double>(R.MaxDistSize));
  if (!R.Status.ok() || R.QueryUnsupported)
    return std::nullopt;
  return R.concreteValue();
}

void exactArgs(Recorder &Rec, int Span, const ExactResult &R) {
  Rec.arg(Span, "states", static_cast<double>(R.ConfigsExpanded));
  Rec.arg(Span, "merge_hits", static_cast<double>(R.MergeHits));
  Rec.arg(Span, "merge_attempts", static_cast<double>(R.MergeAttempts));
  Rec.arg(Span, "peak_frontier", static_cast<double>(R.MaxFrontierSize));
  Rec.arg(Span, "tx_hits", static_cast<double>(R.TxHits));
  Rec.arg(Span, "tx_misses", static_cast<double>(R.TxMisses));
  Rec.arg(Span, "tx_bytes", static_cast<double>(R.TxBytes));
  Rec.arg(Span, "intern_hits", static_cast<double>(R.InternHits));
  Rec.arg(Span, "intern_misses", static_cast<double>(R.InternMisses));
  Rec.arg(Span, "intern_bytes", static_cast<double>(R.InternBytes));
}

/// Direct ExactEngine run in a span of its own.
ExactResult runExact(Context &C, const LoadedNetwork &Net, const char *Layer,
                     bool Collect = false) {
  ExactOptions O;
  O.Threads = C.Threads;
  O.CollectTerminals = Collect;
  LayerSpan S(C.Rec, Layer, "exact");
  ExactResult R = ExactEngine(Net.Spec, O).run();
  S.arg("sched_steps", static_cast<double>(R.StepsUsed));
  exactArgs(C.Rec, S.index(), R);
  return R;
}

/// A governed query through runInference. The engine's own wall time is
/// recorded as an interp child of the api span, so the api layer's self
/// time is runInference's per-query fixed cost. \p EngineSpan receives
/// that child's index.
InferenceResult runQuery(Context &C, const LoadedNetwork &Net,
                         InferenceOptions Opts, int *EngineSpan = nullptr) {
  Opts.Threads = C.Threads;
  LayerSpan Api(C.Rec, "api", "runInference");
  InferenceResult R = runInference(Net, Opts);
  if (!C.Rec.on())
    return R;
  bool Smc = Opts.Engine == EngineChoice::Smc;
  int E = C.Rec.closedChild("interp", Smc ? "smc" : "exact",
                            R.Spent.WallMs / 1e3);
  if (EngineSpan)
    *EngineSpan = E;
  C.Rec.arg(E, "sched_steps", static_cast<double>(R.Spent.SchedSteps));
  if (R.Exact)
    exactArgs(C.Rec, E, *R.Exact);
  if (R.Sampled) {
    C.Rec.arg(E, "particle_steps", static_cast<double>(R.Spent.StatesExpanded));
    C.Rec.arg(E, "particles", R.Sampled->Particles);
    C.Rec.arg(E, "survivors", R.Sampled->Survivors);
  }
  return R;
}

std::optional<Rational> exactAnswer(const InferenceResult &R) {
  if (!R.Status.ok() || !R.Exact || R.Exact->QueryUnsupported)
    return std::nullopt;
  return R.Exact->concreteValue();
}

void appendConcrete(std::vector<Rational> &Out, const ExactResult &R) {
  for (const auto &[Config, W] : R.Terminals)
    if (W.isConcrete())
      Out.push_back(W.concreteValue());
}

//===----------------------------------------------------------------------===//
// exact_loadbalancing
//===----------------------------------------------------------------------===//

class ExactLoadBalancing : public Workload {
  Program Src;
  Rational Ref;

public:
  std::string prepare(const std::string &Root, uint64_t, bool,
                      bool WrongRef) override {
    Ref = rat(LoadBalancingRef);
    if (WrongRef)
      Ref = wrong(Ref);
    return readProgram(Root, "loadbalancing", Src);
  }

  void setup(Context &C) override { load(C, Src.Text); }

  void pass(Context &C) override {
    C.Rec.beginQuery();
    auto Net = load(C, Src.Text);
    if (!Net)
      return C.check(false, "loadbalancing: load failed");
    InferenceResult R = runQuery(C, *Net, {});
    auto V = exactAnswer(R);
    C.check(V && *V == Ref, "loadbalancing: exact answer differs from the "
                            "paper's rational");
  }

  std::vector<Rational> terminalWeights() override {
    Recorder Off(false);
    Context C{Off};
    std::vector<Rational> W;
    if (auto Net = load(C, Src.Text)) {
      InferenceOptions O;
      O.CollectTerminals = true;
      InferenceResult R = runQuery(C, *Net, O);
      if (R.Exact)
        appendConcrete(W, *R.Exact);
    }
    return W;
  }
};

//===----------------------------------------------------------------------===//
// translated_paper
//===----------------------------------------------------------------------===//

class TranslatedPaper : public Workload {
  struct Net {
    Program Src;
    std::optional<Rational> Ref; ///< None: direct and translated must agree.
  };
  std::vector<Net> Nets;

public:
  std::string prepare(const std::string &Root, uint64_t, bool,
                      bool WrongRef) override {
    Nets = {{{"figure2", {}}, rat(Fig3EqRef)},
            {{"congestion6", {}}, std::nullopt},
            {{"reliability30", {}}, reliability30Ref()}};
    if (WrongRef)
      Nets[0].Ref = wrong(*Nets[0].Ref);
    for (Net &N : Nets)
      if (std::string E = readProgram(Root, N.Src.Name, N.Src); !E.empty())
        return E;
    return {};
  }

  void setup(Context &C) override {
    for (const Net &N : Nets)
      if (auto L = load(C, N.Src.Text))
        translate(C, *L);
  }

  void pass(Context &C) override {
    for (const Net &N : Nets) {
      C.Rec.beginQuery();
      std::optional<Rational> Translated, Direct;
      if (auto L = load(C, N.Src.Text)) {
        Translated = translatedAnswer(C, *L);
        ExactResult D = runExact(C, *L, "interp");
        if (D.Status.ok() && !D.QueryUnsupported)
          Direct = D.concreteValue();
      }
      // Without a reference each pipeline is checked against the other.
      const auto &ForTranslated = N.Ref ? N.Ref : Direct;
      const auto &ForDirect = N.Ref ? N.Ref : Translated;
      C.check(Translated && ForTranslated && *Translated == *ForTranslated,
              N.Src.Name + ": translated answer is wrong or missing");
      C.check(Direct && ForDirect && *Direct == *ForDirect,
              N.Src.Name + ": direct answer is wrong or missing");
    }
  }

  std::vector<Rational> terminalWeights() override {
    Recorder Off(false);
    Context C{Off};
    std::vector<Rational> W;
    for (const Net &N : Nets)
      if (auto L = load(C, N.Src.Text))
        appendConcrete(W, runExact(C, *L, "interp", /*Collect=*/true));
    return W;
  }
};

//===----------------------------------------------------------------------===//
// smc_table1
//===----------------------------------------------------------------------===//

class SmcTable1 : public Workload {
  struct Net {
    Program Src;
    double Ref;
    double Tol; ///< Absolute tolerance at 20 000 particles.
    uint64_t Seed = 0;
  };
  std::vector<Net> Nets;
  unsigned Particles = 20000;

public:
  std::string prepare(const std::string &Root, uint64_t Seed, bool Reduced,
                      bool WrongRef) override {
    // Tolerances are several standard errors at 20 000 particles (observed
    // 95% half-widths: gossip30 0.043, reliability_bayes_123 0.0073,
    // reliability30 0.0008); gossip30's also covers the gap between the
    // paper's own SMC estimate and the converged value (~23.90).
    Nets = {{{"gossip30", {}}, Gossip30Ref, 0.3},
            {{"reliability30", {}}, reliability30Ref().toDouble(), 0.003},
            {{"reliability_bayes_123", {}},
             rat(ReliabilityBayesRef).toDouble(),
             0.025}};
    if (Reduced)
      Particles = 2000;
    double Widen = std::sqrt(20000.0 / Particles);
    for (size_t I = 0; I < Nets.size(); ++I) {
      Nets[I].Seed = splitmix64(Seed * 0x100 + I);
      Nets[I].Tol *= Widen;
      if (std::string E = readProgram(Root, Nets[I].Src.Name, Nets[I].Src);
          !E.empty())
        return E;
    }
    if (WrongRef)
      Nets[0].Ref += 10 * Nets[0].Tol;
    return {};
  }

  void setup(Context &C) override {
    for (const Net &N : Nets)
      load(C, N.Src.Text);
  }

  void pass(Context &C) override {
    for (const Net &N : Nets) {
      C.Rec.beginQuery();
      auto L = load(C, N.Src.Text);
      if (!L) {
        C.check(false, N.Src.Name + ": load failed");
        continue;
      }
      InferenceOptions O;
      O.Engine = EngineChoice::Smc;
      O.Particles = Particles;
      O.Seed = N.Seed;
      int EngineSpan = -1;
      InferenceResult R = runQuery(C, *L, O, &EngineSpan);
      bool Ok = R.Status.ok() && R.Sampled && !R.Sampled->QueryUnsupported;
      double Err = Ok ? std::abs(R.Sampled->Value - N.Ref) : 0;
      C.Rec.arg(EngineSpan, "abs_err", Err);
      C.check(Ok && Err <= N.Tol,
              N.Src.Name + ": SMC estimate outside the fixed tolerance");
    }
  }
};

//===----------------------------------------------------------------------===//
// sweep_small
//===----------------------------------------------------------------------===//

class SweepSmall : public Workload {
  /// One concrete Figure 3 cost point and its region.
  struct Point {
    int64_t C01, C02, C21;
    int Region; ///< 0: C01 < C02+C21, 1: equal, 2: greater.
  };
  std::vector<Program> Corpus;
  Program Symbolic;
  std::vector<Point> Points;
  Rational RegionRef[3];

  static int regionOf(const Rational &C01, const Rational &C02,
                      const Rational &C21) {
    int Cmp = Rational::compare(C01, C02 + C21);
    return Cmp < 0 ? 0 : Cmp == 0 ? 1 : 2;
  }

public:
  std::string prepare(const std::string &Root, uint64_t Seed, bool Reduced,
                      bool WrongRef) override {
    RegionRef[0] = rat(Fig3LtRef);
    RegionRef[1] = rat(Fig3EqRef);
    RegionRef[2] = rat(Fig3GtRef);
    if (WrongRef)
      RegionRef[1] = wrong(RegionRef[1]);

    std::vector<std::string> Names;
    std::error_code EC;
    for (const auto &E : std::filesystem::directory_iterator(
             Root + "/examples/programs", EC))
      if (E.path().extension() == ".bay")
        Names.push_back(E.path().stem().string());
    if (EC || Names.empty())
      return "cannot list " + Root + "/examples/programs";
    std::sort(Names.begin(), Names.end());
    Corpus.resize(Names.size());
    for (size_t I = 0; I < Names.size(); ++I)
      if (std::string E = readProgram(Root, Names[I], Corpus[I]); !E.empty())
        return E;
    if (std::string E = readProgram(Root, "figure2_symbolic", Symbolic);
        !E.empty())
      return E;

    // Stratified draw: a third of the points in each Figure 3 region, so
    // the work per pass barely depends on the seed.
    std::mt19937_64 Rng(splitmix64(Seed));
    auto Uni = [&](int64_t Lo, int64_t Hi) {
      return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
    };
    size_t N = Reduced ? 24 : 252;
    for (size_t I = 0; I < N; ++I) {
      Point P{0, Uni(1, 4), Uni(1, 4), static_cast<int>(I % 3)};
      int64_t Sum = P.C02 + P.C21;
      P.C01 = P.Region == 0 ? Uni(1, Sum - 1)
              : P.Region == 1 ? Sum
                              : Uni(Sum + 1, Sum + 4);
      Points.push_back(P);
    }
    std::shuffle(Points.begin(), Points.end(), Rng);
    return {};
  }

  void setup(Context &C) override {
    for (const Program &P : Corpus)
      load(C, P.Text);
    load(C, Symbolic.Text);
    for (size_t I = 0; I < Points.size(); ++I)
      load(C, Symbolic.Text);
  }

  void pass(Context &C) override {
    // (a) Load the whole example corpus.
    for (const Program &P : Corpus) {
      C.Rec.beginQuery();
      C.check(load(C, P.Text).has_value(), P.Name + ": load failed");
    }
    // (b) Figure 3 symbolically: three regions, a model for each.
    C.Rec.beginQuery();
    if (auto Net = load(C, Symbolic.Text))
      checkSymbolic(C, *Net);
    else
      C.check(false, "figure2_symbolic: load failed");
    // (c) One concrete query per cost point, each from source text.
    for (const Point &P : Points) {
      C.Rec.beginQuery();
      auto Net = load(C, Symbolic.Text);
      bool Bound = Net && bindParam(*Net, "COST_01", Rational(P.C01)) &&
                   bindParam(*Net, "COST_02", Rational(P.C02)) &&
                   bindParam(*Net, "COST_21", Rational(P.C21));
      if (!Bound) {
        C.check(false, "figure2_symbolic: load or bindParam failed");
        continue;
      }
      auto V = exactAnswer(runQuery(C, *Net, {}));
      C.check(V && *V == RegionRef[P.Region],
              "figure2 at (" + std::to_string(P.C01) + "," +
                  std::to_string(P.C02) + "," + std::to_string(P.C21) +
                  "): answer differs from its Figure 3 region value");
    }
  }

  std::vector<Rational> terminalWeights() override {
    Recorder Off(false);
    Context C{Off};
    std::vector<Rational> W;
    bool Seen[3] = {false, false, false};
    for (const Point &P : Points) {
      if (Seen[P.Region])
        continue;
      Seen[P.Region] = true;
      auto Net = load(C, Symbolic.Text);
      if (!Net)
        continue;
      bindParam(*Net, "COST_01", Rational(P.C01));
      bindParam(*Net, "COST_02", Rational(P.C02));
      bindParam(*Net, "COST_21", Rational(P.C21));
      InferenceOptions O;
      O.CollectTerminals = true;
      InferenceResult R = runQuery(C, *Net, O);
      if (R.Exact)
        appendConcrete(W, *R.Exact);
    }
    return W;
  }

private:
  void checkSymbolic(Context &C, const LoadedNetwork &Net) {
    std::vector<ProbCase> Cases;
    {
      LayerSpan S(C.Rec, "symbolic", "exact");
      ExactOptions O;
      O.Threads = C.Threads;
      ExactResult R = ExactEngine(Net.Spec, O).run();
      if (R.Status.ok() && !R.QueryUnsupported)
        Cases = R.cases();
      S.arg("regions", static_cast<double>(Cases.size()));
    }
    C.check(Cases.size() == 3, "figure2_symbolic: expected 3 regions");
    const ParamTable &Params = Net.Spec.Params;
    auto C01 = Params.lookup("COST_01"), C02 = Params.lookup("COST_02"),
         C21 = Params.lookup("COST_21");
    unsigned NumParams = Params.size();
    for (const ProbCase &Case : Cases) {
      // A model with every cost at least 1 must lie in the region, and
      // the paper's value for the model's region must be the case value.
      std::optional<std::vector<Rational>> Model;
      {
        LayerSpan S(C.Rec, "symbolic", "findModel");
        ConstraintSet Wanted = Case.Region;
        for (unsigned I = 0; I < NumParams; ++I)
          Wanted.add(Constraint(LinExpr(Rational(1)) - LinExpr::param(I),
                                RelKind::LE));
        Model = Wanted.findModel(NumParams);
      }
      bool Ok = Model && C01 && C02 && C21 && Case.Region.evaluate(*Model) &&
                Case.Value == RegionRef[regionOf((*Model)[*C01],
                                                 (*Model)[*C02],
                                                 (*Model)[*C21])];
      C.check(Ok, "figure2_symbolic region " +
                      Case.Region.toString(Params) +
                      ": no model, or value differs from Figure 3");
    }
  }
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "exact_loadbalancing", "translated_paper", "smc_table1", "sweep_small"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name) {
  if (Name == "exact_loadbalancing")
    return std::make_unique<ExactLoadBalancing>();
  if (Name == "translated_paper")
    return std::make_unique<TranslatedPaper>();
  if (Name == "smc_table1")
    return std::make_unique<SmcTable1>();
  if (Name == "sweep_small")
    return std::make_unique<SweepSmall>();
  return nullptr;
}
