//===- tests/CrossEngineTest.cpp - Parameterized engine properties --------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style parameterized suite run over a family of networks:
///  1. the direct operational-semantics engine and the translate-to-PSI
///     pipeline produce identical exact masses;
///  2. probability mass is conserved (Ok + Error == 1 without observes,
///     <= 1 with them);
///  3. SMC estimates converge to the exact answer, or, when too few
///     particles can satisfy the evidence, the sampler reports the
///     degeneracy;
///  4. pretty-print -> re-parse -> re-check -> re-run is the identity on
///     the exact answer (full pipeline round-trip).
/// A second suite runs every corpus program under examples/programs through
/// both exact pipelines.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "lang/AstPrinter.h"
#include "psi/PsiExact.h"
#include "scenarios/Scenarios.h"
#include "translate/Translator.h"
#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

using namespace bayonet;

namespace {

struct NetCase {
  const char *Name;
  std::string Source;
  bool HasObserves; // Observe statements or a given-clause reduce Z.
};

std::vector<NetCase> allCases() {
  return {
      {"ping", testnets::PingNetwork, false},
      {"coin", testnets::CoinNetwork, false},
      {"die", testnets::DieNetwork, false},
      {"observed_die", testnets::ObservedDieNetwork, true},
      {"assert_die", testnets::AssertDieNetwork, false},
      {"lossy", testnets::LossyNetwork, false},
      {"tiny_congestion", testnets::TinyCongestion, false},
      {"paper_example", scenarios::paperExample(), false},
      {"paper_example_det",
       scenarios::paperExample(false, "deterministic"), false},
      {"congestion_chain1", scenarios::congestionChain(1), false},
      {"reliability_chain1", scenarios::reliabilityChain(1), false},
      {"reliability_chain2", scenarios::reliabilityChain(2), false},
      {"gossip3", scenarios::gossip(3), false},
      {"gossip4", scenarios::gossip(4), false},
      {"bayes_rel_13", scenarios::reliabilityBayes("13", "rand"), true},
      {"bayes_rel_123", scenarios::reliabilityBayes("123", "rand"), true},
  };
}

class CrossEngineTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(CrossEngineTest, DirectAndTranslatedAgreeExactly) {
  const NetCase &C = GetParam();
  DiagEngine Diags;
  auto Net = loadNetwork(C.Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Direct = ExactEngine(Net->Spec).run();
  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_FALSE(Direct.QueryUnsupported) << Direct.UnsupportedReason;
  ASSERT_FALSE(Translated.QueryUnsupported) << Translated.UnsupportedReason;
  EXPECT_TRUE(Direct.QueryMass == Translated.QueryMass)
      << "direct " << Direct.QueryMass.toString(Net->Spec.Params)
      << " vs translated " << Translated.QueryMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.OkMass == Translated.OkMass);
  EXPECT_TRUE(Direct.ErrorMass == Translated.ErrorMass);
}

TEST_P(CrossEngineTest, MassConservation) {
  const NetCase &C = GetParam();
  DiagEngine Diags;
  auto Net = loadNetwork(C.Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult R = ExactEngine(Net->Spec).run();
  Rational Total = R.OkMass.concreteValue() + R.ErrorMass.concreteValue();
  if (C.HasObserves) {
    EXPECT_LE(Total, Rational(1));
  } else {
    EXPECT_EQ(Total, Rational(1));
  }
  // The query numerator can never exceed the normalizer for probability
  // queries.
  if (R.Kind == QueryKind::Probability) {
    EXPECT_LE(R.QueryMass.concreteValue(), R.OkMass.concreteValue());
  }
}

TEST_P(CrossEngineTest, SmcConvergesToExact) {
  const NetCase &C = GetParam();
  DiagEngine Diags;
  auto Net = loadNetwork(C.Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Exact = ExactEngine(Net->Spec).run();
  auto V = Exact.concreteValue();
  ASSERT_TRUE(V.has_value()) << C.Name;
  SampleOptions Opts;
  Opts.Particles = 4000;
  Opts.Seed = 424242;
  auto Obs = std::make_shared<ObsContext>(false, false, /*EnableDiag=*/true);
  Opts.Obs = Obs;
  SampleResult S = Sampler(Net->Spec, Opts).run();
  // P(evidence) is the exact Ok mass, so the population expects
  // Particles * P(evidence) particles to satisfy every observation. A 95%
  // interval of +-0.05 on a probability needs about 400 of them (the
  // paper's Section 4 caveat about unlikely observations). Below that the
  // estimate means nothing, and the sampler's ESS diagnostics must say so.
  const double Evidence = Exact.OkMass.concreteValue().toDouble();
  if (Opts.Particles * Evidence < 400) {
    const DiagReport R = Obs->diag()->report();
    EXPECT_LT(R.Summary.MinEssFraction, Obs->diag()->essWarnFraction())
        << C.Name << ": P(evidence) = " << Evidence;
    EXPECT_EQ(R.Summary.SupportSize, S.Survivors) << C.Name;
    return;
  }
  double Scale =
      Exact.Kind == QueryKind::Expectation ? std::max(1.0, V->toDouble()) : 1.0;
  EXPECT_NEAR(S.Value, V->toDouble(), 0.05 * Scale) << C.Name;
}

TEST_P(CrossEngineTest, PrintReparseRerunIsIdentity) {
  const NetCase &C = GetParam();
  DiagEngine D1;
  auto Net1 = loadNetwork(C.Source, D1);
  ASSERT_TRUE(Net1.has_value()) << D1.toString();
  ExactResult R1 = ExactEngine(Net1->Spec).run();

  std::string Printed = printSourceFile(*Net1->File);
  DiagEngine D2;
  auto Net2 = loadNetwork(Printed, D2);
  ASSERT_TRUE(Net2.has_value()) << D2.toString() << "\nprinted:\n" << Printed;
  ExactResult R2 = ExactEngine(Net2->Spec).run();

  EXPECT_TRUE(R1.QueryMass == R2.QueryMass) << C.Name;
  EXPECT_TRUE(R1.OkMass == R2.OkMass);
  EXPECT_TRUE(R1.ErrorMass == R2.ErrorMass);
}

// Unbound parameters make every cost comparison symbolic: the one input on
// which PsiExact's concrete evaluator must decline and split like the
// direct engine does.
TEST(CrossEngineSymbolic, Figure2SymbolicRegionsAgree) {
  DiagEngine Diags;
  auto Net = loadNetworkFile(
      std::string(BAYONET_EXAMPLES_DIR) + "/figure2_symbolic.bay", Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Direct = ExactEngine(Net->Spec).run();
  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_FALSE(Direct.QueryUnsupported) << Direct.UnsupportedReason;
  ASSERT_FALSE(Translated.QueryUnsupported) << Translated.UnsupportedReason;
  std::vector<ProbCase> DC = Direct.cases();
  std::vector<ProbCase> TC = Translated.cases();
  ASSERT_EQ(DC.size(), 3u);
  ASSERT_EQ(TC.size(), DC.size());
  for (size_t I = 0; I < DC.size(); ++I) {
    EXPECT_TRUE(DC[I].Region == TC[I].Region)
        << "region " << I << ": direct "
        << DC[I].Region.toString(Net->Spec.Params) << " vs translated "
        << TC[I].Region.toString(Net->Spec.Params);
    EXPECT_EQ(DC[I].Value, TC[I].Value) << "region " << I;
  }
}

/// Corpus programs left out of CrossEngineCorpus, with the reason.
const std::map<std::string, std::string> &corpusExclusions() {
  static const std::map<std::string, std::string> Excluded = {
      {"gossip30", "the direct exact engine needs gigabytes of frontier"},
  };
  return Excluded;
}

/// Every examples/programs/*.bay stem, sorted, minus the exclusions.
std::vector<std::string> corpusPrograms() {
  std::vector<std::string> Names;
  for (const auto &E :
       std::filesystem::directory_iterator(BAYONET_EXAMPLES_DIR)) {
    const std::filesystem::path &Path = E.path();
    if (Path.extension() == ".bay" &&
        !corpusExclusions().count(Path.stem().string()))
      Names.push_back(Path.stem().string());
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

class CrossEngineCorpus : public ::testing::TestWithParam<std::string> {};

// The paper's claim that the translated pipeline computes what the direct
// semantics does, on every corpus program: the same masses bit for bit,
// and comparable work. PsiExact runs each environment straight through a
// scheduler iteration, so the branches entering iterations match the
// configurations the direct engine runs through scheduler steps.
TEST_P(CrossEngineCorpus, DirectAndTranslatedAgree) {
  DiagEngine Diags;
  auto Net = loadNetworkFile(
      std::string(BAYONET_EXAMPLES_DIR) + "/" + GetParam() + ".bay", Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Direct = ExactEngine(Net->Spec).run();
  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_TRUE(Direct.Status.ok()) << Direct.Status.toString();
  ASSERT_TRUE(Translated.Status.ok()) << Translated.Status.toString();
  EXPECT_TRUE(Direct.QueryMass == Translated.QueryMass)
      << "direct " << Direct.QueryMass.toString(Net->Spec.Params)
      << " vs translated " << Translated.QueryMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.OkMass == Translated.OkMass);
  EXPECT_TRUE(Direct.ErrorMass == Translated.ErrorMass);
  EXPECT_GT(Direct.ConfigsExpanded, 0u);
  EXPECT_LE(Translated.BranchesExpanded, 2 * Direct.ConfigsExpanded)
      << "translated " << Translated.BranchesExpanded << " branches vs direct "
      << Direct.ConfigsExpanded << " configurations";
}

TEST(CrossEngineCorpusList, ExclusionsNameCorpusPrograms) {
  for (const auto &[Name, Why] : corpusExclusions())
    EXPECT_TRUE(std::filesystem::exists(std::string(BAYONET_EXAMPLES_DIR) +
                                        "/" + Name + ".bay"))
        << Name << " (" << Why << ")";
  EXPECT_GE(corpusPrograms().size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, CrossEngineCorpus, ::testing::ValuesIn(corpusPrograms()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

INSTANTIATE_TEST_SUITE_P(
    AllNetworks, CrossEngineTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<NetCase> &Info) {
      return Info.param.Name;
    });

} // namespace
