//===- tests/WeightedSchedTest.cpp - Weighted scheduler tests -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted scheduler models heterogeneous equipment speed (paper
/// Section 2.1: "the scheduler might be used to model properties of the
/// equipment, such as link transmission delays and switch speed"). Two
/// hosts race a packet to a common sink; the sink records who arrived
/// first.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "lang/AstPrinter.h"
#include "psi/PsiExact.h"
#include "translate/Translator.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

using testnets::raceNetwork;

Rational exactValue(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  if (!Net)
    return Rational(-1);
  ExactResult R = ExactEngine(Net->Spec).run();
  EXPECT_TRUE(R.concreteValue().has_value()) << R.UnsupportedReason;
  return R.concreteValue() ? *R.concreteValue() : Rational(-1);
}

TEST(WeightedSchedTest, EqualWeightsAreSymmetric) {
  // With all weights 1 the race is fair: P(A first) = 1/2 exactly.
  Rational P = exactValue(raceNetwork("scheduler weighted { A -> 1 };"));
  EXPECT_EQ(P, Rational(BigInt(1), BigInt(2)));
  // And identical to the uniform scheduler.
  EXPECT_EQ(P, exactValue(raceNetwork("scheduler uniform;")));
}

TEST(WeightedSchedTest, HeavierNodeWinsMoreOften) {
  Rational Fair = exactValue(raceNetwork("scheduler uniform;"));
  Rational Favored =
      exactValue(raceNetwork("scheduler weighted { A -> 3 };"));
  Rational Dominant =
      exactValue(raceNetwork("scheduler weighted { A -> 50 };"));
  EXPECT_GT(Favored, Fair);
  EXPECT_GT(Dominant, Favored);
  EXPECT_LT(Dominant, Rational(1)); // B still wins sometimes.
  // Symmetry: weighting B by the same factor mirrors the probability.
  Rational Mirror =
      exactValue(raceNetwork("scheduler weighted { B -> 3 };"));
  EXPECT_EQ(Favored + Mirror, Rational(1));
}

TEST(WeightedSchedTest, TranslatedEngineAgrees) {
  DiagEngine Diags;
  auto Net =
      loadNetwork(raceNetwork("scheduler weighted { A -> 3, C -> 2 };"),
                  Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Direct = ExactEngine(Net->Spec).run();
  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_TRUE(Direct.concreteValue().has_value());
  ASSERT_TRUE(Translated.concreteValue().has_value());
  EXPECT_EQ(*Direct.concreteValue(), *Translated.concreteValue());
}

TEST(WeightedSchedTest, SamplerAgreesStatistically) {
  DiagEngine Diags;
  auto Net =
      loadNetwork(raceNetwork("scheduler weighted { A -> 3 };"), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Exact = ExactEngine(Net->Spec).run();
  SampleOptions Opts;
  Opts.Particles = 20000;
  SampleResult S = Sampler(Net->Spec, Opts).run();
  EXPECT_NEAR(S.Value, Exact.concreteValue()->toDouble(), 0.02);
}

TEST(WeightedSchedTest, CheckerRejectsBadWeights) {
  auto expectError = [](const std::string &Sched, const char *Needle) {
    DiagEngine Diags;
    auto Net = loadNetwork(raceNetwork(Sched), Diags);
    EXPECT_FALSE(Net.has_value());
    bool Found = false;
    for (const Diag &D : Diags.diags())
      if (D.Message.find(Needle) != std::string::npos)
        Found = true;
    EXPECT_TRUE(Found) << Diags.toString();
  };
  expectError("scheduler weighted { D -> 2 };", "unknown node 'D'");
  expectError("scheduler weighted { A -> 0 };", "must be positive");
  expectError("scheduler uniform { A -> 2 };",
              "requires the 'weighted' scheduler");
}

TEST(WeightedSchedTest, PrinterRoundTripsWeights) {
  DiagEngine D1;
  SourceFile F1 =
      Parser::parse(raceNetwork("scheduler weighted { A -> 3, B -> 2 };"),
                    D1);
  ASSERT_FALSE(D1.hasErrors()) << D1.toString();
  std::string Printed = printSourceFile(F1);
  EXPECT_NE(Printed.find("scheduler weighted { A -> 3, B -> 2 };"),
            std::string::npos);
  DiagEngine D2;
  SourceFile F2 = Parser::parse(Printed, D2);
  ASSERT_FALSE(D2.hasErrors());
  EXPECT_EQ(Printed, printSourceFile(F2));
}

} // namespace
