//===- tests/TranslatorTest.cpp - Translation equivalence tests -----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core architectural claim of the paper is that Bayonet networks can
/// be compiled into standard probabilistic programs and solved there
/// (Section 4). These tests translate every benchmark network to the PSI
/// IR and assert that the PSI exact engine produces *identical* rationals
/// to the direct operational-semantics engine.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "psi/PsiExact.h"
#include "psi/PsiLiveness.h"
#include "translate/Translator.h"
#include "translate/WebPplEmitter.h"
#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bayonet;

namespace {

PsiProgram translateOk(const NetworkSpec &Spec) {
  DiagEngine Diags;
  auto P = translateToPsi(Spec, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.toString();
  return P ? std::move(*P) : PsiProgram();
}

TEST(TranslatorTest, ExactEquivalenceOnAllTestNetworks) {
  for (const char *Src :
       {testnets::PingNetwork, testnets::CoinNetwork, testnets::DieNetwork,
        testnets::ObservedDieNetwork, testnets::AssertDieNetwork,
        testnets::LossyNetwork}) {
    DiagEngine Diags;
    auto Net = loadNetwork(Src, Diags);
    ASSERT_TRUE(Net.has_value()) << Diags.toString();
    ExactResult Direct = ExactEngine(Net->Spec).run();
    PsiProgram P = translateOk(Net->Spec);
    PsiExactResult Translated = PsiExact(P).run();

    ASSERT_FALSE(Direct.QueryUnsupported);
    ASSERT_FALSE(Translated.QueryUnsupported)
        << Translated.UnsupportedReason;
    EXPECT_EQ(Direct.QueryMass.concreteValue(),
              Translated.QueryMass.concreteValue())
        << "query mass mismatch for:\n" << Src;
    EXPECT_EQ(Direct.OkMass.concreteValue(),
              Translated.OkMass.concreteValue());
    EXPECT_EQ(Direct.ErrorMass.concreteValue(),
              Translated.ErrorMass.concreteValue());
  }
}

TEST(TranslatorTest, PaperExampleExactEquivalence) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  PsiProgram P = translateOk(Net->Spec);
  PsiExactResult R = PsiExact(P).run();
  ASSERT_TRUE(R.concreteValue().has_value()) << R.UnsupportedReason;
  // The translated program reproduces the paper's rational bit for bit,
  // just like the direct engine.
  EXPECT_EQ(R.concreteValue()->toString(), "30378810105265/67706637778944");
}

TEST(TranslatorTest, SymbolicSynthesisThroughTranslation) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExampleSymbolic, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  PsiProgram P = translateOk(Net->Spec);
  PsiExactResult R = PsiExact(P).run();
  ASSERT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  std::vector<ProbCase> Cases = R.cases();
  ASSERT_EQ(Cases.size(), 3u);
  // Same Figure 3 values as the direct engine.
  std::vector<std::string> Values;
  for (const ProbCase &C : Cases)
    Values.push_back(C.Value.toString());
  EXPECT_NE(std::find(Values.begin(), Values.end(),
                      "30378810105265/67706637778944"),
            Values.end());
  EXPECT_NE(std::find(Values.begin(), Values.end(), "491806403/1088391168"),
            Values.end());
  EXPECT_NE(std::find(Values.begin(), Values.end(),
                      "2025575442161/4231664861184"),
            Values.end());
}

TEST(TranslatorTest, DeterministicSchedulerTranslation) {
  std::string Src = testnets::PaperExample;
  size_t Pos = Src.find("scheduler uniform;");
  ASSERT_NE(Pos, std::string::npos);
  Src.replace(Pos, 18, "scheduler deterministic;");
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  ASSERT_TRUE(Net.has_value());
  PsiProgram P = translateOk(Net->Spec);
  PsiExactResult R = PsiExact(P).run();
  ASSERT_TRUE(R.concreteValue().has_value());
  EXPECT_EQ(*R.concreteValue(), Rational(1));
}

TEST(TranslatorTest, RoundRobinTranslatesAndAgrees) {
  std::string Src = testnets::PaperExample;
  size_t Pos = Src.find("scheduler uniform;");
  Src.replace(Pos, 18, "scheduler roundrobin;");
  for (const std::string &Net : {Src, std::string(testnets::TinyCongestion)}) {
    DiagEngine Diags;
    auto Loaded = loadNetwork(Net, Diags);
    ASSERT_TRUE(Loaded.has_value()) << Diags.toString();
    ASSERT_EQ(Loaded->Spec.Sched, SchedulerKind::RoundRobin);
    ExactResult Direct = ExactEngine(Loaded->Spec).run();
    PsiProgram P = translateOk(Loaded->Spec);
    PsiExactResult Translated = PsiExact(P).run();
    ASSERT_FALSE(Translated.QueryUnsupported) << Translated.UnsupportedReason;
    EXPECT_TRUE(Direct.QueryMass == Translated.QueryMass) << Net;
    EXPECT_TRUE(Direct.OkMass == Translated.OkMass) << Net;
    EXPECT_TRUE(Direct.ErrorMass == Translated.ErrorMass) << Net;
  }
}

// The rotor is read by the next step's Schedule before it is written, so
// liveness must keep it across the step loop's merge; the popped-entry
// scratch is written before it is read and is dead there. The step keeps
// no scheduler temporaries of its own.
TEST(TranslatorTest, RoundRobinRotorStaysLive) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::TinyCongestion, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  PsiProgram P = translateOk(Net->Spec);
  auto Slot = [&](const std::string &Name) {
    auto It = std::find(P.VarNames.begin(), P.VarNames.end(), Name);
    EXPECT_NE(It, P.VarNames.end()) << Name;
    return static_cast<unsigned>(It - P.VarNames.begin());
  };
  const PStmt *Step = nullptr;
  for (const PStmtPtr &S : P.Body)
    if (S->Kind == PStmtKind::Repeat)
      Step = S.get();
  ASSERT_NE(Step, nullptr);
  PsiLiveness Live = computeMergeLiveness(P);
  const std::vector<unsigned> &Dead = Live.at(Step).Iter;
  auto IsDead = [&](unsigned V) {
    return std::find(Dead.begin(), Dead.end(), V) != Dead.end();
  };
  EXPECT_FALSE(IsDead(Slot("__rotor")));
  for (const char *Gone : {"__n", "__choice", "__cnt", "__done"})
    EXPECT_EQ(std::find(P.VarNames.begin(), P.VarNames.end(), Gone),
              P.VarNames.end())
        << Gone;
  EXPECT_TRUE(IsDead(Slot("__entry")));
  EXPECT_FALSE(IsDead(Slot("qin_A")));
  EXPECT_FALSE(IsDead(Slot("s_B_got")));
}

TEST(TranslatorTest, PsiPrinterProducesProgramText) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value());
  PsiProgram P = translateOk(Net->Spec);
  std::string Text = printPsiProgram(P);
  EXPECT_NE(Text.find("def main()"), std::string::npos);
  EXPECT_NE(Text.find("qin_H0"), std::string::npos);
  EXPECT_NE(Text.find("repeat 60"), std::string::npos);
  EXPECT_NE(Text.find("schedule uniform {"), std::string::npos);
  EXPECT_NE(Text.find("when qin_H0.length > 0 {"), std::string::npos);
  EXPECT_NE(Text.find("assert"), std::string::npos);
  // Section 4: generated programs are substantially larger than the
  // Bayonet source.
  EXPECT_GT(Text.size(), std::string(testnets::PaperExample).size());
}

TEST(TranslatorTest, WebPplEmission) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value());
  PsiProgram P = translateOk(Net->Spec);
  std::string Js = emitWebPpl(P, 1000);
  EXPECT_NE(Js.find("var model = function()"), std::string::npos);
  EXPECT_NE(Js.find("Infer({method: 'SMC', particles: 1000}"),
            std::string::npos);
  EXPECT_NE(Js.find("factor(-Infinity)"), std::string::npos);
  EXPECT_NE(Js.find("env.qin_H0"), std::string::npos);
  EXPECT_NE(Js.find("var __slots = filter(function(s) { return "
                    "__queues[s].length > 0; }"),
            std::string::npos);
  EXPECT_NE(Js.find("var __s = uniformDraw(__slots);"), std::string::npos);
  EXPECT_NE(Js.find("if (__s === 0) {"), std::string::npos);
  // The paper: WebPPL programs are ~10x the Bayonet source.
  EXPECT_GT(Js.size(), std::string(testnets::PaperExample).size() * 2);
}

// Each scheduler's pick in the emitted WebPPL. No WebPPL runtime is
// available to the suite, so this checks the text only.
TEST(TranslatorTest, WebPplEmitsEachSchedulerPick) {
  struct Case {
    const char *Decl, *Pick;
  } Cases[] = {
      {"scheduler deterministic;", "var __s = __slots[0];"},
      {"scheduler roundrobin;", "env.__rotor = (__s + 1) % 10;"},
      {"scheduler weighted { H0 -> 3 };",
       "var __w = [3, 3, 1, 1, 1, 1, 1, 1, 1, 1];"},
      {"scheduler weighted { H0 -> 3 };",
       "var __s = categorical({ps: map(function(s) { return __w[s]; }, "
       "__slots), vs: __slots});"},
  };
  for (const Case &C : Cases) {
    std::string Src = testnets::PaperExample;
    size_t Pos = Src.find("scheduler uniform;");
    ASSERT_NE(Pos, std::string::npos);
    Src.replace(Pos, 18, C.Decl);
    DiagEngine Diags;
    auto Net = loadNetwork(Src, Diags);
    ASSERT_TRUE(Net.has_value()) << Diags.toString();
    std::string Js = emitWebPpl(translateOk(Net->Spec), 1000);
    EXPECT_NE(Js.find(C.Pick), std::string::npos) << C.Decl << "\n" << Js;
  }
}

} // namespace
