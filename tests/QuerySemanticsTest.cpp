//===- tests/QuerySemanticsTest.cpp - One semantics across engines --------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The direct exact engine, the translated PSI pipeline and SMC give a
/// query the same meaning: `and` / `or` short-circuit in every engine, and
/// a query that fails is unsupported for the same reason in each of them.
/// The probes are corpus programs with a replaced query.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "lang/Ops.h"
#include "psi/PsiExact.h"
#include "translate/Translator.h"
#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Name, const std::string &Query) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::corpusWithQuery(Name, Query), Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return Net ? std::move(*Net) : LoadedNetwork();
}

PsiExactResult runTranslated(const LoadedNetwork &Net) {
  DiagEngine Diags;
  auto Psi = translateToPsi(Net.Spec, Diags);
  EXPECT_TRUE(Psi.has_value()) << Diags.toString();
  return Psi ? PsiExact(*Psi).run() : PsiExactResult();
}

TEST(QuerySemantics, OrShortCircuitsInEveryEngine) {
  // Where arrived@H1 == 0 the right operand divides by zero; the left one
  // decides there, so the query is 1 everywhere.
  LoadedNetwork Net =
      load("reliability6", "probability(arrived@H1 == 0 or 1/arrived@H1 == 1)");
  ExactResult E = ExactEngine(Net.Spec).run();
  EXPECT_FALSE(E.QueryUnsupported) << E.UnsupportedReason;
  ASSERT_TRUE(E.concreteValue().has_value());
  EXPECT_EQ(*E.concreteValue(), Rational(1));

  PsiExactResult T = runTranslated(Net);
  EXPECT_FALSE(T.QueryUnsupported) << T.UnsupportedReason;
  ASSERT_TRUE(T.concreteValue().has_value());
  EXPECT_EQ(*T.concreteValue(), Rational(1));

  SampleOptions Opts;
  Opts.Particles = 2000;
  Opts.Seed = 1;
  SampleResult S = Sampler(Net.Spec, Opts).run();
  EXPECT_FALSE(S.QueryUnsupported) << S.UnsupportedReason;
  EXPECT_EQ(S.Value, 1.0);
}

TEST(QuerySemantics, OrShortCircuitsBeforeNonlinearArithmetic) {
  // The right operand is nonlinear in the symbolic costs, but the left one
  // always holds: both exact pipelines give 1 on every region.
  LoadedNetwork Net = load(
      "figure2_symbolic", "probability(pkt_cnt@H1 >= 0 or COST_01*COST_02 < 1)");
  ExactResult E = ExactEngine(Net.Spec).run();
  PsiExactResult T = runTranslated(Net);
  EXPECT_FALSE(E.QueryUnsupported) << E.UnsupportedReason;
  EXPECT_FALSE(T.QueryUnsupported) << T.UnsupportedReason;
  std::vector<ProbCase> EC = E.cases(), TC = T.cases();
  ASSERT_EQ(EC.size(), TC.size());
  ASSERT_FALSE(EC.empty());
  for (size_t I = 0; I < EC.size(); ++I) {
    EXPECT_EQ(EC[I].Region, TC[I].Region)
        << EC[I].Region.toString(Net.Spec.Params);
    EXPECT_EQ(EC[I].Value, TC[I].Value);
    EXPECT_EQ(EC[I].Value, Rational(1));
  }
}

TEST(QuerySemantics, AndShortCircuitsOnFalseLeft) {
  // `and` with a false left operand never divides.
  LoadedNetwork Net = load(
      "reliability6", "probability(arrived@H1 != 0 and 1/arrived@H1 == 1)");
  ExactResult E = ExactEngine(Net.Spec).run();
  PsiExactResult T = runTranslated(Net);
  EXPECT_FALSE(E.QueryUnsupported) << E.UnsupportedReason;
  ASSERT_TRUE(E.concreteValue().has_value());
  ASSERT_TRUE(T.concreteValue().has_value());
  EXPECT_EQ(*E.concreteValue(), *T.concreteValue());
  EXPECT_EQ(*E.concreteValue(), Rational(BigInt(1999), BigInt(2000)));
}

TEST(QuerySemantics, OneReasonPerFailure) {
  // Each probe is "probability(<Lhs> < 3)"; the three engines, and the
  // node-program evaluator on Lhs where it has no state reference, fail
  // with the one lang/Ops.h reason.
  struct Probe {
    const char *Lhs;
    const char *Reason;
  };
  for (const Probe &P : {Probe{"COST_01 * COST_02", ops::Nonlinear},
                         Probe{"pkt_cnt@H1 / 0", ops::DivisionByZero},
                         Probe{"COST_01 / 0", ops::DivisionByZero},
                         Probe{"1 / COST_01", ops::SymbolicDivisor}}) {
    std::string Query = "probability(" + std::string(P.Lhs) + " < 3)";
    LoadedNetwork Net = load("figure2_symbolic", Query);
    ExactResult E = ExactEngine(Net.Spec).run();
    PsiExactResult T = runTranslated(Net);
    EXPECT_TRUE(E.QueryUnsupported) << Query;
    EXPECT_TRUE(T.QueryUnsupported) << Query;
    EXPECT_EQ(E.UnsupportedReason, P.Reason) << Query;
    EXPECT_EQ(T.UnsupportedReason, P.Reason) << Query;
    EXPECT_EQ(formatExactAnswer(E, Net.Spec.Params),
              "unsupported: " + std::string(P.Reason));
    EXPECT_EQ(formatExactAnswer(T, Net.Spec.Params),
              formatExactAnswer(E, Net.Spec.Params));
    if (std::string(P.Lhs).find('@') != std::string::npos)
      continue;
    const Expr &Lhs = *cast<BinaryExpr>(*Net.Spec.Query->Body).Lhs;
    auto Outs = NodeExecutor(Net.Spec).evalInitExact(Lhs);
    ASSERT_EQ(Outs.size(), 1u) << P.Lhs;
    EXPECT_TRUE(Outs[0].Failed) << P.Lhs;
    EXPECT_EQ(Outs[0].FailReason, P.Reason) << P.Lhs;
  }
}

TEST(QuerySemantics, SamplerReportsTheFailureReason) {
  // Most particles end with arrived@H1 == 1 and divide by zero.
  LoadedNetwork Net =
      load("reliability6", "probability(1/(arrived@H1 - 1) == 1)");
  SampleOptions Opts;
  Opts.Particles = 200;
  Opts.Seed = 1;
  SampleResult S = Sampler(Net.Spec, Opts).run();
  EXPECT_TRUE(S.QueryUnsupported);
  EXPECT_EQ(S.UnsupportedReason, ops::DivisionByZero);
}

TEST(QuerySemantics, FailureAfterADrawKeepsItsMass) {
  // Only the mass that reaches the division fails, once: half of it here,
  // in the direct engine and the translated pipeline alike.
  const char *Src = R"(
topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
packet_fields { f }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  if flip(1/2) { x = flip(1/2) / 0; }
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query probability(x@A == 0);
)";
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult E = ExactEngine(Net->Spec).run();
  PsiExactResult T = runTranslated(*Net);
  const Rational Half(BigInt(1), BigInt(2));
  EXPECT_EQ(E.ErrorMass.concreteValue(), Half);
  EXPECT_EQ(T.ErrorMass.concreteValue(), Half);
  EXPECT_EQ(E.OkMass.concreteValue(), Half);
  EXPECT_EQ(T.OkMass.concreteValue(), Half);
}

} // namespace
