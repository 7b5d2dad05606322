//===- tests/MiscTest.cpp - Diagnostics, printers, query eval -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "lang/AstPrinter.h"
#include "psi/PsiExact.h"
#include "query/QueryEval.h"
#include "translate/Translator.h"
#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

TEST(DiagTest, FormattingAndCounting) {
  DiagEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({2, 5}, "something odd");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 14}, "unknown node 'S9'");
  Diags.note({}, "declared here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string Text = Diags.toString();
  EXPECT_NE(Text.find("2:5: warning: something odd"), std::string::npos);
  EXPECT_NE(Text.find("3:14: error: unknown node 'S9'"), std::string::npos);
  // Location-less note renders without a position prefix.
  EXPECT_NE(Text.find("note: declared here"), std::string::npos);
}

TEST(AstPrinterTest, NegativeAndRationalLiteralsReparse) {
  // Printed numbers must re-parse even though the grammar has no negative
  // or fractional literals.
  for (const char *ExprText :
       {"0 - 3", "1/2", "(0 - 1)/2", "2 * (0 - 5) + 1/3"}) {
    DiagEngine D1;
    ExprPtr E1 = Parser::parseQueryExpr(ExprText, D1);
    ASSERT_FALSE(D1.hasErrors()) << ExprText;
    std::string P1 = printExpr(*E1);
    DiagEngine D2;
    ExprPtr E2 = Parser::parseQueryExpr(P1, D2);
    ASSERT_FALSE(D2.hasErrors()) << P1;
    EXPECT_EQ(P1, printExpr(*E2));
  }
}

TEST(QueryEvalTest, ConcreteEvaluation) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::CoinNetwork, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  // Build a terminal-ish config by hand: x@A = 1.
  NetConfig C;
  C.Nodes.resize(2);
  C.Nodes.mut(0).State.push_back(Value(Rational(1)));
  ASSERT_NE(Net->Spec.Query, nullptr);
  const Expr &Body = *Net->Spec.Query->Body;
  std::string Reason;
  auto V = evalQueryConstant(Net->Spec, Body, C, Reason);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, Rational(1)); // x == 1 holds.
  C.Nodes.mut(0).State[0] = Value(Rational(0));
  V = evalQueryConstant(Net->Spec, Body, C, Reason);
  EXPECT_EQ(*V, Rational(0));
  // Symbolic state splits into two guarded outcomes, so it has no single
  // constant value; no outcome failed, so there is no reason either.
  C.Nodes.mut(0).State[0] = Value(LinExpr::param(0));
  EXPECT_EQ(evalQuery(Net->Spec, Body, C).size(), 2u);
  EXPECT_FALSE(evalQueryConstant(Net->Spec, Body, C, Reason).has_value());
  EXPECT_TRUE(Reason.empty());
}

TEST(DescribeConfigTest, ShowsNonzeroStateAndQueues) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PingNetwork, Diags);
  ASSERT_TRUE(Net.has_value());
  NetConfig C;
  C.Nodes.resize(2);
  C.Nodes.mut(1).State.push_back(Value(Rational(1))); // arrived@B = 1
  C.Nodes.mut(0).QIn = PacketQueue(2);
  Packet P;
  P.Fields.push_back(Value(Rational(0)));
  C.Nodes.mut(0).QIn.pushBack({P, 0});
  std::string Text = describeConfig(Net->Spec, C);
  EXPECT_NE(Text.find("B{arrived=1}"), std::string::npos);
  EXPECT_NE(Text.find("A{|qin|=1}"), std::string::npos);
  // All-zero config.
  NetConfig Zero;
  Zero.Nodes.resize(2);
  EXPECT_EQ(describeConfig(Net->Spec, Zero), "(all zero)");
  Zero.Error = true;
  EXPECT_EQ(describeConfig(Net->Spec, Zero), "ERROR");
}

TEST(LoadNetworkTest, FileRoundTrip) {
  // loadNetworkFile reads from disk; reuse a shipped program.
  DiagEngine Diags;
  auto Net = loadNetworkFile(
      std::string(BAYONET_EXAMPLES_DIR) + "/figure2.bay", Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  EXPECT_EQ(Net->Spec.Topo.numNodes(), 5u);
  DiagEngine Missing;
  EXPECT_FALSE(loadNetworkFile("/does/not/exist.bay", Missing).has_value());
  EXPECT_TRUE(Missing.hasErrors());
}

TEST(FormatAnswerTest, ConcreteSymbolicAndEmpty) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value());
  ExactResult R = ExactEngine(Net->Spec).run();
  std::string Text = formatExactAnswer(R, Net->Spec.Params);
  EXPECT_NE(Text.find("30378810105265/67706637778944"), std::string::npos);

  ExactResult Empty;
  EXPECT_NE(formatExactAnswer(Empty, ParamTable()).find("no surviving"),
            std::string::npos);
  ExactResult Bad;
  Bad.QueryUnsupported = true;
  Bad.UnsupportedReason = "reasons";
  EXPECT_EQ(formatExactAnswer(Bad, ParamTable()), "unsupported: reasons");
}

/// The translated pipeline's answer on corpus program \p Name under
/// \p Query, as the CLI prints it.
std::string translatedAnswer(const std::string &Name,
                             const std::string &Query) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::corpusWithQuery(Name, Query), Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  if (!Net)
    return {};
  auto Psi = translateToPsi(Net->Spec, Diags);
  EXPECT_TRUE(Psi.has_value()) << Diags.toString();
  if (!Psi)
    return {};
  return formatExactAnswer(PsiExact(*Psi).run(), Net->Spec.Params);
}

TEST(FormatAnswerTest, TranslatedUnsupportedQueries) {
  // Part of the mass fails the query: printing the rest as the answer
  // (1999/2000 here, three 0 regions below) would be wrong.
  EXPECT_EQ(translatedAnswer("reliability6", "probability(1/arrived@H1 == 1)"),
            "unsupported: division by zero");
  EXPECT_EQ(translatedAnswer("figure2_symbolic",
                             "probability(COST_01 * COST_02 < 3)"),
            "unsupported: nonlinear arithmetic on symbolic parameters is not "
            "supported");
  // A supported translated query prints like the direct engine's.
  EXPECT_EQ(translatedAnswer("reliability6", "probability(arrived@H1 == 1)"),
            "1999/2000 (~0.999500)");
}

TEST(SourceLocTest, Validity) {
  SourceLoc Invalid;
  EXPECT_FALSE(Invalid.isValid());
  SourceLoc Valid{7, 3};
  EXPECT_TRUE(Valid.isValid());
  EXPECT_EQ(Valid.toString(), "7:3");
}

} // namespace
