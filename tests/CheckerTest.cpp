//===- tests/CheckerTest.cpp - Integrity checker tests --------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "TestNetworks.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

/// Expects the source to fail checking with a message containing \p Needle.
void expectCheckError(std::string_view Src, const std::string &Needle) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_FALSE(Net.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  bool Found = false;
  for (const Diag &D : Diags.diags())
    if (D.Message.find(Needle) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "expected a message containing '" << Needle
                     << "', got:\n"
                     << Diags.toString();
}

TEST(CheckerTest, PaperExampleChecks) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  EXPECT_EQ(Net->Spec.Topo.numNodes(), 5u);
  EXPECT_EQ(Net->Spec.Topo.numLinks(), 5u);
  EXPECT_EQ(Net->Spec.QueueCapacity, 2);
  EXPECT_EQ(Net->Spec.NumSteps, 60);
  EXPECT_EQ(Net->Spec.Sched, SchedulerKind::Uniform);
  EXPECT_EQ(Net->Spec.Params.size(), 3u);
  EXPECT_FALSE(Net->Spec.hasFreeParams());
  ASSERT_NE(Net->Spec.Query, nullptr);
  EXPECT_EQ(Net->Spec.Query->Kind, QueryKind::Probability);
}

TEST(CheckerTest, SymbolicExampleHasFreeParams) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExampleSymbolic, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  EXPECT_TRUE(Net->Spec.hasFreeParams());
}

TEST(CheckerTest, TopologyResolution) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value());
  auto H0 = Net->Spec.nodeIdOf("H0");
  auto S0 = Net->Spec.nodeIdOf("S0");
  ASSERT_TRUE(H0 && S0);
  auto Peer = Net->Spec.Topo.peer(*H0, 1);
  ASSERT_TRUE(Peer.has_value());
  EXPECT_EQ(Peer->Node, *S0);
  EXPECT_EQ(Peer->Port, 3);
  // Unconnected port has no peer.
  EXPECT_FALSE(Net->Spec.Topo.peer(*H0, 2).has_value());
}

TEST(CheckerTest, RejectsUnknownNodeInLink) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (C,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "unknown node 'C'");
}

TEST(CheckerTest, RejectsDoublyConnectedPort) {
  expectCheckError(R"(
    topology { nodes { A, B, C } links {
      (A,pt1) <-> (B,pt1), (A,pt1) <-> (C,pt1), (B,pt2) <-> (C,pt2) } }
    programs { A -> a, B -> a, C -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "port already connected");
}

TEST(CheckerTest, RejectsPortPastMax) {
  // Port 65537 would alias port 1 in a 16-bit key; the checker rejects it.
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt65537) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "ports must be integers in 1..65535");
}

TEST(CheckerTest, RejectsUnlinkedNode) {
  expectCheckError(R"(
    topology { nodes { A, B, C } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a, C -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "not connected to any link");
}

TEST(CheckerTest, RejectsNodeWithoutProgram) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "has no program");
}

TEST(CheckerTest, RejectsMissingNumSteps) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    query probability(0 == 0);
  )",
                   "num_steps must be declared");
}

TEST(CheckerTest, RejectsDuplicateNumSteps) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    num_steps 6;
    query probability(0 == 0);
  )",
                   "more than once");
}

TEST(CheckerTest, RejectsNegativeQueueCapacity) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    queue_capacity -1;
    num_steps 5;
    query probability(0 == 0);
  )",
                   "non-negative");
}

TEST(CheckerTest, RejectsMissingQuery) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
  )",
                   "query must be declared");
}

TEST(CheckerTest, RejectsTwoQueries) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
    query probability(1 == 1);
  )",
                   "more than one query");
}

TEST(CheckerTest, RejectsAssignToUndeclaredVariable) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { y = 1; drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "only state variables");
}

TEST(CheckerTest, RejectsUnknownPacketField) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    packet_fields { dst }
    programs { A -> a, B -> a }
    def a(pkt, pt) { pkt.src = 1; drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "unknown packet field");
}

TEST(CheckerTest, RejectsWrongFieldBase) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    packet_fields { dst }
    programs { A -> a, B -> a }
    def a(packet, pt) { pkt.dst = 1; drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                   "not the packet parameter");
}

TEST(CheckerTest, RejectsRandomInQuery) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(flip(1/2) == 1);
  )",
                   "random draws are not allowed");
}

TEST(CheckerTest, RejectsUnknownStateVarInQuery) {
  expectCheckError(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) state x(0) { drop; }
    init { A }
    num_steps 5;
    query probability(y@A == 1);
  )",
                   "has no state variable");
}

TEST(CheckerTest, StarQueryResolvesAllNodes) {
  DiagEngine Diags;
  auto Net = loadNetwork(R"(
    topology { nodes { A, B, C } links {
      (A,pt1) <-> (B,pt1), (B,pt2) <-> (C,pt1), (C,pt2) <-> (A,pt2) } }
    programs { A -> a, B -> a, C -> a }
    def a(pkt, pt) state infected(0) { drop; }
    init { A }
    num_steps 5;
    query expectation(infected@*);
  )",
                        Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  const auto &SR = cast<StateRefExpr>(*Net->Spec.Query->Body);
  EXPECT_EQ(SR.Targets.size(), 3u);
}

TEST(CheckerTest, WarnsOnUnusedDef) {
  DiagEngine Diags;
  auto Net = loadNetwork(R"(
    topology { nodes { A, B } links { (A,pt1) <-> (B,pt1) } }
    programs { A -> a, B -> a }
    def a(pkt, pt) { drop; }
    def unused(pkt, pt) { drop; }
    init { A }
    num_steps 5;
    query probability(0 == 0);
  )",
                        Diags);
  ASSERT_TRUE(Net.has_value());
  bool FoundWarning = false;
  for (const Diag &D : Diags.diags())
    if (D.Kind == DiagKind::Warning &&
        D.Message.find("not used") != std::string::npos)
      FoundWarning = true;
  EXPECT_TRUE(FoundWarning);
}

TEST(CheckerTest, BindAndUnbindParams) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExampleSymbolic, Diags);
  ASSERT_TRUE(Net.has_value());
  EXPECT_TRUE(Net->Spec.hasFreeParams());
  EXPECT_TRUE(bindParam(*Net, "COST_01", Rational(2)));
  EXPECT_TRUE(bindParam(*Net, "COST_02", Rational(1)));
  EXPECT_TRUE(bindParam(*Net, "COST_21", Rational(1)));
  EXPECT_FALSE(Net->Spec.hasFreeParams());
  EXPECT_FALSE(bindParam(*Net, "NOPE", Rational(1)));
  EXPECT_TRUE(unbindParam(*Net, "COST_01"));
  EXPECT_TRUE(Net->Spec.hasFreeParams());
}

} // namespace
