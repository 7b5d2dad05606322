//===- tests/NetModelTest.cpp - Network model unit tests ------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Config.h"
#include "net/NetworkSpec.h"
#include "net/Scheduler.h"
#include "net/Topology.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

Packet mkPacket(int64_t V) {
  Packet P;
  P.Fields.push_back(Value(Rational(V)));
  return P;
}

TEST(TopologyTest, AddAndLookupLinks) {
  Topology T(3);
  EXPECT_TRUE(T.addLink({0, 1}, {1, 1}));
  EXPECT_TRUE(T.addLink({1, 2}, {2, 1}));
  EXPECT_EQ(T.numLinks(), 2u);
  auto P = T.peer(0, 1);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Node, 1u);
  EXPECT_EQ(P->Port, 1);
  // Symmetric.
  P = T.peer(1, 1);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Node, 0u);
  EXPECT_FALSE(T.peer(0, 2).has_value());
}

TEST(TopologyTest, RejectsDoubleConnection) {
  Topology T(3);
  EXPECT_TRUE(T.addLink({0, 1}, {1, 1}));
  EXPECT_FALSE(T.addLink({0, 1}, {2, 1})); // port (0,1) already used
  EXPECT_FALSE(T.addLink({2, 1}, {1, 1})); // port (1,1) already used
  EXPECT_EQ(T.numLinks(), 1u);
}

TEST(TopologyTest, PortTableBoundsAndAliasing) {
  Topology T(2);
  EXPECT_FALSE(T.addLink({0, -1}, {1, 1}));
  EXPECT_FALSE(T.addLink({0, Topology::MaxPort + 1}, {1, 1}));
  EXPECT_EQ(T.numLinks(), 0u);
  EXPECT_TRUE(T.addLink({0, Topology::MaxPort}, {1, 3}));
  ASSERT_TRUE(T.peer(0, Topology::MaxPort).has_value());
  EXPECT_EQ(T.peer(1, 3)->Port, Topology::MaxPort);
  // Unlinked ports, ports past a node's table, negative ports and unknown
  // nodes have no peer; no port aliases another.
  EXPECT_FALSE(T.peer(1, 2).has_value());
  EXPECT_FALSE(T.peer(1, 4).has_value());
  EXPECT_FALSE(T.peer(0, -1).has_value());
  EXPECT_FALSE(T.peer(0, 1).has_value());
  EXPECT_FALSE(T.peer(5, 1).has_value());
}

TEST(TopologyTest, IsLinked) {
  Topology T(3);
  T.addLink({0, 1}, {1, 1});
  EXPECT_TRUE(T.isLinked(0));
  EXPECT_TRUE(T.isLinked(1));
  EXPECT_FALSE(T.isLinked(2));
}

TEST(PacketQueueTest, FifoOrder) {
  PacketQueue Q(3);
  Q.pushBack({mkPacket(1), 1});
  Q.pushBack({mkPacket(2), 2});
  EXPECT_EQ(Q.size(), 2u);
  QueueEntry E = Q.takeFront();
  EXPECT_EQ(E.Pkt.Fields[0].concrete(), Rational(1));
  EXPECT_EQ(Q.front().Pkt.Fields[0].concrete(), Rational(2));
}

TEST(PacketQueueTest, CapacityDropsSilently) {
  // The paper's enqueue leaves a full queue intact; this is the congestion
  // mechanism.
  PacketQueue Q(2);
  EXPECT_TRUE(Q.pushBack({mkPacket(1), 1}));
  EXPECT_TRUE(Q.pushBack({mkPacket(2), 1}));
  EXPECT_FALSE(Q.pushBack({mkPacket(3), 1}));
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_FALSE(Q.pushFront({mkPacket(4), 1}));
  EXPECT_EQ(Q.front().Pkt.Fields[0].concrete(), Rational(1));
}

TEST(PacketQueueTest, PushFrontOrder) {
  // new/dup place packets at the head (rules L-New/L-Dup).
  PacketQueue Q(3);
  Q.pushBack({mkPacket(1), 1});
  Q.pushFront({mkPacket(9), 0});
  EXPECT_EQ(Q.front().Pkt.Fields[0].concrete(), Rational(9));
  EXPECT_EQ(Q.size(), 2u);
}

TEST(PacketQueueTest, ZeroCapacityRejectsEverything) {
  PacketQueue Q(0);
  EXPECT_TRUE(Q.full());
  EXPECT_FALSE(Q.pushBack({mkPacket(1), 1}));
  EXPECT_TRUE(Q.empty());
}

TEST(ConfigTest, EqualityAndHashing) {
  NetConfig A, B;
  A.Nodes.resize(2);
  B.Nodes.resize(2);
  A.Nodes.mut(0).State.push_back(Value(Rational(1)));
  B.Nodes.mut(0).State.push_back(Value(Rational(1)));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  B.Nodes.mut(1).QIn = PacketQueue(2);
  B.Nodes.mut(1).QIn.pushBack({mkPacket(1), 1});
  EXPECT_FALSE(A == B);
  // Scheduler state and error flag distinguish configurations.
  NetConfig C = A;
  C.SchedState = 5;
  EXPECT_FALSE(A == C);
  NetConfig D = A;
  D.Error = true;
  EXPECT_FALSE(A == D);
}

NetConfig twoNodeConfig(bool In0, bool Out0, bool In1, bool Out1) {
  NetConfig C;
  C.Nodes.resize(2);
  for (unsigned I = 0; I < 2; ++I) {
    NodeConfig &N = C.Nodes.mut(I);
    N.QIn = PacketQueue(2);
    N.QOut = PacketQueue(2);
  }
  if (In0)
    C.Nodes.mut(0).QIn.pushBack({mkPacket(0), 0});
  if (Out0)
    C.Nodes.mut(0).QOut.pushBack({mkPacket(0), 1});
  if (In1)
    C.Nodes.mut(1).QIn.pushBack({mkPacket(0), 0});
  if (Out1)
    C.Nodes.mut(1).QOut.pushBack({mkPacket(0), 1});
  return C;
}

TEST(SchedulerTest, EnabledActionsEnumeration) {
  NetConfig C = twoNodeConfig(true, false, false, true);
  auto Choices = UniformScheduler().choices(C);
  ASSERT_EQ(Choices.size(), 2u);
  EXPECT_EQ(Choices[0].Act.K, Action::Kind::Run);
  EXPECT_EQ(Choices[0].Act.Node, 0u);
  EXPECT_EQ(Choices[1].Act.K, Action::Kind::Fwd);
  EXPECT_EQ(Choices[1].Act.Node, 1u);
  // Slot 2i is Run i, slot 2i + 1 is Fwd i.
  EXPECT_EQ(actionSlot(Choices[1].Act), 3);
  EXPECT_TRUE(slotAction(3) == Choices[1].Act);
}

TEST(SchedulerTest, UniformProbabilities) {
  UniformScheduler S;
  NetConfig C = twoNodeConfig(true, true, true, false);
  auto Choices = S.choices(C);
  ASSERT_EQ(Choices.size(), 3u);
  Rational Sum;
  for (const SchedChoice &Ch : Choices) {
    EXPECT_EQ(Ch.Prob, Rational(BigInt(1), BigInt(3)));
    Sum += Ch.Prob;
  }
  EXPECT_EQ(Sum, Rational(1));
  // Terminal configuration: no choices.
  EXPECT_TRUE(S.choices(twoNodeConfig(false, false, false, false)).empty());
}

TEST(SchedulerTest, DeterministicPicksFirstEnabled) {
  DeterministicScheduler S;
  NetConfig C = twoNodeConfig(false, true, true, false);
  auto Choices = S.choices(C);
  ASSERT_EQ(Choices.size(), 1u);
  EXPECT_EQ(Choices[0].Act.K, Action::Kind::Fwd);
  EXPECT_EQ(Choices[0].Act.Node, 0u);
  EXPECT_EQ(Choices[0].Prob, Rational(1));
}

TEST(SchedulerTest, RoundRobinRotorAdvances) {
  RoundRobinScheduler S;
  NetConfig C = twoNodeConfig(true, false, true, false);
  // Rotor at 0: picks Run 0 (slot 0), next state 1.
  auto Choices = S.choices(C);
  ASSERT_EQ(Choices.size(), 1u);
  EXPECT_EQ(Choices[0].Act.Node, 0u);
  EXPECT_EQ(Choices[0].NextSchedState, 1);
  // Rotor at 1: slot 1 (Fwd 0) disabled, slot 2 (Run 1) enabled.
  C.SchedState = 1;
  Choices = S.choices(C);
  ASSERT_EQ(Choices.size(), 1u);
  EXPECT_EQ(Choices[0].Act.Node, 1u);
  EXPECT_EQ(Choices[0].Act.K, Action::Kind::Run);
  EXPECT_EQ(Choices[0].NextSchedState, 3);
}

TEST(SchedulerTest, FactoryCreatesAllKinds) {
  EXPECT_STREQ(Scheduler::create(SchedulerKind::Uniform)->name(), "uniform");
  EXPECT_STREQ(Scheduler::create(SchedulerKind::RoundRobin)->name(),
               "roundrobin");
  EXPECT_STREQ(Scheduler::create(SchedulerKind::Deterministic)->name(),
               "deterministic");
}

TEST(ValueTest, ConcreteVsSymbolic) {
  Value A(Rational(3));
  EXPECT_TRUE(A.isConcrete());
  EXPECT_EQ(A.concrete(), Rational(3));
  // Constant LinExpr normalizes to the concrete alternative.
  Value B{LinExpr(Rational(3))};
  EXPECT_TRUE(B.isConcrete());
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  Value C{LinExpr::param(0)};
  EXPECT_TRUE(C.isSymbolic());
  EXPECT_FALSE(A == C);
}

} // namespace
