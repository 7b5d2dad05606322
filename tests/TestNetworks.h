//===- tests/TestNetworks.h - Shared benchmark network sources -*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bayonet sources shared by tests and benchmarks: the paper's Section 2
/// example (Figure 2) and small hand-checkable networks.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_TESTS_TESTNETWORKS_H
#define BAYONET_TESTS_TESTNETWORKS_H

#include <fstream>
#include <string>

namespace bayonet::testnets {

/// The source of corpus program \p Name (examples/programs/<Name>.bay)
/// with its query replaced by `query <Query>;`.
inline std::string corpusWithQuery(const std::string &Name,
                                   const std::string &Query) {
  std::ifstream In(std::string(BAYONET_EXAMPLES_DIR) + "/" + Name + ".bay");
  std::string Src, Line;
  while (std::getline(In, Line))
    Src += (Line.rfind("query ", 0) == 0 ? "query " + Query + ";" : Line) +
           "\n";
  return Src;
}

/// The paper's Figure 2 network: OSPF/ECMP routing between H0 and H1 with
/// three switches; H0 sends three packets; queue capacity 2. The query is
/// the probability of congestion (paper Section 2.2).
inline const char *PaperExample = R"(
topology {
  nodes { H0, H1, S0, S1, S2 }
  links { (H0,pt1) <-> (S0,pt3),
          (S0,pt1) <-> (S1,pt1), (S0,pt2) <-> (S2,pt1),
          (S1,pt2) <-> (S2,pt2), (S1,pt3) <-> (H1,pt1) }
}

packet_fields { dst }

param COST_01 = 2;
param COST_02 = 1;
param COST_21 = 1;

programs { H0 -> h0, H1 -> h1, S0 -> s0, S1 -> s1, S2 -> s2 }

def h0(pkt, pt) state pkt_cnt(0) {
  if pkt_cnt < 3 {
    new;
    pkt.dst = H1;
    fwd(1);
    pkt_cnt = pkt_cnt + 1;
  } else { drop; }
}

def h1(pkt, pt) state pkt_cnt(0) {
  pkt_cnt = pkt_cnt + 1;
  drop;
}

def s2(pkt, pt) {
  if pt == 1 { fwd(2); } else { fwd(1); }
}

def s0(pkt, pt) state route1(0), route2(0) {
  if pt == 1 {
    fwd(3);
  } else if pt == 2 {
    if pkt.dst == H0 { fwd(3); } else { fwd(1); }
  } else if pt == 3 {
    route1 = COST_01;
    route2 = COST_02 + COST_21;
    if route1 < route2 or (route1 == route2 and flip(1/2)) {
      fwd(1);
    } else {
      fwd(2);
    }
  }
}

def s1(pkt, pt) state route1(0), route2(0) {
  if pt == 1 {
    fwd(3);
  } else if pt == 2 {
    if pkt.dst == H1 { fwd(3); } else { fwd(1); }
  } else if pt == 3 {
    route1 = COST_01;
    route2 = COST_02 + COST_21;
    if route1 < route2 or (route1 == route2 and flip(1/2)) {
      fwd(1);
    } else {
      fwd(2);
    }
  }
}

init { H0 }
scheduler uniform;
queue_capacity 2;
num_steps 60;
query probability(pkt_cnt@H1 < 3);
)";

/// Minimal two-node network: one packet travels A -> B. P(arrived@B) = 1.
inline const char *PingNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) { fwd(1); }
def b(pkt, pt) state arrived(0) { arrived = 1; drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query probability(arrived@B == 1);
)";

/// A biased coin: P(x@A == 1) = 1/3.
inline const char *CoinNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  if flip(1/3) { x = 1; }
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query probability(x@A == 1);
)";

/// A die roll: E[x@A] = 7/2.
inline const char *DieNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  x = uniformInt(1, 6);
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query expectation(x@A);
)";

/// Conditioned die: E[x@A | x >= 3] = 9/2.
inline const char *ObservedDieNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  x = uniformInt(1, 6);
  observe(x >= 3);
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query expectation(x@A);
)";

/// Peaked likelihood: a d20 roll observed to be exactly 20 kills ~95% of
/// the particles in a single step, driving the SMC effective sample size
/// far below the 10% degeneracy-warning threshold. E[x | x == 20] = 20.
inline const char *PeakedDieNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  x = uniformInt(1, 20);
  observe(x == 20);
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query expectation(x@A);
)";

/// Die with an assertion that fails 1/6 of the time.
inline const char *AssertDieNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state x(0) {
  x = uniformInt(1, 6);
  assert(x < 6);
  drop;
}
def b(pkt, pt) { drop; }
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query expectation(x@A);
)";

/// Reliability micro-network: A -> B across a link that "fails" with
/// probability 1/4 (modeled in B's program). P(arrived@B) = 3/4.
inline const char *LossyNetwork = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) { fwd(1); }
def b(pkt, pt) state arrived(0) {
  if flip(3/4) { arrived = 1; }
  drop;
}
init { A }
scheduler uniform;
queue_capacity 2;
num_steps 10;
query probability(arrived@B == 1);
)";

/// Congestion micro-network: capacity 1, A pumps two packets back to back
/// into B through its own output queue. With capacity 1 the second packet
/// can be lost when the first still occupies a queue; hand-computable with
/// the round-robin scheduler.
inline const char *TinyCongestion = R"(
topology {
  nodes { A, B }
  links { (A,pt1) <-> (B,pt1) }
}
packet_fields { dst }
programs { A -> a, B -> b }
def a(pkt, pt) state sent(0) {
  if sent < 2 {
    new;
    fwd(1);
    sent = sent + 1;
  } else { drop; }
}
def b(pkt, pt) state got(0) {
  got = got + 1;
  drop;
}
init { A }
scheduler roundrobin;
queue_capacity 1;
num_steps 30;
query probability(got@B < 2);
)";

/// The symbolic-cost variant of the paper example (Figure 3): the three
/// COST_* parameters are left free, and the congestion probability is a
/// piecewise function of them.
inline const char *PaperExampleSymbolic = R"(
topology {
  nodes { H0, H1, S0, S1, S2 }
  links { (H0,pt1) <-> (S0,pt3),
          (S0,pt1) <-> (S1,pt1), (S0,pt2) <-> (S2,pt1),
          (S1,pt2) <-> (S2,pt2), (S1,pt3) <-> (H1,pt1) }
}

packet_fields { dst }

param COST_01;
param COST_02;
param COST_21;

programs { H0 -> h0, H1 -> h1, S0 -> s0, S1 -> s1, S2 -> s2 }

def h0(pkt, pt) state pkt_cnt(0) {
  if pkt_cnt < 3 {
    new;
    pkt.dst = H1;
    fwd(1);
    pkt_cnt = pkt_cnt + 1;
  } else { drop; }
}

def h1(pkt, pt) state pkt_cnt(0) {
  pkt_cnt = pkt_cnt + 1;
  drop;
}

def s2(pkt, pt) {
  if pt == 1 { fwd(2); } else { fwd(1); }
}

def s0(pkt, pt) state route1(0), route2(0) {
  if pt == 1 {
    fwd(3);
  } else if pt == 2 {
    if pkt.dst == H0 { fwd(3); } else { fwd(1); }
  } else if pt == 3 {
    route1 = COST_01;
    route2 = COST_02 + COST_21;
    if route1 < route2 or (route1 == route2 and flip(1/2)) {
      fwd(1);
    } else {
      fwd(2);
    }
  }
}

def s1(pkt, pt) state route1(0), route2(0) {
  if pt == 1 {
    fwd(3);
  } else if pt == 2 {
    if pkt.dst == H1 { fwd(3); } else { fwd(1); }
  } else if pt == 3 {
    route1 = COST_01;
    route2 = COST_02 + COST_21;
    if route1 < route2 or (route1 == route2 and flip(1/2)) {
      fwd(1);
    } else {
      fwd(2);
    }
  }
}

init { H0 }
scheduler uniform;
queue_capacity 2;
num_steps 60;
query probability(pkt_cnt@H1 < 3);
)";

/// Two hosts race a packet to a common sink under the scheduler declared by
/// \p SchedDecl. A: port 1 -> C's port 1; B: port 1 -> C's port 2. C
/// remembers the port of the first packet it sees.
inline std::string raceNetwork(const std::string &SchedDecl) {
  return R"(
topology {
  nodes { A, B, C }
  links { (A,pt1) <-> (C,pt1), (B,pt1) <-> (C,pt2) }
}
packet_fields { dst }
programs { A -> send, B -> send, C -> sink }
def send(pkt, pt) { fwd(1); }
def sink(pkt, pt) state first(0) {
  if first == 0 { first = pt; }
  drop;
}
init { A, B }
)" + SchedDecl + R"(
queue_capacity 2;
num_steps 20;
query probability(first@C == 1);
)";
}

} // namespace bayonet::testnets

#endif // BAYONET_TESTS_TESTNETWORKS_H
