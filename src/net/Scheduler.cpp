//===- net/Scheduler.cpp - Probabilistic schedulers -----------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Scheduler.h"
#include "net/NetworkSpec.h"

#include <cassert>

using namespace bayonet;

Scheduler::~Scheduler() = default;

std::unique_ptr<Scheduler>
Scheduler::create(SchedulerKind Kind, std::vector<int64_t> NodeWeights) {
  switch (Kind) {
  case SchedulerKind::Uniform:
    return std::make_unique<UniformScheduler>();
  case SchedulerKind::RoundRobin:
    return std::make_unique<RoundRobinScheduler>();
  case SchedulerKind::Deterministic:
    return std::make_unique<DeterministicScheduler>();
  case SchedulerKind::Weighted:
    return std::make_unique<WeightedScheduler>(std::move(NodeWeights));
  }
  return nullptr;
}

std::unique_ptr<Scheduler> Scheduler::forSpec(const NetworkSpec &Spec) {
  return create(Spec.Sched, Spec.NodeWeights);
}

void Scheduler::choicesInto(const NetConfig &C,
                            std::vector<SchedChoice> &Out) const {
  Out.clear();
  // One pass over the (heap-scattered) node blocks collects the enabled
  // slots; assign then works on the contiguous, cached output vector.
  for (unsigned I = 0; I < C.Nodes.size(); ++I) {
    const NodeConfig &NC = C.Nodes[I];
    if (!NC.QIn.empty())
      Out.push_back({{Action::Kind::Run, I}, Rational(), 0});
    if (!NC.QOut.empty())
      Out.push_back({{Action::Kind::Fwd, I}, Rational(), 0});
  }
  if (!Out.empty())
    assign(Out, C.SchedState, 2 * static_cast<int64_t>(C.Nodes.size()));
}

SlotSampler::SlotSampler(const Scheduler &Sched, unsigned NumNodes)
    : Sched(Sched),
      Uniform(dynamic_cast<const UniformScheduler *>(&Sched) != nullptr),
      NumSlots(2 * static_cast<int64_t>(NumNodes)),
      Words((NumSlots + 63) / 64) {
  if (Uniform)
    for (int64_t N = 0; N <= NumSlots; ++N)
      InvCount.push_back(N ? Rational(BigInt(1), BigInt(N)).toDouble() : 0.0);
}

void UniformScheduler::assign(std::vector<SchedChoice> &Out, int64_t,
                              int64_t) const {
  Rational P(BigInt(1), BigInt(static_cast<int64_t>(Out.size())));
  for (SchedChoice &Ch : Out)
    Ch.Prob = P;
}

void RoundRobinScheduler::assign(std::vector<SchedChoice> &Out,
                                 int64_t State, int64_t NumSlots) const {
  // The first enabled slot at or after the rotor, else (wrapping) the
  // first enabled slot overall.
  const int64_t Start = State % NumSlots;
  size_t Pick = 0;
  for (size_t I = 0; I < Out.size(); ++I)
    if (actionSlot(Out[I].Act) >= Start) {
      Pick = I;
      break;
    }
  SchedChoice Ch = Out[Pick];
  Ch.Prob = Rational(1);
  Ch.NextSchedState = (actionSlot(Ch.Act) + 1) % NumSlots;
  Out.assign(1, std::move(Ch));
}

void WeightedScheduler::assign(std::vector<SchedChoice> &Out, int64_t,
                               int64_t) const {
  int64_t Total = 0;
  for (const SchedChoice &Ch : Out) {
    assert(Ch.Act.Node < Weights.size() && "missing node weight");
    Total += Weights[Ch.Act.Node];
  }
  for (SchedChoice &Ch : Out)
    Ch.Prob = Rational(BigInt(Weights[Ch.Act.Node]), BigInt(Total));
}

void DeterministicScheduler::assign(std::vector<SchedChoice> &Out, int64_t,
                                    int64_t) const {
  // The first enabled action in slot order.
  Out.resize(1);
  Out[0].Prob = Rational(1);
}
