//===- net/Scheduler.h - Probabilistic schedulers --------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probabilistic schedulers over global actions. The scheduler selects an
/// action λ ∈ {Run, Fwd} × Nodes given the current global configuration
/// (paper Section 3.2). A Run action is enabled when the node's input queue
/// is nonempty; a Fwd action when its output queue is nonempty (Figure 6).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_NET_SCHEDULER_H
#define BAYONET_NET_SCHEDULER_H

#include "net/Config.h"
#include "support/Rational.h"

#include <memory>
#include <vector>

namespace bayonet {

enum class SchedulerKind;
struct NetworkSpec;

/// A global action λ: run node i's program, or deliver the head of node i's
/// output queue.
struct Action {
  enum class Kind { Run, Fwd } K = Kind::Run;
  unsigned Node = 0;

  friend bool operator==(const Action &A, const Action &B) {
    return A.K == B.K && A.Node == B.Node;
  }
};

/// One scheduler decision: an action, its probability, and the scheduler's
/// successor state σ_s'.
struct SchedChoice {
  Action Act;
  Rational Prob;
  int64_t NextSchedState = 0;
};

/// Scheduler interface. Implementations must be deterministic functions of
/// the configuration so exact inference can merge configurations.
///
/// A scheduler sees a configuration only through its enabled action slots
/// (Run 0, Fwd 0, Run 1, Fwd 1, ...: slot 2i is Run i, slot 2i+1 is Fwd i)
/// and its state σ_s. choicesInto collects the slots of a NetConfig and
/// hands them to assign; PsiExact collects them from a translated
/// program's queue slots and calls assign itself, so the direct and the
/// translated pipelines schedule through the same code.
class Scheduler {
public:
  virtual ~Scheduler();

  /// All (action, probability) choices in configuration \p C, written into
  /// \p Out (cleared first). Empty iff no action is enabled (the
  /// configuration is terminal). Probabilities sum to one when nonempty.
  /// This is the primitive the engines call with a reusable per-lane
  /// scratch vector: both the exact expansion loop and the samplers ask
  /// for choices once per configuration/particle step, so it walks the
  /// node blocks once and allocates nothing beyond that scratch.
  void choicesInto(const NetConfig &C, std::vector<SchedChoice> &Out) const;

  /// Allocating convenience wrapper over choicesInto.
  std::vector<SchedChoice> choices(const NetConfig &C) const {
    std::vector<SchedChoice> Out;
    choicesInto(C, Out);
    return Out;
  }

  /// The slot-level entry. \p Out holds the enabled actions in slot order
  /// (at least one), each with NextSchedState 0; \p State is σ_s and
  /// \p NumSlots is twice the node count. Sets each kept choice's Prob and
  /// NextSchedState; a deterministic scheduler keeps only the action it
  /// picks.
  virtual void assign(std::vector<SchedChoice> &Out, int64_t State,
                      int64_t NumSlots) const = 0;

  /// The initial scheduler state σ_s.
  virtual int64_t initialState() const { return 0; }

  virtual const char *name() const = 0;

  /// Builds one of the built-in schedulers; \p NodeWeights (one positive
  /// entry per node) is read by the Weighted kind only.
  static std::unique_ptr<Scheduler>
  create(SchedulerKind Kind, std::vector<int64_t> NodeWeights = {});

  /// Builds the scheduler a spec asks for (including Weighted).
  static std::unique_ptr<Scheduler> forSpec(const NetworkSpec &Spec);
};

/// The action slot of \p A: 2 * node, plus 1 for Fwd.
inline int64_t actionSlot(const Action &A) {
  return 2 * static_cast<int64_t>(A.Node) + (A.K == Action::Kind::Fwd);
}

/// The action in slot \p Slot.
inline Action slotAction(int64_t Slot) {
  return {Slot % 2 ? Action::Kind::Fwd : Action::Kind::Run,
          static_cast<unsigned>(Slot / 2)};
}

/// The paper's uniform scheduler (Figure 6): picks uniformly at random among
/// all enabled actions.
class UniformScheduler : public Scheduler {
public:
  void assign(std::vector<SchedChoice> &Out, int64_t State,
              int64_t NumSlots) const override;
  const char *name() const override { return "uniform"; }
};

/// Deterministic round-robin scheduler: a rotor over action slots
/// (Run 0, Fwd 0, Run 1, Fwd 1, ...) picks the first enabled action at or
/// after the rotor position; the rotor then advances past it. The rotor is
/// the scheduler state σ_s, so runs are fully deterministic.
class RoundRobinScheduler : public Scheduler {
public:
  void assign(std::vector<SchedChoice> &Out, int64_t State,
              int64_t NumSlots) const override;
  const char *name() const override { return "roundrobin"; }
};

/// Greedy fixed-priority deterministic scheduler: always picks the first
/// enabled action in slot order (Run 0, Fwd 0, Run 1, Fwd 1, ...), with no
/// rotor. A host keeps running until its input queue drains, so bursts pile
/// up in queues — this is the paper's deterministic scheduler whose runs
/// always congest in the Section 5.1 benchmark.
class DeterministicScheduler : public Scheduler {
public:
  void assign(std::vector<SchedChoice> &Out, int64_t State,
              int64_t NumSlots) const override;
  const char *name() const override { return "deterministic"; }
};

/// Node-weighted probabilistic scheduler: an enabled action of node i is
/// chosen with probability proportional to the node's weight. Models
/// heterogeneous equipment speed (a switch with weight 3 acts three times
/// as often as one with weight 1). Weight 1 for every node is exactly the
/// uniform scheduler.
class WeightedScheduler : public Scheduler {
public:
  /// \pre Weights has one positive entry per node.
  explicit WeightedScheduler(std::vector<int64_t> Weights)
      : Weights(std::move(Weights)) {}

  void assign(std::vector<SchedChoice> &Out, int64_t State,
              int64_t NumSlots) const override;
  const char *name() const override { return "weighted"; }

private:
  std::vector<int64_t> Weights;
};

} // namespace bayonet

#endif // BAYONET_NET_SCHEDULER_H
