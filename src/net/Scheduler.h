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

#include <bit>
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
/// hands them to assign; SlotSampler reads them from a sampled particle's
/// bitmask (the uniform 1/n from a table of the Rational assign would
/// give); PsiExact collects them from a translated program's queue slots
/// and calls assign itself, so every engine schedules through the same
/// code.
class Scheduler {
public:
  virtual ~Scheduler();

  /// All (action, probability) choices in configuration \p C, written into
  /// \p Out (cleared first). Empty iff no action is enabled (the
  /// configuration is terminal). Probabilities sum to one when nonempty.
  /// This is the primitive the exact engine calls with a reusable
  /// per-lane scratch vector once per configuration, so it walks the node
  /// blocks once and allocates nothing beyond that scratch. The samplers
  /// keep their enabled slots as a bitmask instead (SlotSampler).
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

/// The samplers' scheduler draw over an enabled-slot bitmask (bit s set
/// iff slot s is enabled, 64 slots per word), so a particle step picks its
/// action without walking the configuration's node blocks. It consumes
/// draws exactly as choicesInto followed by the cumulative pick over its
/// probabilities does: one draw only when more than one choice remains,
/// choices in slot order, and the first choice with U < Acc (else the
/// last) wins. The uniform scheduler's 1/n comes from a table of the
/// Rational it assigns, converted once; any other scheduler runs assign.
class SlotSampler {
public:
  SlotSampler(const Scheduler &Sched, unsigned NumNodes);

  /// Mask words per configuration.
  size_t words() const { return Words; }

  /// The picked slot of \p Mask, or -1 when no slot is enabled. \p Draw
  /// returns the uniform draw U in [0, 1) and is called at most once;
  /// \p Next receives the scheduler's successor state. \p Scratch is a
  /// reusable choice vector for the non-uniform schedulers.
  template <typename DrawFn>
  int64_t pick(const uint64_t *Mask, int64_t State, DrawFn &&Draw,
               std::vector<SchedChoice> &Scratch, int64_t &Next) const {
    unsigned N = 0;
    for (size_t W = 0; W < Words; ++W)
      N += std::popcount(Mask[W]);
    if (N == 0)
      return -1;
    if (Uniform) {
      Next = 0;
      const double U = N > 1 ? Draw() : 0.0;
      double Acc = 0;
      unsigned K = 0;
      for (size_t W = 0; W < Words; ++W)
        for (uint64_t Bits = Mask[W]; Bits; Bits &= Bits - 1) {
          Acc += InvCount[N];
          if (U < Acc || ++K == N)
            return static_cast<int64_t>(W * 64) + std::countr_zero(Bits);
        }
    }
    Scratch.clear();
    for (size_t W = 0; W < Words; ++W)
      for (uint64_t Bits = Mask[W]; Bits; Bits &= Bits - 1)
        Scratch.push_back({slotAction(static_cast<int64_t>(W * 64) +
                                      std::countr_zero(Bits)),
                           Rational(), 0});
    Sched.assign(Scratch, State, NumSlots);
    size_t Pick = 0;
    if (Scratch.size() > 1) {
      const double U = Draw();
      double Acc = 0;
      for (size_t I = 0; I < Scratch.size(); ++I) {
        Acc += Scratch[I].Prob.toDouble();
        if (U < Acc || I + 1 == Scratch.size()) {
          Pick = I;
          break;
        }
      }
    }
    Next = Scratch[Pick].NextSchedState;
    return actionSlot(Scratch[Pick].Act);
  }

private:
  const Scheduler &Sched;
  const bool Uniform;
  const int64_t NumSlots;
  const size_t Words;
  std::vector<double> InvCount; ///< InvCount[n] = (1/n).toDouble().
};

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
