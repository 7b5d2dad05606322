//===- symbolic/SymProb.h - Piecewise-rational probabilities ---*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probability weights for exact inference. A SymProb is a finite sum of
/// Iverson-bracket terms  sum_i  v_i * [G_i]  where v_i is an exact rational
/// and G_i a conjunction of linear constraints over symbolic parameters.
/// With no symbolic parameters every weight is a single unguarded rational;
/// with symbolic link costs (paper Section 2.3) guard splits accumulate and
/// the final query value is reported per consistent parameter region
/// (Figure 3 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SYMBOLIC_SYMPROB_H
#define BAYONET_SYMBOLIC_SYMPROB_H

#include "symbolic/Constraint.h"

#include <optional>
#include <string>
#include <vector>

namespace bayonet {

/// A piecewise-rational probability weight (sum of guarded rationals).
class SymProb {
public:
  /// One addend "Value * [Guard]".
  struct Term {
    ConstraintSet Guard;
    Rational Value;
  };

  /// Constructs the zero weight.
  SymProb() = default;
  /// Constructs an unguarded concrete weight.
  static SymProb concrete(Rational Value);
  /// Constructs "Value * [Guard]"; empty if the guard is inconsistent.
  static SymProb guarded(ConstraintSet Guard, Rational Value);
  /// Trusted direct install of already-canonical terms (sorted by guard,
  /// no duplicates, no zero values) — the checkpoint-restore path, which
  /// round-trips terms() output and must not re-run consistency checks.
  static SymProb fromCanonicalTerms(std::vector<Term> Terms);

  bool isZero() const { return Terms.empty(); }
  /// True if there is a single term with an empty guard.
  bool isConcrete() const;
  /// The value of a concrete weight. \pre isConcrete() or isZero().
  Rational concreteValue() const;

  const std::vector<Term> &terms() const { return Terms; }

  SymProb operator+(const SymProb &B) const;
  SymProb &operator+=(const SymProb &B);
  /// Rvalue addend: steals each term's guard set instead of copying it.
  /// The merge loops in both exact engines add a weight that is about
  /// to be discarded, so this keeps symbolic merging allocation-free
  /// alongside the small-rational fast path for the concrete case.
  SymProb &operator+=(SymProb &&B);
  /// Scales every term by a rational factor.
  SymProb scaled(const Rational &K) const;
  /// Multiplies every term's guard by the constraint [C]; inconsistent
  /// terms are dropped.
  SymProb restricted(const Constraint &C) const;

  /// Evaluates the weight under a concrete parameter assignment.
  Rational evaluate(const std::vector<Rational> &ParamValues) const;

  /// All distinct guard constraints mentioned by any term (the "atoms"
  /// whose sign assignments partition the parameter space).
  std::vector<Constraint> atoms() const;

  friend bool operator==(const SymProb &A, const SymProb &B);

  size_t hash() const;
  std::string toString(const ParamTable &Params) const;

private:
  // Sorted by guard (ConstraintSet::compare), no duplicate guards, no
  // zero values.
  std::vector<Term> Terms;

  void addTerm(ConstraintSet Guard, Rational Value);
};

bool operator==(const SymProb &A, const SymProb &B);

/// A probability presented as disjoint parameter regions (Figure 3 rows).
struct ProbCase {
  ConstraintSet Region;
  Rational Value;
};

/// Partitions parameter space by the sign of every atom appearing in
/// \p Numerator or \p Denominator and reports Numerator/Denominator per
/// consistent region. Regions where the denominator is zero are skipped.
/// Regions are simplified and deduplicated by value where adjacent.
std::vector<ProbCase> partitionRatio(const SymProb &Numerator,
                                     const SymProb &Denominator);

/// The masses an exact engine ends a run with, and the answer they give.
/// Both exact pipelines' results extend it.
struct ExactAnswer {
  /// Query numerator: mass where the predicate holds (probability queries)
  /// or sum of value-weighted mass (expectation queries).
  SymProb QueryMass;
  /// Normalizer Z: all observe-surviving, non-error terminal mass.
  SymProb OkMass;
  /// Mass in the ⊥ state: failed asserts, runtime errors, and mass still
  /// live when the num_steps bound is reached.
  SymProb ErrorMass;
  /// Set if the query failed somewhere (a division by zero, nonlinear
  /// arithmetic) or touched symbolic values it cannot aggregate.
  bool QueryUnsupported = false;
  std::string UnsupportedReason;

  /// The query answer per parameter region (one unguarded case when no
  /// parameter is symbolic). Values are QueryMass/OkMass.
  std::vector<ProbCase> cases() const {
    return partitionRatio(QueryMass, OkMass);
  }

  /// Concrete answer; requires a concrete (non-symbolic) run with Z > 0.
  std::optional<Rational> concreteValue() const {
    if (!QueryMass.isConcrete() || !OkMass.isConcrete() ||
        OkMass.concreteValue().isZero())
      return std::nullopt;
    return QueryMass.concreteValue() / OkMass.concreteValue();
  }
};

} // namespace bayonet

#endif // BAYONET_SYMBOLIC_SYMPROB_H
