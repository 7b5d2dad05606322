//===- query/QueryEval.h - Query evaluation --------------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates query expressions (paper Figure 8) on a terminal
/// configuration: state references x@n / x@*, arithmetic, comparisons and
/// boolean connectives, through the operator semantics of lang/Ops.h. The
/// one evaluator every engine's query and `given` clause go through: the
/// exact engine weighs each guarded outcome, the sampler takes the single
/// unguarded constant one. `and` / `or` short-circuit, so the right
/// operand is not evaluated where the left one decides.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_QUERY_QUERYEVAL_H
#define BAYONET_QUERY_QUERYEVAL_H

#include "lang/Ast.h"
#include "net/Config.h"
#include "net/NetworkSpec.h"
#include "symbolic/Constraint.h"

#include <optional>
#include <string>
#include <vector>

namespace bayonet {

/// One outcome of a query expression: its value where its guards hold, or
/// why the expression is undefined there (the query is then unsupported).
struct QueryOutcome {
  LinExpr V;
  std::vector<Constraint> Guards;
  bool Failed = false;
  std::string FailReason;
};

/// Evaluates \p E on \p C. Deterministic, but splits on comparisons of
/// symbolic values; the outcomes' guards partition parameter space.
std::vector<QueryOutcome> evalQuery(const NetworkSpec &Spec, const Expr &E,
                                    const NetConfig &C);

/// evalQuery with every value split to its truth, 0 or 1 (a symbolic value
/// on [v != 0] / [v == 0]): the outcomes of a probability query or a
/// `given` clause.
std::vector<QueryOutcome> evalQueryTruth(const NetworkSpec &Spec,
                                         const Expr &E, const NetConfig &C);

/// The value of \p E on \p C when evalQuery gives a single unguarded
/// constant outcome, as on a sampled configuration; otherwise nullopt, with
/// \p Reason set to the failure's reason if the outcome failed.
std::optional<Rational> evalQueryConstant(const NetworkSpec &Spec,
                                          const Expr &E, const NetConfig &C,
                                          std::string &Reason);

} // namespace bayonet

#endif // BAYONET_QUERY_QUERYEVAL_H
