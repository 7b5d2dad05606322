//===- query/QueryEval.cpp - Query evaluation -----------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "query/QueryEval.h"

#include "lang/Ops.h"

using namespace bayonet;

namespace {

QueryOutcome fail(std::string Reason) {
  QueryOutcome O;
  O.Failed = true;
  O.FailReason = std::move(Reason);
  return O;
}

/// An outcome with the guards of both operands, failed with B's reason if
/// B failed.
QueryOutcome combined(const QueryOutcome &A, const QueryOutcome &B) {
  QueryOutcome O;
  O.Guards = A.Guards;
  for (const Constraint &G : B.Guards)
    O.Guards.push_back(G);
  O.Failed = B.Failed;
  O.FailReason = B.FailReason;
  return O;
}

/// Appends \p O split to its truth (failures pass through).
void appendTruth(QueryOutcome O, std::vector<QueryOutcome> &Out) {
  if (O.Failed) {
    Out.push_back(std::move(O));
    return;
  }
  LinExpr X = std::move(O.V);
  ops::append(ops::truth(X), std::move(O), Out);
}

class QueryEvaluator {
public:
  QueryEvaluator(const NetworkSpec &Spec, const NetConfig &C)
      : Spec(Spec), C(C) {}

  std::vector<QueryOutcome> eval(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::Number:
      return {{LinExpr(cast<NumberExpr>(E).Value), {}, false, {}}};
    case ExprKind::Var: {
      const auto &V = cast<VarExpr>(E);
      if (V.Res == VarRes::NodeConst)
        return {{LinExpr(Rational(static_cast<int64_t>(V.Index))), {}, false,
                 {}}};
      if (V.Res == VarRes::SymParam)
        return {{Spec.paramValue(V.Index), {}, false, {}}};
      return {fail("unknown identifier in query")};
    }
    case ExprKind::StateRef: {
      // Concrete values (all of them on a sampled state) sum as rationals.
      Rational Const;
      LinExpr Sym;
      for (const auto &[Node, Slot] : cast<StateRefExpr>(E).Targets) {
        const Value &V = C.Nodes[Node].State[Slot];
        if (V.isConcrete())
          Const += V.concrete();
        else
          Sym = Sym + V.toLinExpr();
      }
      return {{Sym + LinExpr(std::move(Const)), {}, false, {}}};
    }
    case ExprKind::Unary: {
      const auto &U = cast<UnaryExpr>(E);
      std::vector<QueryOutcome> Out;
      for (QueryOutcome &O : eval(*U.Operand)) {
        if (O.Failed) {
          Out.push_back(std::move(O));
        } else if (U.Op == UnOpKind::Neg) {
          O.V = -O.V;
          Out.push_back(std::move(O));
        } else {
          LinExpr X = std::move(O.V);
          ops::append(ops::truth(X), std::move(O), Out, /*Negate=*/true);
        }
      }
      return Out;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(E);
      return ops::applyOutcomes(
          B.Op, eval(*B.Lhs), [&] { return eval(*B.Rhs); }, combined);
    }
    default:
      return {fail("expression kind not allowed in query")};
    }
  }

private:
  const NetworkSpec &Spec;
  const NetConfig &C;
};

} // namespace

std::vector<QueryOutcome> bayonet::evalQuery(const NetworkSpec &Spec,
                                             const Expr &E,
                                             const NetConfig &C) {
  return QueryEvaluator(Spec, C).eval(E);
}

std::vector<QueryOutcome> bayonet::evalQueryTruth(const NetworkSpec &Spec,
                                                  const Expr &E,
                                                  const NetConfig &C) {
  std::vector<QueryOutcome> Out;
  for (QueryOutcome &O : evalQuery(Spec, E, C))
    appendTruth(std::move(O), Out);
  return Out;
}

std::optional<Rational> bayonet::evalQueryConstant(const NetworkSpec &Spec,
                                                   const Expr &E,
                                                   const NetConfig &C,
                                                   std::string &Reason) {
  std::vector<QueryOutcome> Outs = evalQuery(Spec, E, C);
  if (Outs.size() == 1 && Outs[0].Failed)
    Reason = std::move(Outs[0].FailReason);
  if (Outs.size() != 1 || Outs[0].Failed || !Outs[0].Guards.empty() ||
      !Outs[0].V.isConstant())
    return std::nullopt;
  return Outs[0].V.constant();
}
