//===- interp/Exec.cpp - Node program execution ---------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Exec.h"

#include "lang/Ops.h"

using namespace bayonet;

namespace {

/// An expression evaluation outcome in exact mode.
struct EvalRes {
  Value V;
  Rational Prob = Rational(1);
  std::vector<Constraint> Guards;
  bool Failed = false;
  std::string FailReason;

  static EvalRes fail(std::string Reason) {
    EvalRes R;
    R.Failed = true;
    R.FailReason = std::move(Reason);
    return R;
  }

  /// An outcome with the probability and guards of both operands, failed
  /// with B's reason if B failed.
  static EvalRes combined(const EvalRes &A, const EvalRes &B) {
    EvalRes O;
    O.Prob = A.Prob * B.Prob;
    O.Guards = A.Guards;
    for (const Constraint &G : B.Guards)
      O.Guards.push_back(G);
    O.Failed = B.Failed;
    O.FailReason = B.FailReason;
    return O;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Exact execution
//===----------------------------------------------------------------------===//

namespace bayonet {

/// Exact-mode execution context for one node program.
class ExactExecState {
public:
  ExactExecState(const NetworkSpec &Spec, const DefDecl &Def,
                 const StmtProfSink *Prof = nullptr)
      : Spec(Spec), Def(Def), Prof(Prof) {}

  std::vector<ExecWorld> run(NodeConfig Start) {
    ExecWorld W;
    W.Node = std::move(Start);
    std::vector<ExecWorld> Done;
    execList(Def.Body, 0, std::move(W), Done);
    return Done;
  }

  /// Evaluates an expression with no queue access (state initializers).
  std::vector<EvalRes> evalNoQueue(const Expr &E) {
    ExecWorld W;
    return eval(E, W);
  }

private:
  const NetworkSpec &Spec;
  const DefDecl &Def;
  const StmtProfSink *Prof;

  using StmtList = std::vector<StmtPtr>;

  void execList(const StmtList &Stmts, size_t From, ExecWorld W,
                std::vector<ExecWorld> &Done) {
    for (size_t I = From; I < Stmts.size(); ++I) {
      std::vector<ExecWorld> Branches = execStmt(*Stmts[I], std::move(W));
      if (Branches.size() == 1 && !Branches[0].Error &&
          !Branches[0].ObserveFailed) {
        // Fast path: no branching, keep iterating.
        W = std::move(Branches[0]);
        continue;
      }
      for (ExecWorld &B : Branches) {
        if (B.Error || B.ObserveFailed)
          Done.push_back(std::move(B));
        else
          execList(Stmts, I + 1, std::move(B), Done);
      }
      return;
    }
    Done.push_back(std::move(W));
  }

  std::vector<ExecWorld> one(ExecWorld W) {
    std::vector<ExecWorld> Out;
    Out.push_back(std::move(W));
    return Out;
  }

  std::vector<ExecWorld> failWorld(ExecWorld W, std::string Reason) {
    W.Error = true;
    W.ErrorReason = std::move(Reason);
    return one(std::move(W));
  }

  std::vector<ExecWorld> execStmt(const Stmt &S, ExecWorld W) {
    // One execution per (statement, world): a pure function of the def and
    // the input configuration, so the count is deterministic and identical
    // to what a transition-cache replay re-charges.
    if (Prof)
      ++Prof->Execs[S.ProfIndex];
    switch (S.Kind) {
    case StmtKind::Skip:
      return one(std::move(W));
    case StmtKind::New: {
      Packet Fresh;
      Fresh.Fields.assign(Spec.PacketFields.size(), Value(Rational(0)));
      W.Node.QIn.pushFront({std::move(Fresh), 0});
      return one(std::move(W));
    }
    case StmtKind::Drop:
      if (W.Node.QIn.empty())
        return failWorld(std::move(W), "drop on an empty input queue");
      W.Node.QIn.takeFront();
      return one(std::move(W));
    case StmtKind::Dup: {
      if (W.Node.QIn.empty())
        return failWorld(std::move(W), "dup on an empty input queue");
      QueueEntry Copy = W.Node.QIn.front();
      W.Node.QIn.pushFront(std::move(Copy));
      return one(std::move(W));
    }
    case StmtKind::Fwd: {
      if (W.Node.QIn.empty())
        return failWorld(std::move(W), "fwd on an empty input queue");
      const auto &Fwd = cast<FwdStmt>(S);
      return branchEval(*Fwd.Port, std::move(W),
                        [this](EvalRes R, ExecWorld B) {
                          return applyFwd(std::move(R), std::move(B));
                        });
    }
    case StmtKind::Assign: {
      const auto &A = cast<AssignStmt>(S);
      return branchEval(*A.Value, std::move(W),
                        [&A](EvalRes R, ExecWorld B) {
                          B.Node.State[A.SlotIndex] = std::move(R.V);
                          std::vector<ExecWorld> Out;
                          Out.push_back(std::move(B));
                          return Out;
                        });
    }
    case StmtKind::FieldAssign: {
      const auto &FA = cast<FieldAssignStmt>(S);
      if (W.Node.QIn.empty())
        return failWorld(std::move(W),
                         "packet field assignment on an empty input queue");
      return branchEval(*FA.Value, std::move(W),
                        [&FA](EvalRes R, ExecWorld B) {
                          B.Node.QIn.front().Pkt.Fields[FA.FieldIndex] =
                              std::move(R.V);
                          std::vector<ExecWorld> Out;
                          Out.push_back(std::move(B));
                          return Out;
                        });
    }
    case StmtKind::Observe: {
      const auto &C = cast<CondStmt>(S);
      return branchCond(*C.Cond, std::move(W),
                        [](bool Truth, ExecWorld B) {
                          if (!Truth)
                            B.ObserveFailed = true;
                          std::vector<ExecWorld> Out;
                          Out.push_back(std::move(B));
                          return Out;
                        });
    }
    case StmtKind::Assert: {
      const auto &C = cast<CondStmt>(S);
      return branchCond(*C.Cond, std::move(W),
                        [](bool Truth, ExecWorld B) {
                          if (!Truth) {
                            B.Error = true;
                            B.ErrorReason = "assertion failed";
                          }
                          std::vector<ExecWorld> Out;
                          Out.push_back(std::move(B));
                          return Out;
                        });
    }
    case StmtKind::If: {
      const auto &If = cast<IfStmt>(S);
      return branchCond(*If.Cond, std::move(W),
                        [this, &If](bool Truth, ExecWorld B) {
                          std::vector<ExecWorld> Done;
                          execList(Truth ? If.Then : If.Else, 0, std::move(B),
                                   Done);
                          return Done;
                        });
    }
    case StmtKind::While:
      return execWhile(cast<WhileStmt>(S), std::move(W),
                       NodeExecutor::WhileFuel);
    }
    return failWorld(std::move(W), "unknown statement");
  }

  std::vector<ExecWorld> execWhile(const WhileStmt &While, ExecWorld W,
                                   int64_t Fuel) {
    if (Fuel <= 0)
      return failWorld(std::move(W), "while loop exceeded the fuel bound");
    return branchCond(*While.Cond, std::move(W),
                      [this, &While, Fuel](bool Truth, ExecWorld B) {
                        std::vector<ExecWorld> Out;
                        if (!Truth) {
                          Out.push_back(std::move(B));
                          return Out;
                        }
                        std::vector<ExecWorld> AfterBody;
                        execList(While.Body, 0, std::move(B), AfterBody);
                        for (ExecWorld &A : AfterBody) {
                          if (A.Error || A.ObserveFailed) {
                            Out.push_back(std::move(A));
                            continue;
                          }
                          for (ExecWorld &Next :
                               execWhile(While, std::move(A), Fuel - 1))
                            Out.push_back(std::move(Next));
                        }
                        return Out;
                      });
  }

  /// Evaluates \p E in world \p W and applies \p Then to every successful
  /// outcome; failed outcomes become error worlds.
  template <typename Fn>
  std::vector<ExecWorld> branchEval(const Expr &E, ExecWorld W, Fn Then) {
    std::vector<EvalRes> Results = eval(E, W);
    std::vector<ExecWorld> Out;
    for (EvalRes &R : Results) {
      ExecWorld B = W;
      B.Prob *= R.Prob;
      for (Constraint &G : R.Guards)
        B.Guards.push_back(std::move(G));
      if (R.Failed) {
        B.Error = true;
        B.ErrorReason = R.FailReason;
        Out.push_back(std::move(B));
        continue;
      }
      for (ExecWorld &Next : Then(std::move(R), std::move(B)))
        Out.push_back(std::move(Next));
    }
    return Out;
  }

  /// Like branchEval but for boolean conditions, with truthiness splitting:
  /// a symbolic condition value E splits into [E != 0] and [E == 0] worlds.
  template <typename Fn>
  std::vector<ExecWorld> branchCond(const Expr &E, ExecWorld W, Fn Then) {
    return branchEval(
        E, std::move(W), [&Then](EvalRes R, ExecWorld B) {
          // R's probability and guards are already folded into B.
          ops::LinResult T = ops::truth(R.V.toLinExpr());
          if (T.K == ops::LinResult::Kind::Value)
            return Then(!T.V.isZero(), std::move(B));
          std::vector<ExecWorld> Out;
          ExecWorld TrueW = B;
          TrueW.Guards.push_back(T.C);
          for (ExecWorld &Next : Then(true, std::move(TrueW)))
            Out.push_back(std::move(Next));
          B.Guards.push_back(T.C.negated());
          for (ExecWorld &Next : Then(false, std::move(B)))
            Out.push_back(std::move(Next));
          return Out;
        });
  }

  std::vector<ExecWorld> applyFwd(EvalRes Port, ExecWorld W) {
    if (!Port.V.isConcrete() || !Port.V.concrete().isInteger())
      return failWorld(std::move(W), "fwd port is not a concrete integer");
    const BigInt &P = Port.V.concrete().num();
    if (!P.isSmall() || P.getSmall() < 0 || P.getSmall() > Topology::MaxPort)
      return failWorld(std::move(W), "fwd port out of range");
    QueueEntry E = W.Node.QIn.takeFront();
    E.Port = static_cast<int>(P.getSmall());
    // Enqueue on a full output queue is a no-op: the packet is lost
    // (congestion at the output queue).
    W.Node.QOut.pushBack(std::move(E));
    return one(std::move(W));
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation (exact)
  //===--------------------------------------------------------------------===//

  std::vector<EvalRes> singleton(Value V) {
    EvalRes R;
    R.V = std::move(V);
    return {R};
  }

  std::vector<EvalRes> eval(const Expr &E, const ExecWorld &W) {
    switch (E.Kind) {
    case ExprKind::Number:
      return singleton(Value(cast<NumberExpr>(E).Value));
    case ExprKind::Var: {
      const auto &V = cast<VarExpr>(E);
      switch (V.Res) {
      case VarRes::Port: {
        if (W.Node.QIn.empty())
          return {EvalRes::fail("port read on an empty input queue")};
        return singleton(
            Value(Rational(static_cast<int64_t>(W.Node.QIn.front().Port))));
      }
      case VarRes::StateVar:
        return singleton(W.Node.State[V.Index]);
      case VarRes::NodeConst:
        return singleton(Value(Rational(static_cast<int64_t>(V.Index))));
      case VarRes::SymParam:
        return singleton(Value(Spec.paramValue(V.Index)));
      case VarRes::Unresolved:
        return {EvalRes::fail("unresolved identifier '" + V.Name + "'")};
      }
      return {EvalRes::fail("bad variable resolution")};
    }
    case ExprKind::FieldRead: {
      const auto &F = cast<FieldReadExpr>(E);
      if (W.Node.QIn.empty())
        return {EvalRes::fail("packet field read on an empty input queue")};
      return singleton(W.Node.QIn.front().Pkt.Fields[F.FieldIndex]);
    }
    case ExprKind::Unary: {
      const auto &U = cast<UnaryExpr>(E);
      std::vector<EvalRes> Out;
      for (EvalRes &R : eval(*U.Operand, W)) {
        if (R.Failed) {
          Out.push_back(std::move(R));
          continue;
        }
        if (U.Op == UnOpKind::Neg) {
          R.V = Value(R.V.toLinExpr().scaled(Rational(-1)));
          Out.push_back(std::move(R));
          continue;
        }
        LinExpr X = R.V.toLinExpr();
        ops::append(ops::truth(X), std::move(R), Out, /*Negate=*/true);
      }
      return Out;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(E);
      return ops::applyOutcomes(
          B.Op, eval(*B.Lhs, W), [&] { return eval(*B.Rhs, W); },
          EvalRes::combined);
    }
    case ExprKind::Flip: {
      const auto &F = cast<FlipExpr>(E);
      std::vector<EvalRes> Out;
      for (EvalRes &PR : eval(*F.Prob, W)) {
        if (PR.Failed) {
          Out.push_back(std::move(PR));
          continue;
        }
        if (!PR.V.isConcrete()) {
          Out.push_back(EvalRes::fail("flip probability must be concrete"));
          continue;
        }
        Rational P = PR.V.concrete();
        if (P.isNegative() || P > Rational(1)) {
          Out.push_back(EvalRes::fail("flip probability out of [0,1]"));
          continue;
        }
        if (!P.isZero()) {
          EvalRes True = PR;
          True.V = Value(Rational(1));
          True.Prob = PR.Prob * P;
          Out.push_back(std::move(True));
        }
        if (P != Rational(1)) {
          EvalRes False = std::move(PR);
          False.Prob = False.Prob * (Rational(1) - P);
          False.V = Value(Rational(0));
          Out.push_back(std::move(False));
        }
      }
      return Out;
    }
    case ExprKind::UniformInt: {
      const auto &U = cast<UniformIntExpr>(E);
      std::vector<EvalRes> Out;
      for (EvalRes &LoR : eval(*U.Lo, W)) {
        if (LoR.Failed) {
          Out.push_back(std::move(LoR));
          continue;
        }
        for (EvalRes &HiR : eval(*U.Hi, W)) {
          if (HiR.Failed) {
            Out.push_back(std::move(HiR));
            continue;
          }
          if (!LoR.V.isConcrete() || !HiR.V.isConcrete() ||
              !LoR.V.concrete().isInteger() || !HiR.V.concrete().isInteger()) {
            Out.push_back(
                EvalRes::fail("uniformInt bounds must be concrete integers"));
            continue;
          }
          const BigInt &Lo = LoR.V.concrete().num();
          const BigInt &Hi = HiR.V.concrete().num();
          if (!Lo.isSmall() || !Hi.isSmall() || Lo > Hi) {
            Out.push_back(EvalRes::fail("uniformInt range is empty or too "
                                        "large"));
            continue;
          }
          int64_t L = Lo.getSmall(), H = Hi.getSmall();
          Rational P(BigInt(1), BigInt(H - L + 1));
          for (int64_t I = L; I <= H; ++I) {
            EvalRes R;
            R.V = Value(Rational(I));
            R.Prob = LoR.Prob * HiR.Prob * P;
            R.Guards = LoR.Guards;
            for (const Constraint &G : HiR.Guards)
              R.Guards.push_back(G);
            Out.push_back(std::move(R));
          }
        }
      }
      return Out;
    }
    case ExprKind::StateRef:
      return {EvalRes::fail("state references are only valid in queries")};
    }
    return {EvalRes::fail("unknown expression")};
  }

};

} // namespace bayonet

std::vector<ExecWorld>
NodeExecutor::runExact(const DefDecl &Def, NodeConfig Start,
                       const StmtProfSink *Prof) const {
  ExactExecState State(Spec, Def, Prof);
  return State.run(std::move(Start));
}

std::vector<NodeExecutor::InitOutcome>
NodeExecutor::evalInitExact(const Expr &Init) const {
  // State initializers run with no packet context; reuse the exact
  // evaluator with a dummy def and empty node.
  static const DefDecl DummyDef;
  ExactExecState State(Spec, DummyDef);
  std::vector<InitOutcome> Out;
  for (EvalRes &R : State.evalNoQueue(Init)) {
    InitOutcome O;
    O.V = std::move(R.V);
    O.Prob = std::move(R.Prob);
    O.Guards = std::move(R.Guards);
    O.Failed = R.Failed;
    O.FailReason = std::move(R.FailReason);
    Out.push_back(std::move(O));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Sampled execution
//===----------------------------------------------------------------------===//

namespace bayonet {

/// Sampling-mode execution context for one node program.
class SampleExecState {
public:
  SampleExecState(const NetworkSpec &Spec, NodeConfig &Node, Xoshiro &Rng,
                  const StmtProfSink *Prof = nullptr)
      : Spec(Spec), Node(Node), Rng(Rng), Prof(Prof) {}

  SampleStatus run(const DefDecl &Def) {
    return execList(Def.Body);
  }

  std::optional<Value> evalOrNull(const Expr &E) {
    Value V;
    if (!eval(E, V))
      return std::nullopt;
    return V;
  }

private:
  const NetworkSpec &Spec;
  NodeConfig &Node;
  Xoshiro &Rng;
  const StmtProfSink *Prof;
  /// ProfIndex of the statement being executed, so expression evaluation
  /// can attribute its PRNG draws (UINT32_MAX outside any statement, e.g.
  /// state initializers — those draws stay unattributed).
  uint32_t CurStmt = UINT32_MAX;
  std::string FailReason;

  /// Attributes one PRNG draw to the current statement.
  void countDraw() {
    if (Prof && Prof->Samples && CurStmt != UINT32_MAX)
      ++Prof->Samples[CurStmt];
  }

  SampleStatus execList(const std::vector<StmtPtr> &Stmts) {
    for (const StmtPtr &S : Stmts) {
      SampleStatus St = execStmt(*S);
      if (St != SampleStatus::Ok)
        return St;
    }
    return SampleStatus::Ok;
  }

  SampleStatus execStmt(const Stmt &S) {
    if (Prof) {
      ++Prof->Execs[S.ProfIndex];
      CurStmt = S.ProfIndex;
    }
    switch (S.Kind) {
    case StmtKind::Skip:
      return SampleStatus::Ok;
    case StmtKind::New: {
      Packet Fresh;
      Fresh.Fields.assign(Spec.PacketFields.size(), Value(Rational(0)));
      Node.QIn.pushFront({std::move(Fresh), 0});
      return SampleStatus::Ok;
    }
    case StmtKind::Drop:
      if (Node.QIn.empty())
        return SampleStatus::Error;
      Node.QIn.takeFront();
      return SampleStatus::Ok;
    case StmtKind::Dup: {
      if (Node.QIn.empty())
        return SampleStatus::Error;
      QueueEntry Copy = Node.QIn.front();
      Node.QIn.pushFront(std::move(Copy));
      return SampleStatus::Ok;
    }
    case StmtKind::Fwd: {
      if (Node.QIn.empty())
        return SampleStatus::Error;
      Value Port;
      if (!eval(*cast<FwdStmt>(S).Port, Port))
        return SampleStatus::Error;
      if (!Port.isConcrete() || !Port.concrete().isInteger() ||
          !Port.concrete().num().isSmall())
        return SampleStatus::Error;
      int64_t P = Port.concrete().num().getSmall();
      if (P < 0 || P > Topology::MaxPort)
        return SampleStatus::Error;
      QueueEntry E = Node.QIn.takeFront();
      E.Port = static_cast<int>(P);
      Node.QOut.pushBack(std::move(E));
      return SampleStatus::Ok;
    }
    case StmtKind::Assign: {
      const auto &A = cast<AssignStmt>(S);
      Value V;
      if (!eval(*A.Value, V))
        return SampleStatus::Error;
      Node.State[A.SlotIndex] = std::move(V);
      return SampleStatus::Ok;
    }
    case StmtKind::FieldAssign: {
      const auto &FA = cast<FieldAssignStmt>(S);
      if (Node.QIn.empty())
        return SampleStatus::Error;
      Value V;
      if (!eval(*FA.Value, V))
        return SampleStatus::Error;
      Node.QIn.front().Pkt.Fields[FA.FieldIndex] = std::move(V);
      return SampleStatus::Ok;
    }
    case StmtKind::Observe: {
      bool Truth;
      if (!evalTruth(*cast<CondStmt>(S).Cond, Truth))
        return SampleStatus::Error;
      return Truth ? SampleStatus::Ok : SampleStatus::ObserveFailed;
    }
    case StmtKind::Assert: {
      bool Truth;
      if (!evalTruth(*cast<CondStmt>(S).Cond, Truth))
        return SampleStatus::Error;
      return Truth ? SampleStatus::Ok : SampleStatus::Error;
    }
    case StmtKind::If: {
      const auto &If = cast<IfStmt>(S);
      bool Truth;
      if (!evalTruth(*If.Cond, Truth))
        return SampleStatus::Error;
      return execList(Truth ? If.Then : If.Else);
    }
    case StmtKind::While: {
      const auto &While = cast<WhileStmt>(S);
      for (int64_t Fuel = NodeExecutor::WhileFuel; Fuel > 0; --Fuel) {
        // The body reassigns CurStmt; repoint condition draws at the loop.
        if (Prof)
          CurStmt = S.ProfIndex;
        bool Truth;
        if (!evalTruth(*While.Cond, Truth))
          return SampleStatus::Error;
        if (!Truth)
          return SampleStatus::Ok;
        SampleStatus St = execList(While.Body);
        if (St != SampleStatus::Ok)
          return St;
      }
      return SampleStatus::Error;
    }
    }
    return SampleStatus::Error;
  }

  bool evalTruth(const Expr &E, bool &Out) {
    Value V;
    if (!eval(E, V))
      return false;
    if (!V.isConcrete())
      return false;
    Out = !V.concrete().isZero();
    return true;
  }

  /// Evaluates \p E into \p Out; returns false on runtime failure.
  bool eval(const Expr &E, Value &Out) {
    switch (E.Kind) {
    case ExprKind::Number:
      Out = Value(cast<NumberExpr>(E).Value);
      return true;
    case ExprKind::Var: {
      const auto &V = cast<VarExpr>(E);
      switch (V.Res) {
      case VarRes::Port:
        if (Node.QIn.empty())
          return false;
        Out = Value(Rational(static_cast<int64_t>(Node.QIn.front().Port)));
        return true;
      case VarRes::StateVar:
        Out = Node.State[V.Index];
        return true;
      case VarRes::NodeConst:
        Out = Value(Rational(static_cast<int64_t>(V.Index)));
        return true;
      case VarRes::SymParam: {
        LinExpr P = Spec.paramValue(V.Index);
        if (!P.isConstant())
          return false; // Sampling requires bound parameters.
        Out = Value(P.constant());
        return true;
      }
      case VarRes::Unresolved:
        return false;
      }
      return false;
    }
    case ExprKind::FieldRead: {
      const auto &F = cast<FieldReadExpr>(E);
      if (Node.QIn.empty())
        return false;
      Out = Node.QIn.front().Pkt.Fields[F.FieldIndex];
      return true;
    }
    case ExprKind::Unary: {
      const auto &U = cast<UnaryExpr>(E);
      Value V;
      if (!eval(*U.Operand, V) || !V.isConcrete())
        return false;
      if (U.Op == UnOpKind::Neg)
        Out = Value(-V.concrete());
      else
        Out = Value(Rational(V.concrete().isZero() ? 1 : 0));
      return true;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(E);
      if (ops::isLogical(B.Op)) {
        bool L;
        if (!evalTruth(*B.Lhs, L))
          return false;
        if (!ops::decidedByLhs(B.Op, L) && !evalTruth(*B.Rhs, L))
          return false;
        Out = Value(Rational(L ? 1 : 0));
        return true;
      }
      Value L, R;
      if (!eval(*B.Lhs, L) || !eval(*B.Rhs, R))
        return false;
      if (!L.isConcrete() || !R.isConcrete())
        return false;
      auto X = ops::applyRational(B.Op, L.concrete(), R.concrete());
      if (!X)
        return false;
      Out = Value(std::move(*X));
      return true;
    }
    case ExprKind::Flip: {
      Value P;
      if (!eval(*cast<FlipExpr>(E).Prob, P) || !P.isConcrete())
        return false;
      const Rational &Prob = P.concrete();
      if (Prob.isNegative() || Prob > Rational(1))
        return false;
      countDraw();
      Out = Value(Rational(Rng.flip(Prob) ? 1 : 0));
      return true;
    }
    case ExprKind::UniformInt: {
      const auto &U = cast<UniformIntExpr>(E);
      Value Lo, Hi;
      if (!eval(*U.Lo, Lo) || !eval(*U.Hi, Hi))
        return false;
      if (!Lo.isConcrete() || !Hi.isConcrete() ||
          !Lo.concrete().isInteger() || !Hi.concrete().isInteger() ||
          !Lo.concrete().num().isSmall() || !Hi.concrete().num().isSmall())
        return false;
      int64_t L = Lo.concrete().num().getSmall();
      int64_t H = Hi.concrete().num().getSmall();
      if (L > H)
        return false;
      countDraw();
      Out = Value(Rational(Rng.uniformInt(L, H)));
      return true;
    }
    case ExprKind::StateRef:
      return false;
    }
    return false;
  }
};

} // namespace bayonet

SampleStatus NodeExecutor::runSampled(const DefDecl &Def, NodeConfig &Node,
                                      Xoshiro &Rng,
                                      const StmtProfSink *Prof) const {
  SampleExecState State(Spec, Node, Rng, Prof);
  return State.run(Def);
}

std::optional<Value> NodeExecutor::evalInitSampled(const Expr &Init,
                                                   Xoshiro &Rng) const {
  NodeConfig Dummy;
  SampleExecState State(Spec, Dummy, Rng);
  return State.evalOrNull(Init);
}
