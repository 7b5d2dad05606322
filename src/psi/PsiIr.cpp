//===- psi/PsiIr.cpp - PSI-style probabilistic IR --------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "psi/PsiIr.h"

#include "net/Scheduler.h"
#include "obs/Profile.h"

#include <map>

using namespace bayonet;

PExprPtr bayonet::pConst(Rational V) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Const;
  E->ConstVal = std::move(V);
  return E;
}

PExprPtr bayonet::pInt(int64_t V) { return pConst(Rational(V)); }

PExprPtr bayonet::pParam(unsigned Index) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Param;
  E->Index = Index;
  return E;
}

PExprPtr bayonet::pVar(unsigned Slot) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Var;
  E->Index = Slot;
  return E;
}

PExprPtr bayonet::pBin(BinOpKind Op, PExprPtr L, PExprPtr R) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::BinOp;
  E->BinOp = Op;
  E->Ops.push_back(std::move(L));
  E->Ops.push_back(std::move(R));
  return E;
}

PExprPtr bayonet::pUn(UnOpKind Op, PExprPtr Operand) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::UnOp;
  E->UnOp = Op;
  E->Ops.push_back(std::move(Operand));
  return E;
}

PExprPtr bayonet::pFlip(PExprPtr Prob) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Flip;
  E->Ops.push_back(std::move(Prob));
  return E;
}

PExprPtr bayonet::pUniformInt(PExprPtr Lo, PExprPtr Hi) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::UniformInt;
  E->Ops.push_back(std::move(Lo));
  E->Ops.push_back(std::move(Hi));
  return E;
}

PExprPtr bayonet::pLen(PExprPtr Tuple) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Len;
  E->Ops.push_back(std::move(Tuple));
  return E;
}

PExprPtr bayonet::pIndex(PExprPtr Tuple, PExprPtr Index) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Index;
  E->Ops.push_back(std::move(Tuple));
  E->Ops.push_back(std::move(Index));
  return E;
}

PExprPtr bayonet::pTuple(std::vector<PExprPtr> Elems) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::Tuple;
  E->Ops = std::move(Elems);
  return E;
}

PExprPtr bayonet::pTupleGet(PExprPtr Tuple, unsigned Index) {
  auto E = std::make_unique<PExpr>();
  E->Kind = PExprKind::TupleGet;
  E->Index = Index;
  E->Ops.push_back(std::move(Tuple));
  return E;
}

PExprPtr bayonet::pClone(const PExpr &E) {
  auto C = std::make_unique<PExpr>();
  C->Kind = E.Kind;
  C->ConstVal = E.ConstVal;
  C->Index = E.Index;
  C->BinOp = E.BinOp;
  C->UnOp = E.UnOp;
  for (const PExprPtr &Op : E.Ops)
    C->Ops.push_back(pClone(*Op));
  return C;
}

static PStmtPtr makeStmt(PStmtKind Kind) {
  auto S = std::make_unique<PStmt>();
  S->Kind = Kind;
  return S;
}

PStmtPtr bayonet::sAssign(unsigned Var, PExprPtr E) {
  auto S = makeStmt(PStmtKind::Assign);
  S->Var = Var;
  S->E = std::move(E);
  return S;
}

PStmtPtr bayonet::sPushBack(unsigned Queue, PExprPtr E, int64_t Capacity) {
  auto S = makeStmt(PStmtKind::PushBack);
  S->Var = Queue;
  S->E = std::move(E);
  S->Capacity = Capacity;
  return S;
}

PStmtPtr bayonet::sPushFront(unsigned Queue, PExprPtr E, int64_t Capacity) {
  auto S = makeStmt(PStmtKind::PushFront);
  S->Var = Queue;
  S->E = std::move(E);
  S->Capacity = Capacity;
  return S;
}

PStmtPtr bayonet::sPopFront(unsigned Queue, unsigned Dst) {
  auto S = makeStmt(PStmtKind::PopFront);
  S->Var = Queue;
  S->Var2 = Dst;
  return S;
}

PStmtPtr bayonet::sIf(PExprPtr Cond, std::vector<PStmtPtr> Then,
                      std::vector<PStmtPtr> Else) {
  auto S = makeStmt(PStmtKind::If);
  S->E = std::move(Cond);
  S->Then = std::move(Then);
  S->Else = std::move(Else);
  return S;
}

PStmtPtr bayonet::sWhile(PExprPtr Cond, std::vector<PStmtPtr> Body) {
  auto S = makeStmt(PStmtKind::While);
  S->E = std::move(Cond);
  S->Then = std::move(Body);
  return S;
}

PStmtPtr bayonet::sRepeat(int64_t Count, std::vector<PStmtPtr> Body) {
  auto S = makeStmt(PStmtKind::Repeat);
  S->Count = Count;
  S->Then = std::move(Body);
  return S;
}

PStmtPtr bayonet::sObserve(PExprPtr Cond) {
  auto S = makeStmt(PStmtKind::Observe);
  S->E = std::move(Cond);
  return S;
}

PStmtPtr bayonet::sAssert(PExprPtr Cond) {
  auto S = makeStmt(PStmtKind::Assert);
  S->E = std::move(Cond);
  return S;
}

PStmtPtr bayonet::sSchedule(SchedulerKind Kind, std::vector<int64_t> Weights,
                            unsigned StateSlot, std::vector<PStmtPtr> Arms) {
  auto S = makeStmt(PStmtKind::Schedule);
  S->Sched = Kind;
  S->Weights = std::move(Weights);
  S->Var = StateSlot;
  S->Then = std::move(Arms);
  return S;
}

PStmtPtr bayonet::sArm(unsigned Queue, std::vector<PStmtPtr> Body) {
  auto S = makeStmt(PStmtKind::Arm);
  S->Var = Queue;
  S->Then = std::move(Body);
  return S;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

const char *binOpText(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add:
    return "+";
  case BinOpKind::Sub:
    return "-";
  case BinOpKind::Mul:
    return "*";
  case BinOpKind::Div:
    return "/";
  case BinOpKind::Eq:
    return "==";
  case BinOpKind::Ne:
    return "!=";
  case BinOpKind::Lt:
    return "<";
  case BinOpKind::Le:
    return "<=";
  case BinOpKind::Gt:
    return ">";
  case BinOpKind::Ge:
    return ">=";
  case BinOpKind::And:
    return "&&";
  case BinOpKind::Or:
    return "||";
  }
  return "?";
}

std::string exprText(const PExpr &E, const PsiProgram &P) {
  switch (E.Kind) {
  case PExprKind::Const:
    return E.ConstVal.toString();
  case PExprKind::Param:
    return P.Params.name(E.Index);
  case PExprKind::Var:
    return P.VarNames[E.Index];
  case PExprKind::BinOp:
    return "(" + exprText(*E.Ops[0], P) + " " + binOpText(E.BinOp) + " " +
           exprText(*E.Ops[1], P) + ")";
  case PExprKind::UnOp:
    return (E.UnOp == UnOpKind::Neg ? "(-" : "(!") + exprText(*E.Ops[0], P) +
           ")";
  case PExprKind::Flip:
    return "flip(" + exprText(*E.Ops[0], P) + ")";
  case PExprKind::UniformInt:
    return "uniformInt(" + exprText(*E.Ops[0], P) + ", " +
           exprText(*E.Ops[1], P) + ")";
  case PExprKind::Len:
    return exprText(*E.Ops[0], P) + ".length";
  case PExprKind::Index:
    return exprText(*E.Ops[0], P) + "[" + exprText(*E.Ops[1], P) + "]";
  case PExprKind::Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I < E.Ops.size(); ++I) {
      if (I)
        Out += ", ";
      Out += exprText(*E.Ops[I], P);
    }
    return Out + ")";
  }
  case PExprKind::TupleGet:
    return exprText(*E.Ops[0], P) + "[" + std::to_string(E.Index) + "]";
  }
  return "?";
}

void stmtText(const PStmt &S, const PsiProgram &P, unsigned Indent,
              std::string &Out) {
  std::string Pad(Indent * 2, ' ');
  auto block = [&](const std::vector<PStmtPtr> &Body) {
    for (const PStmtPtr &Child : Body)
      stmtText(*Child, P, Indent + 1, Out);
  };
  switch (S.Kind) {
  case PStmtKind::Assign:
    Out += Pad + P.VarNames[S.Var] + " = " + exprText(*S.E, P) + ";\n";
    return;
  case PStmtKind::PushBack:
    Out += Pad + P.VarNames[S.Var] + ".pushBack(" + exprText(*S.E, P) +
           ") /* cap " + std::to_string(S.Capacity) + " */;\n";
    return;
  case PStmtKind::PushFront:
    Out += Pad + P.VarNames[S.Var] + ".pushFront(" + exprText(*S.E, P) +
           ") /* cap " + std::to_string(S.Capacity) + " */;\n";
    return;
  case PStmtKind::PopFront:
    Out += Pad + P.VarNames[S.Var2] + " = " + P.VarNames[S.Var] +
           ".takeFront();\n";
    return;
  case PStmtKind::If:
    Out += Pad + "if " + exprText(*S.E, P) + " {\n";
    block(S.Then);
    if (!S.Else.empty()) {
      Out += Pad + "} else {\n";
      block(S.Else);
    }
    Out += Pad + "}\n";
    return;
  case PStmtKind::While:
    Out += Pad + "while " + exprText(*S.E, P) + " {\n";
    block(S.Then);
    Out += Pad + "}\n";
    return;
  case PStmtKind::Repeat:
    Out += Pad + "repeat " + std::to_string(S.Count) + " {\n";
    block(S.Then);
    Out += Pad + "}\n";
    return;
  case PStmtKind::Observe:
    Out += Pad + "observe(" + exprText(*S.E, P) + ");\n";
    return;
  case PStmtKind::Assert:
    Out += Pad + "assert(" + exprText(*S.E, P) + ");\n";
    return;
  case PStmtKind::Schedule: {
    Out += Pad + "schedule " + Scheduler::create(S.Sched)->name();
    if (S.Sched == SchedulerKind::RoundRobin)
      Out += "(" + P.VarNames[S.Var] + ")";
    for (size_t I = 0; I < S.Weights.size(); ++I)
      Out += (I ? ", " : " weights ") + std::to_string(S.Weights[I]);
    Out += " {\n";
    block(S.Then);
    Out += Pad + "}\n";
    return;
  }
  case PStmtKind::Arm:
    Out += Pad + "when " + P.VarNames[S.Var] + ".length > 0 {\n";
    block(S.Then);
    Out += Pad + "}\n";
    return;
  }
}

} // namespace

std::string bayonet::printPsiProgram(const PsiProgram &P) {
  std::string Out = "def main() {\n";
  for (unsigned I = 0; I < P.Params.size(); ++I) {
    Out += "  // param " + P.Params.name(I);
    if (I < P.ParamValues.size() && P.ParamValues[I])
      Out += " = " + P.ParamValues[I]->toString();
    Out += "\n";
  }
  for (const std::string &Name : P.VarNames)
    Out += "  var " + Name + ";\n";
  for (const PStmtPtr &S : P.Body)
    stmtText(*S, P, 1, Out);
  if (P.Result)
    Out += "  return " + exprText(*P.Result, P) + ";\n";
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Profiler registration
//===----------------------------------------------------------------------===//

namespace {

const char *pStmtLabel(PStmtKind K) {
  switch (K) {
  case PStmtKind::Assign:
    return "assign";
  case PStmtKind::PushBack:
    return "push_back";
  case PStmtKind::PushFront:
    return "push_front";
  case PStmtKind::PopFront:
    return "pop_front";
  case PStmtKind::If:
    return "if";
  case PStmtKind::While:
    return "while";
  case PStmtKind::Repeat:
    return "repeat";
  case PStmtKind::Observe:
    return "observe";
  case PStmtKind::Assert:
    return "assert";
  case PStmtKind::Schedule:
    return "schedule";
  case PStmtKind::Arm:
    return "arm";
  }
  return "stmt";
}

void registerInto(Profiler &PF, uint32_t Parent,
                  const std::vector<PStmtPtr> &Body,
                  std::map<std::pair<uint32_t, std::string>, unsigned> &Seen) {
  for (const PStmtPtr &S : Body) {
    std::string Label = pStmtLabel(S->Kind);
    if (S->Loc.isValid())
      Label += "@" + S->Loc.toString();
    // Same-parent label collisions get a deterministic "#n" suffix so every
    // statement keeps its own frame (stack keys must be unique).
    unsigned &N = Seen[{Parent, Label}];
    if (N++)
      Label += "#" + std::to_string(N - 1);
    S->ProfSlot = PF.internAt(Parent, Label, S->Loc);
    registerInto(PF, S->ProfSlot, S->Then, Seen);
    registerInto(PF, S->ProfSlot, S->Else, Seen);
  }
}

} // namespace

void bayonet::registerPsiBody(Profiler &PF, uint32_t Parent,
                              const std::vector<PStmtPtr> &Body) {
  std::map<std::pair<uint32_t, std::string>, unsigned> Seen;
  registerInto(PF, Parent, Body, Seen);
}
