//===- translate/Translator.cpp - Bayonet to PSI IR translation -----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "translate/Translator.h"

using namespace bayonet;

namespace {

/// Builds the PSI IR program for one network.
class TranslatorImpl {
public:
  TranslatorImpl(const NetworkSpec &Spec, DiagEngine &Diags)
      : Spec(Spec), Diags(Diags) {}

  std::optional<PsiProgram> run();

private:
  const NetworkSpec &Spec;
  DiagEngine &Diags;
  PsiProgram P;

  // Frame layout.
  std::vector<unsigned> QInVar, QOutVar;
  std::vector<std::vector<unsigned>> StateVar; // per node, per slot
  unsigned TmpEntry = 0; ///< Scratch: a popped queue entry.
  unsigned TmpVal = 0;   ///< Scratch: an evaluated rvalue.
  unsigned RotorVar = 0; ///< Round-robin scheduler state σ_s.

  unsigned NumFields = 0; ///< Packet entry layout: fields then port.

  /// The current node while translating a def body.
  unsigned CurNode = 0;

  /// Adds slot \p Name at the end of environment block \p Block.
  unsigned addVar(std::string Name, unsigned Block) {
    unsigned Offset = 0;
    for (const SlotHome &H : P.Layout)
      Offset += H.Block == Block;
    P.Layout.push_back({Block, Offset});
    return P.addVar(std::move(Name));
  }

  // Expression translation within node CurNode's program.
  PExprPtr trExpr(const Expr &E);
  // Statement translation into Out.
  void trStmts(const std::vector<StmtPtr> &Stmts,
               std::vector<PStmtPtr> &Out);
  void trStmt(const Stmt &S, std::vector<PStmtPtr> &Out);

  /// qin_CurNode[0] as an expression.
  PExprPtr headEntry() { return pIndex(pVar(QInVar[CurNode]), pInt(0)); }

  /// Emits the body of a (Run, Node) action.
  std::vector<PStmtPtr> buildRun(unsigned Node);
  /// Emits the body of a (Fwd, Node) action.
  std::vector<PStmtPtr> buildFwd(unsigned Node);
  /// The number of enabled action slots, as an expression.
  PExprPtr enabledCount();
  /// Translates the query into the result expression.
  PExprPtr trQueryExpr(const Expr &E);
};

std::optional<PsiProgram> TranslatorImpl::run() {
  P.Params = Spec.Params;
  P.ParamValues = Spec.ParamValues;
  if (Spec.Query)
    P.Kind = Spec.Query->Kind;
  NumFields = Spec.PacketFields.size();

  // Frame layout: queues and state variables per node, then scratch. Each
  // node's slots form one environment block, as a node configuration does
  // in the direct engine; the scratch slots and the rotor get their own.
  unsigned NumNodes = Spec.Topo.numNodes();
  QInVar.resize(NumNodes);
  QOutVar.resize(NumNodes);
  StateVar.resize(NumNodes);
  for (unsigned I = 0; I < NumNodes; ++I) {
    QInVar[I] = addVar("qin_" + Spec.NodeNames[I], I);
    QOutVar[I] = addVar("qout_" + Spec.NodeNames[I], I);
    const DefDecl *Def = Spec.NodePrograms[I];
    for (const StateVarDecl &SV : Def->StateVars)
      StateVar[I].push_back(
          addVar("s_" + Spec.NodeNames[I] + "_" + SV.Name, I));
  }
  TmpEntry = addVar("__entry", NumNodes);
  TmpVal = addVar("__val", NumNodes);
  if (Spec.Sched == SchedulerKind::RoundRobin)
    RotorVar = addVar("__rotor", NumNodes + 1);

  // Initialization: empty queues, state initializers, initial packets.
  for (unsigned I = 0; I < NumNodes; ++I) {
    P.Body.push_back(sAssign(QInVar[I], pTuple({})));
    P.Body.push_back(sAssign(QOutVar[I], pTuple({})));
    const DefDecl *Def = Spec.NodePrograms[I];
    CurNode = I;
    for (unsigned Slot = 0; Slot < Def->StateVars.size(); ++Slot) {
      const StateVarDecl &SV = Def->StateVars[Slot];
      P.Body.push_back(sAssign(StateVar[I][Slot],
                               SV.Init ? trExpr(*SV.Init) : pInt(0)));
    }
  }
  if (Spec.Sched == SchedulerKind::RoundRobin)
    P.Body.push_back(sAssign(RotorVar, pInt(0)));
  for (const InitPacketSpec &Init : Spec.Inits) {
    std::vector<PExprPtr> Entry;
    for (const Rational &F : Init.Fields)
      Entry.push_back(pConst(F));
    Entry.push_back(pInt(0)); // Arrival port 0.
    P.Body.push_back(sPushBack(QInVar[Init.Node], pTuple(std::move(Entry)),
                               Spec.QueueCapacity));
  }

  // The step driver (Figure 10's main/step): repeat num_steps times one
  // scheduler step, with one arm per action slot in the direct scheduler's
  // order (Run 0, Fwd 0, Run 1, ...).
  std::vector<PStmtPtr> Arms;
  for (unsigned I = 0; I < NumNodes; ++I) {
    Arms.push_back(sArm(QInVar[I], buildRun(I)));
    Arms.push_back(sArm(QOutVar[I], buildFwd(I)));
  }
  // Only the weighted scheduler reads weights (the checker fills them for
  // every kind).
  std::vector<int64_t> Weights;
  if (Spec.Sched == SchedulerKind::Weighted)
    Weights = Spec.NodeWeights;
  std::vector<PStmtPtr> Step;
  Step.push_back(
      sSchedule(Spec.Sched, std::move(Weights), RotorVar, std::move(Arms)));
  P.Body.push_back(sRepeat(Spec.NumSteps, std::move(Step)));

  // assert(terminated()).
  P.Body.push_back(sAssert(pBin(BinOpKind::Eq, enabledCount(), pInt(0))));

  // The query. A "given" clause becomes a final observation.
  if (Spec.Query && Spec.Query->Given)
    P.Body.push_back(sObserve(trQueryExpr(*Spec.Query->Given)));
  if (Spec.Query && Spec.Query->Body)
    P.Result = trQueryExpr(*Spec.Query->Body);
  if (Diags.hasErrors())
    return std::nullopt;
  return std::move(P);
}

PExprPtr TranslatorImpl::enabledCount() {
  PExprPtr Sum = pInt(0);
  for (unsigned I = 0; I < Spec.Topo.numNodes(); ++I)
    for (unsigned Queue : {QInVar[I], QOutVar[I]})
      Sum = pBin(BinOpKind::Add, std::move(Sum),
                 pBin(BinOpKind::Gt, pLen(pVar(Queue)), pInt(0)));
  return Sum;
}

std::vector<PStmtPtr> TranslatorImpl::buildRun(unsigned Node) {
  CurNode = Node;
  std::vector<PStmtPtr> Out;
  trStmts(Spec.NodePrograms[Node]->Body, Out);
  return Out;
}

std::vector<PStmtPtr> TranslatorImpl::buildFwd(unsigned Node) {
  // Pop the head of qout and route it across the link for its port.
  std::vector<PStmtPtr> Out;
  Out.push_back(sPopFront(QOutVar[Node], TmpEntry));
  // If-chain over this node's connected ports; unconnected ports drop the
  // packet (it leaves the network).
  for (const auto &[A, B] : Spec.Topo.links()) {
    for (int Side = 0; Side < 2; ++Side) {
      const Interface &Src = Side ? B : A;
      const Interface &Dst = Side ? A : B;
      if (Src.Node != Node)
        continue;
      // entry[NumFields] == Src.Port: rewrite the port to Dst.Port and
      // enqueue at Dst (bounded push models congestion loss).
      std::vector<PExprPtr> NewEntry;
      for (unsigned F = 0; F < NumFields; ++F)
        NewEntry.push_back(pTupleGet(pVar(TmpEntry), F));
      NewEntry.push_back(pInt(Dst.Port));
      std::vector<PStmtPtr> Then;
      Then.push_back(sPushBack(QInVar[Dst.Node], pTuple(std::move(NewEntry)),
                               Spec.QueueCapacity));
      Out.push_back(
          sIf(pBin(BinOpKind::Eq, pTupleGet(pVar(TmpEntry), NumFields),
                   pInt(Src.Port)),
              std::move(Then)));
    }
  }
  return Out;
}

PExprPtr TranslatorImpl::trExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::Number:
    return pConst(cast<NumberExpr>(E).Value);
  case ExprKind::Var: {
    const auto &V = cast<VarExpr>(E);
    switch (V.Res) {
    case VarRes::Port:
      return pTupleGet(headEntry(), NumFields);
    case VarRes::StateVar:
      return pVar(StateVar[CurNode][V.Index]);
    case VarRes::NodeConst:
      return pInt(static_cast<int64_t>(V.Index));
    case VarRes::SymParam:
      return pParam(V.Index);
    case VarRes::Unresolved:
      Diags.error(E.Loc, "unresolved identifier in translation");
      return pInt(0);
    }
    return pInt(0);
  }
  case ExprKind::FieldRead:
    return pTupleGet(headEntry(), cast<FieldReadExpr>(E).FieldIndex);
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    return pBin(B.Op, trExpr(*B.Lhs), trExpr(*B.Rhs));
  }
  case ExprKind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    return pUn(U.Op, trExpr(*U.Operand));
  }
  case ExprKind::Flip:
    return pFlip(trExpr(*cast<FlipExpr>(E).Prob));
  case ExprKind::UniformInt: {
    const auto &U = cast<UniformIntExpr>(E);
    return pUniformInt(trExpr(*U.Lo), trExpr(*U.Hi));
  }
  case ExprKind::StateRef:
    Diags.error(E.Loc, "state reference outside a query");
    return pInt(0);
  }
  return pInt(0);
}

void TranslatorImpl::trStmts(const std::vector<StmtPtr> &Stmts,
                             std::vector<PStmtPtr> &Out) {
  for (const StmtPtr &S : Stmts) {
    // Every IR statement a source statement lowers to inherits its source
    // location (the profiler's annotated view folds them back per line).
    size_t First = Out.size();
    trStmt(*S, Out);
    for (size_t I = First; I < Out.size(); ++I)
      if (!Out[I]->Loc.isValid())
        Out[I]->Loc = S->Loc;
  }
}

void TranslatorImpl::trStmt(const Stmt &S, std::vector<PStmtPtr> &Out) {
  switch (S.Kind) {
  case StmtKind::Skip:
    return;
  case StmtKind::New: {
    std::vector<PExprPtr> Entry;
    for (unsigned F = 0; F < NumFields; ++F)
      Entry.push_back(pInt(0));
    Entry.push_back(pInt(0));
    Out.push_back(sPushFront(QInVar[CurNode], pTuple(std::move(Entry)),
                             Spec.QueueCapacity));
    return;
  }
  case StmtKind::Drop:
    Out.push_back(sPopFront(QInVar[CurNode], TmpEntry));
    return;
  case StmtKind::Dup:
    Out.push_back(sAssign(TmpEntry, headEntry()));
    Out.push_back(
        sPushFront(QInVar[CurNode], pVar(TmpEntry), Spec.QueueCapacity));
    return;
  case StmtKind::Fwd: {
    const auto &F = cast<FwdStmt>(S);
    // Evaluate the port while the head is still in place, then move the
    // head to the output queue with the new port.
    Out.push_back(sAssign(TmpVal, trExpr(*F.Port)));
    Out.push_back(sPopFront(QInVar[CurNode], TmpEntry));
    std::vector<PExprPtr> Entry;
    for (unsigned I = 0; I < NumFields; ++I)
      Entry.push_back(pTupleGet(pVar(TmpEntry), I));
    Entry.push_back(pVar(TmpVal));
    Out.push_back(sPushBack(QOutVar[CurNode], pTuple(std::move(Entry)),
                            Spec.QueueCapacity));
    return;
  }
  case StmtKind::Assign: {
    const auto &A = cast<AssignStmt>(S);
    Out.push_back(
        sAssign(StateVar[CurNode][A.SlotIndex], trExpr(*A.Value)));
    return;
  }
  case StmtKind::FieldAssign: {
    const auto &FA = cast<FieldAssignStmt>(S);
    // Evaluate the value first (it may read the head), then rebuild the
    // head entry with the field replaced.
    Out.push_back(sAssign(TmpVal, trExpr(*FA.Value)));
    Out.push_back(sPopFront(QInVar[CurNode], TmpEntry));
    std::vector<PExprPtr> Entry;
    for (unsigned I = 0; I <= NumFields; ++I) {
      if (I == FA.FieldIndex)
        Entry.push_back(pVar(TmpVal));
      else
        Entry.push_back(pTupleGet(pVar(TmpEntry), I));
    }
    Out.push_back(sPushFront(QInVar[CurNode], pTuple(std::move(Entry)),
                             Spec.QueueCapacity));
    return;
  }
  case StmtKind::Observe:
    Out.push_back(sObserve(trExpr(*cast<CondStmt>(S).Cond)));
    return;
  case StmtKind::Assert:
    Out.push_back(sAssert(trExpr(*cast<CondStmt>(S).Cond)));
    return;
  case StmtKind::If: {
    const auto &If = cast<IfStmt>(S);
    std::vector<PStmtPtr> Then, Else;
    trStmts(If.Then, Then);
    trStmts(If.Else, Else);
    Out.push_back(sIf(trExpr(*If.Cond), std::move(Then), std::move(Else)));
    return;
  }
  case StmtKind::While: {
    const auto &While = cast<WhileStmt>(S);
    std::vector<PStmtPtr> Body;
    trStmts(While.Body, Body);
    Out.push_back(sWhile(trExpr(*While.Cond), std::move(Body)));
    return;
  }
  }
}

PExprPtr TranslatorImpl::trQueryExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::Number:
    return pConst(cast<NumberExpr>(E).Value);
  case ExprKind::Var: {
    const auto &V = cast<VarExpr>(E);
    if (V.Res == VarRes::NodeConst)
      return pInt(static_cast<int64_t>(V.Index));
    if (V.Res == VarRes::SymParam)
      return pParam(V.Index);
    Diags.error(E.Loc, "identifier not allowed in a query");
    return pInt(0);
  }
  case ExprKind::StateRef: {
    const auto &SR = cast<StateRefExpr>(E);
    PExprPtr Sum;
    for (const auto &[Node, Slot] : SR.Targets) {
      PExprPtr V = pVar(StateVar[Node][Slot]);
      Sum = Sum ? pBin(BinOpKind::Add, std::move(Sum), std::move(V))
                : std::move(V);
    }
    return Sum ? std::move(Sum) : pInt(0);
  }
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    return pBin(B.Op, trQueryExpr(*B.Lhs), trQueryExpr(*B.Rhs));
  }
  case ExprKind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    return pUn(U.Op, trQueryExpr(*U.Operand));
  }
  default:
    Diags.error(E.Loc, "expression kind not allowed in a query");
    return pInt(0);
  }
}

} // namespace

std::optional<PsiProgram> bayonet::translateToPsi(const NetworkSpec &Spec,
                                                  DiagEngine &Diags) {
  TranslatorImpl Impl(Spec, Diags);
  return Impl.run();
}
