//===- lang/Checker.cpp - Bayonet integrity checking ----------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Checker.h"

#include "lang/Ops.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace bayonet;

namespace {

/// Expression contexts with different name-resolution rules.
enum class ExprCtx {
  NodeProgram, ///< Inside a def body: pt, state vars, nodes, params, random.
  StateInit,   ///< State initializers: nodes, params, random; no pt/pkt/state.
  Query,       ///< Queries: x@n refs, nodes, params; no random, no pkt/pt.
  ConstExpr,   ///< init-block field values: constants and node names only.
};

class CheckerImpl {
public:
  CheckerImpl(SourceFile &File, DiagEngine &Diags)
      : File(File), Diags(Diags) {}

  std::optional<NetworkSpec> run();

private:
  SourceFile &File;
  DiagEngine &Diags;
  NetworkSpec Spec;
  const DefDecl *CurDef = nullptr;

  void checkTopology();
  void checkPacketFields();
  void checkPrograms();
  void checkDefs();
  void checkConfigDecls();
  void checkParams();
  void checkInits();
  void checkQueries();

  void checkStmts(const std::vector<StmtPtr> &Stmts);
  void checkStmt(Stmt &S);
  void checkExpr(Expr &E, ExprCtx Ctx);
  bool resolveField(const std::string &Base, const std::string &Field,
                    SourceLoc Loc, unsigned &IndexOut);
  std::optional<unsigned> stateSlotOf(const DefDecl &Def,
                                      const std::string &Name);
  /// Folds a constant expression (numbers, node names, + - * /).
  std::optional<Rational> foldConst(const Expr &E);
};

std::optional<unsigned> CheckerImpl::stateSlotOf(const DefDecl &Def,
                                                 const std::string &Name) {
  for (unsigned I = 0; I < Def.StateVars.size(); ++I)
    if (Def.StateVars[I].Name == Name)
      return I;
  return std::nullopt;
}

void CheckerImpl::checkTopology() {
  if (!File.Topology) {
    Diags.error({1, 1}, "missing topology declaration");
    return;
  }
  const TopologyDecl &Topo = *File.Topology;
  if (Topo.NodeNames.empty())
    Diags.error(Topo.Loc, "topology declares no nodes");

  std::unordered_set<std::string> Seen;
  for (const std::string &Name : Topo.NodeNames) {
    if (!Seen.insert(Name).second)
      Diags.error(Topo.Loc, "duplicate node '" + Name + "'");
  }
  Spec.NodeNames = Topo.NodeNames;
  Spec.Topo.setNumNodes(Topo.NodeNames.size());

  for (const LinkDecl &Link : Topo.Links) {
    auto A = Spec.nodeIdOf(Link.NodeA);
    auto B = Spec.nodeIdOf(Link.NodeB);
    if (!A)
      Diags.error(Link.Loc, "unknown node '" + Link.NodeA + "' in link");
    if (!B)
      Diags.error(Link.Loc, "unknown node '" + Link.NodeB + "' in link");
    const bool PortsOk = Link.PortA > 0 && Link.PortB > 0 &&
                         Link.PortA <= Topology::MaxPort &&
                         Link.PortB <= Topology::MaxPort;
    if (!PortsOk)
      Diags.error(Link.Loc, "ports must be integers in 1.." +
                                std::to_string(Topology::MaxPort));
    if (!A || !B || !PortsOk)
      continue;
    if (*A == *B && Link.PortA == Link.PortB) {
      Diags.error(Link.Loc, "link connects an interface to itself");
      continue;
    }
    if (!Spec.Topo.addLink({*A, Link.PortA}, {*B, Link.PortB}))
      Diags.error(Link.Loc,
                  "port already connected: each interface may appear in at "
                  "most one link");
  }
  for (unsigned I = 0; I < Spec.Topo.numNodes(); ++I)
    if (!Spec.Topo.isLinked(I))
      Diags.error(Topo.Loc, "node '" + Spec.NodeNames[I] +
                                "' is not connected to any link");
}

void CheckerImpl::checkPacketFields() {
  std::unordered_set<std::string> Seen;
  for (const std::string &F : File.PacketFields)
    if (!Seen.insert(F).second)
      Diags.error(File.PacketLoc, "duplicate packet field '" + F + "'");
  Spec.PacketFields = File.PacketFields;
}

void CheckerImpl::checkPrograms() {
  Spec.NodePrograms.assign(Spec.NodeNames.size(), nullptr);
  for (const ProgramAssign &PA : File.Programs) {
    auto Node = Spec.nodeIdOf(PA.NodeName);
    if (!Node) {
      Diags.error(PA.Loc, "unknown node '" + PA.NodeName + "' in programs");
      continue;
    }
    const DefDecl *Def = File.findDef(PA.DefName);
    if (!Def) {
      Diags.error(PA.Loc, "unknown program '" + PA.DefName + "'");
      continue;
    }
    if (Spec.NodePrograms[*Node])
      Diags.error(PA.Loc,
                  "node '" + PA.NodeName + "' is assigned two programs");
    Spec.NodePrograms[*Node] = Def;
  }
  SourceLoc TopoLoc = File.Topology ? File.Topology->Loc : SourceLoc{1, 1};
  for (unsigned I = 0; I < Spec.NodePrograms.size(); ++I)
    if (!Spec.NodePrograms[I])
      Diags.error(TopoLoc, "node '" + Spec.NodeNames[I] +
                               "' has no program assigned");
  // Warn about defs never assigned to a node.
  for (const DefDecl &Def : File.Defs) {
    bool Used = false;
    for (const DefDecl *P : Spec.NodePrograms)
      Used |= P == &Def;
    if (!Used)
      Diags.warning(Def.Loc,
                    "program '" + Def.Name + "' is not used by any node");
  }
}

void CheckerImpl::checkParams() {
  for (const ParamDecl &P : File.Params) {
    if (Spec.Params.lookup(P.Name)) {
      Diags.error(P.Loc, "duplicate parameter '" + P.Name + "'");
      continue;
    }
    unsigned Index = Spec.Params.getOrAdd(P.Name);
    Spec.ParamValues.resize(Index + 1);
    Spec.ParamValues[Index] = P.Value;
  }
}

void CheckerImpl::checkDefs() {
  std::unordered_set<std::string> Seen;
  for (DefDecl &Def : File.Defs) {
    if (!Seen.insert(Def.Name).second)
      Diags.error(Def.Loc, "duplicate program '" + Def.Name + "'");
    CurDef = &Def;
    // State variable names must be distinct and not collide with params.
    std::unordered_set<std::string> StateSeen;
    for (StateVarDecl &SV : Def.StateVars) {
      if (!StateSeen.insert(SV.Name).second)
        Diags.error(SV.Loc, "duplicate state variable '" + SV.Name + "'");
      if (SV.Name == Def.PortParam || SV.Name == Def.PktParam)
        Diags.error(SV.Loc, "state variable '" + SV.Name +
                                "' shadows a program parameter");
      if (SV.Init)
        checkExpr(*SV.Init, ExprCtx::StateInit);
    }
    checkStmts(Def.Body);
    CurDef = nullptr;
  }
}

void CheckerImpl::checkConfigDecls() {
  if (File.NumStepsDeclCount == 0)
    Diags.error({1, 1}, "num_steps must be declared (exactly once)");
  else if (File.NumStepsDeclCount > 1)
    Diags.error(File.NumStepsLoc, "num_steps declared more than once");
  if (File.NumSteps) {
    if (*File.NumSteps <= 0)
      Diags.error(File.NumStepsLoc, "num_steps must be positive");
    Spec.NumSteps = *File.NumSteps;
  }

  if (File.QueueCapacityDeclCount > 1)
    Diags.error(File.QueueCapacityLoc, "queue_capacity declared more than once");
  if (File.QueueCapacity) {
    if (*File.QueueCapacity < 0)
      Diags.error(File.QueueCapacityLoc, "queue capacity must be non-negative");
    else
      Spec.QueueCapacity = *File.QueueCapacity;
  }

  if (File.SchedulerDeclCount > 1)
    Diags.error(File.SchedulerLoc, "scheduler declared more than once");
  Spec.SchedulerLoc = File.SchedulerLoc;
  if (!File.SchedulerName.empty()) {
    if (File.SchedulerName == "uniform")
      Spec.Sched = SchedulerKind::Uniform;
    else if (File.SchedulerName == "roundrobin")
      Spec.Sched = SchedulerKind::RoundRobin;
    else if (File.SchedulerName == "deterministic")
      Spec.Sched = SchedulerKind::Deterministic;
    else if (File.SchedulerName == "weighted")
      Spec.Sched = SchedulerKind::Weighted;
    else
      Diags.error(File.SchedulerLoc,
                  "unknown scheduler '" + File.SchedulerName +
                      "' (expected 'uniform', 'roundrobin', "
                      "'deterministic' or 'weighted')");
  }
  // Resolve scheduler weights: default 1, listed nodes override.
  Spec.NodeWeights.assign(Spec.NodeNames.size(), 1);
  if (!File.SchedulerWeights.empty() &&
      Spec.Sched != SchedulerKind::Weighted)
    Diags.error(File.SchedulerLoc,
                "a weight list requires the 'weighted' scheduler");
  for (const auto &[Name, Weight] : File.SchedulerWeights) {
    auto Node = Spec.nodeIdOf(Name);
    if (!Node) {
      Diags.error(File.SchedulerLoc,
                  "unknown node '" + Name + "' in the scheduler weights");
      continue;
    }
    if (Weight <= 0) {
      Diags.error(File.SchedulerLoc, "scheduler weight of '" + Name +
                                         "' must be positive");
      continue;
    }
    Spec.NodeWeights[*Node] = Weight;
  }
}

void CheckerImpl::checkInits() {
  if (File.Inits.empty())
    Diags.warning(File.InitLoc.isValid() ? File.InitLoc : SourceLoc{1, 1},
                  "init block is empty: the network starts with no "
                  "packets and is immediately terminal");
  for (InitPacketDecl &Init : File.Inits) {
    auto Node = Spec.nodeIdOf(Init.NodeName);
    if (!Node) {
      Diags.error(Init.Loc, "unknown node '" + Init.NodeName + "' in init");
      continue;
    }
    Init.NodeId = *Node;
    InitPacketSpec PS;
    PS.Node = *Node;
    PS.Fields.assign(Spec.PacketFields.size(), Rational(0));
    for (auto &[FieldName, ValueExpr] : Init.Fields) {
      unsigned FieldIndex = 0;
      bool Found = false;
      for (unsigned I = 0; I < Spec.PacketFields.size(); ++I)
        if (Spec.PacketFields[I] == FieldName) {
          FieldIndex = I;
          Found = true;
        }
      if (!Found) {
        Diags.error(Init.Loc, "unknown packet field '" + FieldName + "'");
        continue;
      }
      checkExpr(*ValueExpr, ExprCtx::ConstExpr);
      if (auto V = foldConst(*ValueExpr))
        PS.Fields[FieldIndex] = *V;
      else
        Diags.error(ValueExpr->Loc,
                    "init field value must be a constant expression");
    }
    Spec.Inits.push_back(std::move(PS));
  }
}

void CheckerImpl::checkQueries() {
  if (File.Queries.empty()) {
    Diags.error({1, 1}, "a query must be declared (exactly one)");
    return;
  }
  if (File.Queries.size() > 1)
    Diags.error(File.Queries[1].Loc, "more than one query declared");
  QueryDecl &Q = File.Queries.front();
  if (Q.Body)
    checkExpr(*Q.Body, ExprCtx::Query);
  if (Q.Given)
    checkExpr(*Q.Given, ExprCtx::Query);
  Spec.Query = &Q;
}

void CheckerImpl::checkStmts(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts)
    checkStmt(*S);
}

void CheckerImpl::checkStmt(Stmt &S) {
  switch (S.Kind) {
  case StmtKind::New:
  case StmtKind::Drop:
  case StmtKind::Dup:
  case StmtKind::Skip:
    return;
  case StmtKind::Fwd:
    checkExpr(*static_cast<FwdStmt &>(S).Port, ExprCtx::NodeProgram);
    return;
  case StmtKind::Assign: {
    auto &A = static_cast<AssignStmt &>(S);
    auto Slot = stateSlotOf(*CurDef, A.Name);
    if (!Slot) {
      Diags.error(S.Loc, "assignment to '" + A.Name +
                             "': only state variables can be assigned");
      return;
    }
    A.SlotIndex = *Slot;
    checkExpr(*A.Value, ExprCtx::NodeProgram);
    return;
  }
  case StmtKind::FieldAssign: {
    auto &FA = static_cast<FieldAssignStmt &>(S);
    resolveField(FA.Base, FA.Field, FA.Loc, FA.FieldIndex);
    checkExpr(*FA.Value, ExprCtx::NodeProgram);
    return;
  }
  case StmtKind::Observe:
  case StmtKind::Assert:
    checkExpr(*static_cast<CondStmt &>(S).Cond, ExprCtx::NodeProgram);
    return;
  case StmtKind::If: {
    auto &If = static_cast<IfStmt &>(S);
    checkExpr(*If.Cond, ExprCtx::NodeProgram);
    checkStmts(If.Then);
    checkStmts(If.Else);
    return;
  }
  case StmtKind::While: {
    auto &While = static_cast<WhileStmt &>(S);
    checkExpr(*While.Cond, ExprCtx::NodeProgram);
    checkStmts(While.Body);
    return;
  }
  }
}

bool CheckerImpl::resolveField(const std::string &Base,
                               const std::string &Field, SourceLoc Loc,
                               unsigned &IndexOut) {
  if (!CurDef || Base != CurDef->PktParam) {
    Diags.error(Loc, "field access base '" + Base +
                         "' is not the packet parameter");
    return false;
  }
  for (unsigned I = 0; I < Spec.PacketFields.size(); ++I)
    if (Spec.PacketFields[I] == Field) {
      IndexOut = I;
      return true;
    }
  Diags.error(Loc, "unknown packet field '" + Field +
                       "' (declare it in packet_fields)");
  return false;
}

void CheckerImpl::checkExpr(Expr &E, ExprCtx Ctx) {
  switch (E.Kind) {
  case ExprKind::Number:
    return;
  case ExprKind::Var: {
    auto &V = static_cast<VarExpr &>(E);
    // Inside a program: the port parameter and state variables win.
    if (Ctx == ExprCtx::NodeProgram && CurDef) {
      if (V.Name == CurDef->PortParam) {
        V.Res = VarRes::Port;
        return;
      }
      if (V.Name == CurDef->PktParam) {
        Diags.error(E.Loc, "the packet parameter can only be used in field "
                           "accesses like '" +
                               V.Name + ".dst'");
        return;
      }
      if (auto Slot = stateSlotOf(*CurDef, V.Name)) {
        V.Res = VarRes::StateVar;
        V.Index = *Slot;
        return;
      }
    }
    // Node names act as integer constants (their node id).
    if (auto Node = Spec.nodeIdOf(V.Name)) {
      V.Res = VarRes::NodeConst;
      V.Index = *Node;
      return;
    }
    if (Ctx != ExprCtx::ConstExpr) {
      if (auto Param = Spec.Params.lookup(V.Name)) {
        V.Res = VarRes::SymParam;
        V.Index = *Param;
        return;
      }
    }
    Diags.error(E.Loc, "unknown identifier '" + V.Name + "'");
    return;
  }
  case ExprKind::FieldRead: {
    auto &F = static_cast<FieldReadExpr &>(E);
    if (Ctx != ExprCtx::NodeProgram) {
      Diags.error(E.Loc, "packet fields can only be read inside programs");
      return;
    }
    resolveField(F.Base, F.Field, F.Loc, F.FieldIndex);
    return;
  }
  case ExprKind::Binary: {
    auto &B = static_cast<BinaryExpr &>(E);
    checkExpr(*B.Lhs, Ctx);
    checkExpr(*B.Rhs, Ctx);
    return;
  }
  case ExprKind::Unary:
    checkExpr(*static_cast<UnaryExpr &>(E).Operand, Ctx);
    return;
  case ExprKind::Flip: {
    if (Ctx == ExprCtx::Query || Ctx == ExprCtx::ConstExpr) {
      Diags.error(E.Loc, "random draws are not allowed here");
      return;
    }
    checkExpr(*static_cast<FlipExpr &>(E).Prob, Ctx);
    return;
  }
  case ExprKind::UniformInt: {
    if (Ctx == ExprCtx::Query || Ctx == ExprCtx::ConstExpr) {
      Diags.error(E.Loc, "random draws are not allowed here");
      return;
    }
    auto &U = static_cast<UniformIntExpr &>(E);
    checkExpr(*U.Lo, Ctx);
    checkExpr(*U.Hi, Ctx);
    return;
  }
  case ExprKind::StateRef: {
    auto &SR = static_cast<StateRefExpr &>(E);
    if (Ctx != ExprCtx::Query) {
      Diags.error(E.Loc, "'x@node' references are only allowed in queries");
      return;
    }
    SR.Targets.clear();
    if (SR.NodeName == "*") {
      for (unsigned Node = 0; Node < Spec.NodePrograms.size(); ++Node) {
        const DefDecl *Def = Spec.NodePrograms[Node];
        if (!Def)
          continue;
        if (auto Slot = stateSlotOf(*Def, SR.VarName))
          SR.Targets.emplace_back(Node, *Slot);
      }
      if (SR.Targets.empty())
        Diags.error(E.Loc, "no node has a state variable '" + SR.VarName +
                               "'");
      return;
    }
    auto Node = Spec.nodeIdOf(SR.NodeName);
    if (!Node) {
      Diags.error(E.Loc, "unknown node '" + SR.NodeName + "' in query");
      return;
    }
    const DefDecl *Def =
        *Node < Spec.NodePrograms.size() ? Spec.NodePrograms[*Node] : nullptr;
    if (!Def)
      return; // Error already reported by checkPrograms.
    auto Slot = stateSlotOf(*Def, SR.VarName);
    if (!Slot) {
      Diags.error(E.Loc, "node '" + SR.NodeName + "' has no state variable '" +
                             SR.VarName + "'");
      return;
    }
    SR.Targets.emplace_back(*Node, *Slot);
    return;
  }
  }
}

std::optional<Rational> CheckerImpl::foldConst(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::Number:
    return static_cast<const NumberExpr &>(E).Value;
  case ExprKind::Var: {
    const auto &V = static_cast<const VarExpr &>(E);
    if (V.Res == VarRes::NodeConst)
      return Rational(static_cast<int64_t>(V.Index));
    return std::nullopt;
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    auto Operand = foldConst(*U.Operand);
    if (!Operand)
      return std::nullopt;
    if (U.Op == UnOpKind::Neg)
      return -*Operand;
    return Rational(Operand->isZero() ? 1 : 0);
  }
  case ExprKind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    auto L = foldConst(*B.Lhs);
    auto R = foldConst(*B.Rhs);
    if (!L || !R || !ops::isArithmetic(B.Op))
      return std::nullopt;
    return ops::applyRational(B.Op, *L, *R);
  }
  default:
    return std::nullopt;
  }
}

std::optional<NetworkSpec> CheckerImpl::run() {
  checkTopology();
  checkPacketFields();
  checkParams();
  checkPrograms();
  checkDefs();
  checkConfigDecls();
  checkInits();
  checkQueries();
  if (Diags.hasErrors())
    return std::nullopt;
  return std::move(Spec);
}

} // namespace

std::optional<NetworkSpec> bayonet::checkNetwork(SourceFile &File,
                                                 DiagEngine &Diags) {
  CheckerImpl Impl(File, Diags);
  return Impl.run();
}
