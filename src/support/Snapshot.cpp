//===- support/Snapshot.cpp - Durable checkpoint/restore ------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Snapshot.h"

#include "net/NetworkSpec.h"
#include "obs/Obs.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace bayonet;

uint64_t bayonet::specFingerprint(const NetworkSpec &Spec) {
  Fingerprint F;
  F.mix(Spec.Topo.numNodes());
  for (const auto &[A, B] : Spec.Topo.links()) {
    F.mix(A.Node);
    F.mix(static_cast<uint64_t>(A.Port));
    F.mix(B.Node);
    F.mix(static_cast<uint64_t>(B.Port));
  }
  for (const std::string &N : Spec.NodeNames)
    F.mix(N);
  for (const std::string &N : Spec.PacketFields)
    F.mix(N);
  F.mix(Spec.NodeWeights.size());
  for (int64_t W : Spec.NodeWeights)
    F.mix(static_cast<uint64_t>(W));
  F.mix(static_cast<uint64_t>(Spec.QueueCapacity));
  F.mix(static_cast<uint64_t>(Spec.NumSteps));
  F.mix(static_cast<uint64_t>(Spec.Sched));
  F.mix(Spec.Params.size());
  for (unsigned I = 0; I < Spec.Params.size(); ++I)
    F.mix(Spec.Params.name(I));
  F.mix(Spec.ParamValues.size());
  for (const auto &V : Spec.ParamValues) {
    F.mix(V.has_value());
    if (V)
      F.mix(V->toString());
  }
  F.mix(Spec.Inits.size());
  for (const InitPacketSpec &I : Spec.Inits) {
    F.mix(I.Node);
    F.mix(I.Fields.size());
    for (const Rational &R : I.Fields)
      F.mix(R.toString());
  }
  F.mix(Spec.Query != nullptr);
  return F.value();
}

//===----------------------------------------------------------------------===//
// Domain serializers
//===----------------------------------------------------------------------===//

// BigInts travel in their canonical in-memory form (small int64, or sign
// plus little-endian limbs): toMag/fromMag round-trip exactly and fromMag
// re-canonicalizes any input, so re-serialization is byte-stable — and the
// write side never renders decimal digits (toString is quadratic in the
// digit count, which made checkpointing large frontiers of long-product
// weights the dominant snapshot cost).
namespace {

void snapBigInt(SnapWriter &W, const BigInt &V) {
  if (V.isSmall()) {
    W.u8(0);
    W.i64(V.getSmall());
    return;
  }
  int Sign;
  std::vector<uint32_t> Mag;
  V.toMag(Sign, Mag);
  W.u8(Sign < 0 ? 2 : 1);
  W.u32(static_cast<uint32_t>(Mag.size()));
  for (uint32_t Limb : Mag)
    W.u32(Limb);
}

bool readBigInt(SnapReader &R, BigInt &Out) {
  uint8_t Tag = R.u8();
  if (Tag == 0) {
    Out = BigInt(R.i64());
    return R.ok();
  }
  if (Tag > 2) {
    R.fail();
    return false;
  }
  uint32_t N = R.u32();
  if (N > R.remaining() / 4) {
    R.fail();
    return false;
  }
  std::vector<uint32_t> Mag(N);
  for (uint32_t I = 0; I < N; ++I)
    Mag[I] = R.u32();
  if (!R.ok())
    return false;
  Out = BigInt::fromMag(Tag == 2 ? -1 : 1, std::move(Mag));
  return true;
}

} // namespace

void bayonet::snapRational(SnapWriter &W, const Rational &V) {
  snapBigInt(W, V.num());
  snapBigInt(W, V.den());
}

bool bayonet::readRational(SnapReader &R, Rational &Out) {
  BigInt Num, Den;
  if (!readBigInt(R, Num) || !readBigInt(R, Den) || Den.isZero()) {
    R.fail();
    return false;
  }
  // The normalizing constructor is the identity on the canonical values
  // the writer emits; on hand-built non-canonical input it re-reduces, so
  // the Rational invariants hold either way.
  Out = Rational(std::move(Num), std::move(Den));
  return true;
}

void bayonet::snapLinExpr(SnapWriter &W, const LinExpr &E) {
  snapRational(W, E.constant());
  W.u64(E.terms().size());
  for (const auto &[Index, Coeff] : E.terms()) {
    W.u32(Index);
    snapRational(W, Coeff);
  }
}

bool bayonet::readLinExpr(SnapReader &R, LinExpr &Out) {
  Rational C;
  if (!readRational(R, C))
    return false;
  // Rebuild through the arithmetic API: terms() output is sorted with no
  // zero coefficients, so re-adding them reproduces the canonical form.
  LinExpr E(std::move(C));
  uint64_t N = R.count();
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    unsigned Index = R.u32();
    Rational Coeff;
    if (!readRational(R, Coeff))
      return false;
    E = E + LinExpr::param(Index).scaled(Coeff);
  }
  if (!R.ok())
    return false;
  Out = std::move(E);
  return true;
}

void bayonet::snapConstraint(SnapWriter &W, const Constraint &C) {
  snapLinExpr(W, C.expr());
  W.u8(static_cast<uint8_t>(C.rel()));
}

bool bayonet::readConstraint(SnapReader &R, Constraint &Out) {
  LinExpr E;
  if (!readLinExpr(R, E))
    return false;
  uint8_t Rel = R.u8();
  if (!R.ok() || Rel > static_cast<uint8_t>(RelKind::LE)) {
    R.fail();
    return false;
  }
  // The canonicalizing constructor is the identity on canonical input.
  Out = Constraint(std::move(E), static_cast<RelKind>(Rel));
  return true;
}

void bayonet::snapConstraintSet(SnapWriter &W, const ConstraintSet &S) {
  W.boolean(S.knownFalse());
  W.u64(S.constraints().size());
  for (const Constraint &C : S.constraints())
    snapConstraint(W, C);
}

bool bayonet::readConstraintSet(SnapReader &R, ConstraintSet &Out) {
  bool KnownFalse = R.boolean();
  uint64_t N = R.count();
  ConstraintSet S;
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    Constraint C;
    if (!readConstraint(R, C))
      return false;
    // Stored constraints are canonical and non-trivial, so add() re-inserts
    // them verbatim (sorted, deduplicated).
    S.add(std::move(C));
  }
  if (!R.ok())
    return false;
  if (KnownFalse)
    S.add(Constraint(LinExpr(Rational(1)), RelKind::EQ)); // "1 == 0"
  Out = std::move(S);
  return true;
}

void bayonet::snapSymProb(SnapWriter &W, const SymProb &P) {
  W.u64(P.terms().size());
  for (const SymProb::Term &T : P.terms()) {
    snapConstraintSet(W, T.Guard);
    snapRational(W, T.Value);
  }
}

bool bayonet::readSymProb(SnapReader &R, SymProb &Out) {
  uint64_t N = R.count();
  std::vector<SymProb::Term> Terms;
  Terms.reserve(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    SymProb::Term T;
    if (!readConstraintSet(R, T.Guard) || !readRational(R, T.Value))
      return false;
    Terms.push_back(std::move(T));
  }
  if (!R.ok())
    return false;
  Out = SymProb::fromCanonicalTerms(std::move(Terms));
  return true;
}

void bayonet::snapValue(SnapWriter &W, const Value &V) {
  if (V.isConcrete()) {
    W.u8(0);
    snapRational(W, V.concrete());
  } else {
    W.u8(1);
    snapLinExpr(W, V.toLinExpr());
  }
}

bool bayonet::readValue(SnapReader &R, Value &Out) {
  switch (R.u8()) {
  case 0: {
    Rational V;
    if (!readRational(R, V))
      return false;
    Out = Value(std::move(V));
    return true;
  }
  case 1: {
    LinExpr E;
    if (!readLinExpr(R, E))
      return false;
    Out = Value(std::move(E));
    return true;
  }
  default:
    R.fail();
    return false;
  }
}

void bayonet::snapPsiValue(SnapWriter &W, const PsiValue &V) {
  if (V.isRational()) {
    W.u8(0);
    snapRational(W, V.rational());
  } else if (V.isSymbolic()) {
    W.u8(1);
    snapLinExpr(W, V.toLinExpr());
  } else {
    W.u8(2);
    W.u64(V.elems().size());
    for (const PsiValue &E : V.elems())
      snapPsiValue(W, E);
  }
}

bool bayonet::readPsiValue(SnapReader &R, PsiValue &Out) {
  switch (R.u8()) {
  case 0: {
    Rational V;
    if (!readRational(R, V))
      return false;
    Out = PsiValue(std::move(V));
    return true;
  }
  case 1: {
    LinExpr E;
    if (!readLinExpr(R, E))
      return false;
    Out = PsiValue(std::move(E));
    return true;
  }
  case 2: {
    uint64_t N = R.count();
    PsiValue::Tuple Elems;
    Elems.reserve(N);
    for (uint64_t I = 0; I < N && R.ok(); ++I) {
      PsiValue E;
      if (!readPsiValue(R, E))
        return false;
      Elems.push_back(std::move(E));
    }
    if (!R.ok())
      return false;
    Out = PsiValue::tuple(std::move(Elems));
    return true;
  }
  default:
    R.fail();
    return false;
  }
}

void bayonet::snapRng(SnapWriter &W, const Xoshiro &G) {
  uint64_t S[4];
  G.getState(S);
  for (uint64_t Word : S)
    W.u64(Word);
}

bool bayonet::readRng(SnapReader &R, Xoshiro &Out) {
  uint64_t S[4];
  for (uint64_t &Word : S)
    Word = R.u64();
  if (!R.ok())
    return false;
  Out.setState(S);
  return true;
}

//===----------------------------------------------------------------------===//
// Node blocks and configurations
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t NullBlockId = 0xFFFFFFFFu;

void snapQueue(SnapWriter &W, const PacketQueue &Q) {
  W.i64(Q.capacity());
  W.u64(Q.entries().size());
  for (const QueueEntry &E : Q.entries()) {
    W.i64(E.Port);
    W.u64(E.Pkt.Fields.size());
    for (const Value &V : E.Pkt.Fields)
      snapValue(W, V);
  }
}

bool readQueue(SnapReader &R, PacketQueue &Q) {
  Q = PacketQueue(R.i64());
  uint64_t N = R.count();
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    QueueEntry E;
    E.Port = static_cast<int>(R.i64());
    uint64_t NF = R.count();
    E.Pkt.Fields.reserve(NF);
    for (uint64_t F = 0; F < NF && R.ok(); ++F) {
      Value V;
      if (!readValue(R, V))
        return false;
      E.Pkt.Fields.push_back(std::move(V));
    }
    if (!R.ok())
      return false;
    if (!Q.pushBack(std::move(E))) { // more entries than capacity: corrupt
      R.fail();
      return false;
    }
  }
  return R.ok();
}

} // namespace

void bayonet::snapNodeConfig(SnapWriter &W, const NodeConfig &C) {
  W.u64(C.State.size());
  for (const Value &V : C.State)
    snapValue(W, V);
  snapQueue(W, C.QIn);
  snapQueue(W, C.QOut);
}

bool bayonet::readNodeConfig(SnapReader &R, NodeConfig &Out) {
  NodeConfig C;
  uint64_t N = R.count();
  C.State.reserve(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    Value V;
    if (!readValue(R, V))
      return false;
    C.State.push_back(std::move(V));
  }
  if (!readQueue(R, C.QIn) || !readQueue(R, C.QOut))
    return false;
  Out = std::move(C);
  return true;
}

void BlockTable::write(SnapWriter &W, const NodeArray::BlockPtr &B) {
  if (!B) {
    W.u32(NullBlockId);
    return;
  }
  auto It = Ids.find(B.get());
  if (It != Ids.end()) {
    W.u32(It->second);
    return;
  }
  // A fresh id equal to the current table size announces an inline
  // definition; the reader appends it at the same index.
  uint32_t Id = static_cast<uint32_t>(Ids.size());
  Ids.emplace(B.get(), Id);
  W.u32(Id);
  snapNodeConfig(W, B->config());
}

bool BlockReadTable::read(SnapReader &R, NodeArray::BlockPtr &Out) {
  uint32_t Id = R.u32();
  if (!R.ok())
    return false;
  if (Id == NullBlockId) {
    Out = nullptr;
    return true;
  }
  if (Id < Blocks.size()) {
    Out = Blocks[Id];
    return true;
  }
  if (Id != Blocks.size()) {
    R.fail();
    return false;
  }
  NodeConfig C;
  if (!readNodeConfig(R, C))
    return false;
  Out = std::make_shared<NodeBlock>(std::move(C));
  Blocks.push_back(Out);
  return true;
}

void bayonet::snapNetConfig(SnapWriter &W, BlockTable &T, const NetConfig &C) {
  W.i64(C.SchedState);
  W.boolean(C.Error);
  W.u64(C.Nodes.size());
  for (size_t I = 0, N = C.Nodes.size(); I < N; ++I)
    T.write(W, C.Nodes.block(I));
}

bool bayonet::readNetConfig(SnapReader &R, BlockReadTable &T, NetConfig &Out) {
  NetConfig C;
  C.SchedState = R.i64();
  C.Error = R.boolean();
  uint64_t N = R.count();
  C.Nodes.resize(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    NodeArray::BlockPtr B;
    if (!T.read(R, B) || !B) { // frontier nodes are never null
      R.fail();
      return false;
    }
    C.Nodes.setBlock(I, std::move(B));
  }
  if (!R.ok())
    return false;
  Out = std::move(C);
  return true;
}

//===----------------------------------------------------------------------===//
// Checkpointer
//===----------------------------------------------------------------------===//

namespace {

/// Parses "name" / "name=K" fault tokens out of a comma-separated spec.
/// Returns 0 when the token is absent, the 1-based ordinal otherwise.
uint64_t parseFaultToken(const std::string &Spec, const std::string &Name,
                         uint64_t Default) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Tok = Spec.substr(Pos, End - Pos);
    // Trim surrounding spaces.
    size_t B = Tok.find_first_not_of(" \t");
    size_t E = Tok.find_last_not_of(" \t");
    Tok = B == std::string::npos ? std::string() : Tok.substr(B, E - B + 1);
    if (Tok == Name)
      return Default;
    if (Tok.size() > Name.size() + 1 && Tok.compare(0, Name.size(), Name) == 0 &&
        Tok[Name.size()] == '=') {
      char *EndP = nullptr;
      const char *Num = Tok.c_str() + Name.size() + 1;
      unsigned long long K = std::strtoull(Num, &EndP, 10);
      if (EndP != Num && K > 0)
        return K;
      return Default;
    }
    Pos = End + 1;
  }
  return 0;
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

uint32_t getU32(const std::string &S, size_t Off) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(S[Off + I]))
         << (8 * I);
  return V;
}

uint64_t getU64(const std::string &S, size_t Off) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(S[Off + I]))
         << (8 * I);
  return V;
}

constexpr char SnapMagic[8] = {'B', 'A', 'Y', 'S', 'N', 'A', 'P', '1'};
constexpr size_t SnapHeaderSize = 32;
// Version 2: the common section carries the run log in place of version
// 1's metric and diagnostics sections.
constexpr uint32_t SnapVersion = 2;

} // namespace

Checkpointer::Checkpointer(CheckpointOptions O) : Opts(std::move(O)) {
  CrashAtWrite = parseFaultToken(Opts.Fault, "crash-at-checkpoint", 1);
  TornAtWrite = parseFaultToken(Opts.Fault, "torn-write", 1);
  CorruptAtWrite = parseFaultToken(Opts.Fault, "corrupt-byte", 1);
}

bool Checkpointer::loadFile(const std::string &Path, std::string &PayloadOut,
                            std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open";
    return false;
  }
  std::string Data;
  char Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  std::fclose(F);
  if (Data.size() < SnapHeaderSize) {
    Err = "truncated header";
    return false;
  }
  if (std::memcmp(Data.data(), SnapMagic, sizeof(SnapMagic)) != 0) {
    Err = "bad magic";
    return false;
  }
  uint32_t Version = getU32(Data, 8);
  if (Version != SnapVersion) {
    Err = "unsupported snapshot version " + std::to_string(Version);
    return false;
  }
  uint64_t Len = getU64(Data, 16);
  uint64_t Sum = getU64(Data, 24);
  if (Data.size() - SnapHeaderSize != Len) {
    Err = "payload length mismatch (torn write)";
    return false;
  }
  if (fnv1a(Data.data() + SnapHeaderSize, Len) != Sum) {
    Err = "checksum mismatch (corrupt payload)";
    return false;
  }
  PayloadOut.assign(Data, SnapHeaderSize, Len);
  return true;
}

void Checkpointer::restoreCommon(BudgetTracker *BT, ObsContext *Obs) {
  if (RestoreDone)
    return;
  RestoreDone = true;
  if (Opts.ResumePath.empty())
    return;
  std::string Payload, PrimaryErr, PrevErr;
  std::string Loaded = Opts.ResumePath;
  if (!loadFile(Opts.ResumePath, Payload, PrimaryErr)) {
    // Fall back to the previous good snapshot rotated by the writer.
    Loaded = Opts.ResumePath + ".prev";
    if (!loadFile(Loaded, Payload, PrevErr)) {
      ResumeErr = Opts.ResumePath + ": " + PrimaryErr + "; " + Loaded + ": " +
                  PrevErr;
      return;
    }
  }
  // The restore span is recorded (completed) before the trace section is
  // applied below. When the snapshot carries a trace, restoreFrom replaces
  // the log wholesale — keeping a resumed run's trace bit-identical to a
  // straight run's — and this span goes with it; when the crashed run had
  // no tracer, the span survives to describe the restore itself.
  {
    ObsHandle OH(Obs);
    Span RestoreSpan = OH.span("snapshot.restore");
    if (OH.tracing()) {
      RestoreSpan.arg("path", Loaded);
      RestoreSpan.arg("bytes", static_cast<uint64_t>(Payload.size()));
    }
  }
  SnapReader R(Payload);
  ResumeEngine = R.str();
  ResumeSpecFp = R.u64();
  ResumeOptsFp = R.u64();
  ResumeBoundaryIdx = R.u64();
  if (R.boolean()) {
    BudgetSpend S;
    S.States = R.u64();
    S.StepBytes = R.u64();
    S.PeakBytes = R.u64();
    S.PeakFrontier = R.u64();
    S.Merges = R.u64();
    S.SchedSteps = R.u64();
    if (R.ok() && BT)
      BT->restoreSpend(S);
  }
  // The obs sections have no length prefix, so they are parsed even when
  // the resuming run has no matching collector (into a scratch object).
  bool SectionOk = true;
  if (R.boolean()) {
    if (Obs && Obs->tracer()) {
      SectionOk = Obs->tracer()->restoreFrom(R);
    } else {
      Tracer Scratch;
      SectionOk = Scratch.restoreFrom(R);
    }
  }
  if (SectionOk && R.boolean()) {
    if (Obs) {
      SectionOk = Obs->log().restoreFrom(R);
    } else {
      RunLog Scratch;
      SectionOk = Scratch.restoreFrom(R);
    }
  }
  if (SectionOk && R.boolean()) {
    if (Obs && Obs->profiler()) {
      SectionOk = Obs->profiler()->restoreFrom(R);
    } else {
      Profiler Scratch;
      SectionOk = Scratch.restoreFrom(R);
    }
  }
  if (!SectionOk || !R.ok()) {
    ResumeErr = "corrupt common section in " + Loaded;
    return;
  }
  EnginePayload = R.rest();
  ResumeReady = true;
}

SnapReader *Checkpointer::beginEngine(const std::string &Engine,
                                      uint64_t SpecFp, uint64_t OptsFp) {
  if (!ResumeReady) {
    if (ResumeErr.empty())
      ResumeErr = "no snapshot loaded";
    return nullptr;
  }
  if (Engine != ResumeEngine) {
    ResumeErr = "snapshot was written by engine '" + ResumeEngine +
                "', cannot resume '" + Engine + "'";
    ResumeReady = false;
    return nullptr;
  }
  if (SpecFp != ResumeSpecFp) {
    ResumeErr = "snapshot does not match this network spec";
    ResumeReady = false;
    return nullptr;
  }
  if (OptsFp != ResumeOptsFp) {
    ResumeErr = "snapshot was written with different inference options";
    ResumeReady = false;
    return nullptr;
  }
  // Rewind the boundary counter so the re-executed boundary re-writes at
  // exactly the strides the interrupted run would have used.
  BoundaryIdx = ResumeBoundaryIdx;
  EngineReader = SnapReader(EnginePayload);
  return &EngineReader;
}

void Checkpointer::maybeWrite(
    const std::string &Engine, uint64_t SpecFp, uint64_t OptsFp,
    const BudgetTracker *BT, ObsContext *Obs,
    const std::function<void(SnapWriter &)> &Payload) {
  uint64_t Every = Opts.Every ? Opts.Every : 1;
  if (BoundaryIdx % Every == 0)
    writeNow(Engine, SpecFp, OptsFp, BT, Obs, Payload, nullptr);
  ++BoundaryIdx;
}

void Checkpointer::writeFinal(
    const std::string &Engine, uint64_t SpecFp, uint64_t OptsFp,
    const BudgetTracker *BT, ObsContext *Obs,
    const std::function<void(SnapWriter &)> &Payload,
    const BoundaryMark *Mark) {
  writeNow(Engine, SpecFp, OptsFp, BT, Obs, Payload, Mark);
}

void Checkpointer::writeNow(const std::string &Engine, uint64_t SpecFp,
                            uint64_t OptsFp, const BudgetTracker *BT,
                            ObsContext *Obs,
                            const std::function<void(SnapWriter &)> &Payload,
                            const BoundaryMark *Mark) {
  if (Opts.OutPath.empty() || CrashedFlag)
    return;
  bool Marked = Mark && Mark->Valid;
  SnapWriter W;
  W.str(Engine);
  W.u64(SpecFp);
  W.u64(OptsFp);
  W.u64(BoundaryIdx);
  if (BT) {
    W.u8(1);
    BudgetSpend S = Marked ? Mark->Spend : BT->spendSnapshot();
    W.u64(S.States);
    W.u64(S.StepBytes);
    W.u64(S.PeakBytes);
    W.u64(S.PeakFrontier);
    W.u64(S.Merges);
    W.u64(S.SchedSteps);
  } else {
    W.u8(0);
  }
  const Tracer *Tr = Obs ? Obs->tracer() : nullptr;
  if (Tr) {
    W.u8(1);
    if (Marked)
      Tr->snapshotTo(W, Mark->TraceEvents, Mark->TraceNextId,
                     &Mark->TraceOpenStack);
    else
      Tr->snapshotTo(W);
  } else {
    W.u8(0);
  }
  if (Obs) {
    W.u8(1);
    Obs->log().snapshotTo(W);
  } else {
    W.u8(0);
  }
  // Profiler aggregate: restored before the engines re-register their
  // frames, so a resumed run's deterministic count columns continue
  // bit-identically from the boundary.
  const Profiler *Pf = Obs ? Obs->profiler() : nullptr;
  if (Pf) {
    W.u8(1);
    Pf->snapshotTo(W);
  } else {
    W.u8(0);
  }
  Payload(W);

  const std::string &P = W.buffer();
  std::string File;
  File.reserve(SnapHeaderSize + P.size());
  File.append(SnapMagic, sizeof(SnapMagic));
  putU32(File, SnapVersion);
  putU32(File, 0); // reserved
  putU64(File, P.size());
  putU64(File, fnv1a(P.data(), P.size()));
  File += P;

  // Injected write faults damage this (the Kth) write only.
  uint64_t Ordinal = WritesDone + 1;
  if (CorruptAtWrite == Ordinal && !P.empty())
    File[SnapHeaderSize + P.size() / 2] ^= 0x40;
  if (TornAtWrite == Ordinal)
    File.resize(SnapHeaderSize + P.size() / 2);

  // Write obs is charged only after the payload above was serialized, so
  // write N's span and counters are never captured inside snapshot N: the
  // restored log carries exactly writes 1..N-1 and the re-executed
  // boundary re-charges write N, keeping straight and resumed runs with
  // the same checkpoint config bit-identical.
  // The span is tagged with the boundary index, not the write ordinal:
  // the ordinal restarts with the process (it drives fault injection),
  // while the boundary counter is rewound on resume, so the re-executed
  // write reproduces the same arg.
  ObsHandle OH(Obs);
  Span WriteSpan = OH.span("snapshot.write");
  if (OH.tracing()) {
    WriteSpan.arg("boundary", BoundaryIdx);
    WriteSpan.arg("bytes", static_cast<uint64_t>(File.size()));
  }

  // Atomic write: tmp + fsync, rotate the previous snapshot, rename into
  // place. Readers therefore always see either the old or the new file.
  std::string Tmp = Opts.OutPath + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd >= 0) {
    size_t Off = 0;
    while (Off < File.size()) {
      ssize_t N = ::write(Fd, File.data() + Off, File.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::fsync(Fd);
    ::close(Fd);
    // The rotate may fail when no snapshot exists yet; that is fine.
    std::rename(Opts.OutPath.c_str(), (Opts.OutPath + ".prev").c_str());
    std::rename(Tmp.c_str(), Opts.OutPath.c_str());
  }
  WriteSpan.end();
  if (RunLog *Log = OH.log()) {
    ++Log->CheckpointWrites;
    Log->CheckpointBytes += File.size();
  }
  ++WritesDone;
  if (CrashAtWrite && WritesDone == CrashAtWrite) {
    if (Opts.HardExit)
      std::_Exit(137);
    CrashedFlag = true;
  }
}

std::string Checkpointer::describe() const {
  std::string S = "wrote " + std::to_string(WritesDone) + " snapshot(s)";
  if (ResumeReady)
    S += ", resumed at boundary " + std::to_string(ResumeBoundaryIdx);
  return S;
}

EngineStatus bayonet::injectedCrashStatus() {
  return EngineStatus::internal("injected crash at checkpoint (BAYONET_FAULT)");
}
