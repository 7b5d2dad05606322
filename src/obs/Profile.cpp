//===- obs/Profile.cpp - Source-attributed cost profiler -------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "lang/Ast.h"
#include "support/Snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace bayonet;

//===----------------------------------------------------------------------===//
// Interning and the attribution stack
//===----------------------------------------------------------------------===//

uint32_t Profiler::addSite(uint32_t Parent, std::string Label,
                           SourceLoc Loc) {
  uint32_t Slot = static_cast<uint32_t>(Sites.size());
  Intern.emplace(std::make_pair(Parent, Label), Slot);
  Sites.push_back(Site{Parent, std::move(Label), Loc});
  Cells.emplace_back();
  return Slot;
}

uint32_t Profiler::internAt(uint32_t Parent, std::string_view Label,
                            SourceLoc Loc) {
  auto It = Intern.find(std::make_pair(Parent, std::string(Label)));
  if (It != Intern.end())
    return It->second;
  return addSite(Parent, std::string(Label), Loc);
}

uint32_t Profiler::push(std::string_view Label, SourceLoc Loc) {
  uint32_t Slot = internAt(current(), Label, Loc);
  Stack.push_back(Slot);
  return Slot;
}

void Profiler::pop() {
  assert(!Stack.empty() && "profiler stack underflow");
  if (!Stack.empty())
    Stack.pop_back();
}

void Profiler::charge(uint32_t Slot, const ProfCounts &Delta) {
  if (Slot >= Cells.size())
    return;
  ProfCounts &C = Cells[Slot];
  C.addDeterministic(Delta);
  C.WallNs += Delta.WallNs;
  C.Allocs += Delta.Allocs;
}

//===----------------------------------------------------------------------===//
// Def registration
//===----------------------------------------------------------------------===//

namespace {

const char *stmtKindLabel(StmtKind K) {
  switch (K) {
  case StmtKind::New:
    return "new";
  case StmtKind::Drop:
    return "drop";
  case StmtKind::Dup:
    return "dup";
  case StmtKind::Fwd:
    return "fwd";
  case StmtKind::Assign:
    return "assign";
  case StmtKind::FieldAssign:
    return "field-assign";
  case StmtKind::Observe:
    return "observe";
  case StmtKind::Assert:
    return "assert";
  case StmtKind::Skip:
    return "skip";
  case StmtKind::If:
    return "if";
  case StmtKind::While:
    return "while";
  }
  return "stmt";
}

} // namespace

Profiler::DefFrames Profiler::registerDef(const DefDecl &Def) {
  DefFrames DF;
  DF.Root = push("def " + Def.Name, Def.Loc);

  // Pre-order walk: assign Stmt::ProfIndex and intern one frame per
  // statement. Labels are "kind@line:col" (uniquified with "#n" on the
  // rare same-parent collision), so the walk is deterministic and a
  // re-walk — under this prefix after a checkpoint restore, or under
  // another engine's prefix — finds or re-creates identical frames. Fresh
  // frames are appended in walk order, which keeps a def's statement
  // slots contiguous: statement I lives at slot First + I.
  std::map<std::pair<uint32_t, std::string>, int> WalkSeen;
  uint32_t Next = 0;
  bool First = true;
  auto Walk = [&](auto &&Self, const std::vector<StmtPtr> &Body) -> void {
    for (const StmtPtr &S : Body) {
      std::string Label = stmtKindLabel(S->Kind);
      if (S->Loc.isValid())
        Label += "@" + S->Loc.toString();
      int &Seen = WalkSeen[std::make_pair(current(), Label)];
      if (Seen++)
        Label += "#" + std::to_string(Seen);
      S->ProfIndex = Next++;
      uint32_t Slot = push(Label, S->Loc);
      if (First) {
        DF.First = Slot;
        First = false;
      }
      assert(Slot == DF.First + S->ProfIndex &&
             "def statement slots must stay contiguous");
      if (S->Kind == StmtKind::If) {
        const auto &If = cast<IfStmt>(*S);
        Self(Self, If.Then);
        Self(Self, If.Else);
      } else if (S->Kind == StmtKind::While) {
        Self(Self, cast<WhileStmt>(*S).Body);
      }
      pop();
    }
  };
  Walk(Walk, Def.Body);
  DF.Count = Next;
  pop(); // the def frame
  return DF;
}

//===----------------------------------------------------------------------===//
// Lane shards
//===----------------------------------------------------------------------===//

void Profiler::beginLanes(unsigned N) {
  Lanes.resize(N);
  for (LaneShard &L : Lanes) {
    L.Execs.assign(Sites.size(), 0);
    L.Samples.assign(Sites.size(), 0);
    L.TxHits.assign(Sites.size(), 0);
    L.TxMisses.assign(Sites.size(), 0);
  }
}

void Profiler::drainLanes() {
  for (LaneShard &L : Lanes) {
    for (size_t S = 0; S < L.Execs.size(); ++S) {
      // Sums of per-event integer charges are order-independent, so the
      // fold is bit-identical however lanes split the work.
      if (L.Execs[S]) {
        Cells[S].Execs += L.Execs[S];
        L.Execs[S] = 0;
      }
      if (L.Samples[S]) {
        Cells[S].Samples += L.Samples[S];
        L.Samples[S] = 0;
      }
      if (L.TxHits[S]) {
        Cells[S].TxHits += L.TxHits[S];
        L.TxHits[S] = 0;
      }
      if (L.TxMisses[S]) {
        Cells[S].TxMisses += L.TxMisses[S];
        L.TxMisses[S] = 0;
      }
    }
  }
}

void Profiler::discardLanes() {
  for (LaneShard &L : Lanes) {
    std::fill(L.Execs.begin(), L.Execs.end(), 0);
    std::fill(L.Samples.begin(), L.Samples.end(), 0);
    std::fill(L.TxHits.begin(), L.TxHits.end(), 0);
    std::fill(L.TxMisses.begin(), L.TxMisses.end(), 0);
  }
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

std::string Profiler::stackKey(uint32_t Slot) const {
  if (Slot >= Sites.size())
    return {};
  std::vector<const std::string *> Parts;
  for (uint32_t S = Slot; S != InvalidSlot; S = Sites[S].Parent)
    Parts.push_back(&Sites[S].Label);
  std::string Out;
  for (size_t I = Parts.size(); I-- > 0;) {
    Out += *Parts[I];
    if (I)
      Out += ';';
  }
  return Out;
}

std::vector<uint32_t> Profiler::sortedSlots() const {
  std::vector<std::pair<std::string, uint32_t>> Keyed;
  Keyed.reserve(Sites.size());
  for (uint32_t S = 0; S < Sites.size(); ++S)
    Keyed.emplace_back(stackKey(S), S);
  std::sort(Keyed.begin(), Keyed.end());
  std::vector<uint32_t> Out;
  Out.reserve(Keyed.size());
  for (auto &KV : Keyed)
    Out.push_back(KV.second);
  return Out;
}

namespace {

std::string jsonEsc(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

void appendCountFields(std::string &Out, const ProfCounts &C) {
  Out += "\"states\":" + std::to_string(C.States);
  Out += ",\"execs\":" + std::to_string(C.Execs);
  Out += ",\"samples\":" + std::to_string(C.Samples);
  Out += ",\"merge_attempts\":" + std::to_string(C.MergeAttempts);
  Out += ",\"merge_hits\":" + std::to_string(C.MergeHits);
  Out += ",\"tx_hits\":" + std::to_string(C.TxHits);
  Out += ",\"tx_misses\":" + std::to_string(C.TxMisses);
  Out += ",\"intern_hits\":" + std::to_string(C.InternHits);
  Out += ",\"intern_misses\":" + std::to_string(C.InternMisses);
}

} // namespace

std::string Profiler::renderJson() const {
  std::string Out = "{\"schema\":1";
  Out += ",\"deterministic_columns\":[\"states\",\"execs\",\"samples\","
         "\"merge_attempts\",\"merge_hits\",\"tx_hits\",\"tx_misses\","
         "\"intern_hits\",\"intern_misses\"]";
  Out += ",\"nondeterministic_columns\":[\"wall_ns\",\"allocs\"]";
  Out += ",\"totals\":";
  if (HaveTotals) {
    Out += "{";
    appendCountFields(Out, Totals);
    Out += "}";
  } else {
    Out += "null";
  }
  Out += ",\"frames\":[";
  bool FirstFrame = true;
  for (uint32_t S : sortedSlots()) {
    const ProfCounts &C = Cells[S];
    if (!C.anyDeterministic() && !C.WallNs && !C.Allocs)
      continue;
    if (!FirstFrame)
      Out += ",";
    FirstFrame = false;
    Out += "{\"stack\":" + jsonEsc(stackKey(S));
    Out += ",\"loc\":";
    Out += Sites[S].Loc.isValid() ? jsonEsc(Sites[S].Loc.toString()) : "null";
    Out += ",";
    appendCountFields(Out, C);
    Out += ",\"wall_ns\":" + std::to_string(C.WallNs);
    Out += ",\"allocs\":" + std::to_string(C.Allocs);
    Out += "}";
  }
  Out += "]}\n";
  return Out;
}

std::string Profiler::renderCanonicalCounts() const {
  // The fingerprint rendering: deterministic columns only, keys sorted,
  // zero-count frames dropped. Byte-identical across thread counts,
  // TxCache settings, and crash/resume.
  std::string Out;
  for (uint32_t S : sortedSlots()) {
    const ProfCounts &C = Cells[S];
    if (!C.anyDeterministic())
      continue;
    Out += stackKey(S);
    for (uint64_t V : {C.States, C.Execs, C.Samples, C.MergeAttempts,
                       C.MergeHits, C.TxHits, C.TxMisses, C.InternHits,
                       C.InternMisses}) {
      Out += '|';
      Out += std::to_string(V);
    }
    Out += '\n';
  }
  return Out;
}

std::string Profiler::renderCollapsed() const {
  std::string Out;
  for (uint32_t S : sortedSlots()) {
    uint64_t Weight = selfWeight(Cells[S]);
    if (!Weight)
      continue;
    std::string Key = stackKey(S);
    Out += Key + " " + std::to_string(Weight) + "\n";
  }
  return Out;
}

std::string Profiler::renderAnnotated(std::string_view Source) const {
  // Fold self costs onto source lines.
  struct LineCost {
    uint64_t Work = 0; // states + execs + samples (self)
    uint64_t Ns = 0;
  };
  std::map<int, LineCost> ByLine;
  uint64_t TotalWork = 0, TotalNs = 0;
  for (uint32_t S = 0; S < Sites.size(); ++S) {
    const ProfCounts &C = Cells[S];
    uint64_t Work = C.States + C.Execs + C.Samples;
    TotalWork += Work;
    TotalNs += C.WallNs;
    if (!Sites[S].Loc.isValid())
      continue;
    LineCost &L = ByLine[Sites[S].Loc.Line];
    L.Work += Work;
    L.Ns += C.WallNs;
  }
  auto pct = [](uint64_t Part, uint64_t Total) {
    return Total ? 100.0 * static_cast<double>(Part) /
                       static_cast<double>(Total)
                 : 0.0;
  };
  std::string Out =
      "  %states    %time | source  (engine work units / attributed wall "
      "time per line; unattributed cost is engine-phase overhead)\n";
  int Line = 1;
  size_t Pos = 0;
  while (Pos <= Source.size()) {
    size_t End = Source.find('\n', Pos);
    std::string_view Text = End == std::string_view::npos
                                ? Source.substr(Pos)
                                : Source.substr(Pos, End - Pos);
    char Margin[32];
    auto It = ByLine.find(Line);
    if (It != ByLine.end() && (It->second.Work || It->second.Ns))
      std::snprintf(Margin, sizeof(Margin), "%7.2f%% %7.2f%% | ",
                    pct(It->second.Work, TotalWork),
                    pct(It->second.Ns, TotalNs));
    else
      std::snprintf(Margin, sizeof(Margin), "%8s %8s | ", "", "");
    Out += Margin;
    Out += Text;
    Out += '\n';
    if (End == std::string_view::npos)
      break;
    Pos = End + 1;
    ++Line;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Checkpoint
//===----------------------------------------------------------------------===//

void Profiler::snapshotTo(SnapWriter &W) const {
  // Sites serialize in slot order, so every parent precedes its children
  // and a def's statement range stays contiguous through a restore. Only
  // the deterministic columns travel: wall time and allocations are
  // process-local by definition.
  W.u64(Sites.size());
  for (uint32_t S = 0; S < Sites.size(); ++S) {
    const Site &Si = Sites[S];
    W.u32(Si.Parent);
    W.str(Si.Label);
    W.i64(Si.Loc.Line);
    W.i64(Si.Loc.Col);
    const ProfCounts &C = Cells[S];
    W.u64(C.States);
    W.u64(C.Execs);
    W.u64(C.Samples);
    W.u64(C.MergeAttempts);
    W.u64(C.MergeHits);
    W.u64(C.TxHits);
    W.u64(C.TxMisses);
    W.u64(C.InternHits);
    W.u64(C.InternMisses);
  }
}

bool Profiler::restoreFrom(SnapReader &R) {
  uint64_t N = R.count();
  std::vector<uint32_t> Map;
  Map.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t Parent = R.u32();
    std::string Label = R.str();
    SourceLoc Loc;
    Loc.Line = static_cast<int>(R.i64());
    Loc.Col = static_cast<int>(R.i64());
    ProfCounts C;
    C.States = R.u64();
    C.Execs = R.u64();
    C.Samples = R.u64();
    C.MergeAttempts = R.u64();
    C.MergeHits = R.u64();
    C.TxHits = R.u64();
    C.TxMisses = R.u64();
    C.InternHits = R.u64();
    C.InternMisses = R.u64();
    if (!R.ok())
      return false;
    uint32_t MyParent = InvalidSlot;
    if (Parent != InvalidSlot) {
      if (Parent >= Map.size())
        return false; // Parents precede children by construction.
      MyParent = Map[Parent];
    }
    uint32_t Slot = internAt(MyParent, Label, Loc);
    Map.push_back(Slot);
    ProfCounts &Cell = Cells[Slot];
    uint64_t WallNs = Cell.WallNs, Allocs = Cell.Allocs;
    Cell = C;
    Cell.WallNs = WallNs;
    Cell.Allocs = Allocs;
  }
  return R.ok();
}
