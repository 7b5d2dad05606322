//===- obs/Trace.cpp - Span-based tracing with Chrome-trace export ---------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/Snapshot.h"

#include <algorithm>
#include <cstdio>

using namespace bayonet;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

void Span::arg(const std::string &Key, const std::string &Value) {
  if (T)
    T->spanArg(Index, Key, Value);
}

void Span::arg(const std::string &Key, uint64_t Value) {
  if (T)
    T->spanArg(Index, Key, std::to_string(Value));
}

void Span::end() {
  if (T)
    T->endSpan(Index, Id);
  T = nullptr;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

uint64_t Tracer::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

Span Tracer::span(std::string Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Restored-snapshot adoption: hand back the span that was open at the
  // snapshot boundary instead of opening a duplicate. A name mismatch
  // means the resuming code path diverged from the snapshotting one; drop
  // the queue and fail open with fresh spans.
  if (AdoptNext < AdoptQueue.size()) {
    size_t Index = AdoptQueue[AdoptNext];
    if (Events[Index].Name == Name) {
      ++AdoptNext;
      return Span(this, Index, Events[Index].Id);
    }
    AdoptNext = AdoptQueue.size();
  }
  Event E;
  E.Name = std::move(Name);
  E.Phase = 'X';
  E.Id = NextId++;
  E.ParentId = OpenStack.empty() ? 0 : OpenStack.back();
  E.TsUs = nowUs();
  E.Open = true;
  size_t Index = Events.size();
  Events.push_back(std::move(E));
  OpenStack.push_back(Events[Index].Id);
  return Span(this, Index, Events[Index].Id);
}

void Tracer::endSpan(size_t Index, uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  Event &E = Events[Index];
  E.DurUs = nowUs() - E.TsUs;
  E.Open = false;
  // Spans close LIFO at serial orchestration points, so Id sits at (or
  // near, if an inner no-longer-open entry lingered) the top of the stack.
  auto It = std::find(OpenStack.rbegin(), OpenStack.rend(), Id);
  if (It != OpenStack.rend())
    OpenStack.erase(std::next(It).base());
}

void Tracer::spanArg(size_t Index, std::string Key, std::string Value) {
  std::lock_guard<std::mutex> Lock(Mu);
  Events[Index].Args.emplace_back(std::move(Key), std::move(Value));
}

void Tracer::event(std::string Name,
                   std::vector<std::pair<std::string, std::string>> Args) {
  std::lock_guard<std::mutex> Lock(Mu);
  Event E;
  E.Name = std::move(Name);
  E.Phase = 'i';
  E.Id = 0;
  E.ParentId = OpenStack.empty() ? 0 : OpenStack.back();
  E.TsUs = nowUs();
  E.Args = std::move(Args);
  Events.push_back(std::move(E));
}

size_t Tracer::numEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

void Tracer::captureMark(size_t &NumEvents, uint64_t &NextIdOut,
                         std::vector<uint64_t> &OpenStackOut) const {
  std::lock_guard<std::mutex> Lock(Mu);
  NumEvents = Events.size();
  NextIdOut = NextId;
  OpenStackOut = OpenStack;
}

void Tracer::snapshotTo(SnapWriter &W, size_t NumEvents, uint64_t NextIdAt,
                        const std::vector<uint64_t> *OpenAt) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = NumEvents == SIZE_MAX ? Events.size()
                                   : std::min(NumEvents, Events.size());
  uint64_t Id = NumEvents == SIZE_MAX ? NextId : NextIdAt;
  const std::vector<uint64_t> &Open =
      NumEvents == SIZE_MAX || !OpenAt ? OpenStack : *OpenAt;
  W.u64(N);
  for (size_t I = 0; I < N; ++I) {
    const Event &E = Events[I];
    W.str(E.Name);
    W.u8(static_cast<uint8_t>(E.Phase));
    W.u64(E.Id);
    W.u64(E.ParentId);
    W.u64(E.TsUs);
    W.u64(E.DurUs);
    // Spans that end after the mark are still open *at the boundary*.
    bool OpenAtMark = E.Phase == 'X' &&
                      std::find(Open.begin(), Open.end(), E.Id) != Open.end();
    W.boolean(OpenAtMark);
    W.u64(E.Args.size());
    for (const auto &A : E.Args) {
      W.str(A.first);
      W.str(A.second);
    }
  }
  W.u64(Id);
  W.u64(Open.size());
  for (uint64_t V : Open)
    W.u64(V);
}

bool Tracer::restoreFrom(SnapReader &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  Events.clear();
  OpenStack.clear();
  AdoptQueue.clear();
  AdoptNext = 0;
  NextId = 1;
  uint64_t N = R.count();
  Events.reserve(N);
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    Event E;
    E.Name = R.str();
    E.Phase = static_cast<char>(R.u8());
    E.Id = R.u64();
    E.ParentId = R.u64();
    E.TsUs = R.u64();
    E.DurUs = R.u64();
    E.Open = R.boolean();
    uint64_t NArgs = R.count();
    E.Args.reserve(NArgs);
    for (uint64_t J = 0; J < NArgs && R.ok(); ++J) {
      std::string K = R.str();
      std::string V = R.str();
      E.Args.emplace_back(std::move(K), std::move(V));
    }
    Events.push_back(std::move(E));
  }
  uint64_t Id = R.u64();
  uint64_t NOpen = R.count();
  std::vector<uint64_t> Open;
  Open.reserve(NOpen);
  for (uint64_t I = 0; I < NOpen && R.ok(); ++I)
    Open.push_back(R.u64());
  if (!R.ok()) {
    Events.clear();
    return false;
  }
  NextId = Id;
  OpenStack = std::move(Open);
  // Arm adoption, outermost span first (OpenStack is already outermost
  // first), and clear the adopted spans' args: the resuming code path
  // re-applies them through the adopted Span handles.
  for (uint64_t OpenId : OpenStack)
    for (size_t I = 0; I < Events.size(); ++I)
      if (Events[I].Phase == 'X' && Events[I].Id == OpenId) {
        Events[I].Args.clear();
        AdoptQueue.push_back(I);
        break;
      }
  return true;
}

void Tracer::appendEventJson(std::string &Out, const Event &E) const {
  Out += "{\"name\":\"" + jsonEscape(E.Name) + "\",";
  Out += "\"ph\":\"";
  Out += E.Phase;
  Out += "\",\"pid\":1,\"tid\":1,\"ts\":" + std::to_string(E.TsUs);
  if (E.Phase == 'X')
    Out += ",\"dur\":" + std::to_string(E.DurUs);
  if (E.Phase == 'i')
    Out += ",\"s\":\"t\"";
  Out += ",\"args\":{\"span_id\":" + std::to_string(E.Id) +
         ",\"parent_id\":" + std::to_string(E.ParentId) + "";
  for (const auto &A : E.Args)
    Out += ",\"" + jsonEscape(A.first) + "\":\"" + jsonEscape(A.second) +
           "\"";
  Out += "}}";
}

std::string Tracer::renderChromeJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"traceEvents\":[\n";
  for (size_t I = 0; I < Events.size(); ++I) {
    if (I)
      Out += ",\n";
    appendEventJson(Out, Events[I]);
  }
  Out += "\n]}\n";
  return Out;
}
