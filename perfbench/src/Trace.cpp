//===- perfbench/src/Trace.cpp - Benchmark-side span recording ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace perfbench;

double SpanRecord::arg(const char *Key) const {
  for (const auto &[K, V] : Args)
    if (std::string_view(K) == Key)
      return V;
  return 0;
}

int Recorder::open(const char *Layer, const char *Name) {
  if (!On)
    return -1;
  SpanRecord S{Layer, Name, CurQuery, Stack.empty() ? -1 : Stack.back(), {},
               {}, {}};
  S.Start = secondsSince(Epoch);
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size()) - 1);
  return Stack.back();
}

void Recorder::close(int Index) {
  if (!On || Index < 0)
    return;
  Spans[Index].End = secondsSince(Epoch);
  // LayerSpan is scoped, so the span closing is the innermost open one.
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

int Recorder::closedChild(const char *Layer, const char *Name,
                          double Seconds) {
  if (!On)
    return -1;
  int Parent = Stack.empty() ? -1 : Stack.back();
  SpanRecord S{Layer, Name, CurQuery, Parent, {}, {}, {}};
  S.End = secondsSince(Epoch);
  S.Start = S.End - Seconds;
  if (Parent >= 0)
    S.Start = std::max(S.Start, Spans[Parent].Start);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

void Recorder::arg(int Index, const char *Key, double Value) {
  if (On && Index >= 0)
    Spans[Index].Args.emplace_back(Key, Value);
}

std::vector<double> Recorder::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].dur();
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.dur();
  return Self;
}

bool Recorder::writeChrome(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char Buf[128];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f", S.Start * 1e6,
                  S.dur() * 1e6);
    Out << (I ? ",\n" : "") << "{\"name\":\"" << S.Layer << ':' << S.Name
        << "\",\"cat\":\"" << S.Layer << "\",\"ph\":\"X\"," << Buf
        << ",\"pid\":1,\"tid\":1,\"args\":{\"query\":" << S.Query;
    for (const auto &[K, V] : S.Args) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      Out << ",\"" << K << "\":" << Buf;
    }
    Out << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}
