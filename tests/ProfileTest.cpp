//===- tests/ProfileTest.cpp - Source-attributed cost profiler ------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the profiler core: attribution-stack interning, the
/// wall-time-only Scope contract, pre-order def registration, lane shard
/// drain/discard semantics, checkpoint round-trips that survive intern
/// re-ordering, the deterministic canonical rendering, and the three
/// export views.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "obs/Profile.h"
#include "scenarios/Scenarios.h"
#include "support/Snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return std::move(*Net);
}

SourceLoc loc(int Line, int Col) {
  SourceLoc L;
  L.Line = Line;
  L.Col = Col;
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Attribution stack and interning
//===----------------------------------------------------------------------===//

TEST(Profile, PushPopInternsStableSlots) {
  Profiler P;
  EXPECT_EQ(P.current(), Profiler::InvalidSlot);

  uint32_t Engine = P.push("exact");
  uint32_t Step = P.push("step");
  EXPECT_EQ(P.current(), Step);
  EXPECT_EQ(P.stackKey(Step), "exact;step");
  P.pop();
  P.pop();
  EXPECT_EQ(P.current(), Profiler::InvalidSlot);

  // Re-pushing the same labels finds the same slots: per-step push/pop
  // cycles allocate nothing after the first.
  size_t Slots = P.slotCount();
  EXPECT_EQ(P.push("exact"), Engine);
  EXPECT_EQ(P.push("step"), Step);
  P.pop();
  P.pop();
  EXPECT_EQ(P.slotCount(), Slots);

  // Same label under a different parent is a different key.
  uint32_t Other = P.push("smc");
  uint32_t OtherStep = P.push("step");
  EXPECT_NE(OtherStep, Step);
  EXPECT_EQ(P.stackKey(OtherStep), "smc;step");
  P.pop();
  P.pop();

  // child()/internAt() intern without pushing.
  P.push("exact");
  uint32_t Merge = P.child("merge");
  EXPECT_EQ(P.current(), Engine);
  EXPECT_EQ(P.internAt(Engine, "merge", {}), Merge);
  P.pop();
  (void)Other;
}

TEST(Profile, ScopeChargesOnlyWallTime) {
  Profiler P;
  {
    Profiler::Scope Run(&P, "exact");
    Profiler::Scope Step(&P, "step");
    EXPECT_EQ(P.stackKey(P.current()), "exact;step");
  }
  EXPECT_EQ(P.current(), Profiler::InvalidSlot);
  // Scopes attribute wall time only: no deterministic column moved, so
  // the canonical fingerprint is still empty.
  EXPECT_EQ(P.renderCanonicalCounts(), "");

  // A null profiler is a no-op scope (engines run unprofiled this way).
  Profiler::Scope Nop(nullptr, "exact");
  EXPECT_EQ(Nop.slot(), Profiler::InvalidSlot);
}

TEST(Profile, RegisterDefPreOrderContiguousAndIdempotent) {
  LoadedNetwork Net = load(scenarios::gossip(3));
  const DefDecl *Def = nullptr;
  for (const DefDecl *D : Net.Spec.NodePrograms)
    if (D) {
      Def = D;
      break;
    }
  ASSERT_NE(Def, nullptr);

  Profiler P;
  P.push("exact");
  P.push("step");
  P.push("expand");
  Profiler::DefFrames DF = P.registerDef(*Def);
  ASSERT_GT(DF.Count, 0u);
  EXPECT_EQ(P.stackKey(DF.Root), "exact;step;expand;def " + Def->Name);

  // Statement I lives at slot First + I, under the def root.
  for (uint32_t I = 0; I < DF.Count; ++I) {
    std::string Key = P.stackKey(DF.First + I);
    EXPECT_EQ(Key.rfind("exact;step;expand;def " + Def->Name + ";", 0), 0u)
        << Key;
  }

  // Re-registration under the same prefix finds the identical frames.
  size_t Slots = P.slotCount();
  Profiler::DefFrames Again = P.registerDef(*Def);
  EXPECT_EQ(Again.Root, DF.Root);
  EXPECT_EQ(Again.First, DF.First);
  EXPECT_EQ(Again.Count, DF.Count);
  EXPECT_EQ(P.slotCount(), Slots);
  P.pop();
  P.pop();
  P.pop();
}

//===----------------------------------------------------------------------===//
// Lane shards
//===----------------------------------------------------------------------===//

TEST(Profile, LaneDrainFoldsAndDiscardDrops) {
  Profiler P;
  P.push("exact");
  uint32_t A = P.push("a");
  P.pop();
  uint32_t B = P.push("b");
  P.pop();
  P.pop();

  P.beginLanes(4);
  ASSERT_EQ(P.laneCount(), 4u);
  // Lanes charge per-slot counters; the fold is an order-independent sum.
  P.laneExecs(0)[A] += 3;
  P.laneExecs(2)[A] += 5;
  P.laneSamples(1)[B] += 7;
  P.laneTxHits(3)[A] += 2;
  P.laneTxMisses(0)[B] += 1;
  P.drainLanes();

  std::string Canon = P.renderCanonicalCounts();
  EXPECT_EQ(Canon, "exact;a|0|8|0|0|0|2|0|0|0\n"
                   "exact;b|0|0|7|0|0|0|1|0|0\n");

  // Draining again moves nothing (shards were zeroed).
  P.drainLanes();
  EXPECT_EQ(P.renderCanonicalCounts(), Canon);

  // An aborted step discards its lane charges entirely.
  P.laneExecs(1)[A] += 100;
  P.laneSamples(2)[B] += 100;
  P.discardLanes();
  P.drainLanes();
  EXPECT_EQ(P.renderCanonicalCounts(), Canon);
}

//===----------------------------------------------------------------------===//
// Canonical rendering
//===----------------------------------------------------------------------===//

TEST(Profile, CanonicalCountsSortedAndZeroFramesDropped) {
  Profiler P;
  // Intern in reverse-alphabetical order; the rendering sorts by key.
  uint32_t Z = P.push("zeta");
  P.pop();
  uint32_t A = P.push("alpha");
  P.pop();
  P.push("never-charged");
  P.pop();

  ProfCounts C;
  C.States = 4;
  C.MergeAttempts = 2;
  C.MergeHits = 1;
  P.charge(Z, C);
  ProfCounts D;
  D.Execs = 9;
  P.charge(A, D);
  // Wall time alone does not make a frame canonical.
  P.chargeTime(A, 12345);

  EXPECT_EQ(P.renderCanonicalCounts(), "alpha|0|9|0|0|0|0|0|0|0\n"
                                       "zeta|4|0|0|2|1|0|0|0|0\n");
}

TEST(Profile, RenderJsonSchemaAndTotals) {
  Profiler P;
  uint32_t A = P.push("exact", loc(3, 1));
  P.pop();
  ProfCounts C;
  C.States = 6;
  P.charge(A, C);

  std::string Json = P.renderJson();
  EXPECT_NE(Json.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"deterministic_columns\":[\"states\",\"execs\","
                      "\"samples\",\"merge_attempts\",\"merge_hits\","
                      "\"tx_hits\",\"tx_misses\",\"intern_hits\","
                      "\"intern_misses\"]"),
            std::string::npos);
  EXPECT_NE(Json.find("\"nondeterministic_columns\":[\"wall_ns\","
                      "\"allocs\"]"),
            std::string::npos);
  EXPECT_NE(Json.find("\"totals\":null"), std::string::npos)
      << "totals unset until the engine stamps them";
  EXPECT_NE(Json.find("\"stack\":\"exact\""), std::string::npos);
  EXPECT_NE(Json.find("\"loc\":\"3:1\""), std::string::npos);

  ProfCounts T;
  T.States = 6;
  P.setTotals(T);
  EXPECT_TRUE(P.haveTotals());
  Json = P.renderJson();
  EXPECT_NE(Json.find("\"totals\":{\"states\":6,"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Flamegraph and annotation exports
//===----------------------------------------------------------------------===//

TEST(Profile, CollapsedStacksCarrySelfWeights) {
  Profiler P;
  uint32_t Run = P.push("exact");
  uint32_t Step = P.push("step");
  P.pop();
  P.pop();
  ProfCounts C;
  C.States = 11;
  P.charge(Step, C);
  ProfCounts D;
  D.Execs = 2;
  D.Samples = 3;
  P.charge(Run, D); // No states: weight falls back to execs + samples.

  EXPECT_EQ(P.renderCollapsed(), "exact 5\nexact;step 11\n");
}

TEST(Profile, AnnotatedListingAttributesSourceLines) {
  Profiler P;
  uint32_t L1 = P.push("observe@1:3", loc(1, 3));
  P.pop();
  uint32_t L2 = P.push("fwd@2:1", loc(2, 1));
  P.pop();
  ProfCounts C;
  C.Execs = 3;
  P.charge(L1, C);
  ProfCounts D;
  D.Execs = 1;
  P.charge(L2, D);

  std::string Out = P.renderAnnotated("line one\nline two\nline three");
  EXPECT_NE(Out.find("%states"), std::string::npos);
  EXPECT_NE(Out.find("  75.00%"), std::string::npos) << Out;
  EXPECT_NE(Out.find("  25.00%"), std::string::npos) << Out;
  EXPECT_NE(Out.find("| line one"), std::string::npos);
  // Uncharged lines render an empty margin, not 0.00%.
  EXPECT_NE(Out.find("         | line three"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Checkpoint round-trip
//===----------------------------------------------------------------------===//

TEST(Profile, SnapshotRoundTripPreservesCanonicalCounts) {
  Profiler P;
  P.push("exact");
  uint32_t Step = P.push("step");
  uint32_t Expand = P.push("expand", loc(4, 2));
  P.pop();
  P.pop();
  P.pop();
  ProfCounts C;
  C.States = 21;
  C.MergeAttempts = 8;
  C.MergeHits = 3;
  P.charge(Step, C);
  ProfCounts D;
  D.Execs = 40;
  D.TxHits = 5;
  D.TxMisses = 2;
  P.charge(Expand, D);

  SnapWriter W;
  P.snapshotTo(W);

  // Restore into a fresh profiler: identical fingerprint.
  {
    SnapReader R(W.buffer());
    Profiler Q;
    ASSERT_TRUE(Q.restoreFrom(R));
    EXPECT_TRUE(R.atEnd());
    EXPECT_EQ(Q.renderCanonicalCounts(), P.renderCanonicalCounts());
  }

  // Restore into a profiler whose intern order differs (extra frames
  // first): counts land on the re-interned slots, keyed by path, and the
  // pre-existing wall time of a matching frame survives.
  {
    Profiler Q;
    Q.push("smc");
    Q.pop();
    uint32_t QStep = Q.push("exact");
    QStep = Q.push("step");
    Q.pop();
    Q.pop();
    Q.chargeTime(QStep, 777);
    SnapReader R(W.buffer());
    ASSERT_TRUE(Q.restoreFrom(R));
    EXPECT_EQ(Q.renderCanonicalCounts(), P.renderCanonicalCounts());
    std::string Json = Q.renderJson();
    EXPECT_NE(Json.find("\"wall_ns\":777"), std::string::npos)
        << "restore must not clobber process-local wall time";
  }

  // A truncated section is rejected, never half-applied silently.
  {
    std::string Buf = W.buffer().substr(0, W.buffer().size() / 2);
    SnapReader R(Buf);
    Profiler Q;
    EXPECT_FALSE(Q.restoreFrom(R));
  }
}
