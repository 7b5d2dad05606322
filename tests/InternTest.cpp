//===- tests/InternTest.cpp - Hash-consing arena unit tests ---------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support/Intern.h: content dedup across lanes, the
/// deterministic hash-sorted publication order, FIFO eviction under the
/// byte cap (with id retirement), the snapshot re-intern round-trip, and
/// the concurrent probe/stage protocol the lanes rely on (exercised with
/// real threads so a TSan build checks the synchronization claims).
///
//===----------------------------------------------------------------------===//

#include "support/Intern.h"
#include "support/Snapshot.h"

#include <gtest/gtest.h>

#include <thread>

using namespace bayonet;

namespace {

using BlockPtr = InternArena::BlockPtr;

/// A block whose content is determined by \p Tag (distinct tags give
/// distinct, independently-hashed contents).
BlockPtr makeBlock(int64_t Tag) {
  NodeConfig C;
  C.State.push_back(Value(Rational(Tag)));
  C.State.push_back(Value(Rational(Tag * 7 + 1)));
  C.QIn = PacketQueue(2);
  C.QOut = PacketQueue(2);
  return std::make_shared<NodeBlock>(std::move(C));
}

NetConfig configOf(const BlockPtr &B, int64_t SchedState = 0) {
  NetConfig C;
  C.Nodes.resize(1);
  C.Nodes.setBlock(0, B);
  C.SchedState = SchedState;
  return C;
}

TEST(Intern, DedupAcrossLanesAndCounterDrain) {
  InternArena Arena(1 << 20, /*Lanes=*/2);

  // Two lanes stage equal content independently: both miss (the published
  // table is empty), each keeps its own staged block until the boundary.
  BlockPtr A = Arena.canon(0, makeBlock(1));
  BlockPtr B = Arena.canon(1, makeBlock(1));
  ASSERT_TRUE(A && B);
  EXPECT_TRUE(A->config() == B->config());

  // Within-lane dedup: an equal block staged again in the same lane comes
  // back as the lane's earlier staged instance.
  BlockPtr A2 = Arena.canon(0, makeBlock(1));
  EXPECT_EQ(A.get(), A2.get());

  InternArena::PublishStats S = Arena.publishStaged();
  EXPECT_EQ(S.Inserted, 1u); // One content class across both lanes.
  EXPECT_EQ(Arena.size(), 1u);

  // Publication stamped every staged duplicate with the winner's class id:
  // equal non-zero ids certify structural equality without a re-walk.
  EXPECT_NE(A->internId(), 0u);
  EXPECT_EQ(A->internId(), B->internId());

  // A fresh equal block now hits and canonicalizes to the published
  // instance (pointer identity is the whole point of interning).
  BlockPtr C = Arena.canon(0, makeBlock(1));
  EXPECT_TRUE(C.get() == A.get() || C.get() == B.get());

  uint64_t Hits = 0, Misses = 0;
  Arena.drainCounters(Hits, Misses);
  EXPECT_EQ(Hits, 1u);   // Only the post-publication probe hit.
  EXPECT_EQ(Misses, 3u); // The three pre-publication canon() calls.

  // drainCounters drains: a second drain reads zeros.
  Hits = Misses = 0;
  Arena.drainCounters(Hits, Misses);
  EXPECT_EQ(Hits, 0u);
  EXPECT_EQ(Misses, 0u);
}

// Intern ids are a pure function of the published content set, not of
// which lane staged what: two arenas fed the same contents under opposite
// lane assignments assign identical ids.
TEST(Intern, PublicationOrderIndependentOfLaneAssignment) {
  constexpr int N = 16;
  InternArena ArenaA(1 << 20, 2), ArenaB(1 << 20, 2);
  for (int I = 0; I < N; ++I) {
    ArenaA.canon(I % 2, makeBlock(I));
    ArenaB.canon((I + 1) % 2, makeBlock(N - 1 - I)); // Swapped + reversed.
  }
  ArenaA.publishStaged();
  ArenaB.publishStaged();
  ASSERT_EQ(ArenaA.size(), static_cast<size_t>(N));
  ASSERT_EQ(ArenaB.size(), static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    uint64_t IdA = ArenaA.canon(0, makeBlock(I))->internId();
    uint64_t IdB = ArenaB.canon(0, makeBlock(I))->internId();
    EXPECT_NE(IdA, 0u);
    EXPECT_EQ(IdA, IdB) << "content " << I;
  }
}

TEST(Intern, EvictionUnderByteCapRetiresIds) {
  // A cap small enough that a handful of blocks overflows it.
  InternArena Arena(/*ByteCap=*/256, /*Lanes=*/1);
  BlockPtr First = Arena.canon(0, makeBlock(0));
  for (int I = 1; I < 8; ++I)
    Arena.canon(0, makeBlock(I));
  InternArena::PublishStats S = Arena.publishStaged();
  EXPECT_EQ(S.Inserted, 8u);
  EXPECT_GT(S.Evicted, 0u); // The cap cannot hold all eight.
  EXPECT_LE(Arena.bytes(), 256u);
  EXPECT_LT(Arena.size(), 8u);
  EXPECT_EQ(Arena.nextId(), 8u); // Ids were assigned before eviction.
  uint64_t FirstId = First->internId();
  EXPECT_NE(FirstId, 0u);

  // Re-interning evicted content gets a FRESH class id: ids are never
  // reused, so stale ids on surviving block copies can never alias a new
  // class. Probe all eight contents (survivors hit and return the stamped
  // published instance; evicted ones miss, stage, and get stamped at the
  // publish below) and require exactly the evicted classes to come back
  // under strictly newer ids.
  std::vector<BlockPtr> Probes;
  for (int I = 0; I < 8; ++I)
    Probes.push_back(Arena.canon(0, makeBlock(I)));
  InternArena::PublishStats S2 = Arena.publishStaged();
  EXPECT_EQ(S2.Inserted, S.Evicted); // Only evicted contents missed.
  EXPECT_EQ(Arena.nextId(), 8u + S2.Inserted);
  unsigned Fresh = 0;
  for (const BlockPtr &P : Probes) {
    ASSERT_NE(P->internId(), 0u);
    if (P->internId() > 8)
      ++Fresh;
  }
  EXPECT_EQ(Fresh, S2.Inserted);
}

// Snapshot round-trip: the arena serializes through the engine's shared
// BlockTable, so a frontier block and its arena canonical write once and
// restore to the SAME shared instance — the restored run re-interns its
// state on load and keeps pointer-identity equality working.
TEST(Intern, SnapshotReinternRoundTrip) {
  InternArena Arena(1 << 20, 1);
  BlockPtr Canon0 = Arena.canon(0, makeBlock(0));
  Arena.canon(0, makeBlock(1));
  Arena.publishStaged();
  uint64_t Hits = 0, Misses = 0;
  Arena.drainCounters(Hits, Misses);

  NetConfig Frontier = configOf(Canon0, 3);

  SnapWriter W;
  BlockTable T;
  snapNetConfig(W, T, Frontier);
  Arena.snapshotTo(W, T);
  const std::string Bytes = W.buffer();

  SnapReader R(Bytes);
  BlockReadTable RT;
  NetConfig Restored;
  ASSERT_TRUE(readNetConfig(R, RT, Restored));
  InternArena Arena2(1 << 20, 1);
  ASSERT_TRUE(Arena2.restoreFrom(R, RT));
  EXPECT_TRUE(R.atEnd());

  EXPECT_EQ(Arena2.size(), Arena.size());
  EXPECT_EQ(Arena2.bytes(), Arena.bytes());
  EXPECT_EQ(Arena2.nextId(), Arena.nextId());

  // The restored frontier block IS the restored arena canonical: probing
  // equal content returns the exact pointer the frontier holds.
  BlockPtr Probe = Arena2.canon(0, makeBlock(0));
  EXPECT_EQ(Probe.get(), Restored.Nodes.block(0).get());
  EXPECT_EQ(Probe->internId(), Canon0->internId());

  // Re-serializing the restored state is byte-identical — what makes a
  // resumed run's own snapshots match the uninterrupted run's.
  SnapWriter W2;
  BlockTable T2;
  snapNetConfig(W2, T2, Restored);
  Arena2.snapshotTo(W2, T2);
  EXPECT_EQ(W2.buffer(), Bytes);

  // Corrupt section: a truncated stream fails the restore cleanly. (The
  // reader only views the buffer, so the truncated copy must outlive it.)
  const std::string Truncated = Bytes.substr(0, Bytes.size() / 2);
  SnapReader Bad(Truncated);
  BlockReadTable BadT;
  NetConfig Dropped;
  (void)readNetConfig(Bad, BadT, Dropped);
  InternArena Arena3(1 << 20, 1);
  EXPECT_FALSE(Arena3.restoreFrom(Bad, BadT));
}

// The protocol claim TSan checks: during a step, any number of lanes may
// probe the published table (hits) and stage misses into their own lanes
// concurrently; publication happens strictly after the join. Hit/miss
// totals must come out exact, and every equal-content block must end up
// stamped with one class id.
TEST(Intern, ConcurrentProbeAndStageHammer) {
  constexpr unsigned NumLanes = 8;
  constexpr int PerLane = 2000;
  InternArena Arena(64 << 20, NumLanes);

  // Pre-publish a shared content set every lane will hammer as hits.
  constexpr int NumShared = 32;
  for (int I = 0; I < NumShared; ++I)
    Arena.canon(0, makeBlock(I));
  Arena.publishStaged();
  {
    uint64_t H = 0, M = 0;
    Arena.drainCounters(H, M);
  }

  std::vector<BlockPtr> Keep(NumLanes); // Published-instance witnesses.
  std::vector<std::thread> Threads;
  for (unsigned L = 0; L < NumLanes; ++L)
    Threads.emplace_back([&Arena, &Keep, L] {
      for (int I = 0; I < PerLane; ++I) {
        // A hit probe against the published table...
        BlockPtr Hit = Arena.canon(L, makeBlock(I % NumShared));
        if (I == 0)
          Keep[L] = Hit;
        // ...and a lane-unique miss that stages without touching it.
        Arena.canon(L, makeBlock(10000 + static_cast<int>(L) * PerLane + I));
      }
    });
  for (std::thread &T : Threads)
    T.join();

  uint64_t Hits = 0, Misses = 0;
  Arena.drainCounters(Hits, Misses);
  EXPECT_EQ(Hits, static_cast<uint64_t>(NumLanes) * PerLane);
  EXPECT_EQ(Misses, static_cast<uint64_t>(NumLanes) * PerLane);

  InternArena::PublishStats S = Arena.publishStaged();
  EXPECT_EQ(S.Inserted, static_cast<uint64_t>(NumLanes) * PerLane);
  EXPECT_EQ(Arena.size(), static_cast<size_t>(NumShared) + NumLanes * PerLane);

  // Every lane's hit resolved to the one published instance per class.
  uint64_t Id0 = Keep[0]->internId();
  EXPECT_NE(Id0, 0u);
  for (unsigned L = 1; L < NumLanes; ++L)
    EXPECT_EQ(Keep[L]->internId(), Id0);
}

} // namespace
