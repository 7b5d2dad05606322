//===- tests/TxCacheTest.cpp - Transition cache unit tests ----------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for interp/TxCache.h: publication order and FIFO eviction
/// are pure functions of the staged content set (not of which lane staged
/// what), and a snapshot/restore round-trip replays eviction exactly.
///
//===----------------------------------------------------------------------===//

#include "interp/TxCache.h"
#include "lang/Ast.h"
#include "support/Snapshot.h"

#include <gtest/gtest.h>

using namespace bayonet;

namespace {

using BlockPtr = NodeArray::BlockPtr;

BlockPtr makeBlock(int64_t Tag) {
  NodeConfig C;
  C.State.push_back(Value(Rational(Tag)));
  C.QIn = PacketQueue(2);
  C.QOut = PacketQueue(2);
  return std::make_shared<NodeBlock>(std::move(C));
}

/// Two programs whose names order opposite to their addresses' likely
/// order, so publication must sort by name, not by pointer.
struct Defs {
  DefDecl A, B;
  Defs() {
    A.Name = "zeta";
    B.Name = "alpha";
  }
  const DefDecl *of(int Tag) const { return Tag % 2 ? &B : &A; }
  uint32_t index(const DefDecl *D) const { return D == &A ? 0 : 1; }
  const DefDecl *at(uint32_t I) const {
    return I == 0 ? &A : I == 1 ? &B : nullptr;
  }
};

/// An entry for content \p Tag: its key block, one successor world and a
/// profile count, all derived from the tag.
TxEntry makeEntry(const Defs &D, int Tag) {
  TxEntry E;
  E.Def = D.of(Tag);
  E.Key = makeBlock(Tag);
  E.Worlds.push_back({makeBlock(1000 + Tag), Rational(1, Tag + 2), {}, false});
  E.ProfExecs.emplace_back(0, static_cast<uint64_t>(Tag) + 1);
  return E;
}

/// The published entries in FIFO order, as checkpoint bytes.
std::string fifoBytes(const TxCache &Cache, const Defs &D) {
  SnapWriter W;
  BlockTable T;
  Cache.snapshotTo(W, T, [&](const DefDecl *Def) { return D.index(Def); });
  return W.buffer();
}

bool cached(const TxCache &Cache, const Defs &D, int Tag) {
  return Cache.lookup(D.of(Tag), makeBlock(Tag)) != nullptr;
}

/// Bytes of one entry, for sizing caps in entries.
uint64_t entryBytes(const Defs &D) {
  TxEntry E = makeEntry(D, 0);
  E.computeBytes();
  return E.Bytes;
}

// Staging the same entries under swapped lane assignments (and reversed
// staging order) publishes the same FIFO order, and under a small cap
// evicts the same keys.
TEST(TxCache, PublicationOrderIndependentOfLaneAssignment) {
  constexpr int N = 12;
  Defs D;
  for (uint64_t Cap : {uint64_t(1) << 20, 4 * entryBytes(D) + 1}) {
    SCOPED_TRACE(Cap);
    TxCache CacheA(Cap, 2), CacheB(Cap, 2);
    for (int I = 0; I < N; ++I) {
      CacheA.stage(I % 2, makeEntry(D, I));
      CacheB.stage(I % 2, makeEntry(D, N - 1 - I)); // Swapped + reversed.
    }
    // A duplicate key staged in another lane publishes once.
    CacheB.stage(1, makeEntry(D, 0));
    PublishStats SA = CacheA.publishStaged();
    PublishStats SB = CacheB.publishStaged();
    EXPECT_EQ(SA.Inserted, static_cast<uint64_t>(N));
    EXPECT_EQ(SB.Inserted, SA.Inserted);
    EXPECT_EQ(SB.Evicted, SA.Evicted);
    EXPECT_EQ(CacheB.bytes(), CacheA.bytes());
    EXPECT_EQ(fifoBytes(CacheB, D), fifoBytes(CacheA, D));
    for (int I = 0; I < N; ++I)
      EXPECT_EQ(cached(CacheA, D, I), cached(CacheB, D, I)) << I;
    if (Cap < (uint64_t(1) << 20)) {
      EXPECT_EQ(SA.Evicted, static_cast<uint64_t>(N - 4));
      EXPECT_LE(CacheA.bytes(), Cap);
    } else {
      EXPECT_EQ(SA.Evicted, 0u);
    }
  }
}

// A checkpoint taken between two publications restores the FIFO, so the
// next publication evicts exactly what the uninterrupted cache evicts.
TEST(TxCache, SnapshotRestorePublishEvictsIdentically) {
  Defs D;
  const uint64_t Cap = 6 * entryBytes(D) + 1;
  TxCache Straight(Cap, 2);
  for (int I = 0; I < 8; ++I)
    Straight.stage(I % 2, makeEntry(D, I));
  Straight.publishStaged();
  ASSERT_EQ(Straight.size(), 6u);

  const std::string Bytes = fifoBytes(Straight, D);
  SnapReader R(Bytes);
  BlockReadTable T;
  TxCache Resumed(Cap, 2);
  ASSERT_TRUE(Resumed.restoreFrom(R, T, [&](uint32_t I) { return D.at(I); }));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Resumed.bytes(), Straight.bytes());
  EXPECT_EQ(fifoBytes(Resumed, D), Bytes);

  // New keys plus a re-staged survivor: three new entries push the three
  // oldest survivors out of both caches.
  int Survivor = 0;
  while (!cached(Straight, D, Survivor))
    ++Survivor;
  for (TxCache *C : {&Straight, &Resumed})
    for (int I : {20, 21, Survivor, 22})
      C->stage(I % 2, makeEntry(D, I));
  PublishStats SS = Straight.publishStaged();
  PublishStats SR = Resumed.publishStaged();
  EXPECT_EQ(SS.Inserted, 3u);
  EXPECT_EQ(SS.Evicted, 3u);
  EXPECT_EQ(SR.Inserted, SS.Inserted);
  EXPECT_EQ(SR.InsertedBytes, SS.InsertedBytes);
  EXPECT_EQ(SR.Evicted, SS.Evicted);
  for (int I : {0, 1, 2, 3, 4, 5, 6, 7, 20, 21, 22})
    EXPECT_EQ(cached(Resumed, D, I), cached(Straight, D, I)) << I;
  EXPECT_EQ(fifoBytes(Resumed, D), fifoBytes(Straight, D));
}

} // namespace
