//===- support/Intern.cpp - Hash-consed state interning --------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Intern.h"

#include "support/Snapshot.h"

using namespace bayonet;

/// Fixed bookkeeping charge per published class in the byte accounting (a
/// hash, a block pointer, a link and a byte count). Budgets, the
/// bayonet_intern_bytes metric and the figures tests pin all include it.
static constexpr size_t InternEntryBytes = 32;

InternArena::InternArena(uint64_t ByteCap, unsigned LaneCount)
    : Table(ByteCap, LaneCount), Lanes(std::max(1u, LaneCount)) {}

uint32_t InternArena::entryBytes(const BlockPtr &B) {
  size_t N = sizeof(NodeBlock) + InternEntryBytes + B->config().approxBytes();
  return N > 0xffffffffu ? 0xffffffffu : static_cast<uint32_t>(N);
}

InternArena::BlockPtr InternArena::stage(unsigned LaneNo, const BlockPtr &B) {
  // Within-lane dedup: an equal block staged earlier in this lane is
  // returned, so same-lane duplicates share a pointer within the step.
  auto [It, New] = Lanes[LaneNo].Staged.insert(B);
  if (New)
    Table.stage(LaneNo, B, NoValue{});
  return *It;
}

InternArena::BlockPtr InternArena::canon(unsigned LaneNo, const BlockPtr &B) {
  if (const auto *E = Table.find(B)) {
    ++Lanes[LaneNo].Hits;
    return E->first;
  }
  ++Lanes[LaneNo].Misses;
  return stage(LaneNo, B);
}

InternArena::BlockPtr InternArena::seed(const BlockPtr &B) {
  if (const auto *E = Table.find(B))
    return E->first;
  return stage(0, B);
}

InternArena::PublishStats InternArena::publishStaged() {
  for (Lane &L : Lanes)
    L.Staged.clear();
  // Eviction only drops the arena's reference: frontier configurations
  // still holding the block keep it alive, and its retired id stays valid
  // as a content-class witness.
  return Table.publish(
      [](const auto &A, const auto &B) { return A.K->hash() < B.K->hash(); },
      [this](const BlockPtr &B, NoValue &) -> uint64_t {
        B->setInternId(++NextId);
        return entryBytes(B);
      },
      // A duplicate of a published class (staged by another lane this
      // step, or re-staged after losing a publish race): stamp the class
      // id on it so pointers already embedded in frontier configurations
      // keep the O(1) equality fast path.
      [](BlockPtr &Dup, const BlockPtr &Canon) {
        Dup->setInternId(Canon->internId());
      });
}

void InternArena::snapshotTo(SnapWriter &W, BlockTable &T) const {
  W.u64(NextId);
  Table.snapshot(W, [&](const BlockPtr &B, const NoValue &) {
    W.u64(B->internId());
    T.write(W, B);
  });
}

bool InternArena::restoreFrom(SnapReader &R, BlockReadTable &T) {
  NextId = R.u64();
  // Re-intern: each restored block (shared with the frontier and the
  // transition cache through the BlockReadTable) becomes canonical under
  // its original id.
  if (Table.restore(R, [&](BlockPtr &B, NoValue &, uint64_t &Bytes) {
        uint64_t Id = R.u64();
        if (!Id || Id > NextId || !T.read(R, B) || !B)
          return false;
        B->setInternId(Id);
        Bytes = entryBytes(B);
        return true;
      }))
    return true;
  NextId = 0;
  return false;
}

void InternArena::drainCounters(uint64_t &Hits, uint64_t &Misses) {
  for (Lane &L : Lanes) {
    Hits += L.Hits;
    Misses += L.Misses;
    L.Hits = 0;
    L.Misses = 0;
  }
}
