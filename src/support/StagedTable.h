//===- support/StagedTable.h - Staged-publication table --------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protocol shared by the transition cache (interp/TxCache.h) and the
/// interning arena (support/Intern.h), which keeps both bit-identical for
/// every thread count: during a scheduler step lanes only read the
/// published map and stage misses into their own pending lists; at the
/// step boundary publish() runs serially, inserting the staged entries in
/// a content order and FIFO-evicting down to a byte cap. Lane assignment
/// depends on the thread count but the staged content set does not, so
/// insertion and eviction order are reproducible across thread counts and
/// processes. Snapshots walk the FIFO and restore re-inserts in that
/// order, so a resumed run evicts exactly like an uninterrupted one; each
/// table keeps its own entry encoding. See docs/IMPLEMENTATION.md §9.4.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_STAGEDTABLE_H
#define BAYONET_SUPPORT_STAGEDTABLE_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bayonet {

/// What one publish() did, for budgets, metrics and trace spans.
struct PublishStats {
  uint64_t Staged = 0;
  uint64_t Inserted = 0;
  uint64_t InsertedBytes = 0;
  uint64_t Evicted = 0;
};

/// A published hash map with per-lane staging and FIFO eviction under a
/// byte cap (0 = unlimited).
template <typename Key, typename Value, typename Hash, typename Eq>
class StagedTable {
public:
  using Entry = std::pair<const Key, Value>;
  struct Staged {
    Key K;
    Value V;
  };

  StagedTable(uint64_t ByteCap, unsigned Lanes)
      : ByteCap(ByteCap), Pending(std::max(1u, Lanes)) {}

  /// Probes the published map; null on a miss. Safe from any lane while
  /// other lanes stage.
  const Entry *find(const Key &K) const {
    auto It = Map.find(K);
    return It == Map.end() ? nullptr : &*It;
  }

  void stage(unsigned Lane, Key K, Value V) {
    Pending[Lane].Items.push_back(Staged{std::move(K), std::move(V)});
  }

  /// Serial boundary publication. Stable-sorts the staged entries by
  /// \p Less; inserts each new key, charging the bytes
  /// \p OnInsert(const Key &, Value &) returns; passes each already
  /// published key to \p OnDuplicate(Key &Staged, const Key &Published)
  /// and drops it; then evicts oldest-first down to the cap.
  template <typename LessFn, typename InsertFn, typename DuplicateFn>
  PublishStats publish(LessFn &&Less, InsertFn &&OnInsert,
                       DuplicateFn &&OnDuplicate) {
    PublishStats S;
    std::vector<Staged> All;
    for (Lane &L : Pending) {
      for (Staged &E : L.Items)
        All.push_back(std::move(E));
      L.Items.clear();
    }
    S.Staged = All.size();
    std::stable_sort(All.begin(), All.end(), Less);
    for (Staged &E : All) {
      // try_emplace leaves E untouched when the key is already present.
      auto [It, New] = Map.try_emplace(std::move(E.K), std::move(E.V));
      if (!New) {
        OnDuplicate(E.K, It->first);
        continue;
      }
      uint64_t B = OnInsert(It->first, It->second);
      Fifo.push_back({&*It, B});
      Bytes += B;
      ++S.Inserted;
      S.InsertedBytes += B;
    }
    while (ByteCap && Bytes > ByteCap && !Fifo.empty()) {
      Bytes -= Fifo.front().Bytes;
      Map.erase(Map.find(Fifo.front().E->first));
      Fifo.pop_front();
      ++S.Evicted;
    }
    return S;
  }

  /// Writes the entry count to \p W, then calls
  /// \p Write(const Key &, const Value &) per entry in FIFO order.
  template <typename Writer, typename WriteFn>
  void snapshot(Writer &W, WriteFn &&Write) const {
    W.u64(Map.size());
    for (const FifoSlot &Slot : Fifo)
      Write(Slot.E->first, Slot.E->second);
  }

  /// Replaces the published entries with a snapshot's, in its FIFO order.
  /// \p Read(Key &, Value &, uint64_t &Bytes) decodes one entry and
  /// returns false on a corrupt one. On a corrupt stream or a duplicate
  /// key, fails \p R, leaves the table empty and returns false.
  template <typename Reader, typename ReadFn>
  bool restore(Reader &R, ReadFn &&Read) {
    clear();
    for (uint64_t I = 0, N = R.count(); I < N && R.ok(); ++I) {
      Key K;
      Value V;
      uint64_t B = 0;
      if (Read(K, V, B) && R.ok()) {
        auto [It, New] = Map.try_emplace(std::move(K), std::move(V));
        if (New) {
          Fifo.push_back({&*It, B});
          Bytes += B;
          continue;
        }
      }
      R.fail();
    }
    if (R.ok())
      return true;
    clear();
    return false;
  }

  uint64_t bytes() const { return Bytes; }
  size_t size() const { return Map.size(); }

private:
  void clear() {
    Fifo.clear();
    Map.clear();
    Bytes = 0;
  }

  /// Map nodes never move, so the FIFO can point into them.
  struct FifoSlot {
    const Entry *E;
    uint64_t Bytes;
  };
  struct alignas(64) Lane {
    std::vector<Staged> Items;
  };

  uint64_t ByteCap;
  uint64_t Bytes = 0;
  std::unordered_map<Key, Value, Hash, Eq> Map;
  std::deque<FifoSlot> Fifo;
  std::vector<Lane> Pending;
};

} // namespace bayonet

#endif // BAYONET_SUPPORT_STAGEDTABLE_H
