//===- support/FlatIndexMap.h - Open-addressing merge index ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_FLATINDEXMAP_H
#define BAYONET_SUPPORT_FLATINDEXMAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bayonet {

/// Open-addressing hash table mapping pre-computed 64-bit hashes to a
/// 32-bit payload index. The caller keeps the payloads in its own dense
/// vector and supplies an equality predicate for hash collisions, so a
/// probe touches one contiguous slot array and never allocates per insert
/// (the reason this replaces std::unordered_map in the engines' merge
/// loops). Capacity is a power of two; load factor is kept below 0.7.
class FlatIndexMap {
public:
  static constexpr uint32_t Npos = 0xffffffffu;

  FlatIndexMap() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Drops all entries but keeps the slot storage (per-step reuse).
  void clear() {
    std::fill(Slots.begin(), Slots.end(), Slot{});
    Count = 0;
  }

  /// Ensures capacity for \p N entries without rehashing mid-fill.
  void reserve(size_t N) {
    size_t Want = 16;
    while (Want * 7 < N * 10 + 10)
      Want <<= 1;
    if (Want > Slots.size())
      rehash(Want);
  }

  /// Looks up \p H; \p SameAt(I) must return whether payload \p I equals
  /// the probe key. Returns the payload index or Npos.
  template <typename Eq> uint32_t find(uint64_t H, Eq &&SameAt) const {
    if (Slots.empty())
      return Npos;
    size_t Mask = Slots.size() - 1;
    for (size_t P = mix(H) & Mask;; P = (P + 1) & Mask) {
      const Slot &S = Slots[P];
      if (S.Index == Npos)
        return Npos;
      if (S.Hash == H && SameAt(S.Index))
        return S.Index;
    }
  }

  /// Finds \p H or inserts it mapping to \p NewIndex. Returns the index
  /// already present on a hit, or \p NewIndex after inserting.
  template <typename Eq>
  uint32_t findOrInsert(uint64_t H, uint32_t NewIndex, Eq &&SameAt) {
    if ((Count + 1) * 10 >= Slots.size() * 7)
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    size_t Mask = Slots.size() - 1;
    for (size_t P = mix(H) & Mask;; P = (P + 1) & Mask) {
      Slot &S = Slots[P];
      if (S.Index == Npos) {
        S.Hash = H;
        S.Index = NewIndex;
        ++Count;
        return NewIndex;
      }
      if (S.Hash == H && SameAt(S.Index))
        return S.Index;
    }
  }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Index = Npos;
  };

  /// Finalizer over the caller's (possibly low-entropy) hash so linear
  /// probing does not cluster (splitmix64 tail).
  static size_t mix(uint64_t H) {
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebull;
    H ^= H >> 31;
    return static_cast<size_t>(H);
  }

  void rehash(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot{});
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Index == Npos)
        continue;
      size_t P = mix(S.Hash) & Mask;
      while (Slots[P].Index != Npos)
        P = (P + 1) & Mask;
      Slots[P] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace bayonet

#endif // BAYONET_SUPPORT_FLATINDEXMAP_H
