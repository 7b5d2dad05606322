//===- support/Intern.h - Hash-consed state interning ----------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing for the exact engine's state representation. The COW
/// NodeArray already shares untouched blocks between a configuration and
/// its successors, but blocks *re-derived* along different enumeration
/// paths (a forward that lands the same packet, a node program that
/// reaches the same state) are distinct allocations with equal content, so
/// every frontier merge and transition-cache probe that meets them falls
/// back to a structural compare. The InternArena canonicalizes such blocks
/// to a single shared instance, making equality a pointer comparison on
/// the steady-state hot path (the knowledge-compilation trick of Holtzen
/// et al. applied to network states).
///
/// Determinism protocol: the staged publication of support/StagedTable.h,
/// shared with TxCache, sorting by content hash, so hit/miss counters,
/// intern ids and FIFO eviction order are independent of thread count and
/// lane scheduling. Interning is a pure canonicalization: the returned
/// block is structurally equal to the argument, so posteriors, reports and
/// traces are bit-identical with the arena on or off.
///
/// Intern ids name *content classes*, not pointers: at publication every
/// staged duplicate of a class is stamped with the class id, and ids are
/// never reused (eviction keeps the id retired). Hence "both ids non-zero
/// and equal" proves structural equality forever, while differing ids
/// prove nothing (an evicted class re-interns under a fresh id) — equality
/// fast paths must fall through to the hash/structural compare.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_SUPPORT_INTERN_H
#define BAYONET_SUPPORT_INTERN_H

#include "net/Config.h"
#include "support/StagedTable.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace bayonet {

class BlockReadTable;
class BlockTable;
class SnapReader;
class SnapWriter;

/// Default byte cap for the interning arena (the --intern=on setting).
inline constexpr uint64_t InternDefaultBytes = 128ull << 20;

/// Hash and equality over node-block content, for tables keyed by block.
struct BlockContentHash {
  size_t operator()(const NodeArray::BlockPtr &B) const { return B->hash(); }
};
struct BlockContentEq {
  bool operator()(const NodeArray::BlockPtr &A,
                  const NodeArray::BlockPtr &B) const {
    return NodeArray::sameBlock(A, B);
  }
};

/// Thread-sharded hash-consing arena for NodeBlocks: a StagedTable keyed
/// by block content. See the file comment for the protocol.
class InternArena {
public:
  using BlockPtr = NodeArray::BlockPtr;
  using PublishStats = bayonet::PublishStats;

  /// \p ByteCap bounds retained canonical-block bytes (FIFO-epoch
  /// eviction at publish boundaries; 0 = unlimited); \p Lanes is the
  /// number of lanes that will stage misses concurrently.
  InternArena(uint64_t ByteCap, unsigned Lanes);

  /// Canonicalizes \p B: returns the published canonical block of equal
  /// content (a hit), or stages \p B in lane \p Lane's pending list and
  /// returns the staged canonical (a miss). Safe to call from any lane
  /// while other lanes stage; never writes the published table.
  BlockPtr canon(unsigned Lane, const BlockPtr &B);

  /// Serial canonicalization that bypasses the hit/miss counters, for
  /// re-interning restored state (snapshot restore replays counters from
  /// the checkpoint instead). Stages through lane 0.
  BlockPtr seed(const BlockPtr &B);

  /// Serial step-boundary publication: sorts staged blocks by content
  /// hash, inserts one canonical block per new content class (assigning
  /// the next intern id and stamping every staged duplicate with it), then
  /// FIFO-evicts down to the byte cap. Must not race with canon().
  PublishStats publishStaged();

  /// Drains the per-lane hit/miss counters (serial boundaries only).
  /// Thread-count invariant: a canon() outcome depends only on the
  /// published table, which is a pure function of the completed steps.
  void drainCounters(uint64_t &Hits, uint64_t &Misses);

  /// Retained bytes across published canonical blocks.
  uint64_t bytes() const { return Table.bytes(); }
  /// Live published content classes (evicted classes excluded).
  size_t size() const { return Table.size(); }
  /// Total content classes ever published (ids are never reused).
  uint64_t nextId() const { return NextId; }

  /// Serializes the arena in FIFO order (ids, canonical blocks, id
  /// counter). Blocks dedup through \p T, so blocks shared with the
  /// frontier and the transition cache serialize once; restoring through
  /// the same table re-interns the restored state to the exact pointers
  /// the frontier holds, and replays FIFO eviction identically — a
  /// killed+resumed run reproduces a straight run byte-for-byte.
  void snapshotTo(SnapWriter &W, BlockTable &T) const;

  /// Rebuilds the arena from a checkpoint (see snapshotTo). Returns false
  /// on a corrupt section.
  bool restoreFrom(SnapReader &R, BlockReadTable &T);

private:
  /// The arena keeps no payload beside the canonical block itself.
  struct NoValue {};
  struct alignas(64) Lane {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// This step's staged blocks, for within-lane dedup.
    std::unordered_set<BlockPtr, BlockContentHash, BlockContentEq> Staged;
  };

  BlockPtr stage(unsigned LaneNo, const BlockPtr &B);
  static uint32_t entryBytes(const BlockPtr &B);

  StagedTable<BlockPtr, NoValue, BlockContentHash, BlockContentEq> Table;
  std::vector<Lane> Lanes;
  uint64_t NextId = 0;
};

} // namespace bayonet

#endif // BAYONET_SUPPORT_INTERN_H
