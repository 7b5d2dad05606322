//===- interp/TxCache.h - Successor-transition memo cache ------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of node-program expansion for the exact engine.
/// NodeExecutor::runExact is a pure function of (program, node
/// configuration), and large frontiers re-run it for the same node state
/// over and over (gossip-style networks re-derive identical per-node
/// branches across thousands of configurations). The cache maps
/// (program, node block) to the list of successor worlds, with each
/// successor's node configuration held as a shared immutable NodeBlock so
/// every replay shares storage with every other replay.
///
/// Determinism protocol: the staged publication of support/StagedTable.h,
/// shared with the interning arena. Lanes read only the published map
/// during a step, so per-step hit/miss counts are identical for every
/// thread count; misses publish at the step boundary sorted by (program
/// name, key-block hash), so FIFO eviction under the byte cap is
/// independent of thread count and lane scheduling. Entries are pure
/// values: eviction can only cost recomputation, never change a result.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_INTERP_TXCACHE_H
#define BAYONET_INTERP_TXCACHE_H

#include "net/Config.h"
#include "support/Rational.h"
#include "support/StagedTable.h"
#include "symbolic/Constraint.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace bayonet {

struct DefDecl;
class BlockReadTable;
class BlockTable;
class SnapReader;
class SnapWriter;

/// Default byte cap for the transition cache (the --txcache=on setting).
inline constexpr uint64_t TxCacheDefaultBytes = 256ull << 20;

/// One memoized successor world of a node-program run: probability,
/// symbolic guards, and the resulting node configuration as a shared
/// block. Error worlds carry a null Node (only their mass matters).
/// Observe-failed worlds are not recorded — their mass is discarded
/// without side effects, so replay never needs them.
struct TxWorld {
  NodeArray::BlockPtr Node;
  Rational Prob;
  std::vector<Constraint> Guards;
  bool Error = false;
};

/// A memoized expansion: all successor worlds of running \p Def on the
/// node configuration held by \p Key.
struct TxEntry {
  const DefDecl *Def = nullptr;
  NodeArray::BlockPtr Key;
  std::vector<TxWorld> Worlds;
  /// Per-statement execution counts recorded when the entry was computed:
  /// sparse (def-local Stmt::ProfIndex, count) pairs the profiler replays
  /// on every hit, so profiled statement counts are identical with the
  /// cache on or off. Empty when profiling was off at compute time.
  std::vector<std::pair<uint32_t, uint64_t>> ProfExecs;
  /// Approximate retained bytes (key + worlds), for the byte cap and the
  /// budget tracker's gauge.
  size_t Bytes = 0;

  void computeBytes();
};

/// Thread-sharded successor-transition cache. See the file comment for the
/// read-published/stage/publish protocol that keeps results and counters
/// bit-identical across thread counts.
class TxCache {
public:
  using PublishStats = bayonet::PublishStats;

  /// \p ByteCap bounds retained entry bytes (FIFO eviction; 0 =
  /// unlimited); \p Lanes is the maximum lane index that will stage misses.
  TxCache(uint64_t ByteCap, unsigned Lanes) : Table(ByteCap, Lanes) {}

  /// Read-only lookup against the published map. Safe to call from any
  /// lane while other lanes stage misses. Returns null on miss.
  const TxEntry *lookup(const DefDecl *Def,
                        const NodeArray::BlockPtr &Key) const;

  /// Stages a freshly computed entry into lane \p Lane's pending list.
  /// Duplicate keys (within or across lanes) are deduplicated at publish.
  void stage(unsigned Lane, TxEntry E);

  /// Serial step-boundary publication: sorts the staged entries by
  /// (program name, key hash), inserts keys not already present, and
  /// FIFO-evicts down to the byte cap. Must not race with lookups.
  PublishStats publishStaged();

  /// Retained bytes across all published entries.
  uint64_t bytes() const { return Table.bytes(); }
  /// Published entry count.
  size_t size() const { return Table.size(); }

  /// Serializes the published entries in FIFO order (checkpoint support,
  /// see support/Snapshot.h). \p DefIndex maps a program pointer to a
  /// stable index (node id in the spec). Node blocks dedup through \p T,
  /// so blocks shared with the frontier serialize once. Called at serial
  /// boundaries only (must not race with stage()).
  void snapshotTo(SnapWriter &W, BlockTable &T,
                  const std::function<uint32_t(const DefDecl *)> &DefIndex)
      const;

  /// Rebuilds the cache from a checkpoint: entries re-enter the map and
  /// FIFO in serialized order, so future evictions replay identically.
  /// \p DefAt inverts DefIndex. Returns false on a corrupt section.
  bool restoreFrom(SnapReader &R, BlockReadTable &T,
                   const std::function<const DefDecl *(uint32_t)> &DefAt);

private:
  struct Key {
    const DefDecl *Def = nullptr;
    NodeArray::BlockPtr Block;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return hashCombine(reinterpret_cast<size_t>(K.Def), K.Block->hash());
    }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      return A.Def == B.Def && NodeArray::sameBlock(A.Block, B.Block);
    }
  };

  StagedTable<Key, TxEntry, KeyHash, KeyEq> Table;
};

} // namespace bayonet

#endif // BAYONET_INTERP_TXCACHE_H
