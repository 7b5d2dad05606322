//===- net/Config.h - Packets, queues, and configurations ------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime state of a Bayonet network: packets, bounded packet queues,
/// per-node configurations ⟨σ, Q_IN, Q_OUT⟩ and the global configuration
/// (σ_s, C_1, ..., C_k) of the paper's Section 3.2. Configurations are
/// value types with structural equality and hashing so the exact engine can
/// merge identical configurations (the aggregate trace semantics).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_NET_CONFIG_H
#define BAYONET_NET_CONFIG_H

#include "net/Value.h"

#include <atomic>
#include <memory>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace bayonet {

/// A packet: one value per declared packet field.
struct Packet {
  std::vector<Value> Fields;

  /// Approximate heap footprint (shallow per-value sizing; the budget
  /// tracker only needs order-of-magnitude accuracy).
  size_t approxBytes() const { return Fields.size() * sizeof(Value); }

  friend bool operator==(const Packet &A, const Packet &B) {
    return A.Fields == B.Fields;
  }
  size_t hash() const {
    size_t H = 0xa17c9db3;
    for (const Value &V : Fields)
      H = hashCombine(H, V.hash());
    return H;
  }
};

/// A queue entry: a packet together with the port it arrived on (input
/// queues) or is leaving from (output queues).
struct QueueEntry {
  Packet Pkt;
  int Port = 0;

  friend bool operator==(const QueueEntry &A, const QueueEntry &B) {
    return A.Port == B.Port && A.Pkt == B.Pkt;
  }
  size_t hash() const {
    return hashCombine(Pkt.hash(), static_cast<size_t>(Port));
  }
};

/// A bounded FIFO packet queue. Enqueueing onto a full queue silently
/// leaves the queue unchanged (the paper's enqueue operation; this is where
/// congestion losses happen).
class PacketQueue {
public:
  PacketQueue() = default;
  explicit PacketQueue(int64_t Capacity) : Capacity(Capacity) {}

  int64_t capacity() const { return Capacity; }
  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  bool full() const { return static_cast<int64_t>(Entries.size()) >= Capacity; }

  /// Enqueues at the back; a no-op when the queue is full. Returns whether
  /// the entry was accepted.
  bool pushBack(QueueEntry Entry) {
    if (full())
      return false;
    Entries.push_back(std::move(Entry));
    return true;
  }

  /// Enqueues at the front (used by `new` and `dup`, which place packets at
  /// the head of the node's input queue per rules L-New/L-Dup); a no-op
  /// when the queue is full.
  bool pushFront(QueueEntry Entry) {
    if (full())
      return false;
    Entries.insert(Entries.begin(), std::move(Entry));
    return true;
  }

  /// \pre !empty()
  const QueueEntry &front() const { return Entries.front(); }
  QueueEntry &front() { return Entries.front(); }

  /// Removes and returns the head entry. \pre !empty()
  QueueEntry takeFront() {
    QueueEntry E = std::move(Entries.front());
    Entries.erase(Entries.begin());
    return E;
  }

  const std::vector<QueueEntry> &entries() const { return Entries; }

  /// Approximate heap footprint of the queued entries.
  size_t approxBytes() const {
    size_t B = Entries.size() * sizeof(QueueEntry);
    for (const QueueEntry &E : Entries)
      B += E.Pkt.approxBytes();
    return B;
  }

  friend bool operator==(const PacketQueue &A, const PacketQueue &B) {
    return A.Capacity == B.Capacity && A.Entries == B.Entries;
  }
  size_t hash() const {
    size_t H = static_cast<size_t>(Capacity) * 1000003;
    for (const QueueEntry &E : Entries)
      H = hashCombine(H, E.hash());
    return H;
  }

private:
  std::vector<QueueEntry> Entries;
  int64_t Capacity = 0;
};

/// Per-node configuration ⟨σ, Q_IN, Q_OUT⟩. (The statement component of the
/// paper's configuration is implicit: node programs always run to completion
/// within one Run action, mirroring the generated run() method of Figure 9.)
struct NodeConfig {
  std::vector<Value> State;
  PacketQueue QIn;
  PacketQueue QOut;

  /// Approximate heap footprint of state and queues.
  size_t approxBytes() const {
    return State.size() * sizeof(Value) + QIn.approxBytes() +
           QOut.approxBytes();
  }

  friend bool operator==(const NodeConfig &A, const NodeConfig &B) {
    return A.State == B.State && A.QIn == B.QIn && A.QOut == B.QOut;
  }
  size_t hash() const {
    size_t H = 0x5bd1e995;
    for (const Value &V : State)
      H = hashCombine(H, V.hash());
    H = hashCombine(H, QIn.hash());
    H = hashCombine(H, QOut.hash());
    return H;
  }
};

/// An immutable, shared, hash-cached node block: one NodeConfig behind a
/// shared_ptr so successor configurations share the nodes a scheduler step
/// did not touch. The structural hash is computed once per block and
/// reused by every configuration that shares it.
///
/// Blocks are logically immutable once shared: NodeArray::mut() is the
/// only mutator, and it clones the block first whenever any other owner
/// (another configuration, or the transition cache) still references it.
/// The hash cache is a relaxed atomic — concurrent lanes may race to fill
/// it, but every writer stores the same pure function of the structure, so
/// the race is benign and TSan-clean.
class NodeBlock {
public:
  NodeBlock() = default;
  explicit NodeBlock(NodeConfig C) : Cfg(std::move(C)) {}
  NodeBlock(const NodeBlock &B)
      : Cfg(B.Cfg), Hash(B.Hash.load(std::memory_order_relaxed)) {}
  NodeBlock &operator=(const NodeBlock &) = delete;

  const NodeConfig &config() const { return Cfg; }

  /// Cached structural hash (never 0; 0 is the "not computed" sentinel).
  size_t hash() const {
    size_t H = Hash.load(std::memory_order_relaxed);
    if (!H) {
      H = Cfg.hash();
      if (!H)
        H = 0x5bd1e995;
      Hash.store(H, std::memory_order_relaxed);
    }
    return H;
  }

  /// Content-class id assigned by the InternArena (support/Intern.h);
  /// 0 = not interned. Ids are never reused, so two blocks with equal
  /// non-zero ids are structurally equal — but differing ids prove
  /// nothing (an evicted class re-interns under a fresh id). The copy
  /// constructor deliberately does not copy the id (a clone exists to be
  /// mutated) and mut() clears it alongside the hash cache.
  uint64_t internId() const { return Intern.load(std::memory_order_relaxed); }

private:
  friend class NodeArray;
  friend class InternArena;
  void setInternId(uint64_t Id) const {
    Intern.store(Id, std::memory_order_relaxed);
  }
  NodeConfig Cfg;
  mutable std::atomic<size_t> Hash{0};
  mutable std::atomic<uint64_t> Intern{0};
};

/// The node array of a configuration: copy-on-write storage of NodeConfigs
/// behind shared NodeBlocks. Copying a NodeArray shares every block;
/// mut()/set() clone only the touched node. Reads go through the const
/// operator[], so read sites look exactly like a plain vector.
class NodeArray {
public:
  using BlockPtr = std::shared_ptr<NodeBlock>;

  size_t size() const { return Blocks.size(); }
  bool empty() const { return Blocks.empty(); }

  /// Grows (or shrinks) to \p N nodes; new nodes are distinct empty blocks.
  void resize(size_t N) {
    if (N <= Blocks.size()) {
      Blocks.resize(N);
      return;
    }
    Blocks.reserve(N);
    while (Blocks.size() < N)
      Blocks.push_back(std::make_shared<NodeBlock>());
  }

  const NodeConfig &operator[](size_t I) const { return Blocks[I]->config(); }

  /// Mutable access to node \p I: clones the block if any other owner still
  /// shares it, and resets its cached hash. The caller owns the returned
  /// reference only until the next copy of this array.
  ///
  /// Arrays sharing a block may be mutated on different lanes (resampled
  /// particles): one lane clones the block and drops its reference, after
  /// which the other lane is the sole owner and writes in place. The
  /// clone's reads must happen before those writes. The drop is a release
  /// decrement, but use_count() is a relaxed load, so the sole owner adds
  /// an acquire fence (annotated for ThreadSanitizer, which does not model
  /// fences).
  NodeConfig &mut(size_t I) {
    BlockPtr &B = Blocks[I];
    if (B.use_count() != 1) {
      BlockPtr Fresh = std::make_shared<NodeBlock>(B->config());
#if defined(__SANITIZE_THREAD__)
      __tsan_release(B.get());
#endif
      B = std::move(Fresh);
    } else {
#if defined(__SANITIZE_THREAD__)
      __tsan_acquire(B.get());
#else
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
    }
    B->Hash.store(0, std::memory_order_relaxed);
    B->Intern.store(0, std::memory_order_relaxed);
    return B->Cfg;
  }

  /// Replaces node \p I with a fresh block holding \p C.
  void set(size_t I, NodeConfig C) {
    Blocks[I] = std::make_shared<NodeBlock>(std::move(C));
  }

  /// The shared block behind node \p I (for block-level sharing, e.g. the
  /// transition cache replaying a memoized successor).
  const BlockPtr &block(size_t I) const { return Blocks[I]; }

  /// Installs an existing (immutable) block at node \p I.
  void setBlock(size_t I, BlockPtr B) { Blocks[I] = std::move(B); }

  /// Cached per-block structural hash of node \p I.
  size_t blockHash(size_t I) const { return Blocks[I]->hash(); }

  /// Const iteration over the node configurations.
  class const_iterator {
  public:
    explicit const_iterator(const BlockPtr *P) : P(P) {}
    const NodeConfig &operator*() const { return (*P)->config(); }
    const NodeConfig *operator->() const { return &(*P)->config(); }
    const_iterator &operator++() {
      ++P;
      return *this;
    }
    friend bool operator!=(const const_iterator &A, const const_iterator &B) {
      return A.P != B.P;
    }
    friend bool operator==(const const_iterator &A, const const_iterator &B) {
      return A.P == B.P;
    }

  private:
    const BlockPtr *P;
  };
  const_iterator begin() const { return const_iterator(Blocks.data()); }
  const_iterator end() const {
    return const_iterator(Blocks.data() + Blocks.size());
  }

  /// Content equality of two blocks, O(1) witnesses first: a shared block
  /// or the same intern content class is equal without re-walking; the
  /// per-block hash fast-rejects mismatches before a structural compare.
  static bool sameBlock(const BlockPtr &A, const BlockPtr &B) {
    if (A == B)
      return true;
    uint64_t IdA = A->internId();
    if (IdA && IdA == B->internId())
      return true;
    return A->hash() == B->hash() && A->config() == B->config();
  }

  friend bool operator==(const NodeArray &A, const NodeArray &B) {
    if (A.Blocks.size() != B.Blocks.size())
      return false;
    for (size_t I = 0; I < A.Blocks.size(); ++I)
      if (!sameBlock(A.Blocks[I], B.Blocks[I]))
        return false;
    return true;
  }

private:
  std::vector<BlockPtr> Blocks;
};

/// Global network configuration (σ_s, C_1, ..., C_k), plus the error flag
/// for the ⊥ state reached by failed assertions.
///
/// The structural hash is cached: the exact engine probes merge maps with
/// every produced configuration, and re-walking all node queues per probe
/// dominated merge cost. The cache is copied along with the value (it stays
/// valid for an identical copy); any code that mutates a configuration that
/// may already have been hashed must call invalidateHash(). Inside the
/// engines the only such site is the copy-then-mutate successor
/// construction, which invalidates immediately after the copy.
struct NetConfig {
  NodeArray Nodes;
  /// Scheduler state σ_s (used by the round-robin scheduler's rotor).
  int64_t SchedState = 0;
  /// Set when some node failed an assertion (the ⊥ state).
  bool Error = false;

  friend bool operator==(const NetConfig &A, const NetConfig &B) {
    // Valid caches of unequal values differ (hash is a pure function of
    // structure), so two filled caches fast-reject mismatches.
    if (A.HashCache && B.HashCache && A.HashCache != B.HashCache)
      return false;
    return A.Error == B.Error && A.SchedState == B.SchedState &&
           A.Nodes == B.Nodes;
  }
  size_t hash() const {
    if (HashCache)
      return HashCache;
    size_t H = Error ? 0x2545f491 : 0x9e3779b9;
    H = hashCombine(H, static_cast<size_t>(SchedState));
    // Per-block cached hashes: shared blocks are hashed once globally.
    for (size_t I = 0, N = Nodes.size(); I < N; ++I)
      H = hashCombine(H, Nodes.blockHash(I));
    if (!H)
      H = 0x9e3779b9; // 0 is the "not computed" sentinel.
    HashCache = H;
    return H;
  }
  /// Must be called after mutating a configuration whose hash may have been
  /// computed already.
  void invalidateHash() { HashCache = 0; }

  /// Approximate heap footprint, used by the budget tracker's byte gauge.
  /// Shallow per-value sizing: big rationals under-count, which is fine
  /// for an order-of-magnitude OOM guard.
  size_t approxBytes() const {
    size_t B = sizeof(NetConfig) + Nodes.size() * sizeof(NodeConfig);
    for (const NodeConfig &N : Nodes)
      B += N.approxBytes();
    return B;
  }

private:
  /// Cached structural hash; 0 = not computed.
  mutable size_t HashCache = 0;
};

/// Hash functor for unordered containers keyed by NetConfig.
struct NetConfigHash {
  size_t operator()(const NetConfig &C) const { return C.hash(); }
};

} // namespace bayonet

#endif // BAYONET_NET_CONFIG_H
