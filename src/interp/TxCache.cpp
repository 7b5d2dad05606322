//===- interp/TxCache.cpp - Successor-transition memo cache ---------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/TxCache.h"
#include "lang/Ast.h"
#include "support/Snapshot.h"

using namespace bayonet;

void TxEntry::computeBytes() {
  size_t B = sizeof(TxEntry) + sizeof(NodeBlock) + Key->config().approxBytes();
  for (const TxWorld &W : Worlds) {
    B += sizeof(TxWorld) + W.Guards.size() * sizeof(Constraint);
    if (W.Node)
      B += sizeof(NodeBlock) + W.Node->config().approxBytes();
  }
  B += ProfExecs.size() * sizeof(ProfExecs[0]);
  Bytes = B;
}

const TxEntry *TxCache::lookup(const DefDecl *Def,
                               const NodeArray::BlockPtr &KeyBlock) const {
  const auto *E = Table.find(Key{Def, KeyBlock});
  return E ? &E->second : nullptr;
}

void TxCache::stage(unsigned Lane, TxEntry E) {
  Key K{E.Def, E.Key};
  Table.stage(Lane, std::move(K), std::move(E));
}

TxCache::PublishStats TxCache::publishStaged() {
  // Duplicates (several configurations missing on the same node state
  // within one step) publish once; later copies are identical values.
  return Table.publish(
      [](const auto &A, const auto &B) {
        if (A.K.Def != B.K.Def) {
          if (int C = A.K.Def->Name.compare(B.K.Def->Name))
            return C < 0;
        }
        return A.K.Block->hash() < B.K.Block->hash();
      },
      [](const Key &, TxEntry &E) -> uint64_t {
        if (!E.Bytes)
          E.computeBytes();
        return E.Bytes;
      },
      [](Key &, const Key &) {});
}

void TxCache::snapshotTo(
    SnapWriter &W, BlockTable &T,
    const std::function<uint32_t(const DefDecl *)> &DefIndex) const {
  Table.snapshot(W, [&](const Key &, const TxEntry &E) {
    W.u32(DefIndex(E.Def));
    T.write(W, E.Key);
    W.u64(E.Worlds.size());
    for (const TxWorld &World : E.Worlds) {
      T.write(W, World.Node);
      snapRational(W, World.Prob);
      W.u64(World.Guards.size());
      for (const Constraint &C : World.Guards)
        snapConstraint(W, C);
      W.boolean(World.Error);
    }
    W.u64(E.ProfExecs.size());
    for (const auto &[Idx, Count] : E.ProfExecs) {
      W.u32(Idx);
      W.u64(Count);
    }
  });
}

bool TxCache::restoreFrom(
    SnapReader &R, BlockReadTable &T,
    const std::function<const DefDecl *(uint32_t)> &DefAt) {
  return Table.restore(R, [&](Key &K, TxEntry &E, uint64_t &Bytes) {
    E.Def = DefAt(R.u32());
    if (!E.Def || !T.read(R, E.Key) || !E.Key)
      return false;
    uint64_t NWorlds = R.count();
    E.Worlds.reserve(NWorlds);
    for (uint64_t J = 0; J < NWorlds && R.ok(); ++J) {
      TxWorld World;
      if (!T.read(R, World.Node) || !readRational(R, World.Prob))
        return false;
      uint64_t NGuards = R.count();
      World.Guards.reserve(NGuards);
      for (uint64_t G = 0; G < NGuards && R.ok(); ++G) {
        Constraint C;
        if (!readConstraint(R, C))
          return false;
        World.Guards.push_back(std::move(C));
      }
      World.Error = R.boolean();
      E.Worlds.push_back(std::move(World));
    }
    uint64_t NProf = R.count();
    E.ProfExecs.reserve(NProf);
    for (uint64_t P = 0; P < NProf && R.ok(); ++P) {
      uint32_t Idx = R.u32();
      uint64_t Count = R.u64();
      E.ProfExecs.emplace_back(Idx, Count);
    }
    E.computeBytes();
    K = Key{E.Def, E.Key};
    Bytes = E.Bytes;
    return true;
  });
}
