//===- net/Topology.cpp - Network topology --------------------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Topology.h"

using namespace bayonet;

std::optional<Interface> &Topology::slot(Interface I) {
  if (I.Node >= Peers.size())
    Peers.resize(I.Node + 1);
  std::vector<std::optional<Interface>> &Ports = Peers[I.Node];
  if (static_cast<size_t>(I.Port) >= Ports.size())
    Ports.resize(I.Port + 1);
  return Ports[I.Port];
}

bool Topology::addLink(Interface A, Interface B) {
  for (Interface I : {A, B})
    if (I.Port < 0 || I.Port > MaxPort)
      return false;
  if (slot(A) || slot(B))
    return false;
  slot(A) = B;
  slot(B) = A;
  Links.emplace_back(A, B);
  return true;
}

bool Topology::isLinked(unsigned Node) const {
  for (const auto &[A, B] : Links)
    if (A.Node == Node || B.Node == Node)
      return true;
  return false;
}
