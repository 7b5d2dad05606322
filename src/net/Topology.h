//===- net/Topology.h - Network topology -----------------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Network topology: nodes identified by dense ids, interfaces (node, port)
/// and bidirectional links (paper Section 3.1). Each interface belongs to at
/// most one link.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_NET_TOPOLOGY_H
#define BAYONET_NET_TOPOLOGY_H

#include <optional>
#include <string>
#include <vector>

namespace bayonet {

/// One endpoint of a link.
struct Interface {
  unsigned Node = 0;
  int Port = 0;

  friend bool operator==(const Interface &A, const Interface &B) {
    return A.Node == B.Node && A.Port == B.Port;
  }
};

/// The network graph: a set of nodes and point-to-point links between
/// (node, port) interfaces.
class Topology {
public:
  /// The largest port a link or a fwd statement may name.
  static constexpr int MaxPort = 65535;

  Topology() = default;
  explicit Topology(unsigned NumNodes) : NumNodes(NumNodes) {}

  unsigned numNodes() const { return NumNodes; }
  void setNumNodes(unsigned N) { NumNodes = N; }

  /// Connects two interfaces. Returns false if either interface is already
  /// part of a link (each interface may appear in at most one link) or has
  /// a port outside [0, MaxPort].
  bool addLink(Interface A, Interface B);

  /// The interface on the other side of (Node, Port), if linked.
  std::optional<Interface> peer(unsigned Node, int Port) const {
    if (Node >= Peers.size() || Port < 0 ||
        static_cast<size_t>(Port) >= Peers[Node].size())
      return std::nullopt;
    return Peers[Node][Port];
  }

  /// True if the node is an endpoint of at least one link.
  bool isLinked(unsigned Node) const;

  unsigned numLinks() const { return Links.size(); }
  const std::vector<std::pair<Interface, Interface>> &links() const {
    return Links;
  }

private:
  unsigned NumNodes = 0;
  std::vector<std::pair<Interface, Interface>> Links;
  /// Peers[Node][Port]: the far end of each linked interface, indexed by
  /// node and then port (ports are small positive integers).
  std::vector<std::vector<std::optional<Interface>>> Peers;

  /// The peer entry of \p I, grown into existence.
  std::optional<Interface> &slot(Interface I);
};

} // namespace bayonet

#endif // BAYONET_NET_TOPOLOGY_H
