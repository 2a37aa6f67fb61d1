// Topology: the two-level shape of the machine — which PEs share a node
// (and therefore shared memory and one network uplink) and which rank
// fronts each node as its leader.
//
// The paper's testbed runs multiple PEs per node behind one network
// interface; a flat full-mesh transport ignores that and pays P*(P-1)
// connections plus per-PE wire traffic even between PEs of the same node.
// A Topology is the map the hierarchical transport routes by: ranks are
// CONTIGUOUS per node (node n owns ranks [node_first(n), node_first(n) +
// node_size(n))), and the node's first rank is its leader — the rank that
// fronts the node's uplink.
#ifndef DEMSORT_NET_TOPOLOGY_H_
#define DEMSORT_NET_TOPOLOGY_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace demsort::net {

class Topology {
 public:
  /// One PE per node — the flat machine every existing transport models.
  static Topology Flat(int num_pes) {
    return Topology(std::vector<int>(static_cast<size_t>(num_pes), 1));
  }

  /// `pes_per_node` PEs on every node; the last node takes the remainder
  /// (e.g. Uniform(7, 2) = {2, 2, 2, 1}).
  static Topology Uniform(int num_pes, int pes_per_node) {
    DEMSORT_CHECK_GT(num_pes, 0);
    DEMSORT_CHECK_GT(pes_per_node, 0);
    std::vector<int> sizes;
    for (int left = num_pes; left > 0; left -= pes_per_node) {
      sizes.push_back(left < pes_per_node ? left : pes_per_node);
    }
    return Topology(std::move(sizes));
  }

  /// Arbitrary (possibly uneven) node sizes, e.g. {2, 3, 2}.
  static StatusOr<Topology> FromNodeSizes(std::vector<int> sizes) {
    if (sizes.empty()) {
      return Status::InvalidArgument("topology names no nodes");
    }
    for (int s : sizes) {
      if (s <= 0) {
        return Status::InvalidArgument(
            "node size must be >= 1 (got " + std::to_string(s) + ")");
      }
    }
    return Topology(std::move(sizes));
  }

  explicit Topology(std::vector<int> node_sizes)
      : node_sizes_(std::move(node_sizes)) {
    DEMSORT_CHECK(!node_sizes_.empty());
    node_first_.reserve(node_sizes_.size());
    int first = 0;
    for (size_t n = 0; n < node_sizes_.size(); ++n) {
      DEMSORT_CHECK_GT(node_sizes_[n], 0);
      node_first_.push_back(first);
      for (int i = 0; i < node_sizes_[n]; ++i) {
        node_of_.push_back(static_cast<int>(n));
      }
      first += node_sizes_[n];
    }
  }

  int num_pes() const { return static_cast<int>(node_of_.size()); }
  int num_nodes() const { return static_cast<int>(node_sizes_.size()); }

  int node_of(int rank) const {
    DEMSORT_CHECK_GE(rank, 0);
    DEMSORT_CHECK_LT(rank, num_pes());
    return node_of_[rank];
  }
  int node_size(int node) const { return node_sizes_[node]; }
  /// First global rank of `node`; ranks are contiguous per node.
  int node_first(int node) const { return node_first_[node]; }
  int local_rank(int rank) const { return rank - node_first_[node_of(rank)]; }
  /// The node's first rank is its leader: it fronts the node's uplink, so
  /// its death is the node's death (see HierarchicalTransport).
  bool is_leader(int rank) const { return local_rank(rank) == 0; }

  /// True when the two-level structure is non-trivial: more than one node
  /// AND at least one node with more than one PE. A flat machine (every
  /// node size 1) or a single node needs no hierarchy.
  bool hierarchical() const {
    return num_nodes() > 1 && num_pes() > num_nodes();
  }

  /// Ordered cross-node connection count of the hierarchical transport:
  /// one per-direction channel per node pair, N*(N-1) — versus the flat
  /// mesh's P*(P-1). (An undirected TCP socket carries both directions, so
  /// the physical socket count is half of each.)
  uint64_t InterNodeConnections() const {
    uint64_t n = static_cast<uint64_t>(num_nodes());
    return n * (n - 1);
  }
  static uint64_t FlatConnections(int num_pes) {
    uint64_t p = static_cast<uint64_t>(num_pes);
    return p * (p - 1);
  }

  const std::vector<int>& node_sizes() const { return node_sizes_; }

  std::string ToString() const {
    std::string s = "{";
    for (size_t n = 0; n < node_sizes_.size(); ++n) {
      if (n != 0) s += ",";
      s += std::to_string(node_sizes_[n]);
    }
    return s + "}";
  }

 private:
  std::vector<int> node_sizes_;
  std::vector<int> node_first_;  // first global rank per node
  std::vector<int> node_of_;     // rank -> node
};

/// Parses a comma-separated node-shape list ("2,3,2") into a Topology —
/// the CLI/bench syntax for uneven nodes.
inline StatusOr<Topology> ParseNodeShape(const std::string& shape) {
  std::vector<int> sizes;
  size_t pos = 0;
  while (pos <= shape.size()) {
    size_t comma = shape.find(',', pos);
    if (comma == std::string::npos) comma = shape.size();
    std::string tok = shape.substr(pos, comma - pos);
    char* end = nullptr;
    long v = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || *end != '\0' || v < 1) {
      return Status::InvalidArgument("bad node shape '" + shape +
                                     "' (expected e.g. \"2,3,2\")");
    }
    sizes.push_back(static_cast<int>(v));
    pos = comma + 1;
  }
  return Topology::FromNodeSizes(std::move(sizes));
}

}  // namespace demsort::net

#endif  // DEMSORT_NET_TOPOLOGY_H_
