// Spatial partition tree over net search windows — the ParaDRo/VTR
// structure that lets PathFinder route nets *truly concurrently* against
// live congestion instead of sharding rounds against a frozen snapshot.
//
// The tree recursively bisects the routing grid with axis-aligned cutlines.
// Each net carries an inclusive window (its terminal bounding box inflated
// by RouterOptions::bbox_margin — the region its A* search is clipped to)
// and lands at the *deepest* node whose region contains that window; nets
// straddling a cutline stay at the branch node. Because sibling regions are
// disjoint and a net only ever reads or writes congestion inside its own
// window, the nets of two sibling subtrees can route concurrently with live
// usage updates and still produce schedule-independent results. The router
// exploits exactly that (route/router.cpp).
//
// Cutline selection is prefix-sum based: for every candidate coordinate the
// builder knows, in O(1) after an O(extent + nets) scan, the estimated
// routing work strictly left of the cut, strictly right of it, and crossing
// it. It picks the cut minimizing max(left, right) + crossing — the
// critical-path estimate of the node when the children run concurrently and
// the crossing nets serialize after them — over both axes.
//
// Determinism: the tree is a pure function of (bounds, nets, limits). It
// never looks at thread counts, and the router's schedule (RouterOptions::
// jobs and the fan-out depth derived from it) never reaches the builder —
// which is what keeps routed layouts byte-identical across all of them
// (tests/test_partition_tree.cpp, tests/test_route.cpp).
#pragma once

#include "util/geometry.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sm::route {

/// One net as the tree builder sees it.
struct PartitionNet {
  std::size_t task = 0;    ///< caller's net/task index (opaque to the tree)
  util::GridRect window;   ///< search window; containment decides placement
  std::uint64_t work = 1;  ///< routing-work estimate for cutline balancing
};

struct PartitionNode {
  util::GridRect region;
  /// Indices into PartitionTree::nets(), preserving the caller's input
  /// order — the router's fixed commit order within a node.
  std::vector<std::size_t> nets;
  int parent = -1;
  int left = -1, right = -1;
  int depth = 0;

  bool is_leaf() const { return left < 0 && right < 0; }
};

/// Build-termination knobs (all pure inputs to the tree shape; the router
/// leaves them at their defaults so the tree stays a canonical function of
/// the nets and the grid).
struct PartitionLimits {
  /// Nodes with fewer nets stay leaves (splitting is pure overhead).
  std::size_t min_nets = 16;
  /// Never cut a region into a side thinner than this many gcells.
  std::int32_t min_extent = 4;
  /// Hard recursion bound (regions halve, so this is never the binding
  /// constraint on real grids; it bounds adversarial inputs).
  int max_depth = 64;
};

class PartitionTree {
 public:
  using Limits = PartitionLimits;

  PartitionTree() = default;

  /// Build over `nets` (in the caller's commit-priority order; every node
  /// keeps its slice of them in that order). Windows must lie inside
  /// `bounds`. Pure function of the arguments.
  PartitionTree(const util::GridRect& bounds, std::vector<PartitionNet> nets,
                const Limits& limits = PartitionLimits());

  bool empty() const { return nodes_.empty(); }
  /// Node 0 is the root when the tree is non-empty.
  const std::vector<PartitionNode>& nodes() const { return nodes_; }
  const std::vector<PartitionNet>& nets() const { return nets_; }
  /// Deepest node depth (root = 0); -1 when empty.
  int depth() const { return depth_; }

  /// Node indices grouped by depth: level(d) lists every node whose depth
  /// is exactly d, in node-index order. The router's level-synchronous
  /// scheduler walks these deepest-first.
  const std::vector<int>& level(int d) const { return levels_[static_cast<std::size_t>(d)]; }

 private:
  void build(int node, std::vector<std::size_t> nets, const Limits& limits);

  std::vector<PartitionNode> nodes_;
  std::vector<PartitionNet> nets_;
  std::vector<std::vector<int>> levels_;
  int depth_ = -1;
};

}  // namespace sm::route
