#include "route/router.hpp"

#include "route/partition_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace sm::route {

using netlist::MetalStack;
using util::GridPoint;
using util::Point;

double RoutingStats::total_wire_um() const {
  double s = 0;
  for (const double w : wire_um) s += w;
  return s;
}

std::uint64_t RoutingStats::total_vias() const {
  std::uint64_t s = 0;
  for (const auto v : vias) s += v;
  return s;
}

std::vector<RouteTask> make_tasks(const netlist::Netlist& nl,
                                  const place::Placement& pl,
                                  const std::vector<int>& min_layer_of) {
  std::vector<RouteTask> tasks;
  tasks.reserve(nl.num_nets());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.sinks.empty()) continue;  // nothing to connect
    RouteTask t;
    t.net = n;
    t.min_layer = (n < min_layer_of.size()) ? min_layer_of[n] : 1;
    t.terminals.push_back({pl.of(net.driver), nl.type_of(net.driver).pin_layer});
    for (const auto& s : net.sinks)
      t.terminals.push_back({pl.of(s.cell), nl.type_of(s.cell).pin_layer});
    tasks.push_back(std::move(t));
  }
  return tasks;
}

RoutingStats collect_stats(const RouteGrid& grid,
                           const std::vector<NetRoute>& routes) {
  RoutingStats st;
  for (const auto& r : routes) {
    if (!r.success) {
      ++st.failed_nets;
      continue;
    }
    for (const auto& seg : r.segments) {
      if (seg.is_via()) {
        const int lo = std::min(seg.a.layer, seg.b.layer);
        const int hi = std::max(seg.a.layer, seg.b.layer);
        for (int l = lo; l < hi; ++l) ++st.vias[static_cast<std::size_t>(l)];
      } else {
        st.wire_um[static_cast<std::size_t>(seg.a.layer)] +=
            seg.gcell_length() * grid.gcell_um();
      }
    }
  }
  return st;
}

namespace {

/// Round-shared congestion state: committed usage, negotiation history,
/// blockages, per-layer capacities, and the PathFinder pressure schedule.
/// During a round's re-route phase only usage changes: each net commits
/// its own nodes as soon as it is routed, and concurrently routed nets sit
/// in sibling partition-tree regions, so their reads and writes never
/// overlap. Everything else — the greedy keep selection, history bumps,
/// pressure — happens single-threaded between rounds. That discipline is
/// what makes the router's output independent of RouterOptions::jobs.
class CongestionState {
 public:
  CongestionState(const RouteGrid& grid, const MetalStack& stack,
                  const RouterOptions& opts)
      : grid_(&grid), opts_(&opts) {
    node_.assign(grid.num_nodes(), Node{});
    cap_.resize(static_cast<std::size_t>(grid.layers()) + 1);
    for (int l = 1; l <= grid.layers(); ++l)
      cap_[static_cast<std::size_t>(l)] = grid.capacity(stack, l);

    for (const auto& b : opts.blockages) {
      const GridPoint lo = grid.snap(b.region.lo, 1);
      const GridPoint hi = grid.snap(b.region.hi, 1);
      for (int l = std::max(1, b.min_layer);
           l <= std::min(grid.layers(), b.max_layer); ++l)
        for (int y = lo.y; y <= hi.y; ++y)
          for (int x = lo.x; x <= hi.x; ++x)
            node_[grid.index({x, y, l})].blocked = 1;
    }
  }

  bool blocked(std::size_t idx) const { return node_[idx].blocked != 0; }

  /// Would one more net through `idx` stay within the layer's capacity?
  bool fits(std::size_t idx, int layer) const {
    return node_[idx].usage + 1 <= cap_[static_cast<std::size_t>(layer)];
  }

  void add_usage(std::size_t idx, int delta) {
    node_[idx].usage = static_cast<std::int32_t>(node_[idx].usage + delta);
  }

  void clear_usage() {
    for (auto& n : node_) n.usage = 0;
  }

  /// PathFinder cost of stepping onto node `idx`. The present-overuse
  /// penalty grows with each negotiation round (set_pressure), the classic
  /// PathFinder schedule that forces convergence.
  double node_cost(std::size_t idx, int layer) const {
    const Node& n = node_[idx];
    const int over = n.usage + 1 - cap_[static_cast<std::size_t>(layer)];
    double c = 1.0 + static_cast<double>(n.history);
    if (over > 0) c += opts_->overflow_penalty * pressure_ * over;
    return c;
  }

  void set_pressure(double p) { pressure_ = p; }

  void bump_history() {
    for (std::size_t i = 0; i < node_.size(); ++i) {
      const GridPoint g = grid_->at(i);
      const int over = node_[i].usage - cap_[static_cast<std::size_t>(g.layer)];
      if (over > 0)
        node_[i].history += static_cast<float>(opts_->history_increment * over);
    }
  }

  std::size_t count_overflow() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < node_.size(); ++i) {
      const GridPoint g = grid_->at(i);
      if (node_[i].usage > cap_[static_cast<std::size_t>(g.layer)]) ++n;
    }
    return n;
  }

 private:
  /// Everything an A* relaxation reads about a node, in one record (one
  /// cache line touch per relaxation instead of three).
  struct Node {
    std::int32_t usage = 0;
    float history = 0.0f;
    std::uint8_t blocked = 0;
  };

  const RouteGrid* grid_;
  const RouterOptions* opts_;
  std::vector<Node> node_;
  std::vector<int> cap_;
  double pressure_ = 1.0;
};

/// Per-worker A* search state with epoch-stamped records, so repeated
/// searches cost O(visited), not O(grid). Reads the live CongestionState
/// inside its window and never writes it (the caller commits). Which
/// worker's Searcher routes which net is scheduling-dependent but provably
/// irrelevant: every search bumps its epoch first, so no state of any
/// previous search (on this or any other net) is ever read.
///
/// The open set is an indexed 4-ary min-heap holding each node at most
/// once, ordered by (f, node). It pops exactly the node sequence of a lazy
/// binary heap that pushed a fresh (f, node) pair on every improvement and
/// skipped stale pops, because it keeps that heap's invariants:
///   - a queued node's key is the *minimum* f ever pushed for it. g is
///     stored as float, so a later strict improvement of the rounded g can
///     carry a larger double f than an earlier push; the lazy heap would
///     still pop the node at the earlier, smaller f (with the newer
///     g/parent), so the key never increases while g/parent always follow
///     the latest improvement;
///   - a non-target node whose key orders after the best target key in
///     the heap is not queued at all (its g/parent still update). Keys only
///     decrease and only a pop removes a node, so that target pops — and
///     ends the search — first. A later improvement re-checks the bound.
class Searcher {
 public:
  Searcher(const RouteGrid& grid, const MetalStack& stack,
           const RouterOptions& opts, const CongestionState& cong)
      : grid_(&grid), opts_(&opts), cong_(&cong) {
    const std::size_t n = grid.num_nodes();
    node_.assign(n, NodeState{});
    in_tree_.assign(n, 0);
    wx1_ = grid.nx() - 1;
    wy1_ = grid.ny() - 1;
    dy_ = static_cast<std::uint32_t>(grid.nx());
    dl_ = static_cast<std::uint32_t>(grid.nx()) *
          static_cast<std::uint32_t>(grid.ny());
    // Layer metadata resolved once: MetalStack::layer() is an out-of-line
    // call that shows up at 27M A* edge relaxations per sweep.
    preferred_.resize(static_cast<std::size_t>(grid.layers()) + 1);
    for (int l = 1; l <= grid.layers(); ++l)
      preferred_[static_cast<std::size_t>(l)] = stack.layer(l).preferred;
  }

  /// Select the net about to be routed: its deterministic tie-break stream.
  /// The per-node amplitude is tie_jitter normalized by the grid extent, so
  /// even summed over a die-spanning path the total perturbation stays
  /// below tie_jitter — far below one real step — and can never make a
  /// genuinely longer route win, only break exact ties.
  void set_net(std::uint64_t jitter_seed) {
    jitter_seed_ = jitter_seed;
    const double norm = static_cast<double>(grid_->nx() + grid_->ny()) +
                        2.0 * static_cast<double>(grid_->layers());
    jitter_scale_ = opts_->tie_jitter * 0x1.0p-53 / norm;
  }

  /// Clip every subsequent search to the lateral window `w` (layers stay
  /// unrestricted — via stacks and lifted wiring need them all). The tree
  /// scheduler sets each net's own inflated bbox here; that containment is
  /// what makes sibling subtrees non-interacting. The serial full-grid
  /// retry of nets that failed inside their window resets it to the grid.
  /// The window always lies inside the grid (search relies on it).
  void set_window(const util::GridRect& w) {
    wx0_ = std::max(0, w.x0);
    wy0_ = std::max(0, w.y0);
    wx1_ = std::min(grid_->nx() - 1, w.x1);
    wy1_ = std::min(grid_->ny() - 1, w.y1);
  }

  /// The net tree under construction: its nodes in insertion order, an
  /// O(1) membership flag per node (cleared node by node on reset, so a
  /// reset costs O(tree), not O(grid)) and the tree's lateral bbox, which
  /// the A* heuristic aims at — the tree nodes are exactly the targets.
  void tree_reset() {
    for (const auto idx : tree_) in_tree_[idx] = 0;
    tree_.clear();
    tminx_ = tminy_ = std::numeric_limits<int>::max();
    tmaxx_ = tmaxy_ = std::numeric_limits<int>::min();
  }
  void tree_add(std::size_t idx) {
    if (in_tree_[idx]) return;
    in_tree_[idx] = 1;
    tree_.push_back(idx);
    const GridPoint g = grid_->at(idx);
    tminx_ = std::min(tminx_, g.x);
    tmaxx_ = std::max(tmaxx_, g.x);
    tminy_ = std::min(tminy_, g.y);
    tmaxy_ = std::max(tmaxy_, g.y);
  }
  bool tree_has(std::size_t idx) const { return in_tree_[idx] != 0; }
  const std::vector<std::size_t>& tree() const { return tree_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// A* from `start` to any node of the current net tree (tree_add).
  /// Layers below `min_layer` are off-limits. Returns the reached tree
  /// node or npos; parents encode the path (backtrack).
  std::size_t search(std::size_t start, int min_layer) {
    if (epoch_ > std::numeric_limits<std::uint32_t>::max() - 3) {
      for (auto& n : node_) n.stamp = 0;  // wrapped: forget every stamp
      epoch_ = 0;
    }
    epoch_ += 2;  // epoch_: seen this search; epoch_ + 1: closed
    const std::uint32_t closed = epoch_ + 1;
    ++work_.searches;

    heap_.clear();
    hole_ = false;
    best_target_ = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<std::uint32_t>::max(), GridPoint{}};
    const GridPoint sg = grid_->at(start);
    NodeState& s0 = node_[start];
    s0.g = 0.0f;
    s0.parent = static_cast<std::uint32_t>(start);
    s0.stamp = epoch_;
    push({heuristic(sg), static_cast<std::uint32_t>(start), sg});

    const std::int32_t max_layer = grid_->layers();
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      ++work_.heap_pops;
      // The root becomes a hole that the first push of this expansion
      // fills with one sift down, instead of a pop's sift down plus a
      // push's sift up. -inf keeps a decrease-key's sift_up below it.
      heap_.front().f = -std::numeric_limits<double>::infinity();
      hole_ = true;
      const std::uint32_t node = top.node;
      node_[node].stamp = closed;
      if (tree_has(node)) return node;

      const GridPoint g = top.at;
      const double g_node = static_cast<double>(node_[node].g);
      auto try_step = [&](std::uint32_t ni, const GridPoint& ng,
                          double step_cost) {
        NodeState& ns = node_[ni];
        if (ns.stamp == closed) return;
        const double ng_cost = g_node + step_cost +
                               cong_->node_cost(ni, ng.layer) + jitter(ni);
        const bool seen = ns.stamp == epoch_;
        if (seen && static_cast<double>(ns.g) <= ng_cost) return;
        ns.g = static_cast<float>(ng_cost);
        ns.parent = node;
        const Entry e{ng_cost + heuristic(ng), ni, ng};
        if (!seen) {
          ns.stamp = epoch_;
          ns.slot = kNoSlot;
        }
        const bool target = tree_has(ni);
        if (ns.slot == kNoSlot) {
          if (!target && before(best_target_, e)) return;  // bounded push
          push(e);
        } else if (before(e, heap_[ns.slot])) {
          heap_[ns.slot].f = e.f;  // decrease-key: keep the minimum f
          sift_up(ns.slot);
        } else {
          return;
        }
        if (target && before(e, best_target_)) best_target_ = e;
      };
      // Lateral steps stay in the window (inside the grid) and off
      // blockages; vias pass blockages and stay within [min_layer, top].
      if (preferred_[static_cast<std::size_t>(g.layer)] ==
          netlist::Direction::Horizontal) {
        if (g.x > wx0_ && !cong_->blocked(node - 1))
          try_step(node - 1, {g.x - 1, g.y, g.layer}, 0.0);
        if (g.x < wx1_ && !cong_->blocked(node + 1))
          try_step(node + 1, {g.x + 1, g.y, g.layer}, 0.0);
      } else {
        if (g.y > wy0_ && !cong_->blocked(node - dy_))
          try_step(node - dy_, {g.x, g.y - 1, g.layer}, 0.0);
        if (g.y < wy1_ && !cong_->blocked(node + dy_))
          try_step(node + dy_, {g.x, g.y + 1, g.layer}, 0.0);
      }
      if (g.layer - 1 >= min_layer)
        try_step(node - dl_, {g.x, g.y, g.layer - 1}, opts_->via_cost);
      if (g.layer + 1 <= max_layer)
        try_step(node + dl_, {g.x, g.y, g.layer + 1}, opts_->via_cost);
      if (hole_) {  // nothing was pushed: close the hole with the last entry
        hole_ = false;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_down(last);
      }
    }
    return npos;
  }

  /// Walk parents from `node` back to the search start.
  std::vector<std::size_t> backtrack(std::size_t node) const {
    std::vector<std::size_t> path{node};
    while (node_[node].parent != node) {
      node = node_[node].parent;
      path.push_back(node);
    }
    return path;
  }

  const RouterWork& work() const { return work_; }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Per-node search state in one 16-byte record: the float g, the A*
  /// parent, the epoch stamp (== epoch_: seen, == epoch_ + 1: closed,
  /// anything else: untouched this search) and the heap slot (kNoSlot when
  /// not queued; only meaningful while the stamp says seen).
  struct NodeState {
    float g = 0.0f;
    std::uint32_t parent = 0;
    std::uint32_t stamp = 0;
    std::uint32_t slot = kNoSlot;
  };

  /// A heap entry carries the node's grid point, so a pop never divides
  /// the index back into coordinates.
  struct Entry {
    double f;
    std::uint32_t node;
    GridPoint at;
  };

  /// The lazy heap's total order: by f, ties by node index.
  /// Evaluated without short-circuit branches: the sift-down tournament
  /// selects with conditional moves only if the compares do not branch.
  static bool before(const Entry& a, const Entry& b) {
    return (int{a.f < b.f} | (int{a.f == b.f} & int{a.node < b.node})) != 0;
  }

  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    node_[e.node].slot = static_cast<std::uint32_t>(pos);
  }

  void push(const Entry& e) {
    ++work_.heap_pushes;
    if (hole_) {
      hole_ = false;
      sift_down(e);
      return;
    }
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  void sift_up(std::size_t pos) {
    const Entry e = heap_[pos];
    while (pos > 0) {
      const std::size_t up = (pos - 1) / 4;
      if (!before(e, heap_[up])) break;
      place(pos, heap_[up]);
      pos = up;
    }
    place(pos, e);
  }

  /// Fill the root hole with `e` and sift it down to its place.
  void sift_down(const Entry& e) {
    const std::size_t n = heap_.size();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first = 4 * pos + 1;
      if (first >= n) break;
      std::size_t best;
      if (first + 4 <= n) {
        // Tournament over the four children, branch-free: the compares
        // are data-dependent coin flips the predictor cannot learn.
        const Entry* c = &heap_[first];
        const std::size_t a = before(c[1], c[0]) ? 1 : 0;
        const std::size_t b = before(c[3], c[2]) ? 3 : 2;
        best = first + (before(c[b], c[a]) ? b : a);
      } else {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c)
          if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, e);
  }

  /// Takes the point, not the index: callers already hold the GridPoint,
  /// and the at() division is real money at 27M relaxations per sweep.
  double heuristic(const GridPoint& g) const {
    // Exact small integers, so summing before the conversion is exact.
    const int h = std::max(tminx_ - g.x, 0) + std::max(g.x - tmaxx_, 0) +
                  std::max(tminy_ - g.y, 0) + std::max(g.y - tmaxy_, 0);
    return h;  // >= remaining steps, each of cost >= 1 (jitter only adds)
  }

  /// Deterministic per-(net, node) tie-break noise in [0, tie_jitter).
  /// A pure function of the net's seed and the node index — never of the
  /// executing thread — so a net prices ties identically in any schedule.
  /// One multiply + xorshift: runs on every A* edge relaxation, where the
  /// full splitmix64 chain measurably shows up; tie-breaking only needs
  /// decorrelation between nets, not PRNG-grade uniformity.
  double jitter(std::size_t idx) const {
    std::uint64_t s = (jitter_seed_ ^ static_cast<std::uint64_t>(idx)) *
                      0x9e3779b97f4a7c15ULL;
    s ^= s >> 29;
    return jitter_scale_ * static_cast<double>(s >> 11);
  }

  const RouteGrid* grid_;
  const RouterOptions* opts_;
  const CongestionState* cong_;
  std::vector<NodeState> node_;
  std::vector<std::size_t> tree_;      ///< net tree nodes, insertion order
  std::vector<std::uint8_t> in_tree_;  ///< tree membership per node
  std::vector<Entry> heap_;            ///< indexed 4-ary min-heap
  Entry best_target_{};  ///< smallest target entry queued this search
  bool hole_ = false;    ///< heap_[0] is the expanded node, awaiting a fill
  std::vector<netlist::Direction> preferred_;  ///< per-layer wire direction
  RouterWork work_;
  std::uint32_t epoch_ = 0;
  std::uint32_t dy_ = 1, dl_ = 1;  ///< index offsets of a y / layer step
  std::uint64_t jitter_seed_ = 0;
  double jitter_scale_ = 0.0;
  int tminx_ = 0, tmaxx_ = 0, tminy_ = 0, tmaxy_ = 0;
  std::int32_t wx0_ = 0, wy0_ = 0, wx1_ = 0, wy1_ = 0;  ///< search window
};

/// Mutex-guarded free list of Searchers: a worker leases one per net and
/// returns it afterwards, so a round needs at most `jobs` searchers total
/// (each is O(grid) memory). The lease order depends on scheduling; the
/// Searcher epoch discipline makes that irrelevant to the routes.
class SearcherPool {
 public:
  SearcherPool(const RouteGrid& grid, const MetalStack& stack,
               const RouterOptions& opts, const CongestionState& cong)
      : grid_(&grid), stack_(&stack), opts_(&opts), cong_(&cong) {}

  std::unique_ptr<Searcher> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        auto s = std::move(free_.back());
        free_.pop_back();
        return s;
      }
    }
    return std::make_unique<Searcher>(*grid_, *stack_, *opts_, *cong_);
  }

  void release(std::unique_ptr<Searcher> s) {
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(s));
  }

  /// Summed work of every Searcher; call once all of them are released.
  RouterWork work() const {
    RouterWork w;
    for (const auto& s : free_) {
      w.searches += s->work().searches;
      w.heap_pushes += s->work().heap_pushes;
      w.heap_pops += s->work().heap_pops;
    }
    return w;
  }

 private:
  const RouteGrid* grid_;
  const MetalStack* stack_;
  const RouterOptions* opts_;
  const CongestionState* cong_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Searcher>> free_;
};

/// Compress a node path into straight wire segments and single via segments.
void emit_segments(const RouteGrid& grid, const std::vector<std::size_t>& path,
                   std::vector<RouteSegment>& out) {
  if (path.size() < 2) return;
  GridPoint run_start = grid.at(path.back());
  GridPoint prev = run_start;
  // Walk from search start to end (path is backtracked, so reverse).
  for (std::size_t k = path.size() - 1; k-- > 0;) {
    const GridPoint cur = grid.at(path[k]);
    if (cur.layer != prev.layer) {  // via step
      if (!(run_start == prev)) out.push_back({run_start, prev});
      out.push_back({prev, cur});
      run_start = cur;
    } else if ((run_start.x != prev.x && cur.y != prev.y) ||
               (run_start.y != prev.y && cur.x != prev.x)) {
      // Direction change: close the finished run; the new run starts at
      // prev so the prev->cur step is not lost.
      out.push_back({run_start, prev});
      run_start = prev;
    }
    prev = cur;
  }
  if (!(run_start == prev)) out.push_back({run_start, prev});
}

/// Nodes a (terminal) via stack occupies from the pin layer up to `to_layer`.
void stack_nodes(const RouteGrid& grid, const Terminal& t, int to_layer,
                 std::vector<std::size_t>& out) {
  const GridPoint base = grid.snap(t.pos, t.layer);
  const int lo = std::min(base.layer, to_layer);
  const int hi = std::max(base.layer, to_layer);
  for (int l = lo; l <= hi; ++l)
    out.push_back(grid.index({base.x, base.y, l}));
}

struct TaskState {
  std::vector<std::size_t> nodes;  ///< all grid nodes the net occupies
  NetRoute route;
};

/// Route one net against the current congestion. Writes only `st` (the
/// caller commits its nodes to the usage), so any number of these can run
/// concurrently on nets whose search windows do not overlap.
void route_net(const RouteGrid& grid, const RouteTask& task, Searcher& s,
               TaskState& st) {
  st.route = NetRoute{};
  st.route.net = task.net;
  st.route.min_layer = task.min_layer;
  st.nodes.clear();
  if (task.terminals.empty()) return;
  const int ml = std::max(1, task.min_layer);

  // Seed the net tree with the driver terminal's via stack.
  s.tree_reset();
  {
    std::vector<std::size_t> stack_idx;
    stack_nodes(grid, task.terminals[0], ml, stack_idx);
    for (const auto idx : stack_idx) s.tree_add(idx);
  }
  if (ml > task.terminals[0].layer) {
    const GridPoint b = grid.snap(task.terminals[0].pos, task.terminals[0].layer);
    st.route.segments.push_back({b, {b.x, b.y, ml}});
  }
  bool ok = true;

  // Connect remaining terminals nearest-first (Prim-like order).
  std::vector<std::size_t> remaining;
  for (std::size_t k = 1; k < task.terminals.size(); ++k) remaining.push_back(k);
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) {
                     return util::manhattan(task.terminals[a].pos,
                                            task.terminals[0].pos) <
                            util::manhattan(task.terminals[b].pos,
                                            task.terminals[0].pos);
                   });

  for (const std::size_t k : remaining) {
    const Terminal& term = task.terminals[k];
    const GridPoint entry_pin = grid.snap(term.pos, term.layer);
    const GridPoint entry{entry_pin.x, entry_pin.y, std::max(entry_pin.layer, ml)};
    const std::size_t entry_idx = grid.index(entry);

    // Degenerate: terminal already on the tree.
    if (!s.tree_has(entry_idx)) {
      const std::size_t hit = s.search(entry_idx, ml);
      if (hit == Searcher::npos) {
        ok = false;
        continue;
      }
      const auto path = s.backtrack(hit);
      emit_segments(grid, path, st.route.segments);
      // path runs hit -> ... -> entry (backtrack order); add all to tree.
      for (const auto nidx : path) s.tree_add(nidx);
    }
    // Terminal via stack (pin layer up to the entry layer).
    if (entry.layer > entry_pin.layer) {
      st.route.segments.push_back({entry_pin, entry});
      for (int l = entry_pin.layer; l <= entry.layer; ++l)
        s.tree_add(grid.index({entry.x, entry.y, l}));
    }
  }

  st.route.success = ok;
  // Pin-layer nodes at the terminals do not consume routing capacity:
  // pin access is already accounted in the per-layer capacity derate, and
  // several pins legitimately share one gcell. Everything else does.
  std::vector<std::size_t> pin_nodes;
  for (const auto& term : task.terminals)
    pin_nodes.push_back(grid.index(grid.snap(term.pos, term.layer)));
  std::sort(pin_nodes.begin(), pin_nodes.end());
  for (const auto nidx : s.tree())
    if (!std::binary_search(pin_nodes.begin(), pin_nodes.end(), nidx))
      st.nodes.push_back(nidx);
}

}  // namespace

RoutingResult Router::route(const std::vector<RouteTask>& tasks,
                            const util::Rect& die,
                            const MetalStack& stack) const {
  RoutingResult result;
  result.grid = RouteGrid(die, opts_.gcell_um, stack.num_layers());
  const RouteGrid& grid = result.grid;
  CongestionState cong(grid, stack, opts_);

  std::vector<TaskState> state(tasks.size());

  // Fixed net order: short nets first (they have the least flexibility).
  // This is simultaneously the greedy-keep order and the commit order, so
  // the whole negotiation is a pure function of (tasks, options).
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto task_span = [&](const RouteTask& t) {
    util::Rect box = util::Rect::around(t.terminals.empty() ? Point{}
                                                            : t.terminals[0].pos);
    for (const auto& term : t.terminals) box.expand(term.pos);
    return box.half_perimeter();
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return task_span(tasks[a]) < task_span(tasks[b]);
  });

  const std::size_t jobs = util::resolve_jobs(opts_.jobs, tasks.size());
  SearcherPool searchers(grid, stack, opts_, cong);

  // Per-net clipped search windows (terminal bbox + bbox_margin, a
  // property of the *problem*, computed once up front) and a work estimate
  // for cutline balancing.
  const util::GridRect grid_rect{0, 0, grid.nx() - 1, grid.ny() - 1};
  std::vector<util::GridRect> window(tasks.size());
  std::vector<std::uint64_t> work(tasks.size());
  const std::int32_t margin =
      static_cast<std::int32_t>(std::max(0, opts_.bbox_margin));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    util::GridRect b;
    for (const auto& term : tasks[i].terminals) {
      const GridPoint g = grid.snap(term.pos, term.layer);
      b.expand(g.x, g.y);
    }
    if (b.empty()) b = util::GridRect::around(0, 0);
    // A* cost scales with the connection count and the bbox span.
    work[i] = (static_cast<std::uint64_t>(b.half_perimeter()) + 1) *
              std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(tasks[i].terminals.size()) - 1);
    window[i] = b.inflated(margin).clamped(grid_rect);
  }

  // Tree depth at which parallel tasks fan out: deep enough for ~4 tasks
  // per worker, clamped to the tree's own depth; 0 at one worker, so the
  // whole tree is one inline post-order task. Pure scheduling: any depth
  // yields the same routes (see run_subtree's order argument below).
  auto spawn_depth = [&](int tree_depth) {
    if (jobs == 1) return 0;
    int d = 0;
    while (d < tree_depth && (std::size_t{1} << d) < 4 * jobs) ++d;
    return d;
  };

  // Route one net inside its window and commit immediately: *live*
  // congestion. Safe concurrently across sibling subtrees — a net
  // reads and writes usage only inside its own window, which the tree
  // keeps inside its node's region, and sibling regions are disjoint.
  auto route_one_live = [&](std::size_t ti, Searcher& s) {
    s.set_net(util::task_seed(opts_.seed, ti));
    s.set_window(window[ti]);
    route_net(grid, tasks[ti], s, state[ti]);
    for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, 1);
  };

  // One negotiation round under the tree scheduler. Determinism argument:
  // the only net pairs that can observe each other's usage are pairs with
  // overlapping windows, and such pairs always sit on one root-to-leaf
  // path (same node, or ancestor/descendant — siblings' regions are
  // disjoint, so their nets' windows cannot overlap). Any execution that
  // (a) routes each node's nets in their fixed stored order and (b)
  // finishes both child subtrees before the node's own cutline-crossing
  // nets therefore produces identical routes — sequential post-order,
  // level-synchronous parallel, and every fan-out depth in between.
  auto route_batch = [&](const std::vector<std::size_t>& ripped) {
    if (ripped.empty()) return;
    std::vector<PartitionNet> pnets;
    pnets.reserve(ripped.size());
    for (const auto ti : ripped) pnets.push_back({ti, window[ti], work[ti]});
    const PartitionTree tree(grid_rect, std::move(pnets));

    auto run_node = [&](const PartitionNode& n, Searcher& s) {
      for (const auto idx : n.nets) route_one_live(tree.nets()[idx].task, s);
    };
    // Sequential post-order over a whole subtree: children first, then the
    // node's crossing nets — property (b) above, single-threaded.
    auto run_subtree = [&](int root, Searcher& s) {
      struct Frame {
        int node;
        bool expanded;
      };
      std::vector<Frame> stack{{root, false}};
      while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        const PartitionNode& n = tree.nodes()[static_cast<std::size_t>(f.node)];
        if (f.expanded || n.is_leaf()) {
          run_node(n, s);
          continue;
        }
        stack.push_back({f.node, true});
        if (n.right >= 0) stack.push_back({n.right, false});
        if (n.left >= 0) stack.push_back({n.left, false});
      }
    };

    // One batch per level, bottom-up from the fan-out depth. There every
    // maximal subtree is one sequential task, and the tasks run
    // concurrently (disjoint regions). Above it each node is one task; its
    // children live at the next deeper level, so they are committed — the
    // parallel_for join sequences the batches.
    const int fan = spawn_depth(tree.depth());
    for (int level = fan; level >= 0; --level) {
      const auto& ids = tree.level(level);
      util::parallel_for(jobs, ids.size(), [&](std::size_t k) {
        auto s = searchers.acquire();
        if (level == fan)
          run_subtree(ids[k], *s);
        else
          run_node(tree.nodes()[static_cast<std::size_t>(ids[k])], *s);
        searchers.release(std::move(s));
      });
    }

    // Clipping can make a routable net fail (a forced detour past the
    // margin). Retry those serially with the full grid, in fixed net order
    // after everything else committed — same schedule for any jobs.
    bool any_failed = false;
    for (const auto ti : ripped) any_failed |= !state[ti].route.success;
    if (any_failed) {
      auto s = searchers.acquire();
      s->set_window(grid_rect);
      for (const auto ti : ripped) {
        if (state[ti].route.success) continue;
        for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, -1);
        s->set_net(util::task_seed(opts_.seed, ti));
        route_net(grid, tasks[ti], *s, state[ti]);
        for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, 1);
      }
      searchers.release(std::move(s));
    }
  };

  // Round 0: route everything.
  std::vector<std::size_t> ripped = order;
  route_batch(ripped);

  // Negotiated congestion: keep nets greedily up to each node's capacity
  // (in commit order), rip the excess, re-route the ripped nets through the
  // partition tree against the kept usage + bumped history, repeat. Unlike
  // rip-everything-overflowing, the kept nets pin the tracks they legally
  // fill, so re-routed nets see full tracks as expensive and spread instead
  // of oscillating in lockstep.
  for (int pass = 1; pass < opts_.passes; ++pass) {
    if (cong.count_overflow() == 0) break;
    cong.bump_history();
    cong.set_pressure(1.0 + static_cast<double>(pass));

    ripped.clear();
    cong.clear_usage();
    for (const auto ti : order) {
      TaskState& st = state[ti];
      bool rip = !st.route.success;
      if (!rip) {
        for (const auto nidx : st.nodes) {
          if (!cong.fits(nidx, grid.at(nidx).layer)) {
            rip = true;
            break;
          }
        }
      }
      if (rip) {
        st.nodes.clear();
        st.route.segments.clear();
        ripped.push_back(ti);
      } else {
        for (const auto nidx : st.nodes) cong.add_usage(nidx, 1);
      }
    }
    route_batch(ripped);
  }

  result.routes.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    result.routes[i] = std::move(state[i].route);
  result.stats = collect_stats(grid, result.routes);
  result.stats.overflowed_gcells = cong.count_overflow();
  result.work = searchers.work();
  return result;
}

}  // namespace sm::route
