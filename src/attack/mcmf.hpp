// Min-cost max-flow via successive shortest paths over Johnson-reduced
// costs (Dijkstra on a 4-ary heap), used by the network-flow proximity
// attack to assign sink fragments to driver fragments at least total cost —
// the formulation of Wang et al. [5].
//
// With node potentials every residual arc keeps a non-negative reduced
// cost, so each augmentation is one early-terminating Dijkstra. Two rules
// keep those searches local on the attack's assignment-shaped network,
// where every s -> sink and driver -> t arc costs 0 and would otherwise
// form zero-reduced-cost plateaus that a search pops node by node:
//   * Tightening: before augmenting two or more units, one reverse
//     Dijkstra from t sets pi -= (reduced distance to t), so every node's
//     reduced distance to t becomes 0 and each search toward t is an A*
//     search with an exact heuristic — it walks the shortest path instead
//     of popping every open sink.
//   * Early stop: a search ends the moment it relaxes a target at the
//     distance currently being popped; that distance is already final.
//
// Incremental API: after a solve(), remove_edge()/update_edge() may perturb
// individual arcs and resolve() repairs the flow *warm* — only the
// imbalances the perturbations created are re-routed, and the potentials
// carry over. Cold re-solves of the same final network and warm repairs
// produce identical assignments (not merely equal cost) whenever the
// min-cost flow is unique: every augmentation runs along a shortest path,
// so both reach the optimum, and a unique optimum leaves them nothing to
// disagree on. The attack makes the optimum unique with integer-exact
// salted costs. The contract (and what invalidates the potentials) is
// documented in ARCHITECTURE.md, "MCMF warm-start contract", and enforced
// by the randomized cold-vs-warm harness in tests/test_mcmf.cpp plus the
// real attack rigs in tests/test_attack.cpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sm::attack {

class MinCostFlow {
 public:
  explicit MinCostFlow(int num_nodes);

  /// Add a directed edge with capacity and cost; returns the edge id.
  /// Edges added after a solve() participate from the next resolve()/
  /// solve() on (a post-solve edge whose reduced cost is already negative
  /// is saturated immediately to keep the potentials valid).
  int add_edge(int from, int to, int capacity, double cost);

  /// Send up to `max_flow` *additional* units from s to t; returns the
  /// total (flow, cost) over the edge set. Repeated calls must keep the
  /// same terminals. Throws std::logic_error on a negative-cost cycle.
  std::pair<int, double> solve(int s, int t, int max_flow);

  /// Flow currently on edge `id` (forward direction).
  int flow_on(int id) const;

  // ---- Incremental (warm-start) API — valid after a solve() ----

  /// Drop edge `id` (capacity 0, cost kept). Flow it carried becomes an
  /// excess/deficit imbalance that the next resolve() re-routes.
  void remove_edge(int id);

  /// Change capacity and cost of edge `id`. Capacity below the current
  /// flow pushes the overhang back as an imbalance; a cost change that
  /// turns a residual arc's reduced cost negative saturates (or drains)
  /// the arc so the potentials invariant survives until resolve().
  void update_edge(int id, int capacity, double cost);

  /// Repair all outstanding imbalances along shortest reduced-cost paths
  /// and re-augment toward the accumulated solve() target; returns the
  /// total (flow, cost), identical to a cold re-solve of the same network.
  std::pair<int, double> resolve();

  int flow() const { return flow_; }
  double cost() const;  ///< Σ flow·cost over edges, recomputed exactly

  /// Deterministic work counters, cumulative over this solver's lifetime
  /// (per instance, so concurrent attacks never share them).
  struct Stats {
    std::uint64_t searches = 0;  ///< forward shortest-path searches
    std::uint64_t pops = 0;      ///< nodes popped by searches and tightens
    std::uint64_t tightens = 0;  ///< reverse tightening passes
  };
  const Stats& stats() const { return stats_; }

 private:
  /// One residual arc; arcs_[2*id] is edge id's forward arc, arcs_[2*id+1]
  /// its reverse (so `a ^ 1` pairs them and arcs_[a ^ 1].to is a's tail).
  struct Arc {
    int to;
    int cap;  ///< residual capacity (reverse arc's cap == pushed flow)
    double cost;
  };

  double reduced_cost(int arc) const;
  void bellman_ford_init();
  /// Clear the previous search's scratch (sparsely, via touched_).
  void reset_search();
  void heap_push(double d, int v);
  std::pair<double, int> heap_pop();
  /// Dijkstra over reduced costs from `sources` until a target settles:
  /// either a node satisfying `is_target` pops, or one is relaxed at the
  /// distance currently being popped (final, since nothing in the heap is
  /// closer). Returns that node or -1. On success (unless the caller
  /// defers it for a blocking phase) applies apply_potentials(found).
  template <class IsTarget>
  int dijkstra(const int* sources, int num_sources, IsTarget is_target,
               bool update_pi = true);
  /// Shifted Johnson update over the last search: pi[v] += dist[v] -
  /// dist[target] for scanned nodes — a uniform offset of the classic
  /// capped rule (offsets cancel in every reduced cost), keeping the
  /// update O(scanned) instead of O(nodes).
  void apply_potentials(int target);
  /// Reverse Dijkstra from t over reduced costs, then pi[v] -= d(v), the
  /// reduced distance from v to t; nodes that cannot reach t take the
  /// largest finite d. Reduced costs stay >= 0 (triangle inequality) and
  /// every shortest path to t becomes a zero-reduced-cost path.
  void tighten_potentials();
  /// Dinic-style blocking flow over the last search's bitwise shortest-
  /// path DAG (arcs with dist[u] + rc == dist[v], both endpoints scanned):
  /// saturates every admissible s->t path of the current shortest length
  /// at once, up to `budget` units. Runs BEFORE apply_potentials (the
  /// admissibility test needs the pre-update potentials). Returns the
  /// units pushed. This is the Hopcroft-Karp-style phase structure that
  /// makes assignment-shaped networks cheap: one Dijkstra per distinct
  /// path length instead of one per unit.
  int blocking_flow(int budget);
  /// Push up to `limit` units along prev_arc_ into `target`; returns the
  /// amount pushed (path bottleneck).
  int augment(int target, int limit);
  /// Saturate a residual arc whose reduced cost went negative, recording
  /// the resulting imbalance for resolve().
  void saturate(int arc);
  /// Fold s/t imbalances into flow_ (terminals are allowed any net flow).
  void normalize_terminals();
  /// Route non-terminal excesses/deficits, trim overshoot, re-augment to
  /// target_.
  void repair_and_augment();

  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> adj_;  ///< node -> arc ids, insertion order
  std::vector<double> pi_;             ///< Johnson potentials
  std::vector<long long> excess_;      ///< >0 surplus inflow, <0 deficit
  int s_ = -1, t_ = -1;
  int target_ = 0;  ///< accumulated solve() budget
  int flow_ = 0;    ///< units currently delivered to t_
  bool solved_ = false;
  bool has_negative_ = false;  ///< a pre-solve edge had negative cost

  // Dijkstra scratch, reset sparsely via touched_.
  std::vector<double> dist_;
  std::vector<int> prev_arc_;
  std::vector<char> scanned_;
  std::vector<int> touched_;
  std::vector<std::pair<double, int>> heap_;

  // blocking_flow() scratch (current-arc pointers, DFS path, cycle guard).
  std::vector<int> cur_arc_;
  std::vector<char> on_path_;
  std::vector<int> path_;

  Stats stats_;
};

}  // namespace sm::attack
