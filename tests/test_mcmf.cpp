// Min-cost max-flow kernel tests (the matching engine of the network-flow
// proximity attack): cold-solve correctness, the incremental warm-start API
// (remove_edge/update_edge/resolve), the randomized cold==warm equality
// harnesses the warm-start determinism contract rests on, and work bounds
// that keep the solver's searches local at attack scale.
#include "attack/mcmf.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using sm::attack::MinCostFlow;

/// One edge of a network as built, mirrored outside the solver so a cold
/// reference can be rebuilt from the final state.
struct Spec {
  int from, to, cap;
  double cost;
};

/// Integer-valued doubles, base * 2^28 + 28 random low bits (the warm-start
/// contract's domain, as the attack builds them): exact arithmetic
/// throughout the solver, unique optimum w.p. 1 - edges/2^28 per network
/// (isolation lemma).
double salted_cost(sm::util::Rng& rng, std::uint64_t base_bound) {
  const double base = static_cast<double>(rng.below(base_bound));
  const double tie = static_cast<double>(rng.below(1u << 28));
  return base * 268435456.0 + tie;
}

/// Bitwise comparison of `warm` against a cold solver built directly on
/// the final network `specs` (terminals 0 and 1): equal flow, equal cost
/// and equal flow on every edge, plus feasibility invariants that hold
/// independently of the cold reference.
void expect_cold_equals_warm(const MinCostFlow& warm,
                             const std::vector<Spec>& specs, int n,
                             int budget, const std::string& label) {
  constexpr int S = 0, T = 1;
  MinCostFlow cold(n);
  for (const auto& s : specs) cold.add_edge(s.from, s.to, s.cap, s.cost);
  const auto [cf, cc] = cold.solve(S, T, budget);
  EXPECT_EQ(cf, warm.flow()) << label;
  EXPECT_EQ(cc, warm.cost()) << label;
  for (std::size_t id = 0; id < specs.size(); ++id)
    ASSERT_EQ(cold.flow_on(static_cast<int>(id)),
              warm.flow_on(static_cast<int>(id)))
        << label << " edge " << id;
  std::vector<int> net(static_cast<std::size_t>(n), 0);
  for (std::size_t id = 0; id < specs.size(); ++id) {
    const int fl = warm.flow_on(static_cast<int>(id));
    ASSERT_GE(fl, 0);
    ASSERT_LE(fl, specs[id].cap);
    net[static_cast<std::size_t>(specs[id].from)] -= fl;
    net[static_cast<std::size_t>(specs[id].to)] += fl;
  }
  ASSERT_EQ(net[static_cast<std::size_t>(T)], warm.flow()) << label;
  ASSERT_EQ(net[static_cast<std::size_t>(S)], -warm.flow()) << label;
  for (int v = 2; v < n; ++v)
    ASSERT_EQ(net[static_cast<std::size_t>(v)], 0) << label << " node " << v;
}

TEST(Mcmf, SimplePath) {
  MinCostFlow f(3);
  const int e0 = f.add_edge(0, 1, 2, 1.0);
  const int e1 = f.add_edge(1, 2, 2, 1.0);
  const auto [flow, cost] = f.solve(0, 2, 5);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 4.0);
  EXPECT_EQ(f.flow_on(e0), 2);
  EXPECT_EQ(f.flow_on(e1), 2);
}

TEST(Mcmf, PrefersCheaperPath) {
  // 0 -> 1 -> 3 (cost 2) and 0 -> 2 -> 3 (cost 10); one unit should take the
  // cheap route.
  MinCostFlow f(4);
  const int cheap1 = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  const int rich1 = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 3, 1, 5.0);
  const auto [flow, cost] = f.solve(0, 3, 1);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(cheap1), 1);
  EXPECT_EQ(f.flow_on(rich1), 0);
}

TEST(Mcmf, OptimalAssignmentBeatsGreedy) {
  // Assignment where greedy nearest-first is suboptimal:
  //   sinks {A, B}, drivers {X, Y}; costs A-X=1, A-Y=2, B-X=1.5, B-Y=100.
  // Greedy takes A-X (1) then B-Y (100) = 101; optimal is A-Y + B-X = 3.5.
  MinCostFlow f(6);  // 0=s, 1=A, 2=B, 3=X, 4=Y, 5=t
  f.add_edge(0, 1, 1, 0);
  f.add_edge(0, 2, 1, 0);
  const int ax = f.add_edge(1, 3, 1, 1.0);
  const int ay = f.add_edge(1, 4, 1, 2.0);
  const int bx = f.add_edge(2, 3, 1, 1.5);
  const int by = f.add_edge(2, 4, 1, 100.0);
  f.add_edge(3, 5, 1, 0);
  f.add_edge(4, 5, 1, 0);
  const auto [flow, cost] = f.solve(0, 5, 2);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 3.5);
  EXPECT_EQ(f.flow_on(ay), 1);
  EXPECT_EQ(f.flow_on(bx), 1);
  EXPECT_EQ(f.flow_on(ax), 0);
  EXPECT_EQ(f.flow_on(by), 0);
}

TEST(Mcmf, RespectsCapacities) {
  // One driver with capacity 2 must not absorb 3 sinks.
  MinCostFlow f(6);  // 0=s, 1..3=sinks, 4=driver, 5=t
  for (int i = 1; i <= 3; ++i) {
    f.add_edge(0, i, 1, 0);
    f.add_edge(i, 4, 1, 1.0);
  }
  f.add_edge(4, 5, 2, 0);
  const auto [flow, cost] = f.solve(0, 5, 3);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 2.0);
}

TEST(Mcmf, DisconnectedReturnsPartialFlow) {
  MinCostFlow f(4);
  f.add_edge(0, 1, 1, 1.0);
  // node 2, 3 unreachable
  const auto [flow, cost] = f.solve(0, 3, 1);
  EXPECT_EQ(flow, 0);
  EXPECT_DOUBLE_EQ(cost, 0.0);
}

TEST(Mcmf, NegativePreferenceViaResiduals) {
  // Rerouting: first unit takes the cheap middle edge; the second must
  // reroute around it. Classic flow-cancellation correctness check.
  //   s=0, t=3; edges: 0->1 (2, c1), 1->3 (1, c1), 0->2 (1, c3),
  //   1->2 (1, c0), 2->3 (2, c1).
  MinCostFlow f(4);
  f.add_edge(0, 1, 2, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  f.add_edge(0, 2, 1, 3.0);
  f.add_edge(1, 2, 1, 0.0);
  f.add_edge(2, 3, 2, 1.0);
  const auto [flow, cost] = f.solve(0, 3, 3);
  EXPECT_EQ(flow, 3);
  // min cost: unit1 0-1-3 (2), unit2 0-1-2-3 (2), unit3 0-2-3 (4) = 8.
  EXPECT_DOUBLE_EQ(cost, 8.0);
}

TEST(Mcmf, MaxFlowSmallerThanSaturation) {
  // The network could carry 3 units; a budget of 1 must route exactly the
  // single cheapest unit and leave the rest of the capacity untouched.
  MinCostFlow f(5);  // 0=s, 1..2=mid, 4=t
  const int cheap = f.add_edge(0, 1, 2, 1.0);
  f.add_edge(1, 4, 2, 1.0);
  const int rich = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 4, 1, 5.0);
  const auto [flow, cost] = f.solve(0, 4, 1);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(cheap), 1);
  EXPECT_EQ(f.flow_on(rich), 0);
}

TEST(Mcmf, SolveBudgetAccumulates) {
  // Two solve(s, t, 1) calls equal one solve(s, t, 2): the budget is
  // cumulative and each call only routes the *additional* units.
  MinCostFlow inc(5);
  MinCostFlow once(5);
  for (MinCostFlow* f : {&inc, &once}) {
    f->add_edge(0, 1, 2, 1.0);
    f->add_edge(1, 4, 2, 1.0);
    f->add_edge(0, 2, 1, 5.0);
    f->add_edge(2, 4, 1, 5.0);
  }
  inc.solve(0, 4, 1);
  const auto [fi, ci] = inc.solve(0, 4, 1);
  const auto [fo, co] = once.solve(0, 4, 2);
  EXPECT_EQ(fi, fo);
  EXPECT_EQ(ci, co);  // identical flows => identical edge-order cost sum
}

TEST(Mcmf, ZeroCapacityArcsAreInert) {
  // Zero-capacity arcs (pre-solve and post-solve) never carry flow and
  // never divert the search, however cheap they claim to be.
  MinCostFlow f(4);
  const int dead = f.add_edge(0, 2, 0, -100.0);
  const int a = f.add_edge(0, 1, 1, 1.0);
  const int b = f.add_edge(1, 3, 1, 1.0);
  const int dead2 = f.add_edge(2, 3, 0, -100.0);
  const auto [flow, cost] = f.solve(0, 3, 2);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(dead), 0);
  EXPECT_EQ(f.flow_on(dead2), 0);
  const int dead3 = f.add_edge(0, 3, 0, -100.0);  // post-solve, still cap 0
  const auto [flow2, cost2] = f.resolve();
  EXPECT_EQ(flow2, 1);
  EXPECT_DOUBLE_EQ(cost2, 2.0);
  EXPECT_EQ(f.flow_on(dead3), 0);
  EXPECT_EQ(f.flow_on(a), 1);
  EXPECT_EQ(f.flow_on(b), 1);
}

TEST(Mcmf, RemoveEdgeReroutesWarm) {
  // Remove the carrying edge after a solve; resolve() must re-route onto
  // the expensive path and report the same totals as a cold solve of the
  // reduced network.
  MinCostFlow f(4);
  const int cheap = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  const int rich = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 3, 1, 5.0);
  f.solve(0, 3, 1);
  ASSERT_EQ(f.flow_on(cheap), 1);
  f.remove_edge(cheap);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 10.0);
  EXPECT_EQ(f.flow_on(cheap), 0);
  EXPECT_EQ(f.flow_on(rich), 1);
}

TEST(Mcmf, RemoveLastPathDropsFlow) {
  // When no alternative path exists the delivered flow itself must shrink
  // (the repair routes the sink-side deficit back from t).
  MinCostFlow f(3);
  const int e = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 2, 1, 1.0);
  f.solve(0, 2, 1);
  f.remove_edge(e);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 0);
  EXPECT_DOUBLE_EQ(cost, 0.0);
}

TEST(Mcmf, UpdateEdgeNegativeReducedCostResidual) {
  // Post-solve cost updates that flip residual reduced costs negative (both
  // directions: a now-attractive empty arc, and a now-overpriced carrying
  // arc) must leave resolve() at the cold optimum of the updated network.
  MinCostFlow f(4);
  const int top = f.add_edge(0, 1, 1, 1.0);
  const int top2 = f.add_edge(1, 3, 1, 1.0);
  const int bot = f.add_edge(0, 2, 1, 5.0);
  const int bot2 = f.add_edge(2, 3, 1, 5.0);
  f.solve(0, 3, 1);
  ASSERT_EQ(f.flow_on(top), 1);
  // Make the carried path expensive and the empty one attractive — the
  // updated forward arc 0->2 now has negative reduced cost against the old
  // potentials, and the reverse of 0->1 does as well.
  f.update_edge(top, 1, 50.0);
  f.update_edge(bot, 1, 0.5);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 5.5);
  EXPECT_EQ(f.flow_on(top), 0);
  EXPECT_EQ(f.flow_on(top2), 0);
  EXPECT_EQ(f.flow_on(bot), 1);
  EXPECT_EQ(f.flow_on(bot2), 1);
}

TEST(Mcmf, CapacityBelowFlowPushesOverhangBack) {
  // Shrinking a carrying edge below its flow must shed exactly the
  // overhang; the remaining capacity keeps flowing.
  MinCostFlow f(3);
  const int e0 = f.add_edge(0, 1, 3, 1.0);
  const int e1 = f.add_edge(1, 2, 3, 1.0);
  f.solve(0, 2, 3);
  ASSERT_EQ(f.flow_on(e0), 3);
  f.update_edge(e0, 1, 1.0);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(e0), 1);
  EXPECT_EQ(f.flow_on(e1), 1);
}

TEST(Mcmf, AddEdgeAfterSolveParticipates) {
  // A cheaper edge added post-solve (negative reduced cost on arrival) must
  // take over the unit on resolve().
  MinCostFlow f(4);
  const int rich = f.add_edge(0, 2, 1, 5.0);
  const int rich2 = f.add_edge(2, 3, 1, 5.0);
  f.solve(0, 3, 1);
  ASSERT_EQ(f.flow_on(rich), 1);
  const int cheap = f.add_edge(0, 1, 1, 1.0);
  const int cheap2 = f.add_edge(1, 3, 1, 1.0);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(cheap), 1);
  EXPECT_EQ(f.flow_on(cheap2), 1);
  EXPECT_EQ(f.flow_on(rich), 0);
  EXPECT_EQ(f.flow_on(rich2), 0);
}

TEST(Mcmf, NegativeCostEdgesSolveCold) {
  // Pre-solve negative costs route through the Bellman-Ford potential
  // bootstrap (the graph is acyclic, so no negative cycle exists).
  MinCostFlow f(3);
  f.add_edge(0, 1, 1, -5.0);
  f.add_edge(1, 2, 1, 1.0);
  const auto [flow, cost] = f.solve(0, 2, 1);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, -4.0);
}

TEST(Mcmf, NegativeCycleThrows) {
  MinCostFlow f(3);
  f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 2, 1, -3.0);
  f.add_edge(2, 1, 1, 1.0);  // 1 -> 2 -> 1 costs -2
  EXPECT_THROW(f.solve(0, 2, 1), std::logic_error);
}

TEST(Mcmf, ApiMisuseThrows) {
  MinCostFlow f(3);
  const int e = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 2, 1, 1.0);
  EXPECT_THROW(f.resolve(), std::logic_error);       // resolve before solve
  EXPECT_THROW(f.solve(0, 0, 1), std::invalid_argument);  // s == t
  EXPECT_THROW(f.update_edge(e, -1, 1.0), std::invalid_argument);
  f.solve(0, 2, 1);
  EXPECT_THROW(f.solve(1, 2, 1), std::logic_error);  // terminals are fixed
}

// The cold==warm equality harness: random assignment-shaped networks, a
// random history of post-solve perturbations (edge removals, capacity and
// cost updates, late edge additions, extra budget), then a bitwise
// comparison of the warm solver's final state against a cold solver built
// directly on the final network. Not merely equal cost — every edge's flow
// must match, which is the property the attack's loop-repair rounds rely
// on. Costs follow the warm-start contract's integer-exact domain (as the
// attack's do): a random integer base in the high bits plus 28 random
// tie-break bits in the low bits, so every sum the solver forms is an
// exact integer below 2^53 and the optimum is unique by the isolation
// lemma — which search order reaches it has nothing left to decide.
TEST(Mcmf, RandomizedColdEqualsWarm) {
  constexpr int kTrials = 1200;
  std::size_t perturbations = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    sm::util::Rng rng(0x12345678ULL + static_cast<std::uint64_t>(trial));
    const int ns = static_cast<int>(rng.range(1, 10));
    const int nd = static_cast<int>(rng.range(1, 6));
    const int n = 2 + ns + nd;
    const int S = 0, T = 1;
    const auto sink_node = [&](int si) { return 2 + si; };
    const auto drv_node = [&](int di) { return 2 + ns + di; };

    std::vector<Spec> specs;
    MinCostFlow warm(n);
    const auto add = [&](int from, int to, int cap, double cost) {
      const int id = warm.add_edge(from, to, cap, cost);
      EXPECT_EQ(id, static_cast<int>(specs.size()));
      specs.push_back({from, to, cap, cost});
      return id;
    };
    const auto rand_cost = [&] { return salted_cost(rng, 1u << 10); };
    for (int si = 0; si < ns; ++si) add(S, sink_node(si), 1, 0.0);
    for (int di = 0; di < nd; ++di)
      add(drv_node(di), T, static_cast<int>(rng.range(0, 3)), 0.0);
    for (int si = 0; si < ns; ++si)
      for (int di = 0; di < nd; ++di) {
        if (rng.uniform() < 0.3) continue;  // sparse candidate lists
        add(sink_node(si), drv_node(di), static_cast<int>(rng.range(0, 2)),
            rand_cost());
      }

    int budget = static_cast<int>(rng.range(1, ns));
    warm.solve(S, T, budget);

    const int rounds = static_cast<int>(rng.range(1, 4));
    for (int round = 0; round < rounds; ++round) {
      const int ops = static_cast<int>(rng.range(1, 4));
      for (int op = 0; op < ops; ++op, ++perturbations) {
        switch (rng.range(0, 3)) {
          case 0: {  // remove a random edge (capacity 0, cost kept)
            const auto id = static_cast<std::size_t>(
                rng.below(specs.size()));
            warm.remove_edge(static_cast<int>(id));
            specs[id].cap = 0;
            break;
          }
          case 1: {  // re-cost / re-size a random edge
            const auto id = static_cast<std::size_t>(
                rng.below(specs.size()));
            const int cap = static_cast<int>(rng.range(0, 3));
            // Occasionally negative: the graph is a DAG, so any cost sign
            // is cycle-safe, and negative reduced costs must saturate.
            // The offset is itself an exact integer so the cost domain
            // stays integer-valued.
            const double cost =
                rand_cost() - (rng.uniform() < 0.2 ? 50.0 * 268435456.0 : 0.0);
            warm.update_edge(static_cast<int>(id), cap, cost);
            specs[id].cap = cap;
            specs[id].cost = cost;
            break;
          }
          case 2: {  // late candidate edge
            const int si = static_cast<int>(rng.range(0, ns - 1));
            const int di = static_cast<int>(rng.range(0, nd - 1));
            add(sink_node(si), drv_node(di),
                static_cast<int>(rng.range(0, 2)), rand_cost());
            break;
          }
          default: {  // grow the budget
            const int extra = static_cast<int>(rng.range(1, 2));
            budget += extra;
            warm.solve(S, T, extra);
            break;
          }
        }
      }
      warm.resolve();
    }

    expect_cold_equals_warm(warm, specs, n, budget,
                            "trial " + std::to_string(trial));
  }
  // The harness must actually exercise the incremental API at scale.
  EXPECT_GE(perturbations, 1000u);
}

// Attack-scale cold==warm: networks the size of real loop-repair instances
// (ns 50-300, nd 30-200, 8-16 candidates per sink) with driver -> t
// capacities of 1-3, so the delivered flow forms the zero-reduced-cost
// plateau around t that the early-stop rule short-cuts. Every round knocks
// out about a quarter of the flow-carrying candidate arcs, as the attack's
// loop repair does, and the warm state must equal a cold rebuild edge for
// edge after each resolve().
TEST(Mcmf, AttackScaleColdEqualsWarm) {
  constexpr int kTrials = 50;
  constexpr int S = 0, T = 1;
  std::size_t removals = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    sm::util::Rng rng(0xa77ac4ULL + static_cast<std::uint64_t>(trial));
    const int ns = static_cast<int>(rng.range(50, 300));
    const int nd = static_cast<int>(rng.range(30, 200));
    const int k = static_cast<int>(rng.range(8, 16));
    const int n = 2 + ns + nd;

    std::vector<Spec> specs;
    MinCostFlow warm(n);
    const auto add = [&](int from, int to, int cap, double cost) {
      specs.push_back({from, to, cap, cost});
      return warm.add_edge(from, to, cap, cost);
    };
    for (int si = 0; si < ns; ++si) add(S, 2 + si, 1, 0.0);
    for (int di = 0; di < nd; ++di)
      add(2 + ns + di, T, static_cast<int>(rng.range(1, 3)), 0.0);
    std::vector<int> candidates;
    for (int si = 0; si < ns; ++si)
      for (int c = 0; c < k; ++c) {
        const int di =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(nd)));
        candidates.push_back(
            add(2 + si, 2 + ns + di, 1, salted_cost(rng, 1u << 12)));
      }
    warm.solve(S, T, ns);

    const int rounds = static_cast<int>(rng.range(2, 5));
    for (int round = 0; round < rounds; ++round) {
      for (const int id : candidates)
        if (warm.flow_on(id) > 0 && rng.below(4) == 0) {
          warm.remove_edge(id);
          specs[static_cast<std::size_t>(id)].cap = 0;
          ++removals;
        }
      warm.resolve();
      expect_cold_equals_warm(
          warm, specs, n, ns,
          "trial " + std::to_string(trial) + " round " + std::to_string(round));
    }
  }
  EXPECT_GE(removals, 2000u);
}

// Work bounds at attack scale, read from the solver's deterministic
// counters so they hold on any host. A cold solve of a 2000-sink
// assignment network (16 salted candidates per sink among nearby
// capacity-2 drivers) must settle fewer than 30 nodes per sink; it settles
// about 12, where the solver without tightening first popped each
// still-open sink on every search — all at reduced distance 0 behind
// their 0-cost source arcs — about 2.0M pops in all. A loop-repair-style
// resolve() that knocks out 60 flow-carrying arcs must stay under 100
// pops per arc (about 350 in all, against 77k when every repair search
// popped the zero-cost plateau of drivers around t).
TEST(Mcmf, WorkStaysLinearAtAttackScale) {
  constexpr int kSinks = 2000, kDrivers = 3000, kCandidates = 16;
  constexpr int kRemoved = 60;
  constexpr int S = 0, T = 1;
  constexpr int n = 2 + kSinks + kDrivers;
  sm::util::Rng rng(0x5ca1eULL);
  std::vector<Spec> specs;
  MinCostFlow flow(n);
  const auto add = [&](int from, int to, int cap, double cost) {
    specs.push_back({from, to, cap, cost});
    return flow.add_edge(from, to, cap, cost);
  };
  for (int si = 0; si < kSinks; ++si) add(S, 2 + si, 1, 0.0);
  for (int di = 0; di < kDrivers; ++di) add(2 + kSinks + di, T, 2, 0.0);
  std::vector<int> candidates;
  for (int si = 0; si < kSinks; ++si) {
    // Spatial locality: sink si sits near driver si * nd / ns, and the
    // geometric base cost grows with the offset.
    const int center = si * kDrivers / kSinks;
    for (int c = 0; c < kCandidates; ++c) {
      const int offset = static_cast<int>(rng.range(-24, 24));
      const int di = (center + offset + kDrivers) % kDrivers;
      const double base =
          static_cast<double>((offset < 0 ? -offset : offset) * 16) +
          static_cast<double>(rng.below(16));
      const double cost =
          base * 268435456.0 + static_cast<double>(rng.below(1u << 28));
      candidates.push_back(add(2 + si, 2 + kSinks + di, 1, cost));
    }
  }
  flow.solve(S, T, kSinks);
  const MinCostFlow::Stats cold = flow.stats();
  EXPECT_EQ(flow.flow(), kSinks);
  EXPECT_EQ(cold.tightens, 1u);
  EXPECT_LT(cold.pops, 30u * kSinks) << "cold solve went quadratic";

  // The flow-carrying arcs among every 20th candidate, 60 in all.
  int removed = 0;
  for (std::size_t i = 0; i < candidates.size() && removed < kRemoved; ++i) {
    const int id = candidates[i];
    if (flow.flow_on(id) == 0 || i % 20 != 0) continue;
    flow.remove_edge(id);
    specs[static_cast<std::size_t>(id)].cap = 0;
    ++removed;
  }
  ASSERT_EQ(removed, kRemoved);
  flow.resolve();
  const std::uint64_t repair_pops = flow.stats().pops - cold.pops;
  EXPECT_LT(repair_pops, 100u * kRemoved) << "repair searches went global";
  expect_cold_equals_warm(flow, specs, n, kSinks, "attack-scale repair");
}

}  // namespace
