// Router tests: grid math, connectivity of produced routes, min-layer
// (lifting) constraints, via/wirelength accounting, congestion negotiation.
#include "core/baselines.hpp"
#include "core/pipeline.hpp"
#include "core/protect.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

namespace {

using namespace sm::route;
using sm::netlist::CellLibrary;
using sm::netlist::MetalStack;
using sm::util::GridPoint;
using sm::util::Point;
using sm::util::Rect;

TEST(RouteGridTest, IndexRoundTrip) {
  RouteGrid g(Rect{{0, 0}, {28, 14}}, 2.8, 10);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 5);
  for (int l = 1; l <= 10; ++l)
    for (int y = 0; y < g.ny(); ++y)
      for (int x = 0; x < g.nx(); ++x) {
        const GridPoint p{x, y, l};
        EXPECT_EQ(g.at(g.index(p)), p);
      }
}

TEST(RouteGridTest, SnapClampsToBounds) {
  RouteGrid g(Rect{{0, 0}, {28, 14}}, 2.8, 10);
  EXPECT_EQ(g.snap({-5, -5}, 1), (GridPoint{0, 0, 1}));
  EXPECT_EQ(g.snap({100, 100}, 12), (GridPoint{9, 4, 10}));
  const GridPoint mid = g.snap({14, 7}, 3);
  EXPECT_TRUE(g.in_bounds(mid));
}

TEST(RouteGridTest, CapacityTracksPitch) {
  RouteGrid g(Rect{{0, 0}, {28, 28}}, 2.8, 10);
  MetalStack stack;
  // Finer pitch at M3 gives more tracks than coarse M9.
  EXPECT_GT(g.capacity(stack, 3), g.capacity(stack, 9));
  EXPECT_GE(g.capacity(stack, 9), 1);
}

TEST(RouteGridTest, RejectsBadParameters) {
  EXPECT_THROW(RouteGrid(Rect{{0, 0}, {10, 10}}, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(RouteGrid(Rect{{0, 0}, {10, 10}}, 2.8, 1), std::invalid_argument);
}

/// Verify that a NetRoute's segments form one connected component that
/// touches the gcells of all terminals.
void check_connected(const RouteGrid& grid, const NetRoute& r,
                     const std::vector<Terminal>& terminals) {
  ASSERT_TRUE(r.success);
  // Expand segments into node sets.
  std::set<std::size_t> nodes;
  std::map<std::size_t, std::vector<std::size_t>> adj;
  auto link = [&](const GridPoint& a, const GridPoint& b) {
    const auto ia = grid.index(a), ib = grid.index(b);
    nodes.insert(ia);
    nodes.insert(ib);
    adj[ia].push_back(ib);
    adj[ib].push_back(ia);
  };
  for (const auto& seg : r.segments) {
    GridPoint cur = seg.a;
    while (!(cur == seg.b)) {
      GridPoint nxt = cur;
      if (cur.x != seg.b.x) nxt.x += (seg.b.x > cur.x) ? 1 : -1;
      else if (cur.y != seg.b.y) nxt.y += (seg.b.y > cur.y) ? 1 : -1;
      else nxt.layer += (seg.b.layer > cur.layer) ? 1 : -1;
      link(cur, nxt);
      cur = nxt;
    }
    nodes.insert(grid.index(seg.a));
  }
  ASSERT_FALSE(nodes.empty());
  // BFS from the first node.
  std::set<std::size_t> seen{*nodes.begin()};
  std::vector<std::size_t> stack{*nodes.begin()};
  while (!stack.empty()) {
    const auto n = stack.back();
    stack.pop_back();
    for (const auto m : adj[n])
      if (seen.insert(m).second) stack.push_back(m);
  }
  EXPECT_EQ(seen.size(), nodes.size()) << "route is disconnected";
  for (const auto& t : terminals) {
    const GridPoint pin = grid.snap(t.pos, t.layer);
    EXPECT_TRUE(seen.count(grid.index(pin)))
        << "terminal at " << pin << " not reached";
  }
}

class RouterTest : public ::testing::Test {
 protected:
  MetalStack stack;
  Rect die{{0, 0}, {56, 56}};
};

TEST_F(RouterTest, TwoPinNetStraightLine) {
  RouteTask t;
  t.net = 0;
  t.terminals = {{{5, 5}, 1}, {{45, 5}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_EQ(res.routes.size(), 1u);
  check_connected(res.grid, res.routes[0], t.terminals);
  // Mostly horizontal run: wirelength concentrated on few layers; via count
  // small (only pin access).
  EXPECT_GT(res.stats.total_wire_um(), 30.0);
  EXPECT_LT(res.stats.total_wire_um(), 80.0);
}

TEST_F(RouterTest, MultiPinNetConnectsAllTerminals) {
  RouteTask t;
  t.net = 7;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}, {{5, 45}, 1}, {{45, 5}, 1},
                 {{25, 25}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  check_connected(res.grid, res.routes[0], t.terminals);
}

TEST_F(RouterTest, MinLayerConstraintRespected) {
  RouteTask t;
  t.net = 1;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}};
  t.min_layer = 6;
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_TRUE(res.routes[0].success);
  check_connected(res.grid, res.routes[0], t.terminals);
  // All *wire* segments at or above M6; only via stacks below.
  for (const auto& seg : res.routes[0].segments) {
    if (!seg.is_via()) {
      EXPECT_GE(seg.a.layer, 6) << "wire below the lift layer";
    }
  }
  // Lifting forces vias through every layer boundary 1..6.
  for (int l = 1; l < 6; ++l) EXPECT_GE(res.stats.vias[static_cast<std::size_t>(l)], 2u);
}

TEST_F(RouterTest, UnconstrainedShortNetStaysLow) {
  RouteTask t;
  t.net = 2;
  t.terminals = {{{20, 20}, 1}, {{26, 20}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_TRUE(res.routes[0].success);
  double high_wire = 0, low_wire = 0;
  for (int l = 1; l <= 10; ++l) {
    if (l >= 5) high_wire += res.stats.wire_um[static_cast<std::size_t>(l)];
    else low_wire += res.stats.wire_um[static_cast<std::size_t>(l)];
  }
  EXPECT_EQ(high_wire, 0.0);  // via cost keeps a short net in M1-M4
  EXPECT_GT(low_wire, 0.0);
}

TEST_F(RouterTest, StatsViasMatchSegments) {
  RouteTask t;
  t.net = 3;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}};
  t.min_layer = 4;
  Router router;
  const auto res = router.route({t}, die, stack);
  const RoutingStats recomputed = collect_stats(res.grid, res.routes);
  EXPECT_EQ(recomputed.total_vias(), res.stats.total_vias());
  EXPECT_DOUBLE_EQ(recomputed.total_wire_um(), res.stats.total_wire_um());
}

TEST_F(RouterTest, DeterministicRouting) {
  std::vector<RouteTask> tasks;
  sm::util::Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    RouteTask t;
    t.net = static_cast<sm::netlist::NetId>(i);
    t.terminals = {{{rng.uniform(0, 56), rng.uniform(0, 56)}, 1},
                   {{rng.uniform(0, 56), rng.uniform(0, 56)}, 1}};
    tasks.push_back(std::move(t));
  }
  Router router;
  const auto a = router.route(tasks, die, stack);
  const auto b = router.route(tasks, die, stack);
  EXPECT_DOUBLE_EQ(a.stats.total_wire_um(), b.stats.total_wire_um());
  EXPECT_EQ(a.stats.total_vias(), b.stats.total_vias());
}

TEST_F(RouterTest, CongestionSpreadsTraffic) {
  // Many parallel nets share a narrow corridor (pins spread over a few
  // gcell rows, as a legalized placement would). Negotiation must spread
  // them so overflow ends at (or very near) zero and never worse than a
  // single-pass route.
  auto corridor_tasks = [&] {
    std::vector<RouteTask> tasks;
    for (int i = 0; i < 48; ++i) {
      RouteTask t;
      t.net = static_cast<sm::netlist::NetId>(i);
      const double y = 14.0 + (i % 12) * 2.8;
      t.terminals = {{{2, y}, 1}, {{54, y}, 1}};
      tasks.push_back(std::move(t));
    }
    return tasks;
  };
  RouterOptions one_pass;
  one_pass.passes = 1;
  const auto base = Router(one_pass).route(corridor_tasks(), die, stack);
  RouterOptions negotiated;
  negotiated.passes = 6;
  const auto res = Router(negotiated).route(corridor_tasks(), die, stack);
  EXPECT_EQ(res.stats.failed_nets, 0u);
  EXPECT_LE(res.stats.overflowed_gcells, base.stats.overflowed_gcells);
  EXPECT_LE(res.stats.overflowed_gcells, 2u);
}

// The per-net tie-break streams must depend on the router seed (different
// seeds may legitimately break ties differently). Routes never depend on
// jobs: tests/test_partition_tree.cpp holds that contract.
TEST_F(RouterTest, TieJitterIsSeededAndBounded) {
  RouteTask t;
  t.net = 0;
  t.terminals = {{{5, 5}, 1}, {{45, 5}, 1}};
  RouterOptions opts;
  opts.seed = 1;
  const auto a = Router(opts).route({t}, die, stack);
  opts.seed = 2;
  const auto b = Router(opts).route({t}, die, stack);
  // Jitter breaks ties only: the shortest-path length is unaffected.
  EXPECT_DOUBLE_EQ(a.stats.total_wire_um(), b.stats.total_wire_um());
  EXPECT_EQ(a.stats.failed_nets, 0u);
  EXPECT_EQ(b.stats.failed_nets, 0u);
}

TEST_F(RouterTest, MakeTasksFromNetlist) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c432"), 1);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);
  // One task per net with sinks; driver first.
  EXPECT_GT(tasks.size(), nl.num_gates());
  for (const auto& t : tasks) {
    EXPECT_GE(t.terminals.size(), 2u);
    EXPECT_EQ(t.terminals[0].pos, pl.of(nl.net(t.net).driver));
  }
}

TEST_F(RouterTest, FullNetlistRoutes) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c880"), 2);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);
  Router router;
  const auto res = router.route(tasks, pl.floorplan.die, stack);
  EXPECT_EQ(res.stats.failed_nets, 0u);
  EXPECT_GT(res.stats.total_wire_um(), 0.0);
  // Original layouts keep most wiring low (the Fig. 5 premise).
  double low = 0, high = 0;
  for (int l = 1; l <= 4; ++l) low += res.stats.wire_um[static_cast<std::size_t>(l)];
  for (int l = 5; l <= 10; ++l) high += res.stats.wire_um[static_cast<std::size_t>(l)];
  EXPECT_GT(low, high);
}

/// FNV-1a over every routed fact a layout exposes: per route the net id,
/// success flag, min_layer and each segment's endpoints, then the
/// aggregate stats (wirelength bit patterns, via counts, failures,
/// overflow). RoutingResult::work is deliberately not hashed — it counts
/// effort, not results.
std::uint64_t route_digest(const RoutingResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_point = [&](const GridPoint& g) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.x)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.y)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.layer)));
  };
  mix(r.routes.size());
  for (const auto& route : r.routes) {
    mix(route.net);
    mix(route.success ? 1 : 0);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(route.min_layer)));
    mix(route.segments.size());
    for (const auto& seg : route.segments) {
      mix_point(seg.a);
      mix_point(seg.b);
    }
  }
  for (const double w : r.stats.wire_um) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof bits);
    mix(bits);
  }
  for (const auto v : r.stats.vias) mix(v);
  mix(r.stats.failed_nets);
  mix(r.stats.overflowed_gcells);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Exact-route regression: the digests below were recorded from the lazy
// binary-heap A* that preceded the indexed-heap search, so any change to
// the search's pop order, its tie-breaking or its cost rounding shows up
// here as a digest mismatch, on four rigs that together exercise plain
// routing, lifted nets with BEOL pair wires, blockages and multi-pass
// negotiation.
TEST(RouteDigestTest, RoutesMatchRecordedDigests) {
  using namespace sm::core;
  CellLibrary lib{6};
  FlowOptions flow;
  flow.lift_layer = 6;
  flow.router.passes = 2;
  flow.placer.detailed_passes = 1;

  std::map<std::string, std::uint64_t> got;
  {
    const auto nl = sm::workloads::generate(
        lib, sm::workloads::iscas85_profile("c880"), 2);
    const auto pl = sm::place::Placer().place(nl);
    RouterOptions opts;
    opts.gcell_um = 1.4;
    got["c880_unprotected"] = route_digest(
        Router(opts).route(make_tasks(nl, pl), pl.floorplan.die, lib.metal()));
  }
  const auto c432 = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c432"), 3);
  {
    RandomizeOptions r;
    r.seed = 5;
    r.check_patterns = 2048;
    const auto design = protect(c432, r, flow);
    ASSERT_GT(design.layout.tasks.size(), design.layout.num_net_tasks)
        << "the rig must route BEOL pair wires";
    got["c432_protect"] = route_digest(design.layout.routing);
  }
  {
    const auto placed = place_design(c432, flow);
    const double size = placed.placement.floorplan.die.width() / 6.0;
    const auto layout =
        layout_routing_blockage(c432, flow, placed, 12, size, 4, 7);
    got["c432_route_blockage"] = route_digest(layout.routing);
  }
  {
    std::vector<RouteTask> tasks;
    for (int i = 0; i < 48; ++i) {
      RouteTask t;
      t.net = static_cast<sm::netlist::NetId>(i);
      const double y = 14.0 + (i % 12) * 2.8;
      t.terminals = {{{2, y}, 1}, {{54, y}, 1}, {{28, 56 - y}, 2}};
      tasks.push_back(std::move(t));
    }
    RouterOptions opts;
    opts.passes = 6;
    const auto res =
        Router(opts).route(tasks, Rect{{0, 0}, {56, 56}}, MetalStack{});
    got["congested_multipass"] = route_digest(res);
  }

  const std::map<std::string, std::uint64_t> want = {
      {"c880_unprotected", 0x43284c40d214b835ULL},
      {"c432_protect", 0x7f0b3d56e810ab19ULL},
      {"c432_route_blockage", 0x50d54f2c23be7f57ULL},
      {"congested_multipass", 0x70a00e5acbd870bfULL},
  };
  for (const auto& [rig, digest] : want)
    EXPECT_EQ(hex(got.at(rig)), hex(digest)) << rig;
}

}  // namespace
