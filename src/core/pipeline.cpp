#include "core/pipeline.hpp"

#include "sim/simulator.hpp"
#include "util/config_hash.hpp"

#include <algorithm>
#include <utility>

namespace sm::core {

using netlist::Netlist;

route::RouterOptions tuned_router(const FlowOptions& opts,
                                  const place::Floorplan& fp) {
  route::RouterOptions r = opts.router;
  if (opts.auto_gcell) {
    const double dim = std::max(fp.die.width(), fp.die.height());
    r.gcell_um = std::clamp(dim / 48.0, 1.0, 2.8);
  }
  return r;
}

timing::PpaReport evaluate_ppa(const Netlist& nl, const LayoutResult& layout,
                               const FlowOptions& opts,
                               const std::vector<timing::NetExtra>& extra) {
  timing::Sta sta(opts.op);
  const auto activity =
      sim::toggle_rates(nl, opts.activity_patterns, opts.seed ^ 0xac7ULL);
  return sta.analyze(nl, layout.placement, layout.routing, activity, extra);
}

std::string canonical_flow_json(const FlowOptions& opts) {
  // Keys are lexicographic within each object (the canonical-JSON
  // convention of util::config_hash); adding a field here intentionally
  // changes every hash — bump-and-recompute is the upgrade path, silently
  // reusing stale cells is the failure mode this guards against.
  util::JsonWriter w;
  w.begin_object();
  w.key("activity_patterns").value(opts.activity_patterns);
  w.key("auto_gcell").value(opts.auto_gcell);
  w.key("buffering").value(opts.buffering);
  w.key("buffering_opts").begin_object();
  w.key("hpwl_threshold_um").value(opts.buffering_opts.hpwl_threshold_um);
  w.key("strength2_um").value(opts.buffering_opts.strength2_um);
  w.key("strength4_um").value(opts.buffering_opts.strength4_um);
  w.key("strength8_um").value(opts.buffering_opts.strength8_um);
  w.end_object();
  w.key("lift_layer").value(opts.lift_layer);
  w.key("op").begin_object();
  w.key("clock_period_ns").value(opts.op.clock_period_ns);
  w.key("default_activity").value(opts.op.default_activity);
  w.key("vdd").value(opts.op.vdd);
  w.end_object();
  w.key("placer").begin_object();
  w.key("aspect_ratio").value(opts.placer.aspect_ratio);
  w.key("detailed_passes").value(opts.placer.detailed_passes);
  w.key("fm_balance").value(opts.placer.fm_balance);
  w.key("fm_passes").value(opts.placer.fm_passes);
  w.key("force_alpha").value(opts.placer.force_alpha);
  w.key("force_iterations").value(opts.placer.force_iterations);
  w.key("leaf_cells").value(opts.placer.leaf_cells);
  w.key("seed").value(opts.placer.seed);
  w.key("target_utilization").value(opts.placer.target_utilization);
  w.end_object();
  w.key("router").begin_object();
  w.key("bbox_margin").value(opts.router.bbox_margin);
  w.key("blockages").begin_array();
  for (const auto& b : opts.router.blockages) {
    w.begin_object();
    w.key("max_layer").value(b.max_layer);
    w.key("min_layer").value(b.min_layer);
    w.key("x0").value(b.region.lo.x);
    w.key("x1").value(b.region.hi.x);
    w.key("y0").value(b.region.lo.y);
    w.key("y1").value(b.region.hi.y);
    w.end_object();
  }
  w.end_array();
  w.key("gcell_um").value(opts.router.gcell_um);
  w.key("history_increment").value(opts.router.history_increment);
  w.key("overflow_penalty").value(opts.router.overflow_penalty);
  // Constant key, kept because every stored config hash covers it.
  w.key("partition").value("tree");
  w.key("passes").value(opts.router.passes);
  w.key("seed").value(opts.router.seed);
  w.key("tie_jitter").value(opts.router.tie_jitter);
  w.key("via_cost").value(opts.router.via_cost);
  w.end_object();
  w.key("seed").value(opts.seed);
  w.end_object();
  return w.str();
}

PlacedDesign place_design(const Netlist& nl, const FlowOptions& opts) {
  PlacedDesign out;
  place::Placer placer(opts.placer);
  if (opts.buffering) {
    // Buffering mutates the netlist; size a copy and carry it along.
    Netlist sized = nl.clone();
    out.placement = placer.place(sized);
    place::insert_buffers(sized, out.placement, opts.buffering_opts);
    place::legalize_rows(sized, out.placement);
    out.sized = std::move(sized);
  } else {
    out.placement = placer.place(nl);
  }
  return out;
}

LayoutResult route_design(const Netlist& nl, const PlacedDesign& placed,
                          const FlowOptions& opts,
                          const std::vector<int>& min_layer) {
  return route_design(nl, PlacedDesign(placed), opts, min_layer);
}

LayoutResult route_design(const Netlist& nl, PlacedDesign&& placed,
                          const FlowOptions& opts,
                          const std::vector<int>& min_layer) {
  LayoutResult out;
  out.placement = std::move(placed.placement);
  out.sized_netlist = std::move(placed.sized);
  const Netlist& phys = out.sized_netlist ? *out.sized_netlist : nl;
  out.tasks = route::make_tasks(phys, out.placement, min_layer);
  out.num_net_tasks = out.tasks.size();
  route::Router router(tuned_router(opts, out.placement.floorplan));
  out.routing = router.route(out.tasks, out.placement.floorplan.die,
                             phys.library().metal());
  out.ppa = evaluate_ppa(phys, out, opts);
  return out;
}

/// One benchmark instance. Each stage pairs a once_flag with its product;
/// call_once gives the build-at-most-once and block-later-callers
/// semantics, and the products live behind stable unique_ptr entries so
/// returned references survive map rehashing.
struct LayoutCache::Entry {
  std::once_flag netlist_once;
  std::optional<netlist::Netlist> netlist;
  std::once_flag placed_once;
  std::optional<PlacedDesign> placed;
  std::once_flag base_once;
  std::optional<LayoutResult> base;
};

LayoutCache::LayoutCache() = default;
LayoutCache::~LayoutCache() = default;

LayoutCache::Entry& LayoutCache::entry(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = entries_[key];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

const netlist::Netlist& LayoutCache::netlist(
    const std::string& key, const std::function<netlist::Netlist()>& build) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.netlist_once, [&] {
    e.netlist.emplace(build());
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.netlists;
  else
    ++stats_.hits;
  return *e.netlist;
}

const PlacedDesign& LayoutCache::placed(const std::string& key,
                                        const netlist::Netlist& nl,
                                        const FlowOptions& opts) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.placed_once, [&] {
    e.placed.emplace(place_design(nl, opts));
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.placements;
  else
    ++stats_.hits;
  return *e.placed;
}

const LayoutResult& LayoutCache::base_layout(const std::string& key,
                                             const netlist::Netlist& nl,
                                             const FlowOptions& opts) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.base_once, [&] {
    e.base.emplace(route_design(nl, placed(key, nl, opts), opts));
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.base_routes;
  else
    ++stats_.hits;
  return *e.base;
}

LayoutCache::Stats LayoutCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sm::core
