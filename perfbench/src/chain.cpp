#include "chain.hpp"

#include "attack/crouting.hpp"
#include "attack/proximity.hpp"
#include "core/baselines.hpp"
#include "core/equivalence.hpp"
#include "core/pipeline.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "sim/simulator.hpp"
#include "sweep/store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generator.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace sw = sm::sweep;
namespace core = sm::core;
using sm::netlist::Netlist;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A recovered netlist kept for the sim::compare replay, with the rates
/// the attack reported for it.
struct Recovered {
  Netlist netlist;
  std::uint64_t seed = 0;
  std::string cell;
  sm::sim::ErrorRates rates;
};

/// One (benchmark, seed, defense) task of the chain and the products its
/// calls returned, kept alive for the replays.
struct TaskRun {
  std::string cell;  ///< config hash of the task's first cell
  std::string cache_key;
  std::string benchmark;
  std::uint64_t seed = 0;
  sw::Defense defense = sw::Defense::Unprotected;
  sw::Workload workload = sw::Workload::Iscas85;

  const Netlist* nl = nullptr;
  core::FlowOptions flow;
  std::optional<core::ProtectedDesign> design;
  std::optional<core::LayoutResult> local;
  std::optional<core::SwappedLayout> swapped;
  const core::LayoutResult* layout = nullptr;
  const Netlist* feol = nullptr;  ///< the netlist the layout implements
  std::vector<Recovered> recovered;

  double protect_ms = 0.0;
  std::size_t swaps = 0;
  std::size_t vpins = 0;
  std::size_t open_sinks = 0;
  std::int64_t sat_conflicts = 0;
};

core::PerturbStrategy perturb_strategy(sw::Defense d) {
  switch (d) {
    case sw::Defense::GColor: return core::PerturbStrategy::GColor;
    case sw::Defense::GType1: return core::PerturbStrategy::GType1;
    case sw::Defense::GType2: return core::PerturbStrategy::GType2;
    default: return core::PerturbStrategy::Random;
  }
}

/// Row::equiv encoding of an equivalence verdict (sweep.hpp).
int verdict_code(core::EquivVerdict v) {
  switch (v) {
    case core::EquivVerdict::Equivalent: return 1;
    case core::EquivVerdict::Inequivalent: return 0;
    case core::EquivVerdict::Unknown: break;
  }
  return 2;
}

sm::workloads::GenSpec task_spec(const TaskRun& t, double scale) {
  switch (t.workload) {
    case sw::Workload::Superblue:
      return sm::workloads::superblue_profile(t.benchmark, scale);
    case sw::Workload::Synthetic:
      return sm::workloads::synthetic_profile(t.benchmark, scale);
    case sw::Workload::Iscas85: break;
  }
  return sm::workloads::iscas85_profile(t.benchmark);
}

/// The chain of one task: the calls sweep::run makes for it, each in its
/// own span, filling the task's rows exactly as the sweep fills them.
void chain_task(TaskRun& t, const sw::CellRef* cells, const sw::Grid& g,
                const sw::Options& opts, std::size_t router_jobs,
                const sm::netlist::CellLibrary& lib, core::LayoutCache& cache,
                sw::Row* rows, Tracer& tr, int root) {
  const double t0 = now_ms();
  const Scope task(tr, "sweep.task", root, t.cell);
  const int tid = task.id();
  const auto spec = task_spec(t, g.scale);
  {
    const Scope s(tr, "workloads.generate", tid, t.cell);
    t.nl = &cache.netlist(t.cache_key, [&] {
      return sm::workloads::generate(lib, spec, t.seed);
    });
  }
  const Netlist& nl = *t.nl;
  t.flow = sw::task_flow(t.benchmark, t.workload, t.seed, g.scale);
  t.flow.router.jobs = router_jobs;
  t.feol = &nl;

  const core::SwapLedger* ledger = nullptr;
  const sw::BaselineRecipe recipe = sw::baseline_recipe(t.defense);
  auto cached_placement = [&]() -> const core::PlacedDesign& {
    const Scope s(tr, "core.placed", tid, t.cell);
    return cache.placed(t.cache_key, nl, t.flow);
  };
  switch (t.defense) {
    case sw::Defense::Unprotected: {
      const Scope s(tr, "core.base_layout", tid, t.cell);
      const auto& base = cache.base_layout(t.cache_key, nl, t.flow);
      t.feol = &base.physical(nl);
      t.layout = &base;
      break;
    }
    case sw::Defense::Proposed: {
      const double p0 = now_ms();
      {
        const Scope s(tr, "core.protect", tid, t.cell);
        t.design = core::protect(nl, sw::task_randomize(t.seed), t.flow);
      }
      t.protect_ms = now_ms() - p0;
      t.feol = &t.design->erroneous;
      t.layout = &t.design->layout;
      ledger = &t.design->ledger;
      t.swaps = t.design->ledger.entries.size();
      break;
    }
    case sw::Defense::PlacePerturb:
    case sw::Defense::GColor:
    case sw::Defense::GType1:
    case sw::Defense::GType2: {
      const auto& placed = cached_placement();
      const Scope s(tr, "core.baseline", tid, t.cell);
      t.local = core::layout_placement_perturbed(
          nl, t.flow, placed, perturb_strategy(t.defense), recipe.fraction,
          t.seed, recipe.radius_frac);
      t.layout = &*t.local;
      break;
    }
    case sw::Defense::PinSwap: {
      const std::size_t n = std::max(
          recipe.min_swaps,
          static_cast<std::size_t>(nl.num_nets()) / recipe.swap_divisor);
      {
        const Scope s(tr, "core.baseline", tid, t.cell);
        t.swapped = core::layout_pin_swapped(nl, t.flow, n, t.seed);
      }
      t.feol = &t.swapped->erroneous;
      t.layout = &t.swapped->layout;
      ledger = &t.swapped->ledger;
      t.swaps = t.swapped->ledger.entries.size();
      break;
    }
    case sw::Defense::RoutePerturb: {
      const auto& placed = cached_placement();
      const Scope s(tr, "core.baseline", tid, t.cell);
      t.local = core::layout_routing_perturbed(
          nl, t.flow, placed, recipe.fraction, t.flow.lift_layer, t.seed);
      t.layout = &*t.local;
      break;
    }
    case sw::Defense::RouteBlockage: {
      const auto& placed = cached_placement();
      const Scope s(tr, "core.baseline", tid, t.cell);
      const double size = placed.placement.floorplan.die.width() /
                          static_cast<double>(recipe.width_divisor);
      t.local = core::layout_routing_blockage(
          nl, t.flow, placed, recipe.blockages, size,
          recipe.blockage_max_layer, t.seed);
      t.layout = &*t.local;
      break;
    }
  }

  const std::size_t n_att = g.attackers.size();
  const core::LayoutResult& layout = *t.layout;
  for (std::size_t li = 0; li < g.split_layers.size(); ++li) {
    const std::size_t cell0 = li * n_att;
    const int split = g.split_layers[li];
    std::optional<core::SplitView> view;
    {
      const Scope s(tr, "core.split", tid, cells[cell0].config_hash);
      view = core::split_layout(*t.feol, layout.placement, layout.routing,
                                layout.tasks, layout.num_net_tasks, split);
    }
    t.vpins += view->num_vpins();
    for (std::size_t ai = 0; ai < n_att; ++ai) {
      const sw::CellRef& cell = cells[cell0 + ai];
      sw::Row& row = rows[cell0 + ai];
      row.benchmark = t.benchmark;
      row.seed = t.seed;
      row.split_layer = split;
      row.defense = t.defense;
      row.attacker = cell.attacker;
      row.swaps = t.swaps;

      if (cell.attacker == sw::Attacker::CRouting) {
        const Scope s(tr, "attack.crouting", tid, cell.config_hash);
        const auto res = sm::attack::crouting_attack(*view);
        row.open_sinks = res.num_vpins;
        if (!res.failed) {
          const std::size_t mid = res.candidate_list_size.size() / 2;
          row.ccr = res.match_in_list[mid];
          row.ccr_protected = res.match_in_list[mid];
          row.els = res.candidate_list_size[mid];
        }
        continue;
      }

      sm::attack::ProximityOptions aopts;
      aopts.eval_patterns = opts.patterns;
      aopts.seed =
          sm::util::task_seed(t.seed, static_cast<std::uint64_t>(split));
      // Kept for every proximity cell (the sweep keeps it for sat only):
      // the sim::compare replay needs it. Keeping it moves the netlist
      // out of the attack; it changes no metric.
      aopts.keep_recovered = true;
      std::optional<sm::attack::ProximityResult> res;
      {
        const Scope s(tr, "attack.proximity", tid, cell.config_hash);
        res = sm::attack::proximity_attack(*t.feol, nl, layout.placement,
                                           *view, ledger, aopts);
      }
      row.ccr = res->ccr();
      row.ccr_protected = res->ccr_protected();
      row.oer = res->rates.oer;
      row.hd = res->rates.hd;
      row.open_sinks = res->open_sinks;
      t.open_sinks += res->open_sinks;
      // proximity_attack simulates only an acyclic recovery (patterns > 0).
      const bool acyclic = res->rates.patterns > 0;

      if (cell.attacker == sw::Attacker::Sat) {
        int code = 2;
        if (res->recovered && acyclic) {
          const Scope s(tr, "core.equiv", tid, cell.config_hash);
          core::EquivOptions eopts;
          eopts.seed = aopts.seed;
          try {
            const auto er = core::check_equivalence(nl, *res->recovered, eopts);
            code = verdict_code(er.verdict);
            t.sat_conflicts += er.sat_conflicts;
          } catch (const std::invalid_argument&) {
            code = 2;
          }
        }
        row.equiv = code;
      }
      if (res->recovered && acyclic)
        t.recovered.push_back({std::move(*res->recovered), aopts.seed,
                               cell.config_hash, res->rates});
    }
  }
  const double wall = now_ms() - t0;
  for (std::size_t ci = 0; ci < g.split_layers.size() * n_att; ++ci)
    rows[ci].wall_ms = wall;
}

/// Run `fn` inside a replay span; returns its wall time in ms.
template <class F>
double timed(Tracer& tr, const char* name, int parent, const std::string& cell,
             F&& fn) {
  const Scope s(tr, name, parent, cell, kReplayPid);
  const double t0 = now_ms();
  fn();
  return now_ms() - t0;
}

struct Sums {
  double randomize = 0, place = 0, route_j1 = 0, route_jn = 0, ppa = 0;
  double compare = 0, protect_self = 0;
  std::size_t patterns = 0;
};

bool same_stats(const sm::route::RoutingStats& a,
                const sm::route::RoutingStats& b) {
  return a.wire_um == b.wire_um && a.vias == b.vias &&
         a.failed_nets == b.failed_nets &&
         a.overflowed_gcells == b.overflowed_gcells;
}

/// The decomposition replays of one task, on the calling thread.
void replay_task(const TaskRun& t, std::size_t router_jobs,
                 std::size_t patterns, std::set<std::string>& placed_keys,
                 Sums& sum, Tracer& tr, ChainOutcome& out) {
  const Scope root(tr, "replay.task", -1, t.cell, kReplayPid);
  const int rid = root.id();
  const Netlist& nl = *t.nl;
  const core::LayoutResult& L = *t.layout;

  // Router::route on the layout's own task list at jobs 1 and at the jobs
  // the chain used; both must reproduce the chain's routing statistics.
  auto replay_routes = [&](sm::route::RouterOptions ropts) {
    auto route_at = [&](std::size_t jobs, const char* name) {
      ropts.jobs = jobs;
      sm::route::RoutingResult r;
      const double ms = timed(tr, name, rid, t.cell, [&] {
        r = sm::route::Router(ropts).route(L.tasks, L.placement.floorplan.die,
                                           t.feol->library().metal());
      });
      if (!same_stats(r.stats, L.routing.stats))
        out.replay_mismatches.push_back(std::string(name) + " replay of " +
                                        t.cell);
      return ms;
    };
    const double j1 = route_at(1, "route.route_j1");
    // At router jobs 1 the two replays would be the same call.
    const double jn =
        router_jobs > 1 ? route_at(router_jobs, "route.route_jN") : j1;
    sum.route_j1 += j1;
    sum.route_jn += jn;
    return jn;
  };
  auto replay_ppa = [&] {
    const double ms = timed(tr, "timing.ppa", rid, t.cell, [&] {
      (void)core::evaluate_ppa(*t.feol, L, t.flow);
    });
    sum.ppa += ms;
    return ms;
  };
  // The shared base placement is built once per cache key.
  auto replay_shared_placement = [&] {
    if (!placed_keys.insert(t.cache_key).second) return;
    sum.place += timed(tr, "place.place", rid, t.cell,
                       [&] { (void)core::place_design(nl, t.flow); });
  };
  auto replay_place = [&](const Netlist& placed_nl) {
    const double ms = timed(tr, "place.place", rid, t.cell, [&] {
      (void)sm::place::Placer(t.flow.placer).place(placed_nl);
    });
    sum.place += ms;
    return ms;
  };
  const auto ropts = core::tuned_router(t.flow, L.placement.floorplan);

  switch (t.defense) {
    case sw::Defense::Proposed: {
      const core::ProtectedDesign& d = *t.design;
      double parts = timed(tr, "core.randomize", rid, t.cell, [&] {
        const auto rr = core::randomize(nl, sw::task_randomize(t.seed));
        if (rr.ledger.entries.size() != d.ledger.entries.size())
          out.replay_mismatches.push_back("randomize replay of " + t.cell);
      });
      sum.randomize += parts;
      parts += replay_place(d.erroneous);
      parts += replay_routes(ropts);
      parts += timed(tr, "core.equiv", rid, t.cell, [&] {
        // protect()'s restoration check and its seed derivation.
        core::EquivOptions eopts;
        eopts.seed = t.flow.seed ^ 0xec01ULL;
        const auto er = core::check_equivalence(nl, d.restored, eopts);
        if ((er.verdict == core::EquivVerdict::Equivalent) != d.restored_ok)
          out.replay_mismatches.push_back("core.equiv replay of " + t.cell);
      });
      parts += replay_ppa();
      sum.protect_self += t.protect_ms - parts;
      break;
    }
    case sw::Defense::PinSwap:
      replay_place(t.swapped->erroneous);
      replay_routes(ropts);
      replay_ppa();
      break;
    case sw::Defense::RouteBlockage: {
      // core::layout_routing_blockage's blockage stream, rebuilt so the
      // replay routes the same problem (the stats check guards it).
      const sw::BaselineRecipe recipe = sw::baseline_recipe(t.defense);
      const auto& die = L.placement.floorplan.die;
      const double size =
          die.width() / static_cast<double>(recipe.width_divisor);
      auto blocked = ropts;
      sm::util::Rng rng(t.seed ^ 0xb10cULL);
      for (int i = 0; i < recipe.blockages; ++i) {
        const double x = rng.uniform(die.lo.x, die.hi.x - size);
        const double y = rng.uniform(die.lo.y, die.hi.y - size);
        blocked.blockages.push_back(
            {sm::util::Rect{{x, y}, {x + size, y + size}}, 1,
             recipe.blockage_max_layer});
      }
      replay_shared_placement();
      replay_routes(blocked);
      replay_ppa();
      break;
    }
    default:  // Unprotected and the other placement-keeping baselines
      replay_shared_placement();
      replay_routes(ropts);
      replay_ppa();
      break;
  }

  for (const Recovered& r : t.recovered) {
    sm::sim::ErrorRates rates;
    sum.compare += timed(tr, "sim.compare", rid, r.cell, [&] {
      rates = sm::sim::compare(nl, r.netlist, patterns, r.seed);
    });
    if (rates.oer != r.rates.oer || rates.hd != r.rates.hd)
      out.replay_mismatches.push_back("sim.compare replay of " + r.cell);
    sum.patterns += rates.patterns;
  }
}

}  // namespace

ChainOutcome run_chain(const Workload& w, std::size_t router_jobs,
                       Tracer& tracer) {
  ChainOutcome out;
  // Libraries and caches outlive every product the replays read; each
  // sweep gets a fresh cache, as sweep::run does.
  const sm::netlist::CellLibrary lib_iscas{6};
  const sm::netlist::CellLibrary lib_superblue{8};
  std::vector<std::unique_ptr<core::LayoutCache>> caches;
  std::vector<std::unique_ptr<TaskRun>> tasks;
  std::vector<std::size_t> task_cells;  // cells per task, task order

  for (const sw::Grid& g : w.sweeps) {
    const auto cells = sw::expand_cells(g, w.opts);
    const std::size_t cpt = g.split_layers.size() * g.attackers.size();
    const std::size_t n_tasks = cpt ? cells.size() / cpt : 0;
    const std::size_t first = tasks.size();
    for (std::size_t k = 0; k < n_tasks; ++k) {
      const sw::CellRef& c = cells[k * cpt];
      auto t = std::make_unique<TaskRun>();
      t->cell = c.config_hash;
      t->cache_key = c.benchmark + "/" + std::to_string(c.seed);
      t->benchmark = c.benchmark;
      t->seed = c.seed;
      t->defense = c.defense;
      t->workload = c.workload;
      tasks.push_back(std::move(t));
      task_cells.push_back(cpt);
    }
    caches.push_back(std::make_unique<core::LayoutCache>());
    core::LayoutCache& cache = *caches.back();
    const std::size_t row0 = out.result.rows.size();
    out.result.rows.resize(row0 + cells.size());

    const double t0 = now_ms();
    {
      const Scope root(tracer, "sweep.chain", -1, "");
      sm::util::parallel_for(w.opts.jobs, n_tasks, [&](std::size_t k) {
        TaskRun& t = *tasks[first + k];
        chain_task(t, &cells[k * cpt], g, w.opts, router_jobs,
                   t.workload == sw::Workload::Iscas85 ? lib_iscas
                                                       : lib_superblue,
                   cache, out.result.rows.data() + row0 + k * cpt, tracer,
                   root.id());
      });
    }
    out.chain_wall_ms += now_ms() - t0;
  }

  Sums sum;
  std::set<std::string> placed_keys;
  for (const auto& t : tasks)
    replay_task(*t, router_jobs, w.opts.patterns, placed_keys, sum, tracer,
                out);

  double wire_um = 0;
  std::size_t vias = 0, overflowed = 0, failed_nets = 0, swaps = 0, vpins = 0;
  std::size_t open_sinks = 0;
  std::int64_t conflicts = 0;
  std::size_t cell0 = 0;
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const TaskRun& t = *tasks[k];
    const auto& st = t.layout->routing.stats;
    wire_um += st.total_wire_um();
    vias += st.total_vias();
    overflowed += st.overflowed_gcells;
    failed_nets += st.failed_nets;
    swaps += t.swaps;
    vpins += t.vpins;
    open_sinks += t.open_sinks;
    conflicts += t.sat_conflicts;
    if (t.design && !t.design->restored_ok)
      for (std::size_t ci = 0; ci < task_cells[k]; ++ci)
        out.bad_cells.emplace_back(cell0 + ci,
                                   "proposed design failed restoration");
    cell0 += task_cells[k];
  }

  const auto spans = tracer.spans();
  const double proximity_ms = total_ms(spans, "attack.proximity");
  const double route_ms = sum.route_jn;
  auto& m = out.metrics;
  m.push_back({"workloads.generate_ms", total_ms(spans, "workloads.generate"),
               "ms"});
  m.push_back({"place.place_ms", sum.place, "ms"});
  m.push_back({"timing.ppa_ms", sum.ppa, "ms"});
  m.push_back({"route.route_ms", route_ms, "ms"});
  m.push_back({"route.serial_route_ms", sum.route_j1, "ms"});
  m.push_back({"route.parallel_speedup",
               route_ms > 0 ? sum.route_j1 / route_ms : 0.0, "ratio"});
  m.push_back({"route.wire_um", wire_um, "um"});
  m.push_back({"route.vias", static_cast<double>(vias), "count"});
  m.push_back({"route.overflowed_gcells", static_cast<double>(overflowed),
               "count"});
  m.push_back({"route.failed_nets", static_cast<double>(failed_nets),
               "count"});
  m.push_back({"core.randomize_ms", sum.randomize, "ms"});
  m.push_back({"core.swaps", static_cast<double>(swaps), "count"});
  m.push_back({"core.protect_ms", total_ms(spans, "core.protect"), "ms"});
  m.push_back({"core.protect_self_ms", sum.protect_self, "ms"});
  m.push_back({"core.base_layout_ms", total_ms(spans, "core.base_layout"),
               "ms"});
  m.push_back({"core.baseline_ms", total_ms(spans, "core.baseline"), "ms"});
  m.push_back({"core.split_ms", total_ms(spans, "core.split"), "ms"});
  m.push_back({"core.vpins", static_cast<double>(vpins), "count"});
  m.push_back({"attack.proximity_ms", proximity_ms, "ms"});
  m.push_back({"attack.proximity_self_ms", proximity_ms - sum.compare, "ms"});
  m.push_back({"attack.open_sinks", static_cast<double>(open_sinks),
               "count"});
  m.push_back({"attack.crouting_ms", total_ms(spans, "attack.crouting"),
               "ms"});
  m.push_back({"core.equiv_ms", total_ms(spans, "core.equiv"), "ms"});
  m.push_back({"sat.conflicts", static_cast<double>(conflicts), "count"});
  m.push_back({"sim.compare_ms", sum.compare, "ms"});
  m.push_back({"sim.patterns_per_s",
               sum.compare > 0
                   ? static_cast<double>(sum.patterns) / (sum.compare / 1000.0)
                   : 0.0,
               "1/s"});
  return out;
}

}  // namespace perfbench
