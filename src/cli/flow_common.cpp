#include "cli/flow_common.hpp"

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace sm::cli {

FlowSetup parse_setup(const util::Args& args) {
  // util::Args ignores unknown keys: without this check a script still
  // passing a retired flag would silently get a different layout or
  // attack than it asked for.
  const std::pair<const char*, const char*> removed[] = {
      {"route-partition", "the partition tree is the only router scheduler"},
      {"partition-depth", "the router sets its own fan-out depth"},
      {"mcmf", "the attack always warm-starts its min-cost-flow solver"},
      {"sim-lanes", "the simulator always runs its 8-word lanes"},
  };
  for (const auto& [flag, why] : removed)
    if (args.has(flag))
      throw std::invalid_argument(std::string("--") + flag +
                                  " was removed: " + why);

  FlowSetup s;
  s.bench = args.get("bench", s.bench);
  s.scale = args.get_double("scale", s.scale);
  s.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  s.split_layer = static_cast<int>(args.get_int("split-layer", s.split_layer));
  s.patterns = static_cast<std::size_t>(
      args.get_int("patterns", static_cast<std::int64_t>(s.patterns)));

  // The sweep's flow recipe, then only the CLI's own overrides.
  const sweep::Workload workload = sweep::workload_of(s.bench);
  s.spec = sweep::task_spec(s.bench, workload, s.scale);
  s.flow = sweep::task_flow(s.bench, workload, s.seed, s.scale);
  s.rand_opts = sweep::task_randomize(s.seed);
  s.rand_opts.target_oer =
      args.get_double("target-oer", s.rand_opts.target_oer);
  s.flow.lift_layer =
      static_cast<int>(args.get_int("lift-layer", s.flow.lift_layer));
  s.flow.buffering = args.get_bool("buffering", s.flow.buffering);

  // Layout-engine knobs, strictly validated like the sweep's numeric flags
  // (get_count throws on anything but plain digits). --jobs parallelizes
  // the router's net re-routes only (the attack runs on one thread); all
  // results are bit-identical for any --jobs value.
  s.flow.router.jobs = args.get_count("jobs", 1);
  const std::size_t route_passes = args.get_count(
      "route-passes", static_cast<std::size_t>(s.flow.router.passes));
  if (route_passes == 0)
    throw std::invalid_argument("--route-passes must be >= 1");
  s.flow.router.passes = static_cast<int>(route_passes);
  if (args.has("detailed-passes"))
    s.flow.placer.detailed_passes =
        static_cast<int>(args.get_count("detailed-passes", 0));
  return s;
}

netlist::Netlist make_netlist(const netlist::CellLibrary& lib,
                              const FlowSetup& setup) {
  return workloads::generate(lib, setup.spec, setup.seed);
}

core::ProtectedDesign run_protect(const netlist::Netlist& nl,
                                  const FlowSetup& setup) {
  return core::protect(nl, setup.rand_opts, setup.flow);
}

core::SplitView run_split(const netlist::Netlist& physical,
                          const core::LayoutResult& layout,
                          const FlowSetup& setup) {
  return core::split_layout(physical, layout.placement, layout.routing,
                            layout.tasks, layout.num_net_tasks,
                            setup.split_layer);
}

bool write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::cout << text;
    return static_cast<bool>(std::cout);
  }
  std::ofstream os(path);
  os << text;
  if (!os) {
    std::cerr << "sm_flow: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace sm::cli
