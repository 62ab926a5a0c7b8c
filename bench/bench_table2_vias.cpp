// Table 2: additional vias of naively lifted and proposed layouts over the
// original superblue layouts, per layer boundary V12..V910 and in total.
// The same randomized net set is used across layouts (fair comparison), die
// outlines are identical (zero area overhead).
//
// Expected shape: naive lifting adds a fraction of a percent up to a few
// percent; the proposed scheme adds tens of percent in the upper boundaries
// because every protected net is lifted to M8 *and* two BEOL restoration
// wires per swap are routed up there.
#include "common.hpp"
#include "metrics/report.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header(
      "Table 2: additional vias over original layouts (superblue)");

  std::vector<std::string> header{"Benchmark", "Layout"};
  for (int l = 1; l <= 9; ++l)
    header.push_back("V" + std::to_string(l) + std::to_string(l + 1));
  header.push_back("Total");
  util::Table table(header);

  for (const auto& name : bench::pick(workloads::superblue_names(), suite)) {
    const auto spec = workloads::superblue_profile(name, suite.scale);
    netlist::CellLibrary lib{8};
    const auto nl = workloads::generate(lib, spec, suite.seed);
    const auto flow = sweep::task_flow(name, sweep::Workload::Superblue,
                                       suite.seed, suite.scale);

    const auto design =
        core::protect(nl, sweep::task_randomize(suite.seed), flow);
    const auto nets = design.ledger.protected_nets();
    const auto original = core::layout_original(nl, flow);
    const auto lifted = core::layout_naive_lift(nl, nets, flow);

    std::vector<std::string> row{name + " (" +
                                     util::Table::count(nl.num_nets()) +
                                     " nets)",
                                 "Original"};
    for (int l = 1; l <= 9; ++l)
      row.push_back(util::Table::count(
          original.routing.stats.vias[static_cast<std::size_t>(l)]));
    row.push_back(util::Table::count(original.routing.stats.total_vias()));
    table.add_row(row);

    auto delta_row = [&](const char* label, const route::RoutingStats& st) {
      const auto d = metrics::via_delta(original.routing.stats, st);
      std::vector<std::string> r{"", label};
      for (int l = 1; l <= 9; ++l) r.push_back(d.cell(l));
      r.push_back(util::Table::pct(d.total_pct, 2));
      table.add_row(r);
    };
    delta_row("Lifted (%)", lifted.layout.routing.stats);
    delta_row("Proposed (%)", design.layout.routing.stats);

    // Zero die-area overhead check (paper: "We ensure zero die-area
    // overhead and all layouts are DRC-clean").
    if (design.layout.ppa.die_area_um2 != original.ppa.die_area_um2)
      std::printf("WARNING: die area changed for %s\n", name.c_str());
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sm::bench::guarded_main(argc, argv, run);
}
