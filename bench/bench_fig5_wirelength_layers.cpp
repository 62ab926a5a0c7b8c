// Fig. 5: contribution of each metal layer to the wirelength of the
// randomized nets, for Original / Lifted / Proposed superblue layouts.
// Expected shape: original wiring concentrates in M1-M4; naive lifting and
// the proposed scheme move the majority above the lift layer (M8 pins), the
// proposed scheme most decisively.
#include "common.hpp"
#include "metrics/report.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header(
      "Fig. 5: per-layer wirelength share of randomized nets (%)");

  std::vector<std::string> header{"Benchmark", "Layout"};
  for (int l = 1; l <= 10; ++l) header.push_back("M" + std::to_string(l));
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

    auto row = [&](const char* label, const route::RoutingResult& routing) {
      const auto share =
          metrics::layer_shares(metrics::per_layer_wirelength(routing, nets));
      std::vector<std::string> r{name, label};
      for (int l = 1; l <= 10; ++l)
        r.push_back(util::Table::pct(share[static_cast<std::size_t>(l)], 1));
      table.add_row(r);
    };
    row("Original", original.routing);
    row("Lifted", lifted.layout.routing);
    row("Proposed", design.layout.routing);
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sm::bench::guarded_main(argc, argv, run);
}
