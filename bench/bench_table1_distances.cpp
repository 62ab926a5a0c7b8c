// Table 1: distances between truly connected gates (microns) for Original,
// naively Lifted, and Proposed layouts of the superblue benchmarks.
//
// The original/lifted layouts place the original netlist, so truly connected
// gates sit close (small mean/median). The proposed layout places the
// *erroneous* netlist, so the distances of the true connections are
// randomized: the paper reports a ~15-20x larger mean with a wide spread.
// Distances are measured over the randomized (protected) net set, identical
// across the three layouts (as in the paper's fair-comparison setup).
#include "common.hpp"
#include "metrics/report.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header("Table 1: distances between connected gates (um)");

  const auto names = bench::pick(workloads::superblue_names(), suite);
  // One distance summary per layout flavour, computed into the benchmark's
  // own slot so --jobs=N renders the same table as --jobs=1.
  struct PerBench {
    util::Summary original, lifted, proposed;
  };
  std::vector<PerBench> results(names.size());

  util::parallel_for(suite.jobs, names.size(), [&](std::size_t i) {
    const auto spec = workloads::superblue_profile(names[i], suite.scale);
    netlist::CellLibrary lib{8};
    const auto nl = workloads::generate(lib, spec, suite.seed);
    const auto flow = sweep::task_flow(names[i], sweep::Workload::Superblue,
                                       suite.seed, suite.scale);

    const auto design =
        core::protect(nl, sweep::task_randomize(suite.seed), flow);
    const auto nets = design.ledger.protected_nets();

    const auto original = core::layout_original(nl, flow);
    const auto lifted = core::layout_naive_lift(nl, nets, flow);

    auto dist = [&](const place::Placement& pl) {
      return util::summarize(metrics::connection_distances(nl, pl, nets));
    };
    results[i].original = dist(original.placement);
    results[i].lifted = dist(lifted.layout.placement);
    // Proposed: true connections measured on the erroneous placement.
    results[i].proposed = dist(design.layout.placement);
  });

  util::Table table({"Benchmark", "Layout", "Mean", "Median", "Std. Dev."});
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto row = [&](const char* layout, const util::Summary& s) {
      table.add_row({names[i], layout, util::Table::num(s.mean, 2),
                     util::Table::num(s.median, 2),
                     util::Table::num(s.stddev, 2)});
    };
    row("Original", results[i].original);
    row("Lifted", results[i].lifted);
    row("Proposed", results[i].proposed);
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sm::bench::guarded_main(argc, argv, run);
}
