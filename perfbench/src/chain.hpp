// The traced replay of a workload: the sweep's cells re-run as an explicit
// chain of sm's public calls, each wrapped in a benchmark-owned span, then
// the decomposition replays that split the coarse calls (protect, layout
// builders, the attack) into their stages.
#pragma once

#include "trace.hpp"
#include "workload.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct ChainOutcome {
  /// Rows produced by the chain, in sweep::Result's grid-major order; the
  /// caller checks them against sweep::run's table.
  sm::sweep::Result result;
  double chain_wall_ms = 0.0;  ///< wall of the chain's parallel region
  /// Per-layer metrics measured by the chain and the replays.
  std::vector<Metric> metrics;
  /// Cells whose chain products break an invariant only the chain can see
  /// (a proposed design that failed its restoration check).
  std::vector<std::pair<std::size_t, std::string>> bad_cells;
  /// Replays that did not reproduce what the chain computed (a replay
  /// would then be timing different work).
  std::vector<std::string> replay_mismatches;
};

/// Run the chain over `w.opts.jobs` worker lanes (the sweep's pool and
/// task order), handing `router_jobs` to every router as sweep::run did,
/// then the decomposition replays on one thread. Spans go to `tracer`.
ChainOutcome run_chain(const Workload& w, std::size_t router_jobs,
                       Tracer& tracer);

}  // namespace perfbench
