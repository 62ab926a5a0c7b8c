// Shared plumbing for the per-table/figure bench harnesses.
//
// Every bench accepts:
//   --scale=<f>     superblue clone scale (default 0.01 of published size)
//   --seed=<n>      master seed (default 1)
//   --patterns=<n>  simulation patterns for OER/HD (default 100000;
//                   the paper uses 1,000,000 — pass --patterns=1000000 to
//                   match, at ~10x the runtime)
//   --quick         clip benchmark lists for smoke runs
//   --benchmarks=a,b,c   explicit benchmark subset (empty entries skipped,
//                        so a trailing comma is harmless)
//   --jobs=<n>      worker threads (default 1; 0 = hardware concurrency):
//                   sweep cells for the sweep front ends (tables 4/5,
//                   ablation_split), benchmarks for table 1. Results are
//                   bit-identical for any value; the other benches run
//                   serially.
//
//   The sweep front ends add --store=<path> / --resume (sweep_options()).
//   Retired flags (parse_suite's `removed` list) are rejected instead of
//   being ignored: like every error, they print one `error:` line and exit
//   1 (guarded_main).
//
//   The suite tuning itself is the sweep's flow recipe (sweep::task_flow /
//   sweep::task_randomize), so the benches, sm_flow and the sweep lay out
//   every instance identically.
#pragma once

#include "core/baselines.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "sweep/sweep.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generator.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sm::bench {

struct SuiteOptions {
  double scale = 0.01;
  std::uint64_t seed = 1;
  std::size_t patterns = 100000;
  bool quick = false;
  std::size_t jobs = 1;  ///< worker threads; 0 = hardware concurrency
  std::vector<std::string> only;  ///< benchmark filter (empty = all)
};

inline SuiteOptions parse_suite(int argc, const char* const* argv) {
  util::Args args(argc, argv);
  // util::Args ignores unknown keys: without this check a script still
  // passing a retired flag would silently get a different layout or
  // thread count than it asked for.
  const std::pair<const char*, const char*> removed[] = {
      {"route-partition", "the partition tree is the only router scheduler"},
      {"partition-depth", "the router sets its own fan-out depth"},
      {"attack-jobs", "attacks run on one thread; --jobs spreads sweep cells"},
      {"route-jobs", "--jobs spreads sweep cells or benchmarks"},
      {"route-passes", "benches lay out with the sweep's flow recipe"},
      {"detailed-passes", "benches lay out with the sweep's flow recipe"},
  };
  for (const auto& [flag, why] : removed)
    if (args.has(flag))
      throw std::invalid_argument(std::string("bench: --") + flag +
                                  " was removed: " + why);
  SuiteOptions s;
  s.scale = args.get_double("scale", s.scale);
  s.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  s.patterns = static_cast<std::size_t>(
      args.get_int("patterns", static_cast<std::int64_t>(s.patterns)));
  s.quick = args.get_bool("quick", false);
  s.jobs = args.get_count("jobs", 1);
  s.only = util::split_list(args.get("benchmarks", ""));
  return s;
}

/// Sweep options of a sweep front end: --jobs and --patterns from the
/// suite, plus --store=<path> and --resume.
inline sweep::Options sweep_options(const SuiteOptions& s,
                                    const util::Args& args) {
  sweep::Options opts;
  opts.jobs = s.jobs;
  opts.patterns = s.patterns;
  opts.store_path = args.get("store", "");
  opts.resume = args.get_bool("resume", false);
  return opts;
}

/// main() of every bench around its body `run`: an exception escaping it
/// (a retired flag, --resume without --store, an unknown benchmark) prints
/// one `error:` line on stderr and exits 1, as sm_flow does.
inline int guarded_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

inline std::vector<std::string> pick(const std::vector<std::string>& all,
                                     const SuiteOptions& s,
                                     std::size_t quick_count = 2) {
  if (!s.only.empty()) return s.only;
  if (s.quick)
    return {all.begin(),
            all.begin() + static_cast<std::ptrdiff_t>(
                              std::min(quick_count, all.size()))};
  return all;
}

inline void print_header(const char* what) {
  std::printf("\n==== %s ====\n", what);
  std::printf(
      "(synthetic benchmark clones; expect the paper's *shape*, not its "
      "absolute numbers)\n\n");
}

/// One column of a paper table pivoted from sweep rows: `field` of the
/// (benchmark, defense, proximity) mean. `averaged` columns also fill the
/// Average row.
struct PivotColumn {
  const char* title;
  sweep::Defense defense;
  double sweep::Means::*field;
  bool averaged = false;
};

/// main() of a paper table over the ISCAS-85 suite (Tables 4/5): one sweep
/// over the picked benchmarks x the suite seed x splits M3/M4/M5 x the
/// columns' defenses, proximity attacker, pivoted into one line per
/// benchmark plus an Average line (plain mean over benchmarks) when any
/// column is averaged. Prints no timing, so outputs diff cleanly.
inline int pivot_table_main(int argc, const char* const* argv,
                            const char* title,
                            const std::vector<PivotColumn>& cols) {
  const auto suite = parse_suite(argc, argv);
  const util::Args args(argc, argv);
  print_header(title);

  const auto names = pick(workloads::iscas85_names(), suite);
  sweep::Grid grid;
  grid.benchmarks = names;
  grid.seeds = {suite.seed};
  grid.split_layers = {3, 4, 5};
  grid.defenses.clear();
  for (const auto& c : cols)
    if (std::find(grid.defenses.begin(), grid.defenses.end(), c.defense) ==
        grid.defenses.end())
      grid.defenses.push_back(c.defense);
  grid.attackers = {sweep::Attacker::Proximity};
  grid.scale = suite.scale;
  const auto result = sweep::run(grid, sweep_options(suite, args));
  const auto means = result.means();

  std::vector<std::string> header = {"Benchmark"};
  for (const auto& c : cols) header.push_back(c.title);
  util::Table table(header);
  std::vector<double> sums(cols.size(), 0.0);
  for (const auto& name : names) {
    std::vector<std::string> row = {name};
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const double v =
          means.at({name, cols[i].defense, sweep::Attacker::Proximity}).*
          cols[i].field;
      row.push_back(util::Table::pct(100 * v, 1));
      sums[i] += v;
    }
    table.add_row(row);
  }
  const bool any_averaged = std::any_of(
      cols.begin(), cols.end(), [](const PivotColumn& c) { return c.averaged; });
  if (any_averaged && !names.empty()) {
    const double n = static_cast<double>(names.size());
    std::vector<std::string> row = {"Average"};
    for (std::size_t i = 0; i < cols.size(); ++i)
      row.push_back(cols[i].averaged ? util::Table::pct(100 * sums[i] / n, 1)
                                     : "");
    table.add_separator();
    table.add_row(row);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%zu cells (%zu computed, %zu from store)\n",
              result.rows.size(), result.computed_cells,
              result.resumed_cells);
  return 0;
}

}  // namespace sm::bench
