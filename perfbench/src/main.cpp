// sm_bench: one repetition of a benchmark workload, as one process.
//
//   sm_bench run    --workload W --seed S --jobs J --tmp DIR [--golden F]
//                   [--setup-only]
//   sm_bench trace  --workload W --seed S --jobs J --tmp DIR [--golden F]
//                   --trace-out F
//
// `run` times the untraced sweep (sweep::run, then load_store +
// materialize for store workloads) and prints one JSON line: the measured
// region's monotonic start, wall, CPU and peak RSS, the per-cell check
// verdicts and a digest of the table. perfbench/run.py spawns one process
// per repetition and turns these lines into the benchmark's metrics.
// `trace` runs the sweep once untraced, then again untraced without a
// store (the warm reference wall for trace.overhead_frac), then the traced
// chain and its decomposition replays (chain.hpp), then the sweep at
// jobs=1, and prints the per-layer metrics.
#include "chain.hpp"
#include "trace.hpp"
#include "workload.hpp"

#include "sweep/store.hpp"
#include "util/args.hpp"
#include "util/config_hash.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace {

namespace sw = sm::sweep;
namespace fs = std::filesystem;
using perfbench::Workload;

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_fingerprint(sm::util::JsonWriter& w, std::size_t jobs) {
  w.key("fingerprint").begin_object();
  w.key("build_type").value(SM_BENCH_BUILD_TYPE);
  w.key("compiler").value(SM_BENCH_COMPILER);
  w.key("jobs").value(jobs);
  w.key("nproc").value(nproc());
  w.end_object();
}

void write_check(sm::util::JsonWriter& w, const perfbench::CellCheck& check) {
  w.key("cells").value(check.bad.size());
  w.key("failed").value(check.failed());
  w.key("problems").begin_array();
  for (const auto& p : check.problems) w.value(p);
  w.end_array();
}

/// The untraced sweeps of a workload plus, for store workloads, reading
/// the log back and materializing each table from it: the measured region.
struct Sweep {
  std::vector<sw::Result> results;  ///< what each sweep::run returned
  sw::Result result;  ///< the sweeps' results, appended
  sw::Result table;   ///< the table users get (materialized for stores)
  std::size_t log_bytes = 0;
  double load_ms = 0.0;
  double materialize_ms = 0.0;
};

Sweep run_sweep(const Workload& w) {
  Sweep s;
  for (const sw::Grid& g : w.sweeps) {
    s.results.push_back(sw::run(g, w.opts));
    perfbench::append(s.result, s.results.back());
    if (!w.store) {
      perfbench::append(s.table, s.results.back());
      continue;
    }
    const double t0 = mono_s();
    const auto contents = sw::load_store({w.opts.store_path}, true);
    const double t1 = mono_s();
    const auto mat = sw::materialize(g, w.opts, contents);
    const double t2 = mono_s();
    perfbench::append(s.table, mat.result);
    s.load_ms += 1000.0 * (t1 - t0);
    s.materialize_ms += 1000.0 * (t2 - t1);
  }
  if (w.store)
    s.log_bytes = static_cast<std::size_t>(fs::file_size(w.opts.store_path));
  return s;
}

/// Checks shared by run and trace: invariants, the golden table, and (for
/// store workloads) the materialized table against sweep::run's own.
void check_sweep(const Workload& w, const Sweep& s, const std::string& golden,
                 perfbench::CellCheck& check) {
  perfbench::check_table(w, s.table, golden, check);
  if (w.store)
    perfbench::compare_tables(perfbench::table_csv(s.result),
                              perfbench::table_csv(s.table), "materialized",
                              check);
}

int cmd_run(const Workload& w, const std::string& golden) {
  const double start = mono_s();
  const double c0 = cpu_s();
  perfbench::CellCheck check(w.cells());
  Sweep s;
  try {
    s = run_sweep(w);
  } catch (const std::exception& e) {
    std::fill(check.bad.begin(), check.bad.end(), 1);
    check.problems.push_back(std::string("sweep threw: ") + e.what());
  }
  const double end = mono_s();
  const double c1 = cpu_s();
  if (check.failed() == 0) check_sweep(w, s, golden, check);

  sm::util::JsonWriter out;
  out.begin_object();
  out.key("region_start").value(start);
  out.key("wall_s").value(end - start);
  out.key("cpu_s").value(c1 - c0);
  out.key("peak_rss_mb").value(peak_rss_mb());
  out.key("digest").value(
      sm::util::config_hash(perfbench::table_csv(s.table)));
  write_check(out, check);
  write_fingerprint(out, w.opts.jobs);
  out.end_object();
  std::cout << out.str() << std::endl;
  return 0;
}

int cmd_trace(const Workload& w, const std::string& golden,
              const std::string& trace_out) {
  perfbench::CellCheck check(w.cells());
  const Sweep s = run_sweep(w);
  check_sweep(w, s, golden, check);

  // The untraced reference for trace.overhead_frac: the same sweep in the
  // same warm process, without the store the chain does not write either.
  sw::Options untraced = w.opts;
  untraced.store_path.clear();
  sw::Result rerun;
  for (const sw::Grid& g : w.sweeps)
    perfbench::append(rerun, sw::run(g, untraced));
  perfbench::compare_tables(perfbench::table_csv(s.result),
                            perfbench::table_csv(rerun), "untraced rerun",
                            check);

  perfbench::Tracer tracer;
  const auto chain = perfbench::run_chain(w, s.result.router_jobs, tracer);
  perfbench::compare_tables(perfbench::table_csv(s.result),
                            perfbench::table_csv(chain.result), "chain",
                            check);
  for (const auto& [cell, why] : chain.bad_cells) check.flag(cell, why);

  sw::Options serial = w.opts;
  serial.jobs = 1;
  serial.store_path.clear();
  double serial_wall_ms = 0;
  for (const sw::Grid& g : w.sweeps)
    serial_wall_ms += sw::run(g, serial).wall_ms;

  // Task walls come from Row::wall_ms: every cell of a task carries its
  // task's wall, and a task's cells are contiguous.
  double task_sum = 0, task_max = 0, busy_capacity = 0;
  for (std::size_t k = 0; k < w.sweeps.size(); ++k) {
    const sw::Grid& g = w.sweeps[k];
    const sw::Result& r = s.results[k];
    const std::size_t cpt = g.split_layers.size() * g.attackers.size();
    for (std::size_t i = 0; cpt && i < r.rows.size(); i += cpt) {
      task_sum += r.rows[i].wall_ms;
      task_max = std::max(task_max, r.rows[i].wall_ms);
    }
    busy_capacity += r.wall_ms * static_cast<double>(r.jobs);
  }
  const sw::Result& r = s.result;
  const auto spans = tracer.spans();
  const auto self = perfbench::self_times_us(spans);
  double coverage_min = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "sweep.task") continue;
    const double d = perfbench::duration_us(spans[i]);
    if (d > 0) coverage_min = std::min(coverage_min, 1.0 - self[i] / d);
  }

  std::vector<perfbench::Metric> m = {
      {"sweep.task_ms_sum", task_sum, "ms"},
      {"sweep.task_ms_max", task_max, "ms"},
      {"sweep.pool_busy_frac", task_sum / busy_capacity, "ratio"},
      {"sweep.speedup_vs_jobs1", serial_wall_ms / r.wall_ms, "ratio"},
      {"core.cache_builds",
       static_cast<double>(r.cache_stats.netlists + r.cache_stats.placements +
                           r.cache_stats.base_routes),
       "count"},
      {"core.cache_hits", static_cast<double>(r.cache_stats.hits), "count"},
      {"store.log_bytes", static_cast<double>(s.log_bytes), "bytes"},
      {"store.load_ms", s.load_ms, "ms"},
      {"store.materialize_ms", s.materialize_ms, "ms"},
  };
  m.insert(m.end(), chain.metrics.begin(), chain.metrics.end());
  m.push_back({"trace.overhead_frac",
               chain.chain_wall_ms / rerun.wall_ms - 1.0, "ratio"});
  m.push_back({"trace.coverage_min", coverage_min, "ratio"});

  {
    std::ofstream f(trace_out, std::ios::binary);
    f << perfbench::chrome_trace_json(spans) << '\n';
    if (!f) throw std::runtime_error("cannot write " + trace_out);
  }

  sm::util::JsonWriter out;
  out.begin_object();
  out.key("metrics").begin_object();
  for (const auto& metric : m) {
    out.key(metric.name).begin_object();
    out.key("unit").value(metric.unit);
    out.key("value").value(metric.value);
    out.end_object();
  }
  out.end_object();
  out.key("replay_mismatches").begin_array();
  for (const auto& p : chain.replay_mismatches) out.value(p);
  out.end_array();
  write_check(out, check);
  write_fingerprint(out, w.opts.jobs);
  out.end_object();
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "sm_bench: refusing to run: not a Release (NDEBUG) build\n";
  return 3;
#endif
  try {
    const sm::util::Args args(argc, argv);
    if (args.positional().size() != 1)
      throw std::invalid_argument("want one command: run|trace");
    const std::string cmd = args.positional()[0];
    const std::size_t jobs = args.get_count("jobs", 4);
    if (jobs < 1 || jobs > nproc()) {
      std::cerr << "sm_bench: refusing to run: jobs=" << jobs
                << " with nproc=" << nproc() << '\n';
      return 3;
    }
    // Everything before the measured region is set-up: building the grid,
    // reading the golden table and creating the store directory.
    Workload w = perfbench::make_workload(
        args.get("workload", ""), args.get_count("seed", perfbench::kDefaultSeed),
        jobs);
    const std::string tmp = args.get("tmp", "");
    if (tmp.empty()) throw std::invalid_argument("--tmp is required");
    fs::create_directories(tmp);
    if (w.store) w.opts.store_path = (fs::path(tmp) / "store.jsonl").string();
    const std::string golden_path = args.get("golden", "");
    const std::string golden = golden_path.empty() ? "" : read_file(golden_path);

    if (cmd == "run" && args.has("setup-only")) {
      // A set-up probe: everything a repetition does before its measured
      // region, then exit. run.py takes set-up time from several of these.
      sm::util::JsonWriter out;
      out.begin_object().key("region_start").value(mono_s()).end_object();
      std::cout << out.str() << std::endl;
      return 0;
    }
    if (cmd == "run") return cmd_run(w, golden);
    if (cmd == "trace") {
      const std::string trace_out = args.get("trace-out", "");
      if (trace_out.empty()) throw std::invalid_argument("--trace-out is required");
      return cmd_trace(w, golden, trace_out);
    }
    throw std::invalid_argument("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "sm_bench: " << e.what() << '\n';
    return 2;
  }
}
