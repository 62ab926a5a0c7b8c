#include "workload.hpp"

#include "workloads/generator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace sw = sm::sweep;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t jobs) {
  Workload w;
  w.name = name;
  w.opts.jobs = jobs;
  w.opts.patterns = 20000;
  sw::Grid g;
  g.attackers = {sw::Attacker::Proximity};
  if (name == "iscas_grid") {
    // Tables 4/5 as users rebuild them: every ISCAS clone, two seeds,
    // three splits, unprotected vs proposed, through the store.
    g.benchmarks = sm::workloads::iscas85_names();
    g.seeds = {seed, seed + 1};
    g.split_layers = {3, 4, 5};
    g.defenses = {sw::Defense::Unprotected, sw::Defense::Proposed};
    w.sweeps = {g};
    w.store = true;
  } else if (name == "superblue_cell") {
    // Large protected cells, one sweep each: a single-task sweep hands the
    // whole worker budget to its router, and MCMF repair dominates the
    // attack. Four generated instances instead of one average out how much
    // one instance's cost differs from the next; at scale 0.01 that cost
    // varies about half as much between seeds as at 0.015.
    g.benchmarks = {"superblue1"};
    g.scale = 0.01;
    g.split_layers = {3};
    g.defenses = {sw::Defense::Proposed};
    for (const std::uint64_t s : {seed, seed + 1, seed + 2, seed + 3}) {
      g.seeds = {s};
      w.sweeps.push_back(g);
    }
  } else if (name == "defense_breadth") {
    // Every defense and attacker on one mid-size design: cached base
    // placements, crouting instead of MCMF, SAT equivalence, and a
    // straggler tail of uneven tasks. Two seeds for the same reason as
    // superblue_cell.
    g.benchmarks = {"c5315"};
    g.seeds = {seed, seed + 1};
    g.split_layers = {3, 5};
    g.defenses = {sw::Defense::Unprotected,  sw::Defense::Proposed,
                  sw::Defense::PlacePerturb, sw::Defense::GColor,
                  sw::Defense::GType1,       sw::Defense::GType2,
                  sw::Defense::PinSwap,      sw::Defense::RoutePerturb,
                  sw::Defense::RouteBlockage};
    g.attackers = {sw::Attacker::Proximity, sw::Attacker::CRouting,
                   sw::Attacker::Sat};
    w.sweeps = {g};
  } else {
    throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
  }
  return w;
}

std::size_t Workload::cells() const {
  std::size_t n = 0;
  for (const auto& g : sweeps) n += g.combinations();
  return n;
}

void append(sw::Result& into, const sw::Result& r) {
  into.rows.insert(into.rows.end(), r.rows.begin(), r.rows.end());
  into.jobs = r.jobs;
  into.router_jobs = r.router_jobs;
  into.wall_ms += r.wall_ms;
  into.cache_stats.netlists += r.cache_stats.netlists;
  into.cache_stats.placements += r.cache_stats.placements;
  into.cache_stats.base_routes += r.cache_stats.base_routes;
  into.cache_stats.hits += r.cache_stats.hits;
}

std::string table_csv(const sw::Result& r) {
  std::istringstream in(r.to_csv());
  std::ostringstream out;
  for (std::string line; std::getline(in, line);)
    out << line.substr(0, line.rfind(',')) << '\n';
  return out.str();
}

void CellCheck::flag(std::size_t cell, const std::string& why) {
  // A row past the grid's cells means the table no longer lines up with
  // the grid, so no cell of it can be trusted.
  if (cell < bad.size())
    bad[cell] = 1;
  else
    std::fill(bad.begin(), bad.end(), 1);
  if (problems.size() < 8) problems.push_back(why);
}

std::size_t CellCheck::failed() const {
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

bool unit_range(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

void compare_tables(const std::string& want, const std::string& got,
                    const char* what, CellCheck& check) {
  const auto a = lines_of(want);
  const auto b = lines_of(got);
  // Line 0 is the header; line i + 1 is cell i.
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < a.size() && i < b.size() && a[i] == b[i]) continue;
    const std::string got_line = i < b.size() ? b[i] : "<missing>";
    if (i == 0) {
      for (std::size_t c = 0; c < check.bad.size(); ++c) check.bad[c] = 1;
      check.problems.push_back(std::string(what) + ": header differs");
      return;
    }
    check.flag(i - 1, std::string(what) + ": cell " + std::to_string(i - 1) +
                          " is '" + got_line + "'");
  }
}

void check_table(const Workload& w, const sw::Result& r,
                 const std::string& golden_csv, CellCheck& check) {
  const std::size_t cells = w.cells();
  if (r.rows.size() != cells) {
    // Missing or surplus rows: the rows no longer line up with the cells.
    std::fill(check.bad.begin(), check.bad.end(), 1);
    check.problems.push_back("table has " + std::to_string(r.rows.size()) +
                             " rows for " + std::to_string(cells) + " cells");
  }
  for (std::size_t i = 0; i < std::min(cells, r.rows.size()); ++i) {
    const sw::Row& row = r.rows[i];
    const std::string id = "cell " + std::to_string(i) + " (" +
                           row.benchmark + " M" +
                           std::to_string(row.split_layer) + " " +
                           sw::to_string(row.defense) + " " +
                           sw::to_string(row.attacker) + ")";
    if (!unit_range(row.ccr) || !unit_range(row.ccr_protected) ||
        !unit_range(row.oer) || !unit_range(row.hd))
      check.flag(i, id + ": CCR/OER/HD outside [0,1]");
    if (row.defense == sw::Defense::Proposed && row.swaps == 0)
      check.flag(i, id + ": proposed cell without swaps");
  }
  if (!golden_csv.empty()) compare_tables(golden_csv, table_csv(r), "golden",
                                          check);
}

}  // namespace perfbench
