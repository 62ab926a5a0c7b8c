// The benchmark's three sweep workloads and the checks on their tables.
//
// Each workload is one or more sweep grids built from a workload seed `s`;
// sm only ever sees the generated netlists and the grids. The reasons each
// one is in the benchmark are in perfbench/INTERACTIONS.md.
#pragma once

#include "sweep/sweep.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The seed the golden tables under perfbench/golden/ were made with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string name;
  /// Sweeps run one after another with the same options; the workload's
  /// table is their rows in this order.
  std::vector<sm::sweep::Grid> sweeps;
  sm::sweep::Options opts;
  /// Cells go to a store log and the table is materialized from it.
  bool store = false;

  std::size_t cells() const;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t jobs);

/// Result::to_csv() without its task_wall_ms column: the per-cell table
/// every run of one (workload, seed) must reproduce byte for byte.
std::string table_csv(const sm::sweep::Result& r);

/// Append `r`'s rows and counters to `into` (walls and cache counters add).
void append(sm::sweep::Result& into, const sm::sweep::Result& r);

/// Per-cell verdicts over the workload's cells (grid-major per sweep, the
/// row order of sweep::Result). A cell is failed if it is missing, breaks
/// an invariant, or differs from the golden table; a row count other than
/// the grid's, or a flag past the last cell, fails every cell.
struct CellCheck {
  std::vector<char> bad;
  std::vector<std::string> problems;  ///< first few, for the log

  explicit CellCheck(std::size_t cells) : bad(cells, 0) {}
  void flag(std::size_t cell, const std::string& why);
  std::size_t failed() const;
};

/// Row count, value ranges and proposed-cell swaps for any seed; with a
/// non-empty `golden_csv`, also a row-by-row comparison against it.
void check_table(const Workload& w, const sm::sweep::Result& r,
                 const std::string& golden_csv, CellCheck& check);

/// Flag every cell where `got` differs from `want` (both table_csv text).
void compare_tables(const std::string& want, const std::string& got,
                    const char* what, CellCheck& check);

}  // namespace perfbench
