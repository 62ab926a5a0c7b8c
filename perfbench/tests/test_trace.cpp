// Tests of the benchmark's span arithmetic, trace output and per-cell
// check. Exit code 0 when every check holds; each failed check prints its
// line.
//   cmake --build .bench_build/cmake --target perfbench_tests
//   .bench_build/cmake/perfbench_tests
#include "trace.hpp"
#include "workload.hpp"

#include "util/json.hpp"

#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++failures;                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": " #cond "\n";   \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(const char* name, double lo, double hi, int parent,
                     int lane) {
  perfbench::Span s;
  s.name = name;
  s.start_us = lo;
  s.end_us = hi;
  s.parent = parent;
  s.lane = lane;
  return s;
}

void self_time_without_children() {
  const std::vector<perfbench::Span> spans = {span("a", 5, 25, -1, 0)};
  CHECK(near(perfbench::self_times_us(spans)[0], 20));
}

void self_time_counts_overlapping_lanes_once() {
  // A root on lane 0 with three task children on worker lanes 1..3: the
  // first two overlap each other in [30, 40], the third is disjoint.
  // Covered = [10, 50] + [60, 70] = 50 of the root's 100.
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 100, -1, 0),  span("task", 10, 40, 0, 1),
      span("task", 30, 50, 0, 2),   span("task", 60, 70, 0, 3),
      span("stage", 12, 38, 1, 1),  // grandchild: only its own parent's
  };
  const auto self = perfbench::self_times_us(spans);
  CHECK(near(self[0], 50));
  CHECK(near(self[1], 30 - 26));
  CHECK(near(self[2], 20));
  CHECK(near(self[4], 26));
}

void self_time_clips_children_to_parent() {
  // A child reaching past its parent's end (clock skew between lanes)
  // covers only the overlapping part; a nested child inside another adds
  // nothing.
  const std::vector<perfbench::Span> spans = {
      span("p", 0, 10, -1, 0), span("c", 8, 15, 0, 1), span("d", 1, 4, 0, 2),
      span("e", 2, 3, 0, 3)};
  const auto self = perfbench::self_times_us(spans);
  CHECK(near(self[0], 10 - 2 - 3));
}

void tracer_assigns_lanes_and_nests() {
  perfbench::Tracer t;
  const perfbench::Scope root(t, "root", -1, "");
  int child_id = -1;
  std::thread worker([&] {
    const perfbench::Scope c(t, "child", root.id(), "cafe");
    child_id = c.id();
  });
  worker.join();
  const auto spans = t.spans();
  CHECK(spans.size() == 2);
  CHECK(spans[0].lane == 0);
  CHECK(spans[1].lane == 1);
  CHECK(spans[1].parent == 0);
  CHECK(spans[1].cell == "cafe");
  CHECK(child_id == 1);
  CHECK(spans[1].end_us >= spans[1].start_us);
}

void trace_json_round_trips() {
  std::vector<perfbench::Span> spans = {
      span("sweep.chain", 0, 100.5, -1, 0), span("sweep.task", 1.25, 99, 0, 1),
      span("route.route_j1", 200, 300, -1, 0)};
  spans[1].cell = "0123456789abcdef";
  spans[2].pid = perfbench::kReplayPid;
  spans[2].name = "name with \"quotes\"";
  const auto doc = sm::util::json::parse(perfbench::chrome_trace_json(spans));
  const auto& events = doc.at("traceEvents").array;
  std::vector<const sm::util::json::Value*> complete;
  for (const auto& e : events)
    if (e.at("ph").as_string() == "X") complete.push_back(&e);
  CHECK(complete.size() == spans.size());
  for (std::size_t i = 0; i < complete.size() && i < spans.size(); ++i) {
    const auto& e = *complete[i];
    CHECK(e.at("name").as_string() == spans[i].name);
    CHECK(e.at("ts").as_double() == spans[i].start_us);
    CHECK(e.at("dur").as_double() == spans[i].end_us - spans[i].start_us);
    CHECK(e.at("pid").as_int() == spans[i].pid);
    CHECK(e.at("tid").as_int() == spans[i].lane);
    CHECK(e.at("args").at("cell").as_string() == spans[i].cell);
    CHECK(e.at("args").at("parent").as_int() == spans[i].parent);
  }
  // One thread-name record per (process, lane) in use.
  std::size_t names = 0;
  for (const auto& e : events)
    if (e.at("name").as_string() == "thread_name") ++names;
  CHECK(names == 3);
}

// Tables whose rows do not line up with the grid fail every cell: a
// surplus row can hide a wrong one, whichever check sees it.
void check_fails_tables_that_do_not_line_up() {
  namespace sw = sm::sweep;
  const perfbench::Workload w =
      perfbench::make_workload("iscas_grid", perfbench::kDefaultSeed, 1);
  const std::size_t cells = w.cells();
  sw::Result r;
  r.rows.resize(cells);
  {
    perfbench::CellCheck check(cells);
    perfbench::check_table(w, r, "", check);
    CHECK(check.failed() == 0);
  }
  for (const std::size_t rows : {cells - 1, cells + 1}) {
    r.rows.resize(rows);
    perfbench::CellCheck check(cells);
    perfbench::check_table(w, r, "", check);
    CHECK(check.failed() == cells);
    CHECK(!check.problems.empty());
  }
  r.rows.resize(cells);
  const std::string csv = perfbench::table_csv(r);
  // The table with its last row repeated.
  const std::string surplus =
      csv + csv.substr(csv.rfind('\n', csv.size() - 2) + 1);
  perfbench::CellCheck check(cells);
  perfbench::compare_tables(csv, surplus, "surplus", check);
  CHECK(check.failed() == cells);
  perfbench::CellCheck same(cells);
  perfbench::compare_tables(csv, csv, "same", same);
  CHECK(same.failed() == 0 && same.problems.empty());
}

}  // namespace

int main() {
  self_time_without_children();
  self_time_counts_overlapping_lanes_once();
  self_time_clips_children_to_parent();
  tracer_assigns_lanes_and_nests();
  trace_json_round_trips();
  check_fails_tables_that_do_not_line_up();
  if (failures) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return 0;
}
