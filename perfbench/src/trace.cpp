#include "trace.hpp"

#include "util/config_hash.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace perfbench {

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::open(std::string name, int parent, std::string cell, int pid) {
  const double t = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  // Lanes are numbered in first-seen order; the main thread opens the
  // root span first, so it is lane 0 and pool workers follow.
  const auto it = lanes_
                      .try_emplace(std::this_thread::get_id(),
                                   static_cast<int>(lanes_.size()))
                      .first;
  Span s;
  s.name = std::move(name);
  s.start_us = t;
  s.end_us = t;
  s.parent = parent;
  s.cell = std::move(cell);
  s.lane = pid == kChainPid ? it->second : 0;
  s.pid = pid;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  const double t = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_us = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Sweep the sorted child intervals, merging overlaps, clipped to
    // [lo, hi].
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double total_ms(const std::vector<Span>& spans, std::string_view name,
                int pid) {
  double us = 0.0;
  for (const Span& s : spans)
    if (s.pid == pid && s.name == name) us += duration_us(s);
  return us / 1000.0;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  sm::util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  std::set<std::pair<int, int>> lanes;
  for (const Span& s : spans) lanes.emplace(s.pid, s.lane);
  for (const int pid : {kChainPid, kReplayPid}) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(0);
    w.key("args").begin_object();
    w.key("name").value(pid == kChainPid ? "traced chain"
                                         : "decomposition replays");
    w.end_object();
    w.end_object();
  }
  for (const auto& [pid, lane] : lanes) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(lane);
    w.key("args").begin_object();
    w.key("name").value(lane == 0 ? std::string("main")
                                  : "worker " + std::to_string(lane));
    w.end_object();
    w.end_object();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.pid == kChainPid ? "chain" : "replay");
    w.key("ph").value("X");
    w.key("ts").value(s.start_us);
    w.key("dur").value(duration_us(s));
    w.key("pid").value(s.pid);
    w.key("tid").value(s.lane);
    w.key("args").begin_object();
    w.key("cell").value(s.cell);
    w.key("id").value(static_cast<std::int64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
