// In-memory span recorder for the benchmark's traced replay.
//
// Every span is opened and closed by the benchmark itself around a call
// into one of sm's public functions; nothing inside libsm is instrumented.
// Spans carry (name, start, end, parent, cell id, worker lane, process):
// process 1 is the traced chain, process 2 the decomposition replays that
// run after it. At exit the spans are written as Chrome trace-event JSON
// (chrome://tracing, Perfetto), one lane per worker thread.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

inline constexpr int kChainPid = 1;
inline constexpr int kReplayPid = 2;

struct Span {
  std::string name;
  double start_us = 0.0;  ///< steady clock, relative to the tracer's start
  double end_us = 0.0;
  int parent = -1;        ///< index into the span list, -1 for roots
  std::string cell;       ///< config hash of the cell (first cell of a task)
  int lane = 0;           ///< worker lane: 0 = main thread, then first-seen
  int pid = kChainPid;
};

/// Thread-safe recorder: open() from any thread returns the span's index,
/// close() stamps its end. Spans are never removed, so indices stay valid.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int open(std::string name, int parent, std::string cell,
           int pid = kChainPid);
  void close(int id);
  std::vector<Span> spans() const;

 private:
  double now_us() const;

  const std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_ and lanes_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> lanes_;
};

/// RAII span: opens on construction, closes on destruction (exceptions
/// included, so a throwing stage still leaves a well-formed trace).
class Scope {
 public:
  Scope(Tracer& t, std::string name, int parent, std::string cell,
        int pid = kChainPid)
      : t_(t), id_(t.open(std::move(name), parent, std::move(cell), pid)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

inline double duration_us(const Span& s) { return s.end_us - s.start_us; }

/// Per-span self time: the span's duration minus the part of its interval
/// covered by at least one child. Children of one parent may run on
/// different worker lanes and overlap each other; their union is counted
/// once, and any child time outside the parent's interval is clipped.
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Sum of durations (ms) of all spans called `name` in process `pid`.
double total_ms(const std::vector<Span>& spans, std::string_view name,
                int pid = kChainPid);

/// Chrome trace-event JSON ("X" complete events plus process/thread name
/// metadata); span index, parent and cell id go into each event's args.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
