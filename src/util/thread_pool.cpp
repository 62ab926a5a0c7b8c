#include "util/thread_pool.hpp"

#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sm::util {
namespace {

/// One in-flight parallel_for: per-worker index deques plus first-error
/// bookkeeping. Lives on the caller's stack; every worker that touches it
/// is joined before the call returns.
struct Batch {
  Batch(std::size_t workers, std::size_t n,
        const std::function<void(std::size_t)>& f)
      : queues(workers), locks(workers), fn(f) {
    // Contiguous slices per worker: neighbouring grid tasks usually share a
    // benchmark, so keeping them on one worker helps cache locality; load
    // imbalance is what stealing is for.
    const std::size_t chunk = (n + workers - 1) / workers;
    for (std::size_t t = 0, i = 0; t < workers && i < n; ++t)
      for (std::size_t k = 0; k < chunk && i < n; ++k) queues[t].push_back(i++);
  }

  std::vector<std::deque<std::size_t>> queues;
  std::vector<std::mutex> locks;
  const std::function<void(std::size_t)>& fn;

  std::mutex err_mutex;
  std::exception_ptr error;
  std::size_t error_index = 0;

  /// Next index for worker `self`: own front first, then steal from the
  /// back of the nearest non-empty victim.
  bool pop(std::size_t self, std::size_t& out) {
    {
      std::lock_guard<std::mutex> g(locks[self]);
      if (!queues[self].empty()) {
        out = queues[self].front();
        queues[self].pop_front();
        return true;
      }
    }
    for (std::size_t k = 1; k < queues.size(); ++k) {
      const std::size_t victim = (self + k) % queues.size();
      std::lock_guard<std::mutex> g(locks[victim]);
      if (!queues[victim].empty()) {
        out = queues[victim].back();
        queues[victim].pop_back();
        return true;
      }
    }
    return false;
  }

  /// Keep only the lowest-index failure so the rethrow is deterministic.
  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> g(err_mutex);
    if (!error || index < error_index) {
      error = std::current_exception();
      error_index = index;
    }
  }

  void drain(std::size_t self) {
    std::size_t i = 0;
    while (pop(self, i)) {
      try {
        fn(i);
      } catch (...) {
        record_error(i);
      }
    }
  }
};

/// Inline execution with the same semantics as the threaded path: every
/// index runs even after a failure, and the lowest failing index's
/// exception wins.
void run_serial(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::exception_ptr error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::size_t resolve_jobs(std::size_t jobs, std::size_t n) {
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (n == 0) n = 1;
  return jobs < n ? jobs : n;
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  jobs = resolve_jobs(jobs, n);
  if (jobs <= 1) {
    run_serial(n, fn);
    return;
  }
  Batch b(jobs, n, fn);
  {
    // Declared after `b`, so every started helper is joined before `b`
    // dies, even when starting a later one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(jobs - 1);
    for (std::size_t t = 1; t < jobs; ++t)
      helpers.emplace_back([&b, t] { b.drain(t); });
    b.drain(0);
  }
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace sm::util
