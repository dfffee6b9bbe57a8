#include "support/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "support/checked.hpp"

namespace nsc {
namespace {

// Dispatch counters behind parallel_counters(): relaxed increments on the
// kernel-call granularity (never per element), so keeping them always-on
// costs nothing measurable and the profiler can read deltas at any time.
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_serial_calls{0};
std::atomic<std::uint64_t> g_chunks{0};

void count_dispatch(std::size_t chunks) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  if (chunks <= 1) {
    g_serial_calls.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_chunks.fetch_add(chunks, std::memory_order_relaxed);
  }
}

class Pool {
 public:
  Pool() {
    // NSCC_WORKERS overrides hardware_concurrency: tests pin it (so the
    // multi-chunk kernel paths are exercised even on single-core CI
    // boxes) and benchmarks can sweep it.  Validation lives in
    // effective_workers(); a rejected value is reported once, here, with
    // the count actually used.
    std::string warning;
    const std::size_t n =
        effective_workers(std::getenv("NSCC_WORKERS"), &warning);
    if (!warning.empty()) {
      std::fprintf(stderr, "nscc: %s\n", warning.c_str());
    }
    tasks_run_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) tasks_run_[i] = 0;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { run(i); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  std::vector<std::uint64_t> tasks_per_worker() const {
    std::vector<std::uint64_t> out(workers_.size(), 0);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = tasks_run_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  void run(std::size_t worker) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      tasks_run_[worker].fetch_add(1, std::memory_order_relaxed);
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> tasks_run_;
  bool stop_ = false;
};

Pool& pool() {
  static Pool p;
  return p;
}

/// Fork-join driver shared by parallel_for and for_each_chunk: run
/// task(0..count) on the pool, wait, and rethrow the first exception on
/// the calling thread.  Exceptions (EvalError from a trapping elementwise
/// op, ...) must never escape into a worker -- that is std::terminate.
void run_tasks(std::size_t count,
               const std::function<void(std::size_t)>& task) {
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t pending = count;
  std::exception_ptr first_error;
  for (std::size_t t = 0; t < count; ++t) {
    pool().submit([&, t] {
      std::exception_ptr error;
      try {
        task(t);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (error && !first_error) first_error = error;
      if (--pending == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return pending == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

std::size_t parallel_workers() { return pool().size(); }

std::size_t effective_workers(const char* env_value, std::string* warning) {
  const auto hardware = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 1 ? hw : 1);
  };
  if (env_value == nullptr) return hardware();
  const std::string raw(env_value);
  // Strict digits-only parse: strtoul would silently accept "8 threads",
  // wrap "-2" to a huge positive, and read "" as 0.
  bool digits = !raw.empty() && raw.size() <= 9;
  for (const char c : raw) {
    if (c < '0' || c > '9') digits = false;
  }
  const unsigned long v = digits ? std::strtoul(raw.c_str(), nullptr, 10) : 0;
  if (digits && v >= 1 && v <= kMaxWorkers) {
    return static_cast<std::size_t>(v);
  }
  std::size_t n = hardware();
  const char* why = "is not a worker count";
  if (digits && v == 0) {
    why = "asks for zero workers";
  } else if (digits) {
    why = "exceeds the 256-worker cap";
    n = kMaxWorkers;
  }
  if (warning != nullptr) {
    *warning = "NSCC_WORKERS='" + raw + "' " + why + "; using " +
               std::to_string(n) + " worker thread" + (n == 1 ? "" : "s");
  }
  return n;
}

std::uint64_t parallel_chunk_count() {
  return g_chunks.load(std::memory_order_relaxed);
}

ParallelCounters parallel_counters() {
  ParallelCounters c;
  c.calls = g_calls.load(std::memory_order_relaxed);
  c.serial_calls = g_serial_calls.load(std::memory_order_relaxed);
  c.chunks = g_chunks.load(std::memory_order_relaxed);
  c.per_worker_tasks = pool().tasks_per_worker();
  return c;
}

ChunkPlan ChunkPlan::serial(std::size_t n) {
  ChunkPlan p;
  p.n = n;
  p.step = n;
  p.chunks = n > 0 ? 1 : 0;
  return p;
}

ChunkPlan ChunkPlan::make(std::size_t n, std::size_t grain) {
  const std::size_t workers = pool().size();
  if (n == 0 || workers <= 1 || n <= grain) return serial(n);
  std::size_t chunks = (n + grain - 1) / grain;
  if (chunks > workers) chunks = workers;
  const std::size_t step = (n + chunks - 1) / chunks;
  // With `step` rounded up, recompute the chunk count from `step` so every
  // chunk is non-empty and begin <= end <= n (e.g. n=5, chunks=4 -> step=2
  // covers n in 3 chunks).
  ChunkPlan p;
  p.n = n;
  p.step = step;
  p.chunks = (n + step - 1) / step;
  return p;
}

void for_each_chunk(
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (plan.chunks == 0) return;
  count_dispatch(plan.chunks);
  if (plan.chunks == 1) {
    fn(0, 0, plan.n);
    return;
  }
  run_tasks(plan.chunks,
            [&](std::size_t c) { fn(c, plan.begin(c), plan.end(c)); });
}

std::uint64_t parallel_scan(
    const ChunkPlan& plan,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& partial,
    std::vector<std::uint64_t>& offsets) {
  offsets.assign(plan.chunks, 0);
  if (plan.chunks == 0) return 0;
  count_dispatch(plan.chunks);
  std::vector<std::uint64_t> sums(plan.chunks, 0);
  if (plan.chunks == 1) {
    sums[0] = partial(0, plan.n);
  } else {
    run_tasks(plan.chunks, [&](std::size_t c) {
      sums[c] = partial(plan.begin(c), plan.end(c));
    });
  }
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    offsets[c] = total;
    total = sat_add(total, sums[c]);
  }
  return total;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain) {
  const ChunkPlan plan = ChunkPlan::make(n, grain);
  if (plan.chunks == 0) return;
  count_dispatch(plan.chunks);
  if (plan.chunks == 1) {
    fn(0, n);
    return;
  }
  run_tasks(plan.chunks,
            [&](std::size_t c) { fn(plan.begin(c), plan.end(c)); });
}

}  // namespace nsc
