// Compile-once, run-many: the `nscc serve` query service.
//
// The pipeline's cost profile is lopsided: compiling an NSC program
// (frontend + variable elimination + flattening + optimizer) costs
// orders of magnitude more than executing it on the small inputs a
// query service sees.  The Service amortizes that compile across
// requests with three mechanisms, layered so each is independently
// testable:
//
//   1. ProgramCache (serve/cache.hpp): compile once per (source, opt,
//      schedule) key, share the immutable artifact across every
//      thread.  bvram::run takes the Program by const reference and
//      keeps all run state in a private Engine, so N workers executing
//      one Program concurrently need no synchronization.
//
//   2. Per-worker register pools: each worker is a thread, and bvram::run
//      draws every run's registers from its thread's pool, so a warm
//      worker's steady-state runs allocate no register buffer.
//
//   3. Request batching: queued requests against the same program are
//      appended into ONE segment-descriptor level -- Value::seq of the
//      arguments is exactly the SEQREP concatenation -- and executed by
//      the cached lifted program (map f, Lemma 7.2) in a single machine
//      run, then split back into per-request responses.  Batching is an
//      execution strategy, not a semantics change: each response's
//      value is bit-identical to what a solo run would produce, and a
//      trapping or fuel-exhausted batch falls back to per-request
//      replay so an Omega in one request never poisons its neighbors
//      (test Serve.TrapIsolatedInBatch).
//
// Admission control keeps the service honest under overload: requests
// past `max_queue` are rejected immediately (never silently dropped),
// a batch never exceeds `max_batch`, and every request carries a fuel
// budget (`fuel` instructions; a batch of k gets k*fuel, and on
// exhaustion the replay path re-runs each request under its own fuel,
// so a diverging request cannot starve a batched neighbor either).
//
// See docs/serve.md for the full semantics and the stats.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "object/value.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "opt/opt.hpp"
#include "serve/cache.hpp"
#include "support/cost.hpp"

namespace nsc::serve {

/// The most worker threads `nscc serve --workers` accepts.
constexpr std::size_t kMaxWorkers = 256;

struct ServeConfig {
  /// Worker threads; 0 picks min(hardware_concurrency, 4).
  std::size_t workers = 0;
  /// Admission limit: submits beyond this many queued requests are
  /// rejected immediately with Outcome::Rejected.
  std::size_t max_queue = 1024;
  /// Largest number of same-program requests merged into one batch run;
  /// 1 = every request runs the unit program individually.
  std::size_t max_batch = 64;
  /// Per-request instruction budget (RunConfig::max_instructions); a
  /// batch of k runs under k * fuel.
  std::uint64_t fuel = std::uint64_t{1} << 32;

  /// Per-request span sink for the Chrome trace exporter.  Null = no
  /// spans.  Not owned.  A pure observer: with spans on, responses,
  /// traps, T/W and counters are bit-identical to a service without
  /// them; spans may only cost wall time (test Serve.TelemetryInvisible).
  obs::SpanLog* spans = nullptr;
};

enum class Outcome {
  Ok,
  Trap,           ///< the paper's Omega (EvalError)
  FuelExhausted,  ///< exceeded the per-request instruction budget
  Rejected,       ///< admission control: queue full
  Error,          ///< internal MachineError (compiler bug surfaced)
};

const char* outcome_name(Outcome o);

struct Response {
  Outcome outcome = Outcome::Error;
  std::string error;  ///< diagnostic for every non-Ok outcome
  ValueRef value;     ///< Ok only
  /// T/W of the machine run that produced this response.  For a batched
  /// response this is the WHOLE batch run's cost, shared by all
  /// `batch_size` members (divide to amortize); a replayed or solo
  /// response carries its own run's cost.
  Cost cost;
  bool batched = false;       ///< served by the lifted batch program
  std::size_t batch_size = 1; ///< members of the run that served this
  std::uint64_t latency_ns = 0;  ///< submit-to-completion wall time

  bool ok() const { return outcome == Outcome::Ok; }
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< responses delivered, any outcome
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t trapped = 0;
  std::uint64_t fuel_exhausted = 0;
  std::uint64_t errors = 0;

  std::uint64_t runs = 0;        ///< machine runs issued (incl. replays)
  std::uint64_t batch_runs = 0;  ///< runs of a lifted program with k >= 2
  std::uint64_t batched_requests = 0;  ///< requests answered by batch runs
  std::uint64_t replays = 0;  ///< solo re-runs after a failed batch
  /// Mean members per batch run (k >= 2 runs only); 0 when none ran.
  double batch_occupancy = 0.0;

  Cost total_cost;                 ///< T/W summed over machine runs
  std::uint64_t exec_wall_ns = 0;  ///< wall time inside bvram::run
  std::uint64_t uptime_ns = 0;     ///< since Service construction

  /// Latency distribution over ALL completions, derived from the
  /// registry's log2-bucket histogram: each quantile is nearest-rank
  /// with linear interpolation inside the landing bucket, so it is
  /// within its bucket's bounds (<= 2x relative error) rather than an
  /// exact order statistic.  See docs/serve.md for the tolerance note.
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p95_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_mean_ns = 0;

  CacheStats cache;
};

/// The query service.  Construction starts the worker threads; the
/// destructor drains nothing -- it fails pending requests with Rejected
/// and joins.  Call drain() first for a graceful shutdown.
class Service {
 public:
  explicit Service(ServeConfig cfg = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const ServeConfig& config() const { return cfg_; }
  ProgramCache& cache() { return cache_; }

  /// Frontend + cache in one step: parse/resolve `source_text`, pick
  /// entry `entry` (empty = main), and compile through the cache.
  /// Throws FrontError / CompileError.
  std::shared_ptr<const CompiledProgram> load(
      const std::string& name, const std::string& source_text,
      const std::string& entry = "",
      opt::OptLevel opt = opt::OptLevel::O2,
      const opt::WhileSchedule& sched = {});

  /// Enqueue one request.  The future resolves when a worker has
  /// executed it (or immediately with Rejected when the queue is full).
  std::future<Response> submit(
      std::shared_ptr<const CompiledProgram> program, ValueRef arg);

  /// Block until every request submitted so far has completed.
  void drain();

  /// Stop workers from dequeuing (submits still enqueue, admission
  /// still applies).  Lets tests and benchmarks build a queue of known
  /// shape so resume() forms deterministic batches.
  void pause();
  void resume();

  ServeStats stats() const;

  /// The metrics registry, with the derived gauges (queue depth, cache,
  /// uptime) refreshed to the current instant.
  /// Write with registry.write_prometheus().
  obs::Registry& metrics();

 private:
  struct Pending {
    std::uint64_t id = 0;  ///< request id (1-based, service-unique)
    std::shared_ptr<const CompiledProgram> program;
    ValueRef arg;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t span_t0 = 0;  ///< SpanLog timestamp at submit (spans on)
  };

  /// Hot-path metric handles, registered once at construction; every
  /// update through these is a relaxed atomic op, no registry lock.
  struct Hot {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* trapped = nullptr;
    obs::Counter* fuel_exhausted = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* runs = nullptr;
    obs::Counter* batch_runs = nullptr;
    obs::Counter* batched_requests = nullptr;
    obs::Counter* replays = nullptr;
    obs::Counter* cost_time = nullptr;
    obs::Counter* cost_work = nullptr;
    obs::Counter* exec_wall_ns = nullptr;
    obs::Histogram* latency_ns = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* in_flight = nullptr;
  };

  void register_metrics();
  void worker_loop(std::size_t worker);
  /// Claim the next batch: front of the queue plus up to max_batch-1
  /// later entries sharing its program.  Empty when paused / stopping.
  std::vector<Pending> next_batch();
  void execute(std::vector<Pending> batch, std::size_t worker);
  Response run_one(const CompiledProgram& prog, const ValueRef& arg,
                   std::size_t worker, std::uint64_t request_id,
                   std::uint64_t run_id, const char* phase);
  /// Stamps r's latency and counts it as one completion: the completed
  /// counter, its outcome's counter and the latency histogram.  Every
  /// response goes through here, rejected ones included.
  void record_completion(const Pending& p, Response& r);
  void finish(Pending& p, Response r);

  ServeConfig cfg_;
  ProgramCache cache_;
  std::chrono::steady_clock::time_point started_;

  obs::Registry registry_;
  Hot m_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> next_run_id_{1};

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< workers: queue non-empty / stop
  std::condition_variable idle_cv_;  ///< drain(): all work finished
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;  ///< requests claimed but not yet finished
  bool paused_ = false;
  bool stopping_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace nsc::serve
