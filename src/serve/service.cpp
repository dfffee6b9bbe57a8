#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "front/front.hpp"
#include "sa/compile.hpp"
#include "support/error.hpp"

namespace nsc::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// ProgramCache capacity of a Service, in compiled artifacts.
constexpr std::size_t kCacheCapacity = 64;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t sat_mul_u64(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

}  // namespace

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Ok: return "ok";
    case Outcome::Trap: return "trap";
    case Outcome::FuelExhausted: return "fuel_exhausted";
    case Outcome::Rejected: return "rejected";
    case Outcome::Error: return "error";
  }
  return "?";
}

void Service::register_metrics() {
  m_.submitted = &registry_.counter(
      "nscc_serve_requests_submitted_total",
      "Requests submitted to the service (accepted or rejected).");
  m_.completed = &registry_.counter(
      "nscc_serve_requests_completed_total",
      "Responses delivered, any outcome.");
  m_.ok = &registry_.counter("nscc_serve_requests_ok_total",
                             "Responses with outcome ok.");
  m_.rejected = &registry_.counter(
      "nscc_serve_requests_rejected_total",
      "Requests refused by admission control (queue full or stopping).");
  m_.trapped = &registry_.counter(
      "nscc_serve_requests_trapped_total",
      "Responses that trapped (the paper's Omega / EvalError).");
  m_.fuel_exhausted = &registry_.counter(
      "nscc_serve_requests_fuel_exhausted_total",
      "Responses that exceeded the per-request instruction budget.");
  m_.errors = &registry_.counter(
      "nscc_serve_requests_error_total",
      "Responses that failed with an internal MachineError.");
  m_.runs = &registry_.counter(
      "nscc_serve_runs_total", "Machine runs issued (including replays).");
  m_.batch_runs = &registry_.counter(
      "nscc_serve_batch_runs_total",
      "Successful runs of a lifted batch program with k >= 2 members.");
  m_.batched_requests = &registry_.counter(
      "nscc_serve_batched_requests_total",
      "Requests answered by a successful batch run.");
  m_.replays = &registry_.counter(
      "nscc_serve_replays_total",
      "Solo re-runs after a trapped or fuel-exhausted batch.");
  m_.cost_time = &registry_.counter(
      "nscc_serve_cost_time_total",
      "Paper T (machine steps) summed over successful runs.");
  m_.cost_work = &registry_.counter(
      "nscc_serve_cost_work_total",
      "Paper W (register lengths) summed over successful runs.");
  m_.exec_wall_ns = &registry_.counter(
      "nscc_serve_exec_wall_ns_total",
      "Wall time spent inside bvram::run, nanoseconds.");
  m_.latency_ns = &registry_.histogram(
      "nscc_serve_latency_ns",
      "Submit-to-completion request latency, nanoseconds (log2 buckets).");
  m_.batch_size = &registry_.histogram(
      "nscc_serve_batch_size",
      "Members per claimed batch (including solo runs).");
  m_.queue_depth = &registry_.gauge(
      "nscc_serve_queue_depth", "Requests queued and not yet claimed.");
  m_.in_flight = &registry_.gauge(
      "nscc_serve_in_flight", "Requests claimed but not yet finished.");
  registry_.gauge("nscc_serve_workers", "Worker threads serving requests.")
      .set(cfg_.workers);
}

Service::Service(ServeConfig cfg)
    : cfg_(cfg), cache_(kCacheCapacity), started_(Clock::now()) {
  if (cfg_.workers == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    cfg_.workers = std::min<std::size_t>(hc == 0 ? 1 : hc, 4);
  }
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  register_metrics();
  threads_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    // Worker ids are 1-based: 0 is the caller-thread row in span traces.
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

Service::~Service() {
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    while (!queue_.empty()) {
      orphans.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    m_.queue_depth->set(0);
  }
  cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  for (Pending& p : orphans) {
    Response r;
    r.outcome = Outcome::Rejected;
    r.error = "service stopped before the request ran";
    record_completion(p, r);
    p.promise.set_value(std::move(r));
  }
}

std::shared_ptr<const CompiledProgram> Service::load(
    const std::string& name, const std::string& source_text,
    const std::string& entry, opt::OptLevel opt,
    const opt::WhileSchedule& sched) {
  const front::SourceFile src(name, source_text);
  const front::ResolvedModule mod = front::compile_file(src);
  const front::ResolvedFn* fn = entry.empty() ? &mod.main() : mod.find(entry);
  if (fn == nullptr) {
    throw Error("serve: no function '" + entry + "' in " + name);
  }
  CacheKey key;
  key.source_hash = hash_source(source_text, fn->name);
  key.opt = opt;
  key.sched = sched.kind;
  key.eps_num = sched.eps.num;
  key.eps_den = sched.eps.den;

  const std::uint64_t t0 =
      cfg_.spans != nullptr ? cfg_.spans->now_ns() : 0;
  bool compiled = false;
  auto prog = cache_.get_or_compile(key, [&] {
    compiled = true;
    return compile_program(name + ":" + fn->name, fn->fn, fn->dom, fn->cod,
                           key);
  });
  if (cfg_.spans != nullptr) {
    obs::ServeSpan s;
    s.phase = compiled ? "compile" : "cache-hit";
    s.worker = 0;
    s.t0_ns = t0;
    s.dur_ns = cfg_.spans->now_ns() - t0;
    s.note = name;
    cfg_.spans->record(std::move(s));
  }
  return prog;
}

std::future<Response> Service::submit(
    std::shared_ptr<const CompiledProgram> program, ValueRef arg) {
  Pending p;
  p.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  p.program = std::move(program);
  p.arg = std::move(arg);
  p.enqueued = Clock::now();
  if (cfg_.spans != nullptr) p.span_t0 = cfg_.spans->now_ns();
  const std::uint64_t id = p.id;
  const std::uint64_t span_t0 = p.span_t0;
  std::future<Response> fut = p.promise.get_future();
  m_.submitted->inc();
  bool rejected = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= cfg_.max_queue) {
      rejected = true;
      depth = queue_.size();
      Response r;
      r.outcome = Outcome::Rejected;
      r.error = stopping_ ? "service stopped" : "queue full";
      record_completion(p, r);
      p.promise.set_value(std::move(r));
    } else {
      queue_.push_back(std::move(p));
      depth = queue_.size();
      m_.queue_depth->set(depth);
    }
  }
  if (cfg_.spans != nullptr) {
    obs::ServeSpan s;
    s.phase = "admission";
    s.request_id = id;
    s.worker = 0;
    s.t0_ns = span_t0;
    s.dur_ns = cfg_.spans->now_ns() - span_t0;
    s.size = depth;
    if (rejected) s.note = "rejected";
    cfg_.spans->record(std::move(s));
  }
  if (!rejected) cv_.notify_one();
  return fut;
}

void Service::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] {
    return stopping_ || (queue_.empty() && in_flight_ == 0);
  });
}

void Service::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Service::worker_loop(std::size_t worker) {
  // One arena per worker, warm after its first runs and never shared:
  // the engine's per-run buffer pool carried across this thread's runs.
  bvram::BufferPool arena;
  for (;;) {
    std::vector<Pending> batch = next_batch();
    if (batch.empty()) return;
    execute(std::move(batch), &arena, worker);
  }
}

std::vector<Service::Pending> Service::next_batch() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] {
    return stopping_ || (!paused_ && !queue_.empty());
  });
  std::vector<Pending> batch;
  if (stopping_) return batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  if (cfg_.max_batch > 1) {
    const CompiledProgram* same = batch.front().program.get();
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < cfg_.max_batch;) {
      if (it->program.get() == same) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  in_flight_ += batch.size();
  m_.queue_depth->set(queue_.size());
  m_.in_flight->set(in_flight_);
  return batch;
}

void Service::execute(std::vector<Pending> batch, bvram::BufferPool* arena,
                      std::size_t worker) {
  const std::shared_ptr<const CompiledProgram> prog = batch.front().program;
  const std::size_t k = batch.size();
  const std::uint64_t run_id =
      next_run_id_.fetch_add(1, std::memory_order_relaxed);
  obs::SpanLog* spans = cfg_.spans;

  m_.batch_size->observe(k);
  if (spans != nullptr) {
    // Close each member's queue-wait now that a worker has claimed it;
    // the batch_id links the wait to the machine run that answers it.
    const std::uint64_t now = spans->now_ns();
    for (const Pending& p : batch) {
      obs::ServeSpan s;
      s.phase = "queue-wait";
      s.request_id = p.id;
      s.batch_id = run_id;
      s.worker = 0;
      s.t0_ns = p.span_t0;
      s.dur_ns = now - p.span_t0;
      s.size = k;
      spans->record(std::move(s));
    }
  }

  const auto record = [&](const char* phase, std::uint64_t t0,
                          std::uint64_t request, const std::string& note) {
    if (spans == nullptr) return;
    obs::ServeSpan s;
    s.phase = phase;
    s.request_id = request;
    s.batch_id = run_id;
    s.worker = worker;
    s.t0_ns = t0;
    s.dur_ns = spans->now_ns() - t0;
    s.size = k;
    s.note = note;
    spans->record(std::move(s));
  };

  if (k >= 2) {
    // One segment-descriptor level up: Value::seq of the arguments is
    // exactly the SEQREP concatenation of the per-request encodings, so
    // the whole batch is one run of the cached lifted program.
    const std::uint64_t asm_t0 = spans != nullptr ? spans->now_ns() : 0;
    std::vector<ValueRef> args;
    args.reserve(k);
    for (const Pending& p : batch) args.push_back(p.arg);
    record("batch-assembly", asm_t0, 0, "");

    bvram::RunConfig rc;
    rc.max_instructions = sat_mul_u64(cfg_.fuel, k);
    rc.arena = arena;

    const std::uint64_t exec_t0 = spans != nullptr ? spans->now_ns() : 0;
    const auto t0 = Clock::now();
    bool batch_ok = false;
    std::string batch_err;
    sa::CompiledRun out;
    try {
      out = sa::run_compiled(prog->batch, Type::seq(prog->dom),
                             Type::seq(prog->cod), Value::seq(args), rc);
      batch_ok = true;
    } catch (const Error& e) {
      // A trap (Omega) or fuel exhaustion anywhere in the batch aborts
      // the whole run -- the machine has no per-segment error state.
      // Fall through to per-request replay: each request re-runs solo
      // under its own fuel, so only the offender fails.
      batch_err = e.what();
    }
    const std::uint64_t wall = ns_between(t0, Clock::now());
    record("execute", exec_t0, 0, batch_ok ? "" : batch_err);

    m_.runs->inc();
    m_.exec_wall_ns->inc(wall);
    if (batch_ok) {
      m_.batch_runs->inc();
      m_.batched_requests->inc(k);
      m_.cost_time->inc(out.cost.time);
      m_.cost_work->inc(out.cost.work);
    }

    if (batch_ok) {
      const std::uint64_t split_t0 = spans != nullptr ? spans->now_ns() : 0;
      const std::vector<ValueRef>& elems = out.value->elems();
      for (std::size_t i = 0; i < k; ++i) {
        Response r;
        r.outcome = Outcome::Ok;
        r.value = elems[i];
        r.cost = out.cost;
        r.batched = true;
        r.batch_size = k;
        finish(batch[i], std::move(r));
      }
      record("split", split_t0, 0, "");
      return;
    }
    for (Pending& p : batch) {
      m_.replays->inc();
      finish(p, run_one(*prog, p.arg, arena, worker, p.id, run_id,
                        "replay"));
    }
    return;
  }

  finish(batch.front(),
         run_one(*prog, batch.front().arg, arena, worker,
                 batch.front().id, run_id, "execute"));
}

Response Service::run_one(const CompiledProgram& prog, const ValueRef& arg,
                          bvram::BufferPool* arena, std::size_t worker,
                          std::uint64_t request_id, std::uint64_t run_id,
                          const char* phase) {
  bvram::RunConfig rc;
  rc.max_instructions = cfg_.fuel;
  rc.arena = arena;

  Response r;
  const std::uint64_t span_t0 =
      cfg_.spans != nullptr ? cfg_.spans->now_ns() : 0;
  const auto t0 = Clock::now();
  try {
    const sa::CompiledRun out =
        sa::run_compiled(prog.unit, prog.dom, prog.cod, arg, rc);
    r.outcome = Outcome::Ok;
    r.value = out.value;
    r.cost = out.cost;
  } catch (const nsc::FuelExhausted& e) {
    r.outcome = Outcome::FuelExhausted;
    r.error = e.what();
  } catch (const EvalError& e) {
    r.outcome = Outcome::Trap;
    r.error = e.what();
  } catch (const Error& e) {
    r.outcome = Outcome::Error;
    r.error = e.what();
  }
  const std::uint64_t wall = ns_between(t0, Clock::now());

  if (cfg_.spans != nullptr) {
    obs::ServeSpan s;
    s.phase = phase;
    s.request_id = request_id;
    s.batch_id = run_id;
    s.worker = worker;
    s.t0_ns = span_t0;
    s.dur_ns = cfg_.spans->now_ns() - span_t0;
    s.size = 1;
    if (!r.ok()) {
      s.note = std::string(outcome_name(r.outcome)) + ": " + r.error;
    }
    cfg_.spans->record(std::move(s));
  }

  m_.runs->inc();
  m_.exec_wall_ns->inc(wall);
  if (r.ok()) {
    m_.cost_time->inc(r.cost.time);
    m_.cost_work->inc(r.cost.work);
  }
  return r;
}

void Service::record_completion(const Pending& p, Response& r) {
  r.latency_ns = ns_between(p.enqueued, Clock::now());
  m_.completed->inc();
  switch (r.outcome) {
    case Outcome::Ok: m_.ok->inc(); break;
    case Outcome::Trap: m_.trapped->inc(); break;
    case Outcome::FuelExhausted: m_.fuel_exhausted->inc(); break;
    case Outcome::Rejected: m_.rejected->inc(); break;
    case Outcome::Error: m_.errors->inc(); break;
  }
  m_.latency_ns->observe(r.latency_ns);
}

void Service::finish(Pending& p, Response r) {
  record_completion(p, r);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    m_.in_flight->set(in_flight_);
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
  p.promise.set_value(std::move(r));
}

obs::Registry& Service::metrics() {
  const CacheStats c = cache_.stats();
  registry_.gauge("nscc_serve_cache_hits", "Program cache hits.").set(c.hits);
  registry_.gauge("nscc_serve_cache_misses",
                  "Program cache misses (compiles).")
      .set(c.misses);
  registry_.gauge("nscc_serve_cache_evictions", "Program cache evictions.")
      .set(c.evictions);
  registry_
      .gauge("nscc_serve_cache_compile_wall_ns",
             "Wall time spent compiling, nanoseconds.")
      .set(c.compile_wall_ns);
  registry_.gauge("nscc_serve_cache_size", "Compiled artifacts cached.")
      .set(c.size);
  registry_.gauge("nscc_serve_cache_capacity", "Program cache capacity.")
      .set(c.capacity);
  registry_
      .gauge("nscc_serve_uptime_ns", "Nanoseconds since Service start.")
      .set(ns_between(started_, Clock::now()));
  return registry_;
}

ServeStats Service::stats() const {
  ServeStats s;
  s.submitted = m_.submitted->value();
  s.completed = m_.completed->value();
  s.ok = m_.ok->value();
  s.rejected = m_.rejected->value();
  s.trapped = m_.trapped->value();
  s.fuel_exhausted = m_.fuel_exhausted->value();
  s.errors = m_.errors->value();
  s.runs = m_.runs->value();
  s.batch_runs = m_.batch_runs->value();
  s.batched_requests = m_.batched_requests->value();
  s.replays = m_.replays->value();
  s.total_cost.time = m_.cost_time->value();
  s.total_cost.work = m_.cost_work->value();
  s.exec_wall_ns = m_.exec_wall_ns->value();
  s.uptime_ns = ns_between(started_, Clock::now());
  if (s.batch_runs > 0) {
    s.batch_occupancy = static_cast<double>(s.batched_requests) /
                        static_cast<double>(s.batch_runs);
  }
  const obs::HistogramSnapshot lat = m_.latency_ns->snapshot();
  if (lat.count > 0) {
    s.latency_p50_ns = lat.quantile(0.50);
    s.latency_p95_ns = lat.quantile(0.95);
    s.latency_p99_ns = lat.quantile(0.99);
    s.latency_mean_ns = lat.mean();
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace nsc::serve
