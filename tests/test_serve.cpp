// Serve-layer tests (src/serve/: ProgramCache, Service).
//
//   * a warm thread pool makes steady-state execution allocation-free
//     (EngineProfile::pool_misses == 0 on the second run) and stops
//     growing (spare count and bytes hold from the third run on);
//   * one immutable compiled Program is safe to execute from many
//     threads at once, each run bit-identical to the sequential
//     baseline -- this test is the target of the CI ThreadSanitizer job;
//   * segment-descriptor batching returns per-request values
//     bit-identical to solo runs, and a trapping or fuel-exhausted
//     request inside a batch is isolated by replay: the offender fails,
//     the neighbors still succeed with their solo-identical values;
//   * the cache compiles a key exactly once (hits never recompile),
//     LRU-evicts at capacity, and keys on the compile options;
//   * admission control rejects past max_queue and enforces per-request
//     fuel; the stats snapshot and the Prometheus export stay coherent.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bvram/machine.hpp"
#include "bvram/pool.hpp"
#include "front/front.hpp"
#include "object/value.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sa/compile.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"
#include "fresh_thread.hpp"

namespace nsc {
namespace {

namespace F = nsc::front;

// -- shared program sources ----------------------------------------------

// Small pipeline: filter / comprehension / zip, always terminates.
const char kQuery[] =
    "fn small(v : nat) : bool = v < 10\n"
    "fn main(xs : [nat]) : [nat * nat] =\n"
    "  let kept = filter(small, xs) in\n"
    "  zip(enumerate(kept), [v * v | v <- kept])\n";

// Segment means: an empty segment divides by zero -- the paper's Omega.
const char kMeans[] =
    "fn mean(seg : [nat]) : nat = sum(seg) / length(seg)\n"
    "fn main(db : [[nat]]) : [nat] = map(mean, db)\n";

const F::ResolvedFn& entry_of(const F::ResolvedModule& mod) {
  return mod.main();
}

std::shared_ptr<const serve::CompiledProgram> compile_source(
    const char* source, serve::CacheKey key = {}) {
  const F::SourceFile src("test.nsc", source);
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& fn = entry_of(mod);
  key.source_hash = serve::hash_source(source, fn.name);
  return serve::compile_program(fn.name, fn.fn, fn.dom, fn.cod, key);
}

ValueRef nat_seq(std::initializer_list<std::uint64_t> ns) {
  return Value::nat_seq(std::vector<std::uint64_t>(ns));
}

// -- BufferPool / the thread's pool --------------------------------------

TEST(Pool, AcquireRecycleReuse) {
  bvram::BufferPool pool;
  bvram::Buf a = pool.acquire(100);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_GE(a.capacity(), 100u);
  pool.recycle(std::move(a));
  EXPECT_EQ(pool.spare_count(), 1u);
  bvram::Buf b = pool.acquire(50);  // served from the spare
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  pool.recycle(std::move(b));
  pool.reset();
  EXPECT_EQ(pool.spare_count(), 0u);
  EXPECT_EQ(pool.hits(), 1u);  // counters survive reset
  // A request no spare can hold sacrifices the largest spare; a small
  // one takes the smallest spare that fits.
  bvram::Buf s16 = pool.acquire(16);
  bvram::Buf s200 = pool.acquire(200);
  pool.recycle(std::move(s16));
  pool.recycle(std::move(s200));
  bvram::Buf big = pool.acquire(1000);
  EXPECT_GE(big.capacity(), 1000u);
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.spare_count(), 1u);
  EXPECT_EQ(pool.spare_bytes(), 16 * sizeof(std::uint64_t));
  bvram::Buf small = pool.acquire(10);
  EXPECT_EQ(small.capacity(), 16u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.spare_count(), 0u);
}

TEST(Arena, SteadyStateZeroAllocation) {
  const auto prog = compile_source(kQuery);
  const ValueRef arg = nat_seq({4, 25, 7, 1, 13, 9});
  testing::on_fresh_thread([&] {
    const bvram::BufferPool& pool = bvram::thread_pool();
    bvram::RunConfig cfg;
    cfg.profile = true;
    bvram::RunResult raw1, raw2;
    const sa::CompiledRun r1 =
        sa::run_compiled(prog->unit, prog->dom, prog->cod, arg, cfg, &raw1);
    EXPECT_GT(raw1.engine.pool_misses, 0u);  // a cold pool must allocate
    const sa::CompiledRun r2 =
        sa::run_compiled(prog->unit, prog->dom, prog->cod, arg, cfg, &raw2);
    // Warm pool: the whole register file is served by parked buffers.
    EXPECT_EQ(raw2.engine.pool_misses, 0u);
    EXPECT_TRUE(Value::equal(r1.value, r2.value));
    EXPECT_EQ(r1.cost, r2.cost);
    // ...and every buffer a run draws goes back, so the pool stops growing.
    std::size_t count3 = 0, bytes3 = 0;
    for (int run = 3; run <= 10; ++run) {
      sa::run_compiled(prog->unit, prog->dom, prog->cod, arg, cfg);
      if (run == 3) {
        count3 = pool.spare_count();
        bytes3 = pool.spare_bytes();
      }
    }
    EXPECT_GT(count3, 0u);
    EXPECT_EQ(pool.spare_count(), count3);
    EXPECT_EQ(pool.spare_bytes(), bytes3);
  });
}

// -- ProgramCache --------------------------------------------------------

TEST(Cache, HitNeverRecompiles) {
  serve::ProgramCache cache(4);
  serve::CacheKey key;
  key.source_hash = serve::hash_source(kQuery, "main");
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return compile_source(kQuery, key);
  };
  const auto a = cache.get_or_compile(key, compile);
  const auto b = cache.get_or_compile(key, compile);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(a.get(), b.get());  // the same shared artifact
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_GT(st.compile_wall_ns, 0u);
}

TEST(Cache, OptionsAreDistinctKeys) {
  serve::ProgramCache cache(4);
  serve::CacheKey o2;
  o2.source_hash = serve::hash_source(kQuery, "main");
  serve::CacheKey o0 = o2;
  o0.opt = opt::OptLevel::O0;
  int compiles = 0;
  const auto mk = [&](const serve::CacheKey& k) {
    return [&, k] {
      ++compiles;
      return compile_source(kQuery, k);
    };
  };
  cache.get_or_compile(o2, mk(o2));
  cache.get_or_compile(o0, mk(o0));
  cache.get_or_compile(o2, mk(o2));
  EXPECT_EQ(compiles, 2);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(Cache, LruEvictsOldest) {
  serve::ProgramCache cache(2);
  serve::CacheKey base;
  base.source_hash = serve::hash_source(kQuery, "main");
  auto key_of = [&](std::uint64_t salt) {
    serve::CacheKey k = base;
    k.eps_num = salt;  // distinct keys without recompiling real variants
    return k;
  };
  const auto compile = [&] { return compile_source(kQuery, base); };
  const auto a = cache.get_or_compile(key_of(1), compile);
  cache.get_or_compile(key_of(2), compile);
  cache.get_or_compile(key_of(1), compile);  // bump 1 to MRU
  cache.get_or_compile(key_of(3), compile);  // evicts 2
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 2u);
  // 1 and 3 are still cached; 2 compiles again.
  cache.get_or_compile(key_of(1), compile);
  cache.get_or_compile(key_of(3), compile);
  EXPECT_EQ(cache.stats().misses, 3u);
  cache.get_or_compile(key_of(2), compile);
  EXPECT_EQ(cache.stats().misses, 4u);
  // An evicted artifact stays alive while someone holds the ref.
  EXPECT_TRUE(a != nullptr);
}

// -- concurrent execution of one shared Program --------------------------

TEST(Serve, ConcurrentSharedProgram) {
  const auto prog = compile_source(kQuery);
  const std::vector<ValueRef> args = {
      nat_seq({4, 25, 7, 1, 13, 9}), nat_seq({}), nat_seq({10, 10, 10}),
      nat_seq({0, 9, 100, 3})};

  // Sequential baselines, one per arg.
  std::vector<ValueRef> baseline;
  std::vector<Cost> baseline_cost;
  for (const ValueRef& arg : args) {
    const sa::CompiledRun r =
        sa::run_compiled(prog->unit, prog->dom, prog->cod, arg);
    baseline.push_back(r.value);
    baseline_cost.push_back(r.cost);
  }

  // 8 threads hammer the SAME Program object concurrently, each drawing
  // from its own thread's pool.  Any engine mutation of shared Program
  // state is a data race here (the TSan gate) and any cross-talk shows up
  // as a value/cost mismatch.
  constexpr int kThreads = 8;
  constexpr int kReps = 16;
  std::vector<std::future<bool>> oks;
  for (int t = 0; t < kThreads; ++t) {
    oks.push_back(std::async(std::launch::async, [&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const std::size_t a = static_cast<std::size_t>(t + rep) % args.size();
        const sa::CompiledRun r =
            sa::run_compiled(prog->unit, prog->dom, prog->cod, args[a]);
        if (!Value::equal(r.value, baseline[a])) return false;
        if (!(r.cost == baseline_cost[a])) return false;
      }
      return true;
    }));
  }
  for (auto& ok : oks) EXPECT_TRUE(ok.get());
}

// -- Service: batching ---------------------------------------------------

TEST(Serve, BatchedMatchesIndividual) {
  const auto prog = compile_source(kQuery);
  std::vector<ValueRef> args;
  for (std::uint64_t i = 0; i < 24; ++i) {
    args.push_back(nat_seq({i, i + 3, 2 * i, 25, i % 11}));
  }
  // Solo baselines.
  std::vector<ValueRef> solo;
  for (const ValueRef& a : args) {
    solo.push_back(
        sa::run_compiled(prog->unit, prog->dom, prog->cod, a).value);
  }

  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  serve::Service svc(cfg);
  svc.pause();
  std::vector<std::future<serve::Response>> futs;
  for (const ValueRef& a : args) futs.push_back(svc.submit(prog, a));
  svc.resume();
  bool any_batched = false;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::Response r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(Value::equal(r.value, solo[i])) << "request " << i;
    any_batched = any_batched || r.batched;
    EXPECT_LE(r.batch_size, cfg.max_batch);
  }
  EXPECT_TRUE(any_batched);
  svc.drain();
  const serve::ServeStats st = svc.stats();
  EXPECT_EQ(st.ok, args.size());
  EXPECT_GT(st.batch_runs, 0u);
  EXPECT_GT(st.batch_occupancy, 1.0);
  EXPECT_LT(st.runs, args.size());  // batching did amortize runs
}

TEST(Serve, TrapIsolatedInBatch) {
  const auto prog = compile_source(kMeans);
  // Request 2 contains an empty segment: mean() divides by zero (Omega).
  const std::vector<ValueRef> args = {
      Value::seq({nat_seq({1, 2, 3}), nat_seq({10, 20})}),
      Value::seq({nat_seq({4}), nat_seq({6})}),
      Value::seq({nat_seq({4}), nat_seq({}), nat_seq({6})}),
      Value::seq({nat_seq({8, 8})}),
  };
  std::vector<ValueRef> solo(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i == 2) continue;  // the trapping one
    solo[i] = sa::run_compiled(prog->unit, prog->dom, prog->cod, args[i]).value;
  }

  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  serve::Service svc(cfg);
  svc.pause();
  std::vector<std::future<serve::Response>> futs;
  for (const ValueRef& a : args) futs.push_back(svc.submit(prog, a));
  svc.resume();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::Response r = futs[i].get();
    if (i == 2) {
      EXPECT_EQ(r.outcome, serve::Outcome::Trap);
      EXPECT_NE(r.error.find("division by zero"), std::string::npos);
    } else {
      ASSERT_TRUE(r.ok()) << "neighbor " << i << " poisoned: " << r.error;
      EXPECT_TRUE(Value::equal(r.value, solo[i]));
    }
  }
  svc.drain();
  const serve::ServeStats st = svc.stats();
  EXPECT_EQ(st.trapped, 1u);
  EXPECT_EQ(st.ok, args.size() - 1);
  EXPECT_GT(st.replays, 0u);  // the batch fell back to per-request runs
}

TEST(Serve, FuelIsolatedInBatch) {
  const auto prog = compile_source(kMeans);
  // One expensive request (big quotients drive the division loop) next
  // to cheap ones.  T is value-dependent here, so measure rather than
  // guess: pick a fuel that (a) the whole batch's k*fuel budget cannot
  // cover, (b) the cheap solo replays fit under, and (c) the expensive
  // solo replay exceeds.
  const std::vector<ValueRef> args = {
      Value::seq({nat_seq({0})}),
      Value::seq({nat_seq({5000, 5000}), nat_seq({9000, 9000, 9000})}),
      Value::seq({nat_seq({1})}),
  };
  const std::uint64_t cheap_t = std::max(
      sa::run_compiled(prog->unit, prog->dom, prog->cod, args[0]).cost.time,
      sa::run_compiled(prog->unit, prog->dom, prog->cod, args[2]).cost.time);
  const std::uint64_t big_t =
      sa::run_compiled(prog->unit, prog->dom, prog->cod, args[1]).cost.time;
  const std::uint64_t batch_t =
      sa::run_compiled(prog->batch, Type::seq(prog->dom), Type::seq(prog->cod),
                       Value::seq(args))
          .cost.time;
  const std::uint64_t fuel = std::min(batch_t / args.size(), big_t) - 1;
  ASSERT_LT(cheap_t, fuel);  // cheap replays must fit

  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.fuel = fuel;
  serve::Service svc(cfg);
  svc.pause();
  std::vector<std::future<serve::Response>> futs;
  for (const ValueRef& a : args) futs.push_back(svc.submit(prog, a));
  svc.resume();
  const serve::Response r0 = futs[0].get();
  const serve::Response r1 = futs[1].get();
  const serve::Response r2 = futs[2].get();
  EXPECT_TRUE(r0.ok()) << r0.error;
  EXPECT_EQ(r1.outcome, serve::Outcome::FuelExhausted);
  EXPECT_TRUE(r2.ok()) << r2.error;
}

// -- Service: admission, shutdown, stats ---------------------------------

TEST(Serve, AdmissionQueueLimit) {
  const auto prog = compile_source(kQuery);
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 2;
  serve::Service svc(cfg);
  svc.pause();  // nothing drains: the queue must hit the limit
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(svc.submit(prog, nat_seq({1, 2, 3})));
  }
  svc.resume();
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    const serve::Response r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.outcome, serve::Outcome::Rejected);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, 3u);
  // Every completion is in the latency histogram, rejections included.
  std::ostringstream prom;
  svc.metrics().write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("nscc_serve_requests_completed_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("nscc_serve_latency_ns_count 5"), std::string::npos);
}

TEST(Serve, DestructorFailsPendingCleanly) {
  const auto prog = compile_source(kQuery);
  std::future<serve::Response> orphan;
  {
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::Service svc(cfg);
    svc.pause();
    orphan = svc.submit(prog, nat_seq({1}));
  }  // destructor: never ran, must still resolve
  const serve::Response r = orphan.get();
  EXPECT_EQ(r.outcome, serve::Outcome::Rejected);
}

TEST(Serve, LoadCachesBySourceAndOptions) {
  serve::Service svc;
  const auto a = svc.load("q.nsc", kQuery);
  const auto b = svc.load("q.nsc", kQuery);
  EXPECT_EQ(a.get(), b.get());
  const auto c = svc.load("q.nsc", kQuery, "", opt::OptLevel::O0);
  EXPECT_NE(a.get(), c.get());
  const serve::CacheStats st = svc.cache().stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(Serve, StatsCoherent) {
  const auto prog = compile_source(kQuery);
  serve::ServeConfig cfg;
  cfg.workers = 2;
  serve::Service svc(cfg);
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(svc.submit(prog, nat_seq({static_cast<std::uint64_t>(i)})));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  svc.drain();
  const serve::ServeStats st = svc.stats();
  EXPECT_EQ(st.submitted, 12u);
  EXPECT_EQ(st.completed, 12u);
  EXPECT_EQ(st.ok, 12u);
  EXPECT_GT(st.total_cost.time, 0u);
  EXPECT_GE(st.latency_p95_ns, st.latency_p50_ns);
  EXPECT_GE(st.latency_p99_ns, st.latency_p95_ns);
}

// The profiling / tracing contract survives the serve path: a batched
// run of map(f) under profile produces the same per-request values as
// unprofiled solo runs (profiling never perturbs machine state, PR 6's
// invariant, now exercised one segment-descriptor level up).
TEST(Serve, ProfiledBatchBitIdentical) {
  const auto prog = compile_source(kQuery);
  std::vector<ValueRef> args;
  for (std::uint64_t i = 0; i < 6; ++i) args.push_back(nat_seq({i, 25, i + 7}));
  const ValueRef batch_arg = Value::seq(args);
  const TypeRef bdom = Type::seq(prog->dom);
  const TypeRef bcod = Type::seq(prog->cod);
  bvram::RunConfig plain;
  bvram::RunConfig profiled;
  profiled.profile = true;
  profiled.record_trace = true;
  const sa::CompiledRun rp =
      sa::run_compiled(prog->batch, bdom, bcod, batch_arg, plain);
  const sa::CompiledRun rq =
      sa::run_compiled(prog->batch, bdom, bcod, batch_arg, profiled);
  EXPECT_TRUE(Value::equal(rp.value, rq.value));
  EXPECT_EQ(rp.cost, rq.cost);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const sa::CompiledRun solo =
        sa::run_compiled(prog->unit, prog->dom, prog->cod, args[i]);
    EXPECT_TRUE(Value::equal(rp.value->elems()[i], solo.value));
  }
}

// -- Service: telemetry --------------------------------------------------

// The invisibility contract: with the span sink wired, responses are
// bit-identical to a dark service -- outcomes, values, T/W, batching
// decisions -- including across the trap-in-batch replay cascade.
TEST(Serve, TelemetryInvisible) {
  const auto prog = compile_source(kMeans);
  // Request 2 traps (empty segment): the batch run aborts and replays,
  // so the comparison covers batch, replay, and trap paths at once.
  const std::vector<ValueRef> args = {
      Value::seq({nat_seq({1, 2, 3}), nat_seq({10, 20})}),
      Value::seq({nat_seq({4}), nat_seq({6})}),
      Value::seq({nat_seq({4}), nat_seq({}), nat_seq({6})}),
      Value::seq({nat_seq({8, 8})}),
  };

  const auto run_all = [&](serve::Service& svc) {
    svc.pause();
    std::vector<std::future<serve::Response>> futs;
    for (const ValueRef& a : args) futs.push_back(svc.submit(prog, a));
    svc.resume();
    std::vector<serve::Response> out;
    for (auto& f : futs) out.push_back(f.get());
    svc.drain();
    return out;
  };

  serve::ServeConfig dark;
  dark.workers = 1;
  dark.max_batch = 8;
  serve::Service dark_svc(dark);
  const std::vector<serve::Response> want = run_all(dark_svc);

  obs::SpanLog spans;
  serve::ServeConfig lit = dark;
  lit.spans = &spans;
  serve::Service lit_svc(lit);
  const std::vector<serve::Response> got = run_all(lit_svc);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].outcome, got[i].outcome) << "request " << i;
    EXPECT_EQ(want[i].error, got[i].error) << "request " << i;
    if (want[i].ok()) {
      EXPECT_TRUE(Value::equal(want[i].value, got[i].value))
          << "request " << i;
    }
    EXPECT_EQ(want[i].cost, got[i].cost) << "request " << i;
    EXPECT_EQ(want[i].batched, got[i].batched) << "request " << i;
    EXPECT_EQ(want[i].batch_size, got[i].batch_size) << "request " << i;
  }
  const serve::ServeStats a = dark_svc.stats();
  const serve::ServeStats b = lit_svc.stats();
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.trapped, b.trapped);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.total_cost, b.total_cost);

  // The trace observed the cascade and carries each failure's message:
  // the aborted batch's execute span holds the error the batch raised,
  // and the trapping request's (id 3) replay span reads "trap: <error>".
  ASSERT_EQ(got[2].outcome, serve::Outcome::Trap);
  std::string batch_err;
  try {
    sa::run_compiled(prog->batch, Type::seq(prog->dom), Type::seq(prog->cod),
                     Value::seq(args));
  } catch (const Error& e) {
    batch_err = e.what();
  }
  ASSERT_FALSE(batch_err.empty());
  std::size_t executes = 0, replays = 0, waits = 0;
  for (const obs::ServeSpan& s : spans.drain()) {
    if (s.phase == "execute") {
      ++executes;
      EXPECT_EQ(s.note, batch_err);
    } else if (s.phase == "replay") {
      ++replays;
      EXPECT_EQ(s.note, s.request_id == 3 ? "trap: " + got[2].error : "")
          << "request " << s.request_id;
    } else if (s.phase == "queue-wait") {
      ++waits;
    }
  }
  EXPECT_EQ(executes, 1u);
  EXPECT_EQ(replays, args.size());
  EXPECT_EQ(waits, args.size());
}

// A saturated span log degrades telemetry, never the request path:
// spans beyond capacity are dropped and counted, and every request
// still completes correctly.
TEST(Serve, SpanDropAccountingUnderSaturation) {
  const auto prog = compile_source(kMeans);
  obs::SpanLog spans(2);  // tiny on purpose
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.spans = &spans;
  serve::Service svc(cfg);
  svc.pause();
  std::vector<std::future<serve::Response>> futs;
  // Every request traps solo (all-empty segments), and the admission,
  // queue-wait, execute and replay spans run well past the capacity of 2.
  for (int i = 0; i < 8; ++i) {
    futs.push_back(
        svc.submit(prog, Value::seq({nat_seq({}), nat_seq({})})));
  }
  svc.resume();
  for (auto& f : futs) {
    EXPECT_EQ(f.get().outcome, serve::Outcome::Trap);
  }
  svc.drain();
  const obs::SpanLogStats ss = spans.stats();
  EXPECT_EQ(ss.recorded, 2u);
  EXPECT_GT(ss.dropped, 0u);
  EXPECT_EQ(ss.queued, 2u);
  EXPECT_EQ(spans.drain().size(), 2u);
}

// Registry-backed stats must match the responses the service actually
// delivered (the counters are relaxed atomics, but after drain() every
// update is complete).
/// The unlabelled samples of a Prometheus exposition, by metric name.
std::map<std::string, std::uint64_t> prometheus_samples(
    const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t sp = line.find(' ');
    out[line.substr(0, sp)] = std::stoull(line.substr(sp + 1));
  }
  return out;
}

// Prometheus text is the service's one exporter, so every count of the
// ServeStats snapshot must be there: a trapping batch that replays, an
// admission rejection, a successful batch and a cache hit all land in
// the exposition as the same numbers.
TEST(Serve, MetricsRegistryCoherent) {
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.max_queue = 4;
  serve::Service svc(cfg);
  const auto prog = svc.load("means.nsc", kMeans);
  EXPECT_EQ(svc.load("means.nsc", kMeans).get(), prog.get());  // cache hit
  const ValueRef ok = Value::seq({nat_seq({1, 2, 3}), nat_seq({10, 20})});
  const ValueRef trap = Value::seq({nat_seq({4}), nat_seq({}), nat_seq({6})});
  std::vector<std::future<serve::Response>> futs;
  // One batch of four whose third member traps, so all four replay; the
  // fifth submit finds the queue full.
  svc.pause();
  for (const ValueRef& a : {ok, ok, trap, ok, ok}) {
    futs.push_back(svc.submit(prog, a));
  }
  svc.resume();
  svc.drain();
  // Then a batch of three that succeeds.
  svc.pause();
  for (int i = 0; i < 3; ++i) futs.push_back(svc.submit(prog, ok));
  svc.resume();
  for (auto& f : futs) f.get();
  svc.drain();

  const serve::ServeStats st = svc.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.ok, 6u);
  EXPECT_EQ(st.trapped, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.replays, 4u);
  EXPECT_EQ(st.runs, 6u);
  EXPECT_EQ(st.batch_runs, 1u);
  EXPECT_EQ(st.batched_requests, 3u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.cache.misses, 1u);

  std::ostringstream prom;
  svc.metrics().write_prometheus(prom);
  const std::map<std::string, std::uint64_t> m =
      prometheus_samples(prom.str());
  const auto sample = [&](const std::string& name) {
    const auto it = m.find(name);
    EXPECT_TRUE(it != m.end()) << name;
    return it == m.end() ? ~std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(sample("nscc_serve_requests_submitted_total"), st.submitted);
  EXPECT_EQ(sample("nscc_serve_requests_completed_total"), st.completed);
  EXPECT_EQ(sample("nscc_serve_requests_ok_total"), st.ok);
  EXPECT_EQ(sample("nscc_serve_requests_rejected_total"), st.rejected);
  EXPECT_EQ(sample("nscc_serve_requests_trapped_total"), st.trapped);
  EXPECT_EQ(sample("nscc_serve_requests_fuel_exhausted_total"),
            st.fuel_exhausted);
  EXPECT_EQ(sample("nscc_serve_requests_error_total"), st.errors);
  EXPECT_EQ(sample("nscc_serve_runs_total"), st.runs);
  EXPECT_EQ(sample("nscc_serve_batch_runs_total"), st.batch_runs);
  EXPECT_EQ(sample("nscc_serve_batched_requests_total"), st.batched_requests);
  EXPECT_EQ(sample("nscc_serve_replays_total"), st.replays);
  EXPECT_EQ(sample("nscc_serve_cost_time_total"), st.total_cost.time);
  EXPECT_EQ(sample("nscc_serve_cost_work_total"), st.total_cost.work);
  EXPECT_EQ(sample("nscc_serve_exec_wall_ns_total"), st.exec_wall_ns);
  EXPECT_EQ(sample("nscc_serve_latency_ns_count"), st.completed);
  EXPECT_EQ(sample("nscc_serve_cache_hits"), st.cache.hits);
  EXPECT_EQ(sample("nscc_serve_cache_misses"), st.cache.misses);
  EXPECT_EQ(sample("nscc_serve_cache_evictions"), st.cache.evictions);
  EXPECT_EQ(sample("nscc_serve_cache_compile_wall_ns"),
            st.cache.compile_wall_ns);
  EXPECT_EQ(sample("nscc_serve_cache_size"), st.cache.size);
  EXPECT_EQ(sample("nscc_serve_cache_capacity"), st.cache.capacity);
  EXPECT_GE(sample("nscc_serve_uptime_ns"), 1u);
}

}  // namespace
}  // namespace nsc
