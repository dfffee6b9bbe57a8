// The serve-layer probe: every traced run ends with a short run of one
// Service (default settings, 2 workers, the 12 programs loaded), so the
// serve.* per-layer metrics come from a real run.  One generator thread
// sends query-sized requests (4-64 elements) for programs picked with
// Zipf(1) popularity, in two phases:
//
//   open        Poisson arrivals at a fixed 3,000 req/s; latency runs from
//               each request's scheduled send time to its response, so
//               generator stalls count against the service, and the
//               generator's own lateness is reported.
//   saturation  a closed loop with 64 requests outstanding.
//
// Requests are tiny vectors, so per-instruction dispatch, the arenas, the
// queue and batching do the work.  Every response is checked against the
// evaluator; trap_division requests carry an empty segment one time in
// eight, so the expected trap exercises batch replay.  RSS is sampled
// every 1000 requests and nothing (arenas, cache) is reset between
// phases, so arena growth shows in serve.rss_kb_per_1k_req.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include <sys/prctl.h>

#include "gen.hpp"
#include "support/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = nsc::serve;
using Program = std::shared_ptr<const serve::CompiledProgram>;

constexpr std::size_t kWorkers = 2;
constexpr double kOpenRate = 3000;  // requests per second
constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kRssEvery = 1000;
constexpr double kWarmupSeconds = 1;
constexpr double kPhaseSeconds = 1.5;
constexpr std::size_t kArgsPerProgram = 8;
constexpr int kSaturationWindows = 6;

struct PoolEntry {
  nsc::ValueRef arg;
  Outcome expected;
};

/// The seeded request population: per program a pool of arguments with
/// their evaluator outcomes.  Program popularity is Zipf(1) over the
/// fixed program_names() order, not a seeded one: with a seeded order
/// each seed is a different traffic mix (the top program takes 32% of
/// requests).
struct Pool {
  std::vector<std::vector<PoolEntry>> entries;
  std::vector<double> cdf;  ///< cumulative Zipf(1) weights by program

  std::size_t pick_program(nsc::SplitMix64& rng) const {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
  }
};

Pool make_pool(std::uint64_t seed, const std::vector<CorpusProgram>& corpus) {
  Pool pool;
  nsc::SplitMix64 rng(seed ^ 0x5eed5e4e5eed5e4eULL);
  for (const CorpusProgram& prog : corpus) {
    std::vector<PoolEntry> es;
    for (std::size_t i = 0; i < kArgsPerProgram; ++i) {
      const std::size_t n = rng.between(4, 64);
      const bool empty = prog.name == "trap_division" && rng.below(8) == 0;
      const nsc::ValueRef arg = generate(prog.name, rng.next(), n, empty);
      es.push_back({arg, evaluate(prog.main(), arg)});
    }
    pool.entries.push_back(std::move(es));
  }
  double total = 0;
  for (std::size_t r = 1; r <= corpus.size(); ++r) total += 1.0 / r;
  double acc = 0;
  for (std::size_t r = 1; r <= corpus.size(); ++r) {
    acc += 1.0 / r / total;
    pool.cdf.push_back(acc);
  }
  return pool;
}

struct PhaseStats {
  std::uint64_t completed = 0, runs = 0, batch_runs = 0, batched = 0,
                replays = 0, exec_ns = 0;
  static PhaseStats of(const serve::ServeStats& s) {
    return {s.completed, s.runs, s.batch_runs, s.batched_requests, s.replays,
            s.exec_wall_ns};
  }
  PhaseStats minus(const PhaseStats& o) const {
    return {completed - o.completed, runs - o.runs, batch_runs - o.batch_runs,
            batched - o.batched, replays - o.replays, exec_ns - o.exec_ns};
  }
};

/// What the two phases measured.
struct PhaseResults {
  Samples latency;                ///< open phase, ms from scheduled send
  Samples late;                   ///< generator lateness, ms
  Samples submit_us;              ///< Service::submit call time, open phase
  Samples sat_rps;                ///< completions per second, per window
  std::uint64_t sat_completed = 0;
  PhaseStats open, sat;
  std::vector<std::pair<double, double>> rss;  ///< (requests, KiB)
  Samples queue_wait;             ///< open phase, ms, from the span sink
};

/// Sleeps until `target`.  The generator does not spin: on 4 vCPUs a
/// spinning generator takes a core from the 2 workers it measures.  The
/// calling thread's timer slack is cut to 1 us so sleeps end on time.
void wait_until(Clock::time_point target) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::this_thread::sleep_until(target);
}

/// The open phase, then the saturation phase, kPhaseSeconds each.
PhaseResults serve_phases(serve::Service& svc, const std::vector<Program>& progs,
                          const Pool& pool, std::uint64_t seed,
                          nsc::obs::SpanLog& spans, Tally& tally) {
  PhaseResults out;
  nsc::SplitMix64 rng(seed ^ 0x0be70be70be70be7ULL);
  std::uint64_t sent_total = 0;
  const auto sample_rss = [&] {
    if (++sent_total % kRssEvery == 0) {
      out.rss.push_back({static_cast<double>(sent_total),
                         static_cast<double>(current_rss_kb())});
    }
  };
  const auto pick = [&]() -> std::pair<std::size_t, const PoolEntry*> {
    const std::size_t p = pool.pick_program(rng);
    const auto& es = pool.entries[p];
    return {p, &es[rng.below(es.size())]};
  };

  // Open loop.  The first kWarmupSeconds are sent and checked like the
  // rest but not measured: they let the arenas and caches reach the
  // request mix before timing.
  struct Sent {
    double sched_s;
    std::uint64_t late_ns;
    std::future<serve::Response> fut;
    const PoolEntry* entry;
  };
  std::vector<Sent> sent;
  sent.reserve(static_cast<std::size_t>(kOpenRate * (kWarmupSeconds + kPhaseSeconds) * 1.2) + 16);
  PhaseStats before = PhaseStats::of(svc.stats());
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  double t = 0;
  for (;;) {
    const double u = static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
    t += -std::log(u) / kOpenRate;
    if (t >= kWarmupSeconds + kPhaseSeconds) break;
    const auto target = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(t));
    wait_until(target);
    const auto [p, entry] = pick();
    const auto now = Clock::now();
    auto fut = svc.submit(progs[p], entry->arg);
    out.submit_us.add(static_cast<double>(ns_between(now, Clock::now())) / 1e3);
    sent.push_back({t, ns_between(target, now), std::move(fut), entry});
    sample_rss();
  }
  for (Sent& s : sent) {
    const serve::Response r = s.fut.get();
    tally.add(s.entry->expected, observed_from(r));
    if (s.sched_s < kWarmupSeconds) continue;
    out.latency.add(static_cast<double>(s.late_ns + r.latency_ns) / 1e6);
    out.late.add(static_cast<double>(s.late_ns) / 1e6);
  }
  svc.drain();
  out.open = PhaseStats::of(svc.stats()).minus(before);
  for (const nsc::obs::ServeSpan& s : spans.drain()) {
    if (s.phase == "queue-wait") {
      out.queue_wait.add(static_cast<double>(s.dur_ns) / 1e6);
    }
  }

  // Closed loop.
  before = PhaseStats::of(svc.stats());
  std::vector<std::uint64_t> per_window(kSaturationWindows, 0);
  std::deque<std::pair<std::future<serve::Response>, const PoolEntry*>> q;
  const auto sat_start = Clock::now();
  const auto sat_end = sat_start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(kPhaseSeconds));
  const auto settle = [&](bool count) {
    const serve::Response r = q.front().first.get();
    tally.add(q.front().second->expected, observed_from(r));
    q.pop_front();
    if (!count) return;
    const double at = static_cast<double>(ns_between(sat_start, Clock::now())) / 1e9;
    const auto w = static_cast<std::size_t>(at / kPhaseSeconds * kSaturationWindows);
    if (w < per_window.size()) {
      ++per_window[w];
      ++out.sat_completed;
    }
  };
  while (Clock::now() < sat_end) {
    while (q.size() < kOutstanding) {
      const auto [p, entry] = pick();
      q.push_back({svc.submit(progs[p], entry->arg), entry});
      sample_rss();
    }
    settle(true);
  }
  while (!q.empty()) settle(false);
  svc.drain();
  out.sat = PhaseStats::of(svc.stats()).minus(before);
  for (std::uint64_t c : per_window) {
    out.sat_rps.add(static_cast<double>(c) / (kPhaseSeconds / kSaturationWindows));
  }
  (void)spans.drain();
  return out;
}

/// Least-squares slope of RSS against requests sent, KiB per 1000.
double rss_slope(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0;
  double mx = 0, my = 0;
  for (const auto& [x, y] : pts) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double num = 0, den = 0;
  for (const auto& [x, y] : pts) {
    num += (x - mx) * (y - my);
    den += (x - mx) * (x - mx);
  }
  return den == 0 ? 0 : 1000 * num / den;
}

void print_phases(const PhaseResults& r) {
  std::printf("open phase: %.0f req/s Poisson for %.1f s\n", kOpenRate,
              kPhaseSeconds);
  print_row("latency from scheduled send", r.latency);
  print_row("generator lateness", r.late);
  print_row("Service::submit", r.submit_us, "us");
  std::printf("  runs %llu (batched runs %llu), batched requests %llu, replays %llu\n",
              static_cast<unsigned long long>(r.open.runs),
              static_cast<unsigned long long>(r.open.batch_runs),
              static_cast<unsigned long long>(r.open.batched),
              static_cast<unsigned long long>(r.open.replays));
  std::printf("saturation phase: %zu outstanding for %.1f s, %llu completions\n",
              kOutstanding, kPhaseSeconds,
              static_cast<unsigned long long>(r.sat_completed));
  print_row("completions per window", r.sat_rps, "req/s");
  std::printf("  runs %llu (batched runs %llu), batched requests %llu, replays %llu\n",
              static_cast<unsigned long long>(r.sat.runs),
              static_cast<unsigned long long>(r.sat.batch_runs),
              static_cast<unsigned long long>(r.sat.batched),
              static_cast<unsigned long long>(r.sat.replays));
  if (!r.rss.empty()) {
    std::printf("rss: %.0f KiB after %.0f requests, %.0f KiB after %.0f (%.1f KiB per 1k)\n",
                r.rss.front().second, r.rss.front().first, r.rss.back().second,
                r.rss.back().first, rss_slope(r.rss));
  }
}

void put_serve_layers(Report& rep, const PhaseResults& r, double load_ms) {
  const std::uint64_t completed = r.open.completed + r.sat.completed;
  const std::uint64_t batch_runs = r.open.batch_runs + r.sat.batch_runs;
  const std::uint64_t batched = r.open.batched + r.sat.batched;
  const auto per = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  rep.put("serve.load_ms", load_ms, "ms");
  rep.put("serve.submit_us", r.submit_us.median(), "us");
  rep.put("serve.batch_occupancy", per(batched, batch_runs), "requests");
  rep.put("serve.batched_frac", per(batched, completed), "fraction");
  rep.put("serve.runs_per_req", per(r.open.runs + r.sat.runs, completed),
          "runs/req");
  rep.put("serve.replays", static_cast<double>(r.open.replays + r.sat.replays),
          "count");
  rep.put("serve.exec_busy_frac",
          static_cast<double>(r.sat.exec_ns) / (kPhaseSeconds * 1e9 * kWorkers),
          "fraction");
  rep.put("serve.queue_wait_ms_p50", r.queue_wait.median(), "ms");
  rep.put("serve.queue_wait_ms_p99", r.queue_wait.quantile(0.99), "ms");
  rep.put("serve.rss_kb_per_1k_req", rss_slope(r.rss), "KiB/1k-req");
  rep.put("gen.late_ms_p99", r.late.quantile(0.99), "ms");
}

}  // namespace

void serve_layer_probe(const Context& ctx,
                       const std::vector<CorpusProgram>& corpus, Report& rep) {
  const Pool pool = make_pool(ctx.seed, corpus);
  nsc::obs::SpanLog spans(std::size_t{1} << 17);
  serve::ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.spans = &spans;
  serve::Service svc(cfg);
  std::vector<Program> progs;
  double load_ms = 0;
  for (const CorpusProgram& p : corpus) {
    const auto a = Clock::now();
    progs.push_back(svc.load(p.name, p.text));
    load_ms += static_cast<double>(ns_between(a, Clock::now())) / 1e6;
  }
  (void)spans.drain();  // the loads' compile spans
  Tally tally;
  const PhaseResults r = serve_phases(svc, progs, pool, ctx.seed, spans, tally);
  std::printf("\nserve-layer probe (%.1f s + %.1f s)\n", kPhaseSeconds,
              kPhaseSeconds);
  print_phases(r);
  rep.tally.merge(tally);
  put_serve_layers(rep, r, load_ms);
}

}  // namespace perfbench
