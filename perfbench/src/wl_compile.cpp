// compile: each operation is one cold request for one corpus program --
// read the source text and run the frontend, compile the unit program and
// the lifted `map main` batch program, answer every declared input with
// the unit program and check it against the evaluator.  Requests go
// round-robin across programs so host drift hits every program alike.
// The optimizer does most of this work and the engine almost none, so
// compile-stage changes show here and engine changes must not.
#include <algorithm>
#include <cstdio>

#include "layers.hpp"
#include "nsc/build.hpp"
#include "sa/compile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace F = nsc::front;

namespace {

constexpr int kSetupRepeats = 3;
/// Request time per program per round after the first round.
constexpr double kShareMs = 100;

struct Expected {
  std::vector<Outcome> outcomes;  ///< one per declared input
  std::size_t smallest = 0;       ///< index of the smallest declared input
  std::size_t largest = 0;
};

/// One request's measurements.
struct Request {
  double total_ms = 0;
  std::vector<double> run_ms;  ///< per declared input
  nsc::Cost cost;              ///< summed over the non-trapping inputs
  std::uint64_t instrs = 0;    ///< unit + lifted
  Compiled programs;
};

Request cold_request(const CorpusProgram& p, const Expected& e, Tally& tally) {
  Request r;
  const auto t0 = Clock::now();
  const F::SourceFile src(p.name, p.text);
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& fn = mod.main();
  r.programs.dom = fn.dom;
  r.programs.cod = fn.cod;
  r.programs.unit = nsc::sa::compile_nsc(fn.fn);
  r.programs.lifted = nsc::sa::compile_nsc(nsc::lang::map_f(fn.fn));
  std::vector<RunOut> outs;
  for (const nsc::ValueRef& arg : declared_inputs(mod)) {
    const auto a = Clock::now();
    outs.push_back(run_plain(r.programs.unit, fn.dom, fn.cod, arg));
    r.run_ms.push_back(static_cast<double>(ns_between(a, Clock::now())) / 1e6);
  }
  r.total_ms = static_cast<double>(ns_between(t0, Clock::now())) / 1e6;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (!tally.add(e.outcomes.at(i), outs[i].got)) {
      std::printf("FAIL: %s declared input %zu disagrees with the evaluator\n",
                  p.name.c_str(), i);
    }
    r.cost.time += outs[i].cost.time;
    r.cost.work += outs[i].cost.work;
  }
  r.instrs = r.programs.unit.code.size() + r.programs.lifted.code.size();
  return r;
}

/// The traced twin of cold_request: same work, one span per layer call.
struct TracedRequest {
  std::size_t root = 0;
  double total_ms = 0;
  StagedCounts counts;
  std::vector<std::uint64_t> run_ns, run_W;
  Compiled programs;
};

std::size_t find_span(const Tracer& t, std::size_t from, const char* name) {
  for (std::size_t i = from; i < t.spans().size(); ++i) {
    if (t.spans()[i].name == name) return i;
  }
  return t.spans().size();
}

TracedRequest traced_request(Tracer& t, std::uint64_t op,
                             const CorpusProgram& p, const Expected& e,
                             Tally& tally) {
  TracedRequest r;
  std::vector<RunOut> outs;
  {
    Scope root(t, "compile.request", op);
    r.root = root.id();
    std::vector<nsc::ValueRef> inputs;
    r.programs = compile_staged(t, op, p.name, p.text, true, r.counts, &inputs);
    for (const nsc::ValueRef& arg : inputs) {
      const std::size_t before = t.spans().size();
      outs.push_back(run_staged(t, op, r.programs.unit, r.programs.dom,
                                r.programs.cod, arg));
      const std::size_t run = find_span(t, before, "bvram.run");
      r.run_ns.push_back(run < t.spans().size()
                             ? t.spans()[run].end_ns - t.spans()[run].start_ns
                             : 0);
      r.run_W.push_back(outs.back().cost.work);
    }
  }
  const Span& s = t.spans()[r.root];
  r.total_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  for (std::size_t i = 0; i < outs.size(); ++i) tally.add(e.outcomes.at(i), outs[i].got);
  return r;
}

}  // namespace

Report run_compile(const Context& ctx, const std::vector<CorpusProgram>& corpus) {
  Report rep;
  const std::size_t P = corpus.size();

  // References (not timed): the evaluator on every declared input.
  std::vector<Expected> expected(P);
  for (std::size_t p = 0; p < P; ++p) {
    const auto inputs = declared_inputs(corpus[p].module);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expected[p].outcomes.push_back(evaluate(corpus[p].main(), inputs[i]));
      if (inputs[i]->size() < inputs[expected[p].smallest]->size()) {
        expected[p].smallest = i;
      }
      if (inputs[i]->size() > inputs[expected[p].largest]->size()) {
        expected[p].largest = i;
      }
    }
  }

  // Set-up: the requests need only the source texts, already read, so
  // set-up is a warm-up -- every unit program compiled once, as on
  // execute -- that lets the allocator and caches settle before requests
  // are timed.  Every round repeats it once more, and setup_s is the
  // median over all of them, so a stretch of host interference at
  // start-up does not decide it.
  Samples setup;
  const auto warm_up = [&] {
    const auto t0 = Clock::now();
    for (const CorpusProgram& p : corpus) (void)compile_plain(p.name, p.text, false);
    setup.add(static_cast<double>(ns_between(t0, Clock::now())) / 1e9);
  };
  for (int k = 0; k < kSetupRepeats; ++k) warm_up();

  std::vector<Samples> cold(P), run_small(P), run_large(P);
  std::vector<nsc::Cost> cost(P);
  std::vector<std::uint64_t> instrs(P, 0);
  std::vector<Compiled> plain_programs(P);
  Tracer tracer;
  std::vector<TracedRequest> best_traced(P);
  std::vector<bool> have_traced(P, false), checked(P, false);
  std::uint64_t op = 0;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(ctx.seconds));
  const auto request = [&](std::size_t p) {
    Request r = cold_request(corpus[p], expected[p], rep.tally);
    cold[p].add(r.total_ms);
    run_small[p].add(r.run_ms.at(expected[p].smallest));
    run_large[p].add(r.run_ms.at(expected[p].largest));
    if (cold[p].count() == 1) {
      cost[p] = r.cost;
      instrs[p] = r.instrs;
    } else if (r.cost.time != cost[p].time || r.cost.work != cost[p].work ||
               r.instrs != instrs[p]) {
      std::printf("FAIL: %s: T/W or code size changed between requests\n",
                  corpus[p].name.c_str());
      rep.correct = false;
    }
    if (!ctx.trace) return;
    plain_programs[p] = std::move(r.programs);
    TracedRequest tr = traced_request(tracer, ++op, corpus[p], expected[p],
                                      rep.tally);
    if (!checked[p]) {
      checked[p] = true;
      std::string why;
      if (!same_program(tr.programs.unit, plain_programs[p].unit, why) ||
          !same_program(tr.programs.lifted, plain_programs[p].lifted, why)) {
        std::printf("FAIL: %s: staged compile differs from sa::compile_nsc: %s\n",
                    corpus[p].name.c_str(), why.c_str());
        rep.correct = false;
      }
    }
    if (!have_traced[p] || tr.total_ms < best_traced[p].total_ms) {
      best_traced[p] = std::move(tr);
      have_traced[p] = true;
    }
  };

  // Requests per program in a round: one in the first round, then enough
  // to fill about kShareMs (at least one), so a run repeats the cheap
  // programs hundreds of times instead of about once per round of the
  // 2 s sqrt_blocks request.  A round goes slot by slot, round-robin over
  // the programs that still have requests left in it.
  std::vector<int> per_round(P, 1);
  std::size_t rounds = 0;
  while (rounds < 2 || Clock::now() < deadline) {
    warm_up();
    const int slots = *std::max_element(per_round.begin(), per_round.end());
    for (int slot = 0; slot < slots; ++slot) {
      for (std::size_t p = 0; p < P; ++p) {
        if (slot < per_round[p]) request(p);
      }
    }
    if (rounds == 0) {
      for (std::size_t p = 0; p < P; ++p) {
        per_round[p] =
            std::max(1, static_cast<int>(kShareMs / cold[p].fastest()));
      }
    }
    ++rounds;
  }

  std::printf("\ncold requests (ms), %zu rounds\n", rounds);
  // cold_ms and run_ms_* take each program's fastest request: the host's
  // speed switches between a fast and a slow mode for stretches of
  // seconds to minutes, so a median follows whichever mode a run mostly
  // saw, while the fastest of a program's dozen to hundreds of requests
  // per run stays in the fast mode.  cold_total_s is dominated by the 2 s
  // sqrt_blocks request, about a dozen per run, each spanning mode
  // switches; it sums medians.  The trace accounting pairs the fastest
  // traced request with the fastest untraced one.
  std::vector<double> cold_fastest, small_fastest, large_fastest;
  double total_med = 0, total_fastest = 0;
  nsc::Cost total_cost;
  std::uint64_t total_instrs = 0;
  for (std::size_t p = 0; p < P; ++p) {
    print_row(corpus[p].name, cold[p]);
    cold_fastest.push_back(cold[p].fastest());
    small_fastest.push_back(run_small[p].fastest());
    large_fastest.push_back(run_large[p].fastest());
    total_med += cold[p].median();
    total_fastest += cold[p].fastest();
    total_cost.time += cost[p].time;
    total_cost.work += cost[p].work;
    total_instrs += instrs[p];
  }
  std::printf("declared-input runs (ms): smallest / largest input\n");
  for (std::size_t p = 0; p < P; ++p) {
    print_row(corpus[p].name + " smallest", run_small[p]);
    print_row(corpus[p].name + " largest", run_large[p]);
  }
  std::printf("set-ups (s), before the requests and once per round\n");
  print_row("12 unit compiles", setup, "s");

  if (!ctx.trace) {
    rep.put("setup_s", setup.median(), "s");
    rep.put("cold_ms", geomean(cold_fastest), "ms");
    rep.put("cold_total_s", total_med / 1e3, "s");
    rep.put("code_instrs", static_cast<double>(total_instrs), "instructions");
    rep.put("run_ms_small", geomean(small_fastest), "ms");
    rep.put("run_ms_large", geomean(large_fastest), "ms");
    rep.put("T", static_cast<double>(total_cost.time), "steps");
    rep.put("W", static_cast<double>(total_cost.work), "work");
    rep.put("peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  // Per-layer metrics: each program's fastest traced request.
  LayerSums sums;
  double traced_ns = 0;
  EngineTotals engine;
  for (std::size_t p = 0; p < P; ++p) {
    const TracedRequest& tr = best_traced[p];
    for (const auto& [name, ns] : tracer.self_by_name(tr.root)) {
      sums.self_ns[name] += ns;
    }
    sums.add_counts(tr.counts.tokens, tr.counts.instrs_o0, tr.counts.rounds,
                    tr.counts.instrs_o2, tr.counts.regs_o2);
    sums.run_ns_small += tr.run_ns.at(expected[p].smallest);
    sums.run_ns_large += tr.run_ns.at(expected[p].largest);
    sums.W_small += tr.run_W.at(expected[p].smallest);
    sums.W_large += tr.run_W.at(expected[p].largest);
    traced_ns += tr.total_ms * 1e6;
    const Compiled& c = plain_programs[p];
    for (const nsc::ValueRef& arg : declared_inputs(corpus[p].module)) {
      engine.profile(c.unit, c.dom, arg);
    }
  }
  sums.put(rep);
  engine.put(rep);
  double layers_ns = 0;
  for (const auto& [name, ns] : sums.self_ns) {
    if (name != "compile.request") layers_ns += static_cast<double>(ns);
  }
  layers_ns -= static_cast<double>(sums.self_ns["front.lex"]);  // lexed twice
  layers_ns -= static_cast<double>(sums.self_ns[kNaiveAnnotate]);
  put_trace_accounting(rep, layers_ns, traced_ns, total_fastest * 1e6,
                       "cold request");
  serve_layer_probe(ctx, corpus, rep);
  write_trace(ctx, tracer);
  return rep;
}

}  // namespace perfbench
