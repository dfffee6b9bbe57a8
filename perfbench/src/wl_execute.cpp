// execute: the unit programs are compiled once in set-up (O2, default
// RunConfig: serial backend, fusion on).  Each operation is encode ->
// bvram::run -> decode on seeded inputs at two sizes: 2^12 elements,
// where registers stay L2-resident, and 2^18 elements, 2 MiB per
// register, so an instruction's operands overflow a 2 MiB per-core L2.
// The kernels, the buffer pool and fusion do nearly all the work here, on
// both sides of the cache boundary, and the optimizer does none.
//
// The 2^12 results are checked against the evaluator; the 2^18 results
// against the native references (the evaluator needs tens of seconds per
// 2^18 pass), which are themselves checked against the evaluator on the
// 2^12 inputs and the declared inputs in every run.
//
// The timed operations come in blocks spread over the run, each
// round-robin over the programs: first 2^12 rounds, each also repeating
// the set-up, then 2^18 rounds.  A 2^18 run faults in and frees hundreds
// of MiB of registers; on a VM that hands freed memory back to its host
// (free page reporting), 2^12 runs and compiles right after that churn
// ran slower by a varying amount, so the 2^12 rounds come in stretches,
// each after an untimed round.
#include <cstdio>

#include "gen.hpp"
#include "layers.hpp"
#include "nsc/build.hpp"
#include "sa/compile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kSmall = std::size_t{1} << 12;
constexpr std::size_t kLarge = std::size_t{1} << 18;
/// Runs per program in a 2^12 round, which also repeats the set-up once.
constexpr int kSmallPerRound = 8;
/// Blocks of 2^12 rounds then 2^18 rounds in a run.
constexpr int kBlocks = 4;
/// The 2^12 rounds' share of a block; a 2^12 round takes about a fifth as
/// long as a 2^18 round.
constexpr double kSmallShare = 0.25;
/// Rounds the sample and span buffers are sized for before the timed
/// loops (more rounds still work, with allocations in the loops).
constexpr std::size_t kReservedRounds = 512;

struct Case {
  nsc::ValueRef arg;
  Outcome expected;
};

/// Checks the native reference of `p` against the evaluator on `arg`.
bool native_agrees(const CorpusProgram& p, const nsc::ValueRef& arg,
                   const char* what) {
  if (same_outcome(native_reference(p.name, arg), evaluate(p.main(), arg))) {
    return true;
  }
  std::printf("FAIL: %s: native reference disagrees with the evaluator on %s\n",
              p.name.c_str(), what);
  return false;
}

}  // namespace

Report run_execute(const Context& ctx, const std::vector<CorpusProgram>& corpus) {
  Report rep;
  const std::size_t P = corpus.size();

  // Inputs and references (not timed).
  std::vector<Case> small(P), large(P);
  for (std::size_t p = 0; p < P; ++p) {
    const CorpusProgram& prog = corpus[p];
    small[p].arg = generate(prog.name, ctx.seed, kSmall);
    small[p].expected = evaluate(prog.main(), small[p].arg);
    if (!native_agrees(prog, small[p].arg, "the 2^12 input")) rep.correct = false;
    for (const nsc::ValueRef& in : declared_inputs(prog.module)) {
      if (!native_agrees(prog, in, "a declared input")) rep.correct = false;
    }
    large[p].arg = generate(prog.name, ctx.seed, kLarge);
    large[p].expected = native_reference(prog.name, large[p].arg);
  }

  // Set-up: compile the unit programs, several times; the last compile is
  // the one the operations run.  Every 2^12 round repeats the set-up once
  // more (below), and setup_s is the median over all of them, so a stretch
  // of host interference at start-up does not decide it.  Traced runs
  // alternate with the staged compile so the compile layers are measured
  // here too.
  Samples setup;
  std::vector<Samples> compile_ms(P);
  std::vector<Compiled> programs(P);
  Tracer tracer;
  std::uint64_t op = 0;
  LayerSums sums;
  std::vector<double> best_staged_ns(P, 0);
  std::vector<std::map<std::string, std::uint64_t>> best_staged_self(P);
  std::vector<StagedCounts> staged_counts(P);
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < P; ++p) {
      const auto a = Clock::now();
      programs[p] = compile_plain(corpus[p].name, corpus[p].text, false);
      compile_ms[p].add(static_cast<double>(ns_between(a, Clock::now())) / 1e6);
    }
    setup.add(static_cast<double>(ns_between(t0, Clock::now())) / 1e9);
    if (!ctx.trace) continue;
    for (std::size_t p = 0; p < P; ++p) {
      StagedCounts counts;
      std::size_t root = 0;
      Compiled staged;
      {
        Scope s(tracer, "compile.unit", ++op);
        root = s.id();
        staged = compile_staged(tracer, op, corpus[p].name, corpus[p].text,
                                false, counts);
      }
      const Span& rs = tracer.spans()[root];
      const double ns = static_cast<double>(rs.end_ns - rs.start_ns);
      if (k == 0) {
        std::string why;
        if (!same_program(staged.unit, programs[p].unit, why)) {
          std::printf("FAIL: %s: staged compile differs from sa::compile_nsc: %s\n",
                      corpus[p].name.c_str(), why.c_str());
          rep.correct = false;
        }
      }
      if (k == 0 || ns < best_staged_ns[p]) {
        best_staged_ns[p] = ns;
        best_staged_self[p] = tracer.self_by_name(root);
        staged_counts[p] = counts;
      }
    }
  }
  std::uint64_t code_instrs = 0;
  for (std::size_t p = 0; p < P; ++p) {
    // The lifted program is not run here; it is compiled (untimed) only so
    // code_instrs counts what every workload counts.
    const Compiled both = compile_plain(corpus[p].name, corpus[p].text, true);
    code_instrs += both.unit.code.size() + both.lifted.code.size();
  }

  // Nothing the benchmark keeps is allocated inside the timed loops: its
  // sample and span buffers are sized here, and the fastest traced run's
  // layer times are summed after the loops.  A buffer that grew inside a
  // loop could land above a 2^18 run's freed registers and keep glibc
  // from returning them to the kernel, so whether the next run faulted
  // its registers in again would depend on the seed's allocation history.
  // With nothing in the way, every 2^18 run pays for its page faults, as
  // the engine's default per-run register file does in any process.
  std::vector<Samples> run_small(P), run_large(P);
  std::vector<nsc::Cost> cost_small(P), cost_large(P);
  std::vector<std::uint64_t> traced_small(P, 0), traced_large(P, 0);
  std::vector<std::size_t> root_small(P, 0), root_large(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    run_small[p].v.reserve(kReservedRounds * kSmallPerRound);
    run_large[p].v.reserve(kReservedRounds);
    compile_ms[p].v.reserve(compile_ms[p].count() + kReservedRounds);
  }
  setup.v.reserve(setup.count() + kReservedRounds);
  if (ctx.trace) {
    // Four spans per traced operation: the root, encode, run, decode.
    tracer.reserve(tracer.spans().size() +
                   kReservedRounds * P * (kSmallPerRound + 1) * 4);
  }
  // One checked run; `s` (null for an untimed run) receives its time.
  const auto run = [&](std::size_t p, const Case& c, Samples* s,
                       nsc::Cost& first_cost) {
    const auto a = Clock::now();
    const RunOut out = run_plain(programs[p].unit, programs[p].dom,
                                 programs[p].cod, c.arg);
    const double ms = static_cast<double>(ns_between(a, Clock::now())) / 1e6;
    if (!rep.tally.add(c.expected, out.got)) {
      std::printf("FAIL: %s: output differs from the reference\n",
                  corpus[p].name.c_str());
    }
    if (s == nullptr) return;
    s->add(ms);
    if (s->count() == 1) {
      first_cost = out.cost;
    } else if (out.cost.time != first_cost.time ||
               out.cost.work != first_cost.work) {
      std::printf("FAIL: %s: T/W changed between runs\n", corpus[p].name.c_str());
      rep.correct = false;
    }
  };
  const auto traced = [&](std::size_t p, const Case& c, std::uint64_t& best,
                          std::size_t& best_root) {
    std::size_t root = 0;
    RunOut out;
    {
      Scope s(tracer, "execute.run", ++op);
      root = s.id();
      out = run_staged(tracer, op, programs[p].unit, programs[p].dom,
                       programs[p].cod, c.arg);
    }
    rep.tally.add(c.expected, out.got);
    const Span& rs = tracer.spans()[root];
    if (best == 0 || rs.end_ns - rs.start_ns < best) {
      best = rs.end_ns - rs.start_ns;
      best_root = root;
    }
  };
  // One 2^12 round: one more set-up, its programs discarded, then
  // kSmallPerRound runs per program.  An untimed round records nothing
  // but still checks every output.
  const auto small_round = [&](bool timed) {
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < P; ++p) {
      const auto a = Clock::now();
      (void)compile_plain(corpus[p].name, corpus[p].text, false);
      if (timed) {
        compile_ms[p].add(static_cast<double>(ns_between(a, Clock::now())) / 1e6);
      }
    }
    if (timed) setup.add(static_cast<double>(ns_between(t0, Clock::now())) / 1e9);
    for (std::size_t p = 0; p < P; ++p) {
      for (int i = 0; i < kSmallPerRound; ++i) {
        run(p, small[p], timed ? &run_small[p] : nullptr, cost_small[p]);
        if (timed && ctx.trace) traced(p, small[p], traced_small[p], root_small[p]);
      }
    }
  };

  // The run is kBlocks blocks, each a stretch of 2^12 rounds (kSmallShare
  // of the block) and then 2^18 rounds, so both sizes and the set-up
  // compiles are sampled across the whole run, not in one stretch of it.
  // Every block after the first starts with an untimed 2^12 round: it
  // follows 2^18 runs that freed hundreds of MiB, and lets the 2^12
  // working set fault back in before the 2^12 runs and compiles are timed.
  const auto after = [](Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  };
  const double block_s = ctx.seconds / kBlocks;
  const auto start = Clock::now();
  std::size_t small_rounds = 0, large_rounds = 0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto small_until = after(Clock::now(), block_s * kSmallShare);
    if (b > 0) small_round(false);
    do {
      small_round(true);
      ++small_rounds;
    } while (Clock::now() < small_until);
    const auto block_end = after(start, block_s * (b + 1));
    do {
      for (std::size_t p = 0; p < P; ++p) {
        run(p, large[p], &run_large[p], cost_large[p]);
        if (ctx.trace) traced(p, large[p], traced_large[p], root_large[p]);
      }
      ++large_rounds;
    } while (Clock::now() < block_end);
  }

  std::printf("\nencode + run + decode (ms), %zu rounds at 2^12, %zu at 2^18\n",
              small_rounds, large_rounds);
  // The 2^12 runs and the set-up compiles take each program's fastest
  // repetition: the host's speed switches between a fast and a slow mode
  // for stretches of seconds to minutes, so a median follows whichever
  // mode a run mostly saw, while the fastest of the 15-20 compiles and
  // about a hundred 2^12 runs per program stays in the fast mode.  A 2^18
  // run takes up to 1.5 s and runs about 8 times, so run_ms_large takes
  // medians.  The trace accounting pairs the fastest traced run with the
  // fastest untraced one.
  std::vector<double> small_fastest, large_med, compile_fastest;
  double fastest_sum = 0, compile_sum = 0;
  nsc::Cost total;
  for (std::size_t p = 0; p < P; ++p) {
    print_row(corpus[p].name + " 2^12", run_small[p]);
    print_row(corpus[p].name + " 2^18", run_large[p]);
    small_fastest.push_back(run_small[p].fastest());
    large_med.push_back(run_large[p].median());
    fastest_sum += run_small[p].fastest() + run_large[p].fastest();
    compile_fastest.push_back(compile_ms[p].fastest());
    compile_sum += compile_ms[p].fastest();
    total.time += cost_small[p].time + cost_large[p].time;
    total.work += cost_small[p].work + cost_large[p].work;
  }
  std::printf("set-up compiles (ms)\n");
  for (std::size_t p = 0; p < P; ++p) print_row(corpus[p].name, compile_ms[p]);
  std::printf("set-ups (s), before the operations and once per round\n");
  print_row("12 unit compiles", setup, "s");

  if (!ctx.trace) {
    rep.put("setup_s", setup.median(), "s");
    rep.put("cold_ms", geomean(compile_fastest), "ms");
    rep.put("cold_total_s", compile_sum / 1e3, "s");
    rep.put("code_instrs", static_cast<double>(code_instrs), "instructions");
    rep.put("run_ms_small", geomean(small_fastest), "ms");
    rep.put("run_ms_large", geomean(large_med), "ms");
    rep.put("T", static_cast<double>(total.time), "steps");
    rep.put("W", static_cast<double>(total.work), "work");
    rep.put("peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  // Per-layer metrics: compile layers from each program's fastest staged
  // compile, run layers from each program's fastest traced run per size.
  double layers_ns = 0, traced_ns = 0;
  EngineTotals engine;
  for (std::size_t p = 0; p < P; ++p) {
    for (const auto& [name, ns] : best_staged_self[p]) sums.self_ns[name] += ns;
    const StagedCounts& c = staged_counts[p];
    sums.add_counts(c.tokens, c.instrs_o0, c.rounds, c.instrs_o2, c.regs_o2);
    const auto self_small = tracer.self_by_name(root_small[p]);
    const auto self_large = tracer.self_by_name(root_large[p]);
    for (const auto* self : {&self_small, &self_large}) {
      for (const auto& [name, ns] : *self) {
        if (name == "bvram.run") continue;  // reported per size below
        sums.self_ns[name] += ns;
        if (name != "execute.run") layers_ns += static_cast<double>(ns);
      }
    }
    const auto run_self = [](const std::map<std::string, std::uint64_t>& m) {
      const auto it = m.find("bvram.run");
      return it == m.end() ? std::uint64_t{0} : it->second;
    };
    sums.run_ns_small += run_self(self_small);
    sums.run_ns_large += run_self(self_large);
    layers_ns += static_cast<double>(run_self(self_small) + run_self(self_large));
    sums.W_small += cost_small[p].work;
    sums.W_large += cost_large[p].work;
    traced_ns += static_cast<double>(traced_small[p] + traced_large[p]);
    engine.profile(programs[p].unit, programs[p].dom, small[p].arg);
    engine.profile(programs[p].unit, programs[p].dom, large[p].arg);
  }
  sums.put(rep);
  engine.put(rep);
  put_trace_accounting(rep, layers_ns, traced_ns, fastest_sum * 1e6,
                       "encode + run + decode");
  serve_layer_probe(ctx, corpus, rep);
  write_trace(ctx, tracer);
  return rep;
}

}  // namespace perfbench
