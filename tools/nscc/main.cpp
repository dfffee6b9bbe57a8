// nscc: the driver CLI for the NSC surface language (src/front/).
//
//   nscc check FILE.nsc                 parse + typecheck; print fn types
//   nscc eval  FILE.nsc [options]       NSC evaluator (Definition 3.1 T/W)
//   nscc run   FILE.nsc [options]       evaluator AND compiled BVRAM,
//                                       differentially (exit 1 on mismatch)
//   nscc dump  FILE.nsc [options]       surface / core / NSA / BVRAM form
//   nscc bench FILE.nsc [options]       static + executed T/W as JSON
//   nscc profile FILE.nsc [options]     source-attributed execution profile
//   nscc serve FILE.nsc [options]       compile-once / run-many query
//                                       service (cache + arenas + batching)
//   nscc fmt   FILE.nsc                 canonical formatting (the printer)
//   nscc doc                            the language reference markdown
//
// Shared options:
//   --input EXPR    add an argument for main (repeatable; parsed with the
//                   expression grammar, so '[1, 2, 3]' or '([1,2], 4)')
//   --opt LEVEL     O0 | O1 | O2                     (default O2)
//   --sched S       naive | eager | staged[:NUM/DEN] (default naive;
//                   staged defaults to eps = 1/2)
//   --fn NAME       entry point (default main)
//   --stage S       dump stage: surface | core | nsa | bvram (default bvram)
//   --stats         dump: also print optimizer pipeline statistics
//   --json PATH     bench: write the JSON there instead of stdout
//   --profile       run/bench: collect and report the execution profile
//   --scale N       bench: synthesize a size-N input for the entry point
//                   (deterministic; replaces declared/--input arguments),
//                   so corpus benches can run at n = 10^6+ without
//                   committing megabyte input literals
//
// bench options:
//   --compare BASELINE.json   diff this run against a committed baseline
//                   (a previous `nscc bench --json` for the same file);
//                   exit 1 when any config regresses executed T/W or
//                   its static instruction count beyond --tolerance,
//                   traps where the baseline didn't, or loses
//                   eval/compiled agreement
//   --tolerance PCT allowed executed-T/W and code-size growth over the
//                   baseline (default 0: the counts are deterministic)
//
// serve options (see docs/serve.md):
//   --requests PATH one request expression per line ('-' = stdin); these
//                   join the module's `input` lines and --input values
//   --repeat K      submit the whole request list K times (default 1)
//   --workers N     worker threads (default: min(cores, 4); at most 256)
//   --max-batch K   largest segment-descriptor batch (default 64)
//   --no-batch      disable batching (solo runs only)
//   --max-queue N   admission limit on queued requests (default 1024)
//   --fuel N        per-request instruction budget
//   --stats-json PATH   write the nscc-serve-stats/v3 snapshot there
//
// serve telemetry (all pure observers; see docs/observability.md):
//   --metrics PATH  write the metrics registry as Prometheus text
//                   exposition (includes an nscc_build_info provenance
//                   metric)
//   --events PATH   write the structured event log as JSONL (header line
//                   carries schema + provenance; then one event per line)
//   --trace PATH    write a Chrome trace_event timeline of request spans
//                   (queue-wait / admission / batch-assembly / execute /
//                   replay / split; workers are trace threads, flow
//                   arrows link waits to the runs that answered them)
//   --snapshot-every N  rewrite --metrics and --stats-json after every N
//                   completed requests (0 = only at exit)
//   --slow-ms T     emit a serve.slow event for requests slower than T ms
//   --profile       serve: fold the engine's execution counters (pool
//                   hits, in-place writes, ...) into the metrics registry
//
// profile options (see docs/observability.md):
//   --by-line       per-source-line table only (the default prints all views)
//   --by-opcode     per-opcode table only
//   --passes        optimizer pass timing table only
//   --chrome PATH   write a Chrome trace_event JSON (chrome://tracing)
//   --min-attribution PCT   exit 1 if fewer than PCT% of executed
//                   instructions carry surface attribution (the CI gate)
//
// Every diagnostic goes to stderr as file:line:col with a caret snippet;
// malformed input exits 1, it never aborts.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "front/front.hpp"
#include "nsa/from_nsc.hpp"
#include "nsc/eval.hpp"
#include "nsc/typecheck.hpp"
#include "object/value.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "serve/service.hpp"
#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"

namespace {

using namespace nsc;
namespace F = nsc::front;
namespace L = nsc::lang;

struct Options {
  std::string command;
  std::string file;
  std::vector<std::string> inputs;  // --input expressions
  opt::OptLevel opt = opt::OptLevel::O2;
  opt::WhileSchedule sched = opt::WhileSchedule::naive();
  std::string entry = "main";
  std::string stage = "bvram";
  std::string json_path;
  std::size_t scale = 0;  // bench: synthesize a size-N input (0 = off)
  bool stats = false;
  bool profile = false;    // run/bench: collect the execution profile
  bool by_line = false;    // profile: restrict to the per-line view
  bool by_opcode = false;  // profile: restrict to the per-opcode view
  bool passes = false;     // profile: restrict to the pass-timing view
  std::string chrome_path;
  double min_attribution = -1.0;  // profile: CI gate ([0,100] when set)
  // serve
  std::string requests_path;       // --requests; '-' = stdin
  std::size_t repeat = 1;          // --repeat
  std::size_t workers = 0;         // --workers (0 = auto)
  std::size_t max_batch = 64;      // --max-batch
  std::size_t max_queue = 1024;    // --max-queue
  std::uint64_t fuel = std::uint64_t{1} << 32;  // --fuel
  bool no_batch = false;           // --no-batch
  std::string stats_json_path;     // --stats-json
  // serve telemetry
  std::string metrics_path;        // --metrics (Prometheus exposition)
  std::string events_path;         // --events (JSONL event log)
  std::string trace_path;          // --trace (Chrome trace_event)
  std::size_t snapshot_every = 0;  // --snapshot-every (0 = only at exit)
  std::uint64_t slow_ms = 0;       // --slow-ms (0 = off)
  // bench comparison
  std::string compare_path;        // --compare (baseline bench JSON)
  double tolerance_pct = 0.0;      // --tolerance (allowed growth %)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s {check|eval|run|dump|bench|profile|serve|fmt} "
               "FILE.nsc "
               "[--input EXPR] [--opt O0|O1|O2] "
               "[--sched naive|eager|staged[:N/D]] [--fn NAME] "
               "[--stage surface|core|nsa|bvram] [--stats] [--json PATH] "
               "[--scale N] [--profile] [--by-line] [--by-opcode] [--passes] "
               "[--chrome PATH] [--min-attribution PCT] "
               "[--requests PATH] [--repeat K] [--workers N] [--max-batch K] "
               "[--no-batch] [--max-queue N] [--fuel N] "
               "[--stats-json PATH] [--metrics PATH] "
               "[--events PATH] [--trace PATH] [--snapshot-every N] "
               "[--slow-ms T] [--compare BASELINE.json] [--tolerance PCT]\n"
               "       %s doc\n",
               argv0, argv0);
  std::exit(2);
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "nscc: %s\n", message.c_str());
  std::exit(2);
}

/// A flag's percentage: at most 32 digits with at most one decimal point
/// and nothing else, so the value is finite.  std::stod alone would read
/// "5abc" as 5 and accept nan and inf, which pass (or skip) every gate
/// the value feeds.
double parse_percent(const std::string& flag, const std::string& v) {
  const bool decimal =
      !v.empty() && v.size() <= 32 &&
      v.find_first_not_of("0123456789.") == std::string::npos &&
      v.find_first_of("0123456789") != std::string::npos &&
      v.find('.') == v.rfind('.');
  if (!decimal) {
    fail("bad " + flag + " '" + v + "' (expected a percentage such as 5 "
         "or 0.5)");
  }
  return std::stod(v);
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options o;
  o.command = argv[1];
  int i = 2;
  if (o.command != "doc") {
    if (i >= argc) usage(argv[0]);
    o.file = argv[i++];
  }
  auto need_value = [&](const char* flag) -> std::string {
    if (i >= argc) fail(std::string(flag) + " needs a value");
    return argv[i++];
  };
  while (i < argc) {
    const std::string arg = argv[i++];
    if (arg == "--input") {
      o.inputs.push_back(need_value("--input"));
    } else if (arg == "--opt") {
      const std::string v = need_value("--opt");
      if (v == "O0") {
        o.opt = opt::OptLevel::O0;
      } else if (v == "O1") {
        o.opt = opt::OptLevel::O1;
      } else if (v == "O2") {
        o.opt = opt::OptLevel::O2;
      } else {
        fail("unknown --opt level '" + v + "' (use O0, O1 or O2)");
      }
    } else if (arg == "--sched") {
      const std::string v = need_value("--sched");
      if (v == "naive") {
        o.sched = opt::WhileSchedule::naive();
      } else if (v == "eager") {
        o.sched = opt::WhileSchedule::eager();
      } else if (v == "staged" || v.rfind("staged:", 0) == 0) {
        Rational eps{1, 2};
        if (v.size() > 7) {
          const std::string spec = v.substr(7);
          // Strict digits[/digits] syntax: std::stoull would silently wrap
          // a negative component instead of rejecting it.
          const std::size_t slash = spec.find('/');
          const std::string num_s =
              slash == std::string::npos ? spec : spec.substr(0, slash);
          const std::string den_s =
              slash == std::string::npos ? "1" : spec.substr(slash + 1);
          auto all_digits = [](const std::string& s) {
            if (s.empty() || s.size() > 18) return false;
            for (const char c : s) {
              if (c < '0' || c > '9') return false;
            }
            return true;
          };
          if (!all_digits(num_s) || !all_digits(den_s)) {
            fail("bad staged eps '" + spec + "' (use NUM or NUM/DEN)");
          }
          eps = {std::stoull(num_s), std::stoull(den_s)};
          if (eps.den == 0 || eps.num == 0) {
            fail("staged eps must be a positive rational");
          }
        }
        o.sched = opt::WhileSchedule::staged(eps);
      } else {
        fail("unknown --sched '" + v +
             "' (use naive, eager, or staged[:N/D])");
      }
    } else if (arg == "--fn") {
      o.entry = need_value("--fn");
    } else if (arg == "--stage") {
      o.stage = need_value("--stage");
    } else if (arg == "--stats") {
      o.stats = true;
    } else if (arg == "--json") {
      o.json_path = need_value("--json");
    } else if (arg == "--scale") {
      const std::string v = need_value("--scale");
      if (v.empty() || v.size() > 12 ||
          v.find_first_not_of("0123456789") != std::string::npos) {
        fail("bad --scale '" + v + "' (expected a positive size)");
      }
      o.scale = static_cast<std::size_t>(std::stoull(v));
      if (o.scale == 0) fail("--scale must be positive");
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--by-line") {
      o.by_line = true;
    } else if (arg == "--by-opcode") {
      o.by_opcode = true;
    } else if (arg == "--passes") {
      o.passes = true;
    } else if (arg == "--chrome") {
      o.chrome_path = need_value("--chrome");
    } else if (arg == "--min-attribution") {
      o.min_attribution =
          parse_percent("--min-attribution", need_value("--min-attribution"));
      if (o.min_attribution > 100.0) {
        fail("--min-attribution must be in [0, 100]");
      }
    } else if (arg == "--requests") {
      o.requests_path = need_value("--requests");
    } else if (arg == "--repeat" || arg == "--workers" ||
               arg == "--max-batch" || arg == "--max-queue" ||
               arg == "--fuel") {
      const std::string v = need_value(arg.c_str());
      if (v.empty() || v.size() > 18 ||
          v.find_first_not_of("0123456789") != std::string::npos) {
        fail("bad " + arg + " '" + v + "' (expected a nonnegative integer)");
      }
      const std::uint64_t n = std::stoull(v);
      if (arg == "--repeat") {
        if (n == 0) fail("--repeat must be positive");
        o.repeat = static_cast<std::size_t>(n);
      } else if (arg == "--workers") {
        if (n > serve::kMaxWorkers) {
          fail("--workers must be at most " +
               std::to_string(serve::kMaxWorkers));
        }
        o.workers = static_cast<std::size_t>(n);
      } else if (arg == "--max-batch") {
        if (n == 0) fail("--max-batch must be positive");
        o.max_batch = static_cast<std::size_t>(n);
      } else if (arg == "--max-queue") {
        if (n == 0) fail("--max-queue must be positive");
        o.max_queue = static_cast<std::size_t>(n);
      } else {
        if (n == 0) fail("--fuel must be positive");
        o.fuel = n;
      }
    } else if (arg == "--no-batch") {
      o.no_batch = true;
    } else if (arg == "--stats-json") {
      o.stats_json_path = need_value("--stats-json");
    } else if (arg == "--metrics") {
      o.metrics_path = need_value("--metrics");
    } else if (arg == "--events") {
      o.events_path = need_value("--events");
    } else if (arg == "--trace") {
      o.trace_path = need_value("--trace");
    } else if (arg == "--snapshot-every" || arg == "--slow-ms") {
      const std::string v = need_value(arg.c_str());
      if (v.empty() || v.size() > 18 ||
          v.find_first_not_of("0123456789") != std::string::npos) {
        fail("bad " + arg + " '" + v + "' (expected a nonnegative integer)");
      }
      if (arg == "--snapshot-every") {
        o.snapshot_every = static_cast<std::size_t>(std::stoull(v));
      } else {
        o.slow_ms = std::stoull(v);
      }
    } else if (arg == "--compare") {
      o.compare_path = need_value("--compare");
    } else if (arg == "--tolerance") {
      o.tolerance_pct = parse_percent("--tolerance", need_value("--tolerance"));
    } else {
      fail("unknown option '" + arg + "'");
    }
  }
  return o;
}

const char* sched_name(const opt::WhileSchedule& s) {
  switch (s.kind) {
    case opt::WhileScheduleKind::Naive: return "naive";
    case opt::WhileScheduleKind::Eager: return "eager";
    case opt::WhileScheduleKind::Staged: return "staged";
  }
  return "?";
}

const char* opt_name(opt::OptLevel l) {
  switch (l) {
    case opt::OptLevel::O0: return "O0";
    case opt::OptLevel::O1: return "O1";
    case opt::OptLevel::O2: return "O2";
  }
  return "?";
}

const F::ResolvedFn& entry_of(const F::ResolvedModule& mod,
                              const Options& o) {
  if (o.entry == "main") return mod.main();
  const F::ResolvedFn* f = mod.find(o.entry);
  if (f == nullptr) fail("no function named '" + o.entry + "' in " + o.file);
  return *f;
}

/// The arguments to feed the entry point: every `input` declaration in the
/// module plus every --input expression, all typechecked against dom.
std::vector<ValueRef> gather_inputs(const F::ResolvedModule& mod,
                                    const F::ResolvedFn& entry,
                                    const Options& o) {
  std::vector<ValueRef> values;
  for (const auto& in : mod.inputs) {
    // `input` declarations are validated against main at resolve time;
    // under --fn they only apply when the type fits the chosen entry.
    if (!Type::equal(in.type, entry.dom)) continue;
    values.push_back(L::eval(in.term).value);
  }
  for (std::size_t k = 0; k < o.inputs.size(); ++k) {
    const F::SourceFile src("--input " + std::to_string(k + 1), o.inputs[k]);
    const F::ExprPtr e = F::parse_expression(src);
    const F::ResolvedInput in = F::resolve_expression(e, src);
    if (!Type::equal(in.type, entry.dom)) {
      fail("--input value has type " + in.type->show() + " but " +
           entry.name + " expects " + entry.dom->show());
    }
    values.push_back(L::eval(in.term).value);
  }
  return values;
}

/// Deterministic size-parameterized input synthesis for `bench --scale N`:
/// a sequence of nats gets N pseudorandom elements; a nested sequence
/// splits N as sqrt(N) outer x sqrt(N) inner so the total footprint stays
/// ~N elements; scalars draw small values.  Same seed, same value -- runs
/// are reproducible across machines.
ValueRef synthesize_value(const TypeRef& t, std::size_t n, SplitMix64& rng) {
  switch (t->kind()) {
    case TypeKind::Unit:
      return Value::unit();
    case TypeKind::Nat:
      return Value::nat(rng.below(1024));
    case TypeKind::Prod: {
      ValueRef first = synthesize_value(t->left(), n, rng);
      return Value::pair(std::move(first),
                         synthesize_value(t->right(), n, rng));
    }
    case TypeKind::Sum:
      return rng.coin() ? Value::in1(synthesize_value(t->left(), n, rng))
                        : Value::in2(synthesize_value(t->right(), n, rng));
    case TypeKind::Seq: {
      if (t->elem()->is(TypeKind::Nat)) {
        return Value::nat_seq(rng.vec(n, 1024));
      }
      const std::size_t m = std::max<std::size_t>(1, isqrt(n));
      std::vector<ValueRef> elems;
      elems.reserve(m);
      for (std::size_t i = 0; i < m; ++i) {
        elems.push_back(synthesize_value(t->elem(), m, rng));
      }
      return Value::seq(std::move(elems));
    }
  }
  fail("cannot synthesize a value of this type");
}

struct RunOutcome {
  bool trapped = false;
  std::string error;
  ValueRef value;
  Cost cost;
};

RunOutcome eval_outcome(const F::ResolvedFn& f, const ValueRef& arg) {
  RunOutcome o;
  try {
    auto r = L::apply_fn(f.fn, arg);
    o.value = r.value;
    o.cost = r.cost;
  } catch (const Error& e) {
    o.trapped = true;
    o.error = e.what();
  }
  return o;
}

RunOutcome compiled_outcome(const bvram::Program& program,
                            const F::ResolvedFn& f, const ValueRef& arg,
                            const bvram::RunConfig& cfg = {},
                            bvram::RunResult* raw = nullptr) {
  RunOutcome o;
  try {
    auto r = sa::run_compiled(program, f.dom, f.cod, arg, cfg, raw);
    o.value = r.value;
    o.cost = r.cost;
  } catch (const Error& e) {
    o.trapped = true;
    o.error = e.what();
  }
  return o;
}

/// The RunConfig for a profiled execution: the profiler needs the trace
/// for the Chrome timeline and instruction-order views.
bvram::RunConfig profile_config() {
  bvram::RunConfig cfg;
  cfg.profile = true;
  cfg.record_trace = true;
  return cfg;
}

void print_pass_timings(const opt::PipelineStats& stats) {
  std::printf("optimizer: instrs %zu -> %zu, regs %zu -> %zu, %zu rounds, "
              "%.3f ms total\n",
              stats.instrs_before, stats.instrs_after, stats.regs_before,
              stats.regs_after, stats.rounds,
              static_cast<double>(stats.wall_ns) / 1e6);
  std::printf("%-14s %14s %16s %12s\n", "pass", "applications",
              "instrs removed", "wall(ms)");
  for (const auto& ps : stats.passes) {
    std::printf("%-14s %14zu %16zu %12.3f\n", ps.name.c_str(),
                ps.applications, ps.instrs_removed,
                static_cast<double>(ps.wall_ns) / 1e6);
  }
}

void print_outcome(const char* label, const RunOutcome& o) {
  if (o.trapped) {
    std::printf("%s: trap (%s)\n", label, o.error.c_str());
  } else {
    std::printf("%s: %s  (T=%llu W=%llu)\n", label, o.value->show().c_str(),
                static_cast<unsigned long long>(o.cost.time),
                static_cast<unsigned long long>(o.cost.work));
  }
}

int cmd_check(const F::SourceFile& src, const Options&) {
  const F::ResolvedModule mod = F::compile_file(src);
  for (const auto& f : mod.fns) {
    std::printf("fn %-16s : %s -> %s\n", f.name.c_str(),
                f.dom->show().c_str(), f.cod->show().c_str());
  }
  for (const auto& in : mod.inputs) {
    std::printf("input            : %s\n", in.type->show().c_str());
  }
  return 0;
}

int cmd_eval(const F::SourceFile& src, const Options& o) {
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);
  const auto inputs = gather_inputs(mod, entry, o);
  if (inputs.empty()) fail("no inputs: add `input ...` lines or --input");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::printf("input %zu: %s\n", i, inputs[i]->show().c_str());
    print_outcome("  nsc eval", eval_outcome(entry, inputs[i]));
  }
  return 0;
}

int cmd_run(const F::SourceFile& src, const Options& o) {
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);
  const auto inputs = gather_inputs(mod, entry, o);
  if (inputs.empty()) fail("no inputs: add `input ...` lines or --input");
  const bvram::Program program = sa::compile_nsc(entry.fn, o.opt, o.sched);
  std::printf("%s : %s -> %s  [%s, %s: %zu regs, %zu instrs]\n",
              entry.name.c_str(), entry.dom->show().c_str(),
              entry.cod->show().c_str(), opt_name(o.opt),
              sched_name(o.sched), program.num_regs, program.code.size());
  bool ok = true;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::printf("input %zu: %s\n", i, inputs[i]->show().c_str());
    const RunOutcome ev = eval_outcome(entry, inputs[i]);
    bvram::RunResult raw;
    const RunOutcome mc =
        o.profile
            ? compiled_outcome(program, entry, inputs[i], profile_config(),
                               &raw)
            : compiled_outcome(program, entry, inputs[i]);
    print_outcome("  nsc eval", ev);
    print_outcome("  compiled", mc);
    const bool agree = ev.trapped == mc.trapped &&
                       (ev.trapped || Value::equal(ev.value, mc.value));
    if (!agree) ok = false;
    std::printf("  agree: %s\n", agree ? "yes" : "NO");
    if (o.profile && !mc.trapped) {
      const obs::Profile prof = obs::Profile::build(program, raw);
      std::printf("  profile: %.1f%% attributed; engine: %s\n",
                  100.0 * prof.attributed_frac,
                  prof.render_engine().c_str());
      std::printf("%s", prof.render_by_line().c_str());
    }
  }
  if (!ok) std::fprintf(stderr, "nscc run: evaluator/compiled MISMATCH\n");
  return ok ? 0 : 1;
}

int cmd_dump(const F::SourceFile& src, const Options& o) {
  if (o.stage == "surface") {
    std::fputs(F::print_module(F::parse_module(src)).c_str(), stdout);
    return 0;
  }
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);
  if (o.stage == "core") {
    std::printf("%s\n", entry.fn->show().c_str());
    return 0;
  }
  if (o.stage == "nsa") {
    std::printf("%s\n", nsa::from_closed_func(entry.fn)->show().c_str());
    return 0;
  }
  if (o.stage != "bvram") {
    fail("unknown --stage '" + o.stage +
         "' (use surface, core, nsa or bvram)");
  }
  opt::PipelineStats stats;
  const bvram::Program program =
      sa::compile_nsc(entry.fn, o.opt, o.sched, &stats);
  std::printf("; %s -> %s  [%s, %s]\n", entry.dom->show().c_str(),
              entry.cod->show().c_str(), opt_name(o.opt),
              sched_name(o.sched));
  std::fputs(program.disassemble().c_str(), stdout);
  if (o.stats) {
    std::printf("\n%s", stats.show().c_str());
  }
  return 0;
}

/// `bench --compare`: diff a fresh bench report against a committed
/// baseline (a previous `nscc bench --json` for the same file).  The
/// executed T/W counts and the code size are deterministic functions of
/// (program, input, config), so the default tolerance is 0; --tolerance
/// PCT loosens these gates for workloads whose inputs legitimately
/// drift.  Gates:
///
///   * executed_T / executed_W may not exceed baseline * (1 + PCT/100)
///     for any (opt, sched, input) present in the baseline, nor may a
///     config's static_instrs (the emitted code size);
///   * a run that didn't trap in the baseline may not trap now;
///   * eval/compiled agreement may not be lost.
///
/// Improvements (lower T/W or code size) pass and are reported.  Configs
/// in the baseline but missing from the fresh report fail the comparison.
/// A baseline that does not parse, or lacks a key or holds a malformed
/// value where the comparison reads one, exits 2 like any other bad
/// argument: exit 1 means a real regression.
int compare_bench(const std::string& fresh_text, const Options& o) {
  std::ifstream f(o.compare_path, std::ios::binary);
  if (!f) fail("cannot read " + o.compare_path);
  std::stringstream buf;
  buf << f.rdbuf();

  const auto config_key = [](const json::Value& c) {
    return c.at("opt").as_string() + "/" + c.at("sched").as_string();
  };
  // An array member's elements.  Any other kind is malformed, not an
  // empty list that would compare vacuously.
  const auto items_at = [](const json::Value& v, const char* key)
      -> const std::vector<json::Value>& {
    const json::Value& a = v.at(key);
    if (!a.is(json::Value::Kind::Array)) {
      throw Error(std::string("json: '") + key + "' is not an array");
    }
    return a.items;
  };
  int regressions = 0;
  const auto regress = [&](const std::string& what) {
    std::fprintf(stderr, "bench --compare: %s\n", what.c_str());
    ++regressions;
  };

  // A count past the tolerance is a regression; a drop is reported.
  const double factor = 1.0 + o.tolerance_pct / 100.0;
  const auto gate = [&](const std::string& at, const char* dim,
                        std::uint64_t b, std::uint64_t v) {
    if (static_cast<double>(v) > static_cast<double>(b) * factor) {
      regress(at + ": " + dim + " " + std::to_string(v) +
              " exceeds baseline " + std::to_string(b) + " (+" +
              std::to_string(o.tolerance_pct) + "% allowed)");
    } else if (v < b) {
      std::printf("bench --compare: %s: %s improved %llu -> %llu\n",
                  at.c_str(), dim, static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(v));
    }
  };

  std::size_t compared = 0;
  try {
    const json::Value fresh = json::parse(fresh_text);
    const json::Value base = json::parse(buf.str());
    const std::vector<json::Value>& base_cfgs = items_at(base, "configs");
    if (base_cfgs.empty()) throw Error("json: 'configs' is empty");
    compared = base_cfgs.size();
    for (const json::Value& bc : base_cfgs) {
      const std::string key = config_key(bc);
      const json::Value* fc = nullptr;
      for (const json::Value& c : items_at(fresh, "configs")) {
        if (config_key(c) == key) {
          fc = &c;
          break;
        }
      }
      if (fc == nullptr) {
        regress("config " + key + " is in the baseline but not this run");
        continue;
      }
      const std::vector<json::Value>& base_runs = items_at(bc, "runs");
      const std::vector<json::Value>& fresh_runs = items_at(*fc, "runs");
      if (fresh_runs.size() < base_runs.size()) {
        regress("config " + key + " ran " + std::to_string(fresh_runs.size()) +
                " inputs, baseline " + std::to_string(base_runs.size()));
        continue;
      }
      gate(key, "static_instrs", bc.at("static_instrs").as_u64(),
           fc->at("static_instrs").as_u64());
      for (std::size_t i = 0; i < base_runs.size(); ++i) {
        const json::Value& br = base_runs[i];
        const json::Value& fr = fresh_runs[i];
        const std::string at = key + " input " + std::to_string(i);
        if (br.at("trap").as_bool() != fr.at("trap").as_bool()) {
          regress(at + ": trap " +
                  (fr.at("trap").as_bool() ? "appeared" : "disappeared"));
        }
        if (br.at("agree").as_bool() && !fr.at("agree").as_bool()) {
          regress(at + ": eval/compiled agreement lost");
        }
        for (const char* dim : {"executed_T", "executed_W"}) {
          gate(at, dim, br.at(dim).as_u64(), fr.at(dim).as_u64());
        }
      }
    }
  } catch (const Error& e) {
    fail(std::string("--compare: ") + e.what());
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench --compare: %d regression%s vs %s\n",
                 regressions, regressions == 1 ? "" : "s",
                 o.compare_path.c_str());
    return 1;
  }
  std::printf("bench --compare: no regressions vs %s (%zu configs, "
              "tolerance %.1f%%)\n",
              o.compare_path.c_str(), compared, o.tolerance_pct);
  return 0;
}

int cmd_bench(const F::SourceFile& src, const Options& o) {
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);
  auto inputs = gather_inputs(mod, entry, o);
  if (o.scale > 0) {
    SplitMix64 rng(42);
    inputs.assign(1, synthesize_value(entry.dom, o.scale, rng));
  }
  struct Config {
    opt::OptLevel level;
    opt::WhileSchedule sched;
  };
  const Config configs[] = {
      {opt::OptLevel::O0, opt::WhileSchedule::naive()},
      {opt::OptLevel::O1, opt::WhileSchedule::naive()},
      {opt::OptLevel::O2, opt::WhileSchedule::naive()},
      {opt::OptLevel::O2, opt::WhileSchedule::eager()},
      {opt::OptLevel::O2, opt::WhileSchedule::staged({1, 2})},
  };
  std::ostringstream out;
  out << "{\n  \"file\": \"" << json::escape(src.name())
      << "\",\n  \"entry\": \"" << json::escape(entry.name)
      << "\",\n  \"type\": \""
      << json::escape(entry.dom->show() + " -> " + entry.cod->show())
      << "\",\n  \"inputs\": " << inputs.size()
      << ",\n  \"scale\": " << o.scale << ",\n  \"configs\": [\n";
  bool first_cfg = true;
  for (const auto& cfg : configs) {
    opt::PipelineStats stats;
    const bvram::Program program =
        sa::compile_nsc(entry.fn, cfg.level, cfg.sched, &stats);
    if (!first_cfg) out << ",\n";
    first_cfg = false;
    out << "    {\"opt\": \"" << opt_name(cfg.level) << "\", \"sched\": \""
        << sched_name(cfg.sched) << "\", \"static_instrs\": "
        << program.code.size() << ", \"regs\": " << program.num_regs
        << ", \"runs\": [";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const RunOutcome ev = eval_outcome(entry, inputs[i]);
      bvram::RunResult raw;
      const RunOutcome mc =
          o.profile ? compiled_outcome(program, entry, inputs[i],
                                       profile_config(), &raw)
                    : compiled_outcome(program, entry, inputs[i]);
      if (i != 0) out << ", ";
      out << "{\"input\": " << i << ", \"eval_T\": " << ev.cost.time
          << ", \"eval_W\": " << ev.cost.work
          << ", \"executed_T\": " << mc.cost.time
          << ", \"executed_W\": " << mc.cost.work << ", \"trap\": "
          << ((ev.trapped || mc.trapped) ? "true" : "false")
          << ", \"agree\": "
          << ((ev.trapped == mc.trapped &&
               (ev.trapped || Value::equal(ev.value, mc.value)))
                  ? "true"
                  : "false");
      if (o.profile && !mc.trapped) {
        const obs::Profile prof = obs::Profile::build(program, raw);
        out << ", \"profile\": {\"attributed_frac\": "
            << prof.attributed_frac << ", \"engine_wall_ns\": "
            << prof.engine.wall_ns << ", \"pool_hits\": "
            << prof.engine.pool_hits << ", \"pool_misses\": "
            << prof.engine.pool_misses << ", \"inplace_hits\": "
            << prof.engine.inplace_hits << ", \"move_swaps\": "
            << prof.engine.move_swaps << "}";
      }
      out << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  if (o.json_path.empty()) {
    std::fputs(out.str().c_str(), stdout);
  } else {
    std::ofstream f(o.json_path, std::ios::binary);
    if (!f) fail("cannot write " + o.json_path);
    f << out.str();
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  if (!o.compare_path.empty()) return compare_bench(out.str(), o);
  return 0;
}

int cmd_profile(const F::SourceFile& src, const Options& o) {
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);
  const auto inputs = gather_inputs(mod, entry, o);
  if (inputs.empty()) fail("no inputs: add `input ...` lines or --input");
  opt::PipelineStats stats;
  const bvram::Program program =
      sa::compile_nsc(entry.fn, o.opt, o.sched, &stats);
  std::printf("%s : %s -> %s  [%s, %s: %zu regs, %zu instrs, "
              "%.1f%% static attribution]\n",
              entry.name.c_str(), entry.dom->show().c_str(),
              entry.cod->show().c_str(), opt_name(o.opt),
              sched_name(o.sched), program.num_regs, program.code.size(),
              100.0 * program.debug_coverage());

  // With no view flag every view prints; flags restrict to the named ones.
  const bool all_views = !o.by_line && !o.by_opcode && !o.passes;
  if (all_views || o.passes) {
    print_pass_timings(stats);
  }

  // The --min-attribution gate is count-weighted over ALL inputs: a
  // degenerate run (empty input, a handful of prologue instructions) may
  // legitimately sit below the threshold without indicating any
  // attribution loss in the compiler.
  std::uint64_t gate_total = 0, gate_attributed = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    bvram::RunResult raw;
    const RunOutcome mc =
        compiled_outcome(program, entry, inputs[i], profile_config(), &raw);
    std::printf("\ninput %zu: %s\n", i, inputs[i]->show().c_str());
    if (mc.trapped) {
      std::printf("  trap (%s)\n", mc.error.c_str());
      continue;
    }
    const obs::Profile prof = obs::Profile::build(program, raw);
    std::printf("  T=%llu W=%llu; %.1f%% of executed instructions "
                "attributed\n  engine: %s\n",
                static_cast<unsigned long long>(mc.cost.time),
                static_cast<unsigned long long>(mc.cost.work),
                100.0 * prof.attributed_frac, prof.render_engine().c_str());
    if (all_views || o.by_line) {
      std::printf("\n%s", prof.render_by_line().c_str());
    }
    if (all_views || o.by_opcode) {
      std::printf("\n%s", prof.render_by_opcode().c_str());
    }
    if ((all_views || o.by_line) && !prof.by_loop.empty()) {
      std::printf("\n%s", prof.render_loops().c_str());
    }
    if (i == 0 && !o.chrome_path.empty()) {
      std::ofstream f(o.chrome_path, std::ios::binary);
      if (!f) fail("cannot write " + o.chrome_path);
      obs::write_chrome_trace(f, program, raw, &stats);
      std::printf("\nwrote %s\n", o.chrome_path.c_str());
    }
    gate_total += prof.total_count;
    gate_attributed += static_cast<std::uint64_t>(
        prof.attributed_frac * static_cast<double>(prof.total_count) + 0.5);
  }
  if (o.min_attribution >= 0.0 && gate_total > 0) {
    const double pct =
        100.0 * static_cast<double>(gate_attributed) /
        static_cast<double>(gate_total);
    if (pct < o.min_attribution) {
      std::fprintf(stderr,
                   "nscc profile: attribution %.1f%% across %llu executed "
                   "instructions is below the --min-attribution gate of "
                   "%.1f%%\n",
                   pct, static_cast<unsigned long long>(gate_total),
                   o.min_attribution);
      return 1;
    }
  }
  return 0;
}

/// Parse one serve request expression and typecheck it against the
/// entry's domain.
ValueRef parse_request(const std::string& label, const std::string& text,
                       const F::ResolvedFn& entry) {
  const F::SourceFile src(label, text);
  const F::ExprPtr e = F::parse_expression(src);
  const F::ResolvedInput in = F::resolve_expression(e, src);
  if (!Type::equal(in.type, entry.dom)) {
    fail(label + " has type " + in.type->show() + " but " + entry.name +
         " expects " + entry.dom->show());
  }
  return L::eval(in.term).value;
}

int cmd_serve(const F::SourceFile& src, const Options& o) {
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& entry = entry_of(mod, o);

  // Requests: the module's `input` lines and --input values, plus one
  // expression per non-blank, non-# line of --requests.
  std::vector<ValueRef> requests = gather_inputs(mod, entry, o);
  if (!o.requests_path.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (o.requests_path != "-") {
      file.open(o.requests_path, std::ios::binary);
      if (!file) fail("cannot read " + o.requests_path);
      in = &file;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(*in, line)) {
      ++lineno;
      const std::size_t pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      requests.push_back(parse_request(
          o.requests_path + ":" + std::to_string(lineno), line, entry));
    }
  }
  if (requests.empty()) {
    fail("no requests: add `input ...` lines, --input, or --requests");
  }

  serve::ServeConfig cfg;
  cfg.workers = o.workers;
  cfg.max_queue = o.max_queue;
  cfg.max_batch = o.max_batch;
  cfg.fuel = o.fuel;
  cfg.batching = !o.no_batch;

  // Telemetry sinks (pure observers; declared before the Service so they
  // outlive the worker threads that write into them).
  std::optional<obs::EventLog> events;
  std::optional<obs::SpanLog> spans;
  if (!o.events_path.empty()) {
    events.emplace();
    cfg.events = &*events;
  }
  if (!o.trace_path.empty()) {
    spans.emplace();
    cfg.spans = &*spans;
  }
  cfg.slow_ms = o.slow_ms;
  cfg.profile_runs = o.profile;
  serve::Service svc(cfg);
  const obs::Provenance prov = obs::Provenance::collect();
  const auto write_snapshots = [&] {
    if (!o.metrics_path.empty()) {
      std::ofstream f(o.metrics_path, std::ios::binary);
      if (!f) fail("cannot write " + o.metrics_path);
      svc.metrics().write_prometheus(f, &prov);
    }
    if (!o.stats_json_path.empty()) {
      std::ofstream f(o.stats_json_path, std::ios::binary);
      if (!f) fail("cannot write " + o.stats_json_path);
      f << svc.stats_json() << "\n";
    }
  };

  const auto prog = svc.load(src.name(), src.text(),
                             o.entry == "main" ? "" : o.entry, o.opt, o.sched);
  std::printf("%s : %s -> %s  [%s, %s; %zu workers, batching %s, "
              "max batch %zu]\n",
              entry.name.c_str(), entry.dom->show().c_str(),
              entry.cod->show().c_str(), opt_name(o.opt), sched_name(o.sched),
              svc.config().workers, cfg.batching ? "on" : "off",
              cfg.max_batch);

  // Pause the workers while the queue fills so the batcher sees the whole
  // request list at once (the steady-state shape of a loaded service).
  const std::size_t total = requests.size() * o.repeat;
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(total);
  svc.pause();
  for (std::size_t rep = 0; rep < o.repeat; ++rep) {
    for (const ValueRef& r : requests) futures.push_back(svc.submit(prog, r));
  }
  svc.resume();

  constexpr std::size_t kPrint = 10;
  bool internal_error = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::Response r = futures[i].get();
    if (r.outcome == serve::Outcome::Error) internal_error = true;
    if (o.snapshot_every > 0 && (i + 1) % o.snapshot_every == 0) {
      write_snapshots();
    }
    if (i == kPrint && futures.size() > kPrint) {
      std::printf("  ... (%zu more requests)\n", futures.size() - kPrint);
    }
    if (i >= kPrint) continue;
    if (r.ok()) {
      std::printf("request %zu: %s  (T=%llu W=%llu, %s)\n", i,
                  r.value->show().c_str(),
                  static_cast<unsigned long long>(r.cost.time),
                  static_cast<unsigned long long>(r.cost.work),
                  r.batched
                      ? ("batch of " + std::to_string(r.batch_size)).c_str()
                      : "solo");
    } else {
      std::printf("request %zu: %s (%s)\n", i, serve::outcome_name(r.outcome),
                  r.error.c_str());
    }
  }
  svc.drain();

  const serve::ServeStats st = svc.stats();
  std::printf(
      "\nserved %llu requests: %llu ok, %llu trapped, %llu fuel-exhausted, "
      "%llu rejected, %llu errors\n",
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.ok),
      static_cast<unsigned long long>(st.trapped),
      static_cast<unsigned long long>(st.fuel_exhausted),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.errors));
  std::printf(
      "runs %llu (%llu batched runs, occupancy %.1f, %llu replays); "
      "cache %llu hit / %llu miss (compile %.2f ms)\n",
      static_cast<unsigned long long>(st.runs),
      static_cast<unsigned long long>(st.batch_runs), st.batch_occupancy,
      static_cast<unsigned long long>(st.replays),
      static_cast<unsigned long long>(st.cache.hits),
      static_cast<unsigned long long>(st.cache.misses),
      static_cast<double>(st.cache.compile_wall_ns) / 1e6);
  std::printf("latency us: p50 %.1f  p95 %.1f  p99 %.1f  mean %.1f\n",
              static_cast<double>(st.latency_p50_ns) / 1e3,
              static_cast<double>(st.latency_p95_ns) / 1e3,
              static_cast<double>(st.latency_p99_ns) / 1e3,
              static_cast<double>(st.latency_mean_ns) / 1e3);

  write_snapshots();
  if (!o.metrics_path.empty()) {
    std::printf("wrote %s\n", o.metrics_path.c_str());
  }
  if (!o.stats_json_path.empty()) {
    std::printf("wrote %s\n", o.stats_json_path.c_str());
  }
  if (events.has_value()) {
    const obs::EventLogStats es = events->stats();
    std::ofstream f(o.events_path, std::ios::binary);
    if (!f) fail("cannot write " + o.events_path);
    events->write_header(f);
    for (const obs::Event& e : events->drain()) {
      obs::EventLog::write_event(f, e);
    }
    std::printf("wrote %s (%llu events, %llu dropped)\n",
                o.events_path.c_str(),
                static_cast<unsigned long long>(es.emitted),
                static_cast<unsigned long long>(es.dropped));
  }
  if (spans.has_value()) {
    const obs::SpanLogStats ss = spans->stats();
    std::ofstream f(o.trace_path, std::ios::binary);
    if (!f) fail("cannot write " + o.trace_path);
    obs::write_serve_trace(f, spans->drain(), svc.config().workers, &prov);
    std::printf("wrote %s (%llu spans, %llu dropped)\n", o.trace_path.c_str(),
                static_cast<unsigned long long>(ss.recorded),
                static_cast<unsigned long long>(ss.dropped));
  }
  return internal_error ? 1 : 0;
}

int cmd_fmt(const F::SourceFile& src, const Options&) {
  std::fputs(F::print_module(F::parse_module(src)).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    if (o.command == "doc") {
      std::fputs(F::language_reference().c_str(), stdout);
      return 0;
    }
    const F::SourceFile src = F::load_file(o.file);
    if (o.command == "check") return cmd_check(src, o);
    if (o.command == "eval") return cmd_eval(src, o);
    if (o.command == "run") return cmd_run(src, o);
    if (o.command == "dump") return cmd_dump(src, o);
    if (o.command == "bench") return cmd_bench(src, o);
    if (o.command == "profile") return cmd_profile(src, o);
    if (o.command == "serve") return cmd_serve(src, o);
    if (o.command == "fmt") return cmd_fmt(src, o);
    usage(argv[0]);
  } catch (const front::FrontError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const nsc::Error& e) {
    std::fprintf(stderr, "nscc: %s\n", e.what());
    return 1;
  }
}
