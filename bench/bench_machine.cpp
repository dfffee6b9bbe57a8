// The execution-engine benchmark harness: runs the compiled example
// corpus plus adversarial route/scan microbenchmarks on run(), verifies
// that outputs, T, and W agree bit-for-bit with the untimed run_reference
// oracle -- and, for the case that traps, that both throw the same
// exception type and message -- (exit code 1 on any mismatch: the CI
// perf-smoke gate), and writes each case's median and quartiles over the
// reps to a JSON file so future changes can compare machine-readable
// numbers instead of prose.
//
//   bench_machine [--json PATH] [--reps K] [--scale N] [--full]
//
// --full adds n = 10^7 to the default {10^5, 10^6} sweep; --scale N
// replaces the sweep with the single size N.  Timing rows are never
// part of the failure criterion (shared runners are noisy); only
// mismatches against the oracle fail.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <typeinfo>
#include <vector>

#include "bvram/machine.hpp"
#include "nsc/build.hpp"
#include "nsc/prelude.hpp"
#include "obs/benchjson.hpp"
#include "nsc/typecheck.hpp"
#include "opt/liveness.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using nsc::Table;
using nsc::Type;
using nsc::TypeRef;
using nsc::Value;
using nsc::ValueRef;
using nsc::bvram::Assembler;
using nsc::bvram::Program;
using nsc::bvram::RunConfig;
using nsc::bvram::RunResult;
using Vec = std::vector<std::uint64_t>;
using nsc::lang::ArithOp;

struct Case {
  std::string name;
  Program program;  // annotated with last-use masks
  std::vector<Vec> inputs;
  bool traps = false;  // run_reference must throw on these inputs
};

/// Wall-clock milliseconds over the reps: median and quartiles (linear
/// interpolation between order statistics).
struct Quartiles {
  double p25 = 0, median = 0, p75 = 0;

  static Quartiles of(std::vector<double> ms) {
    std::sort(ms.begin(), ms.end());
    const auto at = [&](double q) {
      const double pos = q * static_cast<double>(ms.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, ms.size() - 1);
      return ms[lo] + (pos - static_cast<double>(lo)) * (ms[hi] - ms[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
  }
};

struct Entry {
  std::string bench;
  std::size_t n;
  Quartiles ms;
  std::uint64_t time = 0;
  std::uint64_t work = 0;
  std::uint64_t checksum = 0;
  std::string trap;  // the trap's message; empty when the run returns
};

std::uint64_t checksum(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto& v : r.outputs) {
    mix(v.size());
    for (auto x : v) mix(x);
  }
  mix(r.cost.time);
  mix(r.cost.work);
  return h;
}

Vec iota_mod(std::size_t n, std::uint64_t mod) {
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (i * 2654435761u) % mod;
  return v;
}

// ---------------------------------------------------------------------------
// microbenchmarks (hand-assembled adversaries)
// ---------------------------------------------------------------------------

Case make_move_chain(std::size_t n) {
  // 24 Moves cycling 4 temporaries: with last-use annotation every one is
  // an O(1) buffer swap instead of a copy of n words.
  Assembler a;
  a.reserve_regs(1);
  std::uint32_t t[4];
  for (auto& r : t) r = a.reg();
  a.move(t[0], 0);
  for (int i = 1; i < 24; ++i) a.move(t[i % 4], t[(i - 1) % 4]);
  a.move(0, t[23 % 4]);
  a.halt();
  auto p = a.finish(1, 1);
  nsc::opt::annotate_last_use(p);
  return {"move-chain", std::move(p), {iota_mod(n, 1u << 20)}};
}

Case make_arith_mix(std::size_t n) {
  // A 16-op elementwise chain (add/mul/monus/rsh) through two recycled
  // temporaries: exercises the pooled buffers, in-place execution, and
  // the hoisted arith dispatch.
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  const ArithOp ops[4] = {ArithOp::Add, ArithOp::Mul, ArithOp::Monus,
                          ArithOp::Rsh};
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, ArithOp::Mul, u, 0);
  for (int i = 0; i < 14; ++i) {
    if (i % 2 == 0) {
      a.arith(u, ops[i % 4], v, 1);
    } else {
      a.arith(v, ops[i % 4], u, 0);
    }
  }
  a.move(0, v);
  a.halt();
  auto p = a.finish(2, 1);
  nsc::opt::annotate_last_use(p);
  return {"arith-mix", std::move(p), {iota_mod(n, 1000), iota_mod(n, 60)}};
}

Case make_scan_chain(std::size_t n) {
  Assembler a;
  a.reserve_regs(1);
  auto u = a.reg(), v = a.reg();
  a.scan_plus(u, 0);
  for (int i = 0; i < 11; ++i) {
    if (i % 2 == 0) {
      a.scan_plus(v, u);
    } else {
      a.scan_plus(u, v);
    }
  }
  a.move(0, u);
  a.halt();
  auto p = a.finish(1, 1);
  nsc::opt::annotate_last_use(p);
  return {"scan-chain", std::move(p), {iota_mod(n, 3)}};
}

Case make_select(std::size_t n) {
  Assembler a;
  a.reserve_regs(1);
  auto t = a.reg();
  for (int i = 0; i < 10; ++i) a.select(t, 0);
  a.move(0, t);
  a.halt();
  auto p = a.finish(1, 1);
  nsc::opt::annotate_last_use(p);
  return {"select-half", std::move(p), {iota_mod(n, 2)}};
}

Case make_append(std::size_t n) {
  Assembler a;
  a.reserve_regs(1);
  auto t = a.reg();
  for (int i = 0; i < 8; ++i) a.append(t, 0, 0);
  a.move(0, t);
  a.halt();
  auto p = a.finish(1, 1);
  nsc::opt::annotate_last_use(p);
  return {"append-double", std::move(p), {iota_mod(n, 1u << 16)}};
}

Case make_route_broadcast(std::size_t n) {
  // The compiler's ones_like: bm-route with a single count of n --
  // maximum skew, the adversary for count-partitioned scatters.
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), len = a.reg(), t = a.reg();
  a.load_const(one, 7);
  a.length(len, 0);
  for (int i = 0; i < 8; ++i) a.bm_route(t, 0, len, one);
  a.move(0, t);
  a.halt();
  auto p = a.finish(1, 1);
  nsc::opt::annotate_last_use(p);
  return {"route-broadcast", std::move(p), {iota_mod(n, 10)}};
}

Case make_route_pack(std::size_t n) {
  // pack_vec: select the 0/1 bits, then bm-route the data through them.
  Assembler a;
  a.reserve_regs(2);  // V0 = data, V1 = bits
  auto bound = a.reg(), t = a.reg();
  a.select(bound, 1);
  for (int i = 0; i < 6; ++i) a.bm_route(t, bound, 1, 0);
  a.move(0, t);
  a.halt();
  auto p = a.finish(2, 1);
  nsc::opt::annotate_last_use(p);
  return {"route-pack", std::move(p), {iota_mod(n, 1u << 16), iota_mod(n, 2)}};
}

Case make_sbm_cartesian(std::size_t n) {
  // One segment of sqrt(n) elements replicated sqrt(n) times: the
  // flattened cartesian product, skew-adversarial for sbm-route.
  const std::size_t m = std::max<std::size_t>(1, nsc::isqrt(n));
  Assembler a;
  auto bound = a.reg();   // V0: k zeros
  auto counts = a.reg();  // V1: [k]
  auto data = a.reg();    // V2: m values
  auto segs = a.reg();    // V3: [m]
  auto t = a.reg();
  for (int i = 0; i < 4; ++i) a.sbm_route(t, bound, counts, data, segs);
  a.move(0, t);
  a.halt();
  auto p = a.finish(4, 1);
  nsc::opt::annotate_last_use(p);
  return {"sbm-cartesian", std::move(p),
          {Vec(m, 0), Vec{m}, iota_mod(m, 1u << 16), Vec{m}}};
}

// ---------------------------------------------------------------------------
// compiled corpus
// ---------------------------------------------------------------------------

Case make_compiled(const std::string& name, const L::FuncRef& f,
                   const ValueRef& arg) {
  auto [dom, cod] = L::check_func(f);
  (void)cod;
  auto p = nsc::sa::compile_nsc(f);  // O2; arrives annotated
  return {name, std::move(p), nsc::sa::encode_value(arg, dom)};
}

Case make_corpus_index(std::size_t n) {
  Vec c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = 2 * i;
  auto arg = Value::pair(Value::nat_seq(c),
                         Value::nat_seq({0, n / 3, n / 2, n - 1}));
  return make_compiled("compiled:index", P::index(Type::nat()), arg);
}

Case make_corpus_index_trap(std::size_t n) {
  // A position past the end: the compiled program's out-of-range trap is
  // a certificate whose result is never read, so run() executes it as its
  // check alone, on registers of n elements.
  Vec c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = 2 * i;
  auto arg = Value::pair(Value::nat_seq(c), Value::nat_seq({0, n / 3, n}));
  Case k = make_compiled("compiled:index-trap", P::index(Type::nat()), arg);
  k.traps = true;
  return k;
}

Case make_corpus_filter_map(std::size_t n) {
  const TypeRef N = Type::nat();
  auto keep = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(512)); });
  auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
  auto f = L::lam(Type::seq(N), [&](L::TermRef x) {
    return L::apply(L::map_f(dbl), L::apply(P::filter(keep, N), x));
  });
  nsc::SplitMix64 rng(5);
  return make_compiled("compiled:filter-map", f,
                       Value::nat_seq(rng.vec(n, 1024)));
}

Case make_corpus_sum(std::size_t n) {
  return make_compiled("compiled:sum-while", P::sum_nats(),
                       Value::nat_seq(Vec(n, 3)));
}

Case make_corpus_quickstart(std::size_t n) {
  // examples/quickstart.cpp: filter, then zip positions with squares.
  const TypeRef N = Type::nat();
  auto small = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(10)); });
  auto square = L::lam(N, [](L::TermRef v) { return L::mul(v, v); });
  auto f = L::lam(Type::seq(N), [&](L::TermRef xs) {
    L::TermRef kept = L::apply(P::filter(small, N), xs);
    return L::let_in(Type::seq(N), kept, [&](L::TermRef k) {
      return L::zip(L::enumerate(k), L::apply(L::map_f(square), k));
    });
  });
  return make_compiled("compiled:quickstart", f,
                       Value::nat_seq(iota_mod(n, 20)));
}

Case make_corpus_nested_query(std::size_t n) {
  // examples/nested_query.cpp: per-department filter + (length, sum) --
  // genuine nested data parallelism (a lifted inner filter/sum under map).
  const TypeRef N = Type::nat();
  const TypeRef Dept = Type::seq(N);
  auto well_paid =
      L::lam(N, [](L::TermRef s) { return L::leq(L::nat(50), s); });
  auto per_dept = L::lam(Dept, [&](L::TermRef d) {
    L::TermRef kept = L::apply(P::filter(well_paid, N), d);
    return L::let_in(Type::seq(N), kept, [&](L::TermRef k) {
      return L::pair(L::length(k), L::apply(P::sum_nats(), k));
    });
  });
  auto query = L::lam(Type::seq(Dept), [&](L::TermRef db) {
    return L::apply(L::map_f(per_dept), db);
  });
  // sqrt(n) departments of sqrt(n) salaries: n total elements.
  const std::size_t m = std::max<std::size_t>(1, nsc::isqrt(n));
  std::vector<ValueRef> depts;
  nsc::SplitMix64 rng(17);
  for (std::size_t d = 0; d < m; ++d) {
    depts.push_back(Value::nat_seq(rng.vec(m, 100)));
  }
  return make_compiled("compiled:nested-query", query, Value::seq(depts));
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

using Runner = RunResult (*)(const Program&, const std::vector<Vec>&,
                             const RunConfig&);

/// Runs c with `runner`: the dynamic type and message of the nsc::Error
/// it throws, or "" when it returns (the result lands in `out`).
std::string run_case(Runner runner, const Case& c, RunResult& out) {
  try {
    out = runner(c.program, c.inputs, RunConfig{});
    return "";
  } catch (const nsc::Error& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

double wall_ms_once(const Case& c) {
  RunResult res;
  const auto t0 = std::chrono::steady_clock::now();
  run_case(nsc::bvram::run, c, res);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string cell(const Quartiles& q) {
  return Table::fixed(q.median, 2) + " [" + Table::fixed(q.p25, 2) + "-" +
         Table::fixed(q.p75, 2) + "]";
}

struct Options {
  std::string json_path = "BENCH_machine.json";
  int reps = 5;
  std::size_t scale = 0;  // 0 = default sweep
  bool full = false;
};

int run_bench(const Options& opt) {
  std::vector<std::size_t> sizes = {100000, 1000000};
  if (opt.full) sizes.push_back(10000000);
  if (opt.scale != 0) sizes = {opt.scale};

  std::vector<Entry> entries;
  bool mismatch = false;

  using Maker = Case (*)(std::size_t);
  const Maker makers[] = {
      make_move_chain,   make_arith_mix,      make_scan_chain,
      make_select,       make_append,         make_route_broadcast,
      make_route_pack,   make_sbm_cartesian,  make_corpus_index,
      make_corpus_index_trap, make_corpus_filter_map, make_corpus_sum,
      make_corpus_quickstart, make_corpus_nested_query,
  };

  Table t({"bench", "n", "ms"});
  for (std::size_t n : sizes) {
    for (auto make : makers) {
      Case c = make(n);
      RunResult ref, r;
      const std::string ref_trap =
          run_case(nsc::bvram::run_reference, c, ref);
      // Untimed validation run: outputs + costs feed the checksum.
      const std::string trap = run_case(nsc::bvram::run, c, r);
      Entry e;
      e.bench = c.name;
      e.n = n;
      e.time = r.cost.time;
      e.work = r.cost.work;
      e.checksum = checksum(r);
      e.trap = trap;
      if (c.traps == ref_trap.empty()) {
        std::fprintf(stderr, "MISMATCH: %s n=%zu: run_reference %s%s\n",
                     c.name.c_str(), n,
                     c.traps ? "did not trap" : "trapped: ", ref_trap.c_str());
        mismatch = true;
      } else if (trap != ref_trap) {
        std::fprintf(stderr,
                     "MISMATCH: %s n=%zu traps differently from "
                     "run_reference (\"%s\" vs \"%s\")\n",
                     c.name.c_str(), n, trap.c_str(), ref_trap.c_str());
        mismatch = true;
      } else if (e.checksum != checksum(ref) || e.time != ref.cost.time ||
                 e.work != ref.cost.work) {
        std::fprintf(stderr,
                     "MISMATCH: %s n=%zu disagrees with run_reference "
                     "(checksum %016llx vs %016llx, T %llu vs %llu, W "
                     "%llu vs %llu)\n",
                     c.name.c_str(), n,
                     static_cast<unsigned long long>(e.checksum),
                     static_cast<unsigned long long>(checksum(ref)),
                     static_cast<unsigned long long>(e.time),
                     static_cast<unsigned long long>(ref.cost.time),
                     static_cast<unsigned long long>(e.work),
                     static_cast<unsigned long long>(ref.cost.work));
        mismatch = true;
      }
      std::vector<double> ms;
      for (int rep = 0; rep < opt.reps; ++rep) ms.push_back(wall_ms_once(c));
      e.ms = Quartiles::of(ms);
      t.row({c.name, std::to_string(n), cell(e.ms)});
      entries.push_back(std::move(e));
    }
  }
  t.print();
  std::printf("\nreading: each cell is the median [p25-p75] ms over %d "
              "reps.\n%s\n",
              opt.reps,
              mismatch ? "MISMATCH against run_reference (see above)."
                       : "Every case matched run_reference's outputs, T, "
                         "and W, or its trap.");

  // ---- JSON ----
  nsc::obs::BenchReport report(opt.json_path, "bvram-bench-machine/v7");
  if (!report.ok()) return 1;
  std::FILE* f = report.out();
  std::fprintf(f, "  \"reps\": %d,\n", opt.reps);
  std::fprintf(f, "  \"entries\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const std::string trap =
        e.trap.empty() ? "null" : "\"" + nsc::json::escape(e.trap) + "\"";
    std::fprintf(f,
                 "    {\"bench\": \"%s\", \"n\": %zu, "
                 "\"ms_median\": %.3f, \"ms_p25\": %.3f, "
                 "\"ms_p75\": %.3f, \"T\": %llu, \"W\": %llu, "
                 "\"checksum\": \"%016llx\", \"trap\": %s}%s\n",
                 e.bench.c_str(), e.n, e.ms.median, e.ms.p25, e.ms.p75,
                 static_cast<unsigned long long>(e.time),
                 static_cast<unsigned long long>(e.work),
                 static_cast<unsigned long long>(e.checksum), trap.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mismatch\": %s\n", mismatch ? "true" : "false");
  report.close();

  return mismatch ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      opt.reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--scale" && i + 1 < argc) {
      opt.scale = static_cast<std::size_t>(
          std::max(1ll, std::atoll(argv[++i])));
    } else if (arg == "--full") {
      opt.full = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_machine [--json PATH] [--reps K] "
                   "[--scale N] [--full]\n");
      return 2;
    }
  }
  std::printf(
      "bench_machine: the BVRAM execution engine; wall-clock median and\n"
      "quartiles of %d reps, outputs/T/W checked against run_reference.\n\n",
      opt.reps);
  return run_bench(opt);
}
