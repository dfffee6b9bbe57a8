// E3 (Theorem 7.1): NSC -> NSA -> BVRAM compilation.
// Paper claim: T' = O(T), W' = O(W^(1+eps)), with a register count fixed by
// the source program.  For each corpus program we report NSC costs, BVRAM
// costs, the ratios across input sizes (flat ratios = preserved orders),
// and the static register count.
//
// Each program is compiled at O0 (naive catalog emission) and through the
// loop-aware src/opt/ pipeline (O2: GVN with copy renaming, LICM, DCE,
// reg-compact), so the optimizer's constant-factor win is measured
// alongside the paper's asymptotic claims.
//
//   bench_compile [--json PATH]
//
// writes the per-program, per-OptLevel static and executed T/W trajectory
// to PATH (default BENCH_compile.json; same shape as BENCH_machine.json)
// and exits nonzero if the O2 executed T or W exceeds O0's on any
// corpus program -- the CI perf-smoke gate.  Never gated on timing.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "straggler.hpp"  // the shared Lemma 7.2 adversary (bench/)

#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/maprec.hpp"
#include "nsc/prelude.hpp"
#include "nsc/typecheck.hpp"
#include "obs/benchjson.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
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
using nsc::opt::OptLevel;
using nsc::opt::WhileSchedule;

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());

struct CorpusProgram {
  std::string name;
  L::FuncRef f;
  WhileSchedule sched;
  std::vector<std::pair<std::string, ValueRef>> args;  // label -> input
};

struct JsonEntry {
  std::string program;
  std::string input;
  const char* opt;
  std::size_t static_instrs;
  std::size_t static_regs;
  std::uint64_t time;
  std::uint64_t work;
};

void report(const CorpusProgram& c, std::vector<JsonEntry>& json,
            bool& regressed) {
  auto [dom, cod] = L::check_func(c.f);
  nsc::opt::PipelineStats stats;
  auto naive = nsc::sa::compile_nsc(c.f, OptLevel::O0, c.sched);
  auto program = nsc::sa::compile_nsc(c.f, OptLevel::O2, c.sched, &stats);
  std::printf(
      "\n-- %s --\n"
      "   naive:     %6zu instructions, %6zu registers\n"
      "   optimized: %6zu instructions, %6zu registers  (-%.1f%% static)\n"
      "   pipeline:  %s\n",
      c.name.c_str(), naive.code.size(), naive.num_regs, program.code.size(),
      program.num_regs,
      100.0 * (1.0 - static_cast<double>(program.code.size()) /
                         static_cast<double>(naive.code.size())),
      stats.show().c_str());
  Table t({"input", "T_nsc", "W_nsc", "T_O0", "W_O0", "T_opt", "W_opt",
           "T'/T", "W'/W"});
  for (const auto& [label, arg] : c.args) {
    auto nscr = L::apply_fn(c.f, arg);
    auto bv0 = nsc::sa::run_compiled(naive, dom, cod, arg);
    auto bv = nsc::sa::run_compiled(program, dom, cod, arg);
    t.row({label, Table::num(nscr.cost.time), Table::num(nscr.cost.work),
           Table::num(bv0.cost.time), Table::num(bv0.cost.work),
           Table::num(bv.cost.time), Table::num(bv.cost.work),
           Table::fixed(static_cast<double>(bv.cost.time) / nscr.cost.time, 2),
           Table::fixed(static_cast<double>(bv.cost.work) / nscr.cost.work,
                        2)});
    json.push_back({c.name, label, "O0", naive.code.size(), naive.num_regs,
                    bv0.cost.time, bv0.cost.work});
    json.push_back({c.name, label, "O2", program.code.size(),
                    program.num_regs, bv.cost.time, bv.cost.work});
    // The optimizer invariant: executed T/W must never exceed the naive
    // emission's.
    if (bv.cost.time > bv0.cost.time || bv.cost.work > bv0.cost.work) {
      regressed = true;
      std::fprintf(stderr,
                   "PERF REGRESSION: %s %s: O2 executed T/W %llu/%llu "
                   "exceeds O0's %llu/%llu\n",
                   c.name.c_str(), label.c_str(),
                   static_cast<unsigned long long>(bv.cost.time),
                   static_cast<unsigned long long>(bv.cost.work),
                   static_cast<unsigned long long>(bv0.cost.time),
                   static_cast<unsigned long long>(bv0.cost.work));
    }
  }
  t.print();
}

ValueRef index_arg(std::size_t n) {
  std::vector<std::uint64_t> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = i * 2;
  return Value::pair(Value::nat_seq(c),
                     Value::nat_seq({0, n / 3, n / 2, n - 1}));
}

/// The examples/nested_query.cpp query: per department, the count and
/// total of the salaries >= 50 (map over filter over a nested sequence --
/// the segment-descriptor corpus).
L::FuncRef nested_query_func() {
  const TypeRef Dept = Type::seq(N);
  const TypeRef Db = Type::seq(Dept);
  auto well_paid =
      L::lam(N, [](L::TermRef s) { return L::leq(L::nat(50), s); });
  auto per_dept = L::lam(Dept, [&](L::TermRef d) {
    L::TermRef kept = L::apply(P::filter(well_paid, N), d);
    return L::let_in(Dept, kept, [&](L::TermRef k) {
      return L::pair(L::length(k), L::apply(P::sum_nats(), k));
    });
  });
  return L::lam(Db, [&](L::TermRef db) {
    return L::apply(L::map_f(per_dept), db);
  });
}

ValueRef nested_query_arg(std::size_t depts, std::size_t salaries,
                          std::uint64_t seed) {
  nsc::SplitMix64 rng(seed);
  std::vector<ValueRef> db;
  for (std::size_t d = 0; d < depts; ++d) {
    db.push_back(Value::nat_seq(rng.vec(salaries, 100)));
  }
  return Value::seq(db);
}

/// The Theorem 4.2 divide-and-conquer range-sum, translated by
/// translate_maprec (the full-stack corpus program).
L::FuncRef divide_conquer_func() {
  const TypeRef range = Type::prod(N, N);
  auto p = L::lam(range, [](L::TermRef x) {
    return L::leq(L::monus_t(L::proj2(x), L::proj1(x)), L::nat(1));
  });
  auto s = L::lam(range, [](L::TermRef x) {
    return L::ite(L::eq(L::monus_t(L::proj2(x), L::proj1(x)), L::nat(0)),
                  L::nat(0), L::proj1(x));
  });
  auto d1 = L::lam(range, [](L::TermRef x) {
    return L::pair(L::proj1(x),
                   L::div_t(L::add(L::proj1(x), L::proj2(x)), L::nat(2)));
  });
  auto d2 = L::lam(range, [](L::TermRef x) {
    return L::pair(L::div_t(L::add(L::proj1(x), L::proj2(x)), L::nat(2)),
                   L::proj2(x));
  });
  auto c2 = L::lam(Type::prod(N, N), [](L::TermRef q) {
    return L::add(L::proj1(q), L::proj2(q));
  });
  return L::translate_maprec(L::schema_g(range, N, p, s, d1, d2, c2));
}

L::FuncRef mapped_while_func() {
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step =
      L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(1)); });
  return L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N,
                                    [&](L::TermRef v) {
                                      return L::apply(
                                          L::while_f(pred, step), v);
                                    })),
                    x);
  });
}

ValueRef straggler_arg(std::uint64_t n) {
  return Value::nat_seq(nsc::bench::straggler_counts(n));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_compile.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_compile [--json PATH]\n");
      return 2;
    }
  }

  std::printf(
      "E3: Theorem 7.1 -- compiling NSC to the BVRAM\n"
      "paper: T' = O(T), W' = O(W^(1+eps)); the register counts printed\n"
      "per program depend only on the source, never on the input.\n"
      "T_O0/W_O0: naive catalog emission; T_opt/W_opt: the loop-aware\n"
      "src/opt/ pipeline (verify, GVN with copy renaming, LICM, DCE,\n"
      "reg-compact).\n");

  std::vector<CorpusProgram> corpus;
  {
    CorpusProgram c{"index", P::index(N), WhileSchedule::naive(), {}};
    for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
      c.args.emplace_back("n=" + std::to_string(n), index_arg(n));
    }
    corpus.push_back(std::move(c));
  }
  {
    auto keep = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(512)); });
    auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
    CorpusProgram c{"filter-map",
                    L::lam(NSeq,
                           [&](L::TermRef x) {
                             return L::apply(L::map_f(dbl),
                                             L::apply(P::filter(keep, N), x));
                           }),
                    WhileSchedule::naive(),
                    {}};
    nsc::SplitMix64 rng(5);
    for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
      c.args.emplace_back("n=" + std::to_string(n),
                          Value::nat_seq(rng.vec(n, 1024)));
    }
    corpus.push_back(std::move(c));
  }
  {
    CorpusProgram c{"sum-while", P::sum_nats(), WhileSchedule::naive(), {}};
    for (std::size_t n : {64u, 256u, 1024u}) {
      c.args.emplace_back("n=" + std::to_string(n),
                          Value::nat_seq(std::vector<std::uint64_t>(n, 3)));
    }
    corpus.push_back(std::move(c));
  }
  {
    CorpusProgram c{"nested_query", nested_query_func(),
                    WhileSchedule::naive(), {}};
    for (std::size_t d : {8u, 32u, 64u}) {
      c.args.emplace_back("depts=" + std::to_string(d),
                          nested_query_arg(d, 16, 7 + d));
    }
    corpus.push_back(std::move(c));
  }
  {
    CorpusProgram c{"divide_conquer", divide_conquer_func(),
                    WhileSchedule::naive(), {}};
    for (std::uint64_t n : {32ull, 128ull, 512ull}) {
      c.args.emplace_back("n=" + std::to_string(n),
                          Value::pair(Value::nat(0), Value::nat(n)));
    }
    corpus.push_back(std::move(c));
  }
  {
    CorpusProgram c{"mapped-while-naive", mapped_while_func(),
                    WhileSchedule::naive(), {}};
    for (std::uint64_t n : {256ull, 1024ull, 4096ull}) {
      c.args.emplace_back("n=" + std::to_string(n), straggler_arg(n));
    }
    corpus.push_back(std::move(c));
  }
  {
    CorpusProgram c{"mapped-while-staged", mapped_while_func(),
                    WhileSchedule::staged({1, 2}), {}};
    for (std::uint64_t n : {256ull, 1024ull, 4096ull}) {
      c.args.emplace_back("n=" + std::to_string(n), straggler_arg(n));
    }
    corpus.push_back(std::move(c));
  }

  std::vector<JsonEntry> json;
  bool regressed = false;
  for (const auto& c : corpus) report(c, json, regressed);

  std::printf(
      "\nreading: T'/T and W'/W stay bounded as inputs grow --\n"
      "the compilation preserves both orders; the register count column\n"
      "never changes with the input (bounded registers, Thm 7.1).\n"
      "On the straggler workload the staged while schedule's W advantage\n"
      "over naive widens with n (Lemma 7.2 surfaced through the compiler).\n");

  nsc::obs::BenchReport report_file(json_path, "bvram-bench-compile/v2");
  if (!report_file.ok()) return 1;
  std::FILE* f = report_file.out();
  std::fprintf(f, "  \"entries\": [\n");
  for (std::size_t i = 0; i < json.size(); ++i) {
    const JsonEntry& e = json[i];
    std::fprintf(
        f,
        "    {\"program\": \"%s\", \"input\": \"%s\", \"opt\": \"%s\", "
        "\"static_instrs\": %zu, \"static_regs\": %zu, \"T\": %llu, "
        "\"W\": %llu}%s\n",
        e.program.c_str(), e.input.c_str(), e.opt, e.static_instrs,
        e.static_regs, static_cast<unsigned long long>(e.time),
        static_cast<unsigned long long>(e.work),
        i + 1 < json.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  report_file.close();

  if (regressed) {
    std::fprintf(stderr,
                 "FAIL: O2 executed T/W regressed vs O0 on some corpus "
                 "program (see above)\n");
    return 1;
  }
  return 0;
}
