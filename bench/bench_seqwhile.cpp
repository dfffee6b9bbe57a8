// E4 (Lemma 7.2, the Map Lemma's while case): SEQ(while) scheduling
// ablation at the BVRAM level.
//
// Workload: n elements; element i must be stepped t_i times (decrement to
// zero), with a skewed distribution of t_i.  Three hand-assembled BVRAM
// programs compute the same result:
//   naive   -- every iteration touches all n slots (no extraction);
//   eager   -- finished elements are packed out each round and appended to
//              a single accumulator V1 (touched on every extraction round);
//   staged  -- the Lemma 7.2 schedule: extractions append to V1, and V1 is
//              flushed into the archive V2 only when the total number of
//              extracted elements crosses ceil(n^(k*eps)), so V2 is touched
//              only ~1/eps times and each element rides V1 at most
//              t_i * n^eps appends.
// The registers are identical across eps values (only threshold constants
// change) -- the "registers independent of eps" clause of Theorem 7.1.
// We report W / W_ideal where W_ideal = sum_i t_i (the work of the
// iterations themselves).
// The compiler itself emits the naive and staged schedules for any lifted
// while (opt::WhileSchedule, src/sa/compile.cpp); eager exists only here,
// as the illustration of why staging is needed.  The second table below
// runs the NSC source `map (while v > 0 do v - 1)` through compile_nsc
// under each compiled schedule on the same workload, so the
// hand-assembled bound can be compared against the compiled one (the
// compiled rows carry the catalog's constant factors plus the exit-time
// order-restoring replay, which the order-oblivious hand programs skip).
#include <cstdio>

#include "straggler.hpp"  // the shared Lemma 7.2 adversary (bench/)

#include "bvram/machine.hpp"
#include "nsc/build.hpp"
#include "nsc/typecheck.hpp"
#include "object/value.hpp"
#include "sa/compile.hpp"
#include "support/checked.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace {

using namespace nsc;
using namespace nsc::bvram;

/// naive: loop while any positive; V0 -= 1 (monus) over the whole vector.
Program make_naive() {
  Assembler a;
  auto v = a.reg();
  auto ones = a.reg();
  auto nz = a.reg();
  auto lenr = a.reg();
  auto one = a.reg();
  a.load_const(one, 1);
  a.length(lenr, v);
  a.bm_route(ones, v, lenr, one);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  a.select(nz, v);
  a.jump_if_empty(nz, done);
  a.arith(v, lang::ArithOp::Monus, v, ones);
  a.jump(top);
  a.bind(done);
  a.halt();
  return a.finish(1, 1);
}

/// shared helper: emit "pack v by bits" (keep bits=1 slots).
std::uint32_t emit_pack(Assembler& a, std::uint32_t v, std::uint32_t bits) {
  auto bound = a.reg();
  a.select(bound, bits);
  auto out = a.reg();
  a.bm_route(out, bound, bits, v);
  return out;
}

/// eager: active set packs down each round; finished append to V1 at once.
Program make_eager() {
  Assembler a;
  auto v = a.reg();     // active
  auto acc = a.reg();   // V1: all finished so far
  auto one = a.reg();
  a.load_const(one, 1);
  a.load_empty(acc);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  a.jump_if_empty(v, done);
  // step all active
  auto lenr = a.reg();
  a.length(lenr, v);
  auto ones = a.reg();
  a.bm_route(ones, v, lenr, one);
  a.arith(v, lang::ArithOp::Monus, v, ones);
  // finished = zeros; survivors = nonzero
  auto surv_bits = a.reg();
  {
    // bits = 1 - (1 - v) under monus: 1 if v > 0
    auto t1 = a.reg();
    a.arith(t1, lang::ArithOp::Monus, ones, v);
    a.arith(surv_bits, lang::ArithOp::Monus, ones, t1);
  }
  auto fin_bits = a.reg();
  a.arith(fin_bits, lang::ArithOp::Monus, ones, surv_bits);
  auto finished = emit_pack(a, v, fin_bits);
  auto skip = a.fresh_label();
  a.jump_if_empty(finished, skip);
  a.append(acc, acc, finished);  // touches the whole accumulator
  a.bind(skip);
  auto packed = emit_pack(a, v, surv_bits);
  a.move(v, packed);
  a.jump(top);
  a.bind(done);
  a.halt();
  return a.finish(1, 2);
}

//// staged: like eager, but finished go to V1; V1 flushes into V2 only when
/// the total extracted count crosses the next threshold ceil(n^(k*eps)).
Program make_staged(std::uint64_t n, Rational eps) {
  Assembler a;
  auto v = a.reg();
  auto v1 = a.reg();
  auto v2 = a.reg();
  auto cnt = a.reg();   // [extracted so far]
  auto thr = a.reg();   // [next flush threshold]
  auto one = a.reg();
  a.load_const(one, 1);
  a.load_empty(v1);
  a.load_empty(v2);
  a.load_const(cnt, 0);
  a.load_const(thr, pow_eps(n, eps));
  const std::uint64_t step_factor = pow_eps(n, eps);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  a.jump_if_empty(v, done);
  auto lenr = a.reg();
  a.length(lenr, v);
  auto ones = a.reg();
  a.bm_route(ones, v, lenr, one);
  a.arith(v, lang::ArithOp::Monus, v, ones);
  auto surv_bits = a.reg();
  {
    auto t1 = a.reg();
    a.arith(t1, lang::ArithOp::Monus, ones, v);
    a.arith(surv_bits, lang::ArithOp::Monus, ones, t1);
  }
  auto fin_bits = a.reg();
  a.arith(fin_bits, lang::ArithOp::Monus, ones, surv_bits);
  auto finished = emit_pack(a, v, fin_bits);
  auto nfin = a.reg();
  a.length(nfin, finished);
  a.arith(cnt, lang::ArithOp::Add, cnt, nfin);
  // only touch V1 when something was extracted
  auto skip_app = a.fresh_label();
  a.jump_if_empty(finished, skip_app);
  a.append(v1, v1, finished);
  a.bind(skip_app);
  // flush V1 -> V2 when cnt >= thr
  auto below = a.reg();
  a.arith(below, lang::ArithOp::Monus, thr, cnt);
  auto below_sel = a.reg();
  a.select(below_sel, below);
  auto no_flush = a.fresh_label();
  auto flushed = a.fresh_label();
  a.jump_if_empty(below_sel, flushed);  // below > 0: skip flush
  a.jump(no_flush);
  a.bind(flushed);
  a.append(v2, v2, v1);
  a.load_empty(v1);
  {
    auto mul = a.reg();
    a.load_const(mul, step_factor);
    a.arith(thr, lang::ArithOp::Mul, thr, mul);
  }
  a.bind(no_flush);
  auto packed = emit_pack(a, v, surv_bits);
  a.move(v, packed);
  a.jump(top);
  a.bind(done);
  a.append(v2, v2, v1);  // final drain
  a.halt();
  return a.finish(1, 3);
}

/// The straggler workload as NSC source: map (while v > 0 do v - 1).
lang::FuncRef nsc_decrement() {
  namespace L = nsc::lang;
  const TypeRef N = Type::nat();
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(1)); });
  return L::lam(Type::seq(N), [&](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N,
                                    [&](L::TermRef v) {
                                      return L::apply(L::while_f(pred, step),
                                                      v);
                                    })),
                    x);
  });
}

}  // namespace

int main() {
  std::printf(
      "E4: Lemma 7.2 -- SEQ(while) buffer scheduling on the BVRAM\n"
      "workload: a 1-round bulk plus sqrt(n) stragglers on distinct rounds\n"
      "(the accumulator-touching adversary).  W_ideal = sum_i t_i = O(n).\n\n");
  Table t({"n", "W_ideal", "naive/ideal", "eager/ideal", "staged e=1/2",
           "staged e=1/4"});
  for (std::uint64_t n : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
    // n - m elements finish in round 1; m = sqrt(n) stragglers finish at
    // distinct rounds 2..m+1.  Base work is O(n) but an eagerly-touched
    // accumulator of ~n elements is re-appended on each of the m
    // extraction rounds: Theta(n^1.5) overhead, the Lemma 7.2 bad case.
    const auto counts = nsc::bench::straggler_counts(n);
    const std::uint64_t ideal = nsc::bench::straggler_ideal(counts);
    auto run_w = [&](const Program& p) {
      return run(p, {counts}).cost.work;
    };
    const double naive = static_cast<double>(run_w(make_naive())) / ideal;
    const double eager = static_cast<double>(run_w(make_eager())) / ideal;
    const double st2 =
        static_cast<double>(run_w(make_staged(n, {1, 2}))) / ideal;
    const double st4 =
        static_cast<double>(run_w(make_staged(n, {1, 4}))) / ideal;
    t.row({Table::num(n), Table::num(ideal), Table::fixed(naive, 2),
           Table::fixed(eager, 2), Table::fixed(st2, 2),
           Table::fixed(st4, 2)});
  }
  t.print();
  std::printf(
      "\nreading: the eager accumulator is re-touched every extraction\n"
      "round (ratio grows ~linearly in n/ideal terms); the staged schedule\n"
      "keeps the overhead bounded by ~n^eps as Lemma 7.2 requires.\n"
      "Register counts: naive=%zu eager=%zu staged=%zu (eps-independent).\n",
      make_naive().num_regs, make_eager().num_regs,
      make_staged(1024, {1, 2}).num_regs);

  std::printf(
      "\ncompiled from NSC (map (while v > 0 do v - 1), compile_nsc at O2\n"
      "under opt::WhileSchedule), same workload -- the compiler emits the\n"
      "naive and staged schedules, plus the exit-time order-restoring\n"
      "replay:\n\n");
  auto f = nsc_decrement();
  auto [dom, cod] = lang::check_func(f);
  auto pn = sa::compile_nsc(f, opt::OptLevel::O2, opt::WhileSchedule::naive());
  auto ps2 =
      sa::compile_nsc(f, opt::OptLevel::O2, opt::WhileSchedule::staged({1, 2}));
  auto ps4 =
      sa::compile_nsc(f, opt::OptLevel::O2, opt::WhileSchedule::staged({1, 4}));
  Table ct({"n", "W_ideal", "naive/ideal", "staged e=1/2", "staged e=1/4"});
  for (std::uint64_t n : {64ull, 256ull, 1024ull, 4096ull}) {
    const auto counts = nsc::bench::straggler_counts(n);
    const std::uint64_t ideal = nsc::bench::straggler_ideal(counts);
    auto arg = Value::nat_seq(counts);
    auto w_of = [&](const Program& p) {
      return sa::run_compiled(p, dom, cod, arg).cost.work;
    };
    ct.row({Table::num(n), Table::num(ideal),
            Table::fixed(static_cast<double>(w_of(pn)) / ideal, 1),
            Table::fixed(static_cast<double>(w_of(ps2)) / ideal, 1),
            Table::fixed(static_cast<double>(w_of(ps4)) / ideal, 1)});
  }
  ct.print();
  std::printf(
      "\nreading: the compiled naive ratio grows with n exactly like the\n"
      "hand-assembled one (catalog constants aside); the compiled staged\n"
      "schedule stays bounded and its register file is identical across\n"
      "eps values: staged(1/2)=%zu staged(1/4)=%zu registers.\n",
      ps2.num_regs, ps4.num_regs);
  return 0;
}
