// The lifted-while schedules (Lemma 7.2's while case, opt::WhileSchedule):
// differential tests that naive / staged(eps) emissions agree
// exactly -- values AND traps -- on random well-typed inputs at every opt
// level, that the staged register file is independent of eps, and that on
// the straggler adversary the staged schedule does strictly less work than
// the naive one while the naive ratio keeps growing.
#include <gtest/gtest.h>

#include "nsc/build.hpp"
#include "nsc/prelude.hpp"
#include "nsc/typecheck.hpp"
#include "object/random.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "support/checked.hpp"
#include "support/prng.hpp"

namespace nsc::opt {
namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using bvram::Program;
using nsc::SplitMix64;
using nsc::Type;
using nsc::Value;

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());
const TypeRef NN = Type::prod(N, N);

struct Outcome {
  bool trapped = false;
  ValueRef value;
  Cost cost;
};

Outcome run_one(const Program& p, const TypeRef& dom, const TypeRef& cod,
                const ValueRef& arg) {
  Outcome o;
  try {
    auto r = sa::run_compiled(p, dom, cod, arg);
    o.value = r.value;
    o.cost = r.cost;
  } catch (const Error&) {  // MachineError or EvalError: the program's Omega
    o.trapped = true;
  }
  return o;
}

/// Compile `f` under every schedule at O0/O2 and check on random inputs
/// that all variants agree with the naive-O0 reference: identical values
/// and identical trap behavior.  (W is not compared here -- on tiny random
/// inputs the staged bookkeeping can legitimately cost more than the few
/// slots naive re-touches; the straggler tests below assert the W claim
/// where it is meant to hold.)
void differential(const L::FuncRef& f, std::uint64_t seed, int trials,
                  const RandomValueConfig& cfg = {}) {
  auto [dom, cod] = L::check_func(f);
  std::vector<std::pair<std::string, Program>> ps;
  for (auto lvl : {OptLevel::O0, OptLevel::O2}) {
    const std::string at = "O" + std::to_string(static_cast<int>(lvl));
    ps.emplace_back("naive@" + at, sa::compile_nsc(f, lvl));
    ps.emplace_back("staged(1/2)@" + at,
                    sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 2})));
    ps.emplace_back("staged(1/4)@" + at,
                    sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 4})));
  }
  SplitMix64 rng(seed);
  for (int t = 0; t < trials; ++t) {
    auto arg = random_value(*dom, rng, cfg);
    auto ref = run_one(ps[0].second, dom, cod, arg);
    for (std::size_t i = 1; i < ps.size(); ++i) {
      auto got = run_one(ps[i].second, dom, cod, arg);
      ASSERT_EQ(ref.trapped, got.trapped)
          << ps[i].first << " disagrees on trap; arg=" << arg->show();
      if (ref.trapped) continue;
      ASSERT_TRUE(Value::equal(ref.value, got.value))
          << ps[i].first << " disagrees; arg=" << arg->show()
          << "\nwant=" << ref.value->show() << "\ngot=" << got.value->show();
    }
  }
}

/// map(while (v, acc): v > 0 -> (v-1, acc+2)) seeded with acc = v: per-
/// element iteration counts differ, and the 3v result is distinct per
/// element, so any order-restoration bug shows up in the values.
L::FuncRef mapped_counter() {
  auto pred =
      L::lam(NN, [](L::TermRef z) { return L::lt(L::nat(0), L::proj1(z)); });
  auto step = L::lam(NN, [](L::TermRef z) {
    return L::pair(L::monus_t(L::proj1(z), L::nat(1)),
                   L::add(L::proj2(z), L::nat(2)));
  });
  auto body = L::lam(N, [&](L::TermRef v) {
    return L::proj2(L::apply(L::while_f(pred, step), L::pair(v, v)));
  });
  return L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(body), x);
  });
}

/// The plain straggler shape: map(while v > 0 -> v - 1).
L::FuncRef mapped_decrement() {
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(1)); });
  return L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N,
                                    [&](L::TermRef v) {
                                      return L::apply(L::while_f(pred, step),
                                                      v);
                                    })),
                    x);
  });
}

// ---------------------------------------------------------------------------
// differential: values and traps identical across schedules and opt levels
// ---------------------------------------------------------------------------

TEST(ScheduleDifferential, MappedCounter) {
  differential(mapped_counter(), 41, 15);
}

TEST(ScheduleDifferential, NestedMapWhile) {
  auto pred =
      L::lam(NN, [](L::TermRef z) { return L::lt(L::nat(0), L::proj1(z)); });
  auto step = L::lam(NN, [](L::TermRef z) {
    return L::pair(L::monus_t(L::proj1(z), L::nat(1)),
                   L::add(L::proj2(z), L::nat(2)));
  });
  auto body = L::lam(N, [&](L::TermRef v) {
    return L::proj2(L::apply(L::while_f(pred, step), L::pair(v, v)));
  });
  differential(L::lam(Type::seq(NSeq),
                      [&](L::TermRef x) {
                        return L::apply(L::map_f(L::map_f(body)), x);
                      }),
               42, 12);
}

TEST(ScheduleDifferential, SequenceValuedState) {
  // Shrink each inner sequence to its last element: the while state is a
  // SEQREP with a lengths register, so pack/combine/replay run at depth 2.
  auto pred = L::lam(
      NSeq, [](L::TermRef xs) { return L::lt(L::nat(1), L::length(xs)); });
  auto step = P::tail(N);
  differential(L::lam(Type::seq(NSeq),
                      [&](L::TermRef x) {
                        return L::apply(
                            L::map_f(L::lam(NSeq,
                                            [&](L::TermRef xs) {
                                              return L::apply(
                                                  L::while_f(pred, step), xs);
                                            })),
                            x);
                      }),
               43, 12);
}

TEST(ScheduleDifferential, TrappingStep) {
  // v / (v - 3) traps once an element with v <= 3 is stepped; the round in
  // which that happens differs per element, so this locks down that the
  // buffered schedules trap on exactly the same inputs as naive.
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) {
    return L::div_t(v, L::monus_t(v, L::nat(3)));
  });
  differential(L::lam(NSeq,
                      [&](L::TermRef x) {
                        return L::apply(
                            L::map_f(L::lam(N,
                                            [&](L::TermRef v) {
                                              return L::apply(
                                                  L::while_f(pred, step), v);
                                            })),
                            x);
                      }),
               44, 25);
}

TEST(ScheduleDifferential, FilterThenWhile) {
  auto keep = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(40)); });
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(2)); });
  differential(L::lam(NSeq,
                      [&](L::TermRef x) {
                        return L::apply(
                            L::map_f(L::lam(N,
                                            [&](L::TermRef v) {
                                              return L::apply(
                                                  L::while_f(pred, step), v);
                                            })),
                            L::apply(P::filter(keep, N), x));
                      }),
               45, 15);
}

TEST(ScheduleDifferential, PreludeSumNats) {
  // The log-depth halving reduction drives its while over a sequence
  // state; population shrinks every round.
  differential(P::sum_nats(), 46, 8);
}

TEST(ScheduleDifferential, ScalarWhileUnaffected) {
  // A depth-0 while has no active set to schedule; all knobs must emit the
  // same (working) loop.
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(3), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(4)); });
  differential(L::lam(N,
                      [&](L::TermRef v) {
                        return L::apply(L::while_f(pred, step), v);
                      }),
               47, 15);
}

// ---------------------------------------------------------------------------
// explicit edge populations
// ---------------------------------------------------------------------------

TEST(ScheduleEdge, ExplicitPopulations) {
  auto f = mapped_counter();
  auto [dom, cod] = L::check_func(f);
  std::vector<std::vector<std::uint64_t>> cases = {
      {},                        // n = 0: loop body never runs
      {0},                       // finishes before the first step
      {4},                       // a single element, several rounds
      {0, 0, 0},                 // everything finishes in round one
      {3, 3, 3},                 // everything finishes together later
      {1, 2, 3, 4, 5, 6, 7, 8},  // one extraction every round
      {9, 1, 1, 1, 1, 1, 1, 1},  // single straggler
  };
  for (auto lvl : {OptLevel::O0, OptLevel::O2}) {
    auto pn = sa::compile_nsc(f, lvl);
    auto ps2 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 2}));
    // At eps = 1/8 and n <= 256 the flush thresholds are 2, 4, 8, ...,
    // so V1 flushes several times and the replay refills from V2 through
    // several chunks.
    auto ps8 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 8}));
    for (const auto& c : cases) {
      auto arg = Value::nat_seq(c);
      auto want = run_one(pn, dom, cod, arg);
      ASSERT_FALSE(want.trapped);
      for (const Program* p : {&ps2, &ps8}) {
        auto got = run_one(*p, dom, cod, arg);
        ASSERT_FALSE(got.trapped) << "n=" << c.size();
        EXPECT_TRUE(Value::equal(want.value, got.value))
            << "n=" << c.size() << " want=" << want.value->show()
            << " got=" << got.value->show();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// registers: fixed file, independent of eps (Theorem 7.1's clause)
// ---------------------------------------------------------------------------

TEST(ScheduleRegisters, StagedRegisterCountIsEpsIndependent) {
  auto f = mapped_counter();
  for (auto lvl : {OptLevel::O0, OptLevel::O2}) {
    auto r2 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 2}));
    auto r3 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 3}));
    auto r4 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 4}));
    auto r8 = sa::compile_nsc(f, lvl, WhileSchedule::staged({1, 8}));
    EXPECT_EQ(r2.num_regs, r3.num_regs);
    EXPECT_EQ(r2.num_regs, r4.num_regs);
    EXPECT_EQ(r2.num_regs, r8.num_regs);
    EXPECT_EQ(r2.code.size(), r4.code.size());  // same shape, new constants
  }
}

// ---------------------------------------------------------------------------
// work: the staged schedule wins on the straggler adversary
// ---------------------------------------------------------------------------

/// n - m elements finish in round one; m = sqrt(n) stragglers finish on
/// distinct later rounds.  W_ideal = sum t_i = O(n), but naive re-touches
/// all n slots on each of the ~sqrt(n) rounds.
ValueRef straggler_input(std::uint64_t n, std::uint64_t* ideal) {
  const std::uint64_t m = isqrt(n);
  std::vector<std::uint64_t> counts(n, 1);
  for (std::uint64_t j = 0; j < m; ++j) counts[n - m + j] = j + 2;
  if (ideal) {
    *ideal = 0;
    for (auto c : counts) *ideal += c;
  }
  return Value::nat_seq(counts);
}

TEST(ScheduleWork, StagedBeatsNaiveOnStragglers) {
  auto f = mapped_decrement();
  auto [dom, cod] = L::check_func(f);
  auto pn = sa::compile_nsc(f, OptLevel::O2);
  auto ps = sa::compile_nsc(f, OptLevel::O2, WhileSchedule::staged({1, 2}));
  double prev_gain = 0;
  for (std::uint64_t n : {256ull, 1024ull}) {
    std::uint64_t ideal = 0;
    auto arg = straggler_input(n, &ideal);
    auto rn = run_one(pn, dom, cod, arg);
    auto rs = run_one(ps, dom, cod, arg);
    ASSERT_FALSE(rn.trapped);
    ASSERT_FALSE(rs.trapped);
    EXPECT_TRUE(Value::equal(rn.value, rs.value));
    // Staged must do strictly less work, and by a widening margin.
    EXPECT_LT(rs.cost.work, rn.cost.work) << "n=" << n;
    const double gain = static_cast<double>(rn.cost.work) / rs.cost.work;
    EXPECT_GT(gain, prev_gain) << "n=" << n;
    prev_gain = gain;
  }
  EXPECT_GT(prev_gain, 2.0);  // measured 4.56x at n=1024 (W 4810871/1056034)
}

TEST(ScheduleWork, NaiveRatioGrowsStagedStaysBounded) {
  auto f = mapped_decrement();
  auto [dom, cod] = L::check_func(f);
  auto pn = sa::compile_nsc(f, OptLevel::O2);
  auto ps = sa::compile_nsc(f, OptLevel::O2, WhileSchedule::staged({1, 2}));
  std::vector<double> naive_ratio, staged_ratio;
  for (std::uint64_t n : {64ull, 256ull, 1024ull}) {
    std::uint64_t ideal = 0;
    auto arg = straggler_input(n, &ideal);
    naive_ratio.push_back(
        static_cast<double>(run_one(pn, dom, cod, arg).cost.work) / ideal);
    staged_ratio.push_back(
        static_cast<double>(run_one(ps, dom, cod, arg).cost.work) / ideal);
  }
  // Across a 16x population growth the naive W/W_ideal ratio must grow by
  // more than 2x (it tracks sqrt(n)) while the staged ratio stays within
  // 2x of its small-n value (the ~n^eps bound with catalog constants).
  EXPECT_GT(naive_ratio[2], 2.0 * naive_ratio[0]);
  EXPECT_LT(staged_ratio[2], 2.0 * staged_ratio[0]);
}

}  // namespace
}  // namespace nsc::opt
