// End-to-end tests for the Theorem 7.1 pipeline:
// NSC --(variable elimination)--> NSA --(flattening)--> BVRAM.
//
// Differential testing: every program in the corpus is evaluated by the
// NSC natural semantics and by the compiled BVRAM program; values must
// agree exactly.  Cost-shape checks verify T' = O(T) on grown inputs.
#include <gtest/gtest.h>

#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/maprec.hpp"
#include "nsc/typecheck.hpp"
#include "nsc/prelude.hpp"
#include "object/random.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/prng.hpp"

namespace nsc::sa {
namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using nsc::SplitMix64;
using nsc::Type;
using nsc::Value;

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());

// ---------------------------------------------------------------------------
// layout round-trips
// ---------------------------------------------------------------------------

TEST(Layout, RoundTripScalars) {
  SplitMix64 rng(1);
  for (const auto& t :
       {N, Type::unit(), Type::boolean(), Type::prod(N, Type::boolean()),
        Type::sum(N, Type::prod(N, N))}) {
    for (int i = 0; i < 20; ++i) {
      auto v = random_value(*t, rng);
      auto regs = encode_value(v, t);
      EXPECT_EQ(regs.size(), rep_width(*t));
      EXPECT_TRUE(Value::equal(v, decode_value(t, regs))) << v->show();
    }
  }
}

TEST(Layout, RoundTripSequences) {
  SplitMix64 rng(2);
  for (const auto& t :
       {NSeq, Type::seq(Type::seq(N)), Type::seq(Type::sum(N, Type::unit())),
        Type::seq(Type::prod(N, Type::seq(N))),
        Type::seq(Type::seq(Type::sum(Type::unit(), Type::seq(N))))}) {
    for (int i = 0; i < 20; ++i) {
      auto v = random_value(*t, rng);
      auto regs = encode_value(v, t);
      EXPECT_TRUE(Value::equal(v, decode_value(t, regs))) << v->show();
    }
  }
}

TEST(Layout, SegmentDescriptorsAreExplicit) {
  // [[1,2],[],[3]] lays out as lengths [2,0,1] ++ data [1,2,3].
  auto v = Value::seq({Value::nat_seq({1, 2}), Value::nat_seq({}),
                       Value::nat_seq({3})});
  auto regs = encode_value(v, Type::seq(NSeq));
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0], (std::vector<std::uint64_t>{2, 0, 1}));
  EXPECT_EQ(regs[1], (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Layout, SumFlagsArePackedSides) {
  auto v = Value::seq({Value::in1(Value::nat(5)), Value::in2(Value::unit()),
                       Value::in1(Value::nat(7))});
  auto regs = encode_value(v, Type::seq(Type::sum(N, Type::unit())));
  ASSERT_EQ(regs.size(), 3u);
  EXPECT_EQ(regs[0], (std::vector<std::uint64_t>{1, 0, 1}));  // flags
  EXPECT_EQ(regs[1], (std::vector<std::uint64_t>{5, 7}));     // packed in1
  EXPECT_EQ(regs[2], (std::vector<std::uint64_t>{0}));        // unit zeros
}

TEST(Layout, NestedRegistersArePinned) {
  using V = std::vector<std::uint64_t>;
  const TypeRef NN = Type::seq(NSeq);
  // [[N]]: [[4,5],[],[6]] -> lengths ++ data.
  EXPECT_EQ(encode_value(Value::seq({Value::nat_seq({4, 5}), Value::nat_seq({}),
                                     Value::nat_seq({6})}),
                         NN),
            (std::vector<V>{{2, 0, 1}, {4, 5, 6}}));
  // [(N x [N])]: the firsts, then the seconds' lengths and data.
  EXPECT_EQ(encode_value(
                Value::seq({Value::pair(Value::nat(1), Value::nat_seq({7, 8})),
                            Value::pair(Value::nat(2), Value::nat_seq({})),
                            Value::pair(Value::nat(3), Value::nat_seq({9}))}),
                Type::seq(Type::prod(N, NSeq))),
            (std::vector<V>{{1, 2, 3}, {2, 0, 1}, {7, 8, 9}}));
  // [N + [N]]: flags, the packed in1 values, then the packed in2
  // sequences' lengths and data.
  EXPECT_EQ(encode_value(Value::seq({Value::in2(Value::nat_seq({3, 4})),
                                     Value::in1(Value::nat(5)),
                                     Value::in2(Value::nat_seq({})),
                                     Value::in1(Value::nat(6)),
                                     Value::in2(Value::nat_seq({7}))}),
                         Type::seq(Type::sum(N, NSeq))),
            (std::vector<V>{{0, 1, 0, 1, 0}, {5, 6}, {2, 0, 1}, {3, 4, 7}}));
}

// ---------------------------------------------------------------------------
// differential pipeline checks
// ---------------------------------------------------------------------------

void check_compiled(const L::FuncRef& f, const std::vector<ValueRef>& args) {
  auto [dom, cod] = L::check_func(f);
  auto program = compile_nsc(f);
  for (const auto& arg : args) {
    auto want = L::apply_fn(f, arg);
    auto got = run_compiled(program, dom, cod, arg);
    EXPECT_TRUE(Value::equal(want.value, got.value))
        << "arg=" << arg->show() << "\nwant=" << want.value->show()
        << "\ngot=" << got.value->show();
  }
}

TEST(Compile, ScalarArithmetic) {
  auto f = L::lam(N, [](L::TermRef x) {
    return L::add(L::mul(x, x), L::monus_t(L::nat(10), x));
  });
  check_compiled(f, {Value::nat(0), Value::nat(3), Value::nat(100)});
}

TEST(Compile, PairsAndProjections) {
  auto f = L::lam(Type::prod(N, N), [](L::TermRef z) {
    return L::pair(L::proj2(z), L::proj1(z));
  });
  check_compiled(f, {Value::pair(Value::nat(1), Value::nat(2))});
}

TEST(Compile, CaseAndBooleans) {
  auto f = L::lam(Type::prod(N, N), [](L::TermRef z) {
    return L::ite(L::leq(L::proj1(z), L::proj2(z)), L::proj2(z), L::proj1(z));
  });
  check_compiled(f, {Value::pair(Value::nat(2), Value::nat(9)),
                     Value::pair(Value::nat(9), Value::nat(2)),
                     Value::pair(Value::nat(4), Value::nat(4))});
}

TEST(Compile, SumInjections) {
  auto f = L::lam(N, [](L::TermRef x) {
    return L::ite(L::lt(x, L::nat(5)), L::inj1(x, NSeq),
                  L::inj2(L::singleton(x), N));
  });
  check_compiled(f, {Value::nat(1), Value::nat(9)});
}

TEST(Compile, MapScalarBody) {
  auto inc = L::lam(N, [](L::TermRef v) { return L::add(v, L::nat(1)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(inc), x);
  });
  check_compiled(f, {Value::nat_seq({}), Value::nat_seq({5}),
                     Value::nat_seq({1, 2, 3, 4})});
}

TEST(Compile, MapWithBroadcastContext) {
  auto f = L::lam(Type::prod(N, NSeq), [](L::TermRef z) {
    auto body =
        L::lam(N, [&](L::TermRef v) { return L::add(v, L::proj1(z)); });
    return L::apply(L::map_f(body), L::proj2(z));
  });
  check_compiled(f, {Value::pair(Value::nat(10), Value::nat_seq({1, 2, 3})),
                     Value::pair(Value::nat(5), Value::nat_seq({}))});
}

TEST(Compile, NestedMaps) {
  auto inc = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(3)); });
  auto f = L::lam(Type::seq(NSeq), [&](L::TermRef x) {
    return L::apply(L::map_f(L::map_f(inc)), x);
  });
  auto nested = Value::seq({Value::nat_seq({1, 2}), Value::nat_seq({}),
                            Value::nat_seq({7})});
  check_compiled(f, {nested, Value::empty_seq()});
}

TEST(Compile, SequencePrimitives) {
  auto f = L::lam(NSeq, [](L::TermRef x) {
    return L::append(L::enumerate(x),
                     L::flatten(L::split(x, L::singleton(L::length(x)))));
  });
  check_compiled(f, {Value::nat_seq({4, 5, 6}), Value::nat_seq({})});
}

TEST(Compile, ZipAndArith) {
  auto addp = L::lam(Type::prod(N, N), [](L::TermRef q) {
    return L::add(L::proj1(q), L::proj2(q));
  });
  auto f = L::lam(Type::prod(NSeq, NSeq), [&](L::TermRef z) {
    return L::apply(L::map_f(addp), L::zip(L::proj1(z), L::proj2(z)));
  });
  check_compiled(f, {Value::pair(Value::nat_seq({1, 2}), Value::nat_seq({10, 20}))});
}

TEST(Compile, FilterViaFlattenMapCase) {
  auto even = L::lam(N, [](L::TermRef v) {
    return L::eq(L::mod_t(v, L::nat(2)), L::nat(0));
  });
  auto f = P::filter(even, N);
  check_compiled(f, {Value::nat_seq({5, 2, 7, 4, 6, 1}), Value::nat_seq({}),
                     Value::nat_seq({1, 3, 5})});
}

TEST(Compile, PreludeFirstTailLast) {
  check_compiled(P::tail(N), {Value::nat_seq({7, 8, 9}), Value::nat_seq({})});
  check_compiled(P::first(N), {Value::nat_seq({7, 8, 9})});
  check_compiled(P::last(N), {Value::nat_seq({7, 8, 9})});
  check_compiled(P::remove_last(N), {Value::nat_seq({7, 8, 9})});
}

TEST(Compile, PreludeIndex) {
  check_compiled(
      P::index(N),
      {Value::pair(Value::nat_seq({10, 11, 12, 13}), Value::nat_seq({1, 3})),
       Value::pair(Value::nat_seq({10, 11, 12}), Value::nat_seq({}))});
}

TEST(Compile, PreludeBmRoute) {
  auto arg = Value::pair(
      Value::pair(Value::nat_seq({0, 0, 0, 0, 0}), Value::nat_seq({3, 0, 2})),
      Value::nat_seq({100, 101, 102}));
  check_compiled(P::bm_route(N, N), {arg});
}

TEST(Compile, PreludeSigma) {
  auto x = Value::seq({Value::in1(Value::nat(1)), Value::in2(Value::nat(2)),
                       Value::in1(Value::nat(5))});
  check_compiled(P::sigma1(N, N), {x});
  check_compiled(P::sigma2(N, N), {x});
}

TEST(Compile, WhileLoop) {
  auto pred = L::lam(N, [](L::TermRef x) { return L::lt(x, L::nat(100)); });
  auto step = L::lam(N, [](L::TermRef x) { return L::mul(x, L::nat(2)); });
  auto f = L::lam(N, [&](L::TermRef x) {
    return L::apply(L::while_f(pred, step), x);
  });
  check_compiled(f, {Value::nat(3), Value::nat(100), Value::nat(1)});
}

TEST(Compile, SumNatsReduction) {
  check_compiled(P::sum_nats(),
                 {Value::nat_seq({}), Value::nat_seq({5}),
                  Value::nat_seq({1, 2, 3, 4, 5}),
                  Value::nat_seq({7, 7, 7, 7, 7, 7, 7, 7})});
}

TEST(Compile, MaxNats) {
  check_compiled(P::max_nats(), {Value::nat_seq({3, 9, 2, 9, 1})});
}

TEST(Compile, DirectMerge) {
  check_compiled(
      P::direct_merge(),
      {Value::pair(Value::nat_seq({2, 4, 6}), Value::nat_seq({1, 3, 5, 7})),
       Value::pair(Value::nat_seq({}), Value::nat_seq({1, 2})),
       Value::pair(Value::nat_seq({1, 2}), Value::nat_seq({}))});
}

TEST(Compile, MappedWhile) {
  // map(while(v > 0, v - 3)) -- data-dependent per-element iteration
  // counts: exercises the lifted active-set while.
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(3)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N, [&](L::TermRef v) {
                      return L::apply(L::while_f(pred, step), v);
                    })),
                    x);
  });
  check_compiled(f, {Value::nat_seq({10, 0, 5, 27, 1}), Value::nat_seq({})});
}

TEST(Compile, RandomizedPipeline) {
  auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
  auto small = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(50)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(dbl), L::apply(P::filter(small, N), x));
  });
  auto [dom, cod] = L::check_func(f);
  auto program = compile_nsc(f);
  SplitMix64 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    auto arg = Value::nat_seq(rng.vec(rng.below(16), 100));
    auto want = L::apply_fn(f, arg);
    auto got = run_compiled(program, dom, cod, arg);
    EXPECT_TRUE(Value::equal(want.value, got.value)) << arg->show();
  }
}

TEST(Compile, Thm42TranslatedProgramCompiles) {
  // The full stack: map-recursion -> NSC (Thm 4.2) -> BVRAM (Thm 7.1).
  auto p = L::lam(Type::prod(N, N), [](L::TermRef x) {
    return L::leq(L::monus_t(L::proj2(x), L::proj1(x)), L::nat(1));
  });
  auto s = L::lam(Type::prod(N, N), [](L::TermRef x) {
    return L::ite(L::eq(L::monus_t(L::proj2(x), L::proj1(x)), L::nat(0)),
                  L::nat(0), L::proj1(x));
  });
  auto d1 = L::lam(Type::prod(N, N), [](L::TermRef x) {
    return L::pair(L::proj1(x), L::div_t(L::add(L::proj1(x), L::proj2(x)),
                                         L::nat(2)));
  });
  auto d2 = L::lam(Type::prod(N, N), [](L::TermRef x) {
    return L::pair(L::div_t(L::add(L::proj1(x), L::proj2(x)), L::nat(2)),
                   L::proj2(x));
  });
  auto c2 = L::lam(Type::prod(N, N), [](L::TermRef q) {
    return L::add(L::proj1(q), L::proj2(q));
  });
  auto g = L::translate_maprec(
      L::schema_g(Type::prod(N, N), N, p, s, d1, d2, c2));
  check_compiled(g, {Value::pair(Value::nat(0), Value::nat(8)),
                     Value::pair(Value::nat(0), Value::nat(13))});
}

TEST(Compile, TimePreservedAcrossSizes) {
  // T' = O(T): the BVRAM/NSC time ratio stays bounded as the input grows.
  auto f = P::index(N);
  auto [dom, cod] = L::check_func(f);
  auto program = compile_nsc(f);
  auto mk = [](std::size_t n) {
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = i;
    return Value::pair(Value::nat_seq(c), Value::nat_seq({0, n / 2, n - 1}));
  };
  auto nsc64 = L::apply_fn(f, mk(64)).cost;
  auto bv64 = run_compiled(program, dom, cod, mk(64)).cost;
  auto nsc4k = L::apply_fn(f, mk(4096)).cost;
  auto bv4k = run_compiled(program, dom, cod, mk(4096)).cost;
  // Straight-line program: identical instruction count at any size.
  EXPECT_EQ(bv64.time, bv4k.time);
  (void)nsc64;
  (void)nsc4k;
  // Work scales linearly like NSC's.
  const double w_ratio64 =
      static_cast<double>(bv64.work) / static_cast<double>(nsc64.work);
  const double w_ratio4k =
      static_cast<double>(bv4k.work) / static_cast<double>(nsc4k.work);
  EXPECT_LT(w_ratio4k, w_ratio64 * 2.0 + 1.0);
}

TEST(Compile, RegisterCountIsStatic) {
  auto program = compile_nsc(P::index(N));
  EXPECT_GT(program.num_regs, 0u);
  // Same program text regardless of future inputs: the register count is a
  // property of the source (Theorem 7.1's bounded registers).
  auto program2 = compile_nsc(P::index(N));
  EXPECT_EQ(program.num_regs, program2.num_regs);
  EXPECT_EQ(program.code.size(), program2.code.size());
}

TEST(Compile, OmegaTraps) {
  auto f = L::lam(N, [](L::TermRef) { return L::omega(N); });
  auto program = compile_nsc(f);
  EXPECT_THROW(
      run_compiled(program, N, N, Value::nat(1)),
      MachineError);
}

TEST(Compile, ZipMismatchTraps) {
  auto f = L::lam(Type::prod(NSeq, NSeq), [](L::TermRef z) {
    return L::zip(L::proj1(z), L::proj2(z));
  });
  auto [dom, cod] = L::check_func(f);
  auto program = compile_nsc(f);
  EXPECT_THROW(run_compiled(program, dom, cod,
                            Value::pair(Value::nat_seq({1}),
                                        Value::nat_seq({1, 2}))),
               MachineError);
}

}  // namespace
}  // namespace nsc::sa
