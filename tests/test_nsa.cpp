// Tests for NSA (appendix C): combinator evaluation, the NSC -> NSA
// variable-elimination translation, and Proposition C.1 (same values, same
// T/W up to constants) via differential testing on a corpus of programs.
#include <gtest/gtest.h>

#include "nsa/ast.hpp"
#include "nsa/eval.hpp"
#include "nsa/from_nsc.hpp"
#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/prelude.hpp"
#include "object/random.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace nsc::nsa {
namespace {

namespace L = nsc::lang;
using nsc::SplitMix64;
using nsc::Type;
using nsc::Value;

const TypeRef N = Type::nat();

TEST(NsaEval, Combinators) {
  auto x = Value::pair(Value::nat(3), Value::nat(4));
  EXPECT_EQ(eval(pi1(N, N), x).value->as_nat(), 3u);
  EXPECT_EQ(eval(pi2(N, N), x).value->as_nat(), 4u);
  EXPECT_EQ(eval(arith(L::ArithOp::Add), x).value->as_nat(), 7u);
  EXPECT_TRUE(eval(eqf(), Value::pair(Value::nat(5), Value::nat(5)))
                  .value->as_bool());
  EXPECT_EQ(eval(compose(arith(L::ArithOp::Mul), pairf(pi2(N, N), pi1(N, N))),
                 x)
                .value->as_nat(),
            12u);
}

TEST(NsaEval, SumsAndDist) {
  auto inl = Value::in1(Value::nat(7));
  auto f = sum_case(arith(L::ArithOp::Add),  // on N x N
                    pi1(N, N));
  auto lhs = Value::in1(Value::pair(Value::nat(1), Value::nat(2)));
  auto rhs = Value::in2(Value::pair(Value::nat(9), Value::nat(5)));
  EXPECT_EQ(eval(f, lhs).value->as_nat(), 3u);
  EXPECT_EQ(eval(f, rhs).value->as_nat(), 9u);

  auto d = dist(N, N, N);
  auto r = eval(d, Value::pair(inl, Value::nat(42))).value;
  ASSERT_TRUE(r->is(ValueKind::In1));
  EXPECT_EQ(r->injected()->second()->as_nat(), 42u);
}

TEST(NsaEval, Sequences) {
  auto xs = Value::nat_seq({5, 6, 7});
  EXPECT_EQ(eval(lengthf(N), xs).value->as_nat(), 3u);
  EXPECT_EQ(eval(enumeratef(N), xs).value->as_nat_vector(),
            (std::vector<std::uint64_t>{0, 1, 2}));
  auto app = eval(appendf(N), Value::pair(xs, xs)).value;
  EXPECT_EQ(app->length(), 6u);
  auto p2r = eval(p2f(N, N), Value::pair(Value::nat(1), xs)).value;
  ASSERT_EQ(p2r->length(), 3u);
  EXPECT_EQ(p2r->elems()[2]->first()->as_nat(), 1u);
  EXPECT_THROW(eval(getf(N), xs), EvalError);
  EXPECT_EQ(eval(getf(N), Value::seq({Value::nat(9)})).value->as_nat(), 9u);
}

TEST(NsaEval, MapIsParallel) {
  auto body = compose(arith(L::ArithOp::Add),
                      pairf(id(N), compose(const_nat(1), bang(N))));
  auto r = eval(mapf(body), Value::nat_seq({1, 2, 3}));
  EXPECT_EQ(r.value->as_nat_vector(), (std::vector<std::uint64_t>{2, 3, 4}));
}

TEST(NsaEval, While) {
  // while(x < 100, x * 2) from 3 -> 192
  auto lt100 = compose(
      eqf(), pairf(compose(arith(L::ArithOp::Monus),
                           pairf(id(N), compose(const_nat(99), bang(N)))),
                   compose(const_nat(0), bang(N))));
  auto dbl = compose(arith(L::ArithOp::Mul),
                     pairf(id(N), compose(const_nat(2), bang(N))));
  auto r = eval(whilef(lt100, dbl), Value::nat(3));
  EXPECT_EQ(r.value->as_nat(), 192u);
}

TEST(NsaEval, TypeErrorsAtConstruction) {
  EXPECT_THROW(compose(pi1(N, N), id(N)), TypeError);
  EXPECT_THROW(sum_case(id(N), bang(N)), TypeError);
  EXPECT_THROW(whilef(id(N), id(N)), TypeError);
}

// ---------------------------------------------------------------------------
// NSC -> NSA translation (Proposition C.1)
// ---------------------------------------------------------------------------

/// Differentially check a closed NSC function against its NSA translation.
void check_translation(const L::FuncRef& f, const std::vector<ValueRef>& args,
                       double cost_slack = 20.0) {
  NsaRef g = from_closed_func(f);
  for (const auto& arg : args) {
    auto want = L::apply_fn(f, arg);
    auto got = eval(g, arg);
    EXPECT_TRUE(Value::equal(want.value, got.value))
        << "arg=" << arg->show() << "\nwant=" << want.value->show()
        << "\ngot=" << got.value->show();
    // Proposition C.1: same T and W up to constants.
    EXPECT_LE(got.cost.time, want.cost.time * cost_slack + 200);
    EXPECT_LE(got.cost.work, want.cost.work * cost_slack + 200);
  }
}

TEST(FromNsc, ClosedArithmetic) {
  auto f = L::lam(N, [](L::TermRef x) {
    return L::add(L::mul(x, x), L::nat(1));
  });
  check_translation(f, {Value::nat(0), Value::nat(5), Value::nat(9)});
}

TEST(FromNsc, PairsCaseAndBooleans) {
  auto f = L::lam(Type::prod(N, N), [](L::TermRef z) {
    return L::ite(L::leq(L::proj1(z), L::proj2(z)), L::proj2(z),
                  L::proj1(z));
  });
  check_translation(f, {Value::pair(Value::nat(2), Value::nat(7)),
                        Value::pair(Value::nat(7), Value::nat(2)),
                        Value::pair(Value::nat(4), Value::nat(4))});
}

TEST(FromNsc, LetAndShadowing) {
  auto f = L::lam(N, [](L::TermRef x) {
    return L::let_in(N, L::add(x, L::nat(1)), [&](L::TermRef y) {
      return L::let_in(N, L::mul(y, y),
                       [&](L::TermRef z) { return L::add(z, x); });
    });
  });
  check_translation(f, {Value::nat(0), Value::nat(3)});
}

TEST(FromNsc, MapWithFreeVariables) {
  // \x:(N x [N]). map(\v. v + pi1 x)(pi2 x): context broadcast via p2.
  auto f = L::lam(Type::prod(N, Type::seq(N)), [](L::TermRef x) {
    auto body =
        L::lam(N, [&](L::TermRef v) { return L::add(v, L::proj1(x)); });
    return L::apply(L::map_f(body), L::proj2(x));
  });
  check_translation(
      f, {Value::pair(Value::nat(10), Value::nat_seq({1, 2, 3})),
          Value::pair(Value::nat(0), Value::nat_seq({})),
          Value::pair(Value::nat(5), Value::nat_seq({5}))});
}

TEST(FromNsc, NestedMap) {
  // map(map(+1)) over [[N]].
  auto inc = L::lam(N, [](L::TermRef v) { return L::add(v, L::nat(1)); });
  auto f = L::lam(Type::seq(Type::seq(N)), [&](L::TermRef x) {
    return L::apply(L::map_f(L::map_f(inc)), x);
  });
  auto nested = Value::seq({Value::nat_seq({1, 2}), Value::nat_seq({}),
                            Value::nat_seq({3})});
  check_translation(f, {nested});
}

TEST(FromNsc, WhileWithContext) {
  // \x:(N x N). while(\s. s < pi2 x, \s. s + pi1 x)(0):
  // counts up by pi1 until reaching pi2 (both free in the loop).
  auto f = L::lam(Type::prod(N, N), [](L::TermRef x) {
    auto pred =
        L::lam(N, [&](L::TermRef s) { return L::lt(s, L::proj2(x)); });
    auto step =
        L::lam(N, [&](L::TermRef s) { return L::add(s, L::proj1(x)); });
    return L::apply(L::while_f(pred, step), L::nat(0));
  });
  check_translation(f, {Value::pair(Value::nat(3), Value::nat(10)),
                        Value::pair(Value::nat(1), Value::nat(0))});
}

TEST(FromNsc, SequencePrimitives) {
  auto f = L::lam(Type::seq(N), [](L::TermRef x) {
    return L::append(L::flatten(L::split(x, L::singleton(L::length(x)))),
                     L::enumerate(x));
  });
  check_translation(f, {Value::nat_seq({4, 5, 6}), Value::nat_seq({})});
}

TEST(FromNsc, PreludeFunctionsTranslate) {
  namespace P = L::prelude;
  check_translation(P::first(N), {Value::nat_seq({7, 8, 9})});
  check_translation(P::tail(N), {Value::nat_seq({7, 8, 9}),
                                 Value::nat_seq({})});
  check_translation(
      P::index(N),
      {Value::pair(Value::nat_seq({10, 11, 12, 13}), Value::nat_seq({1, 3}))});
  check_translation(
      P::direct_merge(),
      {Value::pair(Value::nat_seq({1, 3, 5}), Value::nat_seq({2, 4}))});
  check_translation(P::sum_nats(), {Value::nat_seq({1, 2, 3, 4, 5})});
}

TEST(FromNsc, RandomizedDifferential) {
  // Random inputs through a filter-even + double pipeline.
  namespace P = L::prelude;
  auto even =
      L::lam(N, [](L::TermRef v) { return L::eq(L::mod_t(v, L::nat(2)), L::nat(0)); });
  auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
  auto f = L::lam(Type::seq(N), [&](L::TermRef x) {
    return L::apply(L::map_f(dbl), L::apply(P::filter(even, N), x));
  });
  NsaRef g = from_closed_func(f);
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    auto arg = Value::nat_seq(rng.vec(rng.below(12), 100));
    auto want = L::apply_fn(f, arg);
    auto got = eval(g, arg);
    EXPECT_TRUE(Value::equal(want.value, got.value)) << arg->show();
  }
}

TEST(FromNsc, CostRatioStableAcrossSizes) {
  // Prop C.1's "same complexity": the NSA/NSC work ratio should not grow
  // with input size.
  namespace P = L::prelude;
  auto f = P::index(N);
  NsaRef g = from_closed_func(f);
  auto mk = [](std::size_t n) {
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = i;
    return Value::pair(Value::nat_seq(c),
                       Value::nat_seq({0, n / 3, n / 2, n - 1}));
  };
  auto nsc64 = L::apply_fn(f, mk(64)).cost;
  auto nsa64 = eval(g, mk(64)).cost;
  auto nsc1k = L::apply_fn(f, mk(1024)).cost;
  auto nsa1k = eval(g, mk(1024)).cost;
  const double r64 =
      static_cast<double>(nsa64.work) / static_cast<double>(nsc64.work);
  const double r1k =
      static_cast<double>(nsa1k.work) / static_cast<double>(nsc1k.work);
  EXPECT_LT(r1k, r64 * 2.0 + 1.0);
}

TEST(FromNsc, OpenTermsViaContext) {
  // Translate the open term x + y under context [x:N, y:N].
  Context ctx{{"x", N}, {"y", N}};
  auto m = L::add(L::var("x"), L::var("y"));
  NsaRef g = from_nsc(m, ctx);
  auto env_val = encode_context({Value::nat(30), Value::nat(12)});
  EXPECT_EQ(eval(g, env_val).value->as_nat(), 42u);
}

TEST(FromNsc, IllTypedTermsThrowTypeError) {
  // Variable elimination types each subterm by its own translation's
  // codomain: an ill-typed term fails in Type::left/elem or in a
  // combinator's domain check.  The nested rows put the ill-typed term
  // under a parent that reads its child's type.
  const auto n = [] { return L::nat(3); };
  const auto ns = [] { return L::singleton(L::nat(3)); };
  const auto pick = [](L::TermRef m) {
    return L::case_of(std::move(m), "a", L::var("a"), "b", L::nat(0));
  };
  const std::pair<const char*, L::TermRef> cases[] = {
      {"proj1(nat)", L::proj1(n())},
      {"length(nat)", L::length(n())},
      {"get(nat)", L::get(n())},
      {"enumerate(nat)", L::enumerate(n())},
      {"flatten(nat)", L::flatten(n())},
      {"flatten([nat])", L::flatten(ns())},
      {"append(nat, [nat])", L::append(n(), ns())},
      {"append([nat], nat)", L::append(ns(), n())},
      {"zip(nat, [nat])", L::zip(n(), ns())},
      {"zip([nat], nat)", L::zip(ns(), n())},
      {"split(nat, [nat])", L::split(n(), ns())},
      {"split([nat], nat)", L::split(ns(), n())},
      {"case nat", pick(n())},
      {"[] + nat", L::add(L::empty(N), n())},
      {"inj1 + nat", L::add(n(), L::inj1(n(), N))},
      {"[nat] * nat", L::mul(ns(), n())},
      {"length([[nat] + nat])", L::length(L::singleton(L::add(ns(), n())))},
      {"proj1((inj1 + nat, nat))",
       L::proj1(L::pair(L::add(L::inj1(n(), N), n()), n()))},
      {"case [] + nat", pick(L::inj1(L::add(L::empty(N), n()), N))},
      {"unbound", L::var("nowhere")},
      {"length(unbound)", L::length(L::var("nowhere"))},
  };
  for (const auto& [what, m] : cases) {
    SCOPED_TRACE(what);
    EXPECT_THROW(from_nsc(m), TypeError);
  }
}

}  // namespace
}  // namespace nsc::nsa
