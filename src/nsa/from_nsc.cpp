#include "nsa/from_nsc.hpp"

#include <set>

#include "nsc/freevars.hpp"
#include "support/error.hpp"

namespace nsc::nsa {

namespace {

using lang::FuncKind;
using lang::FuncRef;
using lang::TermKind;
using lang::TermRef;

/// Trim a context to the variables in `used`, returning the restricted
/// context and the restriction morphism <Gamma> -> <Gamma'>.  Inner
/// bindings shadow outer ones, so only the first (innermost) occurrence of
/// each name survives.
struct Trimmed {
  Context ctx;
  NsaRef restrict_fn;  // <Gamma> -> <Gamma'>
};

NsaRef project_var(const Context& ctx, std::size_t i);

Trimmed trim_context(const Context& ctx, const std::set<std::string>& used);

/// Projection chain extracting variable #i (0 = innermost) from <Gamma>.
NsaRef project_var(const Context& ctx, std::size_t i) {
  // <Gamma> = s0 x (s1 x (... x unit)); var i = pi1 . pi2^i.
  std::vector<TypeRef> tails(ctx.size() + 1);
  tails[ctx.size()] = Type::unit();
  for (std::size_t k = ctx.size(); k-- > 0;) {
    tails[k] = Type::prod(ctx[k].second, tails[k + 1]);
  }
  NsaRef acc = id(tails[0]);
  for (std::size_t k = 0; k < i; ++k) {
    acc = compose(pi2(ctx[k].second, tails[k + 1]), acc);
  }
  return compose(pi1(ctx[i].second, tails[i + 1]), acc);
}

Trimmed trim_context(const Context& ctx, const std::set<std::string>& used) {
  Trimmed out;
  std::set<std::string> seen;
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (used.count(ctx[i].first) && !seen.count(ctx[i].first)) {
      keep.push_back(i);
      seen.insert(ctx[i].first);
      out.ctx.push_back(ctx[i]);
    }
  }
  // <Gamma'> = v_{k0} x (v_{k1} x (... x unit)), built by nested pairing of
  // projections out of <Gamma>.
  const TypeRef gamma = context_type(ctx);
  NsaRef acc = bang(gamma);  // unit tail
  for (std::size_t k = keep.size(); k-- > 0;) {
    acc = pairf(project_var(ctx, keep[k]), acc);
  }
  out.restrict_fn = acc;
  return out;
}

}  // namespace

TypeRef context_type(const Context& ctx) {
  TypeRef t = Type::unit();
  for (std::size_t k = ctx.size(); k-- > 0;) {
    t = Type::prod(ctx[k].second, t);
  }
  return t;
}

ValueRef encode_context(const std::vector<ValueRef>& values) {
  ValueRef v = Value::unit();
  for (std::size_t k = values.size(); k-- > 0;) {
    v = Value::pair(values[k], v);
  }
  return v;
}

namespace {

// The recursive translation proper.  The public from_nsc/from_nsc_func
// wrappers stamp each produced combinator root with the surface location
// of the NSC node it translates (recursive calls below go through the
// wrappers, so every subterm's root is stamped too); the interior nodes of
// a single term's translation stay unstamped and inherit the enclosing
// site downstream.
NsaRef translate_term(const TermRef& m, const Context& ctx);
NsaRef translate_func(const FuncRef& f, const Context& ctx);

NsaRef translate_term(const TermRef& m, const Context& ctx) {
  const TypeRef gamma = context_type(ctx);
  // Every subterm's type is its translation's codomain, so a child is
  // translated before the combinator that consumes it is built; an
  // ill-typed child fails in Type::left/right/elem or in compose/pairf.
  auto sub = [&](const TermRef& t) { return from_nsc(t, ctx); };

  switch (m->kind()) {
    case TermKind::Var: {
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (ctx[i].first == m->var_name()) return project_var(ctx, i);
      }
      throw TypeError("from_nsc: unbound variable " + m->var_name());
    }
    case TermKind::Omega:
      return omega(gamma, m->annotation());
    case TermKind::NatConst:
      return compose(const_nat(m->nat_value()), bang(gamma));
    case TermKind::Arith:
      return compose(arith(m->op()),
                     pairf(sub(m->child0()), sub(m->child1())));
    case TermKind::Eq:
      return compose(eqf(), pairf(sub(m->child0()), sub(m->child1())));
    case TermKind::UnitVal:
      return bang(gamma);
    case TermKind::MkPair:
      return pairf(sub(m->child0()), sub(m->child1()));
    case TermKind::Proj1: {
      NsaRef x = sub(m->child0());
      const TypeRef& t = x->cod();
      return compose(pi1(t->left(), t->right()), x);
    }
    case TermKind::Proj2: {
      NsaRef x = sub(m->child0());
      const TypeRef& t = x->cod();
      return compose(pi2(t->left(), t->right()), x);
    }
    case TermKind::Inj1: {
      NsaRef x = sub(m->child0());
      return compose(in1f(x->cod(), m->annotation()), x);
    }
    case TermKind::Inj2: {
      NsaRef x = sub(m->child0());
      return compose(in2f(m->annotation(), x->cod()), x);
    }
    case TermKind::Case: {
      // (f_N + f_P) . delta . <f_M, id>
      NsaRef scrut = sub(m->child0());  // Gamma -> t1 + t2
      const TypeRef& st = scrut->cod();
      Context ctx1 = ctx;
      ctx1.insert(ctx1.begin(), {m->binder1(), st->left()});
      Context ctx2 = ctx;
      ctx2.insert(ctx2.begin(), {m->binder2(), st->right()});
      NsaRef branch1 = from_nsc(m->branch1(), ctx1);  // t1 x Gamma -> t
      NsaRef branch2 = from_nsc(m->branch2(), ctx2);  // t2 x Gamma -> t
      return compose(
          sum_case(branch1, branch2),
          compose(dist(st->left(), st->right(), gamma),
                  pairf(scrut, id(gamma))));
    }
    case TermKind::Apply: {
      // f_F . <f_M, id>
      NsaRef arg = sub(m->child0());
      NsaRef fn = from_nsc_func(m->fn(), ctx);
      return compose(fn, pairf(arg, id(gamma)));
    }
    case TermKind::Empty:
      return compose(empty_seq(m->annotation()), bang(gamma));
    case TermKind::Singleton: {
      NsaRef x = sub(m->child0());
      return compose(singletonf(x->cod()), x);
    }
    case TermKind::Append: {
      NsaRef xs = pairf(sub(m->child0()), sub(m->child1()));
      return compose(appendf(xs->cod()->left()->elem()), xs);
    }
    case TermKind::Flatten: {
      NsaRef x = sub(m->child0());
      return compose(flattenf(x->cod()->elem()->elem()), x);
    }
    case TermKind::Length: {
      NsaRef x = sub(m->child0());
      return compose(lengthf(x->cod()->elem()), x);
    }
    case TermKind::Get: {
      NsaRef x = sub(m->child0());
      return compose(getf(x->cod()->elem()), x);
    }
    case TermKind::Zip: {
      NsaRef xs = pairf(sub(m->child0()), sub(m->child1()));
      const TypeRef& t = xs->cod();
      return compose(zipf(t->left()->elem(), t->right()->elem()), xs);
    }
    case TermKind::Enumerate: {
      NsaRef x = sub(m->child0());
      return compose(enumeratef(x->cod()->elem()), x);
    }
    case TermKind::Split: {
      NsaRef xs = pairf(sub(m->child0()), sub(m->child1()));
      return compose(splitf(xs->cod()->left()->elem()), xs);
    }
  }
  throw TypeError("from_nsc: unknown term kind");
}

NsaRef translate_func(const FuncRef& f, const Context& ctx) {
  const TypeRef gamma = context_type(ctx);
  switch (f->kind()) {
    case FuncKind::Lambda: {
      Context inner = ctx;
      inner.insert(inner.begin(), {f->param(), f->param_type()});
      return from_nsc(f->body(), inner);  // s x Gamma -> t
    }
    case FuncKind::Map: {
      // Trim the context to the body's free variables before broadcasting:
      // p2 replicates the context once per element, so only what the body
      // actually reads may ride along (this is what keeps the translated
      // work within a constant of NSC's per-use variable charging).
      Trimmed tr = trim_context(ctx, lang::free_vars(f->inner()));
      const TypeRef gamma2 = context_type(tr.ctx);
      NsaRef inner = from_nsc_func(f->inner(), tr.ctx);  // s x Gamma' -> t
      TypeRef s = inner->dom()->left();
      NsaRef body = compose(inner, swapf(gamma2, s));    // Gamma' x s -> t
      // [s] x Gamma --<pi1, restrict.pi2>--> [s] x Gamma' --swap-->
      // Gamma' x [s] --p2--> [Gamma' x s] --map--> [t]
      NsaRef narrow = pairf(pi1(Type::seq(s), gamma),
                            compose(tr.restrict_fn, pi2(Type::seq(s), gamma)));
      return compose(
          mapf(body),
          compose(p2f(gamma2, s),
                  compose(swapf(Type::seq(s), gamma2), narrow)));
    }
    case FuncKind::While: {
      // Trim the context before threading it through the loop state: the
      // state is charged at every iteration (Definition 3.1).
      std::set<std::string> used = lang::free_vars(f->pred());
      std::set<std::string> used2 = lang::free_vars(f->inner());
      used.insert(used2.begin(), used2.end());
      Trimmed tr = trim_context(ctx, used);
      const TypeRef gamma2 = context_type(tr.ctx);
      NsaRef pred = from_nsc_func(f->pred(), tr.ctx);    // t x Gamma' -> B
      NsaRef body = from_nsc_func(f->inner(), tr.ctx);   // t x Gamma' -> t
      TypeRef t = body->dom()->left();
      NsaRef step = pairf(body, pi2(t, gamma2));
      NsaRef narrow =
          pairf(pi1(t, gamma), compose(tr.restrict_fn, pi2(t, gamma)));
      return compose(pi1(t, gamma2), compose(whilef(pred, step), narrow));
    }
  }
  throw TypeError("from_nsc_func: unknown function kind");
}

}  // namespace

NsaRef from_nsc(const TermRef& m, const Context& ctx) {
  NsaRef r = translate_term(m, ctx);
  if (m->src_line() != 0) r->set_src(m->src_line(), m->src_col());
  return r;
}

NsaRef from_nsc_func(const FuncRef& f, const Context& ctx) {
  NsaRef r = translate_func(f, ctx);
  if (f->src_line() != 0) r->set_src(f->src_line(), f->src_col());
  return r;
}

NsaRef from_closed_func(const FuncRef& f) {
  // f_F : s x unit -> t; pre-compose with <id, !> to get s -> t.
  NsaRef open = from_nsc_func(f, {});
  TypeRef s = open->dom()->left();
  return compose(open, pairf(id(s), bang(s)));
}

}  // namespace nsc::nsa
