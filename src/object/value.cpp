#include "object/value.hpp"

#include <sstream>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace nsc {

Value::Value(ValueKind kind, std::uint64_t nat, ValueRef a, ValueRef b,
             std::vector<ValueRef> elems, std::uint64_t size)
    : kind_(kind),
      nat_(nat),
      a_(std::move(a)),
      b_(std::move(b)),
      elems_(std::move(elems)),
      size_(size) {}

namespace {
ValueRef make(ValueKind k, std::uint64_t nat, ValueRef a, ValueRef b,
              std::vector<ValueRef> elems, std::uint64_t size) {
  struct Access : Value {
    Access(ValueKind kind, std::uint64_t n, ValueRef x, ValueRef y,
           std::vector<ValueRef> es, std::uint64_t s)
        : Value(kind, n, std::move(x), std::move(y), std::move(es), s) {}
  };
  return std::make_shared<Access>(k, nat, std::move(a), std::move(b),
                                  std::move(elems), size);
}
}  // namespace

ValueRef Value::unit() {
  static const ValueRef v = make(ValueKind::Unit, 0, nullptr, nullptr, {}, 1);
  return v;
}

ValueRef Value::nat(std::uint64_t n) {
  return make(ValueKind::Nat, n, nullptr, nullptr, {}, 1);
}

ValueRef Value::pair(ValueRef first, ValueRef second) {
  const std::uint64_t s = sat_add(1, sat_add(first->size(), second->size()));
  return make(ValueKind::Pair, 0, std::move(first), std::move(second), {}, s);
}

ValueRef Value::in1(ValueRef v) {
  const std::uint64_t s = sat_add(1, v->size());
  return make(ValueKind::In1, 0, std::move(v), nullptr, {}, s);
}

ValueRef Value::in2(ValueRef v) {
  const std::uint64_t s = sat_add(1, v->size());
  return make(ValueKind::In2, 0, std::move(v), nullptr, {}, s);
}

ValueRef Value::seq(std::vector<ValueRef> elems) {
  std::uint64_t s = 1;
  for (const auto& e : elems) s = sat_add(s, e->size());
  return make(ValueKind::Seq, 0, nullptr, nullptr, std::move(elems), s);
}

ValueRef Value::empty_seq() {
  static const ValueRef v = make(ValueKind::Seq, 0, nullptr, nullptr, {}, 1);
  return v;
}

ValueRef Value::boolean(bool b) {
  static const ValueRef t = in1(unit());
  static const ValueRef f = in2(unit());
  return b ? t : f;
}

ValueRef Value::nat_seq(const std::vector<std::uint64_t>& ns) {
  std::vector<ValueRef> elems;
  elems.reserve(ns.size());
  for (auto n : ns) elems.push_back(nat(n));
  return seq(std::move(elems));
}

std::uint64_t Value::as_nat() const {
  if (kind_ != ValueKind::Nat) throw EvalError("expected N, got " + show());
  return nat_;
}

const ValueRef& Value::first() const {
  if (kind_ != ValueKind::Pair) throw EvalError("pi1 of non-pair " + show());
  return a_;
}

const ValueRef& Value::second() const {
  if (kind_ != ValueKind::Pair) throw EvalError("pi2 of non-pair " + show());
  return b_;
}

const ValueRef& Value::injected() const {
  if (kind_ != ValueKind::In1 && kind_ != ValueKind::In2) {
    throw EvalError("injected() of " + show());
  }
  return a_;
}

const std::vector<ValueRef>& Value::elems() const {
  if (kind_ != ValueKind::Seq) throw EvalError("elems() of " + show());
  return elems_;
}

std::size_t Value::length() const { return elems().size(); }

bool Value::as_bool() const {
  if (kind_ == ValueKind::In1 && a_->is(ValueKind::Unit)) return true;
  if (kind_ == ValueKind::In2 && a_->is(ValueKind::Unit)) return false;
  throw EvalError("expected B, got " + show());
}

std::vector<std::uint64_t> Value::as_nat_vector() const {
  std::vector<std::uint64_t> out;
  out.reserve(elems().size());
  for (const auto& e : elems()) out.push_back(e->as_nat());
  return out;
}

bool Value::equal(const Value& a, const Value& b) {
  if (&a == &b) return true;
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case ValueKind::Unit:
      return true;
    case ValueKind::Nat:
      return a.nat_ == b.nat_;
    case ValueKind::Pair:
      return equal(*a.a_, *b.a_) && equal(*a.b_, *b.b_);
    case ValueKind::In1:
    case ValueKind::In2:
      return equal(*a.a_, *b.a_);
    case ValueKind::Seq: {
      if (a.elems_.size() != b.elems_.size()) return false;
      for (std::size_t i = 0; i < a.elems_.size(); ++i) {
        if (!equal(*a.elems_[i], *b.elems_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool Value::equal(const ValueRef& a, const ValueRef& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return equal(*a, *b);
}

bool Value::conforms(const Value& v, const Type& t) {
  switch (t.kind()) {
    case TypeKind::Unit:
      return v.is(ValueKind::Unit);
    case TypeKind::Nat:
      return v.is(ValueKind::Nat);
    case TypeKind::Prod:
      return v.is(ValueKind::Pair) && conforms(*v.a_, *t.left()) &&
             conforms(*v.b_, *t.right());
    case TypeKind::Sum:
      if (v.is(ValueKind::In1)) return conforms(*v.a_, *t.left());
      if (v.is(ValueKind::In2)) return conforms(*v.a_, *t.right());
      return false;
    case TypeKind::Seq: {
      if (!v.is(ValueKind::Seq)) return false;
      for (const auto& e : v.elems_) {
        if (!conforms(*e, *t.elem())) return false;
      }
      return true;
    }
  }
  return false;
}

std::string Value::show() const {
  switch (kind_) {
    case ValueKind::Unit:
      return "()";
    case ValueKind::Nat:
      return std::to_string(nat_);
    case ValueKind::Pair:
      return std::string("(") + a_->show() + ", " + b_->show() + ")";
    case ValueKind::In1:
      if (a_->is(ValueKind::Unit)) return "true";
      return "in1(" + a_->show() + ")";
    case ValueKind::In2:
      if (a_->is(ValueKind::Unit)) return "false";
      return "in2(" + a_->show() + ")";
    case ValueKind::Seq: {
      std::ostringstream out;
      out << "[";
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        if (i) out << ", ";
        out << elems_[i]->show();
      }
      out << "]";
      return out.str();
    }
  }
  return "?";
}

}  // namespace nsc
