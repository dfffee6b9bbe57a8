#include "object/type.hpp"

#include "support/error.hpp"

namespace nsc {

Type::Type(TypeKind kind, TypeRef a, TypeRef b)
    : kind_(kind), a_(std::move(a)), b_(std::move(b)) {}

namespace {
TypeRef make(TypeKind k, TypeRef a = nullptr, TypeRef b = nullptr) {
  struct Access : Type {
    Access(TypeKind kind, TypeRef x, TypeRef y)
        : Type(kind, std::move(x), std::move(y)) {}
  };
  return std::make_shared<Access>(k, std::move(a), std::move(b));
}
}  // namespace

TypeRef Type::unit() {
  static const TypeRef t = make(TypeKind::Unit);
  return t;
}

TypeRef Type::nat() {
  static const TypeRef t = make(TypeKind::Nat);
  return t;
}

TypeRef Type::prod(TypeRef left, TypeRef right) {
  return make(TypeKind::Prod, std::move(left), std::move(right));
}

TypeRef Type::sum(TypeRef left, TypeRef right) {
  return make(TypeKind::Sum, std::move(left), std::move(right));
}

TypeRef Type::seq(TypeRef elem) {
  return make(TypeKind::Seq, std::move(elem));
}

TypeRef Type::boolean() {
  static const TypeRef t = sum(unit(), unit());
  return t;
}

const TypeRef& Type::left() const {
  if (kind_ != TypeKind::Prod && kind_ != TypeKind::Sum) {
    throw TypeError("left() on " + show());
  }
  return a_;
}

const TypeRef& Type::right() const {
  if (kind_ != TypeKind::Prod && kind_ != TypeKind::Sum) {
    throw TypeError("right() on " + show());
  }
  return b_;
}

const TypeRef& Type::elem() const {
  if (kind_ != TypeKind::Seq) throw TypeError("elem() on " + show());
  return a_;
}

bool Type::equal(const Type& a, const Type& b) {
  if (&a == &b) return true;
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case TypeKind::Unit:
    case TypeKind::Nat:
      return true;
    case TypeKind::Seq:
      return equal(*a.a_, *b.a_);
    case TypeKind::Prod:
    case TypeKind::Sum:
      return equal(*a.a_, *b.a_) && equal(*a.b_, *b.b_);
  }
  return false;
}

bool Type::equal(const TypeRef& a, const TypeRef& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return equal(*a, *b);
}

bool Type::is_scalar() const {
  switch (kind_) {
    case TypeKind::Unit:
    case TypeKind::Nat:
      return true;
    case TypeKind::Prod:
    case TypeKind::Sum:
      return a_->is_scalar() && b_->is_scalar();
    case TypeKind::Seq:
      return false;
  }
  return false;
}

bool Type::is_flat() const {
  switch (kind_) {
    case TypeKind::Unit:
      return true;
    case TypeKind::Nat:
      return false;  // a bare scalar N is not a flat type; [N] is
    case TypeKind::Seq:
      return a_->is_scalar();
    case TypeKind::Prod:
    case TypeKind::Sum:
      return a_->is_flat() && b_->is_flat();
  }
  return false;
}

bool Type::is_boolean() const {
  return kind_ == TypeKind::Sum && a_->is(TypeKind::Unit) &&
         b_->is(TypeKind::Unit);
}

std::string Type::show() const {
  switch (kind_) {
    case TypeKind::Unit:
      return "unit";
    case TypeKind::Nat:
      return "N";
    case TypeKind::Prod:
      return std::string("(") + a_->show() + " x " + b_->show() + ")";
    case TypeKind::Sum:
      if (is_boolean()) return "B";
      return std::string("(") + a_->show() + " + " + b_->show() + ")";
    case TypeKind::Seq:
      return std::string("[") + a_->show() + "]";
  }
  return "?";
}

}  // namespace nsc
