#include "sa/layout.hpp"

#include <iterator>
#include <utility>

#include "support/error.hpp"

namespace nsc::sa {

std::size_t rep_width(const Type& t) {
  switch (t.kind()) {
    case TypeKind::Unit:
      return 0;
    case TypeKind::Nat:
      return 1;
    case TypeKind::Prod:
      return rep_width(*t.left()) + rep_width(*t.right());
    case TypeKind::Sum:
      return 1 + rep_width(*t.left()) + rep_width(*t.right());
    case TypeKind::Seq:
      return seqrep_width(*t.elem());
  }
  return 0;
}

std::size_t seqrep_width(const Type& t) {
  switch (t.kind()) {
    case TypeKind::Unit:
      return 1;
    case TypeKind::Nat:
      return 1;
    case TypeKind::Prod:
      return seqrep_width(*t.left()) + seqrep_width(*t.right());
    case TypeKind::Sum:
      return 1 + seqrep_width(*t.left()) + seqrep_width(*t.right());
    case TypeKind::Seq:
      return 1 + seqrep_width(*t.elem());
  }
  return 0;
}

namespace {

template <typename Ref>
void encode_seqrep(const std::vector<Ref>& elems, const Type& t,
                   std::vector<Vec>& out);

}  // namespace

void encode_rep(const Value& v, const Type& t, std::vector<Vec>& out) {
  switch (t.kind()) {
    case TypeKind::Unit:
      return;
    case TypeKind::Nat:
      out.push_back({v.as_nat()});
      return;
    case TypeKind::Prod:
      encode_rep(*v.first(), *t.left(), out);
      encode_rep(*v.second(), *t.right(), out);
      return;
    case TypeKind::Sum: {
      const bool left = v.is(ValueKind::In1);
      out.push_back(left ? Vec{1} : Vec{});
      if (left) {
        encode_rep(*v.injected(), *t.left(), out);
        out.resize(out.size() + rep_width(*t.right()));
      } else {
        out.resize(out.size() + rep_width(*t.left()));
        encode_rep(*v.injected(), *t.right(), out);
      }
      return;
    }
    case TypeKind::Seq:
      encode_seqrep(v.elems(), *t.elem(), out);
      return;
  }
}

namespace {

/// Encode a sequence of elements of type t into SEQREP(t) vectors.  The
/// component lists of products, sums and nested sequences hold plain
/// pointers into the encoded value, which outlives the encode: a ValueRef
/// copy per element would cost two atomic reference-count updates.  Ref
/// is ValueRef for the top-level sequence, `const Value*` below it.
template <typename Ref>
void encode_seqrep(const std::vector<Ref>& elems, const Type& t,
                   std::vector<Vec>& out) {
  using Elems = std::vector<const Value*>;
  switch (t.kind()) {
    case TypeKind::Unit: {
      out.push_back(Vec(elems.size(), 0));
      return;
    }
    case TypeKind::Nat: {
      Vec v;
      v.reserve(elems.size());
      for (const auto& e : elems) v.push_back(e->as_nat());
      out.push_back(std::move(v));
      return;
    }
    case TypeKind::Prod: {
      Elems lefts, rights;
      lefts.reserve(elems.size());
      rights.reserve(elems.size());
      for (const auto& e : elems) {
        lefts.push_back(e->first().get());
        rights.push_back(e->second().get());
      }
      encode_seqrep(lefts, *t.left(), out);
      encode_seqrep(rights, *t.right(), out);
      return;
    }
    case TypeKind::Sum: {
      Vec flags;
      flags.reserve(elems.size());
      Elems lefts, rights;
      for (const auto& e : elems) {
        if (e->is(ValueKind::In1)) {
          flags.push_back(1);
          lefts.push_back(e->injected().get());
        } else {
          flags.push_back(0);
          rights.push_back(e->injected().get());
        }
      }
      out.push_back(std::move(flags));
      encode_seqrep(lefts, *t.left(), out);
      encode_seqrep(rights, *t.right(), out);
      return;
    }
    case TypeKind::Seq: {
      Vec lens;
      lens.reserve(elems.size());
      std::size_t total = 0;
      for (const auto& e : elems) {
        lens.push_back(e->length());
        total += e->length();
      }
      Elems inner;
      inner.reserve(total);
      for (const auto& e : elems) {
        for (const ValueRef& x : e->elems()) inner.push_back(x.get());
      }
      out.push_back(std::move(lens));
      encode_seqrep(inner, *t.elem(), out);
      return;
    }
  }
}

}  // namespace

ValueRef decode_rep(const Type& t, const std::vector<Vec>& regs,
                    std::size_t& at) {
  switch (t.kind()) {
    case TypeKind::Unit:
      return Value::unit();
    case TypeKind::Nat: {
      const Vec& v = regs.at(at++);
      if (v.size() != 1) throw Error("decode: N register not a singleton");
      return Value::nat(v[0]);
    }
    case TypeKind::Prod: {
      ValueRef a = decode_rep(*t.left(), regs, at);
      ValueRef b = decode_rep(*t.right(), regs, at);
      return Value::pair(std::move(a), std::move(b));
    }
    case TypeKind::Sum: {
      const bool left = !regs.at(at++).empty();
      if (left) {
        ValueRef v = decode_rep(*t.left(), regs, at);
        at += rep_width(*t.right());
        return Value::in1(std::move(v));
      }
      at += rep_width(*t.left());
      ValueRef v = decode_rep(*t.right(), regs, at);
      return Value::in2(std::move(v));
    }
    case TypeKind::Seq: {
      auto elems = decode_seqrep(*t.elem(), regs, at);
      return Value::seq(std::move(elems));
    }
  }
  throw Error("decode: unknown type");
}

std::vector<ValueRef> decode_seqrep(const Type& t,
                                    const std::vector<Vec>& regs,
                                    std::size_t& at) {
  switch (t.kind()) {
    case TypeKind::Unit: {
      const Vec& z = regs.at(at++);
      return std::vector<ValueRef>(z.size(), Value::unit());
    }
    case TypeKind::Nat: {
      const Vec& v = regs.at(at++);
      std::vector<ValueRef> out;
      out.reserve(v.size());
      for (auto x : v) out.push_back(Value::nat(x));
      return out;
    }
    case TypeKind::Prod: {
      auto lefts = decode_seqrep(*t.left(), regs, at);
      auto rights = decode_seqrep(*t.right(), regs, at);
      if (lefts.size() != rights.size()) {
        throw Error("decode: product component counts differ");
      }
      std::vector<ValueRef> out;
      out.reserve(lefts.size());
      for (std::size_t i = 0; i < lefts.size(); ++i) {
        out.push_back(Value::pair(std::move(lefts[i]), std::move(rights[i])));
      }
      return out;
    }
    case TypeKind::Sum: {
      const Vec& flags = regs.at(at++);
      auto lefts = decode_seqrep(*t.left(), regs, at);
      auto rights = decode_seqrep(*t.right(), regs, at);
      std::vector<ValueRef> out;
      out.reserve(flags.size());
      std::size_t li = 0, ri = 0;
      for (auto f : flags) {
        if (f) {
          out.push_back(Value::in1(std::move(lefts.at(li++))));
        } else {
          out.push_back(Value::in2(std::move(rights.at(ri++))));
        }
      }
      if (li != lefts.size() || ri != rights.size()) {
        throw Error("decode: sum side counts disagree with flags");
      }
      return out;
    }
    case TypeKind::Seq: {
      const Vec& lens = regs.at(at++);
      auto inner = decode_seqrep(*t.elem(), regs, at);
      std::vector<ValueRef> out;
      out.reserve(lens.size());
      std::size_t i = 0;
      for (auto len : lens) {
        if (i + len > inner.size()) {
          throw Error("decode: segment lengths exceed data");
        }
        out.push_back(Value::seq(std::vector<ValueRef>(
            std::make_move_iterator(inner.begin() + i),
            std::make_move_iterator(inner.begin() + i + len))));
        i += len;
      }
      if (i != inner.size()) throw Error("decode: segment data left over");
      return out;
    }
  }
  throw Error("decode: unknown type");
}

std::vector<Vec> encode_value(const ValueRef& v, const TypeRef& t) {
  std::vector<Vec> out;
  encode_rep(*v, *t, out);
  return out;
}

ValueRef decode_value(const TypeRef& t, const std::vector<Vec>& regs) {
  std::size_t at = 0;
  ValueRef v = decode_rep(*t, regs, at);
  if (at != regs.size()) throw Error("decode: extra registers");
  return v;
}

}  // namespace nsc::sa
