#include "native.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

using nsc::Value;
using nsc::ValueRef;
using u64 = std::uint64_t;
using Nats = std::vector<u64>;

namespace {

constexpr u64 kMax = std::numeric_limits<u64>::max();

u64 add(u64 a, u64 b) { return a > kMax - b ? kMax : a + b; }
u64 mul(u64 a, u64 b) { return a != 0 && b > kMax / a ? kMax : a * b; }
u64 monus(u64 a, u64 b) { return a >= b ? a - b : 0; }
u64 log2_floor(u64 n) {
  u64 r = 0;
  while (n >>= 1) ++r;
  return r;
}

/// A trap raised by a reference (the paper's Omega).
struct Omega {};

ValueRef pair_of_nats(u64 a, u64 b) {
  return Value::pair(Value::nat(a), Value::nat(b));
}

/// index_split(c, i): block sizes are the monus deltas of i ++ [n] against
/// [0] ++ i, and split traps unless they sum to n.
std::vector<Nats> index_split(const Nats& c, const Nats& at) {
  Nats sizes;
  u64 prev = 0;
  for (u64 p : at) {
    sizes.push_back(monus(p, prev));
    prev = p;
  }
  sizes.push_back(monus(c.size(), prev));
  u64 total = 0;
  for (u64 s : sizes) total = add(total, s);
  if (total != c.size()) throw Omega{};
  std::vector<Nats> blocks;
  std::size_t pos = 0;
  for (u64 s : sizes) {
    blocks.emplace_back(c.begin() + pos, c.begin() + pos + s);
    pos += s;
  }
  return blocks;
}

u64 sqrt_block(u64 n) {
  const u64 shift = (log2_floor(n) + 1) / 2;
  const u64 b = shift >= 64 ? 0 : n >> shift;
  return b == 0 ? 1 : b;
}

ValueRef quickstart(const ValueRef& arg) {
  std::vector<ValueRef> out;
  u64 i = 0;
  for (u64 v : arg->as_nat_vector()) {
    if (v < 10) out.push_back(pair_of_nats(i++, mul(v, v)));
  }
  return Value::seq(std::move(out));
}

ValueRef countdown(const ValueRef& arg) {
  return Value::nat_seq(Nats(arg->length(), 0));
}

ValueRef divide_conquer(const ValueRef& arg) {
  u64 sum = 0;
  for (u64 v : arg->as_nat_vector()) sum = add(sum, v);
  return Value::nat(sum);
}

ValueRef histogram(const ValueRef& arg) {
  const Nats xs = arg->first()->as_nat_vector();
  const Nats edges = arg->second()->as_nat_vector();
  Nats counts(edges.size(), 0);
  for (u64 x : xs) {
    u64 below = 0;
    for (u64 e : edges) below += e <= x ? 1 : 0;
    if (below >= 1) counts[below - 1] += 1;
  }
  return Value::nat_seq(counts);
}

u64 rank_of(u64 a, const Nats& bs) {
  u64 r = 0;
  for (u64 b : bs) r += b <= a ? 1 : 0;
  return r;
}

ValueRef merge_sorted(const ValueRef& arg) {
  const Nats a = arg->first()->as_nat_vector();
  const Nats b = arg->second()->as_nat_vector();
  Nats ranks;
  for (u64 x : a) ranks.push_back(rank_of(x, b));
  // The prelude's direct merge: split b at the ranks of a, then weave.
  const std::vector<Nats> blocks = index_split(b, ranks);
  Nats merged = blocks[0];
  for (std::size_t i = 0; i < a.size(); ++i) {
    merged.push_back(a[i]);
    merged.insert(merged.end(), blocks[i + 1].begin(), blocks[i + 1].end());
  }
  return Value::pair(Value::nat_seq(merged), Value::nat_seq(ranks));
}

ValueRef nested_join(const ValueRef& arg) {
  std::vector<ValueRef> out;
  const auto& s = arg->second()->elems();
  for (const ValueRef& r : arg->first()->elems()) {
    const u64 key = r->first()->as_nat();
    for (const ValueRef& q : s) {
      if (q->first()->as_nat() == key) {
        out.push_back(pair_of_nats(r->second()->as_nat(), q->second()->as_nat()));
      }
    }
  }
  return Value::seq(std::move(out));
}

ValueRef nested_query(const ValueRef& arg) {
  std::vector<ValueRef> out;
  for (const ValueRef& d : arg->elems()) {
    u64 n = 0, sum = 0;
    for (u64 v : d->as_nat_vector()) {
      if (50 <= v) {
        n += 1;
        sum = add(sum, v);
      }
    }
    out.push_back(pair_of_nats(n, sum));
  }
  return Value::seq(std::move(out));
}

ValueRef segmented_filter_reduce(const ValueRef& arg) {
  const u64 t = arg->second()->as_nat();
  std::vector<ValueRef> out;
  for (const ValueRef& seg : arg->first()->elems()) {
    u64 n = 0, sum = 0;
    for (u64 v : seg->as_nat_vector()) {
      if (t < v) {
        n += 1;
        sum = add(sum, v);
      }
    }
    if (n != 0) out.push_back(pair_of_nats(n, sum));
  }
  return Value::seq(std::move(out));
}

ValueRef trap_division(const ValueRef& arg) {
  Nats means;
  for (const ValueRef& seg : arg->elems()) {
    const Nats v = seg->as_nat_vector();
    if (v.empty()) throw Omega{};
    u64 sum = 0;
    for (u64 x : v) sum = add(sum, x);
    means.push_back(sum / v.size());
  }
  return Value::nat_seq(means);
}

ValueRef sqrt_blocks(const ValueRef& arg) {
  const Nats xs = arg->as_nat_vector();
  if (xs.empty()) return Value::pair(Value::empty_seq(), Value::empty_seq());
  const u64 b = sqrt_block(xs.size());
  Nats maxima, samples;
  for (std::size_t start = 0; start < xs.size(); start += b) {
    u64 m = 0;
    for (std::size_t i = start; i < xs.size() && i < start + b; ++i) {
      m = std::max(m, xs[i]);
    }
    maxima.push_back(m);
    samples.push_back(xs[start]);
  }
  return Value::pair(Value::nat_seq(maxima), Value::nat_seq(samples));
}

ValueRef stragglers(const ValueRef& arg) {
  Nats steps;
  for (u64 v : arg->as_nat_vector()) {
    u64 count = 0;
    while (1 < v) {
      v = v % 2 == 0 ? v / 2 : add(mul(3, v), 1);
      count = add(count, 1);
    }
    steps.push_back(count);
  }
  return Value::nat_seq(steps);
}

ValueRef tokenizer(const ValueRef& arg) {
  const Nats s = arg->as_nat_vector();
  Nats seps;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == 32) seps.push_back(i);
  }
  std::vector<Nats> blocks = index_split(s, seps);
  // Every block after the first starts with its separator.
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    blocks[i].erase(blocks[i].begin());
  }
  Nats out;
  for (const Nats& tok : blocks) {
    if (tok.empty()) continue;
    u64 v = 0;
    for (u64 c : tok) v = add(mul(v, 10), monus(c, 48));
    out.push_back(v);
  }
  return Value::nat_seq(out);
}

}  // namespace

Outcome native_reference(const std::string& program, const ValueRef& arg) {
  using Fn = ValueRef (*)(const ValueRef&);
  static const std::pair<const char*, Fn> table[] = {
      {"countdown", countdown},
      {"divide_conquer", divide_conquer},
      {"histogram", histogram},
      {"merge_sorted", merge_sorted},
      {"nested_join", nested_join},
      {"nested_query", nested_query},
      {"quickstart", quickstart},
      {"segmented_filter_reduce", segmented_filter_reduce},
      {"sqrt_blocks", sqrt_blocks},
      {"stragglers", stragglers},
      {"tokenizer", tokenizer},
      {"trap_division", trap_division},
  };
  for (const auto& [name, fn] : table) {
    if (program != name) continue;
    try {
      return Outcome{false, fn(arg)};
    } catch (const Omega&) {
      return Outcome{true, nullptr};
    }
  }
  throw std::invalid_argument("no native reference for program '" + program +
                              "'");
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  if (a.trapped || b.trapped) return a.trapped == b.trapped;
  return Value::equal(a.value, b.value);
}

}  // namespace perfbench
