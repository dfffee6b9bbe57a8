#include "gen.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/prng.hpp"

namespace perfbench {

using nsc::SplitMix64;
using nsc::Value;
using nsc::ValueRef;

namespace {

ValueRef nats(SplitMix64& rng, std::size_t n, std::uint64_t lo,
              std::uint64_t hi) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.between(lo, hi);
  return Value::nat_seq(v);
}

ValueRef sorted_nats(SplitMix64& rng, std::size_t n, std::uint64_t bound) {
  std::vector<std::uint64_t> v = rng.vec(n, bound);
  std::sort(v.begin(), v.end());
  return Value::nat_seq(v);
}

/// `segs` segments of `len` values below `bound`; segment `empty_at` (if
/// < segs) is empty instead.
ValueRef segments(SplitMix64& rng, std::size_t segs, std::size_t len,
                  std::uint64_t bound, std::size_t empty_at = SIZE_MAX) {
  std::vector<ValueRef> out;
  out.reserve(segs);
  for (std::size_t s = 0; s < segs; ++s) {
    out.push_back(s == empty_at ? Value::empty_seq()
                                : Value::nat_seq(rng.vec(len, bound)));
  }
  return Value::seq(std::move(out));
}

ValueRef key_value_table(SplitMix64& rng, std::size_t rows,
                         std::uint64_t keys) {
  std::vector<ValueRef> out;
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    ValueRef k = Value::nat(rng.below(keys));
    out.push_back(Value::pair(std::move(k), Value::nat(rng.below(1024))));
  }
  return Value::seq(std::move(out));
}

/// Space-separated tokens of 1-5 digits (character codes), exactly n codes.
ValueRef token_string(SplitMix64& rng, std::size_t n) {
  std::vector<std::uint64_t> s;
  s.reserve(n + 8);
  while (s.size() < n) {
    const std::size_t digits = rng.between(1, 5);
    for (std::size_t d = 0; d < digits; ++d) s.push_back(48 + rng.below(10));
    const std::size_t spaces = rng.between(1, 2);
    for (std::size_t d = 0; d < spaces; ++d) s.push_back(32);
  }
  s.resize(n);
  return Value::nat_seq(s);
}

/// floor(sqrt(n)), at least 1.
std::size_t isqrt_at_least_1(std::size_t n) {
  std::size_t r = 0;
  while ((r + 1) * (r + 1) <= n) ++r;
  return std::max<std::size_t>(1, r);
}

}  // namespace

const std::vector<std::string>& program_names() {
  static const std::vector<std::string> names = {
      "countdown",    "divide_conquer",          "histogram",
      "merge_sorted", "nested_join",             "nested_query",
      "quickstart",   "segmented_filter_reduce", "sqrt_blocks",
      "stragglers",   "tokenizer",               "trap_division",
  };
  return names;
}

ValueRef generate(const std::string& program, std::uint64_t seed,
                  std::size_t n, bool empty_segment) {
  // Mix the program name into the seed so programs draw independent
  // streams from one benchmark seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : program) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  SplitMix64 rng(seed ^ h);
  const std::size_t r = n == 0 ? 0 : isqrt_at_least_1(n);

  if (program == "quickstart") return nats(rng, n, 0, 31);
  if (program == "countdown") return nats(rng, n, 0, 14);
  if (program == "divide_conquer") return nats(rng, n, 0, 1023);
  if (program == "sqrt_blocks") return nats(rng, n, 0, 1023);
  if (program == "stragglers") return nats(rng, n, 1, 15);
  if (program == "tokenizer") return token_string(rng, n);
  if (program == "histogram") {
    // Edges near the quartiles of [0, 1024), the first at 0 so every value
    // lands in a bucket.
    ValueRef xs = nats(rng, n == 0 ? 0 : std::max<std::size_t>(1, n / 16), 0, 1023);
    std::vector<std::uint64_t> edges = {0};
    for (std::uint64_t q = 1; q < 4; ++q) edges.push_back(256 * q - 64 + rng.below(129));
    return Value::pair(std::move(xs), Value::nat_seq(edges));
  }
  if (program == "merge_sorted") {
    ValueRef a = sorted_nats(rng, r, 1024);
    return Value::pair(std::move(a), sorted_nats(rng, r, 640));
  }
  if (program == "nested_join") {
    // Keys below 2 sqrt(n) / 3: each row of R matches about 1.5 rows of S,
    // so the joined output stays near sqrt(n) while every row scans all
    // of S.
    const std::uint64_t keys = std::max<std::uint64_t>(1, 2 * r / 3);
    ValueRef left = key_value_table(rng, r, keys);
    return Value::pair(std::move(left), key_value_table(rng, r, keys));
  }
  if (program == "nested_query") return segments(rng, r, r, 128);
  if (program == "segmented_filter_reduce") {
    ValueRef db = segments(rng, r, r, 128);
    return Value::pair(std::move(db), Value::nat(49));
  }
  if (program == "trap_division") {
    const std::size_t empty_at = empty_segment ? rng.below(r) : SIZE_MAX;
    return segments(rng, r, r, 1000, empty_at);
  }
  throw std::invalid_argument("no input generator for program '" + program +
                              "'");
}

}  // namespace perfbench
