// E8 (section 3 derived operations): the claimed costs of the prelude and
// the "cost of an arbitrary permutation is visible" discussion.
//   index:        T = O(1), W = O(n + k)            [Figure 3]
//   bm_route:     T = O(1), W = O(in + out)
//   permutation via map of index-lookups: T = O(1), W = O(n^2)
// Gate (exit 1, naming the table and row): T is the same at every n of a
// table, W/(n+k) and W/n vary by at most 2%, and W/n^2 by at most 10%.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/prelude.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using namespace nsc;

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());

/// The section 3 "arbitrary permutation with map" program:
/// permute(x, pi) = map(\i. x_i via rank filter)(pi) -- O(1) time, O(n^2)
/// work, the work blowup the paper uses to motivate visible permutation
/// costs.
L::FuncRef permute_by_map() {
  return L::lam(Type::prod(NSeq, NSeq), [](L::TermRef z) {
    return L::let_in(NSeq, L::proj1(z), [&](L::TermRef x) {
      auto pick = L::lam(N, [&](L::TermRef i) {
        // x_i = get(filter(position == i)(zip(enumerate x, x)))
        auto at_i = L::lam(Type::prod(N, N), [&](L::TermRef q) {
          return L::eq(L::proj1(q), i);
        });
        return L::proj2(L::get(L::apply(
            P::filter(at_i, Type::prod(N, N)), L::zip(L::enumerate(x), x))));
      });
      return L::apply(L::map_f(pick), L::proj2(z));
    });
  });
}

/// One table's gate: T equal at every n, and the largest work ratio
/// within `spread` times the smallest.
class Gate {
 public:
  Gate(const char* table, double spread) : table_(table), spread_(spread) {}

  void row(std::size_t n, std::uint64_t time, double ratio) {
    if (lo_ == INFINITY) time_ = time;
    if (time != time_) {
      std::fprintf(stderr, "FAIL: %s: T=%llu at n=%zu, %llu at the first n\n",
                   table_, static_cast<unsigned long long>(time), n,
                   static_cast<unsigned long long>(time_));
      ok_ = false;
    }
    lo_ = std::min(lo_, ratio);
    hi_ = std::max(hi_, ratio);
  }

  bool ok() const {
    if (hi_ <= spread_ * lo_) return ok_;
    std::fprintf(stderr, "FAIL: %s: the work ratio spreads %.3fx\n", table_,
                 hi_ / lo_);
    return false;
  }

 private:
  const char* table_;
  double spread_;
  std::uint64_t time_ = 0;
  double lo_ = INFINITY, hi_ = 0;
  bool ok_ = true;
};

}  // namespace

int main() {
  std::printf("E8: section 3 derived-operation costs\n\n");
  bool ok = true;
  {
    Table t({"n", "T_index", "W_index", "W/(n+k)"});
    Gate gate("index", 1.02);
    auto f = P::index(N);
    for (std::size_t n : {128u, 512u, 2048u, 8192u}) {
      std::vector<std::uint64_t> c(n);
      for (std::size_t i = 0; i < n; ++i) c[i] = i;
      auto arg = Value::pair(Value::nat_seq(c),
                             Value::nat_seq({0, n / 2, n - 1}));
      auto r = L::apply_fn(f, arg);
      const double ratio = static_cast<double>(r.cost.work) / (n + 3);
      t.row({Table::num(n), Table::num(r.cost.time), Table::num(r.cost.work),
             Table::fixed(ratio, 1)});
      gate.row(n, r.cost.time, ratio);
    }
    std::printf("-- index(C, I): claimed T = O(1), W = O(n + k) --\n");
    t.print();
    ok = gate.ok() && ok;
  }
  {
    Table t({"n", "T_route", "W_route", "W/n"});
    Gate gate("bm_route", 1.02);
    auto f = P::bm_route(N, N);
    for (std::size_t n : {128u, 512u, 2048u, 8192u}) {
      std::vector<std::uint64_t> u(n, 0), d(n, 1), x(n, 7);
      auto arg = Value::pair(
          Value::pair(Value::nat_seq(u), Value::nat_seq(d)),
          Value::nat_seq(x));
      auto r = L::apply_fn(f, arg);
      const double ratio = static_cast<double>(r.cost.work) / n;
      t.row({Table::num(n), Table::num(r.cost.time), Table::num(r.cost.work),
             Table::fixed(ratio, 1)});
      gate.row(n, r.cost.time, ratio);
    }
    std::printf("\n-- bm_route: claimed T = O(1), W = O(n) --\n");
    t.print();
    ok = gate.ok() && ok;
  }
  {
    Table t({"n", "T_perm", "W_perm", "W/n^2"});
    Gate gate("permutation", 1.10);
    auto f = permute_by_map();
    SplitMix64 rng(8);
    for (std::size_t n : {16u, 32u, 64u, 128u}) {
      std::vector<std::uint64_t> x(n), pi(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.below(100);
        pi[i] = i;
      }
      for (std::size_t i = n; i > 1; --i) {
        std::swap(pi[i - 1], pi[rng.below(i)]);
      }
      auto arg = Value::pair(Value::nat_seq(x), Value::nat_seq(pi));
      auto r = L::apply_fn(f, arg);
      const double ratio = static_cast<double>(r.cost.work) / (double(n) * n);
      t.row({Table::num(n), Table::num(r.cost.time), Table::num(r.cost.work),
             Table::fixed(ratio, 2)});
      gate.row(n, r.cost.time, ratio);
    }
    std::printf(
        "\n-- arbitrary permutation via map: T = O(1), W = O(n^2)\n"
        "   (\"the cost of performing an arbitrary permutation is visible\n"
        "   in the higher level language\", section 3) --\n");
    t.print();
    ok = gate.ok() && ok;
  }
  return ok ? 0 : 1;
}
