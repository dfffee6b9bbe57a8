// E7 (Propositions 6.1/6.2): NSC with polylog time and polynomial work
// coincides with NC (for NC arithmetic ops).  Empirical shape: programs in
// the fragment keep polylog measured T across geometrically growing
// inputs.  We sweep three NC-style programs.  Gate (exit 1, naming the
// row): per program, T/lg^2 n never rises from one n to the next, and the
// largest W/n is within 1.05 of the smallest.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/prelude.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

int main() {
  using namespace nsc;
  namespace L = nsc::lang;
  namespace P = nsc::lang::prelude;
  const TypeRef N = Type::nat();
  std::printf(
      "E7: Props 6.1/6.2 -- the NC fragment of NSC\n"
      "claim: polylog-T / poly-W programs characterize NC; measured T must\n"
      "stay polylogarithmic while inputs grow geometrically.\n\n");

  struct Row {
    const char* name;
    L::FuncRef f;
  };
  auto even = L::lam(N, [](L::TermRef v) {
    return L::eq(L::mod_t(v, L::nat(2)), L::nat(0));
  });
  std::vector<Row> programs{
      {"sum (log-depth reduce)", P::sum_nats()},
      {"max (log-depth reduce)", P::max_nats()},
      {"filter-even (O(1) depth)", P::filter(even, N)},
  };

  SplitMix64 rng(17);
  bool ok = true;
  for (const auto& row : programs) {
    Table t({"n", "T", "W", "T/lg^2 n", "W/n"});
    double last_t = INFINITY, min_w = INFINITY, max_w = 0;
    for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
      auto arg = Value::nat_seq(rng.vec(n, 1 << 16));
      auto r = L::apply_fn(row.f, arg);
      const double lg = std::log2(static_cast<double>(n));
      const double t_lg2 = r.cost.time / (lg * lg);
      const double w_n = static_cast<double>(r.cost.work) / n;
      t.row({Table::num(n), Table::num(r.cost.time), Table::num(r.cost.work),
             Table::fixed(t_lg2, 2), Table::fixed(w_n, 1)});
      if (t_lg2 > last_t) {
        std::fprintf(stderr, "FAIL: %s: T/lg^2 n rises at n=%zu\n", row.name,
                     n);
        ok = false;
      }
      last_t = t_lg2;
      min_w = std::min(min_w, w_n);
      max_w = std::max(max_w, w_n);
    }
    if (max_w > 1.05 * min_w) {
      std::fprintf(stderr, "FAIL: %s: W/n spreads %.3fx\n", row.name,
                   max_w / min_w);
      ok = false;
    }
    std::printf("-- %s --\n", row.name);
    t.print();
    std::printf("\n");
  }
  std::printf(
      "reading: T columns grow ~log or stay constant while n grows 64x;\n"
      "W/n stays bounded -- the polylog-time poly-work fragment.\n");
  return ok ? 0 : 1;
}
