// E6 (Proposition 3.2): simulate an NSC computation on a CREW PRAM with
// scan primitives and p processors in O(T + W/p) steps.  We compile a
// program, record its BVRAM trace (same T/W orders as the NSC source), and
// Brent-schedule it across a processor sweep.  Gate (exit 1, naming the
// row): the scheduled steps stay within 2 (T + W/p) at every p.
#include <cstdio>

#include "nsc/prelude.hpp"
#include "pram/pram.hpp"
#include "sa/compile.hpp"
#include "support/table.hpp"

int main() {
  using namespace nsc;
  namespace P = nsc::lang::prelude;
  std::printf(
      "E6: Prop 3.2 -- CREW PRAM with scans, p-processor schedule\n"
      "claim: simulated time = O(T + W/p)\n\n");

  auto program = sa::compile_nsc(P::sum_nats());
  std::vector<std::uint64_t> v(1 << 12, 3);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  auto result = bvram::run(program, {v}, cfg);
  std::printf("workload: sum of 4096 naturals; T=%llu, W=%llu\n\n",
              static_cast<unsigned long long>(result.cost.time),
              static_cast<unsigned long long>(result.cost.work));

  Table t({"p", "scheduled steps", "T + W/p bound", "sched/bound"});
  bool ok = true;
  for (std::size_t p : {1u, 2u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const auto sched = pram::scheduled_time(result.trace, p);
    const auto bound =
        pram::brent_bound(result.cost.time, result.cost.work, p);
    t.row({Table::num(p), Table::num(sched), Table::num(bound),
           Table::fixed(static_cast<double>(sched) / bound, 2)});
    if (sched > 2 * bound) {
      std::fprintf(stderr, "FAIL: p=%zu: %llu scheduled steps > 2 (T + W/p)\n",
                   p, static_cast<unsigned long long>(sched));
      ok = false;
    }
  }
  t.print();
  std::printf(
      "\nreading: scheduled steps track T + W/p within a constant across\n"
      "a 4096x processor sweep: work-bound for small p, time-bound (the\n"
      "critical path) once p ~ W/T.\n");
  return ok ? 0 : 1;
}
