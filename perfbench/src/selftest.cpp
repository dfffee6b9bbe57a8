// Self-tests for the benchmark's own parts:
//   * the generators are deterministic per seed (and differ across seeds);
//   * the native references equal the evaluator across a sweep of seeds
//     and small sizes, empty inputs included, and on the declared inputs;
//   * the failure accounting counts a planted wrong output, an unexpected
//     trap and a rejected request.
//
//   perfbench_selftest [--root DIR]     (exit 0 = all passed)
#include <cstdio>
#include <cstring>
#include <string>

#include "gen.hpp"
#include "harness.hpp"
#include "native.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void generators_are_deterministic() {
  for (const std::string& name : program_names()) {
    for (std::size_t n : {0, 1, 4, 37, 64, 1000}) {
      const auto a = generate(name, 7, n);
      const auto b = generate(name, 7, n);
      check(nsc::Value::equal(a, b),
            name + ": same seed, different input at n=" + std::to_string(n));
    }
    check(!nsc::Value::equal(generate(name, 7, 1000), generate(name, 8, 1000)),
          name + ": seeds 7 and 8 give the same input");
  }
  check(nsc::Value::equal(generate("trap_division", 3, 64, true),
                          generate("trap_division", 3, 64, true)),
        "trap_division: empty-segment input not deterministic");
}

void natives_match_the_evaluator(const std::vector<CorpusProgram>& corpus) {
  std::size_t cases = 0;
  for (const CorpusProgram& p : corpus) {
    std::vector<nsc::ValueRef> args = declared_inputs(p.module);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      for (std::size_t n : {0, 1, 2, 3, 4, 9, 16, 17, 64, 200}) {
        args.push_back(generate(p.name, seed, n));
      }
      if (p.name == "trap_division") {
        args.push_back(generate(p.name, seed, 16, true));
      }
    }
    for (const nsc::ValueRef& arg : args) {
      ++cases;
      check(same_outcome(native_reference(p.name, arg), evaluate(p.main(), arg)),
            p.name + ": native reference differs from the evaluator on " +
                arg->show().substr(0, 200));
    }
  }
  std::printf("native references: %zu cases\n", cases);
}

void failure_accounting(const std::vector<CorpusProgram>& corpus) {
  const nsc::ValueRef three = nsc::Value::nat_seq({1, 2, 3});
  const Outcome expected{false, three};
  const Outcome expected_trap{true, nullptr};

  Tally t;
  check(t.add(expected, {Observed::Kind::Value, nsc::Value::nat_seq({1, 2, 3})}),
        "a correct value counted as failed");
  check(!t.add(expected, {Observed::Kind::Value, nsc::Value::nat_seq({1, 2, 4})}),
        "a planted wrong output counted as correct");
  check(!t.add(expected, {Observed::Kind::Trap, nullptr}),
        "an unexpected trap counted as correct");
  check(t.add(expected_trap, {Observed::Kind::Trap, nullptr}),
        "an expected trap counted as failed");
  check(!t.add(expected_trap, {Observed::Kind::Value, three}),
        "a missing trap counted as correct");
  check(!t.add(expected, {Observed::Kind::FuelExhausted, nullptr}),
        "fuel exhaustion counted as correct");
  check(t.attempted == 6 && t.failed == 4,
        "tally is " + std::to_string(t.failed) + "/" + std::to_string(t.attempted) +
            ", want 4/6");

  // A request the service really rejects: queue limit 1, workers paused.
  nsc::serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 1;
  nsc::serve::Service svc(cfg);
  const CorpusProgram& q = corpus.front();
  const auto prog = svc.load(q.name, q.text);
  const nsc::ValueRef arg = generate(q.name, 1, 8);
  const Outcome ref = evaluate(q.main(), arg);
  svc.pause();
  auto first = svc.submit(prog, arg);
  auto second = svc.submit(prog, arg);
  Tally r;
  r.add(ref, observed_from(second.get()));
  svc.resume();
  r.add(ref, observed_from(first.get()));
  check(r.attempted == 2 && r.failed == 1,
        "rejected request: tally is " + std::to_string(r.failed) + "/" +
            std::to_string(r.attempted) + ", want 1/2");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0) root = argv[++i];
  }
  try {
    const std::vector<CorpusProgram> corpus = load_corpus(root);
    generators_are_deterministic();
    natives_match_the_evaluator(corpus);
    failure_accounting(corpus);
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    return 1;
  }
  std::printf(failures == 0 ? "perfbench self-tests: all passed\n"
                            : "perfbench self-tests: %d failed\n",
              failures);
  return failures == 0 ? 0 : 1;
}
