// perfbench: the nscc benchmark.
//
//   perfbench --workload compile|execute --seed N --seconds S
//             --trace 0|1 [--root DIR] [--trace-out FILE]
//
// Prints per-program rows and provenance, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics for --trace 0, the per-layer metrics for
// --trace 1.  Exits nonzero without that line when the run cannot
// complete; a run whose outputs disagree with the references still prints
// it, with "correct": false.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile|execute --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string("bad ") + flag).c_str());
  return v;
}

Context parse_args(int argc, char** argv) {
  Context ctx;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      ctx.workload = v;
    } else if (a == "--seed") {
      ctx.seed = parse_u64(v, "--seed");
      have_seed = true;
    } else if (a == "--seconds") {
      ctx.seconds = static_cast<double>(parse_u64(v, "--seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      ctx.trace = parse_u64(v, "--trace") != 0;
    } else if (a == "--root") {
      ctx.root = v;
    } else if (a == "--trace-out") {
      ctx.trace_path = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (ctx.workload != "compile" && ctx.workload != "execute") {
    usage("--workload must be compile or execute");
  }
  if (!have_seed || !have_seconds) usage("--seed and --seconds are required");
  if (ctx.seconds < 1) usage("--seconds must be at least 1");
  if (ctx.trace_path.empty()) {
    ctx.trace_path = ".bench_build/trace-" + ctx.workload + "-seed" +
                     std::to_string(ctx.seed) + ".json";
  }
  return ctx;
}

/// The printed metric names must be exactly the declared set.
bool complete(const Report& rep, const std::vector<std::string>& names) {
  std::set<std::string> want(names.begin(), names.end());
  std::set<std::string> got;
  for (const Metric& m : rep.metrics) got.insert(m.name);
  for (const std::string& n : want) {
    if (got.count(n) == 0) std::fprintf(stderr, "missing metric %s\n", n.c_str());
  }
  for (const std::string& n : got) {
    if (want.count(n) == 0) std::fprintf(stderr, "undeclared metric %s\n", n.c_str());
  }
  return want == got && got.size() == rep.metrics.size();
}

}  // namespace

int main(int argc, char** argv) {
  const Context ctx = parse_args(argc, argv);
  try {
    print_provenance(ctx);
    const std::vector<CorpusProgram> corpus = load_corpus(ctx.root);
    Report rep = ctx.workload == "compile" ? run_compile(ctx, corpus)
                                           : run_execute(ctx, corpus);
    if (!complete(rep, ctx.trace ? per_layer_names() : end_to_end_names())) {
      std::fprintf(stderr, "perfbench: metric set does not match\n");
      return 1;
    }
    std::printf("operations %llu, failed %llu (failed_frac %.6f)\n",
                static_cast<unsigned long long>(rep.tally.attempted),
                static_cast<unsigned long long>(rep.tally.failed),
                rep.tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(rep.tally.failed) /
                          static_cast<double>(rep.tally.attempted));
    if (rep.tally.attempted == 0) {
      std::fprintf(stderr, "perfbench: no operation completed\n");
      return 1;
    }
    std::printf("%s\n", rep.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
