// The two workloads.  Each runs for Context::seconds after its set-up,
// checks every output against a reference, and fills a Report with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

/// Cold requests, round-robin over the corpus: source text -> frontend ->
/// unit + lifted O2 programs -> every declared input answered.
Report run_compile(const Context& ctx, const std::vector<CorpusProgram>& corpus);

/// Unit programs compiled in set-up, then encode -> bvram::run -> decode
/// at 2^12 (L2-resident) and 2^18 (2 MiB registers) elements.
Report run_execute(const Context& ctx, const std::vector<CorpusProgram>& corpus);

/// A short run of one Service with 2 workers at the end of every traced
/// run, so every traced run reports the serve-layer metrics from a real
/// run: an open-loop Poisson phase, then a closed-loop saturation phase.
void serve_layer_probe(const Context& ctx,
                       const std::vector<CorpusProgram>& corpus, Report& rep);

/// Per-layer self times (ns) summed by span name, plus the counts a
/// traced workload collects, turned into the per-layer metrics shared by
/// every workload (front, nsa, sa, opt and the run-size bvram metrics).
struct LayerSums {
  std::map<std::string, std::uint64_t> self_ns;
  std::uint64_t tokens = 0, instrs_o0 = 0, rounds = 0, instrs_o2 = 0,
                regs_o2 = 0;
  std::uint64_t run_ns_small = 0, run_ns_large = 0;
  std::uint64_t W_small = 0, W_large = 0;
  void add_counts(std::uint64_t t, std::uint64_t i0, std::uint64_t r,
                  std::uint64_t i2, std::uint64_t g2) {
    tokens += t;
    instrs_o0 += i0;
    rounds += r;
    instrs_o2 += i2;
    regs_o2 += g2;
  }
  void put(Report& rep) const;
};

/// Records the overhead and accounting of a traced run and fails the
/// report when the layers do not account for the untraced time.
/// `layers_ns`: summed self time of every layer span; `traced_ns`: summed
/// traced operation time; `untraced_ns`: summed untraced operation time.
void put_trace_accounting(Report& rep, double layers_ns, double traced_ns,
                          double untraced_ns, const char* what);

/// Writes the Chrome trace of a traced run.
void write_trace(const Context& ctx, const Tracer& t);

}  // namespace perfbench
