#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/provenance.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The layer self times must add up to the untraced operation time within
/// this share.  Span bookkeeping adds its own time, so the band is not
/// symmetric in practice; it is stated symmetric to keep one number.
constexpr double kAccountTolerance = 0.2;

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void LayerSums::put(Report& rep) const {
  const auto self = [&](const char* name) -> std::uint64_t {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second;
  };
  const std::uint64_t lex = self("front.lex");
  const std::uint64_t parse = self("front.parse");
  rep.put("front.lex_ms", ms(lex), "ms");
  // front::parse_module lexes internally: its own share is the span minus
  // the separately timed lex of the same text.
  rep.put("front.parse_ms", ms(parse > lex ? parse - lex : 0), "ms");
  rep.put("front.resolve_ms", ms(self("front.resolve")), "ms");
  rep.put("front.tokens", static_cast<double>(tokens), "tokens");
  rep.put("nsa.from_nsc_ms", ms(self("nsa.from_nsc")), "ms");
  rep.put("sa.flatten_ms", ms(self("sa.flatten")), "ms");
  rep.put("sa.instrs_o0", static_cast<double>(instrs_o0), "instructions");
  rep.put("sa.encode_ms", ms(self("sa.encode")), "ms");
  rep.put("sa.decode_ms", ms(self("sa.decode")), "ms");
  rep.put("opt.optimize_ms", ms(self("opt.optimize")), "ms");
  for (const char* pass :
       {"copy-prop", "gvn", "licm", "peephole", "dce", "reg-compact"}) {
    const std::string span = std::string("opt.pass.") + pass;
    rep.put(span + "_ms", ms(self(span.c_str())), "ms");
  }
  rep.put("opt.rounds", static_cast<double>(rounds), "rounds");
  rep.put("opt.instrs_o2", static_cast<double>(instrs_o2), "instructions");
  rep.put("opt.regs_o2", static_cast<double>(regs_o2), "registers");
  rep.put("opt.last_use_ms", ms(self("opt.last_use")), "ms");
  rep.put("opt.fusion_ms", ms(self("opt.fusion")), "ms");
  rep.put("bvram.run_ms_small", ms(run_ns_small), "ms");
  rep.put("bvram.run_ms_large", ms(run_ns_large), "ms");
  rep.put("bvram.ns_per_W_small",
          W_small == 0 ? 0.0 : static_cast<double>(run_ns_small) / W_small,
          "ns/W");
  rep.put("bvram.ns_per_W_large",
          W_large == 0 ? 0.0 : static_cast<double>(run_ns_large) / W_large,
          "ns/W");
}

void put_trace_accounting(Report& rep, double layers_ns, double traced_ns,
                          double untraced_ns, const char* what) {
  const double overhead = untraced_ns > 0 ? traced_ns / untraced_ns - 1 : 0;
  const double accounted = untraced_ns > 0 ? layers_ns / untraced_ns : 0;
  std::printf(
      "trace accounting (%s): layers %.3f ms, traced %.3f ms, untraced "
      "%.3f ms; accounted %.3f (tolerance +-%.2f), tracing overhead %+.2f%%\n",
      what, layers_ns / 1e6, traced_ns / 1e6, untraced_ns / 1e6, accounted,
      kAccountTolerance, 100 * overhead);
  if (std::fabs(accounted - 1) > kAccountTolerance) {
    std::printf("FAIL: layer self times do not account for the untraced time\n");
    rep.correct = false;
  }
  rep.put("trace.overhead_frac", overhead, "fraction");
  rep.put("trace.accounted_frac", accounted, "fraction");
}

void write_trace(const Context& ctx, const Tracer& t) {
  const std::filesystem::path path(ctx.trace_path);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + ctx.trace_path);
  const std::string meta = "{\"workload\": \"" + ctx.workload +
                           "\", \"seed\": " + std::to_string(ctx.seed) +
                           ", \"provenance\": " +
                           nsc::obs::Provenance::collect().to_json() + "}";
  t.write_chrome(out, meta);
  std::printf("wrote %s (%zu spans)\n", ctx.trace_path.c_str(),
              t.spans().size());
}

}  // namespace perfbench
