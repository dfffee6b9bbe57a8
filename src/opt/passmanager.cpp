#include <chrono>
#include <sstream>
#include <utility>

#include "opt/opt.hpp"

namespace nsc::opt {

void PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

PipelineStats PassManager::run(bvram::Program& p, std::size_t max_rounds) {
  PipelineStats stats;
  stats.instrs_before = p.code.size();
  stats.regs_before = p.num_regs;
  for (const auto& pass : passes_) {
    stats.passes.push_back(PassStats{pass->name(), 0, 0});
  }

  // Passes rewrite code, so any existing last-use annotation is about to
  // go stale; drop it here rather than asking every pass to.  Callers
  // re-annotate after the pipeline (sa::compile_nsa does).
  p.last_use.clear();

  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };
  const Clock::time_point pipeline_start = Clock::now();

  verify(p);
  bool changed = true;
  while (changed && stats.rounds < max_rounds) {
    changed = false;
    ++stats.rounds;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      const std::size_t before = p.code.size();
      const Clock::time_point pass_start = Clock::now();
      const bool ran = passes_[i]->run(p);
      stats.passes[i].wall_ns += ns_since(pass_start);
      if (!ran) continue;
      if (verify_between_) verify(p);
      stats.passes[i].applications += 1;
      stats.passes[i].instrs_removed += before - p.code.size();
      changed = true;
    }
  }

  stats.instrs_after = p.code.size();
  stats.regs_after = p.num_regs;
  stats.wall_ns = ns_since(pipeline_start);
  return stats;
}

std::string PipelineStats::show() const {
  std::ostringstream out;
  out << "instrs " << instrs_before << " -> " << instrs_after << ", regs "
      << regs_before << " -> " << regs_after << " (" << rounds << " rounds";
  for (const auto& ps : passes) {
    if (ps.applications == 0) continue;
    out << "; " << ps.name << " x" << ps.applications << " -"
        << ps.instrs_removed;
  }
  out << ")";
  return out.str();
}

PipelineStats optimize(bvram::Program& p, OptLevel level) {
  if (level == OptLevel::O0) {
    verify(p);
    PipelineStats stats;
    stats.instrs_before = stats.instrs_after = p.code.size();
    stats.regs_before = stats.regs_after = p.num_regs;
    return stats;
  }
  PassManager pm;
  if (level == OptLevel::O1) {
    // One cleanup round.  GVN rides along because the peephole's local
    // CSE moved there: without it O1 would have lost the redundant-
    // recomputation folding it always had.
    pm.add(make_gvn());
    pm.add(make_peephole());
    pm.add(make_dce());
    return pm.run(p, /*max_rounds=*/1);
  }
  pm.add(make_copy_prop());
  pm.add(make_gvn());
  pm.add(make_licm());
  pm.add(make_peephole());
  pm.add(make_dce());
  pm.add(make_reg_compact());
  return pm.run(p);
}

}  // namespace nsc::opt
