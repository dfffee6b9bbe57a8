#include "opt/liveness.hpp"

#include <algorithm>

#include "opt/opt.hpp"

namespace nsc::opt {

using bvram::Instr;
using bvram::Program;

Liveness Liveness::compute(const Program& p, const Cfg& cfg) {
  const std::size_t nb = cfg.blocks.size();
  Liveness lv;
  lv.live_in.assign(nb, RegSet(p.num_regs));

  // Postorder of the reachable blocks, then the unreachable ones (their
  // live sets never flow into reachable code, but live_in covers every
  // block).
  std::vector<std::size_t> order(cfg.rpo.rbegin(), cfg.rpo.rend());
  for (std::size_t b = nb; b-- > 0;) {
    if (!cfg.reached(b)) order.push_back(b);
  }
  OrderedWorklist work(order, nb);
  for (std::size_t b : order) work.push(b);
  for (std::size_t b = work.pop(); b != kNoBlock; b = work.pop()) {
    RegSet live = lv.live_out_of(p, cfg, b);
    for (std::size_t i = cfg.blocks[b].end; i-- > cfg.blocks[b].begin;) {
      const Instr& in = p.code[i];
      if (in.has_dst()) live.reset(in.dst);
      for (std::uint32_t r : in.srcs()) live.set(r);
    }
    if (live != lv.live_in[b]) {
      lv.live_in[b] = std::move(live);
      for (std::size_t pred : cfg.blocks[b].preds) work.push(pred);
    }
  }
  return lv;
}

RegSet Liveness::live_out_of(const Program& p, const Cfg& cfg,
                             std::size_t b) const {
  RegSet live(p.num_regs);
  if (cfg.blocks[b].falls_to_exit) {
    const std::size_t outs = std::min(p.num_outputs, p.num_regs);
    for (std::size_t r = 0; r < outs; ++r) {
      live.set(static_cast<std::uint32_t>(r));
    }
  }
  for (std::size_t succ : cfg.blocks[b].succs) live |= live_in[succ];
  return live;
}

std::vector<std::uint8_t> compute_last_use(const Program& p) {
  // Hand-assembled programs arrive unverified, and the live sets below
  // are indexed by register number.
  verify_code(p);
  std::vector<std::uint8_t> mask(p.code.size(), 0);
  if (p.code.empty() || p.num_regs == 0) return mask;
  const Cfg cfg = Cfg::build(p);
  const Liveness lv = Liveness::compute(p, cfg);

  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (!cfg.reached(b)) continue;  // never executed; leave all-clear
    RegSet live = lv.live_out_of(p, cfg, b);
    for (std::size_t i = cfg.blocks[b].end; i-- > cfg.blocks[b].begin;) {
      const Instr& in = p.code[i];
      // `live` is the live-after set of instruction i.  A source register
      // that is dead here (note: if it doubles as dst, liveness of the
      // *new* value keeps the bit clear) may be recycled by the engine,
      // and so may a destination that is dead here: its result is never
      // read.
      const auto srcs = in.srcs();
      std::uint8_t m = 0;
      for (std::size_t k = 0; k < srcs.n; ++k) {
        if (!live.test(srcs.regs[k])) m |= static_cast<std::uint8_t>(1u << k);
      }
      if (in.has_dst() && !live.test(in.dst)) m |= bvram::kDeadResult;
      mask[i] = m;
      if (in.has_dst()) live.reset(in.dst);
      for (std::uint32_t r : in.srcs()) live.set(r);
    }
  }
  return mask;
}

void annotate_last_use(Program& p) { p.last_use = compute_last_use(p); }

}  // namespace nsc::opt
