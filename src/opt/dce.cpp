// Dead-code elimination: unreachable blocks, plus liveness-based removal
// of instructions whose destination register is never read again.
//
// Liveness (opt/liveness.hpp, shared with the engine's last-use export)
// is a backward may-dataflow on the fixed register file; the boundary
// condition is that V_0 .. V_{num_outputs-1} are live wherever control
// can leave the program (Halt, a jump to code.size(), or falling off
// the end).  An instruction is removed only if it defines a dead
// register AND cannot trap: Arith and the routing instructions double
// as the compiler's runtime certificates (zip length checks, the Omega
// trap is literally an Arith of [1] with []), so they survive even when
// their result is dead.  Their result stays unread, so the last-use
// export marks it (bvram::kDeadResult) and the engine runs each such
// survivor as its checks alone, with no output buffer.
//
// One run reaches dce's own fixpoint.  A removed instruction frees the
// registers it read, and only a freed register can lose liveness, so each
// def of one is then checked by a forward search for a read of its value;
// a dead one goes too and frees its own reads.  The code is erased once.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;

/// Whether the value instruction d writes may be read: a path from d
/// reaches a kept read of its register before a kept redefinition, or
/// leaves the program while the register is an output.
bool read_later(const Program& p, const Cfg& cfg,
                const std::vector<bool>& keep, std::size_t d) {
  const std::uint32_t r = p.code[d].dst;
  std::vector<bool> seen(cfg.blocks.size(), false);
  std::vector<std::size_t> work;
  for (std::size_t b = cfg.block_of[d], i = d + 1;; i = cfg.blocks[b].begin) {
    for (; i < cfg.blocks[b].end; ++i) {
      if (!keep[i]) continue;
      const auto srcs = p.code[i].srcs();
      if (std::find(srcs.begin(), srcs.end(), r) != srcs.end()) return true;
      if (p.code[i].has_dst() && p.code[i].dst == r) break;
    }
    if (i == cfg.blocks[b].end) {
      if (cfg.blocks[b].falls_to_exit && r < p.num_outputs) return true;
      for (std::size_t s : cfg.blocks[b].succs) {
        if (!seen[s]) work.push_back(s);
        seen[s] = true;
      }
    }
    if (work.empty()) return false;
    b = work.back();
    work.pop_back();
  }
}

class Dce final : public Pass {
 public:
  const char* name() const override { return "dce"; }

  bool run(Program& p) override {
    if (p.code.empty()) return false;
    const Cfg cfg = Cfg::build(p);
    const std::size_t n = p.code.size();
    const Liveness lv = Liveness::compute(p, cfg);

    // Removal walk: backward per block with the precise local live set
    // (uses of instructions removed in this very walk generate no
    // liveness).  Each register a removed instruction read is freed.
    std::vector<bool> keep(n, true);
    std::vector<std::uint32_t> freed;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (!cfg.reached(b)) {
        std::fill(keep.begin() + cfg.blocks[b].begin,
                  keep.begin() + cfg.blocks[b].end, false);
        continue;
      }
      RegSet live = lv.live_out_of(p, cfg, b);
      for (std::size_t i = cfg.blocks[b].end; i-- > cfg.blocks[b].begin;) {
        const Instr& in = p.code[i];
        if (in.has_dst() && !live.test(in.dst) && !in.can_trap()) {
          keep[i] = false;
          for (std::uint32_t r : in.srcs()) freed.push_back(r);
          continue;
        }
        if (in.has_dst()) live.reset(in.dst);
        for (std::uint32_t r : in.srcs()) live.set(r);
      }
    }

    while (!freed.empty()) {
      RegSet check(p.num_regs);
      for (std::uint32_t r : std::exchange(freed, {})) check.set(r);
      for (std::size_t i = 0; i < n; ++i) {
        const Instr& in = p.code[i];
        if (keep[i] && in.has_dst() && check.test(in.dst) && !in.can_trap() &&
            !read_later(p, cfg, keep, i)) {
          keep[i] = false;
          for (std::uint32_t r : in.srcs()) freed.push_back(r);
        }
      }
    }

    // A Goto to the next kept instruction, and a Halt with none after it
    // (falling off the end halts), do nothing.
    for (std::size_t i = n, next = n; i-- > 0;) {
      const Instr& in = p.code[i];
      const bool to_next = in.target > i && next >= in.target;
      keep[i] = keep[i] && !(in.op == Op::Goto && to_next) &&
                !(in.op == Op::Halt && next == n);
      if (keep[i]) next = i;
    }
    return erase_unkept(p, keep);
  }
};

}  // namespace

std::unique_ptr<Pass> make_dce() { return std::make_unique<Dce>(); }

}  // namespace nsc::opt
