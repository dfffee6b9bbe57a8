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
#include <cstdint>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;

class Dce final : public Pass {
 public:
  const char* name() const override { return "dce"; }

  bool run(Program& p) override {
    if (p.code.empty()) return false;
    const Cfg cfg = Cfg::build(p);
    const std::size_t nb = cfg.blocks.size();
    const Liveness lv = Liveness::compute(p, cfg);

    // Removal walk: backward per block with the precise local live set
    // (uses of instructions removed in this very walk generate no
    // liveness).
    std::vector<bool> keep(p.code.size(), true);
    bool changed = false;
    for (std::size_t b = 0; b < nb; ++b) {
      if (!cfg.reached(b)) {
        for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
          keep[i] = false;
          changed = true;
        }
        continue;
      }
      RegSet live = lv.live_out_of(p, cfg, b);
      for (std::size_t i = cfg.blocks[b].end; i-- > cfg.blocks[b].begin;) {
        const Instr& in = p.code[i];
        // A Goto to the next instruction, and a Halt that ends the code
        // (falling off the end halts), do nothing.
        const bool no_op = (in.op == Op::Goto && in.target == i + 1) ||
                           (in.op == Op::Halt && i + 1 == p.code.size());
        if (no_op ||
            (in.has_dst() && !live.test(in.dst) && !in.can_trap())) {
          keep[i] = false;
          changed = true;
          continue;
        }
        if (in.has_dst()) live.reset(in.dst);
        for (std::uint32_t r : in.srcs()) live.set(r);
      }
    }

    const bool erased = erase_unkept(p, keep);
    return changed || erased;
  }
};

}  // namespace

std::unique_ptr<Pass> make_dce() { return std::make_unique<Dce>(); }

}  // namespace nsc::opt
