// Global copy propagation + move coalescing.
//
// Forward must-dataflow over the CFG (the shared ForwardDataflow
// solver) over the slot domain of opt/copyprop.hpp: each Move
// destination holds the register its value is currently a verbatim copy
// of, or nothing.
//
// The fixpoint depends on visit order, because the Move transfer is not
// monotone: `d <- s` records d = s when s carries no fact, but d = s'
// when s is known to copy s' -- a different fact, not a weaker one.  A
// block first visited with a fact that holds on only one of its paths
// can thus push a fact into a loop that later meets the loop-entry fact
// at the header, and the loop then holds itself at NONE.  Every
// fixpoint is sound (each fact survives every edge into its block);
// they differ only in which copies they keep.  The shared worklist
// visits blocks in reverse postorder, so a join is first reached with
// all of its forward predecessors computed and a loop header first sees
// exactly its entry facts; it keeps every loop-entry copy that the
// back edges preserve.
//
// Rewriting a use of a copy to its original register never changes any
// executed value or length, so T, W, and trap behavior are untouched;
// the payoff is that the compiler's staging moves lose their last use
// and die in the following DCE pass, and moves rewritten into
// `V_i <- V_i` are dropped by GVN.
#include <cstdint>

#include "opt/cfg.hpp"
#include "opt/copyprop.hpp"
#include "opt/opt.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Program;

class CopyProp final : public Pass {
 public:
  const char* name() const override { return "copy-prop"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;

    const CopyDomain dom(p);
    if (dom.num_slots == 0) return false;

    const Cfg cfg = Cfg::build(p);
    const ForwardDataflow<CopyDomain::State, CopyDomain> flow(p, cfg, dom);

    // Rewrite every use to its resolved source under the block's in-state.
    bool changed = false;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      CopyDomain::State s = flow.in_state_of(b);
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        Instr& in = p.code[i];
        in.map_srcs([&](std::uint32_t r) {
          const std::uint32_t nr = dom.resolve(s, r);
          if (nr != r) changed = true;
          return nr;
        });
        dom.transfer(in, s);
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_copy_prop() { return std::make_unique<CopyProp>(); }

}  // namespace nsc::opt
