// Global copy propagation + move coalescing.
//
// Forward must-dataflow over the CFG (the shared ForwardDataflow
// driver).  Only registers that are the destination of some Move can
// ever carry a copy fact, so the dataflow state is a vector over those
// "slots" only (naive compiled programs are huge but move-sparse, and
// this keeps the pass linear-ish instead of O(instructions x
// registers)).  Each slot holds the register its value is currently a
// verbatim copy of (resolved to the ultimate source, so move chains
// collapse in one rewrite), or NONE.  Meet is elementwise agreement.
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
// `V_i <- V_i` are dropped by the peephole pass.
#include <cstdint>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/opt.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;

constexpr std::uint32_t kNone = 0xffffffff;
constexpr std::uint32_t kNoSlot = 0xffffffff;

using State = std::vector<std::uint32_t>;  // slot -> copy-of reg, or kNone

struct CopyDomain {
  const std::vector<std::uint32_t>* slot_of = nullptr;
  /// reg -> it is the source of some Move.  Facts are resolved Move
  /// sources, so these are the only registers a fact can name.
  const std::vector<bool>* is_move_src = nullptr;
  std::uint32_t num_slots = 0;

  State entry() const { return State(num_slots, kNone); }
  State unreached() const { return State(num_slots, kNone); }

  void meet_into(State& a, const State& b) const {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) a[i] = kNone;
    }
  }

  std::uint32_t resolve(const State& s, std::uint32_t r) const {
    const std::uint32_t slot = (*slot_of)[r];
    if (slot == kNoSlot || s[slot] == kNone) return r;
    return s[slot];
  }

  /// Apply one instruction's effect to the copy state.
  void transfer(const Instr& in, State& s) const {
    if (!in.has_dst()) return;
    if (in.op == Op::Move) {
      const std::uint32_t src = resolve(s, in.a);
      if (src == in.dst) return;  // re-writing dst with its own value: no-op
      kill(s, in.dst);
      s[(*slot_of)[in.dst]] = src;  // Move dsts always have a slot
      return;
    }
    kill(s, in.dst);
  }

  /// Invalidate every fact involving register `r` (it is being redefined).
  void kill(State& s, std::uint32_t r) const {
    if ((*is_move_src)[r]) {
      for (auto& e : s) {
        if (e == r) e = kNone;
      }
    }
    const std::uint32_t slot = (*slot_of)[r];
    if (slot != kNoSlot) s[slot] = kNone;
  }
};

class CopyProp final : public Pass {
 public:
  const char* name() const override { return "copy-prop"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;

    // Slot assignment: one dataflow cell per Move destination.
    std::vector<std::uint32_t> slot_of(p.num_regs, kNoSlot);
    std::vector<bool> is_move_src(p.num_regs, false);
    CopyDomain dom;
    dom.slot_of = &slot_of;
    dom.is_move_src = &is_move_src;
    for (const Instr& in : p.code) {
      if (in.op != Op::Move) continue;
      if (slot_of[in.dst] == kNoSlot) slot_of[in.dst] = dom.num_slots++;
      is_move_src[in.a] = true;
    }
    if (dom.num_slots == 0) return false;

    const Cfg cfg = Cfg::build(p);
    const ForwardDataflow<State, CopyDomain> flow(p, cfg, dom);

    // Rewrite every use to its resolved source under the block's in-state.
    bool changed = false;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      State s = flow.in_state_of(b);
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
