// Loop-invariant code motion over the natural-loop forest.
//
// The flattening compiler's while loops re-derive per-iteration values
// that only depend on registers the loop never writes: the LoadConsts
// feeding every catalog helper, and -- the headline case from the
// ROADMAP -- the ones_like broadcast (LoadConst 1, Length(x), bm-route
// of the constant over x) that eq_bits / inv_bits / ConstNat emit inside
// the loop body of every WhileSchedule; tests/corpus/count_to.nsc's
// `while ...; fst(s) != snd(s); ...` is the shape.  This pass hoists such
// instructions into the loop preheader: the code inserted immediately
// before the loop header, which entry edges flow through and back edges
// skip (cfg.hpp's insert_before).
//
// An instruction i (defining d, in loop L) is hoisted when:
//   * every source register has no definition inside L, or only
//     definitions that are themselves hoisted (the closure is computed
//     iteratively; the preheader emits hoisted instructions in the order
//     they were admitted, so dependencies execute first);
//   * d has exactly one definition inside L (i itself) and is not
//     live into the header: no path from the header reads d before
//     writing it, so neither the zero-trip exit nor any in-loop use can
//     observe the pre-loop value the preheader definition replaces;
//   * i's block dominates every loop exit, so every terminating entry
//     into the loop executed i at least once before -- the hoisted copy
//     executes exactly once per entry, and the executed T and W can
//     only shrink (no speculation: an instruction that might not have
//     run is never moved to where it always runs);
//   * every back edge is an explicit jump (a fall-through back edge
//     would re-run the preheader each iteration);
//   * i cannot trap, or i is the broadcast route below.
//
// The one trap certificate.  The optimizer keeps every trap, so a
// trap-capable instruction (Instr::can_trap()) stays where it is, just as
// dce never deletes one -- except bm-route(m, bound, counts, data) when
// counts' one in-loop definition is Length(bound) and data's one in-loop
// definition is a LoadConst.  The route's sources have no in-loop
// definition left, so the closure has already hoisted both into this
// preheader ahead of it; the bound has none left either (one it had was
// hoisted before the Length could be), so the preheader's Length
// measures the very bound the route reads.  Hence sum(counts) =
// |bound| and |counts| = 1 = |data| there, and the hoisted route cannot
// trap.  (counts is never the bound itself: a Length(y, y) reads its own
// in-loop definition, so it never hoists.)  Because hoisted instructions
// cannot trap, moving them earlier cannot introduce a trap or reorder
// one, and invariance makes the preheader execution produce
// bit-identical values to every in-loop execution.
#include <algorithm>
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

constexpr std::size_t kNoInstr = static_cast<std::size_t>(-1);

class Licm final : public Pass {
 public:
  const char* name() const override { return "licm"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;
    const Cfg cfg = Cfg::build(p);
    const DomTree dom = DomTree::build(cfg);
    const LoopForest loops = LoopForest::build(cfg, dom);
    if (loops.loops.empty()) return false;
    const Liveness lv = Liveness::compute(p, cfg);

    const std::size_t n = p.code.size();
    std::vector<bool> hoisted(n, false);  // global, across all loops
    // For each instruction index: the instructions to insert before it
    // (preheader runs keyed by the header's begin index).
    std::vector<std::vector<Instr>> ins(n);
    std::vector<bool> land_after(n, false);
    bool any = false;

    // Process loops outermost-first so an instruction invariant in an
    // outer loop leaves it entirely in one pass; whatever is only
    // invariant deeper hoists to the inner preheader (still inside the
    // outer loop) and may bubble further out on the next pipeline round.
    // Two natural loops are disjoint or nested, and a loop has more
    // blocks than every loop nested in it, so larger loops go first.
    std::vector<std::size_t> order(loops.loops.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return loops.loops[a].blocks.size() > loops.loops[b].blocks.size();
    });

    for (std::size_t li : order) {
      hoist_loop(p, cfg, dom, lv, loops.loops[li], hoisted, ins, land_after,
                 any);
    }
    if (!any) return false;

    std::vector<std::size_t> new_index;
    insert_before(p, ins, land_after, &new_index);
    std::vector<bool> keep(p.code.size(), true);
    for (std::size_t i = 0; i < n; ++i) {
      if (hoisted[i]) keep[new_index[i]] = false;
    }
    erase_unkept(p, keep);
    return true;
  }

 private:
  void hoist_loop(const Program& p, const Cfg& cfg, const DomTree& dom,
                  const Liveness& lv, const Loop& loop,
                  std::vector<bool>& hoisted,
                  std::vector<std::vector<Instr>>& ins,
                  std::vector<bool>& land_after, bool& any) {
    const std::size_t header_begin = cfg.blocks[loop.header].begin;

    // Every back edge must be an explicit jump onto the header; collect
    // the jump indices so insert_before can route them past the
    // preheader code.
    std::vector<std::size_t> back_jumps;
    for (std::size_t latch : loop.latches) {
      const std::size_t last = cfg.blocks[latch].end - 1;
      const Instr& j = p.code[last];
      if (j.is_jump() && j.target == header_begin) {
        back_jumps.push_back(last);
        // A conditional back edge's fall-through leaves the loop or
        // stays inside it; either way it does not re-enter the header,
        // so routing only the jump target is enough.
        continue;
      }
      return;  // fall-through back edge: preheader would run per iteration
    }

    // Irreducibility guard: every in-loop edge onto the header must be a
    // back edge (its source a latch).  A non-dominated jump back to the
    // header would traverse the preheader once per pass, which could
    // re-execute hoisted code more often than the loop body did.
    std::vector<bool> is_latch(cfg.blocks.size(), false);
    for (std::size_t l : loop.latches) is_latch[l] = true;
    for (std::size_t b : loop.blocks) {
      for (std::size_t s : cfg.blocks[b].succs) {
        if (s == loop.header && !is_latch[b]) return;
      }
    }

    // Definition counts within the loop, each register's one in-loop
    // definition (kNoInstr when it has none or several), and membership
    // of instructions.
    std::vector<std::size_t> defs_in_loop(p.num_regs, 0);
    std::vector<std::size_t> loop_def(p.num_regs, kNoInstr);
    std::vector<std::size_t> loop_instrs;
    for (std::size_t b : loop.blocks) {
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        if (hoisted[i]) continue;  // already moved out by an outer loop
        loop_instrs.push_back(i);
        if (!p.code[i].has_dst()) continue;
        const std::uint32_t d = p.code[i].dst;
        loop_def[d] = ++defs_in_loop[d] == 1 ? i : kNoInstr;
      }
    }

    // Called once i's sources have no in-loop definition left, so a
    // source's one in-loop definition is already in this preheader.
    auto cannot_trap = [&](const Instr& in) {
      if (in.op != Op::BmRoute) return !in.can_trap();
      const std::size_t dc = loop_def[in.b], dd = loop_def[in.c];
      return dc != kNoInstr && p.code[dc].op == Op::Length &&
             p.code[dc].a == in.a && dd != kNoInstr &&
             p.code[dd].op == Op::LoadConst;
    };

    // Iterative closure: each sweep admits instructions whose loop-side
    // source definitions were all hoisted before them, and emits them in
    // that order so preheader dependencies run first.
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::size_t i : loop_instrs) {
        const Instr& in = p.code[i];
        if (hoisted[i] || !in.has_dst() || in.op == Op::Move) continue;
        if (defs_in_loop[in.dst] != 1) continue;
        if (lv.live_in[loop.header].test(in.dst)) continue;
        bool src_ok = true;
        for (std::uint32_t r : in.srcs()) {
          if (defs_in_loop[r] != 0) src_ok = false;
        }
        if (!src_ok) continue;
        // The instruction must have run on every terminating entry: its
        // block dominates every exit block (an exit edge sits at its
        // block's end, after every instruction in it).
        bool dominates_exits = true;
        for (std::size_t e : loop.exits) {
          dominates_exits &= dom.dominates(cfg.block_of[i], e);
        }
        if (!dominates_exits) continue;
        if (!cannot_trap(in)) continue;

        hoisted[i] = true;
        --defs_in_loop[in.dst];  // its sources become invariant for later
        ins[header_begin].push_back(in);
        any = true;
        grew = true;
      }
    }
    if (ins[header_begin].empty()) return;
    for (std::size_t j : back_jumps) land_after[j] = true;
  }
};

}  // namespace

std::unique_ptr<Pass> make_licm() { return std::make_unique<Licm>(); }

}  // namespace nsc::opt
