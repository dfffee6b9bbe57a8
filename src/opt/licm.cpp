// Loop-invariant code motion over the natural-loop forest.
//
// The flattening compiler's while loops re-derive per-iteration values
// that only depend on registers the loop never writes: the LoadConsts
// feeding every catalog helper, and -- the headline case from the
// ROADMAP -- the ones_like/broadcast masks (bm-route of a constant
// singleton over an invariant register) that eq_bits / inv_bits /
// ConstNat emit inside the loop body of every WhileSchedule.  This pass
// hoists such instructions into the loop preheader: the code inserted
// immediately before the loop header, which entry edges flow through
// and back edges skip (cfg.hpp's insert_before).
//
// An instruction i (defining d, in loop L) is hoisted when:
//   * every source register has no definition inside L, or only
//     definitions that are themselves hoisted this round (the closure
//     is computed iteratively; the preheader emits hoisted rounds in
//     order, so dependencies execute first);
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
//   * i provably cannot trap (below).
//
// Trap proofs.  Trap-free opcodes (LoadConst, LoadEmpty, Append,
// Length, Enumerate, Select, ScanPlus) hoist as-is.  Trap-capable ones
// hoist only when the value table discharges the certificate -- and
// every certifying definition must have executed by the *preheader*
// (it dominates the loop header from outside, or was hoisted there in
// an earlier round), because that is where the hoisted copy runs:
//   * Arith: lengths match when both operands are the same register, or
//     when each is provably a singleton (its unique program-wide
//     definition is a LoadConst or Length that dominates i); Div
//     additionally needs the divisor's unique definition to be a
//     LoadConst of a nonzero constant.
//   * BmRoute (the broadcast pattern): sum(counts) == |bound| holds
//     when counts' unique definition is Length(bound) dominating i with
//     no definition of bound possibly executing between the Length and
//     i; |counts| == |data| holds when data's unique definition is a
//     LoadConst (both singletons).  This is exactly the catalog's
//     ones_like / zeros_like / broadcast(konst, x) shape.
//   * SbmRoute is never hoisted.
// Because hoisted instructions cannot trap, moving them earlier cannot
// introduce a trap or reorder one, and invariance makes the preheader
// execution produce bit-identical values to every in-loop execution.
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

    // Program-wide definition census, for the singleton/certificate
    // proofs: defs_of[r] lists every instruction defining r, and
    // unique_def[r] is the index of r's only defining instruction
    // (kNoInstr when r has zero or several).
    std::vector<std::vector<std::size_t>> defs_of(p.num_regs);
    std::vector<std::size_t> unique_def(p.num_regs, kNoInstr);
    for (std::size_t i = 0; i < n; ++i) {
      if (p.code[i].has_dst()) defs_of[p.code[i].dst].push_back(i);
    }
    for (std::size_t r = 0; r < p.num_regs; ++r) {
      if (defs_of[r].size() == 1) unique_def[r] = defs_of[r][0];
    }

    // Block-to-block reachability (successor closure, so a block inside
    // a cycle reaches itself), for the "no definition in between" check.
    // Only the BmRoute certificate consults it, so rows are computed on
    // first use rather than filling an nb x nb matrix up front.
    const std::size_t nb = cfg.blocks.size();
    std::vector<std::vector<bool>> reach_rows(nb);
    auto reaches = [&](std::size_t from, std::size_t to) {
      auto& row = reach_rows[from];
      if (row.empty()) {
        row.assign(nb, false);
        std::vector<std::size_t> stack{from};
        while (!stack.empty()) {
          const std::size_t q = stack.back();
          stack.pop_back();
          for (std::size_t s : cfg.blocks[q].succs) {
            if (!row[s]) {
              row[s] = true;
              stack.push_back(s);
            }
          }
        }
      }
      return row[to];
    };
    // Instruction a may execute strictly before instruction b on some
    // path (block-level over-approximation).
    auto may_precede = [&](std::size_t a, std::size_t b) {
      const std::size_t ba = cfg.block_of[a], bb = cfg.block_of[b];
      return (ba == bb && a < b) || reaches(ba, bb);
    };
    // i's block dominates j's block and, within a shared block, comes
    // first: i executes on every path reaching j.
    auto dominates_instr = [&](std::size_t i, std::size_t j) {
      const std::size_t bi = cfg.block_of[i], bj = cfg.block_of[j];
      return bi == bj ? i < j : dom.dominates(bi, bj);
    };

    // reg r is a provable singleton at instruction i: its one and only
    // definition is a LoadConst or Length executing on every path to i.
    auto singleton_at = [&](std::uint32_t r, std::size_t i) {
      const std::size_t d = unique_def[r];
      if (d == kNoInstr) return false;
      const Op op = p.code[d].op;
      return (op == Op::LoadConst || op == Op::Length) &&
             dominates_instr(d, i);
    };

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
    std::vector<std::size_t> order(loops.loops.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return loops.loops[a].depth < loops.loops[b].depth;
    });

    for (std::size_t li : order) {
      const Loop& loop = loops.loops[li];
      hoist_loop(p, cfg, dom, lv, loop, singleton_at, may_precede,
                 dominates_instr, unique_def, defs_of, hoisted, ins,
                 land_after, any);
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
  template <typename SingletonAt, typename MayPrecede, typename DominatesInstr>
  void hoist_loop(const Program& p, const Cfg& cfg, const DomTree& dom,
                  const Liveness& lv, const Loop& loop,
                  const SingletonAt& singleton_at,
                  const MayPrecede& may_precede,
                  const DominatesInstr& dominates_instr,
                  const std::vector<std::size_t>& unique_def,
                  const std::vector<std::vector<std::size_t>>& defs_of,
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

    std::vector<bool> in_loop(cfg.blocks.size(), false);
    for (std::size_t b : loop.blocks) in_loop[b] = true;

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

    // Definition counts within the loop, and membership of instructions.
    std::vector<std::size_t> defs_in_loop(p.num_regs, 0);
    std::vector<std::size_t> loop_instrs;
    for (std::size_t b : loop.blocks) {
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        if (hoisted[i]) continue;  // already moved out by an outer loop
        loop_instrs.push_back(i);
        if (p.code[i].has_dst()) ++defs_in_loop[p.code[i].dst];
      }
    }

    // Iterative closure: each round admits instructions whose loop-side
    // source definitions were all hoisted in earlier rounds, and emits
    // them in that round order so preheader dependencies run first.
    std::vector<bool> local(p.code.size(), false);  // hoisted from THIS loop

    // A trap certificate is discharged at the *preheader*, where the
    // hoisted copy runs -- so the certifying definition must have
    // executed by then on every path: either it lies outside the loop
    // in a block dominating the header, or it was itself hoisted into
    // this very preheader in an earlier round.  (Proving it merely at
    // the original in-loop site is not enough: a path that enters the
    // loop without ever reaching the instruction -- say, spinning on an
    // exit-free cycle -- would run the hoisted copy on uncertified
    // values and could newly trap.)
    auto available_at_preheader = [&](std::size_t d) {
      return local[d] || (!in_loop[cfg.block_of[d]] &&
                          dom.dominates(cfg.block_of[d], loop.header));
    };
    auto certified_singleton = [&](std::uint32_t r, std::size_t i) {
      return singleton_at(r, i) && available_at_preheader(unique_def[r]);
    };

    auto provably_no_trap = [&](std::size_t i) {
      const Instr& in = p.code[i];
      switch (in.op) {
        case Op::Arith: {
          const bool len_ok =
              in.a == in.b ||
              (certified_singleton(in.a, i) && certified_singleton(in.b, i));
          if (!len_ok) return false;
          if (in.aop != lang::ArithOp::Div) return true;
          const std::size_t d = unique_def[in.b];
          return d != kNoInstr && p.code[d].op == Op::LoadConst &&
                 p.code[d].imm != 0 && dominates_instr(d, i) &&
                 available_at_preheader(d);
        }
        case Op::BmRoute: {
          // The catalog broadcast: counts := Length(bound) dominating i,
          // bound not possibly redefined between the Length and i, and
          // data a LoadConst singleton.  counts == bound is rejected
          // outright: Length(y, y) clobbers its own source, so the
          // measured length no longer describes the bound register.
          const std::size_t dc = unique_def[in.b];
          if (in.b == in.a || dc == kNoInstr || p.code[dc].op != Op::Length ||
              p.code[dc].a != in.a || !dominates_instr(dc, i) ||
              !available_at_preheader(dc)) {
            return false;
          }
          for (std::size_t j : defs_of[in.a]) {
            if (j == dc) continue;
            if (may_precede(dc, j) && may_precede(j, i)) return false;
          }
          const std::size_t dd = unique_def[in.c];
          return dd != kNoInstr && p.code[dd].op == Op::LoadConst &&
                 dominates_instr(dd, i) && available_at_preheader(dd);
        }
        case Op::SbmRoute:
          return false;
        default:
          return !in.can_trap();
      }
    };
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::size_t i : loop_instrs) {
        const Instr& in = p.code[i];
        if (local[i] || hoisted[i] || !in.has_dst() || in.op == Op::Move) {
          continue;
        }
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
        if (!provably_no_trap(i)) continue;

        local[i] = true;
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
