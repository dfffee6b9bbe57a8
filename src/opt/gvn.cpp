// Global value numbering, scoped by the dominator tree.
//
// PR 1's peephole ran value-numbering CSE over extended basic blocks
// only: facts flowed along unique-predecessor chains and died at every
// join point, so the identical scan/route subgraphs the flattening
// compiler re-emits per segment-descriptor level (seg_sum /
// gather_sorted inside FlattenF, SplitF, the Sum cases) stayed
// redundant whenever a combine_vec branch diamond sat between two
// copies.  This pass walks the *dominator tree* instead: everything
// established in a block holds in every block it dominates, so a
// recomputation after a join fuses with the original before the branch.
//
// Non-SSA soundness: a table entry (expression -> {reg, vn}) is usable
// only while `reg` still holds that value.  Within the dominator-tree
// DFS the table tracks the state at the end of the dominating block;
// registers that may be redefined on some idom(c) -> c path that avoids
// re-entering idom(c) are invalidated ("killed" to a fresh value
// number) at c's entry.  For a block whose only CFG predecessor is its
// dominator-tree parent the kill set is empty (the EBB case); for a
// loop header dominated by the preheader it is exactly the loop body's
// definitions, which is what makes header facts sound on every
// iteration without iterating the analysis.
//
// The rewrite catalog:
//   * CSE, the peephole's original logic: a recomputation whose
//     operands are value-identical to an earlier eligible instruction
//     becomes a Move from the earlier result (trap-safe: re-executing a
//     trapping instruction on identical operand values cannot trap if
//     the first execution did not), and every eligible op's executed
//     work is >= the Move's on any input EXCEPT LoadConst (work 1 < the
//     Move's 2), Length (1 < 2 when the source is empty at run time), and
//     SbmRoute (the only expanding op); those are kept in place but their
//     destination is aliased to the earlier value number so downstream
//     expressions still fuse;
//   * the uniform algebra.  Beside its number, every value carries two
//     facts, kept in a vector indexed by value number: its *length
//     class* (the number of a value of provably equal length) and, when
//     every element is provably one constant c, uniform(c).  Classes
//     flow through Move, Arith, Enumerate, ScanPlus and a bm-route's
//     bound; LoadConst and Length results share the class of singletons;
//     every other result starts a class of its own.  uniform(c) comes
//     from LoadConst c, from a bm-route whose data is uniform(c) (over
//     the bound's class: the catalog's broadcast of [c] over x is
//     bm-route(x, [length(x)], [c])), and from an Arith of two uniforms
//     (the folded constant, never for a zero divisor).  Facts are only
//     derived from executed (kept) instructions, so everything in the
//     dominated region may rely on their certificates having held.
//     Each rewrite below is a Move that charges at most the replaced
//     instruction's T and W on every input:
//       - identities, when both Arith operands are of one class, so the
//         length check cannot trap: x+0, 0+x, x∸0, x*1, 1*x, x/1 and x>>0
//         are x; 0∸x, 0*x, x*0 and 0>>x are the zero operand (3n -> 2n);
//       - uniform CSE: every uniform(c) of one class is the same vector,
//         so each is also recorded under the key (c, class), and a
//         *certified* one -- a broadcast whose counts are the length of
//         a register of its bound's class and whose data is a known
//         singleton (2n+2 -> 2n), or an Arith of two uniforms of one
//         class that folds (3n -> 2n) -- becomes a Move from a live
//         register recorded there;
//       - the route algebra: Select of a uniform(c != 0) is a copy (2n
//         either way), and a bm-route whose counts are uniform(1) of its
//         bound's and its data's class replicates every element once
//         (both certificates discharged: 4n -> 2n);
//       - Length and Enumerate depend only on their operand's length,
//         so they are keyed by its class: enumerate(broadcast(c, x))
//         fuses with enumerate(x).
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/opt.hpp"
#include "opt/valuetable.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;
using lang::ArithOp;

/// Computes the registers that may be redefined on some path
/// idom(c) ->* c that does not pass through idom(c) again: the forward
/// reach of idom(c)'s successors intersected with the backward reach of
/// c's predecessors, both computed with idom(c) removed from the graph.
/// Empty when c's only predecessor is idom(c).  The forward reach is
/// shared by every dominator-tree child of the same idom, so it is
/// memoized per idom across the DFS.
class KillSets {
 public:
  KillSets(const Program& p, const Cfg& cfg) : p_(p), cfg_(cfg) {}

  std::vector<std::uint32_t> of(std::size_t c, std::size_t idom) {
    const auto& preds = cfg_.blocks[c].preds;
    if (preds.size() == 1 && preds[0] == idom) return {};

    const std::size_t nb = cfg_.blocks.size();
    auto cached = fwd_cache_.find(idom);
    if (cached == fwd_cache_.end()) {
      std::vector<bool> fwd(nb, false);
      std::vector<std::size_t> stack;
      for (std::size_t s : cfg_.blocks[idom].succs) {
        if (s != idom && !fwd[s]) {
          fwd[s] = true;
          stack.push_back(s);
        }
      }
      while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (std::size_t s : cfg_.blocks[b].succs) {
          if (s != idom && !fwd[s]) {
            fwd[s] = true;
            stack.push_back(s);
          }
        }
      }
      cached = fwd_cache_.emplace(idom, std::move(fwd)).first;
    }
    const std::vector<bool>& fwd = cached->second;

    std::vector<bool> bwd(nb, false);
    std::vector<std::size_t> stack;
    for (std::size_t q : preds) {
      if (q != idom && !bwd[q]) {
        bwd[q] = true;
        stack.push_back(q);
      }
    }
    while (!stack.empty()) {
      const std::size_t b = stack.back();
      stack.pop_back();
      for (std::size_t q : cfg_.blocks[b].preds) {
        if (q != idom && !bwd[q]) {
          bwd[q] = true;
          stack.push_back(q);
        }
      }
    }

    std::vector<bool> killed(p_.num_regs, false);
    std::vector<std::uint32_t> out;
    for (std::size_t b = 0; b < nb; ++b) {
      if (!fwd[b] || !bwd[b]) continue;
      for (std::size_t i = cfg_.blocks[b].begin; i < cfg_.blocks[b].end;
           ++i) {
        const Instr& in = p_.code[i];
        if (in.has_dst() && !killed[in.dst]) {
          killed[in.dst] = true;
          out.push_back(in.dst);
        }
      }
    }
    return out;
  }

 private:
  const Program& p_;
  const Cfg& cfg_;
  // idom -> forward reach of its successors with the idom removed; one
  // bit-vector per dominator-tree node that has a merge child, shared
  // by all of that node's children.
  std::unordered_map<std::size_t, std::vector<bool>> fwd_cache_;
};

// Tag of the expression key under which GVN records a uniform(c) value
// of one length class; above every Op, so no instruction's key collides.
constexpr std::uint8_t kUniformKey = 0xff;

VnKey uniform_key(std::uint64_t c, std::uint64_t cls) {
  return {kUniformKey, 0, c, cls + 1, 0, 0, 0};
}

constexpr std::uint64_t kNoVn = ~std::uint64_t{0};

/// What is known about a value beside its number (see the header).
struct Fact {
  std::uint64_t cls = kNoVn;        // length class; kNoVn: a class of its own
  std::uint64_t length_of = kNoVn;  // a Length result: its operand's class
  std::uint64_t c = 0;              // the constant, when `uniform`
  bool uniform = false;             // every element equals c
};

bool is_uniform(const Fact& f, std::uint64_t c) {
  return f.uniform && f.c == c;
}

/// The constant an Arith of two uniforms yields; none for a zero divisor.
std::optional<std::uint64_t> fold(ArithOp op, const Fact& a, const Fact& b) {
  if (!a.uniform || !b.uniform || (op == ArithOp::Div && b.c == 0)) {
    return std::nullopt;
  }
  return lang::arith_apply(op, a.c, b.c);
}

/// The operand an Arith over one length class equals: x+0, 0+x, x∸0,
/// x*1, 1*x, x/1 and x>>0 are x; 0∸x, 0*x, x*0 and 0>>x are the zero.
std::optional<std::uint32_t> identity_operand(const Instr& in, const Fact& a,
                                              const Fact& b) {
  switch (in.aop) {
    case ArithOp::Add:
      if (is_uniform(b, 0)) return in.a;
      if (is_uniform(a, 0)) return in.b;
      break;
    case ArithOp::Monus:
    case ArithOp::Rsh:
      if (is_uniform(b, 0) || is_uniform(a, 0)) return in.a;
      break;
    case ArithOp::Mul:
      if (is_uniform(b, 1) || is_uniform(a, 0)) return in.a;
      if (is_uniform(a, 1) || is_uniform(b, 0)) return in.b;
      break;
    case ArithOp::Div:
      if (is_uniform(b, 1)) return in.a;
      break;
    case ArithOp::Log2:
      break;
  }
  return std::nullopt;
}

class Gvn final : public Pass {
 public:
  const char* name() const override { return "gvn"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;
    const Cfg cfg = Cfg::build(p);
    const DomTree dom = DomTree::build(cfg);

    bool changed = false;
    std::vector<bool> keep(p.code.size(), true);
    VnTable vn(p.num_regs);
    // Facts indexed by value number.  No undo log is needed: value
    // numbers are never reused, and a rolled-back subtree's numbers are
    // unreachable from sibling scopes.
    std::vector<Fact> facts(p.num_regs);
    for (std::size_t r = 0; r < p.num_regs; ++r) facts[r].cls = r;
    auto fresh = [&](Fact f) {
      const std::uint64_t v = vn.next_vn++;
      if (f.cls == kNoVn) f.cls = v;
      facts.push_back(f);
      return v;
    };
    auto fact = [&](std::uint32_t r) { return facts[vn.reg_vn[r]]; };
    // The class of LoadConst and Length results: every [n] has length 1.
    const std::uint64_t singletons = fresh({});

    // The facts an executed instruction establishes for its result.
    auto fact_of = [&](const Instr& in) {
      Fact f;
      switch (in.op) {
        case Op::LoadConst:
          f = {singletons, kNoVn, in.imm, true};
          break;
        case Op::Length:
          f.cls = singletons;
          f.length_of = fact(in.a).cls;
          break;
        case Op::Arith: {
          const Fact a = fact(in.a);
          f.cls = a.cls;
          if (const auto c = fold(in.aop, a, fact(in.b))) {
            f.c = *c;
            f.uniform = true;
          }
          break;
        }
        case Op::Enumerate:
        case Op::ScanPlus:
          f.cls = fact(in.a).cls;
          break;
        case Op::BmRoute: {
          const Fact data = fact(in.c);
          f.cls = fact(in.a).cls;
          f.c = data.c;
          f.uniform = data.uniform;
          break;
        }
        default:
          break;
      }
      return f;
    };

    // A certified uniform: `in`, whose result has fact `f`, provably
    // cannot trap -- a broadcast whose counts are the length of a
    // register of its bound's class and whose data is a known singleton,
    // or an Arith of two uniforms of one class that folds.  Two
    // singletons are left to the peephole: it folds them to a LoadConst,
    // whose work of 1 is below a Move's 2.
    auto certified = [&](const Instr& in, const Fact& f) {
      if (!f.uniform) return false;
      if (in.op == Op::BmRoute) {
        return fact(in.b).length_of == f.cls && fact(in.c).cls == singletons;
      }
      return in.op == Op::Arith && fact(in.b).cls == f.cls &&
             f.cls != singletons;
    };

    // The expression key: uniform(c) over its class for a certified
    // uniform; Length and Enumerate depend only on their operand's
    // length, so they are keyed by its class.
    auto canon_key = [&](const Instr& in, const Fact& f) {
      if (certified(in, f)) return uniform_key(f.c, f.cls);
      VnKey key = vn.key_of(in);
      if (in.op == Op::Length || in.op == Op::Enumerate) {
        std::get<3>(key) = fact(in.a).cls + 1;
      }
      return key;
    };

    auto process_block = [&](std::size_t b) {
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        Instr& in = p.code[i];

        auto drop = [&] {
          keep[i] = false;
          changed = true;
        };
        auto move_from = [&](std::uint32_t src) {
          if (src == in.dst) {
            drop();  // dst already holds the value
            return;
          }
          in = {Op::Move, ArithOp::Add, in.dst, src, 0, 0, 0, 0, in.dbg};
          changed = true;
        };

        // The uniform algebra (see the header comment).
        if (in.op == Op::Select) {
          // sigma of a vector with no zero drops nothing: a copy.  W is
          // unchanged (|in| + |out| = 2n either way), and Select never
          // traps.
          const Fact a = fact(in.a);
          if (a.uniform && a.c != 0) move_from(in.a);
        } else if (in.op == Op::BmRoute) {
          // All-ones counts of the data's and the bound's class
          // replicate each element once, and both certificates are
          // discharged statically: |counts| = |data|, and sum(counts) =
          // |counts| = |bound|.  The Move charges 2n against the
          // route's 4n.
          const Fact counts = fact(in.b);
          if (is_uniform(counts, 1) && fact(in.a).cls == counts.cls &&
              fact(in.c).cls == counts.cls) {
            move_from(in.c);
          }
        } else if (in.op == Op::Arith) {
          // One class: the length check cannot trap, and no identity
          // divides by zero.  The Move charges 2n against 3n.
          const Fact a = fact(in.a);
          const Fact b = fact(in.b);
          if (a.cls == b.cls) {
            if (const auto src = identity_operand(in, a, b)) move_from(*src);
          }
        }

        // CSE on whatever the instruction now is.  A hit normally
        // becomes a Move from the earlier result; LoadConst, Length and
        // SbmRoute are kept as-is but aliased (see the header comment).
        std::uint64_t alias_vn = 0;
        bool aliased = false;
        Fact f;
        VnKey key{};
        if (keep[i] && cse_eligible(in)) {
          f = fact_of(in);
          key = canon_key(in, f);
          const auto it = vn.exprs.find(key);
          if (it != vn.exprs.end() &&
              vn.reg_vn[it->second.reg] == it->second.vn) {
            const std::uint32_t e = it->second.reg;
            if (e != in.dst && (in.op == Op::LoadConst ||
                                in.op == Op::Length ||
                                in.op == Op::SbmRoute)) {
              alias_vn = it->second.vn;
              aliased = true;
            } else {
              move_from(e);
            }
          }
        }

        // Value-number bookkeeping for the (possibly rewritten)
        // instruction.  Dropped instructions leave dst's value (and
        // number) unchanged.
        if (!keep[i] || !in.has_dst()) continue;
        if (in.op == Op::Move) {
          vn.set_reg_vn(in.dst, vn.reg_vn[in.a]);
        } else if (aliased) {
          // Same value as the recorded expression; keep its entry.
          vn.set_reg_vn(in.dst, alias_vn);
        } else {
          const std::uint64_t v = fresh(f);
          vn.set_expr(key, {in.dst, v});
          if (f.uniform) vn.set_expr(uniform_key(f.c, f.cls), {in.dst, v});
          vn.set_reg_vn(in.dst, v);
        }
      }
    };

    // Depth-first over the dominator tree: facts flow into dominated
    // subtrees, sibling subtrees roll back, and each block first kills
    // the registers that intervening (non-dominating) code may redefine.
    KillSets kills(p, cfg);
    struct Frame {
      std::size_t block;
      std::size_t mark;
      std::size_t next_child;
    };
    std::vector<Frame> stack{{0, vn.mark(), 0}};
    process_block(0);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_child < dom.children[f.block].size()) {
        const std::size_t c = dom.children[f.block][f.next_child++];
        const std::size_t mark = vn.mark();
        for (std::uint32_t r : kills.of(c, f.block)) {
          vn.set_reg_vn(r, fresh({}));
        }
        stack.push_back({c, mark, 0});
        process_block(c);
      } else {
        vn.rollback(f.mark);
        stack.pop_back();
      }
    }

    const bool erased = erase_unkept(p, keep);
    return changed || erased;
  }
};

}  // namespace

std::unique_ptr<Pass> make_gvn() { return std::make_unique<Gvn>(); }

}  // namespace nsc::opt
