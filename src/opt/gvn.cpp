// Global value numbering, scoped by the dominator tree, with the
// optimizer's copy renaming and constant and branch folding riding
// along: the pipeline's one forward analysis.
//
// Value numbering over extended basic blocks alone loses its facts at
// every join point, so the identical scan/route subgraphs the flattening
// compiler re-emits per segment-descriptor level (seg_sum /
// gather_sorted inside FlattenF, SplitF, the Sum cases) would stay
// redundant whenever a combine_vec branch diamond sat between two
// copies.  This pass walks the *dominator tree* instead: everything
// established in a block holds in every block it dominates, so a
// recomputation after a join fuses with the original before the branch.
//
// Non-SSA soundness: a table entry (expression -> {reg, vn}) is usable
// only while `reg` still holds that value.  Within the dominator-tree
// DFS the table tracks the state at the end of the dominating block;
// registers that may be redefined on some idom(c) -> c path that avoids
// re-entering idom(c) (the *kill region*) are invalidated ("killed" to a
// fresh value number) at c's entry.  The region is the reachable blocks
// that reach a predecessor of c without passing idom(c).  Each lies on
// such a path: every path from the entry to one, b, passes idom(c) --
// else it would go on through b to c, avoiding c's dominator -- so its
// part after the last visit of idom(c) runs idom(c) -> b -> c.  For a
// block whose only CFG predecessor is its dominator-tree parent the kill
// set is empty (the EBB case); for a loop header dominated by the
// preheader it is exactly the loop body's definitions, which is what
// makes header facts sound on every iteration without iterating the
// analysis.  Block 0 is killed the same way, over the region of every
// cycle through it, when a jump targets instruction 0.
//
// Facts.  Beside its number, every value carries what is known about it,
// kept in a vector indexed by value number: its *length class* (the
// number of a value of provably equal length) and, when every element is
// provably one constant c, uniform(c).  Two classes are fixed: every [n]
// is in `singletons` and every [] in `empties`, so a known singleton [n]
// is singletons ∧ uniform(n).  Classes flow through Move, Arith,
// Enumerate, ScanPlus and a bm-route's bound; LoadConst and Length
// results are singletons, LoadEmpty results empties; every other result
// starts a class of its own.  uniform(c) comes from LoadConst c, from a
// bm-route whose data is uniform(c) (over the bound's class: the
// catalog's broadcast of [c] over x is bm-route(x, [length(x)], [c])),
// and from an Arith of two uniforms (the folded constant, never for a
// zero divisor).  Facts are only derived from executed instructions, so
// everything in the dominated region may rely on their certificates
// having held.
// Two more sources make the folds below fire:
//   * non-input registers start empty (the machine zero-initializes the
//     register file);
//   * at a kill set, a killed register keeps its fact when every
//     definition of it in the kill region produces that same fact again,
//     assuming every killed register that still keeps its fact does;
//     the check repeats until nothing more is dropped.  This carries a
//     register that is empty on loop entry and only re-emptied inside,
//     or a loop-carried x <- x * [1] with x = [1] at entry, around the
//     loop.
//
// The rewrite catalog.  Each rewrite charges at most the replaced
// instruction's T and W on every input, and none deletes a trap:
//   * copy renaming: every source operand reads the first register that
//     took its value number, while that register still holds it.  Uses
//     of a Move's destination -- the flattening compiler stages every
//     value through fresh registers, and CSE below makes more Moves --
//     then read the source, and dce drops the Move.  A kept CSE hit
//     (below) keeps its name: renaming through it shrinks the code
//     further but ties a staged compile's register count to eps.
//     Renaming changes no value or length, so T, W and traps stay;
//   * the uniform algebra, when both Arith operands are of one class, so
//     the length check cannot trap: x+0, 0+x, x∸0, x*1 and 1*x are x;
//     0∸x, 0*x and x*0 are the zero operand (3n -> 2n).
//     Select of a uniform(c != 0) is a copy (2n either way), and a
//     bm-route whose counts are uniform(1) of its bound's and its data's
//     class replicates every element once (both certificates discharged:
//     4n -> 2n);
//   * CSE: a recomputation whose operands are value-identical to an
//     earlier eligible instruction becomes a Move from the earlier
//     result (trap-safe: re-executing a trapping instruction on
//     identical operand values cannot trap if the first execution did
//     not), and every eligible op's executed work is >= the Move's on any
//     input EXCEPT LoadConst (work 1 < the Move's 2), Length (1 < 2 when
//     the source is empty at run time), and SbmRoute (the only expanding
//     op); those are kept in place but their destination is aliased to
//     the earlier value number so downstream expressions still fuse.
//     Every uniform(c) of one class is the same vector, so each is also
//     recorded under the key (c, class), and a *certified* one -- a
//     broadcast whose counts are the length of a register of its bound's
//     class and whose data is a known singleton (2n+2 -> 2n), or an Arith
//     of two uniforms of one class other than the singletons that folds
//     (3n -> 2n) -- becomes a Move from a live register recorded there.
//     Length and Enumerate depend only on their operand's length, so they
//     are keyed by its class: enumerate(broadcast(c, x)) fuses with
//     enumerate(x);
//   * constant folding: an Arith of two known singletons that folds, and
//     Length, Enumerate and ScanPlus of a known [n], become a LoadConst
//     of the result (work 1, below a Move's 2).  An Append with a
//     known-empty side is a Move of the other.  A LoadEmpty whose
//     register already holds [], and a self-Move, are dropped;
//   * branch folding: a GotoIfEmpty of a known empty becomes a Goto, and
//     one of a known singleton is dropped.  (dce then drops a Goto to the
//     next instruction.)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/opt.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;
using lang::ArithOp;

// ---------------------------------------------------------------------------
// the numbering table
// ---------------------------------------------------------------------------

// Key: (op, aop, imm-for-LoadConst, value numbers of the source regs).
using VnKey = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t>;

/// Nothing iterates the table, so its order cannot reach the output.
struct VnKeyHash {
  std::size_t operator()(const VnKey& k) const {
    const auto& [op, aop, imm, a, b, c, d] = k;
    std::uint64_t h = op | std::uint64_t{aop} << 8;
    for (const std::uint64_t x : {imm, a, b, c, d}) {
      h = std::rotl((h ^ x) * 0x9e3779b97f4a7c15ull, 29);
    }
    return static_cast<std::size_t>(h);
  }
};

struct VnEntry {
  std::uint32_t reg = 0;
  std::uint64_t vn = 0;
};

/// The numbering table, scoped with an undo log: the dominator-tree walk
/// pushes each block's mutations onto the log and rolls them back on the
/// way out, so facts flow into subtrees but never across siblings.
struct VnTable {
  static constexpr std::uint32_t kNoReg = ~std::uint32_t{0};

  std::vector<std::uint64_t> reg_vn;  // register -> current value number
  /// value number -> the first register that took it (the name copy
  /// renaming reads it under), or kNoReg.
  std::vector<std::uint32_t> first;
  /// register -> a kept CSE hit: its uses keep reading it.
  std::vector<bool> keeps_name;
  std::unordered_map<VnKey, VnEntry, VnKeyHash> exprs;

  struct UndoRecord {
    enum Kind : std::uint8_t { Reg, ExprSet, ExprNew } kind;
    bool old_keeps_name = false;
    std::uint32_t reg = 0;
    std::uint64_t old_vn = 0;
    VnKey key{};
    VnEntry old_entry{};
  };
  std::vector<UndoRecord> undo;

  explicit VnTable(std::size_t num_regs)
      : reg_vn(num_regs), first(num_regs), keeps_name(num_regs, false) {
    for (std::uint32_t r = 0; r < num_regs; ++r) reg_vn[r] = first[r] = r;
  }

  std::size_t mark() const { return undo.size(); }

  /// A new value number, held by no register yet.
  std::uint64_t fresh() {
    first.push_back(kNoReg);
    return first.size() - 1;
  }

  void set_reg_vn(std::uint32_t r, std::uint64_t v, bool keep_name = false) {
    if (first[v] == kNoReg) first[v] = r;
    if (reg_vn[r] == v && keeps_name[r] == keep_name) return;
    undo.push_back({.kind = UndoRecord::Reg,
                    .old_keeps_name = keeps_name[r],
                    .reg = r,
                    .old_vn = reg_vn[r]});
    reg_vn[r] = v;
    keeps_name[r] = keep_name;
  }

  /// The register a use of r reads: the first holder of r's value while
  /// it still holds it, else r itself.
  std::uint32_t source_of(std::uint32_t r) const {
    if (keeps_name[r]) return r;
    const std::uint32_t f = first[reg_vn[r]];
    return reg_vn[f] == reg_vn[r] ? f : r;
  }

  void set_expr(const VnKey& key, VnEntry e) {
    auto [it, inserted] = exprs.emplace(key, e);
    if (inserted) {
      undo.push_back({.kind = UndoRecord::ExprNew, .key = key});
    } else {
      undo.push_back(
          {.kind = UndoRecord::ExprSet, .key = key, .old_entry = it->second});
      it->second = e;
    }
  }

  void rollback(std::size_t to_mark) {
    while (undo.size() > to_mark) {
      const UndoRecord& u = undo.back();
      switch (u.kind) {
        case UndoRecord::Reg:
          reg_vn[u.reg] = u.old_vn;
          keeps_name[u.reg] = u.old_keeps_name;
          break;
        case UndoRecord::ExprSet:
          exprs[u.key] = u.old_entry;
          break;
        case UndoRecord::ExprNew:
          exprs.erase(u.key);
          break;
      }
      undo.pop_back();
    }
  }

  VnKey key_of(const Instr& in) const {
    const auto srcs = in.srcs();
    std::uint64_t vn[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < srcs.n; ++i) vn[i] = reg_vn[srcs.regs[i]] + 1;
    const std::uint64_t imm = in.op == Op::LoadConst ? in.imm : 0;
    return {static_cast<std::uint8_t>(in.op),
            static_cast<std::uint8_t>(in.aop),
            imm,
            vn[0],
            vn[1],
            vn[2],
            vn[3]};
  }
};

/// Ops whose recomputation on value-identical operands may be replaced
/// (or aliased) by the earlier result.
bool cse_eligible(const Instr& in) {
  switch (in.op) {
    case Op::LoadEmpty:
    case Op::LoadConst:
    case Op::Arith:
    case Op::Append:
    case Op::Length:
    case Op::Enumerate:
    case Op::BmRoute:
    case Op::SbmRoute:
    case Op::Select:
    case Op::ScanPlus:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// facts
// ---------------------------------------------------------------------------

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

  bool operator==(const Fact&) const = default;
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
/// x*1 and 1*x are x; 0∸x, 0*x and x*0 are the zero.
std::optional<std::uint32_t> identity_operand(const Instr& in, const Fact& a,
                                              const Fact& b) {
  switch (in.aop) {
    case ArithOp::Add:
      if (is_uniform(b, 0)) return in.a;
      if (is_uniform(a, 0)) return in.b;
      break;
    case ArithOp::Monus:
      if (is_uniform(b, 0) || is_uniform(a, 0)) return in.a;
      break;
    case ArithOp::Mul:
      if (is_uniform(b, 1) || is_uniform(a, 0)) return in.a;
      if (is_uniform(a, 1) || is_uniform(b, 0)) return in.b;
      break;
    case ArithOp::Div:
    case ArithOp::Rsh:
    case ArithOp::Log2:
      break;
  }
  return std::nullopt;
}

/// What the facts alone make of an instruction: unchanged, dropped, or
/// replaced by `to`.
struct Rewrite {
  enum Kind : std::uint8_t { Keep, Drop, Replace } kind = Keep;
  Instr to{};
};

Rewrite keep() { return {}; }
Rewrite drop() { return {Rewrite::Drop, {}}; }
Rewrite replace(Op op, std::uint32_t dst, std::uint32_t a = 0,
                std::uint64_t imm = 0, std::size_t target = 0) {
  return {Rewrite::Replace, {op, ArithOp::Add, dst, a, 0, 0, imm, target}};
}

/// One run of the pass over a program: the numbering table, the facts,
/// and the dominator-tree walk that rewrites the code.
class Walk {
 public:
  explicit Walk(Program& p)
      : p_(p),
        cfg_(Cfg::build(p)),
        dom_(DomTree::build(cfg_)),
        vn_(p.num_regs),
        facts_(p.num_regs),
        keep_(p.code.size(), true),
        kept_(p.num_regs, false),
        in_region_(cfg_.blocks.size(), false) {
    singletons_ = fresh({});
    empties_ = fresh({});
    for (std::size_t r = 0; r < p.num_regs; ++r) {
      facts_[r].cls = r < p.num_inputs ? r : empties_;
    }
  }

  bool run() {
    // Depth-first over the dominator tree: facts flow into dominated
    // subtrees, sibling subtrees roll back, and each block first kills
    // the registers that intervening (non-dominating) code may redefine.
    struct Frame {
      std::size_t block;
      std::size_t mark;
      std::size_t next_child;
    };
    std::vector<Frame> stack{{0, vn_.mark(), 0}};
    enter(0, kNoBlock);
    process_block(0);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_child < dom_.children[f.block].size()) {
        const std::size_t c = dom_.children[f.block][f.next_child++];
        const std::size_t mark = vn_.mark();
        enter(c, f.block);
        stack.push_back({c, mark, 0});
        process_block(c);
      } else {
        vn_.rollback(f.mark);
        stack.pop_back();
      }
    }
    const bool erased = erase_unkept(p_, keep_);
    return changed_ || erased;
  }

 private:
  std::uint64_t fresh(Fact f) {
    const std::uint64_t v = vn_.fresh();
    if (f.cls == kNoVn) f.cls = v;
    facts_.push_back(f);
    return v;
  }
  Fact fact(std::uint32_t r) const { return facts_[vn_.reg_vn[r]]; }
  bool is_empty(const Fact& f) const { return f.cls == empties_; }
  /// f is a known singleton [f.c].
  bool is_konst(const Fact& f) const {
    return f.cls == singletons_ && f.uniform;
  }

  /// The facts an executed instruction establishes for its result.
  Fact fact_of(const Instr& in) const {
    Fact f;
    switch (in.op) {
      case Op::LoadEmpty:
        f.cls = empties_;
        break;
      case Op::LoadConst:
        f = {singletons_, kNoVn, in.imm, true};
        break;
      case Op::Length:
        f.cls = singletons_;
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
  }

  /// The uniform algebra: the operand `in` provably equals, if any.
  std::optional<std::uint32_t> algebra(const Instr& in) const {
    if (in.op == Op::Select) {
      // sigma of a vector with no zero drops nothing: a copy.  W is
      // unchanged (|in| + |out| = 2n either way), and Select never
      // traps.
      const Fact a = fact(in.a);
      if (a.uniform && a.c != 0) return in.a;
    } else if (in.op == Op::BmRoute) {
      // All-ones counts of the data's and the bound's class replicate
      // each element once, and both certificates are discharged
      // statically: |counts| = |data|, and sum(counts) = |counts| =
      // |bound|.  The Move charges 2n against the route's 4n.
      const Fact counts = fact(in.b);
      if (is_uniform(counts, 1) && fact(in.a).cls == counts.cls &&
          fact(in.c).cls == counts.cls) {
        return in.c;
      }
    } else if (in.op == Op::Arith) {
      // One class: the length check cannot trap, and no identity
      // divides by zero.  The Move charges 2n against 3n.
      const Fact a = fact(in.a);
      const Fact b = fact(in.b);
      if (a.cls == b.cls) return identity_operand(in, a, b);
    }
    return std::nullopt;
  }

  /// Constant and branch folding over known empties and singletons.
  Rewrite simplify(const Instr& in) const {
    switch (in.op) {
      case Op::GotoIfEmpty: {
        const Fact a = fact(in.a);
        if (is_empty(a)) return replace(Op::Goto, 0, 0, 0, in.target);
        if (is_konst(a)) return drop();  // never empty: never taken
        return keep();
      }
      case Op::Move:
        return in.a == in.dst ? drop() : keep();
      case Op::LoadEmpty:
        return is_empty(fact(in.dst)) ? drop() : keep();
      case Op::Arith: {
        const Fact a = fact(in.a);
        const Fact b = fact(in.b);
        if (is_konst(a) && is_konst(b) &&
            !(in.aop == ArithOp::Div && b.c == 0)) {
          return replace(Op::LoadConst, in.dst, 0,
                         lang::arith_apply(in.aop, a.c, b.c));
        }
        return keep();
      }
      case Op::Append:
        if (is_empty(fact(in.a))) return replace(Op::Move, in.dst, in.b);
        if (is_empty(fact(in.b))) return replace(Op::Move, in.dst, in.a);
        return keep();
      case Op::Length:
      case Op::Enumerate:
      case Op::ScanPlus:
        // length([n]) = [1]; enumerate([n]) = scan+([n]) = [0].
        if (!is_konst(fact(in.a))) return keep();
        return replace(Op::LoadConst, in.dst, 0, in.op == Op::Length ? 1 : 0);
      default:
        return keep();
    }
  }

  /// The facts the (rewritten) definition `in` gives its destination.
  Fact result_fact(const Instr& in) const {
    if (in.op == Op::Move) return fact(in.a);
    if (const auto src = algebra(in)) return fact(*src);
    const Rewrite rw = simplify(in);
    if (rw.kind == Rewrite::Drop) return fact(in.dst);
    if (rw.kind == Rewrite::Replace && rw.to.op == Op::Move) {
      return fact(rw.to.a);
    }
    return fact_of(in);
  }

  // A certified uniform: `in`, whose result has fact `f`, provably
  // cannot trap -- a broadcast whose counts are the length of a register
  // of its bound's class and whose data is a known singleton, or an
  // Arith of two uniforms of one class that folds.  Two singletons are
  // left to constant folding: a LoadConst's work of 1 is below a Move's 2.
  bool certified(const Instr& in, const Fact& f) const {
    if (!f.uniform) return false;
    if (in.op == Op::BmRoute) {
      return fact(in.b).length_of == f.cls && fact(in.c).cls == singletons_;
    }
    return in.op == Op::Arith && fact(in.b).cls == f.cls &&
           f.cls != singletons_;
  }

  // The expression key: uniform(c) over its class for a certified
  // uniform; Length and Enumerate depend only on their operand's length,
  // so they are keyed by its class.
  VnKey canon_key(const Instr& in, const Fact& f) const {
    if (certified(in, f)) return uniform_key(f.c, f.cls);
    VnKey key = vn_.key_of(in);
    if (in.op == Op::Length || in.op == Op::Enumerate) {
      std::get<3>(key) = fact(in.a).cls + 1;
    }
    return key;
  }

  /// The definitions in c's kill region (see the header), where c's
  /// dominator-tree parent is idom (kNoBlock for block 0): in ascending
  /// block order, and code order within a block.
  std::vector<std::size_t> kill_defs(std::size_t c, std::size_t idom) {
    const auto& preds = cfg_.blocks[c].preds;
    if (preds.empty() || (preds.size() == 1 && preds[0] == idom)) return {};
    // Backward from c's predecessors.  An unreachable block has only
    // unreachable predecessors, so the walk stops at the first one.
    std::vector<std::size_t> region;
    auto visit = [&](std::size_t b) {
      if (b != idom && cfg_.reached(b) && !in_region_[b]) {
        in_region_[b] = true;
        region.push_back(b);
      }
    };
    for (std::size_t q : preds) visit(q);
    for (std::size_t k = 0; k < region.size(); ++k) {
      for (std::size_t q : cfg_.blocks[region[k]].preds) visit(q);
    }
    std::sort(region.begin(), region.end());
    std::vector<std::size_t> defs;
    for (std::size_t b : region) {
      in_region_[b] = false;
      for (std::size_t i = cfg_.blocks[b].begin; i < cfg_.blocks[b].end; ++i) {
        if (p_.code[i].has_dst()) defs.push_back(i);
      }
    }
    return defs;
  }

  /// Block c's entry facts, where c's dominator-tree parent is idom
  /// (kNoBlock for block 0): kill what the kill region may redefine,
  /// keeping each fact that every definition there reproduces.
  void enter(std::size_t c, std::size_t idom) {
    const std::vector<std::size_t> defs = kill_defs(c, idom);
    std::vector<std::uint32_t> killed;
    for (std::size_t i : defs) {
      const std::uint32_t r = p_.code[i].dst;
      if (!kept_[r]) {
        kept_[r] = true;
        killed.push_back(r);
      }
    }
    // Every killed register holds its fact from idom's end until some
    // definition fails to reproduce it; a failed one is killed to a
    // fresh class, which may fail others, so sweep until none fails.
    for (bool dropped = !defs.empty(); dropped;) {
      dropped = false;
      for (std::size_t i : defs) {
        const Instr& in = p_.code[i];
        if (!kept_[in.dst] || result_fact(in) == fact(in.dst)) continue;
        kept_[in.dst] = false;
        vn_.set_reg_vn(in.dst, fresh({}));
        dropped = true;
      }
    }
    for (std::uint32_t r : killed) {
      if (kept_[r]) vn_.set_reg_vn(r, fresh(fact(r)));
      kept_[r] = false;
    }
  }

  void process_block(std::size_t b) {
    for (std::size_t i = cfg_.blocks[b].begin; i < cfg_.blocks[b].end; ++i) {
      Instr& in = p_.code[i];

      auto drop_it = [&] {
        keep_[i] = false;
        changed_ = true;
      };
      auto move_from = [&](std::uint32_t src) {
        if (src == in.dst) {
          drop_it();  // dst already holds the value
          return;
        }
        in = {Op::Move, ArithOp::Add, in.dst, src, 0, 0, 0, 0, in.dbg};
        changed_ = true;
      };

      // Read every copy from the first register that took its value.
      in.map_srcs([&](std::uint32_t r) {
        const std::uint32_t src = vn_.source_of(r);
        if (src != r) changed_ = true;
        return src;
      });

      if (const auto src = algebra(in)) move_from(*src);

      // CSE on whatever the instruction now is.  A hit normally
      // becomes a Move from the earlier result; LoadConst, Length and
      // SbmRoute are kept as-is but aliased (see the header comment).
      std::uint64_t alias_vn = 0;
      bool aliased = false;
      Fact f;
      VnKey key{};
      if (keep_[i] && cse_eligible(in)) {
        f = fact_of(in);
        key = canon_key(in, f);
        const auto it = vn_.exprs.find(key);
        if (it != vn_.exprs.end() &&
            vn_.reg_vn[it->second.reg] == it->second.vn) {
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

      // Constant and branch folding of whatever is left.  A LoadEmpty of
      // an empty register is numbered as if it ran, then dropped.
      bool redundant = false;
      if (keep_[i]) {
        const Rewrite rw = simplify(in);
        if (rw.kind == Rewrite::Drop) {
          redundant = true;
        } else if (rw.kind == Rewrite::Replace) {
          const std::uint32_t site = in.dbg;  // the slot keeps its site
          in = rw.to;
          in.dbg = site;
          changed_ = true;
        }
      }

      // Value-number bookkeeping for the (possibly rewritten)
      // instruction.  A CSE hit on its own register leaves dst's value
      // (and number) unchanged; a folded instruction keeps the facts and
      // key of what it computes.
      if (keep_[i] && in.has_dst()) {
        if (in.op == Op::Move) {
          vn_.set_reg_vn(in.dst, vn_.reg_vn[in.a]);
        } else if (aliased) {
          // Same value as the recorded expression; keep its entry.  Its
          // uses keep reading dst.
          vn_.set_reg_vn(in.dst, alias_vn, true);
        } else {
          const std::uint64_t v = fresh(f);
          vn_.set_expr(key, {in.dst, v});
          if (f.uniform) vn_.set_expr(uniform_key(f.c, f.cls), {in.dst, v});
          vn_.set_reg_vn(in.dst, v);
        }
      }
      if (redundant) drop_it();
    }
  }

  Program& p_;
  const Cfg cfg_;
  const DomTree dom_;
  VnTable vn_;
  // Facts indexed by value number.  No undo log is needed: value
  // numbers are never reused, and a rolled-back subtree's numbers are
  // unreachable from sibling scopes.
  std::vector<Fact> facts_;
  std::uint64_t singletons_ = 0;  // the class of every [n]
  std::uint64_t empties_ = 0;     // the class of every []
  std::vector<bool> keep_;
  std::vector<bool> kept_;  // enter(): a killed register still keeps its fact
  std::vector<bool> in_region_;  // kill_defs(): visited, cleared on return
  bool changed_ = false;
};

class Gvn final : public Pass {
 public:
  const char* name() const override { return "gvn"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;
    return Walk(p).run();
  }
};

}  // namespace

std::unique_ptr<Pass> make_gvn() { return std::make_unique<Gvn>(); }

}  // namespace nsc::opt
