// The optimizer's shared value catalog: the abstract-value lattice
// {UNKNOWN, EMPTY, CONST(n)} with its dataflow domain, and the value-
// numbering table (expression keys, register numbering, undo log).
//
// Both were born inside peephole.cpp:
//   * peephole   constant folding and branch simplification over the
//                abstract values;
//   * gvn        dominator-tree-scoped value numbering over the table:
//                global CSE and the uniform algebra, which keeps a
//                length class and a uniform(c) fact beside each value
//                number and so folds arithmetic on broadcast constants
//                (x+0, x*1, 0*x and their kin over one length class, and
//                re-broadcasts of one constant over one class, become
//                Moves; see opt/gvn.cpp).
//
// The AvDomain additionally implements the edge_refine hook of the
// shared ForwardDataflow driver: on the *taken* edge of a GotoIfEmpty
// the tested register is known empty, so downstream Length / Append /
// Select of it fold even though the fact holds on one edge only
// (branch-sensitive constant propagation).
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "bvram/machine.hpp"
#include "opt/cfg.hpp"

namespace nsc::opt {

// ---------------------------------------------------------------------------
// abstract values
// ---------------------------------------------------------------------------

struct AV {
  enum Kind : std::uint8_t { Unknown, Empty, Const } kind = Unknown;
  std::uint64_t n = 0;

  bool operator==(const AV&) const = default;
  static AV unknown() { return {Unknown, 0}; }
  static AV empty() { return {Empty, 0}; }
  static AV konst(std::uint64_t n) { return {Const, n}; }
};

inline AV av_meet(AV a, AV b) { return a == b ? a : AV::unknown(); }

// The dataflow state is a vector over "slots": only registers that can
// ever hold a statically-known value get one (the closure of LoadConst /
// LoadEmpty / never-written / branch-tested registers under the foldable
// operations).  Registers without a slot are Unknown everywhere, which
// is exactly what a dense analysis would compute for them -- naive
// compiled programs are large, and this keeps the per-block state small.
inline constexpr std::uint32_t kNoSlot = 0xffffffff;

using AvState = std::vector<AV>;  // indexed by slot

struct SlotMap {
  std::vector<std::uint32_t> slot_of;  // reg -> slot or kNoSlot
  std::uint32_t num_slots = 0;

  AV get(const AvState& s, std::uint32_t r) const {
    const std::uint32_t slot = slot_of[r];
    return slot == kNoSlot ? AV::unknown() : s[slot];
  }
  void set(AvState& s, std::uint32_t r, AV v) const {
    const std::uint32_t slot = slot_of[r];
    if (slot != kNoSlot) s[slot] = v;
  }
};

/// Registers whose abstract value can ever be non-Unknown: never-written
/// non-input registers (they stay empty), LoadConst/LoadEmpty targets,
/// registers tested by a GotoIfEmpty (empty on the taken edge), closed
/// under the foldable operations applied to tracked sources.
SlotMap build_av_slots(const bvram::Program& p);

/// Abstract result of an instruction given the pre-state (has_dst only).
AV av_eval(const bvram::Instr& in, const AvState& s, const SlotMap& m);

/// Domain for the shared ForwardDataflow driver.
struct AvDomain {
  const bvram::Program* p = nullptr;
  const SlotMap* m = nullptr;

  AvState entry() const {
    AvState s(m->num_slots, AV::empty());  // non-inputs start empty
    for (std::size_t r = 0; r < p->num_inputs && r < p->num_regs; ++r) {
      m->set(s, static_cast<std::uint32_t>(r), AV::unknown());
    }
    return s;
  }
  AvState unreached() const { return AvState(m->num_slots, AV::unknown()); }
  void meet_into(AvState& a, const AvState& b) const {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = av_meet(a[i], b[i]);
  }
  void transfer(const bvram::Instr& in, AvState& s) const {
    if (in.has_dst()) m->set(s, in.dst, av_eval(in, s, *m));
  }
  /// Branch sensitivity: along the taken edge of a GotoIfEmpty the
  /// tested register is empty.  (The fall-through edge only certifies
  /// non-emptiness, which the lattice cannot represent.)  edge_refines
  /// is the copy-avoidance guard the dataflow driver consults first.
  bool edge_refines(const bvram::Program& prog, const Cfg& cfg,
                    std::size_t pred, std::size_t succ) const;
  void edge_refine(const bvram::Program& prog, const Cfg& cfg,
                   std::size_t pred, std::size_t succ, AvState& s) const;
};

// ---------------------------------------------------------------------------
// value numbering
// ---------------------------------------------------------------------------

// Key: (op, aop, imm-for-LoadConst, value numbers of the source regs).
using VnKey = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t>;

struct VnEntry {
  std::uint32_t reg = 0;
  std::uint64_t vn = 0;
};

/// The numbering table, scoped with an undo log: a tree-structured
/// rewrite walk (extended basic blocks before, the dominator tree now)
/// pushes each block's mutations onto the log and rolls them back on
/// the way out, so facts flow into subtrees but never across siblings.
struct VnTable {
  std::vector<std::uint64_t> reg_vn;  // register -> current value number
  std::uint64_t next_vn;
  std::map<VnKey, VnEntry> exprs;

  struct UndoRecord {
    enum Kind : std::uint8_t { Reg, ExprSet, ExprNew } kind;
    std::uint32_t reg = 0;
    std::uint64_t old_vn = 0;
    VnKey key{};
    VnEntry old_entry{};
  };
  std::vector<UndoRecord> undo;

  explicit VnTable(std::size_t num_regs)
      : reg_vn(num_regs), next_vn(num_regs) {
    for (std::size_t r = 0; r < num_regs; ++r) reg_vn[r] = r;
  }

  std::size_t mark() const { return undo.size(); }

  void set_reg_vn(std::uint32_t r, std::uint64_t v) {
    if (reg_vn[r] == v) return;
    undo.push_back({UndoRecord::Reg, r, reg_vn[r], {}, {}});
    reg_vn[r] = v;
  }

  void set_expr(const VnKey& key, VnEntry e) {
    auto [it, inserted] = exprs.emplace(key, e);
    if (inserted) {
      undo.push_back({UndoRecord::ExprNew, 0, 0, key, {}});
    } else {
      undo.push_back({UndoRecord::ExprSet, 0, 0, key, it->second});
      it->second = e;
    }
  }

  void rollback(std::size_t to_mark);

  VnKey key_of(const bvram::Instr& in) const;
};

/// Ops whose recomputation on value-identical operands may be replaced
/// (or aliased) by the earlier result.
bool cse_eligible(const bvram::Instr& in);

}  // namespace nsc::opt
