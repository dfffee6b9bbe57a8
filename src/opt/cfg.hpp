// Basic-block control-flow graph over a bvram::Program, shared by the
// dataflow passes, plus the loop-aware analyses layered on top of it:
// dominator tree, natural-loop forest, and the preheader insertion
// utility that LICM uses to place hoisted code.  Control flow in the
// BVRAM is Goto / GotoIfEmpty / Halt; "instruction index == code.size()"
// is a legal jump destination meaning "exit", which the CFG models as
// the virtual exit block.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bvram/machine.hpp"

namespace nsc::opt {

inline constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

struct Block {
  std::size_t begin = 0;  ///< first instruction index
  std::size_t end = 0;    ///< one past the last instruction
  std::vector<std::size_t> succs;  ///< successor block ids (no exit entry)
  std::vector<std::size_t> preds;
  bool falls_to_exit = false;  ///< control can leave the program here
};

struct Cfg {
  std::vector<Block> blocks;           // blocks[0] is the entry block
  std::vector<std::size_t> block_of;   // instruction index -> block id
  /// The blocks reachable from the entry, in reverse postorder of a
  /// depth-first walk from block 0: every block precedes its successors
  /// except along back edges.  Computed once here; the dataflow
  /// worklists and the dominator tree all visit blocks in this order.
  std::vector<std::size_t> rpo;
  std::vector<std::size_t> rpo_num;    // block id -> index in rpo, or kNoBlock

  static Cfg build(const bvram::Program& p);

  /// Block b is reachable from the entry block.
  bool reached(std::size_t b) const { return rpo_num[b] != kNoBlock; }
};

/// The worklist of every dataflow analysis here: it always hands out the
/// queued block that comes first in a fixed visit order -- reverse
/// postorder for forward problems, postorder for backward ones -- so
/// values flow along every forward edge before any block is revisited,
/// and only a changed back edge makes a block run again.  (A LIFO stack
/// instead chases each change around a loop before its body settles,
/// revisiting the blocks of a deep nest hundreds of times.)  Queued
/// blocks are bits over positions in the order, popped lowest first.
class OrderedWorklist {
 public:
  /// `order` lists the blocks that may ever be queued, first-visited
  /// first; each of the `num_blocks` block ids appears at most once.  It
  /// is borrowed, not copied, so it must outlive the worklist.
  OrderedWorklist(const std::vector<std::size_t>& order,
                  std::size_t num_blocks);
  OrderedWorklist(std::vector<std::size_t>&&, std::size_t) = delete;

  /// Queue block b, which must appear in the order (no-op if queued).
  void push(std::size_t b) {
    const std::size_t i = pos_[b];
    queued_[i >> 6] |= std::uint64_t{1} << (i & 63);
    if ((i >> 6) < low_) low_ = i >> 6;
  }

  /// Dequeue the earliest queued block in the order; kNoBlock if none.
  std::size_t pop();

 private:
  const std::vector<std::size_t>& order_;
  std::vector<std::size_t> pos_;       // block id -> index in order_
  std::vector<std::uint64_t> queued_;  // bit i: order_[i] is queued
  std::size_t low_ = 0;                // no queued bit in a word below
};

/// Drop the instructions with keep[i] == false, remapping every jump
/// target (a target pointing at a dropped instruction moves to the next
/// kept one; code.size() stays the exit).  Returns true if anything was
/// dropped.
bool erase_unkept(bvram::Program& p, const std::vector<bool>& keep);

/// Insert ins[i] (possibly empty) immediately before instruction i,
/// remapping every jump target of the *original* code: the jump at old
/// index j lands *after* the run inserted at its target iff
/// land_after[j] (back edges into a loop header skip the preheader
/// code), and at the start of the run otherwise (entry edges flow
/// through it).  code.size() stays the exit.  The inserted instructions
/// must not be jumps (their targets are not remapped).  If `new_index`
/// is non-null it receives, for every original instruction, its
/// position in the rewritten code.  Returns true if anything was
/// inserted.
bool insert_before(bvram::Program& p,
                   const std::vector<std::vector<bvram::Instr>>& ins,
                   const std::vector<bool>& land_after,
                   std::vector<std::size_t>* new_index = nullptr);

/// Dominator tree (iterative Cooper–Harvey–Kennedy over the CFG's
/// reverse postorder).  Blocks unreachable from the entry have
/// idom == kNoBlock and do not appear in the tree.
struct DomTree {
  std::vector<std::size_t> idom;  ///< immediate dominator; entry -> itself
  std::vector<std::vector<std::size_t>> children;  ///< dom-tree edges
  /// DFS entry/exit stamps over the dominator tree, for O(1) queries.
  std::vector<std::size_t> pre, post;

  static DomTree build(const Cfg& cfg);

  bool reached(std::size_t b) const { return idom[b] != kNoBlock; }

  /// a dominates b (reflexively).  False if either block is unreachable.
  bool dominates(std::size_t a, std::size_t b) const {
    return reached(a) && reached(b) && pre[a] <= pre[b] && post[b] <= post[a];
  }
};

/// One natural loop: the target of one or more back edges (edges b -> h
/// where h dominates b), with all back edges sharing a header merged.
struct Loop {
  std::size_t header = kNoBlock;
  std::vector<std::size_t> blocks;   ///< member blocks, header included
  std::vector<std::size_t> latches;  ///< back-edge source blocks
  /// Blocks with an edge leaving the loop (incl. falling to the exit).
  std::vector<std::size_t> exits;
  std::size_t parent = kNoBlock;  ///< innermost enclosing loop, if any
  std::size_t depth = 1;          ///< nesting depth; outermost = 1
};

/// The natural-loop forest of a CFG (reducible or not: loops whose
/// header does not dominate the back-edge source are simply absent).
struct LoopForest {
  std::vector<Loop> loops;
  /// block -> innermost containing loop id, or kNoBlock.
  std::vector<std::size_t> loop_of;

  static LoopForest build(const Cfg& cfg, const DomTree& dom);

  bool contains(std::size_t loop, std::size_t block) const {
    for (std::size_t l = loop_of[block]; l != kNoBlock; l = loops[l].parent) {
      if (l == loop) return true;
    }
    return false;
  }
};

/// Generic forward dataflow fixpoint over the CFG, shared by copy-prop
/// and the peephole constant analysis.  Block out-states start at
/// TOP ("uncomputed", the identity of the meet), so must-problems
/// converge to their maximal fixpoint on loops.  Blocks are visited in
/// reverse postorder (OrderedWorklist): the first pass reaches each block
/// after all its forward-edge predecessors, and later passes only
/// re-run blocks whose input a back edge changed.
///
/// `Domain` provides:
///   State entry() const;                        // in-state of block 0
///   State unreached() const;                    // all-bottom fallback
///   void meet_into(State&, const State&) const;
///   void transfer(const bvram::Instr&, State&) const;
/// and optionally (detected by a requires-expression, both required
/// together)
///   bool edge_refines(const bvram::Program&, const Cfg&, std::size_t pred,
///                     std::size_t succ) const;
///   void edge_refine(const bvram::Program&, const Cfg&, std::size_t pred,
///                    std::size_t succ, State&) const;
/// which sharpen a predecessor's out-state along one specific CFG edge
/// before the meet -- the hook behind branch-sensitive constant
/// propagation (on the taken edge of a GotoIfEmpty the tested register
/// is known empty).  edge_refines is the cheap guard: only edges it
/// accepts pay for the out-state copy that refinement needs.
template <typename State, typename Domain>
class ForwardDataflow {
 public:
  ForwardDataflow(const bvram::Program& p, const Cfg& cfg, const Domain& dom)
      : p_(p),
        cfg_(cfg),
        dom_(dom),
        out_(cfg.blocks.size()),
        have_out_(cfg.blocks.size(), false) {
    if (cfg.blocks.empty()) return;
    OrderedWorklist work(cfg.rpo, cfg.blocks.size());
    work.push(0);
    for (std::size_t b = work.pop(); b != kNoBlock; b = work.pop()) {
      State s = in_state_of(b);
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        dom_.transfer(p.code[i], s);
      }
      if (!have_out_[b] || s != out_[b]) {
        out_[b] = std::move(s);
        have_out_[b] = true;
        for (std::size_t succ : cfg.blocks[b].succs) work.push(succ);
      }
    }
  }

  /// Meet of the computed predecessor out-states (TOP preds skipped).
  /// Block 0 additionally meets the implicit program-entry edge: a loop
  /// headed at instruction 0 re-enters block 0 from its back edge, so
  /// entry facts alone would be unsound there.
  State in_state_of(std::size_t b) const {
    State s{};
    bool first = true;
    if (b == 0) {
      s = dom_.entry();
      first = false;
    }
    for (std::size_t pred : cfg_.blocks[b].preds) {
      if (!have_out_[pred]) continue;  // TOP: identity for the meet
      bool refined = false;
      if constexpr (requires(State& ps) {
                      dom_.edge_refine(p_, cfg_, pred, b, ps);
                    }) {
        if (dom_.edge_refines(p_, cfg_, pred, b)) {
          State ps = out_[pred];
          dom_.edge_refine(p_, cfg_, pred, b, ps);
          if (first) {
            s = std::move(ps);
            first = false;
          } else {
            dom_.meet_into(s, ps);
          }
          refined = true;
        }
      }
      if (!refined) {
        // No refinement on this edge: meet straight from the stored
        // out-state, no copy.
        if (first) {
          s = out_[pred];
          first = false;
        } else {
          dom_.meet_into(s, out_[pred]);
        }
      }
    }
    if (first) s = dom_.unreached();  // only TOP preds (unreached block)
    return s;
  }

 private:
  const bvram::Program& p_;
  const Cfg& cfg_;
  const Domain& dom_;
  std::vector<State> out_;
  std::vector<bool> have_out_;
};

}  // namespace nsc::opt
