// Basic-block control-flow graph over a bvram::Program, shared by the
// passes, plus the loop-aware analyses layered on top of it:
// dominator tree, natural-loop forest, and the preheader insertion
// utility that LICM uses to place hoisted code.  Control flow in the
// BVRAM is Goto / GotoIfEmpty / Halt; "instruction index == code.size()"
// is a legal jump destination meaning "exit", which the CFG models as
// the virtual exit block.
#pragma once

#include <cstdint>
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
  /// except along back edges.  Computed once here; the dominator tree
  /// visits blocks in this order, and liveness in its reverse.
  std::vector<std::size_t> rpo;
  std::vector<std::size_t> rpo_num;    // block id -> index in rpo, or kNoBlock

  static Cfg build(const bvram::Program& p);

  /// Block b is reachable from the entry block.
  bool reached(std::size_t b) const { return rpo_num[b] != kNoBlock; }
};

/// The worklist of the liveness analysis (opt/liveness.hpp), the one
/// iterative dataflow problem here (gvn walks the dominator tree once).
/// It always hands out the queued block that comes first in a fixed
/// visit order -- postorder, for this backward problem -- so a block
/// runs after all of its successors but the targets of back edges, and
/// only a changed back edge makes a block run again.  (A LIFO stack
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
};

/// The natural loops of a CFG (reducible or not: loops whose header does
/// not dominate the back-edge source are simply absent).  Two of them are
/// disjoint or nested, and a loop strictly contains every loop nested in
/// it, so it has more blocks; licm orders them outermost-first that way.
struct LoopForest {
  std::vector<Loop> loops;

  static LoopForest build(const Cfg& cfg, const DomTree& dom);
};

}  // namespace nsc::opt
