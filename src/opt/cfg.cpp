#include "opt/cfg.hpp"

#include <algorithm>
#include <bit>

namespace nsc::opt {

using bvram::Instr;
using bvram::Op;
using bvram::Program;

Cfg Cfg::build(const Program& p) {
  const std::size_t n = p.code.size();
  Cfg cfg;
  if (n == 0) return cfg;

  // Leaders: instruction 0, every jump target, every instruction after a
  // control-flow instruction.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& in = p.code[i];
    if (in.is_jump()) {
      if (in.target < n) leader[in.target] = true;
      if (i + 1 < n) leader[i + 1] = true;
    } else if (in.op == Op::Halt && i + 1 < n) {
      leader[i + 1] = true;
    }
  }

  cfg.block_of.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (leader[i]) {
      cfg.blocks.push_back(Block{i, i, {}, {}, false});
    }
    cfg.block_of[i] = cfg.blocks.size() - 1;
    cfg.blocks.back().end = i + 1;
  }

  auto link = [&](std::size_t from, std::size_t to_instr) {
    if (to_instr >= n) {
      cfg.blocks[from].falls_to_exit = true;
      return;
    }
    cfg.blocks[from].succs.push_back(cfg.block_of[to_instr]);
  };
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const Instr& last = p.code[cfg.blocks[b].end - 1];
    switch (last.op) {
      case Op::Goto:
        link(b, last.target);
        break;
      case Op::GotoIfEmpty:
        link(b, last.target);
        link(b, cfg.blocks[b].end);
        break;
      case Op::Halt:
        cfg.blocks[b].falls_to_exit = true;
        break;
      default:
        link(b, cfg.blocks[b].end);
        break;
    }
    auto& succs = cfg.blocks[b].succs;
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
  }
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (std::size_t s : cfg.blocks[b].succs) cfg.blocks[s].preds.push_back(b);
  }

  // Reverse postorder of the blocks reachable from the entry.
  const std::size_t nb = cfg.blocks.size();
  cfg.rpo_num.assign(nb, kNoBlock);
  std::vector<bool> seen(nb, false);
  struct Frame {
    std::size_t block;
    std::size_t next_succ;
  };
  std::vector<Frame> stack{{0, 0}};
  seen[0] = true;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& succs = cfg.blocks[f.block].succs;
    if (f.next_succ < succs.size()) {
      const std::size_t s = succs[f.next_succ++];
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back({s, 0});
      }
    } else {
      cfg.rpo.push_back(f.block);  // postorder for now
      stack.pop_back();
    }
  }
  std::reverse(cfg.rpo.begin(), cfg.rpo.end());
  for (std::size_t i = 0; i < cfg.rpo.size(); ++i) cfg.rpo_num[cfg.rpo[i]] = i;
  return cfg;
}

OrderedWorklist::OrderedWorklist(const std::vector<std::size_t>& order,
                                 std::size_t num_blocks)
    : order_(order),
      pos_(num_blocks, kNoBlock),
      queued_((order.size() + 63) / 64, 0) {
  for (std::size_t i = 0; i < order.size(); ++i) pos_[order[i]] = i;
}

std::size_t OrderedWorklist::pop() {
  while (low_ < queued_.size() && queued_[low_] == 0) ++low_;
  if (low_ == queued_.size()) return kNoBlock;
  std::uint64_t& word = queued_[low_];
  const std::size_t i =
      (low_ << 6) + static_cast<std::size_t>(std::countr_zero(word));
  word &= word - 1;  // clear the lowest set bit
  return order_[i];
}

DomTree DomTree::build(const Cfg& cfg) {
  const std::size_t nb = cfg.blocks.size();
  DomTree dt;
  dt.idom.assign(nb, kNoBlock);
  dt.children.assign(nb, {});
  dt.pre.assign(nb, 0);
  dt.post.assign(nb, 0);
  if (nb == 0) return dt;

  // Cooper–Harvey–Kennedy: intersect walks both fingers up to the common
  // dominator, comparing RPO numbers.
  const std::vector<std::size_t>& rpo_num = cfg.rpo_num;
  auto intersect = [&](std::size_t a, std::size_t b) {
    while (a != b) {
      while (rpo_num[a] > rpo_num[b]) a = dt.idom[a];
      while (rpo_num[b] > rpo_num[a]) b = dt.idom[b];
    }
    return a;
  };
  dt.idom[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < cfg.rpo.size(); ++i) {
      const std::size_t b = cfg.rpo[i];
      std::size_t new_idom = kNoBlock;
      for (std::size_t p : cfg.blocks[b].preds) {
        if (dt.idom[p] == kNoBlock) continue;  // not processed yet
        new_idom = new_idom == kNoBlock ? p : intersect(p, new_idom);
      }
      if (new_idom != kNoBlock && dt.idom[b] != new_idom) {
        dt.idom[b] = new_idom;
        changed = true;
      }
    }
  }

  for (std::size_t i = 1; i < cfg.rpo.size(); ++i) {
    const std::size_t b = cfg.rpo[i];
    if (dt.idom[b] != kNoBlock) dt.children[dt.idom[b]].push_back(b);
  }

  // Entry/exit stamps over the dominator tree for O(1) dominates().
  std::size_t clock = 0;
  struct Frame {
    std::size_t block;
    std::size_t next_child;
  };
  std::vector<Frame> stack{{0, 0}};
  dt.pre[0] = clock++;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < dt.children[f.block].size()) {
      const std::size_t c = dt.children[f.block][f.next_child++];
      dt.pre[c] = clock++;
      stack.push_back({c, 0});
    } else {
      dt.post[f.block] = clock++;
      stack.pop_back();
    }
  }
  return dt;
}

LoopForest LoopForest::build(const Cfg& cfg, const DomTree& dom) {
  const std::size_t nb = cfg.blocks.size();
  LoopForest f;

  // Back edges b -> h with h dominating b, grouped by header.
  std::vector<std::size_t> loop_of_header(nb, kNoBlock);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t h : cfg.blocks[b].succs) {
      if (!dom.dominates(h, b)) continue;
      if (loop_of_header[h] == kNoBlock) {
        loop_of_header[h] = f.loops.size();
        f.loops.push_back(Loop{h, {}, {}, {}});
      }
      f.loops[loop_of_header[h]].latches.push_back(b);
    }
  }

  // Loop bodies: backward walk from the latches, stopping at the header.
  // The header is seeded as visited but never pushed: a latch equal to
  // the header (single-block self-loop) must not have its predecessors
  // walked, or the "body" would absorb everything upstream of the loop.
  for (Loop& l : f.loops) {
    std::vector<bool> in(nb, false);
    in[l.header] = true;
    std::vector<std::size_t> stack;
    for (std::size_t b : l.latches) {
      if (!in[b]) {
        in[b] = true;
        stack.push_back(b);
      }
    }
    while (!stack.empty()) {
      const std::size_t b = stack.back();
      stack.pop_back();
      for (std::size_t p : cfg.blocks[b].preds) {
        if (!in[p] && dom.reached(p)) {
          in[p] = true;
          stack.push_back(p);
        }
      }
    }
    for (std::size_t b = 0; b < nb; ++b) {
      if (!in[b]) continue;
      l.blocks.push_back(b);
      bool leaves = cfg.blocks[b].falls_to_exit;
      for (std::size_t s : cfg.blocks[b].succs) leaves |= !in[s];
      if (leaves) l.exits.push_back(b);
    }
  }
  return f;
}

bool insert_before(Program& p, const std::vector<std::vector<Instr>>& ins,
                   const std::vector<bool>& land_after,
                   std::vector<std::size_t>* new_index) {
  const std::size_t n = p.code.size();
  // pre[t]: new position of the run inserted before t; post[t]: new
  // position of original instruction t.  pre[n] == the exit.
  std::vector<std::size_t> pre(n + 1), post(n + 1);
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pre[i] = i + added;
    added += i < ins.size() ? ins[i].size() : 0;
    post[i] = i + added;
  }
  pre[n] = post[n] = n + added;
  if (new_index != nullptr) {
    new_index->assign(post.begin(), post.begin() + n);
  }
  if (added == 0) return false;

  std::vector<Instr> out;
  out.reserve(n + added);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < ins.size()) {
      for (const Instr& extra : ins[i]) out.push_back(extra);
    }
    Instr in = p.code[i];
    if (in.is_jump()) {
      const std::size_t t = std::min(in.target, n);
      in.target = land_after[i] ? post[t] : pre[t];
    }
    out.push_back(in);
  }
  p.code = std::move(out);
  return true;
}

bool erase_unkept(Program& p, const std::vector<bool>& keep) {
  const std::size_t n = p.code.size();
  // new_pos[i] = number of kept instructions before i; new_pos[n] = total.
  std::vector<std::size_t> new_pos(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    new_pos[i + 1] = new_pos[i] + (keep[i] ? 1 : 0);
  }
  if (new_pos[n] == n) return false;

  std::vector<Instr> out;
  out.reserve(new_pos[n]);
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    Instr in = p.code[i];
    if (in.is_jump()) in.target = new_pos[std::min(in.target, n)];
    out.push_back(in);
  }
  p.code = std::move(out);
  return true;
}

}  // namespace nsc::opt
