// Copy propagation's dataflow domain (opt/copyprop.cpp), for the shared
// ForwardDataflow solver of opt/cfg.hpp.
//
// Only registers that are the destination of some Move can ever carry a
// copy fact, so the state is a vector over those "slots" only (naive
// compiled programs are huge but move-sparse, and this keeps the pass
// linear-ish instead of O(instructions x registers)).  Each slot holds
// the register its value is currently a verbatim copy of (resolved to the
// ultimate source, so move chains collapse in one rewrite), or kNone.
// Meet is elementwise agreement.
#pragma once

#include <cstdint>
#include <vector>

#include "bvram/machine.hpp"

namespace nsc::opt {

struct CopyDomain {
  using State = std::vector<std::uint32_t>;  // slot -> copy-of reg, or kNone
  static constexpr std::uint32_t kNone = 0xffffffff;
  static constexpr std::uint32_t kNoSlot = 0xffffffff;

  std::vector<std::uint32_t> slot_of;  // reg -> slot, or kNoSlot
  /// reg -> it is the source of some Move.  Facts are resolved Move
  /// sources, so these are the only registers a fact can name.
  std::vector<bool> is_move_src;
  std::uint32_t num_slots = 0;

  /// One slot per Move destination of `p`.
  explicit CopyDomain(const bvram::Program& p)
      : slot_of(p.num_regs, kNoSlot), is_move_src(p.num_regs, false) {
    for (const bvram::Instr& in : p.code) {
      if (in.op != bvram::Op::Move) continue;
      if (slot_of[in.dst] == kNoSlot) slot_of[in.dst] = num_slots++;
      is_move_src[in.a] = true;
    }
  }

  State entry() const { return State(num_slots, kNone); }
  State unreached() const { return State(num_slots, kNone); }

  void meet_into(State& a, const State& b) const {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) a[i] = kNone;
    }
  }

  std::uint32_t resolve(const State& s, std::uint32_t r) const {
    const std::uint32_t slot = slot_of[r];
    if (slot == kNoSlot || s[slot] == kNone) return r;
    return s[slot];
  }

  /// Apply one instruction's effect to the copy state.
  void transfer(const bvram::Instr& in, State& s) const {
    if (!in.has_dst()) return;
    if (in.op == bvram::Op::Move) {
      const std::uint32_t src = resolve(s, in.a);
      if (src == in.dst) return;  // re-writing dst with its own value: no-op
      kill(s, in.dst);
      s[slot_of[in.dst]] = src;  // Move dsts always have a slot
      return;
    }
    kill(s, in.dst);
  }

  /// Invalidate every fact involving register `r` (it is being redefined).
  void kill(State& s, std::uint32_t r) const {
    if (is_move_src[r]) {
      for (auto& e : s) {
        if (e == r) e = kNone;
      }
    }
    const std::uint32_t slot = slot_of[r];
    if (slot != kNoSlot) s[slot] = kNone;
  }
};

}  // namespace nsc::opt
