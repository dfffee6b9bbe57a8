// Backward liveness over the fixed BVRAM register file, shared by
// dead-code elimination, loop-invariant code motion and the execution
// engine's last-use export.
//
// The boundary condition is the machine's I/O convention: registers
// V_0 .. V_{num_outputs-1} are live wherever control can leave the
// program (Halt, a jump to code.size(), or falling off the end).
#pragma once

#include <cstdint>
#include <vector>

#include "bvram/machine.hpp"
#include "opt/cfg.hpp"

namespace nsc::opt {

/// A set of registers stored as 64-bit words, so the union over a
/// block's successors and the change test cost a word per 64 registers.
class RegSet {
 public:
  explicit RegSet(std::size_t num_regs) : words_((num_regs + 63) / 64, 0) {}

  bool test(std::uint32_t r) const { return (words_[r >> 6] >> (r & 63)) & 1u; }
  void set(std::uint32_t r) { words_[r >> 6] |= std::uint64_t{1} << (r & 63); }
  void reset(std::uint32_t r) {
    words_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  }
  RegSet& operator|=(const RegSet& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  bool operator==(const RegSet&) const = default;

 private:
  std::vector<std::uint64_t> words_;
};

struct Liveness {
  /// live_in[b] holds r iff r may be read before being written on some
  /// path from the top of block b.
  std::vector<RegSet> live_in;

  /// The least fixpoint, found with opt/cfg.hpp's OrderedWorklist in
  /// postorder (reachable blocks first, then the unreachable ones): a
  /// block is visited after all of its successors but the targets of
  /// back edges.
  static Liveness compute(const bvram::Program& p, const Cfg& cfg);

  /// Registers live at the bottom of block b (the union over successors
  /// plus the output registers when control can exit here).
  RegSet live_out_of(const bvram::Program& p, const Cfg& cfg,
                     std::size_t b) const;
};

/// Per-instruction death masks for the execution engine
/// (bvram::Program::last_use): bit k of mask[i] is set iff the register
/// read by source operand k of instruction i is dead immediately after i
/// on every path -- its value can never be observed again -- so the
/// engine may recycle that operand's buffer (Move-as-swap, in-place
/// Arith/Enumerate/ScanPlus) without the rewrite being visible in
/// outputs, traps, or the T/W cost accounting.  Bit 7
/// (bvram::kDeadResult) is set iff instruction i's destination is dead
/// immediately after i on every path: the engine then runs a certificate
/// (Arith, BmRoute, SbmRoute) as its checks alone and hands any other
/// instruction's result back to the pool.  It is never set for a jump or
/// Halt (no destination), for an output register live at exit, or for a
/// def read again around a loop.  Instructions in unreachable code get an
/// all-clear (conservative) mask.  Throws MachineError if an instruction
/// names a register or jump target out of range (verify_code); an existing
/// annotation of any size is ignored.
std::vector<std::uint8_t> compute_last_use(const bvram::Program& p);

/// Compute and attach the masks: p.last_use = compute_last_use(p).
/// Must be (re-)run after any mutation of p.code -- the optimizer's
/// PassManager clears stale annotations, and sa::compile_nsa /
/// compile_nsc annotate as their final step.
void annotate_last_use(bvram::Program& p);

}  // namespace nsc::opt
