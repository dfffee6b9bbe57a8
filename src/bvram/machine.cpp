#include "bvram/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "support/checked.hpp"
#include "support/parallel.hpp"

namespace nsc::bvram {

const char* op_name(Op op) {
  switch (op) {
    case Op::Move:
      return "move";
    case Op::Arith:
      return "arith";
    case Op::LoadEmpty:
      return "load-empty";
    case Op::LoadConst:
      return "load-const";
    case Op::Append:
      return "append";
    case Op::Length:
      return "length";
    case Op::Enumerate:
      return "enumerate";
    case Op::BmRoute:
      return "bm-route";
    case Op::SbmRoute:
      return "sbm-route";
    case Op::Select:
      return "select";
    case Op::ScanPlus:
      return "scan-plus";
    case Op::Goto:
      return "goto";
    case Op::GotoIfEmpty:
      return "goto-if-empty";
    case Op::Halt:
      return "halt";
  }
  return "?";
}

std::string Instr::show() const {
  std::ostringstream out;
  switch (op) {
    case Op::Move:
      out << "V" << dst << " <- V" << a;
      break;
    case Op::Arith:
      out << "V" << dst << " <- V" << a << " " << lang::arith_op_name(aop)
          << " V" << b;
      break;
    case Op::LoadEmpty:
      out << "V" << dst << " <- []";
      break;
    case Op::LoadConst:
      out << "V" << dst << " <- [" << imm << "]";
      break;
    case Op::Append:
      out << "V" << dst << " <- V" << a << " @ V" << b;
      break;
    case Op::Length:
      out << "V" << dst << " <- [length(V" << a << ")]";
      break;
    case Op::Enumerate:
      out << "V" << dst << " <- enumerate(V" << a << ")";
      break;
    case Op::BmRoute:
      out << "V" << dst << " <- bm-route(V" << a << ", V" << b << ", V" << c
          << ")";
      break;
    case Op::SbmRoute:
      out << "V" << dst << " <- sbm-route(V" << a << ", V" << b << ", V" << c
          << ", V" << imm << ")";
      break;
    case Op::Select:
      out << "V" << dst << " <- sigma(V" << a << ")";
      break;
    case Op::ScanPlus:
      out << "V" << dst << " <- scan+(V" << a << ")";
      break;
    case Op::Goto:
      out << "goto " << target;
      break;
    case Op::GotoIfEmpty:
      out << "if empty?(V" << a << ") goto " << target;
      break;
    case Op::Halt:
      out << "halt";
      break;
  }
  return out.str();
}

std::string Program::disassemble() const {
  std::ostringstream out;
  out << "; regs=" << num_regs << " in=" << num_inputs
      << " out=" << num_outputs << "\n";
  for (std::size_t i = 0; i < code.size(); ++i) {
    out << i << ":\t" << code[i].show();
    const obs::DebugSite& site = debug.site(code[i].dbg);
    if (site.has_loc() || !site.nsa.empty()) {
      out << "\t; " << site.show();
    }
    out << "\n";
  }
  return out.str();
}

double Program::debug_coverage(
    const std::vector<std::uint64_t>* weight) const {
  std::uint64_t total = 0, attributed = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::uint64_t w =
        weight != nullptr ? (i < weight->size() ? (*weight)[i] : 0) : 1;
    total += w;
    if (debug.site(code[i].dbg).has_loc()) attributed += w;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(attributed) /
                          static_cast<double>(total);
}

namespace {

using Vec = std::vector<std::uint64_t>;

[[noreturn]] void fail(const Instr& instr, const std::string& what) {
  throw MachineError(what + " in `" + instr.show() + "`");
}

std::uint64_t vec_sum(const Vec& v) {
  std::uint64_t s = 0;
  for (auto x : v) s = sat_add(s, x);
  return s;
}

void check_io_shape(const Program& program, const std::vector<Vec>& inputs) {
  if (inputs.size() != program.num_inputs) {
    throw MachineError("expected " + std::to_string(program.num_inputs) +
                       " inputs, got " + std::to_string(inputs.size()));
  }
  // The I/O convention pins V_0..V_{max(in,out)-1}; an arity beyond the
  // register file would read (or seed) past it.
  if (program.num_inputs > program.num_regs) {
    throw MachineError("program declares " +
                       std::to_string(program.num_inputs) +
                       " inputs but only " + std::to_string(program.num_regs) +
                       " registers");
  }
  if (program.num_outputs > program.num_regs) {
    throw MachineError("program declares " +
                       std::to_string(program.num_outputs) +
                       " outputs but only " + std::to_string(program.num_regs) +
                       " registers");
  }
}

// ---------------------------------------------------------------------------
// Elementwise arithmetic kernels
// ---------------------------------------------------------------------------

// The ArithOp dispatch hoisted out of the element loop: lang::arith_apply
// is an out-of-line call with a per-element switch, which dominates the
// cost of the actual operation.  Each loop below is semantically identical
// to calling arith_apply per element, including the EvalError on division
// by zero (same message, raised at the first offending element in index
// order within a chunk).
template <typename F>
void arith_loop(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t lo, std::size_t hi, F f) {
  for (std::size_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
}

void arith_range(ArithOp op, std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t lo, std::size_t hi) {
  using U = std::uint64_t;
  switch (op) {
    case ArithOp::Add:
      arith_loop(out, a, b, lo, hi, [](U x, U y) { return sat_add(x, y); });
      return;
    case ArithOp::Monus:
      arith_loop(out, a, b, lo, hi, [](U x, U y) { return monus(x, y); });
      return;
    case ArithOp::Mul:
      arith_loop(out, a, b, lo, hi, [](U x, U y) { return sat_mul(x, y); });
      return;
    case ArithOp::Div:
      arith_loop(out, a, b, lo, hi, [](U x, U y) {
        if (y == 0) throw EvalError("division by zero");
        return x / y;
      });
      return;
    case ArithOp::Rsh:
      arith_loop(out, a, b, lo, hi,
                 [](U x, U y) { return y >= 64 ? U{0} : x >> y; });
      return;
    case ArithOp::Log2:
      arith_loop(out, a, b, lo, hi, [](U x, U) { return ilog2(x); });
      return;
  }
  throw EvalError("unknown arithmetic op");
}

// ---------------------------------------------------------------------------
// The execution engine (v2)
// ---------------------------------------------------------------------------
// The register representation (Buf) and the recycling allocator
// (BufferPool) live in bvram/pool.hpp so the serve layer can keep a pool
// alive across runs (RunConfig::arena).

/// Structural sanity of a fusion plan against the program it claims to
/// describe: in-bounds disjoint ranges, eligible ops in legal positions,
/// consistent binding/commit tables, registers in range.  A plan that
/// fails is ignored wholesale (the program just runs per-instruction).
/// This guards against malformed hand-built plans; a *stale* plan --
/// structurally fine but describing rewritten code -- is the caller's
/// bug, same as stale last_use masks (the PassManager clears both).
bool fusion_plan_valid(const Program& p) {
  std::size_t prev_end = 0;
  for (const FusedGroup& g : p.fusion) {
    if (g.begin < prev_end || g.end <= g.begin || g.end > p.code.size()) {
      return false;
    }
    const std::size_t n = g.end - g.begin;
    if (n < 2 || n > FusedGroup::kMaxFusedGroup) return false;
    if (g.bind_base.size() != n || g.commit.size() != n) return false;
    if (g.inputs.empty()) return false;
    for (std::uint32_t r : g.inputs) {
      if (r >= p.num_regs) return false;
    }
    std::vector<bool> committed(p.num_regs, false);
    std::size_t at = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Instr& in = p.code[g.begin + k];
      switch (in.op) {
        case Op::Move:
        case Op::Arith:
        case Op::Enumerate:
          break;
        case Op::ScanPlus:
          if (!g.serial_only) return false;
          break;
        case Op::Select:
          if (k != n - 1 || !g.has_select || !g.serial_only) return false;
          if (g.commit[k] < 0) return false;
          break;
        default:
          return false;
      }
      if (g.bind_base[k] != at) return false;
      const std::size_t nsrc = Instr::src_count(in.op);
      if (at + nsrc > g.binds.size()) return false;
      for (std::size_t j = 0; j < nsrc; ++j) {
        const FusedGroup::Bind& bd = g.binds[at + j];
        if (bd.from_def) {
          if (bd.index >= k) return false;
          if (p.code[g.begin + bd.index].op == Op::Select) return false;
        } else if (bd.index >= g.inputs.size()) {
          return false;
        }
      }
      at += nsrc;
      if (g.commit[k] >= 0) {
        const auto r = static_cast<std::size_t>(g.commit[k]);
        if (r >= p.num_regs || committed[r]) return false;
        committed[r] = true;
      }
    }
    if (at != g.binds.size()) return false;
    prev_end = g.end;
  }
  return true;
}

class Engine {
 public:
  Engine(const Program& program, const std::vector<Vec>& inputs,
         const RunConfig& cfg)
      : p_(program),
        cfg_(cfg),
        // A one-worker pool makes every chunked kernel collapse to a
        // single chunk anyway; taking the serial fast paths outright
        // skips the two-pass scans' extra traversals.  Outputs are
        // identical either way (chunking-independence).
        par_(cfg.parallel_backend && parallel_workers() > 1),
        pool_(cfg.arena != nullptr ? cfg.arena : &own_pool_),
        pool_hits0_(pool_->hits()),
        pool_misses0_(pool_->misses()),
        regs_(program.num_regs) {
    if (cfg.arena != nullptr) {
      // Draw the input registers from the arena too, so a warmed-up arena
      // serves the whole run -- inputs included -- without allocating.
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        Buf b = pool_->acquire(inputs[i].size());
        if (!inputs[i].empty()) {
          std::memcpy(b.data(), inputs[i].data(),
                      inputs[i].size() * sizeof(std::uint64_t));
        }
        regs_[i] = std::move(b);
      }
    } else {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        regs_[i].assign(inputs[i]);
      }
    }
    if (!p_.code.empty() && p_.last_use.size() == p_.code.size()) {
      last_use_ = p_.last_use.data();
    }
    if (!p_.fusion.empty() && fusion_plan_valid(p_)) {
      group_at_.assign(p_.code.size(), -1);
      for (std::size_t i = 0; i < p_.fusion.size(); ++i) {
        group_at_[p_.fusion[i].begin] = static_cast<std::int32_t>(i);
      }
    }
  }

  RunResult exec();

 private:
  /// Lanes are processed in cache-sized blocks: each grouped instruction
  /// runs its (dispatch-hoisted) kernel over one block before the next
  /// instruction touches it, so intermediates live in an L1-resident
  /// scratch instead of streaming through register-sized buffers.
  static constexpr std::size_t kFuseBlock = 128;

  /// Execute lanes [lo, hi) of a fused group.  `in_base[i]` is group
  /// input i's data, `out_base[k]` the committed output buffer of def k
  /// (nullptr: the value lives in scratch row scratch_row[k], or -- for a
  /// Move -- is a pure alias of its source).  `scan_acc[k]` carries the
  /// ScanPlus accumulators and `sel_out`/`sel_total` the terminal
  /// Select's pack buffer and cursor (serial-only groups).  Division by
  /// zero escapes as EvalError; the caller discards and falls back.
  void run_fused_range(const FusedGroup& g,
                       const std::uint64_t* const* in_base,
                       std::uint64_t* const* out_base,
                       const std::int32_t* scratch_row,
                       std::uint64_t* scratch, std::uint64_t* scan_acc,
                       std::uint64_t* sel_out, std::uint64_t& sel_total,
                       std::size_t lo, std::size_t hi) const {
    const Instr* gc = p_.code.data() + g.begin;
    const std::size_t n = g.end - g.begin;
    const std::uint64_t* span[FusedGroup::kMaxFusedGroup];
    for (std::size_t base = lo; base < hi; base += kFuseBlock) {
      const std::size_t bsz = std::min(kFuseBlock, hi - base);
      for (std::size_t k = 0; k < n; ++k) {
        const Instr& in = gc[k];
        const FusedGroup::Bind* bd = g.binds.data() + g.bind_base[k];
        const auto src = [&](std::size_t j) {
          return bd[j].from_def ? span[bd[j].index]
                                : in_base[bd[j].index] + base;
        };
        std::uint64_t* dst =
            out_base[k] != nullptr
                ? out_base[k] + base
                : (scratch_row[k] >= 0
                       ? scratch + static_cast<std::size_t>(scratch_row[k]) *
                                       kFuseBlock
                       : nullptr);
        switch (in.op) {
          case Op::Move: {
            const std::uint64_t* a = src(0);
            if (dst == nullptr) {
              span[k] = a;  // elided: the value already has a home
            } else {
              std::memcpy(dst, a, bsz * sizeof(std::uint64_t));
              span[k] = dst;
            }
            break;
          }
          case Op::Arith: {
            arith_range(in.aop, dst, src(0), src(1), 0, bsz);
            span[k] = dst;
            break;
          }
          case Op::Enumerate: {
            for (std::size_t t = 0; t < bsz; ++t) dst[t] = base + t;
            span[k] = dst;
            break;
          }
          case Op::ScanPlus: {
            const std::uint64_t* a = src(0);
            std::uint64_t acc = scan_acc[k];
            for (std::size_t t = 0; t < bsz; ++t) {
              const std::uint64_t x = a[t];
              dst[t] = acc;
              acc = sat_add(acc, x);
            }
            scan_acc[k] = acc;
            span[k] = dst;
            break;
          }
          case Op::Select: {
            // Terminal pack: the unconditional store lands in the slack
            // slot when the value is zero (same trick as the unfused
            // kernel), so the loop stays branchless.
            const std::uint64_t* a = src(0);
            std::uint64_t at = sel_total;
            for (std::size_t t = 0; t < bsz; ++t) {
              const std::uint64_t v = a[t];
              sel_out[at] = v;
              at += v != 0 ? 1 : 0;
            }
            sel_total = at;
            span[k] = nullptr;
            break;
          }
          default:
            break;  // excluded by plan validation
        }
      }
    }
  }

  bool try_fused(const FusedGroup& g, std::uint64_t& executed,
                 RunResult& result);

  Buf& reg_of(std::uint32_t r, const Instr& instr) {
    if (r >= regs_.size()) fail(instr, "register out of range");
    return regs_[r];
  }

  /// True iff source operand k of the instruction at `at` reads a register
  /// whose value is dead after the instruction on every path (so its
  /// buffer may be stolen or overwritten in place).
  bool operand_dies(std::size_t at, unsigned k) const {
    return last_use_ != nullptr && ((last_use_[at] >> k) & 1u) != 0;
  }

  /// Pooled allocation (BufferPool, bvram/pool.hpp): reuse a spare from
  /// the smallest size class sure to fit; failing that, sacrifice the
  /// largest spare (one realloc instead of a fresh heap block).  The pool
  /// holds buffers displaced by overwrites and buffers released at their
  /// register's last use (release() below); with an external arena, a
  /// prior run's whole register file as well.
  Buf acquire(std::size_t n) { return pool_->acquire(n); }

  void recycle(Buf&& b) { pool_->recycle(std::move(b)); }

  /// A register smaller than one 4 KiB page keeps its buffer past its
  /// last use: handing it back would avoid no page fault, only add a
  /// release and a later re-acquire, which short runs pay for per
  /// instruction.
  static constexpr std::size_t kReleaseMinSlots = 4096 / sizeof(std::uint64_t);

  /// Give register r's buffer back to the pool (r is dead, so nothing
  /// reads the empty register left behind).
  void release(std::uint32_t r) {
    if (regs_[r].capacity() >= kReleaseMinSlots) recycle(std::move(regs_[r]));
  }

  /// Release every source register of `instr` whose last-use bit is set
  /// in `mask`.  Runs after the instruction completed, so every source
  /// has passed reg_of's range check.
  void release_dying_srcs(const Instr& instr, std::uint8_t mask) {
    const Instr::Srcs srcs = instr.srcs();
    for (std::size_t k = 0; k < srcs.n; ++k) {
      if (((mask >> k) & 1u) != 0) release(srcs.regs[k]);
    }
  }

  /// Release every input of group g whose last use lies inside the group.
  /// Runs after the group's kernel and before its commit, so a register
  /// the group also commits to just receives its new value; no commit
  /// target needs to be left out.  O(G), like the per-instruction path.
  void release_dying_inputs(const FusedGroup& g) {
    for (std::size_t k = 0; k < g.end - g.begin; ++k) {
      const std::uint8_t mask = last_use_[g.begin + k];
      if (mask == 0) continue;
      const std::size_t nsrc = Instr::src_count(p_.code[g.begin + k].op);
      for (std::size_t j = 0; j < nsrc; ++j) {
        const FusedGroup::Bind& bd = g.binds[g.bind_base[k] + j];
        if (!bd.from_def && ((mask >> j) & 1u) != 0) {
          release(g.inputs[bd.index]);
        }
      }
    }
  }

  /// Resize register d to one slot.  A register without a buffer (never
  /// written, or released) takes one from the pool, not the allocator: a
  /// buffer made outside the pool would join a cross-run arena when the
  /// run parks its register file, and the arena would grow every run.
  void make_scalar(Buf& d) {
    if (d.capacity() == 0) {
      d = acquire(1);
    } else {
      d.reset_size(1);
    }
  }

  /// Install `out` as dst's new contents, recycling the displaced buffer.
  /// Validates dst *after* the kernel ran, mirroring run_reference's
  /// error precedence (a trapping kernel beats a bad dst register).
  void set_reg(std::uint32_t dst, Buf&& out, const Instr& instr) {
    Buf& d = reg_of(dst, instr);
    recycle(std::move(d));
    d = std::move(out);
  }

  void copy_range(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n) const {
    if (n == 0) return;
    if (!par_) {
      std::memcpy(dst, src, n * sizeof(std::uint64_t));
      return;
    }
    parallel_for(n, [&](std::size_t lo, std::size_t hi) {
      std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(std::uint64_t));
    });
  }

  const Program& p_;
  const RunConfig& cfg_;
  const bool par_;
  /// The run's buffer source: the caller's cross-run arena when
  /// RunConfig::arena is set, else a private per-run pool.
  BufferPool own_pool_;
  BufferPool* pool_;
  const std::uint64_t pool_hits0_;
  const std::uint64_t pool_misses0_;
  std::vector<Buf> regs_;
  const std::uint8_t* last_use_ = nullptr;
  /// group_at_[pc] = index into p_.fusion of the group starting at pc,
  /// -1 otherwise; empty when there is no plan or it didn't validate.
  std::vector<std::int32_t> group_at_;
  // Allocator/kernel event counters, maintained unconditionally (a handful
  // of O(1) increments per instruction, lost in the noise of the kernels
  // themselves) and surfaced in RunResult::engine only when profiling.
  EngineProfile eng_;
};

/// Attempt to run group `g` (whose head is the current pc) as one fused
/// pass.  On success: registers, T, W, trace, and per-slot profile are
/// left exactly as per-instruction execution would leave them, and the
/// caller jumps to g.end.  On failure (unequal input extents, budget
/// about to expire mid-group, or a lane trap): *nothing* is mutated --
/// the register file was never touched -- and the caller re-executes the
/// range per-instruction, which reproduces the unfused behavior
/// (including the exact trap instruction, element order, and message)
/// by construction.
bool Engine::try_fused(const FusedGroup& g, std::uint64_t& executed,
                       RunResult& result) {
  const std::size_t G = g.end - g.begin;
  if (executed + G > cfg_.max_instructions) {
    // The budget expires mid-group; the per-instruction path throws
    // FuelExhausted at the exact instruction it should.
    ++eng_.fused_fallbacks;
    return false;
  }
  const std::size_t n = regs_[g.inputs[0]].size();
  for (std::uint32_t r : g.inputs) {
    if (regs_[r].size() != n) {
      ++eng_.fused_fallbacks;
      return false;
    }
  }

  const bool prof = cfg_.profile;
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  std::uint64_t chunks_before = 0;
  if (prof) {
    chunks_before = parallel_chunk_count();
    t0 = Clock::now();
  }

  const Instr* gc = p_.code.data() + g.begin;

  // Stage storage: committed defs write straight into their (pooled)
  // output buffers, everything else into L1-sized scratch rows -- except
  // elided Moves, which need no storage at all, and the terminal Select,
  // which packs into its own slack-slotted buffer.
  //
  // Rows are recycled: a def's row is free once its last in-group reader
  // has run.  Reuse *at* the last reader (dst aliasing a source) is safe
  // because every kernel reads its source elements before writing the
  // destination element -- the same property the unfused engine's
  // in-place execution relies on.  A chain cycling two temporaries then
  // runs in two rows instead of one per def, keeping the working set in
  // L1 no matter the group length.
  std::vector<Buf> bufs(G);
  std::uint64_t* out_base[FusedGroup::kMaxFusedGroup];
  std::int32_t scratch_row[FusedGroup::kMaxFusedGroup];
  std::int32_t last_read[FusedGroup::kMaxFusedGroup];
  for (std::size_t k = 0; k < G; ++k) {
    // A def nobody reads (it only exists for trap fidelity) expires
    // immediately; its row frees for any later def.
    last_read[k] = static_cast<std::int32_t>(k);
    const std::size_t nsrc = Instr::src_count(gc[k].op);
    for (std::size_t j = 0; j < nsrc; ++j) {
      const FusedGroup::Bind& bd = g.binds[g.bind_base[k] + j];
      if (!bd.from_def) continue;
      // A read of an elided Move lands on its source's storage; it is
      // the underlying producer's lifetime that must stretch to here.
      std::uint32_t d = bd.index;
      while (gc[d].op == Op::Move && g.commit[d] < 0 &&
             g.binds[g.bind_base[d]].from_def) {
        d = g.binds[g.bind_base[d]].index;
      }
      last_read[d] = static_cast<std::int32_t>(k);
    }
  }
  Buf sel_buf;
  std::uint64_t* sel_out = nullptr;
  std::size_t rows = 0;
  std::int32_t free_rows[FusedGroup::kMaxFusedGroup];
  std::size_t num_free = 0;
  for (std::size_t k = 0; k < G; ++k) {
    out_base[k] = nullptr;
    scratch_row[k] = -1;
  }
  for (std::size_t k = 0; k < G; ++k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (scratch_row[j] < 0) continue;
      // Freed exactly once: at the last reader (in-place handoff), or --
      // for a def nobody reads -- at the next instruction.
      const auto lr = static_cast<std::size_t>(last_read[j]);
      if ((lr == j ? j + 1 : lr) == k) {
        free_rows[num_free++] = scratch_row[j];
      }
    }
    if (gc[k].op == Op::Select) {
      sel_buf = acquire(n + 1);
      sel_out = sel_buf.data();
    } else if (g.commit[k] >= 0) {
      bufs[k] = acquire(n);
      out_base[k] = bufs[k].data();
    } else if (gc[k].op != Op::Move) {
      scratch_row[k] = num_free > 0 ? free_rows[--num_free]
                                    : static_cast<std::int32_t>(rows++);
    }
  }
  std::vector<const std::uint64_t*> in_base(g.inputs.size());
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    in_base[i] = regs_[g.inputs[i]].data();
  }

  std::uint64_t scan_acc[FusedGroup::kMaxFusedGroup] = {};
  std::uint64_t sel_total = 0;
  bool trapped = false;
  try {
    if (par_ && !g.serial_only) {
      const ChunkPlan plan = ChunkPlan::make(n);
      if (plan.chunks > 1) {
        for_each_chunk(plan,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
          // Per-chunk scratch: chunks touch disjoint lanes of the
          // shared output buffers but need private intermediates.
          std::vector<std::uint64_t> scratch(rows * kFuseBlock);
          std::uint64_t unused = 0;
          run_fused_range(g, in_base.data(), out_base, scratch_row,
                          scratch.data(), nullptr, nullptr, unused, lo, hi);
        });
      } else {
        std::vector<std::uint64_t> scratch(rows * kFuseBlock);
        run_fused_range(g, in_base.data(), out_base, scratch_row,
                        scratch.data(), scan_acc, sel_out, sel_total, 0, n);
      }
    } else {
      std::vector<std::uint64_t> scratch(rows * kFuseBlock);
      run_fused_range(g, in_base.data(), out_base, scratch_row,
                      scratch.data(), scan_acc, sel_out, sel_total, 0, n);
    }
  } catch (const EvalError&) {
    trapped = true;  // division by zero somewhere in the group
  }
  if (trapped) {
    for (std::size_t k = 0; k < G; ++k) recycle(std::move(bufs[k]));
    recycle(std::move(sel_buf));
    ++eng_.fused_fallbacks;
    return false;
  }

  // Commit: hand back the inputs that died inside the group, then install
  // every surviving value, recycling displaced buffers.  Only now does the
  // register file change, so the live state is exactly what
  // per-instruction execution produces.
  if (last_use_ != nullptr) release_dying_inputs(g);
  for (std::size_t k = 0; k < G; ++k) {
    if (g.commit[k] < 0) {
      ++eng_.fused_elided;
      continue;
    }
    const auto dst = static_cast<std::uint32_t>(g.commit[k]);
    if (gc[k].op == Op::Select) {
      sel_buf.reset_size(static_cast<std::size_t>(sel_total));
      set_reg(dst, std::move(sel_buf), gc[k]);
    } else {
      set_reg(dst, std::move(bufs[k]), gc[k]);
    }
  }
  ++eng_.fused_groups;
  eng_.fused_instrs += G;

  // Synthesize the per-instruction charges the unfused engine would have
  // made: every in-group value has the common extent n (the ops are all
  // length-preserving), except the Select output, whose true length the
  // pack cursor just measured.
  executed += G;
  result.cost.time = sat_add(result.cost.time, G);
  std::uint64_t wk[FusedGroup::kMaxFusedGroup];
  for (std::size_t k = 0; k < G; ++k) {
    std::uint64_t w = 0;
    std::uint64_t ml = n;
    switch (gc[k].op) {
      case Op::Move:
      case Op::Enumerate:
      case Op::ScanPlus:
        w = sat_add(n, n);  // input + output
        break;
      case Op::Arith:
        w = sat_add(sat_add(n, n), n);  // a, b, out
        break;
      case Op::Select:
        w = sat_add(n, sel_total);
        if (sel_total > ml) ml = sel_total;
        break;
      default:
        break;
    }
    wk[k] = w;
    result.cost.work = sat_add(result.cost.work, w);
    if (cfg_.record_trace) {
      result.trace.push_back(
          {gc[k].op, w, ml, static_cast<std::uint64_t>(g.begin + k)});
    }
  }
  if (prof) {
    // count/work/bytes are the deterministic contract and synthesized
    // exactly; wall time (one measurement for the whole group) is split
    // evenly and the chunk delta lands on the head slot -- both are
    // documented as run-to-run-variable.
    const auto total_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    for (std::size_t k = 0; k < G; ++k) {
      InstrProfile& ip = result.profile[g.begin + k];
      ip.count += 1;
      ip.work = sat_add(ip.work, wk[k]);
      ip.bytes = sat_add(ip.bytes, sat_mul(wk[k], 8));
      ip.wall_ns += total_ns / G;
    }
    result.profile[g.begin].wall_ns += total_ns % G;
    result.profile[g.begin].chunks += parallel_chunk_count() - chunks_before;
  }
  return true;
}

RunResult Engine::exec() {
  RunResult result;
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  const bool par = par_;
  const bool prof = cfg_.profile;
  using Clock = std::chrono::steady_clock;
  Clock::time_point run_start;
  ParallelCounters par_before;
  if (prof) {
    result.profile.assign(p_.code.size(), InstrProfile{});
    par_before = parallel_counters();
    run_start = Clock::now();
  }

  while (pc < p_.code.size()) {
    if (!group_at_.empty() && group_at_[pc] >= 0) {
      const FusedGroup& g =
          p_.fusion[static_cast<std::size_t>(group_at_[pc])];
      if (try_fused(g, executed, result)) {
        pc = g.end;
        continue;
      }
      // Fall through: the group's range executes per-instruction (the
      // plan only ever matches the group head, so no re-entry mid-group).
    }
    const Instr& instr = p_.code[pc];
    if (++executed > cfg_.max_instructions) {
      throw FuelExhausted("BVRAM exceeded " +
                          std::to_string(cfg_.max_instructions) +
                          " instructions");
    }
    std::uint64_t work = 0;
    std::uint64_t max_len = 0;
    auto charge = [&](std::size_t len) {
      work = sat_add(work, len);
      if (len > max_len) max_len = len;
    };
    std::size_t next = pc + 1;
    std::uint64_t chunks_before = 0;
    Clock::time_point instr_start;
    if (prof) {
      chunks_before = parallel_chunk_count();
      instr_start = Clock::now();
    }

    switch (instr.op) {
      case Op::Move: {
        Buf& a = reg_of(instr.a, instr);
        const std::size_t n = a.size();
        charge(n);
        charge(n);  // input + output
        if (instr.dst == instr.a) break;
        if (operand_dies(pc, 0)) {
          // The source is dead: dst takes its buffer, and the displaced
          // dst buffer lands in the (dead) source register, which the
          // last-use release below hands back to the pool if it spans a
          // page.  O(1), charged 2n all the same.
          ++eng_.move_swaps;
          reg_of(instr.dst, instr).swap(a);
        } else {
          Buf out = acquire(n);
          copy_range(out.data(), a.data(), n);
          set_reg(instr.dst, std::move(out), instr);
        }
        break;
      }
      case Op::Arith: {
        Buf& a = reg_of(instr.a, instr);
        Buf& b = reg_of(instr.b, instr);
        if (a.size() != b.size()) fail(instr, "length mismatch");
        const std::size_t n = a.size();
        const ArithOp op = instr.aop;
        const std::uint64_t* pa = a.data();
        const std::uint64_t* pb = b.data();
        auto compute_into = [&](std::uint64_t* out) {
          if (par) {
            parallel_for(n, [&](std::size_t lo, std::size_t hi) {
              arith_range(op, out, pa, pb, lo, hi);
            });
          } else {
            arith_range(op, out, pa, pb, 0, n);
          }
        };
        charge(n);
        charge(n);
        charge(n);  // a, b, out: all length n
        if (instr.dst == instr.a || instr.dst == instr.b) {
          // dst aliases a source: index-aligned in-place update.
          ++eng_.inplace_hits;
          compute_into(reg_of(instr.dst, instr).data());
        } else if (operand_dies(pc, 0)) {
          ++eng_.inplace_hits;
          compute_into(a.data());
          set_reg(instr.dst, std::move(a), instr);
        } else if (operand_dies(pc, 1)) {
          ++eng_.inplace_hits;
          compute_into(b.data());
          set_reg(instr.dst, std::move(b), instr);
        } else {
          Buf out = acquire(n);
          compute_into(out.data());
          set_reg(instr.dst, std::move(out), instr);
        }
        break;
      }
      case Op::LoadEmpty: {
        reg_of(instr.dst, instr).clear();  // keeps the buffer for reuse
        work = 1;
        break;
      }
      case Op::LoadConst: {
        Buf& d = reg_of(instr.dst, instr);
        make_scalar(d);
        d[0] = instr.imm;
        work = 1;
        max_len = 1;
        break;
      }
      case Op::Append: {
        Buf& a = reg_of(instr.a, instr);
        Buf& b = reg_of(instr.b, instr);
        const std::size_t na = a.size();
        const std::size_t nb = b.size();
        charge(na);
        charge(nb);
        charge(na + nb);
        if ((instr.dst == instr.a || operand_dies(pc, 0)) &&
            a.capacity() >= na + nb) {
          // The left source dies here (or doubles as dst) and its buffer
          // already has room: keep the first na slots in place and copy
          // only the right source after them (the Select-in-place
          // pattern).  b's pointer is read before the size reset; within
          // capacity the reset never reallocates, so it stays valid even
          // when b aliases a, and when b aliases dst the displaced buffer
          // is recycled only after the copy.
          ++eng_.inplace_hits;
          const std::uint64_t* pb = b.data();
          a.reset_size(na + nb);
          copy_range(a.data() + na, pb, nb);
          if (instr.dst != instr.a) set_reg(instr.dst, std::move(a), instr);
          break;
        }
        Buf out = acquire(na + nb);
        copy_range(out.data(), a.data(), na);
        copy_range(out.data() + na, b.data(), nb);
        set_reg(instr.dst, std::move(out), instr);
        break;
      }
      case Op::Length: {
        Buf& a = reg_of(instr.a, instr);
        const std::uint64_t n = a.size();
        charge(a.size());
        work = sat_add(work, 1);
        Buf& d = reg_of(instr.dst, instr);
        make_scalar(d);
        d[0] = n;
        break;
      }
      case Op::Enumerate: {
        Buf& a = reg_of(instr.a, instr);
        const std::size_t n = a.size();
        auto fill = [&](std::uint64_t* out) {
          if (par) {
            parallel_for(n, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) out[i] = i;
            });
          } else {
            for (std::size_t i = 0; i < n; ++i) out[i] = i;
          }
        };
        charge(n);
        charge(n);  // input + output
        if (instr.dst == instr.a) {
          ++eng_.inplace_hits;
          fill(a.data());
        } else if (operand_dies(pc, 0)) {
          ++eng_.inplace_hits;
          fill(a.data());
          set_reg(instr.dst, std::move(a), instr);
        } else {
          Buf out = acquire(n);
          fill(out.data());
          set_reg(instr.dst, std::move(out), instr);
        }
        break;
      }
      case Op::BmRoute: {
        Buf& bound = reg_of(instr.a, instr);
        Buf& counts = reg_of(instr.b, instr);
        Buf& data = reg_of(instr.c, instr);
        if (counts.size() != data.size()) {
          fail(instr, "bm-route: counts/data length mismatch");
        }
        const std::size_t nt = counts.size();
        const std::uint64_t* cnt = counts.data();
        const std::uint64_t* dat = data.data();
        if (!par) {
          // Fused serial kernel: the certificate pins |out| to |bound|,
          // so allocate that up front and validate *while* scattering --
          // counts are read once instead of twice (sum pass + scatter
          // pass).  A trailing slack slot lets the count<=1 case (pack
          // bits, the catalog's dominant shape) store unconditionally;
          // the guard branches are never taken unless the certificate is
          // about to fail.
          const std::uint64_t bsize = bound.size();
          Buf out = acquire(static_cast<std::size_t>(bsize) + 2);
          out.reset_size(bsize);
          std::uint64_t* po = out.data();
          std::uint64_t at = 0;
          std::size_t t = 0;
          for (; t < nt; ++t) {
            if (at > bsize) break;  // sum already exceeds the bound
            const std::uint64_t c = cnt[t];
            if (c <= 1) {
              po[at] = dat[t];  // slack slot absorbs the at == bsize store
              at += c;
            } else if (c == 2 && at < bsize) {
              // Pairwise duplication (the seg-sum ladder): two
              // unconditional stores, the second into slack if need be.
              const std::uint64_t x = dat[t];
              po[at] = x;
              po[at + 1] = x;
              at += 2;
            } else if (c <= bsize - at) {
              const std::uint64_t x = dat[t];
              for (std::uint64_t r = 0; r < c; ++r) po[at++] = x;
            } else {
              break;  // this count alone overruns the bound
            }
          }
          if (t < nt || at != bsize) {
            fail(instr, "bm-route: bound length != sum of counts");
          }
          charge(bsize);
          charge(nt);
          charge(nt);
          charge(bsize);
          set_reg(instr.dst, std::move(out), instr);
          break;
        }
        // Parallel: one chunked pass over counts yields the certificate
        // sum *and* the per-chunk scatter offsets (the fused vec_sum
        // validation).
        const ChunkPlan plan = ChunkPlan::make(nt);
        std::vector<std::uint64_t> offs;
        const std::uint64_t total = parallel_scan(
            plan,
            [&](std::size_t lo, std::size_t hi) {
              std::uint64_t s = 0;
              for (std::size_t i = lo; i < hi; ++i) s = sat_add(s, cnt[i]);
              return s;
            },
            offs);
        if (total != bound.size()) {
          fail(instr, "bm-route: bound length != sum of counts");
        }
        Buf out = acquire(total);  // exact: total == |bound|
        std::uint64_t* po = out.data();
        if (total <= nt) {
          // Contraction-heavy: walk counts in order, chunked.
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t at = offs[c];
            for (std::size_t t = lo; t < hi; ++t) {
              const std::uint64_t x = dat[t];
              for (std::uint64_t r = 0; r < cnt[t]; ++r) po[at++] = x;
            }
          });
        } else {
          // Skew-robust parallel scatter (the Prop 2.1 balanced routing):
          // chunking over *counts* serializes skewed routes -- the
          // compiler's broadcast (a single count of n) being the extreme
          // case -- so materialize the per-element offsets and partition
          // the *output* space instead; each output chunk binary-searches
          // its starting element.
          Buf off = acquire(nt);
          std::uint64_t* poff = off.data();
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t at = offs[c];
            for (std::size_t t = lo; t < hi; ++t) {
              poff[t] = at;
              at = sat_add(at, cnt[t]);
            }
          });
          parallel_for(static_cast<std::size_t>(total),
                       [&](std::size_t lo, std::size_t hi) {
            std::size_t t = static_cast<std::size_t>(
                std::upper_bound(poff, poff + nt, lo) - poff) - 1;
            std::size_t pos = lo;
            while (pos < hi) {
              const std::size_t run_end = static_cast<std::size_t>(
                  std::min<std::uint64_t>(hi, poff[t] + cnt[t]));
              const std::uint64_t x = dat[t];
              for (; pos < run_end; ++pos) po[pos] = x;
              ++t;
            }
          });
          recycle(std::move(off));
        }
        charge(bound.size());
        charge(nt);
        charge(nt);
        charge(total);
        set_reg(instr.dst, std::move(out), instr);
        break;
      }
      case Op::SbmRoute: {
        Buf& bound = reg_of(instr.a, instr);
        Buf& counts = reg_of(instr.b, instr);
        Buf& data = reg_of(instr.c, instr);
        Buf& segs = reg_of(static_cast<std::uint32_t>(instr.imm), instr);
        if (counts.size() != segs.size()) {
          fail(instr, "sbm-route: counts/segs length mismatch");
        }
        const std::size_t nt = segs.size();
        const std::uint64_t* cnt = counts.data();
        const std::uint64_t* seg = segs.data();
        const std::uint64_t* dat = data.data();
        // One pass computes all three sums (both route certificates plus
        // the output size); in the parallel path it runs chunked and the
        // serial chunk-combine derives the scatter offsets.
        const ChunkPlan plan = par ? ChunkPlan::make(nt)
                                   : ChunkPlan::serial(nt);
        std::uint64_t csum = 0, ssum = 0, total = 0;
        std::vector<std::uint64_t> seg_off(plan.chunks, 0);
        std::vector<std::uint64_t> out_off(plan.chunks, 0);
        if (plan.chunks <= 1) {
          for (std::size_t t = 0; t < nt; ++t) {
            csum = sat_add(csum, cnt[t]);
            ssum = sat_add(ssum, seg[t]);
            total = sat_add(total, sat_mul(cnt[t], seg[t]));
          }
        } else {
          std::vector<std::uint64_t> csums(plan.chunks, 0);
          std::vector<std::uint64_t> ssums(plan.chunks, 0);
          std::vector<std::uint64_t> psums(plan.chunks, 0);
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t cs = 0, ss = 0, ps = 0;
            for (std::size_t t = lo; t < hi; ++t) {
              cs = sat_add(cs, cnt[t]);
              ss = sat_add(ss, seg[t]);
              ps = sat_add(ps, sat_mul(cnt[t], seg[t]));
            }
            csums[c] = cs;
            ssums[c] = ss;
            psums[c] = ps;
          });
          for (std::size_t c = 0; c < plan.chunks; ++c) {
            seg_off[c] = ssum;
            out_off[c] = total;
            csum = sat_add(csum, csums[c]);
            ssum = sat_add(ssum, ssums[c]);
            total = sat_add(total, psums[c]);
          }
        }
        if (csum != bound.size()) {
          fail(instr, "sbm-route: bound length != sum of counts");
        }
        if (ssum != data.size()) {
          fail(instr, "sbm-route: segment sizes don't cover the data");
        }
        Buf out = acquire(total);
        std::uint64_t* po = out.data();
        if (plan.chunks <= 1 && (!par || total <= nt)) {
          std::uint64_t at = 0;
          std::uint64_t dat_at = 0;
          for (std::size_t t = 0; t < nt; ++t) {
            const std::uint64_t len = seg[t];
            for (std::uint64_t r = 0; r < cnt[t]; ++r) {
              if (len != 0) {
                std::memcpy(po + at, dat + dat_at,
                            len * sizeof(std::uint64_t));
              }
              at += len;
            }
            dat_at += len;
          }
        } else if (!par || total <= nt) {
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t at = out_off[c];
            std::uint64_t dat_at = seg_off[c];
            for (std::size_t t = lo; t < hi; ++t) {
              const std::uint64_t len = seg[t];
              for (std::uint64_t r = 0; r < cnt[t]; ++r) {
                if (len != 0) {
                  std::memcpy(po + at, dat + dat_at,
                              len * sizeof(std::uint64_t));
                }
                at += len;
              }
              dat_at += len;
            }
          });
        } else {
          // Skew-robust parallel scatter over the *output* space (see
          // BmRoute): a single segment replicated n times -- the flattened
          // cartesian product -- would otherwise run on one chunk.
          Buf off = acquire(nt);       // output offset per segment t
          Buf doff = acquire(nt);      // data offset per segment t
          std::uint64_t* poff = off.data();
          std::uint64_t* pdoff = doff.data();
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t at = out_off[c];
            std::uint64_t dat_at = seg_off[c];
            for (std::size_t t = lo; t < hi; ++t) {
              poff[t] = at;
              pdoff[t] = dat_at;
              at = sat_add(at, sat_mul(cnt[t], seg[t]));
              dat_at = sat_add(dat_at, seg[t]);
            }
          });
          parallel_for(static_cast<std::size_t>(total),
                       [&](std::size_t lo, std::size_t hi) {
            std::size_t t = static_cast<std::size_t>(
                std::upper_bound(poff, poff + nt, lo) - poff) - 1;
            std::size_t pos = lo;
            while (pos < hi) {
              const std::uint64_t len = seg[t];
              const std::uint64_t block_end =
                  poff[t] + sat_mul(cnt[t], len);
              while (pos < hi && pos < block_end) {
                // Position inside segment t's replicated block: copy to
                // the end of the current repetition (or the chunk).
                const std::uint64_t rel = pos - poff[t];
                const std::uint64_t within = rel % len;
                const std::size_t stop = static_cast<std::size_t>(
                    std::min<std::uint64_t>({hi, block_end,
                                             pos + (len - within)}));
                std::memcpy(po + pos, dat + pdoff[t] + within,
                            (stop - pos) * sizeof(std::uint64_t));
                pos = stop;
              }
              ++t;
            }
          });
          recycle(std::move(off));
          recycle(std::move(doff));
        }
        charge(bound.size());
        charge(counts.size());
        charge(data.size());
        charge(segs.size());
        charge(total);
        set_reg(instr.dst, std::move(out), instr);
        break;
      }
      case Op::Select: {
        Buf& a = reg_of(instr.a, instr);
        const std::size_t n = a.size();
        const std::uint64_t* pa = a.data();
        const ChunkPlan plan =
            par ? ChunkPlan::make(n) : ChunkPlan::serial(n);
        Buf out;
        std::uint64_t total = 0;
        if (plan.chunks <= 1 &&
            (instr.dst == instr.a || operand_dies(pc, 0))) {
          // The source dies here (or doubles as dst): pack in place over
          // its own buffer.  The write index never passes the read index
          // (total <= i), so the unconditional store stays behind the
          // scan and inside the buffer -- no slack slot, no acquire.
          ++eng_.inplace_hits;
          std::uint64_t* po = a.data();
          for (std::size_t i = 0; i < n; ++i) {
            po[total] = pa[i];
            total += pa[i] != 0 ? 1 : 0;
          }
          a.reset_size(static_cast<std::size_t>(total));  // shrink: free
          charge(n);
          charge(total);
          if (instr.dst != instr.a) {
            set_reg(instr.dst, std::move(a), instr);
          }
          break;
        }
        if (plan.chunks <= 1) {
          // One-pass branchless pack into an upper-bound buffer (plus one
          // slack slot for the unconditional store); shrinking afterwards
          // is free (capacity is kept).
          out = acquire(n + 1);
          std::uint64_t* po = out.data();
          for (std::size_t i = 0; i < n; ++i) {
            po[total] = pa[i];
            total += pa[i] != 0 ? 1 : 0;
          }
          out.reset_size(total);
        } else {
          // Count / scan / scatter: the count pass doubles as the offset
          // computation, the scatter preserves order within each chunk.
          std::vector<std::uint64_t> offs;
          total = parallel_scan(
              plan,
              [&](std::size_t lo, std::size_t hi) {
                std::uint64_t k = 0;
                for (std::size_t i = lo; i < hi; ++i) {
                  k += pa[i] != 0 ? 1 : 0;
                }
                return k;
              },
              offs);
          out = acquire(total);
          std::uint64_t* po = out.data();
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t at = offs[c];
            for (std::size_t i = lo; i < hi; ++i) {
              if (pa[i] != 0) po[at++] = pa[i];
            }
          });
        }
        charge(n);
        charge(total);
        set_reg(instr.dst, std::move(out), instr);
        break;
      }
      case Op::ScanPlus: {
        Buf& a = reg_of(instr.a, instr);
        const std::size_t n = a.size();
        const std::uint64_t* pa = a.data();
        auto scan_into = [&](std::uint64_t* out) {
          const ChunkPlan plan =
              par ? ChunkPlan::make(n) : ChunkPlan::serial(n);
          if (plan.chunks <= 1) {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < n; ++i) {
              const std::uint64_t x = pa[i];  // read before an aliased write
              out[i] = acc;
              acc = sat_add(acc, x);
            }
            return;
          }
          // Two-pass block scan; the sum pass completes (a barrier) before
          // the emit pass writes, so in-place aliasing is safe.
          std::vector<std::uint64_t> offs;
          parallel_scan(
              plan,
              [&](std::size_t lo, std::size_t hi) {
                std::uint64_t s = 0;
                for (std::size_t i = lo; i < hi; ++i) s = sat_add(s, pa[i]);
                return s;
              },
              offs);
          for_each_chunk(plan, [&](std::size_t c, std::size_t lo,
                                   std::size_t hi) {
            std::uint64_t acc = offs[c];
            for (std::size_t i = lo; i < hi; ++i) {
              const std::uint64_t x = pa[i];
              out[i] = acc;
              acc = sat_add(acc, x);
            }
          });
        };
        charge(n);
        charge(n);  // input + output
        if (instr.dst == instr.a) {
          ++eng_.inplace_hits;
          scan_into(a.data());
        } else if (operand_dies(pc, 0)) {
          ++eng_.inplace_hits;
          scan_into(a.data());
          set_reg(instr.dst, std::move(a), instr);
        } else {
          Buf out = acquire(n);
          scan_into(out.data());
          set_reg(instr.dst, std::move(out), instr);
        }
        break;
      }
      case Op::Goto: {
        if (instr.target > p_.code.size()) fail(instr, "bad jump");
        next = instr.target;
        work = 1;
        break;
      }
      case Op::GotoIfEmpty: {
        Buf& a = reg_of(instr.a, instr);
        charge(a.size());
        work = sat_add(work, 1);
        // Validated on both edges: a bad target is a program bug even when
        // the branch is not taken this time around.
        if (instr.target > p_.code.size()) fail(instr, "bad jump");
        if (a.empty()) next = instr.target;
        break;
      }
      case Op::Halt: {
        work = 1;
        next = p_.code.size();
        break;
      }
    }
    // Sources that die here hand their buffers back to the pool.
    // Compiled code is close to SSA, so most registers are written once:
    // kept until Halt, every buffer a run produces would be a fresh
    // allocation, and past cache sizes a fresh set of page faults.
    if (last_use_ != nullptr && last_use_[pc] != 0) {
      release_dying_srcs(instr, last_use_[pc]);
    }

    result.cost.time = sat_add(result.cost.time, 1);
    result.cost.work = sat_add(result.cost.work, work);
    if (prof) {
      InstrProfile& ip = result.profile[pc];
      ip.count += 1;
      ip.wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               instr_start)
              .count());
      ip.work = sat_add(ip.work, work);
      ip.bytes = sat_add(ip.bytes, sat_mul(work, 8));
      ip.chunks += parallel_chunk_count() - chunks_before;
    }
    if (cfg_.record_trace) {
      result.trace.push_back(
          {instr.op, work, max_len, static_cast<std::uint64_t>(pc)});
    }
    pc = next;
  }

  result.outputs.reserve(p_.num_outputs);
  for (std::size_t i = 0; i < p_.num_outputs; ++i) {
    result.outputs.push_back(regs_[i].to_vec());
  }
  if (cfg_.arena != nullptr) {
    // Outputs are deep-copied above, so the whole register file can be
    // parked in the arena for the next run to reuse.
    for (Buf& b : regs_) pool_->recycle(std::move(b));
  }
  if (prof) {
    eng_.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             run_start)
            .count());
    const ParallelCounters after = parallel_counters();
    eng_.par_kernels = after.calls - par_before.calls;
    eng_.par_chunks = after.chunks - par_before.chunks;
    eng_.par_serial = after.serial_calls - par_before.serial_calls;
    eng_.pool_hits = pool_->hits() - pool_hits0_;
    eng_.pool_misses = pool_->misses() - pool_misses0_;
    result.engine = eng_;
  }
  return result;
}

}  // namespace

RunResult run(const Program& program, const std::vector<Vec>& inputs,
              const RunConfig& cfg) {
  check_io_shape(program, inputs);
  Engine engine(program, inputs, cfg);
  return engine.exec();
}

// ---------------------------------------------------------------------------
// The reference interpreter
// ---------------------------------------------------------------------------
// Section 2 read literally: one serial loop, a fresh output vector per
// instruction, a deep-copying Move.  Tests assert run() produces
// bit-identical outputs, traps, T, W, and traces.

RunResult run_reference(const Program& program, const std::vector<Vec>& inputs,
                        const RunConfig& cfg) {
  check_io_shape(program, inputs);
  std::vector<Vec> regs(program.num_regs);
  for (std::size_t i = 0; i < inputs.size(); ++i) regs[i] = inputs[i];

  auto reg_of = [&](std::uint32_t r, const Instr& instr) -> Vec& {
    if (r >= regs.size()) fail(instr, "register out of range");
    return regs[r];
  };

  RunResult result;
  std::size_t pc = 0;
  std::uint64_t executed = 0;

  while (pc < program.code.size()) {
    const Instr& instr = program.code[pc];
    if (++executed > cfg.max_instructions) {
      throw FuelExhausted("BVRAM exceeded " +
                          std::to_string(cfg.max_instructions) +
                          " instructions");
    }
    std::uint64_t work = 0;
    std::uint64_t max_len = 0;
    auto charge = [&](const Vec& v) {
      work = sat_add(work, v.size());
      if (v.size() > max_len) max_len = v.size();
    };
    std::size_t next = pc + 1;

    switch (instr.op) {
      case Op::Move: {
        Vec out = reg_of(instr.a, instr);
        charge(out);
        charge(out);  // input + output
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::Arith: {
        const Vec& a = reg_of(instr.a, instr);
        const Vec& b = reg_of(instr.b, instr);
        if (a.size() != b.size()) fail(instr, "length mismatch");
        Vec out(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          out[i] = lang::arith_apply(instr.aop, a[i], b[i]);
        }
        charge(a);
        charge(b);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::LoadEmpty: {
        reg_of(instr.dst, instr).clear();
        work = 1;
        break;
      }
      case Op::LoadConst: {
        reg_of(instr.dst, instr) = Vec{instr.imm};
        work = 1;
        max_len = 1;
        break;
      }
      case Op::Append: {
        const Vec& a = reg_of(instr.a, instr);
        const Vec& b = reg_of(instr.b, instr);
        Vec out;
        out.reserve(a.size() + b.size());
        out.insert(out.end(), a.begin(), a.end());
        out.insert(out.end(), b.begin(), b.end());
        charge(a);
        charge(b);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::Length: {
        const Vec& a = reg_of(instr.a, instr);
        charge(a);
        reg_of(instr.dst, instr) = Vec{a.size()};
        work = sat_add(work, 1);
        break;
      }
      case Op::Enumerate: {
        const Vec& a = reg_of(instr.a, instr);
        Vec out(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) out[i] = i;
        charge(a);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::BmRoute: {
        const Vec& bound = reg_of(instr.a, instr);
        const Vec& counts = reg_of(instr.b, instr);
        const Vec& data = reg_of(instr.c, instr);
        if (counts.size() != data.size()) {
          fail(instr, "bm-route: counts/data length mismatch");
        }
        if (vec_sum(counts) != bound.size()) {
          fail(instr, "bm-route: bound length != sum of counts");
        }
        Vec out;
        out.reserve(bound.size());
        for (std::size_t t = 0; t < data.size(); ++t) {
          for (std::uint64_t r = 0; r < counts[t]; ++r) out.push_back(data[t]);
        }
        charge(bound);
        charge(counts);
        charge(data);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::SbmRoute: {
        const Vec& bound = reg_of(instr.a, instr);
        const Vec& counts = reg_of(instr.b, instr);
        const Vec& data = reg_of(instr.c, instr);
        const Vec& segs =
            reg_of(static_cast<std::uint32_t>(instr.imm), instr);
        if (counts.size() != segs.size()) {
          fail(instr, "sbm-route: counts/segs length mismatch");
        }
        if (vec_sum(counts) != bound.size()) {
          fail(instr, "sbm-route: bound length != sum of counts");
        }
        if (vec_sum(segs) != data.size()) {
          fail(instr, "sbm-route: segment sizes don't cover the data");
        }
        Vec out;
        std::size_t at = 0;
        for (std::size_t t = 0; t < segs.size(); ++t) {
          const std::size_t len = segs[t];
          for (std::uint64_t r = 0; r < counts[t]; ++r) {
            out.insert(out.end(), data.begin() + at, data.begin() + at + len);
          }
          at += len;
        }
        charge(bound);
        charge(counts);
        charge(data);
        charge(segs);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::Select: {
        const Vec& a = reg_of(instr.a, instr);
        Vec out;
        for (auto x : a) {
          if (x != 0) out.push_back(x);
        }
        charge(a);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::ScanPlus: {
        const Vec& a = reg_of(instr.a, instr);
        Vec out(a.size());
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
          out[i] = acc;
          acc = sat_add(acc, a[i]);
        }
        charge(a);
        charge(out);
        reg_of(instr.dst, instr) = std::move(out);
        break;
      }
      case Op::Goto: {
        if (instr.target > program.code.size()) fail(instr, "bad jump");
        next = instr.target;
        work = 1;
        break;
      }
      case Op::GotoIfEmpty: {
        const Vec& a = reg_of(instr.a, instr);
        charge(a);
        work = sat_add(work, 1);
        if (instr.target > program.code.size()) fail(instr, "bad jump");
        if (a.empty()) next = instr.target;
        break;
      }
      case Op::Halt: {
        work = 1;
        next = program.code.size();
        break;
      }
    }

    result.cost.time = sat_add(result.cost.time, 1);
    result.cost.work = sat_add(result.cost.work, work);
    if (cfg.record_trace) {
      result.trace.push_back(
          {instr.op, work, max_len, static_cast<std::uint64_t>(pc)});
    }
    pc = next;
  }

  result.outputs.assign(regs.begin(), regs.begin() + program.num_outputs);
  return result;
}

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

std::uint32_t Assembler::reg() { return next_reg_++; }

void Assembler::reserve_regs(std::size_t n) {
  if (next_reg_ < n) next_reg_ = static_cast<std::uint32_t>(n);
}

void Assembler::push(Instr in) {
  in.dbg = site_;
  code_.push_back(in);
}

void Assembler::move(std::uint32_t dst, std::uint32_t src) {
  push({Op::Move, ArithOp::Add, dst, src, 0, 0, 0, 0});
}

void Assembler::arith(std::uint32_t dst, ArithOp op, std::uint32_t a,
                      std::uint32_t b) {
  push({Op::Arith, op, dst, a, b, 0, 0, 0});
}

void Assembler::load_empty(std::uint32_t dst) {
  push({Op::LoadEmpty, ArithOp::Add, dst, 0, 0, 0, 0, 0});
}

void Assembler::load_const(std::uint32_t dst, std::uint64_t n) {
  push({Op::LoadConst, ArithOp::Add, dst, 0, 0, 0, n, 0});
}

void Assembler::append(std::uint32_t dst, std::uint32_t a, std::uint32_t b) {
  push({Op::Append, ArithOp::Add, dst, a, b, 0, 0, 0});
}

void Assembler::length(std::uint32_t dst, std::uint32_t src) {
  push({Op::Length, ArithOp::Add, dst, src, 0, 0, 0, 0});
}

void Assembler::enumerate(std::uint32_t dst, std::uint32_t src) {
  push({Op::Enumerate, ArithOp::Add, dst, src, 0, 0, 0, 0});
}

void Assembler::bm_route(std::uint32_t dst, std::uint32_t bound,
                         std::uint32_t counts, std::uint32_t data) {
  push({Op::BmRoute, ArithOp::Add, dst, bound, counts, data, 0, 0});
}

void Assembler::sbm_route(std::uint32_t dst, std::uint32_t bound,
                          std::uint32_t counts, std::uint32_t data,
                          std::uint32_t segs) {
  push({Op::SbmRoute, ArithOp::Add, dst, bound, counts, data, segs, 0});
}

void Assembler::select(std::uint32_t dst, std::uint32_t src) {
  push({Op::Select, ArithOp::Add, dst, src, 0, 0, 0, 0});
}

void Assembler::scan_plus(std::uint32_t dst, std::uint32_t src) {
  push({Op::ScanPlus, ArithOp::Add, dst, src, 0, 0, 0, 0});
}

void Assembler::halt() {
  push({Op::Halt, ArithOp::Add, 0, 0, 0, 0, 0, 0});
}

Assembler::Label Assembler::fresh_label() {
  label_addr_.push_back(-1);
  return label_addr_.size() - 1;
}

void Assembler::bind(Label l) {
  check_label(l);
  if (label_addr_[l] >= 0) {
    throw MachineError("label L" + std::to_string(l) + " bound twice");
  }
  label_addr_[l] = static_cast<std::ptrdiff_t>(code_.size());
}

void Assembler::jump(Label l) {
  check_label(l);
  fixups_.emplace_back(code_.size(), l);
  push({Op::Goto, ArithOp::Add, 0, 0, 0, 0, 0, 0});
}

void Assembler::jump_if_empty(std::uint32_t reg, Label l) {
  check_label(l);
  fixups_.emplace_back(code_.size(), l);
  push({Op::GotoIfEmpty, ArithOp::Add, 0, reg, 0, 0, 0, 0});
}

void Assembler::check_label(Label l) const {
  if (l >= label_addr_.size()) {
    throw MachineError("unknown label L" + std::to_string(l) +
                       " (only " + std::to_string(label_addr_.size()) +
                       " labels allocated)");
  }
}

Program Assembler::finish(std::size_t num_inputs, std::size_t num_outputs) {
  for (const auto& [at, label] : fixups_) {
    const std::ptrdiff_t addr = label_addr_[label];
    if (addr < 0) {
      throw MachineError("unbound label L" + std::to_string(label) +
                         " referenced by instruction " + std::to_string(at) +
                         " `" + code_[at].show() + "`");
    }
    code_[at].target = static_cast<std::size_t>(addr);
  }
  // Every jump target -- including the not-taken edge of GotoIfEmpty --
  // must land inside [0, code.size()] (code.size() is the exit).  Label
  // resolution guarantees this for targets produced above; the check
  // still guards instruction sequences spliced in by future emitters.
  for (std::size_t i = 0; i < code_.size(); ++i) {
    if (code_[i].is_jump() && code_[i].target > code_.size()) {
      throw MachineError("jump target " + std::to_string(code_[i].target) +
                         " out of range in `" + code_[i].show() + "` at " +
                         std::to_string(i));
    }
  }
  Program p;
  p.num_regs = next_reg_;
  p.num_inputs = num_inputs;
  p.num_outputs = num_outputs;
  p.code = std::move(code_);
  return p;
}

}  // namespace nsc::bvram
