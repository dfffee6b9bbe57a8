#include "bvram/machine.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "support/checked.hpp"

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
// order).
template <typename F>
void arith_loop(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t n, F f) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
}

void arith_into(ArithOp op, std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t n) {
  using U = std::uint64_t;
  switch (op) {
    case ArithOp::Add:
      arith_loop(out, a, b, n, [](U x, U y) { return sat_add(x, y); });
      return;
    case ArithOp::Monus:
      arith_loop(out, a, b, n, [](U x, U y) { return monus(x, y); });
      return;
    case ArithOp::Mul:
      arith_loop(out, a, b, n, [](U x, U y) { return sat_mul(x, y); });
      return;
    case ArithOp::Div:
      arith_loop(out, a, b, n, [](U x, U y) {
        if (y == 0) throw EvalError("division by zero");
        return x / y;
      });
      return;
    case ArithOp::Rsh:
      arith_loop(out, a, b, n,
                 [](U x, U y) { return y >= 64 ? U{0} : x >> y; });
      return;
    case ArithOp::Log2:
      arith_loop(out, a, b, n, [](U x, U) { return ilog2(x); });
      return;
  }
  throw EvalError("unknown arithmetic op");
}

void enumerate_into(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
}

/// Exclusive saturating prefix sums of a[0, n) into out (which may alias
/// a: each element is read before its slot is written).
void scan_into(std::uint64_t* out, const std::uint64_t* a, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = a[i];
    out[i] = acc;
    acc = sat_add(acc, x);
  }
}

void copy_words(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// The execution engine (v2)
// ---------------------------------------------------------------------------
// The register representation (Buf) and the recycling allocator
// (BufferPool) live in bvram/pool.hpp so the serve layer can keep a pool
// alive across runs (RunConfig::arena).

class Engine {
 public:
  Engine(const Program& program, const std::vector<Vec>& inputs,
         const RunConfig& cfg)
      : p_(program),
        cfg_(cfg),
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
  }

  RunResult exec();

 private:
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

  const Program& p_;
  const RunConfig& cfg_;
  /// The run's buffer source: the caller's cross-run arena when
  /// RunConfig::arena is set, else a private per-run pool.
  BufferPool own_pool_;
  BufferPool* pool_;
  const std::uint64_t pool_hits0_;
  const std::uint64_t pool_misses0_;
  std::vector<Buf> regs_;
  const std::uint8_t* last_use_ = nullptr;
  // Allocator/kernel event counters, maintained unconditionally (a handful
  // of O(1) increments per instruction, lost in the noise of the kernels
  // themselves) and surfaced in RunResult::engine only when profiling.
  EngineProfile eng_;
};

RunResult Engine::exec() {
  RunResult result;
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  const bool prof = cfg_.profile;
  using Clock = std::chrono::steady_clock;
  Clock::time_point run_start;
  if (prof) {
    result.profile.assign(p_.code.size(), InstrProfile{});
    run_start = Clock::now();
  }

  while (pc < p_.code.size()) {
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
    Clock::time_point instr_start;
    if (prof) instr_start = Clock::now();

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
          copy_words(out.data(), a.data(), n);
          set_reg(instr.dst, std::move(out), instr);
        }
        break;
      }
      case Op::Arith: {
        Buf& a = reg_of(instr.a, instr);
        Buf& b = reg_of(instr.b, instr);
        if (a.size() != b.size()) fail(instr, "length mismatch");
        const std::size_t n = a.size();
        auto compute_into = [&](std::uint64_t* out) {
          arith_into(instr.aop, out, a.data(), b.data(), n);
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
          copy_words(a.data() + na, pb, nb);
          if (instr.dst != instr.a) set_reg(instr.dst, std::move(a), instr);
          break;
        }
        Buf out = acquire(na + nb);
        copy_words(out.data(), a.data(), na);
        copy_words(out.data() + na, b.data(), nb);
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
        charge(n);
        charge(n);  // input + output
        if (instr.dst == instr.a) {
          ++eng_.inplace_hits;
          enumerate_into(a.data(), n);
        } else if (operand_dies(pc, 0)) {
          ++eng_.inplace_hits;
          enumerate_into(a.data(), n);
          set_reg(instr.dst, std::move(a), instr);
        } else {
          Buf out = acquire(n);
          enumerate_into(out.data(), n);
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
        // One-pass kernel: the certificate pins |out| to |bound|, so
        // allocate that up front and validate *while* scattering -- counts
        // are read once instead of twice (sum pass + scatter pass).  A
        // trailing slack slot lets the count<=1 case (pack bits, the
        // catalog's dominant shape) store unconditionally; the guard
        // branches are never taken unless the certificate is about to
        // fail.
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
        // One pass computes all three sums: both route certificates plus
        // the output size.
        std::uint64_t csum = 0, ssum = 0, total = 0;
        for (std::size_t t = 0; t < nt; ++t) {
          csum = sat_add(csum, cnt[t]);
          ssum = sat_add(ssum, seg[t]);
          total = sat_add(total, sat_mul(cnt[t], seg[t]));
        }
        if (csum != bound.size()) {
          fail(instr, "sbm-route: bound length != sum of counts");
        }
        if (ssum != data.size()) {
          fail(instr, "sbm-route: segment sizes don't cover the data");
        }
        Buf out = acquire(total);
        std::uint64_t* po = out.data();
        std::uint64_t at = 0;
        std::uint64_t dat_at = 0;
        for (std::size_t t = 0; t < nt; ++t) {
          const std::uint64_t len = seg[t];
          for (std::uint64_t r = 0; r < cnt[t]; ++r) {
            copy_words(po + at, dat + dat_at, len);
            at += len;
          }
          dat_at += len;
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
        std::uint64_t total = 0;
        if (instr.dst == instr.a || operand_dies(pc, 0)) {
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
        // One-pass branchless pack into an upper-bound buffer (plus one
        // slack slot for the unconditional store); shrinking afterwards is
        // free (capacity is kept).
        Buf out = acquire(n + 1);
        std::uint64_t* po = out.data();
        for (std::size_t i = 0; i < n; ++i) {
          po[total] = pa[i];
          total += pa[i] != 0 ? 1 : 0;
        }
        out.reset_size(total);
        charge(n);
        charge(total);
        set_reg(instr.dst, std::move(out), instr);
        break;
      }
      case Op::ScanPlus: {
        Buf& a = reg_of(instr.a, instr);
        const std::size_t n = a.size();
        charge(n);
        charge(n);  // input + output
        if (instr.dst == instr.a) {
          ++eng_.inplace_hits;
          scan_into(a.data(), a.data(), n);
        } else if (operand_dies(pc, 0)) {
          ++eng_.inplace_hits;
          scan_into(a.data(), a.data(), n);
          set_reg(instr.dst, std::move(a), instr);
        } else {
          Buf out = acquire(n);
          scan_into(out.data(), a.data(), n);
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
