// Differential harness for the BVRAM execution engine: every program is
// executed by run_reference (the section-2 interpreter, the oracle) and by
// run() in two configurations --
//
//     v2            no annotations: the bare engine
//     v2+liveness   opt::annotate_last_use: Move as swap, in-place
//                   kernels, buffers released at their last use
//
// each built from a copy of the program with its annotations cleared, so
// a compiled program runs the bare engine too.  All three must agree
// bit-for-bit on outputs, trap type *and message*, T, W, and the
// per-instruction trace.  Covers every opcode including the trap cases
// (length mismatch, bad bound/segment certificates, division by zero),
// multi-instruction adversaries (a trap at one element mid-chain, fuel
// expiring mid-chain, aliased dst/src, a chain inside a loop, a dying
// input redefined by the next instruction), and the compiled example
// corpus at every OptLevel and WhileSchedule.  The Release suite checks
// that dead registers hand their buffers back to the pool.
#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <vector>

#include "bvram/machine.hpp"
#include "front/front.hpp"
#include "nsc/build.hpp"
#include "nsc/prelude.hpp"
#include "nsc/typecheck.hpp"
#include "obs/profile.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace nsc::bvram {
namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using Vec = std::vector<std::uint64_t>;

struct Outcome {
  bool trapped = false;
  std::string error;  // dynamic exception type + message
  RunResult result;
};

template <typename Runner>
Outcome outcome_of(Runner runner, const Program& p,
                   const std::vector<Vec>& inputs,
                   std::uint64_t max_instructions) {
  RunConfig cfg;
  cfg.record_trace = true;
  cfg.max_instructions = max_instructions;
  Outcome o;
  try {
    o.result = runner(p, inputs, cfg);
  } catch (const Error& e) {
    o.trapped = true;
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

void expect_same(const Outcome& base, const Outcome& got,
                 const std::string& label) {
  ASSERT_EQ(base.trapped, got.trapped) << label << ": trap disagreement ("
                                       << base.error << " vs " << got.error
                                       << ")";
  if (base.trapped) {
    EXPECT_EQ(base.error, got.error) << label;
    return;
  }
  EXPECT_EQ(base.result.outputs, got.result.outputs) << label;
  EXPECT_EQ(base.result.cost.time, got.result.cost.time) << label;
  EXPECT_EQ(base.result.cost.work, got.result.cost.work) << label;
  ASSERT_EQ(base.result.trace.size(), got.result.trace.size()) << label;
  for (std::size_t i = 0; i < base.result.trace.size(); ++i) {
    EXPECT_EQ(base.result.trace[i].op, got.result.trace[i].op)
        << label << " trace[" << i << "]";
    EXPECT_EQ(base.result.trace[i].work, got.result.trace[i].work)
        << label << " trace[" << i << "]";
    EXPECT_EQ(base.result.trace[i].max_len, got.result.trace[i].max_len)
        << label << " trace[" << i << "]";
  }
}

/// The harness: run_reference is ground truth; both run()
/// configurations must match it exactly, under the same instruction
/// budget.
void expect_identical(const Program& p, const std::vector<Vec>& inputs,
                      std::uint64_t max_instructions =
                          RunConfig{}.max_instructions) {
  Program bare = p;
  bare.last_use.clear();
  Program live = bare;
  opt::annotate_last_use(live);
  const Outcome base =
      outcome_of(run_reference, bare, inputs, max_instructions);
  const struct {
    const char* label;
    const Program& program;
  } configs[] = {{"v2", bare}, {"v2+liveness", live}};
  for (const auto& c : configs) {
    expect_same(base, outcome_of(run, c.program, inputs, max_instructions),
                c.label);
  }
}

// Sizes from empty to past the engine's one-page release cutoff (512
// slots), so the kernels run on empty, tiny, and page-spanning registers.
const std::size_t kSizes[] = {0, 1, 7, 4096, 20011};

Vec iota_mod(std::size_t n, std::uint64_t mod) {
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (i * 2654435761u) % mod;
  return v;
}

// ---------------------------------------------------------------------------
// per-opcode differential programs
// ---------------------------------------------------------------------------

TEST(Backend, MoveChain) {
  // Move in a chain, then reuse the source -- with liveness annotation the
  // first two Moves execute as swaps, the last one must copy (x is read
  // again by the Append).
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto z = a.reg();
  auto w = a.reg();
  a.move(y, x);
  a.move(z, y);
  a.move(w, x);
  a.append(0, w, x);
  a.halt();
  auto p = a.finish(1, 4);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 97)});
}

TEST(Backend, MoveSelfIsNoop) {
  Assembler a;
  auto x = a.reg();
  a.move(x, x);
  a.halt();
  auto p = a.finish(1, 1);
  expect_identical(p, {iota_mod(100, 7)});
}

TEST(Backend, ArithEveryOp) {
  for (auto op : {ArithOp::Add, ArithOp::Monus, ArithOp::Mul, ArithOp::Div,
                  ArithOp::Rsh, ArithOp::Log2}) {
    Assembler a;
    auto x = a.reg();
    auto y = a.reg();
    auto z = a.reg();
    a.arith(z, op, x, y);
    a.halt();
    auto p = a.finish(2, 3);
    for (std::size_t n : kSizes) {
      Vec xs = iota_mod(n, 1000);
      Vec ys(n);
      for (std::size_t i = 0; i < n; ++i) ys[i] = (i % 9) + 1;  // no zeros
      expect_identical(p, {xs, ys});
    }
  }
}

TEST(Backend, ArithSaturates) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto z = a.reg();
  a.arith(z, ArithOp::Add, x, y);
  a.arith(z, ArithOp::Mul, z, z);
  a.halt();
  auto p = a.finish(2, 3);
  Vec huge(5000, ~std::uint64_t{0} - 3);
  Vec small(5000, 17);
  expect_identical(p, {huge, small});
}

TEST(Backend, ArithDivByZeroTraps) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.arith(x, ArithOp::Div, x, y);
  a.halt();
  auto p = a.finish(2, 1);
  Vec num(20000, 7);
  Vec den(20000, 3);
  den[12345] = 0;  // poisoned slot deep inside the vector
  expect_identical(p, {num, den});
  den[0] = 0;  // and at the very front
  expect_identical(p, {num, den});
}

TEST(Backend, ArithLengthMismatchTraps) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.arith(x, ArithOp::Add, x, y);
  a.halt();
  auto p = a.finish(2, 1);
  expect_identical(p, {Vec(10, 1), Vec(11, 1)});
  expect_identical(p, {Vec{}, Vec{1}});
}

TEST(Backend, ArithInPlaceAliases) {
  // dst == a, dst == b, and a == b variants all stay index-aligned.
  for (int variant = 0; variant < 3; ++variant) {
    Assembler a;
    auto x = a.reg();
    auto y = a.reg();
    if (variant == 0) a.arith(x, ArithOp::Add, x, y);
    if (variant == 1) a.arith(y, ArithOp::Mul, x, y);
    if (variant == 2) a.arith(x, ArithOp::Add, y, y);
    a.halt();
    auto p = a.finish(2, 2);
    for (std::size_t n : kSizes) {
      expect_identical(p, {iota_mod(n, 50), iota_mod(n, 11)});
    }
  }
}

TEST(Backend, AppendAndLength) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto cat = a.reg();
  auto len = a.reg();
  a.append(cat, x, y);
  a.append(cat, cat, cat);  // dst aliases both sources
  a.length(len, cat);
  a.length(len, len);  // dst aliases src
  a.halt();
  auto p = a.finish(2, 4);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 13), iota_mod(n / 2, 29)});
  }
}

TEST(Backend, EnumerateInPlace) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.enumerate(y, x);  // fresh output (x still read below)
  a.enumerate(x, x);  // dst == src
  a.halt();
  auto p = a.finish(1, 2);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 5)});
}

TEST(Backend, SelectShapes) {
  Assembler a;
  auto x = a.reg();
  auto out = a.reg();
  a.select(out, x);
  a.halt();
  auto p = a.finish(1, 2);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 3)});  // ~1/3 zeros
    expect_identical(p, {Vec(n, 0)});       // everything dropped
    expect_identical(p, {Vec(n, 9)});       // nothing dropped
  }
}

TEST(Backend, ScanPlusMatchesAndSaturates) {
  Assembler a;
  auto x = a.reg();
  auto out = a.reg();
  a.scan_plus(out, x);
  a.scan_plus(x, x);  // in-place variant
  a.halt();
  auto p = a.finish(1, 2);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 1000)});
  // Saturation: the block-scan decomposition must agree with the serial
  // left-to-right saturating sum (sat_add is associative).
  Vec spiky(20000, 1);
  for (std::size_t i = 0; i < spiky.size(); i += 997) {
    spiky[i] = ~std::uint64_t{0} / 3;
  }
  expect_identical(p, {spiky});
}

TEST(Backend, BmRouteValidAndTraps) {
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto out = a.reg();
  a.bm_route(out, bound, counts, data);
  a.halt();
  auto p = a.finish(3, 4);
  SplitMix64 rng(42);
  for (std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{4096},
                        std::size_t{20011}}) {
    Vec cnt = rng.vec(n, 4);  // mix of 0..3 repetitions
    std::uint64_t total = 0;
    for (auto c : cnt) total += c;
    Vec dat = iota_mod(n, 1 << 20);
    expect_identical(p, {Vec(total, 0), cnt, dat});
    // bound too short / too long
    expect_identical(p, {Vec(total + 1, 0), cnt, dat});
    if (total > 0) expect_identical(p, {Vec(total - 1, 0), cnt, dat});
    // counts/data length mismatch
    expect_identical(p, {Vec(total, 0), cnt, iota_mod(n + 1, 7)});
  }
}

TEST(Backend, SbmRouteValidAndTraps) {
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto segs = a.reg();
  auto out = a.reg();
  a.sbm_route(out, bound, counts, data, segs);
  a.halt();
  auto p = a.finish(4, 5);
  SplitMix64 rng(7);
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{4096},
                        std::size_t{9001}}) {
    Vec cnt = rng.vec(n, 3);
    Vec seg = rng.vec(n, 4);
    std::uint64_t csum = 0, ssum = 0;
    for (auto c : cnt) csum += c;
    for (auto s : seg) ssum += s;
    Vec dat = iota_mod(ssum, 1 << 16);
    expect_identical(p, {Vec(csum, 0), cnt, dat, seg});
    // each certificate violated in turn
    expect_identical(p, {Vec(csum + 2, 0), cnt, dat, seg});
    expect_identical(p, {Vec(csum, 0), cnt, iota_mod(ssum + 1, 9), seg});
    if (n > 0) {
      Vec cnt_short(cnt.begin(), cnt.end() - 1);
      expect_identical(p, {Vec(csum, 0), cnt_short, dat, seg});
    }
  }
}

TEST(Backend, BmRouteSkewedBroadcast) {
  // The compiler's broadcast: a single count of n (maximum skew), which
  // the kernel writes through its count > 2 replication loop.
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto out = a.reg();
  a.bm_route(out, bound, counts, data);
  a.halt();
  auto p = a.finish(3, 4);
  for (std::size_t n : {std::size_t{1}, std::size_t{4096}, std::size_t{50000}}) {
    expect_identical(p, {Vec(n, 0), Vec{n}, Vec{42}});
    // two skewed elements plus a tail of ones
    if (n >= 10) {
      Vec cnt(10, 1);
      cnt[3] = n;
      cnt[7] = n / 2;
      Vec dat = iota_mod(10, 100);
      expect_identical(p, {Vec(n + n / 2 + 8, 0), cnt, dat});
    }
  }
}

TEST(Backend, SbmRouteSkewedCartesian) {
  // One segment replicated k times (the flattened cartesian product) and
  // a mixed-skew case with empty segments and zero counts.
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto segs = a.reg();
  auto out = a.reg();
  a.sbm_route(out, bound, counts, data, segs);
  a.halt();
  auto p = a.finish(4, 5);
  // |bound| = sum counts; |data| = sum segs; |out| = sum counts*segs.
  expect_identical(p, {Vec(10000, 0), Vec{10000}, iota_mod(3, 50), Vec{3}});
  expect_identical(p, {Vec(20005, 0), Vec{2, 0, 20000, 3}, iota_mod(7, 50),
                       Vec{4, 0, 2, 1}});
}

TEST(Backend, ControlFlowLoop) {
  // The countdown loop from test_bvram.
  Assembler a;
  auto acc = a.reg();
  auto n = a.reg();
  auto one = a.reg();
  auto nz = a.reg();
  a.load_const(acc, 1);
  a.load_const(one, 1);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  a.select(nz, n);
  a.jump_if_empty(nz, done);
  a.arith(acc, ArithOp::Add, acc, acc);
  a.arith(n, ArithOp::Monus, n, one);
  a.jump(top);
  a.bind(done);
  a.halt();
  auto p = a.finish(2, 1);
  expect_identical(p, {Vec{}, Vec{12}});
  expect_identical(p, {Vec{}, Vec{0}});
}

TEST(Backend, SelectInPlaceOverDeadSource) {
  // The serial engine packs in place when the source dies at the select
  // (last_use annotation) or doubles as the destination; all three
  // configurations must still agree bit-for-bit on outputs, T, W.
  Assembler a;
  auto x = a.reg();  // V0: input and final output
  auto t = a.reg();
  a.enumerate(t, x);
  a.arith(t, ArithOp::Mul, t, x);
  a.select(x, t);  // t dead afterwards: steal its buffer
  a.select(x, x);  // dst == src: pack in place outright
  a.halt();
  auto p = a.finish(1, 1);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 3)});  // ~1/3 zeros
    expect_identical(p, {Vec(n, 0)});
    expect_identical(p, {Vec(n, 9)});
  }
}

TEST(Backend, AppendInPlaceOverDeadSource) {
  // The engine extends the left source's buffer in place when it dies at
  // the append (or doubles as the destination) and its capacity suffices;
  // all three configurations must agree bit-for-bit on outputs, T, W.  The
  // select of a zero-free vector shrinks the register without shrinking
  // its capacity, which is exactly the headroom the in-place path needs.
  Assembler a;
  auto x = a.reg();  // V0: input and final output
  auto y = a.reg();
  auto z = a.reg();
  auto one = a.reg();
  a.load_const(one, 1);
  a.arith(y, ArithOp::Add, x, x);
  a.select(z, y);      // z's buffer gets capacity >= |y|
  a.append(z, z, one); // dst == left source: in place when capacity allows
  a.append(x, z, y);   // z dead afterwards: steal its buffer if it fits
  a.append(x, x, x);   // both sources alias dst
  a.halt();
  auto p = a.finish(1, 1);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 97)});   // ~1/97 zeros
    expect_identical(p, {Vec(n, 3)});         // zero-free: select keeps all
    expect_identical(p, {Vec(n, 0)});         // select empties z
  }
}

TEST(Backend, AppendInPlaceTightCapacity) {
  // A dying source whose capacity is exactly its size must take the copy
  // path; a previously shrunk one takes the in-place path.  Differential
  // over both, plus append onto an empty dying source.
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto z = a.reg();
  a.enumerate(y, x);
  a.append(z, y, x);   // y dies; fresh enumerate buffer, no slack
  a.select(z, z);      // shrink in place: capacity headroom appears
  a.append(x, z, x);   // z dies with headroom
  a.halt();
  auto p = a.finish(1, 1);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 5)});
    expect_identical(p, {Vec(n, 0)});
  }
}

TEST(Backend, PoolReuseAcrossGrowShrink) {
  // Registers repeatedly grow (append) and shrink (select of zeros),
  // churning the buffer pool.
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto z = a.reg();
  auto cnt = a.reg();
  auto one = a.reg();
  a.load_const(one, 1);
  for (int round = 0; round < 6; ++round) {
    a.append(y, x, x);
    a.scan_plus(z, y);
    a.select(z, z);
    a.enumerate(y, y);
    a.length(cnt, z);
    a.move(x, z);
  }
  a.halt();
  auto p = a.finish(1, 4);
  expect_identical(p, {iota_mod(3000, 2)});
}

TEST(Backend, RandomStraightLinePrograms) {
  // Randomized differential sweep: straight-line programs over the whole
  // ISA (routes usually trap on their certificates, which is exactly the
  // point: first-trap identity across all three configurations).
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 120; ++trial) {
    Assembler a;
    const std::size_t nregs = 4;
    for (std::size_t r = 0; r < nregs; ++r) a.reg();
    const int len = 3 + static_cast<int>(rng.below(12));
    for (int i = 0; i < len; ++i) {
      const auto dst = static_cast<std::uint32_t>(rng.below(nregs));
      const auto s1 = static_cast<std::uint32_t>(rng.below(nregs));
      const auto s2 = static_cast<std::uint32_t>(rng.below(nregs));
      const auto s3 = static_cast<std::uint32_t>(rng.below(nregs));
      switch (rng.below(10)) {
        case 0:
          a.move(dst, s1);
          break;
        case 1:
          a.arith(dst, static_cast<ArithOp>(rng.below(6)), s1, s2);
          break;
        case 2:
          a.load_const(dst, rng.below(100));
          break;
        case 3:
          a.load_empty(dst);
          break;
        case 4:
          a.append(dst, s1, s2);
          break;
        case 5:
          a.length(dst, s1);
          break;
        case 6:
          a.enumerate(dst, s1);
          break;
        case 7:
          a.select(dst, s1);
          break;
        case 8:
          a.scan_plus(dst, s1);
          break;
        case 9:
          a.bm_route(dst, s1, s2, s3);
          break;
      }
    }
    a.halt();
    auto p = a.finish(2, nregs);
    std::vector<Vec> inputs = {rng.vec(rng.below(50), 6),
                               rng.vec(rng.below(50), 6)};
    expect_identical(p, inputs);
  }
}

// ---------------------------------------------------------------------------
// satellite regressions: I/O arity and jump-target validation
// ---------------------------------------------------------------------------

TEST(Backend, OutputsBeyondRegisterFileRejected) {
  // Used to read past the register file (UB); now a MachineError up front,
  // in both engines.
  Program p;
  p.num_regs = 1;
  p.num_outputs = 3;
  p.code.push_back({Op::Halt, ArithOp::Add, 0, 0, 0, 0, 0, 0});
  EXPECT_THROW(run(p, {}), MachineError);
  EXPECT_THROW(run_reference(p, {}), MachineError);
}

TEST(Backend, InputsBeyondRegisterFileRejected) {
  Program p;
  p.num_regs = 1;
  p.num_inputs = 2;
  p.code.push_back({Op::Halt, ArithOp::Add, 0, 0, 0, 0, 0, 0});
  EXPECT_THROW(run(p, {Vec{1}, Vec{2}}), MachineError);
  EXPECT_THROW(run_reference(p, {Vec{1}, Vec{2}}), MachineError);
}

TEST(Backend, NotTakenBranchWithBadTargetRejected) {
  // The branch is never taken (register is non-empty), but the target is
  // out of range: previously this passed silently, now it is a
  // MachineError on both engines.
  Program p;
  p.num_regs = 1;
  p.num_inputs = 1;
  p.code.push_back({Op::GotoIfEmpty, ArithOp::Add, 0, 0, 0, 0, 0, 999});
  p.code.push_back({Op::Halt, ArithOp::Add, 0, 0, 0, 0, 0, 0});
  EXPECT_THROW(run(p, {Vec{5}}), MachineError);
  EXPECT_THROW(run_reference(p, {Vec{5}}), MachineError);
}

// ---------------------------------------------------------------------------
// multi-instruction adversaries: traps at an element, length mismatches,
// aliasing, fuel, loops, dying-then-redefined registers
// ---------------------------------------------------------------------------

/// A chain of elementwise ops through two temporaries: u = V0 + V1,
/// v = u op2 V0, u = v op3 V1, v = u >> V1, then V0 <- v.
Program arith_chain(ArithOp op2, ArithOp op3) {
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, op2, u, 0);
  a.arith(u, op3, v, 1);
  a.arith(v, ArithOp::Rsh, u, 1);
  a.move(0, v);
  a.halt();
  return a.finish(2, 1);
}

TEST(Backend, ArithChain) {
  const Program p = arith_chain(ArithOp::Mul, ArithOp::Monus);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 1000), iota_mod(n, 60)});
  }
}

TEST(Backend, ElementwiseOpcodeMix) {
  // Enumerate, Arith, a Move, a ScanPlus and a Select feeding each other
  // in one straight-line run.
  Assembler a;
  a.reserve_regs(1);
  auto e = a.reg(), u = a.reg(), v = a.reg();
  a.enumerate(e, 0);
  a.arith(u, ArithOp::Add, 0, e);
  a.move(v, u);
  a.scan_plus(u, v);
  a.arith(v, ArithOp::Monus, u, 0);
  a.select(0, v);
  a.halt();
  const Program p = a.finish(1, 1);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 97)});
}

TEST(Backend, DivByZeroMidChainTrapsAtElement) {
  // Division by zero on the *third* instruction of a chain, with the
  // poisoned element at the front, deep inside, and at the tail: every
  // configuration must charge the first two instructions and trap at the
  // exact element with the exact message.
  const Program p = arith_chain(ArithOp::Mul, ArithOp::Div);
  const Vec num(20000, 7);
  for (std::size_t poison : {std::size_t{0}, std::size_t{12345},
                             std::size_t{19999}}) {
    Vec den(20000, 3);
    den[poison] = 0;
    expect_identical(p, {num, den});
  }
  expect_identical(p, {num, Vec(20000, 3)});
}

TEST(Backend, ChainLengthMismatchTraps) {
  // Operands of unequal length: the length-mismatch trap fires on the
  // chain's first Arith.
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, ArithOp::Mul, u, 1);
  a.move(0, v);
  a.halt();
  const Program p = a.finish(2, 1);
  expect_identical(p, {Vec(10, 1), Vec(11, 1)});
  expect_identical(p, {Vec{}, Vec{1}});
}

TEST(Backend, AliasedDstAndSrc) {
  // Aliasing adversaries: dst == src arithmetic, dst == both srcs, a
  // self-Move, and ScanPlus over its own destination.
  Assembler a;
  a.reserve_regs(1);
  auto x = a.reg();
  a.arith(0, ArithOp::Add, 0, 0);
  a.move(x, x);
  a.arith(x, ArithOp::Mul, 0, 0);
  a.scan_plus(x, x);
  a.arith(0, ArithOp::Monus, x, 0);
  a.halt();
  const Program p = a.finish(1, 1);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 50)});
}

TEST(Backend, BudgetExpiryMidChain) {
  // max_instructions lands in the middle of a chain: every configuration
  // throws FuelExhausted at the same instruction as the reference, and a
  // budget that covers the whole program changes nothing.
  const Program p = arith_chain(ArithOp::Mul, ArithOp::Monus);
  const std::vector<Vec> in = {iota_mod(100, 10), iota_mod(100, 10)};
  for (std::uint64_t budget : {1ull, 2ull, 4ull}) {
    RunConfig cfg;
    cfg.max_instructions = budget;
    EXPECT_THROW(run_reference(p, in, cfg), FuelExhausted) << budget;
    expect_identical(p, in, budget);
  }
  expect_identical(p, in, p.code.size());
}

TEST(Backend, LoopBodyChain) {
  // An elementwise chain inside a natural loop, re-executed on each of
  // 12 trips; the back edge targets the loop head.
  Assembler a;
  auto acc = a.reg();
  auto n = a.reg();
  auto one = a.reg();
  auto nz = a.reg();
  auto t = a.reg();
  a.load_const(acc, 1);
  a.load_const(one, 1);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  a.select(nz, n);
  a.jump_if_empty(nz, done);
  a.arith(t, ArithOp::Add, acc, acc);
  a.arith(acc, ArithOp::Add, t, t);
  a.arith(n, ArithOp::Monus, n, one);
  a.jump(top);
  a.bind(done);
  a.halt();
  const Program p = a.finish(2, 1);
  expect_identical(p, {Vec{}, Vec{12}});
}

TEST(Backend, DyingInputRedefined) {
  // V0 dies at the first instruction and the second writes a new V0.
  // Its old buffer goes back to the pool after the first instruction;
  // handed back any later, V0 would lose its new value and the output
  // would read an empty register.
  Assembler a;
  a.reserve_regs(2);
  const auto t = a.reg();
  a.arith(t, ArithOp::Add, 0, 1);
  a.arith(0, ArithOp::Mul, t, 1);
  a.halt();
  const Program p = a.finish(2, 1);
  Program live = p;
  opt::annotate_last_use(live);
  EXPECT_EQ(live.last_use[0] & 1u, 1u);
  for (std::size_t n : kSizes) {
    expect_identical(p, {iota_mod(n, 1000), iota_mod(n, 60)});
  }
}

// ---------------------------------------------------------------------------
// last-use release: a dead register's buffer goes back to the pool
// ---------------------------------------------------------------------------

/// k Arith into fresh registers, in pairs B <- A + C; A' <- A + B.  The
/// second of each pair runs in place over the dying A, and B dies beside
/// it, so B's buffer is free for the next pair's acquire.  C (V1) is an
/// output and stays live.
Program release_chain(std::size_t k) {
  Assembler a;
  a.reserve_regs(2);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < k / 2; ++i) {
    const auto b = a.reg();
    a.arith(b, ArithOp::Add, acc, 1);
    const auto next = a.reg();
    a.arith(next, ArithOp::Add, acc, b);
    acc = next;
  }
  a.move(0, acc);
  a.halt();
  auto p = a.finish(2, 2);
  opt::annotate_last_use(p);
  return p;
}

std::uint64_t chain_misses(std::size_t k, std::size_t n) {
  RunConfig cfg;
  cfg.profile = true;
  const RunResult r =
      run(release_chain(k), {iota_mod(n, 1000), iota_mod(n, 60)}, cfg);
  return r.engine.pool_misses;
}

TEST(Release, DeadRegistersFeedThePool) {
  // Past one page, the allocations do not grow with the chain.
  EXPECT_EQ(chain_misses(8, 4096), chain_misses(64, 4096));
  // Below one page, registers keep their buffers until overwritten.
  EXPECT_LT(chain_misses(8, 256), chain_misses(64, 256));
  for (std::size_t n : kSizes) {
    expect_identical(release_chain(8), {iota_mod(n, 1000), iota_mod(n, 60)});
  }
}

// ---------------------------------------------------------------------------
// compiled corpus: T/W bit-identical at every OptLevel and WhileSchedule
// ---------------------------------------------------------------------------

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());

void differential_compiled(const L::FuncRef& f,
                           const std::vector<ValueRef>& args) {
  auto [dom, cod] = L::check_func(f);
  for (auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    for (auto sched :
         {opt::WhileSchedule::naive(), opt::WhileSchedule::eager(),
          opt::WhileSchedule::staged({1, 2})}) {
      auto p = sa::compile_nsc(f, level, sched);
      for (const auto& arg : args) {
        expect_identical(p, sa::encode_value(arg, dom));
      }
    }
  }
}

// Each program also gets an input of at least kPageLanes elements, so its
// registers pass the engine's one-page release cutoff and the last-use
// release runs on compiled loops and schedules.
constexpr std::size_t kPageLanes = 4096;

TEST(CompiledCorpus, IndexProgram) {
  std::vector<std::uint64_t> c(300);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 3 * i;
  std::vector<std::uint64_t> big(kPageLanes + 904);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 3 * i;
  std::vector<std::uint64_t> picks(kPageLanes);
  for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i + i / 5;
  differential_compiled(
      P::index(N),
      {Value::pair(Value::nat_seq(c), Value::nat_seq({0, 100, 299})),
       Value::pair(Value::nat_seq(big), Value::nat_seq(picks))});
}

TEST(CompiledCorpus, FilterThenMap) {
  auto keep = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(512)); });
  auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(dbl), L::apply(P::filter(keep, N), x));
  });
  SplitMix64 rng(5);
  differential_compiled(f, {Value::nat_seq(rng.vec(400, 1024)),
                            Value::nat_seq(rng.vec(2 * kPageLanes, 1024)),
                            Value::nat_seq({}), Value::nat_seq({7})});
}

TEST(CompiledCorpus, SumViaWhile) {
  differential_compiled(
      P::sum_nats(),
      {Value::nat_seq(std::vector<std::uint64_t>(200, 3)),
       Value::nat_seq(std::vector<std::uint64_t>(kPageLanes + 1, 3)),
       Value::nat_seq({})});
}

TEST(CompiledCorpus, MappedWhileStraggler) {
  // The Lemma 7.2 adversary: exercises the staged-schedule emission,
  // pack/replay, and a trapping variant (division by zero inside the
  // mapped step).
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step = L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(1)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(
        L::map_f(L::lam(
            N, [&](L::TermRef v) { return L::apply(L::while_f(pred, step), v); })),
        x);
  });
  std::vector<std::uint64_t> counts(120, 1);
  for (std::uint64_t j = 0; j < 10; ++j) counts[110 + j] = j + 2;
  std::vector<std::uint64_t> many(kPageLanes, 1);
  for (std::uint64_t j = 0; j < 10; ++j) many[kPageLanes - 10 + j] = j + 2;
  differential_compiled(f, {Value::nat_seq(counts), Value::nat_seq(many)});
}

TEST(CompiledCorpus, TrappingDivide) {
  auto f = L::lam(NSeq, [](L::TermRef x) {
    return L::apply(
        L::map_f(L::lam(N, [](L::TermRef v) { return L::div_t(L::nat(100), v); })),
        x);
  });
  differential_compiled(f, {Value::nat_seq({5, 2, 10}),
                            Value::nat_seq({5, 0, 10})});  // second traps
}

}  // namespace
}  // namespace nsc::bvram
