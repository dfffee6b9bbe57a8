// Differential harness for the BVRAM execution engine: every program is
// executed by run_reference (the section-2 interpreter, the oracle) and by
// run() in six configurations --
//
//     v2            serial / parallel   (no annotations: the bare engine)
//     v2+liveness   serial / parallel   (opt::annotate_last_use: Move as
//                                        swap, in-place kernels)
//     v2+fusion     serial / parallel   (plus opt::annotate_fusion: fused
//                                        elementwise groups)
//
// each built from a copy of the program with its annotations cleared, so
// a compiled program runs the bare engine too.  All seven must agree
// bit-for-bit on outputs, trap type *and message*, T, W, and the
// per-instruction trace.  Covers every opcode including the trap cases
// (length mismatch, bad bound/segment certificates, division by zero) and
// the compiled example corpus at every OptLevel and WhileSchedule.  The
// Fusion suite at the bottom adds group-specific adversaries:
// trap-at-element inside a group, extent-mismatch fallback, aliased
// dst/src, budget expiry mid-group, a dying input the group recommits,
// and the attribution floor with fusion enabled.  The Release suite
// checks that dead registers hand their buffers back to the pool.
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
#include "opt/fuse.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "pin_workers.hpp"

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
                   const std::vector<Vec>& inputs, bool parallel) {
  RunConfig cfg;
  cfg.record_trace = true;
  cfg.parallel_backend = parallel;
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

/// The harness: run_reference is ground truth; the six run()
/// configurations must match it exactly.
void expect_identical(const Program& p, const std::vector<Vec>& inputs) {
  Program bare = p;
  bare.last_use.clear();
  bare.fusion.clear();
  Program live = bare;
  opt::annotate_last_use(live);
  Program fused = live;
  opt::annotate_fusion(fused);
  const Outcome base = outcome_of(run_reference, bare, inputs, false);
  const struct {
    const char* label;
    const Program& program;
  } configs[] = {{"v2", bare}, {"v2+liveness", live}, {"v2+fusion", fused}};
  for (const auto& c : configs) {
    expect_same(base, outcome_of(run, c.program, inputs, false),
                std::string(c.label) + "/serial");
    expect_same(base, outcome_of(run, c.program, inputs, true),
                std::string(c.label) + "/par");
  }
}

// Sizes straddle the parallel grain (4096) so both the serial fallback
// and real pool dispatch are exercised.
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
  den[12345] = 0;  // poisoned slot deep inside a parallel chunk
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
  // The compiler's broadcast: a single count of n (maximum skew).  The
  // parallel backend must partition the *output* space, and the result
  // must stay bit-identical to the serial walk.
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
  // The countdown loop from test_bvram, at a size where the loop body's
  // vector ops cross the parallel grain.
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
  // (last_use annotation) or doubles as the destination; all seven
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
  // all seven configurations must agree bit-for-bit on outputs, T, W.  The
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
  // point: first-trap identity across all seven configurations).
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
// fused elementwise groups
// ---------------------------------------------------------------------------

/// Annotate with liveness + a fusion plan, the way compile_nsc emits.
Program fuse_annotated(Assembler& a, std::size_t ins, std::size_t outs) {
  auto p = a.finish(ins, outs);
  opt::annotate_last_use(p);
  opt::annotate_fusion(p);
  return p;
}

/// Counters from a profiled run: differential identity alone cannot tell
/// whether the fused path actually executed (that's the point of
/// cost-model invisibility), so these assertions watch the engine.
EngineProfile fused_counters(const Program& p, const std::vector<Vec>& in,
                             bool parallel = false) {
  RunConfig cfg;
  cfg.profile = true;
  cfg.parallel_backend = parallel;
  EngineProfile eng;
  try {
    eng = run(p, in, cfg).engine;
  } catch (const Error&) {
    // Trapping runs surface no counters; callers asserting on traps use
    // expect_identical for the trap itself.
  }
  return eng;
}

TEST(Fusion, ArithChainFusesWithCounters) {
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, ArithOp::Mul, u, 0);
  a.arith(u, ArithOp::Monus, v, 1);
  a.arith(v, ArithOp::Rsh, u, 1);
  a.move(0, v);
  a.halt();
  auto p = fuse_annotated(a, 2, 1);
  ASSERT_EQ(p.fusion.size(), 1u);
  EXPECT_EQ(p.fusion[0].begin, 0u);
  EXPECT_EQ(p.fusion[0].end, 5u);
  for (std::size_t n : kSizes) {
    std::vector<Vec> in = {iota_mod(n, 1000), iota_mod(n, 60)};
    const EngineProfile eng = fused_counters(p, in);
    EXPECT_EQ(eng.fused_groups, 1u);
    EXPECT_EQ(eng.fused_instrs, 5u);
    EXPECT_GT(eng.fused_elided, 0u);
    EXPECT_EQ(eng.fused_fallbacks, 0u);
  }
  Assembler b;
  b.reserve_regs(2);
  auto u2 = b.reg(), v2 = b.reg();
  b.arith(u2, ArithOp::Add, 0, 1);
  b.arith(v2, ArithOp::Mul, u2, 0);
  b.arith(u2, ArithOp::Monus, v2, 1);
  b.arith(v2, ArithOp::Rsh, u2, 1);
  b.move(0, v2);
  b.halt();
  auto plain = b.finish(2, 1);
  for (std::size_t n : kSizes) {
    expect_identical(plain, {iota_mod(n, 1000), iota_mod(n, 60)});
  }
}

TEST(Fusion, EveryFusableOpcodeMix) {
  // One group spanning the full fusable ISA: Enumerate head, Arith body,
  // an elided Move, a mid-group ScanPlus (forces the serial-only path),
  // and a terminal Select.
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
  auto annotated = fuse_annotated(a, 1, 1);
  ASSERT_EQ(annotated.fusion.size(), 1u);
  EXPECT_TRUE(annotated.fusion[0].serial_only);
  EXPECT_TRUE(annotated.fusion[0].has_select);
  for (std::size_t n : kSizes) {
    Assembler b;
    b.reserve_regs(1);
    auto e2 = b.reg(), u2 = b.reg(), v2 = b.reg();
    b.enumerate(e2, 0);
    b.arith(u2, ArithOp::Add, 0, e2);
    b.move(v2, u2);
    b.scan_plus(u2, v2);
    b.arith(v2, ArithOp::Monus, u2, 0);
    b.select(0, v2);
    b.halt();
    auto p = b.finish(1, 1);
    expect_identical(p, {iota_mod(n, 97)});
  }
}

TEST(Fusion, TrapAtElementInsideGroup) {
  // Division by zero on the *third* instruction of a fused group, with
  // the poisoned element at the front, deep inside, and at the tail.
  // The fused attempt discards and the per-instruction replay must
  // charge the first two instructions and trap at the exact element.
  for (std::size_t poison : {std::size_t{0}, std::size_t{12345},
                             std::size_t{19999}}) {
    Assembler a;
    a.reserve_regs(2);
    auto u = a.reg(), v = a.reg();
    a.arith(u, ArithOp::Add, 0, 1);
    a.arith(v, ArithOp::Mul, u, 0);
    a.arith(u, ArithOp::Div, v, 1);
    a.move(0, u);
    a.halt();
    auto p = a.finish(2, 1);
    Vec num(20000, 7);
    Vec den(20000, 3);
    den[poison] = 0;
    // The identity assertions are the whole contract here: the fused
    // attempt discards its buffers and the per-instruction replay must
    // charge the first two instructions and trap at the exact element
    // with the exact message.  (A trapping run produces no RunResult,
    // so the fallback counter itself is not observable -- the healthy
    // variant below confirms this plan does take the fused path.)
    expect_identical(p, {num, den});
    Assembler b;
    b.reserve_regs(2);
    auto u2 = b.reg(), v2 = b.reg();
    b.arith(u2, ArithOp::Add, 0, 1);
    b.arith(v2, ArithOp::Mul, u2, 0);
    b.arith(u2, ArithOp::Div, v2, 1);
    b.move(0, u2);
    b.halt();
    auto annotated = fuse_annotated(b, 2, 1);
    ASSERT_EQ(annotated.fusion.size(), 1u);
    const EngineProfile healthy =
        fused_counters(annotated, {num, Vec(20000, 3)});
    EXPECT_EQ(healthy.fused_groups, 1u);
    EXPECT_EQ(healthy.fused_fallbacks, 0u);
  }
}

TEST(Fusion, ExtentMismatchFallsBack) {
  // Group inputs of unequal length: the fused entry check bounces the
  // group to per-instruction execution, which reproduces the unfused
  // length-mismatch trap on the first Arith.
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, ArithOp::Mul, u, 1);
  a.move(0, v);
  a.halt();
  auto p = a.finish(2, 1);
  expect_identical(p, {Vec(10, 1), Vec(11, 1)});
  expect_identical(p, {Vec{}, Vec{1}});
}

TEST(Fusion, AliasedDstAndSrc) {
  // Aliasing adversaries: dst == src arithmetic, dst == both srcs, a
  // self-Move inside the group, and ScanPlus over its own destination.
  Assembler a;
  a.reserve_regs(1);
  auto x = a.reg();
  a.arith(0, ArithOp::Add, 0, 0);
  a.move(x, x);
  a.arith(x, ArithOp::Mul, 0, 0);
  a.scan_plus(x, x);
  a.arith(0, ArithOp::Monus, x, 0);
  a.halt();
  auto p = a.finish(1, 1);
  for (std::size_t n : kSizes) expect_identical(p, {iota_mod(n, 50)});
}

TEST(Fusion, BudgetExpiryMidGroup) {
  // max_instructions lands in the middle of a group: the precheck
  // bounces to the per-instruction path, which throws FuelExhausted at
  // the same instruction as the reference engine.
  Assembler a;
  a.reserve_regs(2);
  auto u = a.reg(), v = a.reg();
  a.arith(u, ArithOp::Add, 0, 1);
  a.arith(v, ArithOp::Mul, u, 0);
  a.arith(u, ArithOp::Monus, v, 1);
  a.arith(v, ArithOp::Add, u, u);
  a.move(0, v);
  a.halt();
  auto p = a.finish(2, 1);
  opt::annotate_last_use(p);
  opt::annotate_fusion(p);
  ASSERT_EQ(p.fusion.size(), 1u);
  const std::vector<Vec> in = {iota_mod(100, 10), iota_mod(100, 10)};
  for (std::uint64_t budget : {1ull, 2ull, 4ull}) {
    RunConfig cfg;
    cfg.max_instructions = budget;
    std::string ref_err, v2_err;
    try {
      run_reference(p, in, cfg);
    } catch (const Error& e) {
      ref_err = std::string(typeid(e).name()) + ": " + e.what();
    }
    try {
      run(p, in, cfg);
    } catch (const Error& e) {
      v2_err = std::string(typeid(e).name()) + ": " + e.what();
    }
    EXPECT_FALSE(ref_err.empty()) << "budget " << budget;
    EXPECT_EQ(ref_err, v2_err) << "budget " << budget;
  }
}

TEST(Fusion, LoopBodyGroupCountsPerTrip) {
  // A fused group inside a natural loop executes once per trip; the
  // counters are dynamic, and the back-edge target breaks the group at
  // the loop head (control may re-enter there).
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
  auto p = a.finish(2, 1);
  expect_identical(p, {Vec{}, Vec{12}});
  Assembler b;
  auto acc2 = b.reg();
  auto n2 = b.reg();
  auto one2 = b.reg();
  auto nz2 = b.reg();
  auto t2 = b.reg();
  b.load_const(acc2, 1);
  b.load_const(one2, 1);
  auto top2 = b.fresh_label();
  auto done2 = b.fresh_label();
  b.bind(top2);
  b.select(nz2, n2);
  b.jump_if_empty(nz2, done2);
  b.arith(t2, ArithOp::Add, acc2, acc2);
  b.arith(acc2, ArithOp::Add, t2, t2);
  b.arith(n2, ArithOp::Monus, n2, one2);
  b.jump(top2);
  b.bind(done2);
  b.halt();
  auto annotated = fuse_annotated(b, 2, 1);
  if (!annotated.fusion.empty()) {
    const EngineProfile eng = fused_counters(annotated, {Vec{}, Vec{12}});
    EXPECT_EQ(eng.fused_groups, 12u);
  }
}

TEST(Fusion, DyingInputRecommittedByTheGroup) {
  // V0 dies at the group's first instruction and its second commits a new
  // V0.  The engine releases the group's dying inputs before the commit;
  // released after it, V0 would lose its new value and the output would
  // read an empty register.
  Assembler a;
  a.reserve_regs(2);
  const auto t = a.reg();
  a.arith(t, ArithOp::Add, 0, 1);
  a.arith(0, ArithOp::Mul, t, 1);
  a.halt();
  auto p = a.finish(2, 1);
  Program annotated = p;
  opt::annotate_last_use(annotated);
  opt::annotate_fusion(annotated);
  ASSERT_EQ(annotated.fusion.size(), 1u);
  EXPECT_EQ(annotated.last_use[0] & 1u, 1u);
  EXPECT_EQ(annotated.fusion[0].commit, (std::vector<std::int32_t>{-1, 0}));
  for (std::size_t n : kSizes) {
    const std::vector<Vec> in = {iota_mod(n, 1000), iota_mod(n, 60)};
    expect_identical(p, in);
    EXPECT_EQ(fused_counters(annotated, in).fused_groups, 1u);
  }
}

TEST(Fusion, AttributionStaysAbove95Percent) {
  // The profiling contract with fusion enabled: a compiled program keeps
  // >= 95% of executed instructions attributed to source lines (the CI
  // profile-smoke gate), because fused execution books each constituent
  // instruction against its own debug site.  Source attribution needs
  // the textual frontend -- lang-built trees carry no line:col.
  const front::SourceFile src("fusion_attr.nsc",
                              "fn main(xs : [nat]) : [nat] =\n"
                              "  let small = [x | x <- xs, x < 512] in\n"
                              "  [3 * v + 7 | v <- small]\n");
  const front::ResolvedModule mod = front::compile_file(src);
  const front::ResolvedFn& fn = mod.main();
  auto p = sa::compile_nsc(fn.fn);
  SplitMix64 rng(11);
  RunConfig cfg;
  cfg.profile = true;
  cfg.record_trace = true;
  const RunResult r = run(
      p, sa::encode_value(Value::nat_seq(rng.vec(5000, 1024)), fn.dom), cfg);
  EXPECT_GT(r.engine.fused_groups, 0u);
  const obs::Profile prof = obs::Profile::build(p, r);
  EXPECT_GE(prof.attributed_frac, 0.95);
}

// ---------------------------------------------------------------------------
// last-use release: a dead register's buffer goes back to the pool
// ---------------------------------------------------------------------------

/// k Arith into fresh registers, in pairs B <- A + C; A' <- A + B.  The
/// second of each pair runs in place over the dying A, and B dies beside
/// it, so B's buffer is free for the next pair's acquire.  C (V1) is an
/// output and stays live.  With `fuse`, the chain runs as groups of up to
/// FusedGroup::kMaxFusedGroup instructions, each committing only the A
/// the next group reads.
Program release_chain(std::size_t k, bool fuse = false) {
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
  if (fuse) opt::annotate_fusion(p);
  return p;
}

std::uint64_t chain_misses(std::size_t k, std::size_t n, bool fuse = false) {
  RunConfig cfg;
  cfg.profile = true;
  const RunResult r = run(release_chain(k, fuse),
                          {iota_mod(n, 1000), iota_mod(n, 60)}, cfg);
  EXPECT_EQ(r.engine.fused_groups > 0, fuse);
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

TEST(Release, FusedGroupsFeedThePool) {
  // A group hands back the inputs that die inside it before it commits,
  // so the next group's output reuses the buffer: a chain of 3 groups and
  // one of 11 allocate alike.  Kept to the end of the run instead, each
  // group's output would be a fresh allocation.
  EXPECT_EQ(chain_misses(96, 4096, true), chain_misses(480, 4096, true));
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
