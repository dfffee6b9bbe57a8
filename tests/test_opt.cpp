// The src/opt/ optimizer: verifier, pass unit tests, and the
// differential harness -- every corpus program is compiled at O0 and O2
// and run on random well-typed inputs; outputs must agree exactly
// (including traps) and the optimized T and W must not exceed the naive
// ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "corpus_files.hpp"
#include "front/front.hpp"
#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "nsc/maprec.hpp"
#include "nsc/prelude.hpp"
#include "nsc/typecheck.hpp"
#include "object/random.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "support/prng.hpp"

namespace nsc::opt {
namespace {

namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using bvram::Assembler;
using bvram::Op;
using bvram::Program;
using lang::ArithOp;
using nsc::SplitMix64;
using nsc::Type;
using nsc::Value;

const TypeRef N = Type::nat();
const TypeRef NSeq = Type::seq(Type::nat());

// ---------------------------------------------------------------------------
// verifier
// ---------------------------------------------------------------------------

TEST(Verify, AcceptsWellFormed) {
  Assembler a;
  auto r = a.reg();
  a.load_const(r, 7);
  a.halt();
  EXPECT_NO_THROW(verify(a.finish(0, 1)));
}

TEST(Verify, RejectsRegisterOutOfRange) {
  Program p;
  p.num_regs = 2;
  p.code.push_back({Op::Move, ArithOp::Add, 1, 5, 0, 0, 0, 0});
  EXPECT_THROW(verify(p), MachineError);
}

TEST(Verify, RejectsSbmRouteSegmentRegister) {
  // SbmRoute's fourth register operand travels in `imm`.
  Program p;
  p.num_regs = 4;
  p.code.push_back({Op::SbmRoute, ArithOp::Add, 0, 1, 2, 3, 99, 0});
  EXPECT_THROW(verify(p), MachineError);
}

TEST(Verify, RejectsBadJumpTarget) {
  Program p;
  p.num_regs = 1;
  p.code.push_back({Op::Goto, ArithOp::Add, 0, 0, 0, 0, 0, 5});
  EXPECT_THROW(verify(p), MachineError);
}

TEST(Verify, RejectsBadIoArity) {
  Program p;
  p.num_regs = 1;
  p.num_inputs = 3;
  EXPECT_THROW(verify(p), MachineError);
}

// ---------------------------------------------------------------------------
// assembler label hygiene
// ---------------------------------------------------------------------------

TEST(Assembler, UnboundLabelRejected) {
  Assembler a;
  auto l = a.fresh_label();
  a.jump(l);  // never bound
  EXPECT_THROW(a.finish(0, 0), MachineError);
}

TEST(Assembler, DoubleBindRejected) {
  Assembler a;
  auto l = a.fresh_label();
  a.bind(l);
  EXPECT_THROW(a.bind(l), MachineError);
}

TEST(Assembler, UnknownLabelRejected) {
  Assembler a;
  EXPECT_THROW(a.jump(42), MachineError);
  EXPECT_THROW(a.bind(42), MachineError);
}

// ---------------------------------------------------------------------------
// pass unit tests
// ---------------------------------------------------------------------------

std::size_t count_op(const Program& p, Op op) {
  std::size_t n = 0;
  for (const auto& in : p.code) n += in.op == op ? 1 : 0;
  return n;
}

TEST(Passes, MoveChainCollapses) {
  // V1 <- V0; V2 <- V1; V3 <- V2; output V0 <- V3 @ V3.
  Assembler a;
  a.reserve_regs(1);
  auto v1 = a.reg(), v2 = a.reg(), v3 = a.reg();
  a.move(v1, 0);
  a.move(v2, v1);
  a.move(v3, v2);
  a.append(0, v3, v3);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Move), 0u);
  auto r = bvram::run(p, {{4, 5}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{4, 5, 4, 5}));
}

TEST(Passes, ConstantChainFolds) {
  // (2 + 3) * 4 over LoadConst chains folds to a single LoadConst 20.
  Assembler a;
  auto c2 = a.reg(), c3 = a.reg(), c4 = a.reg(), t = a.reg(), u = a.reg();
  a.load_const(c2, 2);
  a.load_const(c3, 3);
  a.load_const(c4, 4);
  a.arith(t, ArithOp::Add, c2, c3);
  a.arith(u, ArithOp::Mul, t, c4);
  a.move(0, u);
  a.halt();
  Program p = a.finish(0, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Arith), 0u);
  auto r = bvram::run(p, {});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{20}));
  EXPECT_LE(p.code.size(), 2u);  // LoadConst + (possibly dropped) Halt
}

TEST(Passes, DivisionByZeroIsNotFolded) {
  Assembler a;
  auto one = a.reg(), zero = a.reg();
  a.load_const(one, 1);
  a.load_const(zero, 0);
  a.arith(0, ArithOp::Div, one, zero);
  a.halt();
  Program p = a.finish(0, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Arith), 1u);  // the trap must survive
  EXPECT_THROW(bvram::run(p, {}), Error);
}

TEST(Passes, RedundantLengthsFuse) {
  // Two Lengths of the same register get the same value number, so their
  // consumers fuse (the second Arith becomes a Move of the first's
  // result); the now-unused second Length is then dead and removed.
  Assembler a;
  a.reserve_regs(1);
  auto l1 = a.reg(), t1 = a.reg(), l2 = a.reg(), t2 = a.reg();
  a.length(l1, 0);
  a.arith(t1, ArithOp::Add, l1, l1);
  a.length(l2, 0);
  a.arith(t2, ArithOp::Add, l2, l2);
  a.append(0, t1, t2);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Length), 1u);
  EXPECT_EQ(count_op(p, Op::Arith), 1u);
  auto r = bvram::run(p, {{9, 9, 9}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{6, 6}));
}

TEST(Passes, DeadCodeRemovedButTrapsKept) {
  Assembler a;
  a.reserve_regs(1);
  auto dead = a.reg(), one = a.reg(), empty = a.reg();
  a.enumerate(dead, 0);  // dead: removable
  a.load_const(one, 1);
  a.load_empty(empty);
  a.arith(a.reg(), ArithOp::Add, one, empty);  // dead but traps: kept
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Enumerate), 0u);
  EXPECT_EQ(count_op(p, Op::Arith), 1u);
  EXPECT_THROW(bvram::run(p, {{1, 2}}), MachineError);
}

TEST(Passes, BranchOnKnownShapeFolds) {
  Assembler a;
  a.reserve_regs(1);
  auto c = a.reg();
  a.load_const(c, 5);
  auto l = a.fresh_label();
  a.jump_if_empty(c, l);  // [5] is never empty: branch folds away
  a.move(0, c);
  a.bind(l);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::GotoIfEmpty), 0u);
  auto r = bvram::run(p, {{}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{5}));
}

TEST(Passes, UnreachableCodeRemoved) {
  Assembler a;
  a.reserve_regs(1);
  auto l = a.fresh_label();
  a.jump(l);
  a.enumerate(a.reg(), 0);  // unreachable
  a.enumerate(a.reg(), 0);  // unreachable
  a.bind(l);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Enumerate), 0u);
}

TEST(Passes, RegisterFileCompacts) {
  Assembler a;
  a.reserve_regs(1);
  for (int i = 0; i < 20; ++i) a.reg();  // never-touched registers
  auto v = a.reg();
  a.length(v, 0);
  a.move(0, v);
  a.halt();
  Program p = a.finish(1, 1);
  const std::size_t before = p.num_regs;
  optimize(p);
  EXPECT_LT(p.num_regs, before);
  auto r = bvram::run(p, {{7, 8}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{2}));
}

TEST(Passes, LoopHeadAtEntryDoesNotInheritTailFacts) {
  // Instruction 0 is a jump target whose only CFG predecessor is the
  // loop tail J (a tree root, since two paths reach it).  The EBB value
  // numbering must not make block 0 a child of J: on the zero-iteration
  // entry path J never executed, so aliasing the entry Length to J's
  // Length (and CSE-ing the exit Arith into J's) would read registers
  // that were never written.  V1 empty => exit immediately with
  // [len(V0)+len(V0)].
  Assembler a;
  a.reserve_regs(2);
  auto v2 = a.reg(), s2 = a.reg(), v3 = a.reg(), s3 = a.reg();
  auto top = a.fresh_label(), tail = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.length(v2, 0);
  a.jump_if_empty(1, exit);
  a.jump_if_empty(0, tail);  // second edge into the tail: makes it a root
  a.load_empty(1);
  a.bind(tail);
  a.length(v3, 0);
  a.arith(s3, ArithOp::Add, v3, v3);
  a.load_empty(1);
  a.jump(top);
  a.bind(exit);
  a.arith(s2, ArithOp::Add, v2, v2);
  a.move(0, s2);
  a.halt();
  (void)s3;
  Program p = a.finish(2, 1);
  const auto want = bvram::run(p, {{7, 8, 9}, {}}).outputs[0];
  optimize(p);
  EXPECT_EQ(bvram::run(p, {{7, 8, 9}, {}}).outputs[0], want);
  EXPECT_EQ(want, (std::vector<std::uint64_t>{6}));
}

TEST(Passes, LoopHeadAtEntryKeepsBackEdgeStates) {
  // A register that is empty on program entry but constant on the back
  // edge must not be folded as empty at instruction 0.
  Assembler a;
  a.reserve_regs(2);
  auto v2 = a.reg(), v3 = a.reg();
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.length(v2, v3);
  a.jump_if_empty(1, exit);
  a.load_const(v3, 5);
  a.load_empty(1);
  a.jump(top);
  a.bind(exit);
  a.move(0, v2);
  a.halt();
  Program p = a.finish(2, 1);
  const auto want = bvram::run(p, {{}, {1}}).outputs[0];
  optimize(p);
  EXPECT_EQ(bvram::run(p, {{}, {1}}).outputs[0], want);
  EXPECT_EQ(want, (std::vector<std::uint64_t>{1}));
}

TEST(Passes, ExpandingRouteIsNotRewrittenToMove) {
  // sbm-route is the one op whose output can be longer than all of its
  // operands combined (|out| = sum counts*segs), so a CSE hit must not
  // become a Move of the result (work 2*|out| > the route's own work).
  Assembler a;
  a.reserve_regs(3);  // V1 = bound (len 3), V2 = data (len 4)
  auto counts = a.reg(), segs = a.reg(), r1 = a.reg(), r2 = a.reg();
  a.load_const(counts, 3);
  a.load_const(segs, 4);
  a.sbm_route(r1, 1, counts, 2, segs);
  a.sbm_route(r2, 1, counts, 2, segs);
  a.append(0, r1, r2);
  a.halt();
  Program p = a.finish(3, 1);
  const std::vector<std::vector<std::uint64_t>> inputs = {
      {}, {0, 0, 0}, {5, 6, 7, 8}};
  const auto before = bvram::run(p, inputs);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::SbmRoute), 2u);
  EXPECT_EQ(count_op(p, Op::Move), 0u);
  const auto after = bvram::run(p, inputs);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_LE(after.cost.work, before.cost.work);
  EXPECT_LE(after.cost.time, before.cost.time);
}

TEST(Passes, RouteAlgebraCollapsesAllOnesPack) {
  // The catalog's pack_vec(x, ones_like(x)): broadcast [1] over x, select
  // the bits, route x through them.  The counts are provably all-ones and
  // every certificate is discharged by value numbering, so the pack
  // collapses to a copy of x; only the broadcast route itself survives
  // (its own certificate can trap, so DCE must keep it).
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), lenx = a.reg(), bits = a.reg(), bound2 = a.reg(),
       packed = a.reg();
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.bm_route(bits, 0, lenx, one);   // ones_like(V0)
  a.select(bound2, bits);           // all ones selected: a copy
  a.bm_route(packed, bound2, bits, 0);  // pack_vec(V0, bits): identity
  a.move(0, packed);
  a.halt();
  Program p = a.finish(1, 1);
  const std::vector<std::vector<std::uint64_t>> inputs = {{4, 0, 6, 7}};
  const auto before = bvram::run(p, inputs);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::BmRoute), 1u);  // broadcast kept (can trap)
  EXPECT_EQ(count_op(p, Op::Select), 0u);
  const auto after = bvram::run(p, inputs);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_LE(after.cost.work, before.cost.work);
  EXPECT_LE(after.cost.time, before.cost.time);
  // select([]) and the zero slot survive: the pack is an identity even
  // with zero *values* (sigma is only applied to the all-ones bits).
  EXPECT_EQ(after.outputs[0], (std::vector<std::uint64_t>{4, 0, 6, 7}));
}

TEST(Passes, RouteAlgebraSelectOfOnesIsCopy) {
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), lenx = a.reg(), bits = a.reg(), sel = a.reg();
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.bm_route(bits, 0, lenx, one);
  a.select(sel, bits);
  a.move(0, sel);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Select), 0u);
  auto r = bvram::run(p, {{9, 9, 9}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Passes, RouteAlgebraEnumerateOfOnesFuses) {
  // enumerate(ones_like(x)) has x's length, so it value-numbers together
  // with enumerate(x) and the recomputation fuses away.
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), lenx = a.reg(), bits = a.reg(), e1 = a.reg(),
       e2 = a.reg();
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.enumerate(e1, 0);
  a.bm_route(bits, 0, lenx, one);
  a.enumerate(e2, bits);
  a.append(0, e1, e2);
  a.halt();
  Program p = a.finish(1, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Enumerate), 1u);
  auto r = bvram::run(p, {{5, 5, 5}});
  EXPECT_EQ(r.outputs[0], (std::vector<std::uint64_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Passes, RouteAlgebraKeepsUnprovableCertificates) {
  // counts are all-ones of V0's length, but the bound is a *different*
  // register: sum(counts) == |bound| is not provable, so the route (and
  // its runtime trap) must survive.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), lenx = a.reg(), bits = a.reg(), out = a.reg();
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.bm_route(bits, 0, lenx, one);
  a.bm_route(out, 1, bits, 0);  // bound is V1, unrelated to bits
  a.move(0, out);
  a.halt();
  Program p = a.finish(2, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::BmRoute), 2u);
  // Matching bound: identity semantics preserved.
  auto ok = bvram::run(p, {{7, 8}, {0, 0}});
  EXPECT_EQ(ok.outputs[0], (std::vector<std::uint64_t>{7, 8}));
  // Mismatched bound: the certificate still traps.
  EXPECT_THROW(bvram::run(p, {{7, 8}, {0, 0, 0}}), MachineError);
}

// ---------------------------------------------------------------------------
// dominators, loop forest, preheader insertion (opt/cfg.hpp)
// ---------------------------------------------------------------------------

std::size_t executed_ops(const bvram::RunResult& r, Op op) {
  std::size_t n = 0;
  for (const auto& t : r.trace) n += t.op == op ? 1 : 0;
  return n;
}

TEST(Analysis, DominatorsOfADiamond) {
  // 0: branch; 1/2: arms; 3: join.  The branch dominates everything, the
  // arms dominate nothing but themselves.
  Assembler a;
  a.reserve_regs(2);
  auto v = a.reg();
  auto join = a.fresh_label(), el = a.fresh_label();
  a.jump_if_empty(1, el);
  a.enumerate(v, 0);
  a.jump(join);
  a.bind(el);
  a.length(v, 0);
  a.bind(join);
  a.move(0, v);
  a.halt();
  Program p = a.finish(2, 1);
  const Cfg cfg = Cfg::build(p);
  const DomTree dom = DomTree::build(cfg);
  const std::size_t b0 = cfg.block_of[0];  // the branch
  const std::size_t arm1 = cfg.block_of[1];
  const std::size_t arm2 = cfg.block_of[3];
  const std::size_t join_b = cfg.block_of[4];
  EXPECT_TRUE(dom.dominates(b0, arm1));
  EXPECT_TRUE(dom.dominates(b0, arm2));
  EXPECT_TRUE(dom.dominates(b0, join_b));
  EXPECT_FALSE(dom.dominates(arm1, join_b));
  EXPECT_FALSE(dom.dominates(arm2, join_b));
  EXPECT_EQ(dom.idom[join_b], b0);
  EXPECT_TRUE(dom.dominates(join_b, join_b));
}

TEST(Analysis, LoopForestOfAWhile) {
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);
  a.select(nz, 1);
  a.jump_if_empty(nz, done);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);
  a.bind(done);
  a.move(0, 1);
  a.halt();
  Program p = a.finish(2, 1);
  const Cfg cfg = Cfg::build(p);
  const DomTree dom = DomTree::build(cfg);
  const LoopForest loops = LoopForest::build(cfg, dom);
  ASSERT_EQ(loops.loops.size(), 1u);
  const Loop& l = loops.loops[0];
  EXPECT_EQ(l.header, cfg.block_of[1]);  // the select at `top`
  ASSERT_EQ(l.latches.size(), 1u);
  EXPECT_EQ(l.latches[0], cfg.block_of[4]);  // the jump back
  ASSERT_EQ(l.exits.size(), 1u);
  EXPECT_EQ(l.exits[0], cfg.block_of[1]);  // the conditional exit
  // header + body; the preheader code stays out
  EXPECT_EQ(l.blocks,
            (std::vector<std::size_t>{cfg.block_of[1], cfg.block_of[3]}));
}

TEST(Analysis, LoopForestNesting) {
  // while (!empty V1) { while (!empty V2) { V2 -= 1 } V1 -= 1 }
  Assembler a;
  a.reserve_regs(3);
  auto one = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto otop = a.fresh_label(), odone = a.fresh_label();
  auto itop = a.fresh_label(), idone = a.fresh_label();
  a.bind(otop);
  a.jump_if_empty(1, odone);
  a.bind(itop);
  a.select(nz, 2);
  a.jump_if_empty(nz, idone);
  a.arith(2, ArithOp::Monus, 2, one);
  a.jump(itop);
  a.bind(idone);
  a.arith(1, ArithOp::Monus, 1, one);
  a.select(nz, 1);
  a.move(1, nz);
  a.jump(otop);
  a.bind(odone);
  a.move(0, 1);
  a.halt();
  Program p = a.finish(3, 1);
  const Cfg cfg = Cfg::build(p);
  const LoopForest loops = LoopForest::build(cfg, DomTree::build(cfg));
  ASSERT_EQ(loops.loops.size(), 2u);
  const std::size_t outer = loops.loops[0].header == cfg.block_of[1] ? 0 : 1;
  const std::size_t inner = 1 - outer;
  EXPECT_EQ(loops.loops[outer].header, cfg.block_of[1]);
  EXPECT_EQ(loops.loops[inner].header, cfg.block_of[2]);
  // The outer loop strictly contains the inner one, so it has more blocks
  // (licm's outermost-first order), and its header is outside the inner.
  const auto& ob = loops.loops[outer].blocks;
  const auto& ib = loops.loops[inner].blocks;
  EXPECT_GT(ob.size(), ib.size());
  EXPECT_TRUE(std::includes(ob.begin(), ob.end(), ib.begin(), ib.end()));
  EXPECT_EQ(std::count(ib.begin(), ib.end(), cfg.block_of[1]), 0);
}

TEST(Analysis, SingleBlockSelfLoop) {
  // A latch that IS the header (one-block loop ending in a conditional
  // back edge): the body must be exactly the header block, not
  // everything upstream of it.
  Assembler a;
  a.reserve_regs(2);  // V0: invariant data, output; V1 unused
  auto one = a.reg(), k = a.reg(), cnt = a.reg(), inv = a.reg(),
       d = a.reg(), t = a.reg();
  a.load_const(one, 1);
  a.load_const(k, 3);
  a.load_const(cnt, 0);
  auto top = a.fresh_label();
  a.bind(top);
  a.enumerate(inv, 0);  // invariant, hoistable
  a.arith(cnt, ArithOp::Add, cnt, one);
  a.arith(d, ArithOp::Monus, cnt, k);
  a.select(t, d);
  a.jump_if_empty(t, top);  // back while cnt <= k; falls through to exit
  a.move(0, inv);
  a.halt();
  Program p = a.finish(2, 1);
  const Cfg cfg = Cfg::build(p);
  const LoopForest loops = LoopForest::build(cfg, DomTree::build(cfg));
  ASSERT_EQ(loops.loops.size(), 1u);
  const Loop& l = loops.loops[0];
  EXPECT_EQ(l.header, cfg.block_of[3]);  // the enumerate at `top`
  EXPECT_EQ(l.blocks, (std::vector<std::size_t>{l.header}));
  EXPECT_EQ(l.latches, (std::vector<std::size_t>{l.header}));
  EXPECT_EQ(l.exits, (std::vector<std::size_t>{l.header}));

  // LICM works on self-loops too: the invariant enumerate hoists.
  bvram::RunConfig rc;
  rc.record_trace = true;
  const auto before = bvram::run(p, {{7, 7}, {}}, rc);
  optimize(p);
  const auto after = bvram::run(p, {{7, 7}, {}}, rc);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_LE(after.cost.work, before.cost.work);
  EXPECT_EQ(executed_ops(before, Op::Enumerate), 4u);  // once per iteration
  EXPECT_EQ(executed_ops(after, Op::Enumerate), 1u);   // hoisted
}

TEST(Analysis, InsertBeforeRoutesEntryAndBackEdges) {
  // A one-block loop; code inserted before the header must run on entry
  // (fall-through) but be skipped by the back-edge jump.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);                            // instruction 1
  a.select(nz, 1);
  a.jump_if_empty(nz, done);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);                            // instruction 4: the back edge
  a.bind(done);
  a.move(0, 1);
  a.halt();
  Program p = a.finish(2, 1);
  const auto want = bvram::run(p, {{}, {3}});

  std::vector<std::vector<bvram::Instr>> ins(p.code.size());
  // Insert "V_fresh <- [7]" before the header.  It must execute exactly
  // once even though the loop iterates three times.
  Program q = p;
  q.num_regs += 1;
  const auto fresh = static_cast<std::uint32_t>(q.num_regs - 1);
  ins[1].push_back({Op::LoadConst, ArithOp::Add, fresh, 0, 0, 0, 7, 0});
  std::vector<bool> land_after(p.code.size(), false);
  land_after[4] = true;  // the back edge skips the inserted run
  EXPECT_TRUE(insert_before(q, ins, land_after));
  ASSERT_EQ(q.code.size(), p.code.size() + 1);
  EXPECT_EQ(q.code[1].op, Op::LoadConst);  // sits where the header was
  EXPECT_EQ(q.code[5].op, Op::Goto);
  EXPECT_EQ(q.code[5].target, 2u);  // back edge lands after the insertion
  const auto got = bvram::run(q, {{}, {3}});
  EXPECT_EQ(got.outputs[0], want.outputs[0]);
  // 3 iterations, 1 inserted instruction executed once.
  EXPECT_EQ(got.cost.time, want.cost.time + 1);
}

// ---------------------------------------------------------------------------
// global value numbering (opt/gvn.cpp)
// ---------------------------------------------------------------------------

TEST(Gvn, RecomputationAfterAJoinFuses) {
  // Length(V0) is computed before a branch diamond and again after the
  // join.  The EBB-scoped CSE of PR 1-3 lost all facts at the join; the
  // dominator-scoped GVN fuses the second Length (and the Arith over it)
  // with the originals.
  Assembler a;
  a.reserve_regs(2);
  auto l1 = a.reg(), t1 = a.reg(), m = a.reg(), l2 = a.reg(), t2 = a.reg(),
       q = a.reg(), r = a.reg();
  a.length(l1, 0);
  a.arith(t1, ArithOp::Add, l1, l1);
  auto el = a.fresh_label(), join = a.fresh_label();
  a.jump_if_empty(1, el);
  a.enumerate(m, 0);
  a.jump(join);
  a.bind(el);
  a.load_empty(m);
  a.bind(join);
  a.length(l2, 0);  // recomputation across the join: fuses
  a.arith(t2, ArithOp::Add, l2, l2);
  a.append(q, t1, t2);
  a.append(r, q, m);
  a.move(0, r);
  a.halt();
  Program p = a.finish(2, 1);
  const auto want = bvram::run(p, {{4, 5, 6}, {1}});
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Length), 1u);
  EXPECT_EQ(count_op(p, Op::Arith), 1u);
  EXPECT_EQ(bvram::run(p, {{4, 5, 6}, {1}}).outputs[0], want.outputs[0]);
  EXPECT_EQ(want.outputs[0], (std::vector<std::uint64_t>{6, 6, 0, 1, 2}));
  EXPECT_EQ(bvram::run(p, {{4, 5, 6}, {}}).outputs[0],
            (std::vector<std::uint64_t>{6, 6}));
}

TEST(Gvn, LoopRedefinitionBlocksFusion) {
  // Length(V0) before the loop and at the loop header, with V0 doubled
  // inside the loop: the header recomputation must NOT fuse with the
  // pre-loop value (the loop body's definitions are killed at the
  // header), or the second output entry would read 2 instead of 4.
  Assembler a;
  a.reserve_regs(2);
  auto l1 = a.reg(), l2 = a.reg(), s = a.reg();
  a.length(l1, 0);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.length(l2, 0);  // V0 changes per iteration: stays
  a.jump_if_empty(1, exit);
  a.append(0, 0, 0);
  a.load_empty(1);
  a.jump(top);
  a.bind(exit);
  a.append(s, l1, l2);
  a.move(0, s);
  a.halt();
  Program p = a.finish(2, 1);
  const auto want = bvram::run(p, {{7, 8}, {1}}).outputs[0];
  optimize(p);
  EXPECT_EQ(bvram::run(p, {{7, 8}, {1}}).outputs[0], want);
  EXPECT_EQ(want, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(count_op(p, Op::Length), 2u);
}

TEST(Gvn, SiblingBranchesDoNotShareFacts) {
  // The same expression computed in the two arms of a diamond must not
  // fuse across arms (neither dominates the other).
  Assembler a;
  a.reserve_regs(2);
  auto x = a.reg(), y = a.reg();
  auto el = a.fresh_label(), join = a.fresh_label();
  a.jump_if_empty(1, el);
  a.enumerate(x, 0);
  a.move(0, x);
  a.jump(join);
  a.bind(el);
  a.enumerate(y, 0);  // same expression, sibling arm: must survive
  a.move(0, y);
  a.bind(join);
  a.halt();
  Program p = a.finish(2, 1);
  optimize(p);
  EXPECT_EQ(count_op(p, Op::Enumerate), 2u);
  EXPECT_EQ(bvram::run(p, {{5, 5}, {}}).outputs[0],
            (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(bvram::run(p, {{5, 5}, {1}}).outputs[0],
            (std::vector<std::uint64_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// the uniform algebra (opt/gvn.cpp)
// ---------------------------------------------------------------------------

using Inputs = std::vector<std::vector<std::uint64_t>>;

struct Observed {
  std::string trap;  // empty when the run completed
  bvram::RunResult result;
};

Observed observe(const Program& p, const Inputs& inputs) {
  Observed o;
  try {
    o.result = bvram::run(p, inputs);
  } catch (const Error& e) {
    o.trap = e.what();
  }
  return o;
}

/// `opt` must behave like the unoptimized `naive` on every input: the
/// same outputs or the same trap, and no more executed T or W.
void expect_no_worse(const Program& naive, const Program& opt,
                     const std::vector<Inputs>& cases) {
  for (const Inputs& in : cases) {
    const Observed want = observe(naive, in);
    const Observed got = observe(opt, in);
    ASSERT_EQ(want.trap, got.trap) << "|V0| = " << in[0].size();
    if (!want.trap.empty()) continue;
    EXPECT_EQ(got.result.outputs, want.result.outputs);
    EXPECT_LE(got.result.cost.time, want.result.cost.time);
    EXPECT_LE(got.result.cost.work, want.result.cost.work);
  }
}

TEST(Gvn, UnreachableJumpIntoALoopKeepsHeaderFacts) {
  // k = [5] on every entry to the loop header.  A block that nothing
  // reaches redefines k and jumps into the body: it is no path into the
  // header, so Length(k) there still folds to [1].
  Assembler a;
  a.reserve_regs(2);
  auto k = a.reg(), x = a.reg();
  auto top = a.fresh_label(), body = a.fresh_label(), exit = a.fresh_label();
  a.load_const(k, 5);
  a.bind(top);
  a.length(x, k);
  a.jump_if_empty(1, exit);
  a.bind(body);
  a.append(0, 0, x);
  a.load_empty(1);
  a.jump(top);
  a.bind(exit);
  a.halt();
  a.enumerate(k, 0);  // unreachable
  a.jump(body);
  const Program naive = a.finish(2, 1);
  Program p = naive;
  make_gvn()->run(p);
  EXPECT_EQ(count_op(p, Op::Length), 0u);
  optimize(p);
  expect_no_worse(naive, p, {{{}, {}}, {{7}, {1}}, {{7, 8}, {2, 3}}});
}

TEST(Gvn, RenamingSurvivesARolledBackSibling) {
  // c copies V1 in the entry block.  The fall-through arm copies V1 again
  // and is rolled back before the walk reaches `if empty?(V1)`; below it
  // c still holds V1's number, so Length(c) reads V1.
  Assembler a;
  a.reserve_regs(3);
  auto c = a.reg(), d = a.reg();
  auto test = a.fresh_label(), taken = a.fresh_label();
  a.move(c, 1);
  a.jump_if_empty(2, test);
  a.move(d, 1);
  a.append(0, 0, d);
  a.bind(test);
  a.jump_if_empty(1, taken);
  a.append(0, 0, 1);
  a.halt();
  a.bind(taken);
  a.length(0, c);
  a.halt();
  const Program naive = a.finish(3, 1);
  Program p = naive;
  make_gvn()->run(p);
  ASSERT_EQ(p.code[7].op, Op::Length);
  EXPECT_EQ(p.code[7].a, 1u);
  optimize(p);
  expect_no_worse(naive, p,
                  {{{}, {}, {}}, {{4}, {}, {1}}, {{4}, {5, 6}, {}},
                   {{4}, {5}, {1}}});
}

/// bm-route(over, [length(over)], [c]): the catalog's broadcast of c.
std::uint32_t broadcast(Assembler& a, std::uint64_t c, std::uint32_t over) {
  auto k = a.reg(), len = a.reg(), out = a.reg();
  a.load_const(k, c);
  a.length(len, over);
  a.bm_route(out, over, len, k);
  return out;
}

TEST(Gvn, UniformIdentitiesFoldToMoves) {
  // V0 op broadcast(c, V0) or the mirror: both operands have V0's
  // length, so the Arith cannot trap, and it is a Move of V0 or of the
  // broadcast.
  struct Case {
    ArithOp op;
    std::uint64_t c;
    bool const_first;
    bool yields_x;  // x, or the broadcast (the zero operand)
  };
  const Case cases[] = {
      {ArithOp::Add, 0, false, true},   {ArithOp::Add, 0, true, true},
      {ArithOp::Monus, 0, false, true}, {ArithOp::Mul, 1, false, true},
      {ArithOp::Mul, 1, true, true},    {ArithOp::Rsh, 0, false, true},
      {ArithOp::Monus, 0, true, false}, {ArithOp::Mul, 0, true, false},
      {ArithOp::Mul, 0, false, false},  {ArithOp::Rsh, 0, true, false},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(std::string(lang::arith_op_name(k.op)) + " c=" +
                 std::to_string(k.c) + (k.const_first ? " (c first)" : ""));
    Assembler a;
    a.reserve_regs(1);
    const std::uint32_t bc = broadcast(a, k.c, 0);
    auto r = a.reg();
    if (k.const_first) {
      a.arith(r, k.op, bc, 0);
    } else {
      a.arith(r, k.op, 0, bc);
    }
    a.move(0, r);
    a.halt();
    const Program naive = a.finish(1, 1);

    Program p = naive;
    make_gvn()->run(p);
    const bvram::Instr& folded = p.code[3];
    EXPECT_EQ(folded.op, Op::Move);
    EXPECT_EQ(folded.a, k.yields_x ? 0u : bc);

    Program o2 = naive;
    optimize(o2);
    EXPECT_EQ(count_op(o2, Op::Arith), 0u);
    expect_no_worse(naive, o2, {{{}}, {{5}}, {{0, 3, 7, 1}}});
  }
}

TEST(Gvn, UniformIdentityNeedsProvenLengths) {
  // V0 + broadcast(0, V1): nothing ties |V0| to |V1|, so the Arith and
  // its length check stay.
  Assembler a;
  a.reserve_regs(2);
  const std::uint32_t bc = broadcast(a, 0, 1);
  auto r = a.reg();
  a.arith(r, ArithOp::Add, 0, bc);
  a.move(0, r);
  a.halt();
  const Program naive = a.finish(2, 1);
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::Arith), 1u);
  expect_no_worse(naive, o2,
                  {{{}, {}}, {{4, 5}, {1, 1}}, {{4, 5}, {1}}, {{}, {1}}});
  EXPECT_THROW(bvram::run(o2, {{4, 5}, {1}}), MachineError);
}

TEST(Gvn, DivisionByBroadcastOneKeepsItsArith) {
  // x / broadcast(1, x) equals x, but no corpus compile divides by a
  // broadcast 1, so the uniform algebra has no x/1 identity.
  Assembler a;
  a.reserve_regs(1);
  const std::uint32_t bc = broadcast(a, 1, 0);
  auto r = a.reg();
  a.arith(r, ArithOp::Div, 0, bc);
  a.move(0, r);
  a.halt();
  const Program naive = a.finish(1, 1);
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::Arith), 1u);
  expect_no_worse(naive, o2, {{{}}, {{5}}, {{0, 3, 7, 1}}});
}

TEST(Gvn, ZeroDivisorNeverFolds) {
  // x / broadcast(0) traps unless x is empty, and broadcast(0) / x traps
  // on a zero in x: neither may become a Move.  Nor may the quotient of
  // two broadcasts with a zero divisor.
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE(shape);
    Assembler a;
    a.reserve_regs(1);
    const std::uint32_t zero = broadcast(a, 0, 0);
    auto r = a.reg();
    if (shape == 0) {
      a.arith(r, ArithOp::Div, 0, zero);
    } else if (shape == 1) {
      a.arith(r, ArithOp::Div, zero, 0);
    } else {
      a.arith(r, ArithOp::Div, broadcast(a, 5, 0), zero);
    }
    a.move(0, r);
    a.halt();
    const Program naive = a.finish(1, 1);
    Program o2 = naive;
    optimize(o2);
    EXPECT_EQ(count_op(o2, Op::Arith), 1u);
    expect_no_worse(naive, o2, {{{}}, {{4, 2}}, {{0, 3}}});
  }
}

TEST(Gvn, UniformCseFusesBroadcasts) {
  // broadcast(7, V0) and broadcast(7, enumerate(V0)) are one vector: the
  // second route becomes a Move of the first.
  Assembler a;
  a.reserve_regs(1);
  auto e = a.reg(), out = a.reg();
  const std::uint32_t b1 = broadcast(a, 7, 0);
  a.enumerate(e, 0);
  const std::uint32_t b2 = broadcast(a, 7, e);
  a.append(out, b1, b2);
  a.move(0, out);
  a.halt();
  const Program naive = a.finish(1, 1);
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::BmRoute), 1u);
  expect_no_worse(naive, o2, {{{}}, {{9}}, {{1, 2, 3}}});
  EXPECT_EQ(bvram::run(o2, {{1, 2}}).outputs[0],
            (std::vector<std::uint64_t>{7, 7, 7, 7}));
}

TEST(Gvn, UniformCseRespectsScopes) {
  // Sibling arms: each broadcasts 7 over V0, and neither dominates the
  // other, so both routes stay.
  {
    Assembler a;
    a.reserve_regs(2);
    auto el = a.fresh_label(), join = a.fresh_label();
    a.jump_if_empty(1, el);
    a.move(0, broadcast(a, 7, 0));
    a.jump(join);
    a.bind(el);
    a.move(0, broadcast(a, 7, 0));
    a.bind(join);
    a.halt();
    const Program naive = a.finish(2, 1);
    Program o2 = naive;
    optimize(o2);
    EXPECT_EQ(count_op(o2, Op::BmRoute), 2u);
    expect_no_worse(naive, o2,
                    {{{}, {}}, {{1, 2}, {}}, {{1, 2}, {1}}, {{}, {1}}});
  }
  // A pre-loop broadcast over V0 and one at the loop header, where the
  // loop doubles V0: the header's is longer after the first trip.
  {
    Assembler a;
    a.reserve_regs(2);
    auto out = a.reg(), b1 = a.reg();
    const std::uint32_t b0 = broadcast(a, 7, 0);
    auto top = a.fresh_label(), exit = a.fresh_label();
    a.bind(top);
    a.move(b1, broadcast(a, 7, 0));
    a.jump_if_empty(1, exit);
    a.append(0, 0, 0);
    a.load_empty(1);
    a.jump(top);
    a.bind(exit);
    a.append(out, b0, b1);
    a.move(0, out);
    a.halt();
    const Program naive = a.finish(2, 1);
    Program o2 = naive;
    optimize(o2);
    EXPECT_EQ(count_op(o2, Op::BmRoute), 2u);
    expect_no_worse(naive, o2, {{{}, {}}, {{3}, {}}, {{3}, {1}}, {{}, {1}}});
    EXPECT_EQ(bvram::run(o2, {{3}, {1}}).outputs[0],
              (std::vector<std::uint64_t>{7, 7, 7}));
  }
}

// ---------------------------------------------------------------------------
// branches: neither edge of a GotoIfEmpty learns a fact
// ---------------------------------------------------------------------------

TEST(BranchSensitive, FallThroughEdgeLearnsNothing) {
  // On the fall-through edge the register is non-empty, which the
  // lattice cannot represent: downstream code must stay.
  {
    Assembler a;
    a.reserve_regs(2);
    auto l = a.reg();
    auto taken = a.fresh_label();
    a.jump_if_empty(1, taken);
    a.length(l, 1);
    a.move(0, l);
    a.halt();
    a.bind(taken);
    a.load_const(l, 99);
    a.move(0, l);
    a.halt();
    Program p = a.finish(2, 1);
    optimize(p);
    EXPECT_EQ(count_op(p, Op::Length), 1u);
    EXPECT_EQ(bvram::run(p, {{}, {5, 6}}).outputs[0],
              (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(bvram::run(p, {{}, {}}).outputs[0],
              (std::vector<std::uint64_t>{99}));
  }
  // Nor does the taken edge learn that V1 is empty: no corpus compile
  // gains from it, so Length(V1) there stays too.
  {
    Assembler a;
    a.reserve_regs(2);
    auto l = a.reg();
    auto taken = a.fresh_label();
    a.jump_if_empty(1, taken);
    a.move(0, 1);
    a.halt();
    a.bind(taken);
    a.length(l, 1);
    a.move(0, l);
    a.halt();
    Program p = a.finish(2, 1);
    optimize(p);
    EXPECT_EQ(count_op(p, Op::Length), 1u);
    EXPECT_EQ(bvram::run(p, {{}, {}}).outputs[0],
              (std::vector<std::uint64_t>{0}));
    EXPECT_EQ(bvram::run(p, {{}, {5}}).outputs[0],
              (std::vector<std::uint64_t>{5}));
  }
}

// ---------------------------------------------------------------------------
// copy renaming (opt/gvn.cpp)
// ---------------------------------------------------------------------------

TEST(Gvn, UsesOfAMoveReadItsSource) {
  // c is a staging copy of e1, and CSE turns the second enumerate into
  // `e2 <- e1`.  One gvn run renames the Arith's reads of both copies to
  // e1, so dce then drops both Moves.
  Assembler a;
  a.reserve_regs(1);
  auto e1 = a.reg(), c = a.reg(), e2 = a.reg(), s = a.reg();
  a.enumerate(e1, 0);
  a.move(c, e1);
  a.enumerate(e2, 0);
  a.arith(s, ArithOp::Add, c, e2);
  a.move(0, s);
  a.halt();
  const Program naive = a.finish(1, 1);

  Program p = naive;
  EXPECT_TRUE(make_gvn()->run(p));
  ASSERT_EQ(p.code[3].op, Op::Arith);
  EXPECT_EQ(p.code[3].a, e1);
  EXPECT_EQ(p.code[3].b, e1);

  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::Enumerate), 1u);
  EXPECT_EQ(count_op(o2, Op::Move), 1u);  // only the output's
  expect_no_worse(naive, o2, {{{}}, {{5}}, {{4, 1, 7}}});
}

TEST(Gvn, CopyReadOnTheTakenEdgeIsRenamed) {
  // c took V1's number in the entry block, which dominates the taken
  // edge of `if empty?(V1)`, so the read of c there reads V1.
  Assembler a;
  a.reserve_regs(2);
  auto c = a.reg();
  auto taken = a.fresh_label();
  a.move(c, 1);
  a.jump_if_empty(1, taken);
  a.append(0, 0, 1);
  a.halt();
  a.bind(taken);
  a.move(0, c);
  a.halt();
  const Program naive = a.finish(2, 1);

  Program p = naive;
  make_gvn()->run(p);
  ASSERT_EQ(p.code[4].op, Op::Move);
  EXPECT_EQ(p.code[4].a, 1u);

  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::Move), 1u);  // c's Move is gone
  expect_no_worse(naive, o2,
                  {{{}, {}}, {{5}, {}}, {{}, {7}}, {{1, 2}, {3, 4, 5}}});
}

TEST(Gvn, CopyIsNotRenamedPastARedefinitionOfItsSource) {
  // V0 = [n] runs the loop n times; the body doubles V1 and appends its
  // copy c, taken before the loop, to acc.  c must keep reading c.
  // V0 = [2, 1] traps on the loop's length check.
  {
    Assembler a;
    a.reserve_regs(2);
    auto one = a.reg(), c = a.reg(), nz = a.reg(), acc = a.reg();
    a.load_const(one, 1);
    a.move(c, 1);
    auto top = a.fresh_label(), done = a.fresh_label();
    a.bind(top);
    a.select(nz, 0);
    a.jump_if_empty(nz, done);
    a.append(1, 1, 1);
    a.append(acc, acc, c);
    a.arith(0, ArithOp::Monus, 0, one);
    a.jump(top);
    a.bind(done);
    a.append(0, acc, c);
    a.halt();
    const Program naive = a.finish(2, 1);

    Program p = naive;
    make_gvn()->run(p);
    ASSERT_EQ(p.code[5].op, Op::Append);
    EXPECT_EQ(p.code[5].b, c);
    ASSERT_EQ(p.code[8].op, Op::Append);
    EXPECT_EQ(p.code[8].b, c);

    Program o2 = naive;
    optimize(o2);
    expect_no_worse(naive, o2,
                    {{{}, {}}, {{}, {4}}, {{0}, {4}}, {{1}, {4}},
                     {{3}, {4, 6}}, {{2, 1}, {4}}});
    EXPECT_EQ(bvram::run(o2, {{2}, {4, 6}}).outputs[0],
              (std::vector<std::uint64_t>{4, 6, 4, 6, 4, 6}));
  }
  // One arm of a diamond redefines V1: after that, and after the join,
  // c keeps reading c; the other arm may read V1.
  {
    Assembler a;
    a.reserve_regs(3);
    auto c = a.reg();
    auto el = a.fresh_label(), join = a.fresh_label();
    a.move(c, 1);
    a.jump_if_empty(2, el);
    a.append(1, 1, 1);
    a.move(0, c);
    a.jump(join);
    a.bind(el);
    a.move(0, c);
    a.bind(join);
    a.append(0, 0, c);
    a.halt();
    const Program naive = a.finish(3, 1);

    Program p = naive;
    make_gvn()->run(p);
    EXPECT_EQ(p.code[3].a, c);  // after the redefinition
    EXPECT_EQ(p.code[5].a, 1u);  // the other arm
    EXPECT_EQ(p.code[6].b, c);  // after the join

    Program o2 = naive;
    optimize(o2);
    expect_no_worse(naive, o2,
                    {{{}, {}, {}}, {{}, {4}, {}}, {{}, {4}, {1}},
                     {{9}, {4, 6}, {1}}, {{9}, {4, 6}, {}}});
    EXPECT_EQ(bvram::run(o2, {{}, {4}, {1}}).outputs[0],
              (std::vector<std::uint64_t>{4, 4}));
  }
}

TEST(Gvn, FoldKeepsTheSlotsDebugSite) {
  // obs/debuginfo.hpp: an instruction rewritten in place keeps its site,
  // so [2] + [3] folds to a [5] that still names the Arith's line.
  obs::DebugTable debug;
  const std::uint32_t site = debug.intern("arith", 4, 9);
  Assembler a;
  a.reserve_regs(1);
  auto x = a.reg(), y = a.reg(), s = a.reg();
  a.load_const(x, 2);
  a.load_const(y, 3);
  a.set_site(site);
  a.arith(s, ArithOp::Add, x, y);
  a.set_site(0);
  a.move(0, s);
  a.halt();
  Program p = a.finish(0, 1);
  p.debug = debug;

  make_gvn()->run(p);
  const bvram::Instr& folded = p.code[2];
  EXPECT_EQ(folded.op, Op::LoadConst);
  EXPECT_EQ(folded.imm, 5u);
  EXPECT_EQ(folded.dbg, site);
  EXPECT_EQ(p.debug.site(folded.dbg).show(), "arith@4:9");
}

// ---------------------------------------------------------------------------
// facts kept around a loop (gvn's kill-region check)
// ---------------------------------------------------------------------------

/// V0 = [n] runs the loop n times, V0 = [] not at all:
///   one <- [1]; (x <- [1])
///   top: nz <- select(V0); if empty?(nz) goto done
///        body; V0 <- V0 - one; goto top
///   done: V0 <- V0 + x
/// The exit Arith traps when V0 = [] (lengths 0 and 1).
template <typename Body>
Program counted_loop(Body body) {
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), nz = a.reg(), x = a.reg();
  a.load_const(one, 1);
  a.load_const(x, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);
  a.select(nz, 0);
  a.jump_if_empty(nz, done);
  body(a, x, one);
  a.arith(0, ArithOp::Monus, 0, one);
  a.jump(top);
  a.bind(done);
  a.arith(0, ArithOp::Add, 0, x);
  a.halt();
  return a.finish(1, 1);
}

std::size_t count_arith(const Program& p, ArithOp op) {
  std::size_t n = 0;
  for (const auto& in : p.code) n += in.op == Op::Arith && in.aop == op;
  return n;
}

const std::vector<Inputs> kLoopInputs = {{{}}, {{0}}, {{1}}, {{3}}};

TEST(LoopFacts, EmptyOnEntryAndReEmptiedLosesItsLoadEmpty) {
  // e is never written before the loop, so it is empty on entry, and the
  // loop only re-empties it: it is empty at the header on every
  // iteration.  The in-loop LoadEmpty is redundant, and e @ V0 is V0.
  Assembler a;
  a.reserve_regs(1);
  auto one = a.reg(), nz = a.reg(), e = a.reg(), s = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);
  a.select(nz, 0);
  a.jump_if_empty(nz, done);
  a.append(s, e, 0);
  a.load_empty(e);
  a.arith(0, ArithOp::Monus, s, one);
  a.jump(top);
  a.bind(done);
  a.append(0, 0, e);
  a.halt();
  const Program naive = a.finish(1, 1);
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_op(o2, Op::LoadEmpty), 0u);
  EXPECT_EQ(count_op(o2, Op::Append), 0u);
  expect_no_worse(naive, o2, kLoopInputs);
  EXPECT_EQ(bvram::run(o2, {{3}}).outputs[0], (std::vector<std::uint64_t>{0}));
}

TEST(LoopFacts, LoopCarriedTimesOneFolds) {
  // x = [1] on entry and x <- x * [1] in the loop keeps it [1], so the
  // reload folds away and only the count's Monus and the exit Add stay.
  const Program naive = counted_loop([](Assembler& a, auto x, auto one) {
    a.arith(x, ArithOp::Mul, x, one);
  });
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_arith(o2, ArithOp::Mul), 0u);
  EXPECT_EQ(count_op(o2, Op::Arith), 2u);
  expect_no_worse(naive, o2, kLoopInputs);
  EXPECT_EQ(bvram::run(o2, {{3}}).outputs[0], (std::vector<std::uint64_t>{1}));
  EXPECT_THROW(bvram::run(o2, {{}}), MachineError);
}

TEST(LoopFacts, LoopWritingAnotherConstantKeepsItsCode) {
  // x = [1] on entry but [2] on the back edge: x is not known at the
  // header, so the multiply and the [2] both stay.
  const Program naive = counted_loop([](Assembler& a, auto x, auto one) {
    a.arith(x, ArithOp::Mul, x, one);
    a.load_const(x, 2);
  });
  Program o2 = naive;
  optimize(o2);
  EXPECT_EQ(count_arith(o2, ArithOp::Mul), 1u);
  std::size_t twos = 0;
  for (const auto& in : o2.code) twos += in.op == Op::LoadConst && in.imm == 2;
  EXPECT_EQ(twos, 1u);
  expect_no_worse(naive, o2, kLoopInputs);
  EXPECT_EQ(bvram::run(o2, {{0}}).outputs[0], (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(bvram::run(o2, {{3}}).outputs[0], (std::vector<std::uint64_t>{2}));
}

// ---------------------------------------------------------------------------
// loop-invariant code motion (opt/licm.cpp)
// ---------------------------------------------------------------------------

TEST(Licm, InvariantHeaderCodeHoists) {
  // enumerate(V0) sits in the loop header with V0 never written inside:
  // it must execute once per run, not once per iteration.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), inv = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.enumerate(inv, 0);  // invariant, in the header block
  a.select(nz, 1);
  a.jump_if_empty(nz, exit);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);
  a.bind(exit);
  a.move(0, inv);
  a.halt();
  Program p = a.finish(2, 1);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  const auto before = bvram::run(p, {{9, 9, 9}, {3}}, cfg);
  optimize(p);
  const auto after = bvram::run(p, {{9, 9, 9}, {3}}, cfg);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_LE(after.cost.time, before.cost.time);
  EXPECT_LE(after.cost.work, before.cost.work);
  EXPECT_EQ(executed_ops(before, Op::Enumerate), 4u);  // per header visit
  EXPECT_EQ(executed_ops(after, Op::Enumerate), 1u);   // hoisted
}

TEST(Licm, NothingHoistsOntoTheZeroTripPath) {
  // The same loop entered with V1 already empty: the loop still exits
  // immediately and the optimized program must not spend more than the
  // naive one (no speculation).
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), inv = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.enumerate(inv, 0);
  a.select(nz, 1);
  a.jump_if_empty(nz, exit);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);
  a.bind(exit);
  a.move(0, inv);
  a.halt();
  Program p = a.finish(2, 1);
  const auto before = bvram::run(p, {{9, 9}, {}});
  optimize(p);
  const auto after = bvram::run(p, {{9, 9}, {}});
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_LE(after.cost.time, before.cost.time);
  EXPECT_LE(after.cost.work, before.cost.work);
}

TEST(Licm, VaryingOperandsStay) {
  // enumerate(V1) with V1 stepped in the loop is not invariant.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), e = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.enumerate(e, 1);
  a.select(nz, 1);
  a.jump_if_empty(nz, exit);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);
  a.bind(exit);
  a.move(0, e);
  a.halt();
  Program p = a.finish(2, 1);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  const auto before = bvram::run(p, {{}, {2}}, cfg);
  optimize(p);
  const auto after = bvram::run(p, {{}, {2}}, cfg);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_EQ(executed_ops(after, Op::Enumerate), 3u);  // per header visit
}

TEST(Licm, InvariantBroadcastCertificateDischarges) {
  // The catalog's ones_like(V0): LoadConst 1, Length(V0), bm-route with
  // bound == the Length's source.  All three are invariant and the route
  // certificate is provable, so the whole mask hoists out of the loop.
  Assembler a;
  a.reserve_regs(2);
  auto stepc = a.reg(), one = a.reg(), lenx = a.reg(), mask = a.reg(),
       nz = a.reg();
  a.load_const(stepc, 1);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.bm_route(mask, 0, lenx, one);  // ones_like(V0), invariant
  a.select(nz, 1);
  a.jump_if_empty(nz, exit);
  a.arith(1, ArithOp::Monus, 1, stepc);
  a.jump(top);
  a.bind(exit);
  a.move(0, mask);
  a.halt();
  Program p = a.finish(2, 1);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  const auto before = bvram::run(p, {{4, 0, 6}, {2}}, cfg);
  optimize(p);
  const auto after = bvram::run(p, {{4, 0, 6}, {2}}, cfg);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_EQ(after.outputs[0], (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_LE(after.cost.work, before.cost.work);
  EXPECT_EQ(executed_ops(before, Op::BmRoute), 3u);  // per header visit
  EXPECT_EQ(executed_ops(after, Op::BmRoute), 1u);   // hoisted
}

TEST(Licm, SelfClobberingLengthDoesNotCertifyRoute) {
  // length(y, y) overwrites its own source, so "sum(counts) == |bound|"
  // does not hold for bm_route(m, y, y, c): with y initially empty,
  // |y| becomes 1 but sum(y) = 0.  The route sits on the loop's only
  // exit path (its block dominates the exit) while a spin cycle can
  // keep the loop running forever without reaching it -- hoisting it
  // would introduce a trap the original program never executes.
  Assembler a;
  a.reserve_regs(2);  // V0: out, V1: spin selector
  auto y = a.reg(), c = a.reg(), m = a.reg();
  a.load_const(c, 1);
  a.length(y, y);  // y := [length(y)] : clobbers its own source
  auto top = a.fresh_label(), route_l = a.fresh_label(),
       exit = a.fresh_label();
  a.bind(top);
  a.jump_if_empty(1, route_l);
  a.jump(top);  // spin while V1 is non-empty
  a.bind(route_l);
  a.bm_route(m, y, y, c);  // certificate fails at run time: 0 != 1
  a.jump_if_empty(0, exit);
  a.jump(top);
  a.bind(exit);
  a.move(0, m);
  a.halt();
  Program p = a.finish(2, 1);
  bvram::RunConfig fuel;
  fuel.max_instructions = 1000;
  // Spinning input: runs out of fuel without ever trapping.
  EXPECT_THROW(bvram::run(p, {{}, {1}}, fuel), FuelExhausted);
  // Route input: the certificate trap fires.
  EXPECT_THROW(bvram::run(p, {{}, {}}, fuel), MachineError);
  optimize(p);
  // Both behaviors must survive: the route was NOT hoisted into the
  // preheader (which the spin path executes).
  EXPECT_THROW(bvram::run(p, {{}, {1}}, fuel), FuelExhausted);
  EXPECT_THROW(bvram::run(p, {{}, {}}, fuel), MachineError);
}

TEST(Licm, EnumeratedRouteDataDoesNotCertifyRoute) {
  // The same spin shape, with counts := Length(bound) in the loop -- the
  // half of the certificate that holds -- but data an invariant
  // Enumerate(bound) instead of a LoadConst: |data| = |bound|, so the
  // route traps unless |bound| == 1.  Every operand is hoistable, yet
  // hoisting the route would run that trap on the spin path too.
  Assembler a;
  a.reserve_regs(3);  // V0: out, V1: spin selector, V2: bound
  auto n = a.reg(), e = a.reg(), m = a.reg();
  auto top = a.fresh_label(), route_l = a.fresh_label(),
       exit = a.fresh_label();
  a.bind(top);
  a.jump_if_empty(1, route_l);
  a.jump(top);  // spin while V1 is non-empty
  a.bind(route_l);
  a.length(n, 2);
  a.enumerate(e, 2);
  a.bm_route(m, 2, n, e);  // |counts| = 1 != |data| unless |V2| == 1
  a.jump_if_empty(0, exit);
  a.jump(top);
  a.bind(exit);
  a.move(0, m);
  a.halt();
  Program p = a.finish(3, 1);
  bvram::RunConfig fuel;
  fuel.max_instructions = 1000;
  EXPECT_THROW(bvram::run(p, {{}, {1}, {5, 5}}, fuel), FuelExhausted);
  EXPECT_THROW(bvram::run(p, {{}, {}, {5, 5}}, fuel), MachineError);
  optimize(p);
  EXPECT_THROW(bvram::run(p, {{}, {1}, {5, 5}}, fuel), FuelExhausted);
  EXPECT_THROW(bvram::run(p, {{}, {}, {5, 5}}, fuel), MachineError);
  EXPECT_EQ(bvram::run(p, {{}, {}, {5}}, fuel).outputs[0],
            (std::vector<std::uint64_t>{0}));
}

TEST(Licm, UnprovableRouteCertificateStays) {
  // Same shape but the route's bound is a *different* register than the
  // Length's source: sum(counts) == |bound| is not provable, so the
  // (possibly trapping) route must stay in the loop.
  Assembler a;
  a.reserve_regs(3);
  auto one = a.reg(), lenx = a.reg(), mask = a.reg(), nz = a.reg(),
       stepc = a.reg();
  a.load_const(stepc, 1);
  auto top = a.fresh_label(), exit = a.fresh_label();
  a.bind(top);
  a.load_const(one, 1);
  a.length(lenx, 0);
  a.bm_route(mask, 1, lenx, one);  // bound V1 != Length source V0
  a.select(nz, 2);
  a.jump_if_empty(nz, exit);
  a.arith(2, ArithOp::Monus, 2, stepc);
  a.jump(top);
  a.bind(exit);
  a.move(0, mask);
  a.halt();
  Program p = a.finish(3, 1);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  const auto before = bvram::run(p, {{4}, {9}, {1}}, cfg);
  optimize(p);
  const auto after = bvram::run(p, {{4}, {9}, {1}}, cfg);
  EXPECT_EQ(after.outputs[0], before.outputs[0]);
  EXPECT_EQ(executed_ops(after, Op::BmRoute), 2u);  // per header visit
  // The mismatch case still traps identically.
  EXPECT_THROW(bvram::run(p, {{4, 4}, {9}, {1}}), MachineError);
}

// ---------------------------------------------------------------------------
// dataflow visit order (OrderedWorklist)
// ---------------------------------------------------------------------------

/// Every corpus program's naive (O0) emission, unit and lifted, under
/// each WhileSchedule: the optimizer's real inputs.
struct NaiveCompile {
  std::string label;
  Program p;
};

std::vector<NaiveCompile> naive_corpus() {
  std::vector<NaiveCompile> out;
  for (const auto& path : nsc::testing::corpus_files()) {
    const front::ResolvedModule mod =
        front::compile_file(front::load_file(path));
    const L::FuncRef& fn = mod.main().fn;
    for (const bool lifted : {false, true}) {
      for (const auto& s : nsc::testing::kSchedules) {
        out.push_back({path + (lifted ? " lifted " : " unit ") + s.name,
                       sa::compile_nsc(lifted ? L::map_f(fn) : fn,
                                       OptLevel::O0, s.sched)});
      }
    }
  }
  return out;
}

TEST(Dataflow, LivenessMatchesRoundRobinReference) {
  // The ordered worklist must reach the same least fixpoint as the
  // textbook iteration: sweep every block, last to first, until no live
  // set changes.
  for (const NaiveCompile& c : naive_corpus()) {
    const Program& p = c.p;
    const Cfg cfg = Cfg::build(p);
    const std::size_t nb = cfg.blocks.size();
    std::vector<std::vector<bool>> ref(nb, std::vector<bool>(p.num_regs));
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t b = nb; b-- > 0;) {
        std::vector<bool> live(p.num_regs, false);
        if (cfg.blocks[b].falls_to_exit) {
          for (std::size_t r = 0; r < p.num_outputs; ++r) live[r] = true;
        }
        for (std::size_t succ : cfg.blocks[b].succs) {
          for (std::size_t r = 0; r < p.num_regs; ++r) {
            if (ref[succ][r]) live[r] = true;
          }
        }
        for (std::size_t i = cfg.blocks[b].end; i-- > cfg.blocks[b].begin;) {
          if (p.code[i].has_dst()) live[p.code[i].dst] = false;
          for (std::uint32_t r : p.code[i].srcs()) live[r] = true;
        }
        if (live != ref[b]) {
          ref[b] = std::move(live);
          changed = true;
        }
      }
    }
    const Liveness lv = Liveness::compute(p, cfg);
    ASSERT_EQ(lv.live_in.size(), nb) << c.label;
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::uint32_t r = 0; r < p.num_regs; ++r) {
        ASSERT_EQ(lv.live_in[b].test(r), ref[b][r])
            << c.label << " block " << b << " V" << r;
      }
    }
  }
}

TEST(Passes, DceRunsToItsFixpoint) {
  // x's only read is a dead Move in a later block, and the Goto skips a
  // dead Length: one dce run removes the Move, the Length, then x, then
  // the Goto and the Halt, which now lead to the next kept instruction.
  {
    Assembler a;
    a.reserve_regs(2);
    auto x = a.reg(), y = a.reg(), z = a.reg();
    auto skip = a.fresh_label(), end = a.fresh_label();
    a.enumerate(x, 0);
    a.jump_if_empty(1, skip);
    a.move(y, x);
    a.jump(end);
    a.bind(skip);
    a.length(z, 0);
    a.bind(end);
    a.halt();
    const Program naive = a.finish(2, 1);
    Program p = naive;
    EXPECT_TRUE(make_dce()->run(p));
    ASSERT_EQ(p.code.size(), 1u);
    EXPECT_EQ(p.code[0].op, Op::GotoIfEmpty);
    EXPECT_FALSE(make_dce()->run(p));
    expect_no_worse(naive, p, {{{}, {}}, {{3, 4}, {}}, {{3, 4}, {5}}});
  }
  // Every corpus compile, through every round of the O2 pipeline.
  for (NaiveCompile& c : naive_corpus()) {
    Program& p = c.p;
    p.last_use.clear();
    std::unique_ptr<Pass> passes[] = {make_gvn(), make_licm(), make_dce(),
                                      make_reg_compact()};
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& pass : passes) {
        changed |= pass->run(p);
        if (std::string(pass->name()) != "dce") continue;
        Program again = p;
        EXPECT_FALSE(make_dce()->run(again)) << c.label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// liveness export (opt/liveness.hpp)
// ---------------------------------------------------------------------------

TEST(LastUse, StraightLineMasks) {
  Assembler a;
  a.reserve_regs(1);
  auto t = a.reg();
  a.enumerate(t, 0);  // V0's old value dies here (overwritten next)
  a.move(0, t);       // t dies here
  a.halt();
  Program p = a.finish(1, 1);
  const auto mask = compute_last_use(p);
  ASSERT_EQ(mask.size(), 3u);
  EXPECT_EQ(mask[0] & 1u, 1u);  // enumerate's source V0 dead after
  EXPECT_EQ(mask[1] & 1u, 1u);  // move's source t dead after
  EXPECT_EQ(mask[2], 0u);       // halt has no sources
}

TEST(LastUse, OutputRegistersStayLive) {
  Assembler a;
  a.reserve_regs(1);
  auto t = a.reg();
  a.enumerate(t, 0);
  a.halt();
  Program p = a.finish(1, 2);  // both V0 and t are outputs
  const auto mask = compute_last_use(p);
  EXPECT_EQ(mask[0] & 1u, 0u);  // V0 live at exit: not a last use
}

TEST(LastUse, LoopCarriedRegisterNotDead) {
  // V1 is read again on the next iteration: no instruction inside the
  // loop may claim it as a last use, except where it is rewritten first.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), nz = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);
  a.select(nz, 1);
  a.jump_if_empty(nz, done);
  a.arith(1, ArithOp::Monus, 1, one);
  a.jump(top);
  a.bind(done);
  a.move(0, 1);
  a.halt();
  Program p = a.finish(2, 1);
  const auto mask = compute_last_use(p);
  // Instruction 1 (select of V1): V1 must be live after (the loop body
  // and the exit both read it).
  EXPECT_EQ(p.code[1].op, Op::Select);
  EXPECT_EQ(mask[1] & 1u, 0u);
  // The Arith reads V1 and immediately overwrites it.  The mask tracks
  // the *register* after the instruction, and the new value is read on
  // the next iteration, so the bit stays clear (the engine handles
  // dst == src aliasing in place without needing the mask).
  EXPECT_EQ(p.code[3].op, Op::Arith);
  EXPECT_EQ(mask[3] & 1u, 0u);
  // The loop-exit Move is V1's true last use.
  EXPECT_EQ(p.code[5].op, Op::Move);
  EXPECT_EQ(mask[5] & 1u, 1u);
}

TEST(LastUse, DeadResultBit) {
  // Bit 7 marks a destination never read after its def: set for the two
  // unread certificates, clear for a loop-carried def, an output register
  // at exit, the jumps and Halt.
  Assembler a;
  a.reserve_regs(2);
  auto one = a.reg(), nz = a.reg(), t = a.reg(), r = a.reg();
  a.load_const(one, 1);
  auto top = a.fresh_label(), done = a.fresh_label();
  a.bind(top);
  a.select(nz, 1);
  a.jump_if_empty(nz, done);
  a.arith(t, ArithOp::Add, 1, one);  // unread: a length certificate
  a.bm_route(r, one, one, 1);        // unread: a route certificate
  a.arith(1, ArithOp::Monus, 1, one);  // loop-carried
  a.jump(top);
  a.bind(done);
  a.arith(0, ArithOp::Add, 1, 1);  // output register at exit
  a.halt();
  Program p = a.finish(2, 1);
  const auto mask = compute_last_use(p);
  const std::pair<Op, bool> want[] = {
      {Op::LoadConst, false}, {Op::Select, false}, {Op::GotoIfEmpty, false},
      {Op::Arith, true},      {Op::BmRoute, true}, {Op::Arith, false},
      {Op::Goto, false},      {Op::Arith, false},  {Op::Halt, false},
  };
  ASSERT_EQ(mask.size(), std::size(want));
  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_EQ(p.code[i].op, want[i].first) << i;
    EXPECT_EQ((mask[i] & bvram::kDeadResult) != 0, want[i].second)
        << i << ": " << p.code[i].show();
  }
  // The bit sits above the source bits, which keep their meaning: the
  // bm-route's last read of `one` on this path is not its last use (the
  // Monus reads it next).
  EXPECT_EQ(mask[4] & 0x7fu, 0u);
}

TEST(LastUse, CompiledProgramsArriveAnnotated) {
  auto f = L::lam(NSeq, [](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N, [](L::TermRef v) {
                      return L::mul(v, L::nat(3));
                    })),
                    x);
  });
  for (auto level : {OptLevel::O0, OptLevel::O2}) {
    auto p = sa::compile_nsc(f, level);
    EXPECT_EQ(p.last_use.size(), p.code.size());
  }
}

TEST(LastUse, RejectsOutOfRangeOperands) {
  // Hand-assembled programs reach the annotation unverified.  A register
  // or jump target out of range must throw before the live sets are
  // indexed with it.
  auto one_reg = [](std::vector<bvram::Instr> code) {
    Program p;
    p.num_regs = p.num_inputs = p.num_outputs = 1;
    p.code = std::move(code);
    return p;
  };
  const bvram::Instr halt{Op::Halt};
  Program p = one_reg({{Op::Move, ArithOp::Add, 100, 0}, halt});  // V100 <- V0
  EXPECT_THROW(compute_last_use(p), MachineError);
  EXPECT_THROW(annotate_last_use(p), MachineError);
  p = one_reg({{Op::Move, ArithOp::Add, 0, 100}, halt});  // V0 <- V100
  EXPECT_THROW(compute_last_use(p), MachineError);
  p = one_reg({{Op::Goto, ArithOp::Add, 0, 0, 0, 0, 0, 7}, halt});
  EXPECT_THROW(compute_last_use(p), MachineError);

  // A stale annotation is no error: annotating again refreshes it.
  p = one_reg({{Op::Enumerate, ArithOp::Add, 0, 0}, halt});
  p.last_use.assign(5, 0xff);
  annotate_last_use(p);
  EXPECT_EQ(p.last_use, (std::vector<std::uint8_t>{0, 0}));
}

TEST(LastUse, PassManagerDropsStaleAnnotation) {
  Assembler a;
  a.reserve_regs(1);
  auto v1 = a.reg(), v2 = a.reg();
  a.move(v1, 0);
  a.move(v2, v1);
  a.move(0, v2);
  a.halt();
  Program p = a.finish(1, 1);
  annotate_last_use(p);
  ASSERT_EQ(p.last_use.size(), p.code.size());
  optimize(p);  // rewrites the code: annotation must not survive stale
  EXPECT_TRUE(p.last_use.empty() || p.last_use.size() == p.code.size());
  EXPECT_NO_THROW(verify(p));
}

TEST(Verify, RejectsMismatchedLastUse) {
  Assembler a;
  auto r = a.reg();
  a.load_const(r, 7);
  a.halt();
  Program p = a.finish(0, 1);
  p.last_use.assign(1, 0);  // program has 2 instructions
  EXPECT_THROW(verify(p), MachineError);
}

TEST(Passes, ManagerReportsStats) {
  Assembler a;
  a.reserve_regs(1);
  auto v1 = a.reg(), v2 = a.reg();
  a.move(v1, 0);
  a.move(v2, v1);
  a.move(0, v2);
  a.halt();
  Program p = a.finish(1, 1);
  PipelineStats stats = optimize(p);
  EXPECT_EQ(stats.instrs_before, 4u);
  EXPECT_LT(stats.instrs_after, stats.instrs_before);
  EXPECT_GE(stats.rounds, 1u);
  ASSERT_FALSE(stats.passes.empty());
  EXPECT_FALSE(stats.show().empty());
  bool any_applied = false;
  for (const auto& ps : stats.passes) any_applied |= ps.applications > 0;
  EXPECT_TRUE(any_applied);
}

TEST(Passes, O0LeavesTheProgramAlone) {
  auto f = L::lam(N, [](L::TermRef x) { return L::add(x, L::nat(1)); });
  auto p0 = sa::compile_nsc(f, OptLevel::O0);
  auto p0_again = sa::compile_nsc(f, OptLevel::O0);
  EXPECT_EQ(p0.code.size(), p0_again.code.size());
  auto p2 = sa::compile_nsc(f, OptLevel::O2);
  EXPECT_LT(p2.code.size(), p0.code.size());
}

// ---------------------------------------------------------------------------
// differential harness: O0 vs O2 on random well-typed inputs
// ---------------------------------------------------------------------------

struct Outcome {
  bool trapped = false;
  ValueRef value;
  Cost cost;
};

Outcome run_one(const Program& p, const TypeRef& dom, const TypeRef& cod,
                const ValueRef& arg) {
  Outcome o;
  try {
    auto r = sa::run_compiled(p, dom, cod, arg);
    o.value = r.value;
    o.cost = r.cost;
  } catch (const MachineError&) {
    o.trapped = true;
  }
  return o;
}

/// Compile `f` at every opt level and check, on random inputs of the
/// domain type, that the programs agree (value or trap) and that
/// optimization never increased the executed T or W.
void differential(const L::FuncRef& f, std::uint64_t seed, int trials,
                  const RandomValueConfig& cfg = {}) {
  auto [dom, cod] = L::check_func(f);
  auto p0 = sa::compile_nsc(f, OptLevel::O0);
  auto p2 = sa::compile_nsc(f, OptLevel::O2);
  EXPECT_LE(p2.code.size(), p0.code.size());
  SplitMix64 rng(seed);
  for (int t = 0; t < trials; ++t) {
    auto arg = random_value(*dom, rng, cfg);
    auto o0 = run_one(p0, dom, cod, arg);
    auto o2 = run_one(p2, dom, cod, arg);
    ASSERT_EQ(o0.trapped, o2.trapped) << "arg=" << arg->show();
    if (o0.trapped) continue;
    EXPECT_TRUE(Value::equal(o0.value, o2.value))
        << "O2 disagrees; arg=" << arg->show() << "\nwant=" << o0.value->show()
        << "\ngot=" << o2.value->show();
    EXPECT_LE(o2.cost.time, o0.cost.time) << "arg=" << arg->show();
    EXPECT_LE(o2.cost.work, o0.cost.work) << "arg=" << arg->show();
  }
}

TEST(Differential, ScalarArithmetic) {
  differential(L::lam(N,
                      [](L::TermRef x) {
                        return L::add(L::mul(x, x),
                                      L::monus_t(L::nat(10), x));
                      }),
               11, 20);
}

TEST(Differential, CaseAndBooleans) {
  differential(L::lam(Type::prod(N, N),
                      [](L::TermRef z) {
                        return L::ite(L::leq(L::proj1(z), L::proj2(z)),
                                      L::proj2(z), L::proj1(z));
                      }),
               12, 20);
}

TEST(Differential, SumInjections) {
  differential(L::lam(N,
                      [](L::TermRef x) {
                        return L::ite(L::lt(x, L::nat(5)), L::inj1(x, NSeq),
                                      L::inj2(L::singleton(x), N));
                      }),
               13, 20);
}

TEST(Differential, FilterThenMap) {
  auto keep = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(50)); });
  auto dbl = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(2)); });
  differential(L::lam(NSeq,
                      [&](L::TermRef x) {
                        return L::apply(L::map_f(dbl),
                                        L::apply(P::filter(keep, N), x));
                      }),
               14, 20);
}

TEST(Differential, NestedMaps) {
  auto inc = L::lam(N, [](L::TermRef v) { return L::mul(v, L::nat(3)); });
  differential(L::lam(Type::seq(NSeq),
                      [&](L::TermRef x) {
                        return L::apply(L::map_f(L::map_f(inc)), x);
                      }),
               15, 20);
}

TEST(Differential, SequencePrimitives) {
  differential(L::lam(NSeq,
                      [](L::TermRef x) {
                        return L::append(
                            L::enumerate(x),
                            L::flatten(L::split(
                                x, L::singleton(L::length(x)))));
                      }),
               16, 20);
}

TEST(Differential, ConstantIdentitiesInMappedBranches) {
  // A lifted ==, if, and arithmetic with the neutral constants: the
  // flattened code is full of broadcasts that the uniform algebra folds.
  auto f = L::lam(N, [](L::TermRef v) {
    return L::ite(L::eq(L::mod_t(v, L::nat(3)), L::nat(0)),
                  L::add(L::mul(v, L::nat(1)), L::nat(0)),
                  L::monus_t(L::div_t(L::mul(L::nat(1), v), L::nat(1)),
                             L::mul(v, L::nat(0))));
  });
  differential(L::lam(NSeq,
                      [&](L::TermRef x) { return L::apply(L::map_f(f), x); }),
               20, 30);
}

TEST(Differential, IndexMayTrap) {
  // Random indices are frequently out of range: both programs must trap
  // on exactly the same inputs.
  differential(P::index(N), 17, 30);
}

TEST(Differential, SumNats) { differential(P::sum_nats(), 18, 10); }

TEST(Differential, DirectMerge) { differential(P::direct_merge(), 19, 8); }

TEST(Differential, MappedWhile) {
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step =
      L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(3)); });
  differential(L::lam(NSeq,
                      [&](L::TermRef x) {
                        return L::apply(
                            L::map_f(L::lam(N,
                                            [&](L::TermRef v) {
                                              return L::apply(
                                                  L::while_f(pred, step), v);
                                            })),
                            x);
                      }),
               20, 12);
}

TEST(Differential, ZipMismatchTrapsIdentically) {
  differential(L::lam(Type::prod(NSeq, NSeq),
                      [](L::TermRef z) {
                        return L::zip(L::proj1(z), L::proj2(z));
                      }),
               21, 30);
}

TEST(Differential, WhileWithInvariantComponent) {
  // while i < bound: (bound, i+1) -- the bound component passes through
  // the step untouched, so after copy propagation it is loop-invariant
  // and the predicate's masks over it are LICM fodder.  The usual
  // contract must hold: identical outputs, non-increasing executed T/W.
  const TypeRef PT = Type::prod(N, N);
  auto pred =
      L::lam(PT, [](L::TermRef s) { return L::lt(L::proj2(s), L::proj1(s)); });
  auto step = L::lam(PT, [](L::TermRef s) {
    return L::pair(L::proj1(s), L::add(L::proj2(s), L::nat(1)));
  });
  differential(L::lam(PT,
                      [&](L::TermRef s) {
                        return L::apply(L::while_f(pred, step), s);
                      }),
               22, 10);
}

// ---------------------------------------------------------------------------
// hoisting regressions on compiled whiles
// ---------------------------------------------------------------------------

TEST(Regression, OnesLikeMaskHoistedOutOfCompiledStagedWhile) {
  // while not(bound == i): (bound, i+1), compiled under the staged
  // schedule.  The predicate's eq_bits derives ones_like(bound) -- a
  // LoadConst + Length + bm-route broadcast -- from the invariant bound
  // component every iteration; after the loop-aware pipeline the mask
  // must execute a constant number of times, independent of the
  // iteration count.
  const TypeRef PT = Type::prod(N, N);
  auto pred = L::lam(
      PT, [](L::TermRef s) { return L::neq(L::proj1(s), L::proj2(s)); });
  auto step = L::lam(PT, [](L::TermRef s) {
    return L::pair(L::proj1(s), L::add(L::proj2(s), L::nat(1)));
  });
  auto f = L::lam(PT, [&](L::TermRef s) {
    return L::apply(L::while_f(pred, step), s);
  });
  auto [dom, cod] = L::check_func(f);
  auto p0 = sa::compile_nsc(f, OptLevel::O0, WhileSchedule::staged({1, 2}));
  auto p2 = sa::compile_nsc(f, OptLevel::O2, WhileSchedule::staged({1, 2}));

  bvram::RunConfig cfg;
  cfg.record_trace = true;
  auto run_k = [&](const Program& p, std::uint64_t k) {
    auto inputs = sa::encode_value(
        Value::pair(Value::nat(k), Value::nat(0)), dom);
    return bvram::run(p, inputs, cfg);
  };
  const auto o0_3 = run_k(p0, 3), o0_7 = run_k(p0, 7);
  const auto o2_3 = run_k(p2, 3), o2_7 = run_k(p2, 7);
  EXPECT_EQ(o2_3.outputs, o0_3.outputs);
  EXPECT_EQ(o2_7.outputs, o0_7.outputs);
  // Naive emission re-derives the mask per iteration...
  EXPECT_GT(executed_ops(o0_7, Op::BmRoute), executed_ops(o0_3, Op::BmRoute));
  // ...the optimized program does not: every route left in the loop body
  // was hoisted, so the executed count is iteration-independent.
  EXPECT_EQ(executed_ops(o2_7, Op::BmRoute), executed_ops(o2_3, Op::BmRoute));
  EXPECT_LT(executed_ops(o2_7, Op::BmRoute), executed_ops(o0_7, Op::BmRoute));
}

TEST(Regression, MappedStagedWhileHoistsPredicateConstants) {
  // map(while 0 < v: v - 1) under the staged schedule: the rotated
  // buffered-while loop makes the predicate block the loop header, so
  // its per-iteration LoadConsts hoist.  The per-iteration LoadConst
  // cost at O2 must be strictly below O0's.
  auto pred = L::lam(N, [](L::TermRef v) { return L::lt(L::nat(0), v); });
  auto step =
      L::lam(N, [](L::TermRef v) { return L::monus_t(v, L::nat(1)); });
  auto f = L::lam(NSeq, [&](L::TermRef x) {
    return L::apply(L::map_f(L::lam(N,
                                    [&](L::TermRef v) {
                                      return L::apply(
                                          L::while_f(pred, step), v);
                                    })),
                    x);
  });
  auto [dom, cod] = L::check_func(f);
  auto p0 = sa::compile_nsc(f, OptLevel::O0, WhileSchedule::staged({1, 2}));
  auto p2 = sa::compile_nsc(f, OptLevel::O2, WhileSchedule::staged({1, 2}));

  bvram::RunConfig cfg;
  cfg.record_trace = true;
  auto run_k = [&](const Program& p, std::uint64_t k) {
    auto inputs = sa::encode_value(Value::nat_seq({k}), dom);
    return bvram::run(p, inputs, cfg);
  };
  // One element finishing after k steps: k extra iterations between the
  // two runs isolate the per-iteration cost.
  const auto o0_3 = run_k(p0, 3), o0_9 = run_k(p0, 9);
  const auto o2_3 = run_k(p2, 3), o2_9 = run_k(p2, 9);
  EXPECT_EQ(o2_3.outputs, o0_3.outputs);
  EXPECT_EQ(o2_9.outputs, o0_9.outputs);
  const std::size_t per_iter_o0 =
      executed_ops(o0_9, Op::LoadConst) - executed_ops(o0_3, Op::LoadConst);
  const std::size_t per_iter_o2 =
      executed_ops(o2_9, Op::LoadConst) - executed_ops(o2_3, Op::LoadConst);
  EXPECT_LT(per_iter_o2, per_iter_o0);
}

// ---------------------------------------------------------------------------
// acceptance: static instruction-count reduction on the example programs
// ---------------------------------------------------------------------------

double reduction(const L::FuncRef& f) {
  auto p0 = sa::compile_nsc(f, OptLevel::O0);
  auto p2 = sa::compile_nsc(f, OptLevel::O2);
  return 1.0 - static_cast<double>(p2.code.size()) /
                   static_cast<double>(p0.code.size());
}

TEST(Reduction, QuickstartPipelineAtLeast20Percent) {
  // examples/quickstart.cpp's program.
  auto small = L::lam(N, [](L::TermRef v) { return L::lt(v, L::nat(10)); });
  auto square = L::lam(N, [](L::TermRef v) { return L::mul(v, v); });
  auto f = L::lam(NSeq, [&](L::TermRef xs) {
    L::TermRef kept = L::apply(P::filter(small, N), xs);
    return L::let_in(NSeq, kept, [&](L::TermRef k) {
      return L::zip(L::enumerate(k), L::apply(L::map_f(square), k));
    });
  });
  EXPECT_GE(reduction(f), 0.20);
}

TEST(Reduction, DivideConquerAtLeast20Percent) {
  // examples/divide_conquer.cpp's Theorem 4.2 translation.
  auto p = L::lam(NSeq, [](L::TermRef c) {
    return L::leq(L::length(c), L::nat(1));
  });
  auto s = L::lam(NSeq, [](L::TermRef c) {
    return L::ite(L::eq(L::length(c), L::nat(0)), L::nat(0), L::get(c));
  });
  auto halve = [&](bool second) {
    return L::lam(NSeq, [&, second](L::TermRef c) {
      return L::let_in(N, L::length(c), [&](L::TermRef n) {
        L::TermRef half = L::div_t(n, L::nat(2));
        L::TermRef sizes = L::append(L::singleton(L::monus_t(n, half)),
                                     L::singleton(half));
        auto blocks = L::split(c, sizes);
        return second ? L::apply(P::last(NSeq), blocks)
                      : L::apply(P::first(NSeq), blocks);
      });
    });
  };
  auto c2 = L::lam(Type::prod(N, N), [](L::TermRef q) {
    return L::add(L::proj1(q), L::proj2(q));
  });
  auto g = L::schema_g(NSeq, N, p, s, halve(false), halve(true), c2);
  EXPECT_GE(reduction(L::translate_maprec(g)), 0.20);
}

}  // namespace
}  // namespace nsc::opt
