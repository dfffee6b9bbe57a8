// Tests for the BVRAM machine (section 2): every instruction, the cost
// accounting (T = instruction count, W = register lengths touched),
// control flow, error states, and small hand-written programs.
#include <gtest/gtest.h>

#include "bvram/machine.hpp"
#include "support/error.hpp"

namespace nsc::bvram {
namespace {

using Vec = std::vector<std::uint64_t>;

TEST(Bvram, MoveAndConst) {
  Assembler a;
  auto r0 = a.reg();
  auto r1 = a.reg();
  a.load_const(r0, 42);
  a.move(r1, r0);
  a.halt();
  auto p = a.finish(0, 2);
  auto r = run(p, {});
  EXPECT_EQ(r.outputs[0], Vec{42});
  EXPECT_EQ(r.outputs[1], Vec{42});
  EXPECT_EQ(r.cost.time, 3u);
}

TEST(Bvram, ArithElementwise) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto z = a.reg();
  a.arith(z, ArithOp::Add, x, y);
  a.halt();
  auto p = a.finish(2, 3);
  auto r = run(p, {{1, 2, 3}, {10, 20, 30}});
  EXPECT_EQ(r.outputs[2], (Vec{11, 22, 33}));
}

TEST(Bvram, ArithMonusAndLog) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto d = a.reg();
  auto l = a.reg();
  a.arith(d, ArithOp::Monus, x, y);
  a.arith(l, ArithOp::Log2, x, y);
  a.halt();
  auto p = a.finish(2, 4);
  auto r = run(p, {{5, 2, 1024}, {9, 1, 7}});
  EXPECT_EQ(r.outputs[2], (Vec{0, 1, 1017}));
  EXPECT_EQ(r.outputs[3], (Vec{2, 1, 10}));
}

TEST(Bvram, ArithLengthMismatchFails) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.arith(x, ArithOp::Add, x, y);
  a.halt();
  auto p = a.finish(2, 1);
  EXPECT_THROW(run(p, {{1, 2}, {1}}), MachineError);
}

TEST(Bvram, AppendLengthEnumerate) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  auto cat = a.reg();
  auto len = a.reg();
  auto idx = a.reg();
  a.append(cat, x, y);
  a.length(len, cat);
  a.enumerate(idx, cat);
  a.halt();
  auto p = a.finish(2, 5);
  auto r = run(p, {{7, 8}, {9}});
  EXPECT_EQ(r.outputs[2], (Vec{7, 8, 9}));
  EXPECT_EQ(r.outputs[3], Vec{3});
  EXPECT_EQ(r.outputs[4], (Vec{0, 1, 2}));
}

TEST(Bvram, BmRoutePaperExample) {
  // V_j = [x0,x1,z0,z1,z2] (bound), V_k = [2,0,3], V_l = [a,b,c]
  // -> [a,a,c,c,c]  (section 2)
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto out = a.reg();
  a.bm_route(out, bound, counts, data);
  a.halt();
  auto p = a.finish(3, 4);
  auto r = run(p, {{1, 1, 1, 1, 1}, {2, 0, 3}, {100, 101, 102}});
  EXPECT_EQ(r.outputs[3], (Vec{100, 100, 102, 102, 102}));
}

TEST(Bvram, BmRouteBoundViolation) {
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  a.bm_route(bound, bound, counts, data);
  a.halt();
  auto p = a.finish(3, 1);
  EXPECT_THROW(run(p, {{1, 1}, {2, 0, 3}, {100, 101, 102}}), MachineError);
  EXPECT_THROW(run(p, {{1, 1, 1, 1, 1}, {2, 0}, {100, 101, 102}}),
               MachineError);
}

TEST(Bvram, SbmRoutePaperExample) {
  // V_l = [a0,a1,b0,b1,b2,c0,c1,c2], V_m = [2,3,3], counts [2,0,3]:
  // a-block twice, b-block dropped, c-block three times (section 2).
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto segs = a.reg();
  auto out = a.reg();
  a.sbm_route(out, bound, counts, data, segs);
  a.halt();
  auto p = a.finish(4, 5);
  auto r = run(p, {{0, 0, 0, 0, 0},
                   {2, 0, 3},
                   {10, 11, 20, 21, 22, 30, 31, 32},
                   {2, 3, 3}});
  EXPECT_EQ(r.outputs[4],
            (Vec{10, 11, 10, 11, 30, 31, 32, 30, 31, 32, 30, 31, 32}));
}

TEST(Bvram, SbmRouteCartesianCase) {
  // counts and segs of length 1: the cartesian-product special case.
  Assembler a;
  auto bound = a.reg();
  auto counts = a.reg();
  auto data = a.reg();
  auto segs = a.reg();
  auto out = a.reg();
  a.sbm_route(out, bound, counts, data, segs);
  a.halt();
  auto p = a.finish(4, 5);
  auto r = run(p, {{0, 0, 0}, {3}, {5, 6}, {2}});
  EXPECT_EQ(r.outputs[4], (Vec{5, 6, 5, 6, 5, 6}));
}

TEST(Bvram, SelectPaperExample) {
  // sigma([3,0,1,0,0,4]) = [3,1,4]  (section 2)
  Assembler a;
  auto x = a.reg();
  auto out = a.reg();
  a.select(out, x);
  a.halt();
  auto p = a.finish(1, 2);
  auto r = run(p, {{3, 0, 1, 0, 0, 4}});
  EXPECT_EQ(r.outputs[1], (Vec{3, 1, 4}));
}

TEST(Bvram, ScanPlusExclusive) {
  Assembler a;
  auto x = a.reg();
  auto out = a.reg();
  a.scan_plus(out, x);
  a.halt();
  auto p = a.finish(1, 2);
  auto r = run(p, {{3, 1, 4, 1, 5}});
  EXPECT_EQ(r.outputs[1], (Vec{0, 3, 4, 8, 9}));
  EXPECT_EQ(run(p, {{}}).outputs[1], Vec{});
}

TEST(Bvram, LoopCountdown) {
  // V1 counts down from [n] to []; V0 accumulates a running product of 2s.
  Assembler a;
  auto acc = a.reg();
  auto n = a.reg();
  auto one = a.reg();
  auto two = a.reg();
  a.load_const(acc, 1);
  a.load_const(one, 1);
  a.load_const(two, 2);
  auto top = a.fresh_label();
  auto done = a.fresh_label();
  a.bind(top);
  // if n == [0]-selected-empty: we encode "n reaches 0" by selecting
  // the nonzeros of n: when n = [0], select gives [].
  auto nz = a.reg();
  a.select(nz, n);
  a.jump_if_empty(nz, done);
  a.arith(acc, ArithOp::Mul, acc, two);
  a.arith(n, ArithOp::Monus, n, one);
  a.jump(top);
  a.bind(done);
  a.halt();
  auto p = a.finish(2, 1);  // inputs: acc(ignored), n
  auto r = run(p, {{}, {6}});
  EXPECT_EQ(r.outputs[0], Vec{64});
  // T counts every executed instruction: 3 loads + 6*(4) + final 3-ish.
  EXPECT_GT(r.cost.time, 24u);
}

TEST(Bvram, InfiniteLoopHitsFuel) {
  Assembler a;
  auto top = a.fresh_label();
  a.bind(top);
  a.jump(top);
  auto p = a.finish(0, 0);
  RunConfig cfg;
  cfg.max_instructions = 1000;
  EXPECT_THROW(run(p, {}, cfg), FuelExhausted);
}

TEST(Bvram, WorkChargesRegisterLengths) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.append(y, x, x);
  a.halt();
  auto p = a.finish(1, 2);
  auto small = run(p, {Vec(10, 1)});
  auto large = run(p, {Vec(1000, 1)});
  EXPECT_EQ(small.cost.time, large.cost.time);
  // append charges |in|+|in|+|out| = 4n, plus halt's 1.
  EXPECT_EQ(small.cost.work, 41u);
  EXPECT_EQ(large.cost.work, 4001u);
}

TEST(Bvram, TraceRecordsPerInstructionWork) {
  Assembler a;
  auto x = a.reg();
  auto y = a.reg();
  a.append(y, x, x);
  a.scan_plus(y, y);
  a.halt();
  auto p = a.finish(1, 0);
  RunConfig cfg;
  cfg.record_trace = true;
  auto r = run(p, {Vec(8, 2)}, cfg);
  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[0].op, Op::Append);
  EXPECT_EQ(r.trace[0].work, 32u);
  EXPECT_EQ(r.trace[1].op, Op::ScanPlus);
  EXPECT_EQ(r.trace[1].work, 32u);
}

TEST(Bvram, UnboundLabelRejected) {
  Assembler a;
  auto l = a.fresh_label();
  a.jump(l);
  EXPECT_THROW(a.finish(0, 0), MachineError);
}

TEST(Bvram, BadRegisterRejected) {
  Assembler a;
  a.move(5, 6);
  a.halt();
  auto p = a.finish(0, 0);
  EXPECT_THROW(run(p, {}), MachineError);
}

TEST(Bvram, Disassembles) {
  Assembler a;
  auto x = a.reg();
  a.load_const(x, 7);
  a.scan_plus(x, x);
  a.halt();
  auto p = a.finish(0, 1);
  const std::string d = p.disassemble();
  EXPECT_NE(d.find("V0 <- [7]"), std::string::npos);
  EXPECT_NE(d.find("scan+"), std::string::npos);
  EXPECT_NE(d.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace nsc::bvram
