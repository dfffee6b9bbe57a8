// Unit tests for the support library: checked arithmetic, epsilon helpers,
// PRNG determinism, parallel_for, the table printer, the JSON string
// escaper against the JSON reader, and the reader's nesting bound.  The
// Cli case drives the nscc binary: values that would switch off a CI gate
// (a nan tolerance, a baseline nested past the reader's bound) exit 2.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/cost.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "pin_workers.hpp"

namespace nsc {
namespace {

TEST(Checked, SatAddSaturates) {
  EXPECT_EQ(sat_add(1, 2), 3u);
  EXPECT_EQ(sat_add(~std::uint64_t{0}, 1), ~std::uint64_t{0});
  EXPECT_EQ(sat_add(~std::uint64_t{0} - 1, 5), ~std::uint64_t{0});
}

TEST(Checked, SatMulSaturates) {
  EXPECT_EQ(sat_mul(3, 4), 12u);
  EXPECT_EQ(sat_mul(0, ~std::uint64_t{0}), 0u);
  EXPECT_EQ(sat_mul(std::uint64_t{1} << 33, std::uint64_t{1} << 33),
            ~std::uint64_t{0});
}

TEST(Checked, Monus) {
  EXPECT_EQ(monus(5, 3), 2u);
  EXPECT_EQ(monus(3, 5), 0u);
  EXPECT_EQ(monus(0, 0), 0u);
}

TEST(Checked, Ilog2) {
  EXPECT_EQ(ilog2(0), 0u);
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(1025), 10u);
}

TEST(Checked, CeilLog2AndPow2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
  EXPECT_EQ(ceil_pow2(1025), 2048u);
}

TEST(Checked, PowEpsMonotoneAndBounded) {
  const Rational half{1, 2};
  for (std::uint64_t n : {2ull, 16ull, 256ull, 65536ull}) {
    const std::uint64_t p = pow_eps(n, half);
    // 2^ceil(log2(n)/2) is within a factor 2 of sqrt(n).
    EXPECT_GE(p, isqrt(n));
    EXPECT_LE(p, 2 * isqrt(n) + 2);
  }
  EXPECT_EQ(pow_eps(0, half), 1u);
  EXPECT_EQ(pow_eps(1, half), 1u);
}

TEST(Checked, StageCount) {
  EXPECT_EQ(stage_count({1, 2}), 2u);
  EXPECT_EQ(stage_count({1, 3}), 3u);
  EXPECT_EQ(stage_count({2, 3}), 2u);
  EXPECT_EQ(stage_count({1, 1}), 1u);
}

TEST(Checked, SqrtPow2IsThetaSqrt) {
  for (std::uint64_t n = 1; n < 5000; n = n * 3 + 1) {
    const std::uint64_t s = sqrt_pow2(n);
    EXPECT_GE(s * 2, isqrt(n)) << n;
    EXPECT_LE(s, 2 * isqrt(n) + 2) << n;
  }
}

TEST(Checked, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(99), 9u);
  EXPECT_EQ(isqrt(100), 10u);
}

TEST(Cost, Accumulates) {
  Cost a{2, 10};
  Cost b{3, 7};
  a += b;
  EXPECT_EQ(a.time, 5u);
  EXPECT_EQ(a.work, 17u);
  EXPECT_EQ((Cost{1, 1} + Cost{2, 2}), (Cost{3, 3}));
}

TEST(Prng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, BelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Prng, VecShape) {
  SplitMix64 rng(9);
  auto v = rng.vec(32, 5);
  EXPECT_EQ(v.size(), 32u);
  for (auto x : v) EXPECT_LT(x, 5u);
}

TEST(Parallel, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  }, 64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRange) {
  bool called = false;
  parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, WorkersAtLeastOne) { EXPECT_GE(parallel_workers(), 1u); }

TEST(Parallel, EffectiveWorkersAcceptsValidCounts) {
  std::string w;
  EXPECT_EQ(effective_workers("1", &w), 1u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(effective_workers("4", &w), 4u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(effective_workers("256", &w), 256u);
  EXPECT_TRUE(w.empty());
}

TEST(Parallel, EffectiveWorkersUnsetUsesHardware) {
  std::string w;
  EXPECT_GE(effective_workers(nullptr, &w), 1u);
  EXPECT_TRUE(w.empty()) << "unset must not warn: " << w;
}

TEST(Parallel, EffectiveWorkersRejectsGarbage) {
  for (const char* bad : {"", "abc", "8 threads", "-2", "1.5", "0x10"}) {
    std::string w;
    EXPECT_GE(effective_workers(bad, &w), 1u) << bad;
    EXPECT_NE(w.find("is not a worker count"), std::string::npos)
        << "'" << bad << "' produced: " << w;
    EXPECT_NE(w.find("NSCC_WORKERS='"), std::string::npos) << w;
  }
}

TEST(Parallel, EffectiveWorkersRejectsZero) {
  std::string w;
  EXPECT_GE(effective_workers("0", &w), 1u);
  EXPECT_NE(w.find("asks for zero workers"), std::string::npos) << w;
}

TEST(Parallel, EffectiveWorkersClampsOverlarge) {
  std::string w;
  EXPECT_EQ(effective_workers("257", &w), 256u);
  EXPECT_NE(w.find("exceeds the 256-worker cap"), std::string::npos) << w;
  // Overlong digit strings (would overflow) are treated as garbage.
  w.clear();
  EXPECT_GE(effective_workers("9999999999", &w), 1u);
  EXPECT_FALSE(w.empty());
}

TEST(Parallel, EffectiveWorkersWarningsAreOptional) {
  // nullptr warning sink must be safe on every path.
  EXPECT_GE(effective_workers("garbage", nullptr), 1u);
  EXPECT_GE(effective_workers("0", nullptr), 1u);
  EXPECT_EQ(effective_workers("2", nullptr), 2u);
}

TEST(Parallel, CountersAdvanceAcrossADispatch) {
  const ParallelCounters before = parallel_counters();
  std::atomic<int> sum{0};
  parallel_for(100000, [&](std::size_t b, std::size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  }, 64);
  const ParallelCounters after = parallel_counters();
  EXPECT_EQ(sum.load(), 100000);
  EXPECT_GT(after.calls, before.calls);
  EXPECT_GE(after.chunks, before.chunks);
  EXPECT_GE(after.serial_calls, before.serial_calls);
  EXPECT_EQ(after.per_worker_tasks.size(), parallel_workers());
  EXPECT_GE(parallel_chunk_count(), after.chunks);
}

TEST(Parallel, NoInvertedOrEmptyChunks) {
  // Regression: with step rounded up, trailing chunks used to start past n
  // (n=5, 4+ workers, grain=1 dispatched fn(6, 5) -- an inverted range).
  // Every dispatched chunk must now satisfy b < e <= n, and together the
  // chunks must partition [0, n) exactly.
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 11u, 13u, 100u, 101u}) {
    for (std::size_t grain : {1u, 2u, 3u, 4u, 7u}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<bool> bad{false};
      parallel_for(
          n,
          [&](std::size_t b, std::size_t e) {
            if (b >= e || e > n) {
              bad = true;
              return;
            }
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
          },
          grain);
      EXPECT_FALSE(bad.load()) << "n=" << n << " grain=" << grain;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  // Regression: an exception thrown inside a pool task used to escape into
  // the worker thread and std::terminate the process.  It must instead be
  // rethrown on the calling thread once all chunks have finished.
  EXPECT_THROW(
      parallel_for(
          10000,
          [&](std::size_t b, std::size_t) {
            if (b == 0) throw EvalError("division by zero");
          },
          16),
      EvalError);
  // The pool must still be usable afterwards.
  std::atomic<int> sum{0};
  parallel_for(1000, [&](std::size_t b, std::size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  }, 16);
  EXPECT_EQ(sum.load(), 1000);
}

TEST(Parallel, FirstOfManyExceptionsWins) {
  // Several chunks may throw; exactly one exception must surface and the
  // call must not deadlock or leak pending work.
  for (int round = 0; round < 8; ++round) {
    try {
      parallel_for(
          4096, [&](std::size_t, std::size_t) { throw EvalError("boom"); },
          16);
      FAIL() << "expected EvalError";
    } catch (const EvalError&) {
    }
  }
}

TEST(ChunkPlan, SerialIsOneChunk) {
  auto p = ChunkPlan::serial(100);
  EXPECT_EQ(p.chunks, 1u);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(0), 100u);
  EXPECT_EQ(ChunkPlan::serial(0).chunks, 0u);
}

TEST(ChunkPlan, MakePartitionsExactly) {
  for (std::size_t n : {0u, 1u, 5u, 100u, 4095u, 4096u, 4097u, 100000u}) {
    for (std::size_t grain : {1u, 7u, 4096u}) {
      auto p = ChunkPlan::make(n, grain);
      std::size_t covered = 0;
      for (std::size_t c = 0; c < p.chunks; ++c) {
        ASSERT_LT(p.begin(c), p.end(c));
        ASSERT_LE(p.end(c), n);
        ASSERT_EQ(p.begin(c), covered);
        covered = p.end(c);
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ParallelScan, OffsetsAreExclusivePrefix) {
  SplitMix64 rng(11);
  auto v = rng.vec(30000, 50);
  auto sum_chunk = [&](std::size_t b, std::size_t e) {
    std::uint64_t s = 0;
    for (std::size_t i = b; i < e; ++i) s += v[i];
    return s;
  };
  for (std::size_t grain : {64u, 4096u}) {
    auto plan = ChunkPlan::make(v.size(), grain);
    std::vector<std::uint64_t> offs;
    const auto total = parallel_scan(plan, sum_chunk, offs);
    ASSERT_EQ(offs.size(), plan.chunks);
    std::uint64_t running = 0;
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      EXPECT_EQ(offs[c], running);
      running += sum_chunk(plan.begin(c), plan.end(c));
    }
    EXPECT_EQ(total, running);
  }
}

TEST(ForEachChunk, RunsEveryChunkAndPropagatesExceptions) {
  // An explicit multi-chunk plan, so the pool dispatch path runs
  // regardless of how many workers this machine has.
  ChunkPlan plan;
  plan.n = 10000;
  plan.step = 2500;
  plan.chunks = 4;
  std::vector<std::atomic<int>> hits(10000);
  for_each_chunk(plan, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_THROW(
      for_each_chunk(plan,
                     [&](std::size_t c, std::size_t, std::size_t) {
                       if (c == 1) throw EvalError("boom");
                     }),
      EvalError);
}

TEST(Json, EscapeRoundTripsEveryAsciiByte) {
  // Every byte 0x00-0x7f, alone and all in one string, survives escape()
  // and the reader unchanged: a JSON writer that escapes its strings with
  // it never emits a document the reader rejects.
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    EXPECT_EQ(json::parse("\"" + json::escape(one) + "\"").as_string(), one)
        << "byte " << b;
  }
  EXPECT_EQ(json::parse("\"" + json::escape(all) + "\"").as_string(), all);
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](char open, char close, std::size_t depth) {
    return std::string(depth, open) + std::string(depth, close);
  };
  EXPECT_NO_THROW(json::parse(nested('[', ']', json::kMaxDepth)));
  std::string objects;
  for (std::size_t d = 0; d < json::kMaxDepth; ++d) objects += "{\"k\": ";
  EXPECT_NO_THROW(json::parse(objects + "1" +
                              std::string(json::kMaxDepth, '}')));
  try {
    json::parse(nested('[', ']', json::kMaxDepth + 1));
    ADD_FAILURE() << "one level past the bound parsed";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: nesting deeper than " + std::to_string(json::kMaxDepth) +
                  " at 1:" + std::to_string(json::kMaxDepth + 1));
  }
  EXPECT_THROW(json::parse("{\"k\": " + objects + "1" +
                           std::string(json::kMaxDepth + 1, '}')),
               Error);
  // Unbounded, this many levels overflowed the stack.
  EXPECT_THROW(json::parse(std::string(100000, '[')), Error);
}

/// Runs the nscc binary with `args` (already shell-quoted); returns its
/// exit status and sets `err` to what it wrote to stderr.
int run_nscc(const std::string& args, std::string& err) {
  const std::filesystem::path err_path =
      std::filesystem::temp_directory_path() /
      ("nscc-test-support-" + std::to_string(::getpid()) + ".err");
  const std::string cmd = std::string("'") + NSCC_CLI + "' " + args +
                          " > /dev/null 2> '" + err_path.string() + "'";
  const int raw = std::system(cmd.c_str());
  std::ifstream in(err_path);
  std::stringstream text;
  text << in.rdbuf();
  err = text.str();
  std::filesystem::remove(err_path);
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(Cli, GateDisablingValuesExit2) {
  const std::string repo = NSCC_REPO_DIR;
  const std::string file = "'" + repo + "/tests/corpus/quickstart.nsc'";
  const std::string baseline =
      "'" + repo + "/bench/baseline/quickstart.json'";
  const std::filesystem::path deep =
      std::filesystem::temp_directory_path() /
      ("nscc-test-support-" + std::to_string(::getpid()) + "-deep.json");
  std::ofstream(deep) << std::string(100000, '[');
  const struct {
    std::string args;
    const char* diagnostic;
  } cases[] = {
      {"bench " + file + " --compare '" + deep.string() + "'",
       "nesting deeper than"},
      {"bench " + file + " --compare " + baseline + " --tolerance nan",
       "bad --tolerance 'nan'"},
      {"bench " + file + " --compare " + baseline + " --tolerance inf",
       "bad --tolerance 'inf'"},
      {"bench " + file + " --compare " + baseline + " --tolerance 5abc",
       "bad --tolerance '5abc'"},
      {"profile " + file + " --min-attribution nan",
       "bad --min-attribution 'nan'"},
      {"profile " + file + " --min-attribution 95x",
       "bad --min-attribution '95x'"},
      {"serve " + file + " --workers 257", "--workers must be at most 256"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(run_nscc(c.args, err), 2) << c.args << "\n" << err;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos)
        << c.args << "\n" << err;
  }
  std::filesystem::remove(deep);
  // The same baseline still passes at a well-formed tolerance.
  std::string err;
  EXPECT_EQ(run_nscc("bench " + file + " --compare " + baseline +
                         " --tolerance 0.5",
                     err),
            0)
      << err;
}

TEST(Table, AlignsAndCounts) {
  Table t({"a", "bb"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(42), "42");
  EXPECT_EQ(Table::fixed(1.5, 2), "1.50");
}

}  // namespace
}  // namespace nsc
