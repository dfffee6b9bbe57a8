// Unit tests for the support library: checked arithmetic, epsilon helpers,
// PRNG determinism, the table printer, the JSON string escaper against
// the JSON reader, and the reader's nesting bound.  The Cli case drives
// the nscc binary: values that would switch off a CI gate (a nan
// percentage, a baseline nested past the reader's bound or missing a key
// the comparison reads) exit 2, and `nscc serve` answers a run that runs
// out of memory as an error instead of aborting.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/cost.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

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

/// Runs the nscc binary with `args` (already shell-quoted), after the
/// shell commands `before` (say, a ulimit); returns its exit status and
/// sets `err` to what it wrote to stderr and `out`, when given, to what it
/// wrote to stdout.
int run_nscc(const std::string& args, std::string& err,
             std::string* out = nullptr, const std::string& before = "") {
  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("nscc-test-support-" + std::to_string(::getpid())))
          .string();
  const std::string cmd = before + "'" + NSCC_CLI + "' " + args + " > '" +
                          stem + ".out' 2> '" + stem + ".err'";
  const int raw = std::system(cmd.c_str());
  const auto slurp = [](const std::string& path) {
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    std::filesystem::remove(path);
    return text.str();
  };
  err = slurp(stem + ".err");
  const std::string printed = slurp(stem + ".out");
  if (out != nullptr) *out = printed;
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(Cli, GateDisablingValuesExit2) {
  const std::string repo = NSCC_REPO_DIR;
  const std::string file = "'" + repo + "/tests/corpus/quickstart.nsc'";
  const std::string baseline =
      "'" + repo + "/bench/baseline/quickstart.json'";
  const auto scratch = [](const std::string& name, const std::string& text) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("nscc-test-support-" + std::to_string(::getpid()) + "-" + name);
    std::ofstream(path) << text;
    return path;
  };
  // Well-formed JSON the comparison cannot read is a bad argument (2),
  // not a regression (1) or a baseline that compares nothing (0).
  const std::filesystem::path files[] = {
      scratch("deep.json", std::string(100000, '[')),
      scratch("empty.json", "{}"),
      scratch("negative.json",
              "{\"configs\": [{\"opt\": \"O0\", \"sched\": \"naive\", "
              "\"static_instrs\": -1, \"runs\": []}]}"),
      scratch("no-configs.json", "{\"configs\": []}"),
  };
  const auto compare = [&](const std::filesystem::path& path) {
    return "bench " + file + " --compare '" + path.string() + "'";
  };
  const struct {
    std::string args;
    const char* diagnostic;
  } cases[] = {
      {compare(files[0]), "nesting deeper than"},
      {compare(files[1]), "--compare: json: missing key 'configs'"},
      {compare(files[2]), "--compare: json: '-1' is not an unsigned integer"},
      {compare(files[3]), "--compare: json: 'configs' is empty"},
      // Retired: any growth fails --compare, so there is no tolerance.
      {"bench " + file + " --compare " + baseline + " --tolerance 0",
       "unknown option '--tolerance'"},
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
  for (const auto& path : files) std::filesystem::remove(path);
  // The same baseline still passes.
  std::string err;
  EXPECT_EQ(run_nscc("bench " + file + " --compare " + baseline, err), 0)
      << err;
}

TEST(Cli, UnwritableOutputExits2BeforeAnyWork) {
  // Every output file is opened before the work that fills it, so an
  // unwritable path fails before a request is served, a profile table is
  // printed or a bench config runs.
  const std::string file =
      "'" + std::string(NSCC_REPO_DIR) + "/tests/corpus/quickstart.nsc'";
  const std::pair<const char*, const char*> cases[] = {
      {"serve", "--metrics"},
      {"serve", "--trace"},
      {"profile", "--chrome"},
      {"bench", "--json"},
  };
  for (const auto& [command, flag] : cases) {
    const std::string args = std::string(command) + " " + file + " " + flag +
                             " /nonexistent-dir/x.out";
    std::string err, out;
    EXPECT_EQ(run_nscc(args, err, &out), 2) << args << "\n" << err;
    EXPECT_NE(err.find("cannot write /nonexistent-dir/x.out"),
              std::string::npos)
        << args << "\n" << err;
    EXPECT_EQ(out, "") << args;
  }
}

// gcc names the ASan and TSan builds with macros, clang with features.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NSCC_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NSCC_SHADOW_MEMORY 1
#endif
#endif

TEST(Cli, ServeAnswersARunOutOfMemoryAsAnError) {
#ifdef NSCC_SHADOW_MEMORY
  GTEST_SKIP() << "the sanitizer's shadow memory needs the address space "
                  "ulimit -v takes away";
#endif
  // Doubling [1] toward 4e9 elements outgrows a 1.5 GB address space; the
  // request fails alone and its neighbour, batched with it or not, is
  // still answered.
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      ("nscc-test-support-" + std::to_string(::getpid()) + "-grow.nsc");
  std::ofstream(file) << "fn main(x : nat * [nat]) : [nat] =\n"
                         "  while s = snd(x); length(s) < fst(x); s ++ s\n"
                         "input (8, [1])\n";
  for (const char* batching : {"", " --max-batch 1"}) {
    const std::string args = "serve '" + file.string() +
                             "' --workers 1 --input '(4000000000, [1])'" +
                             batching;
    std::string err, out;
    EXPECT_EQ(run_nscc(args, err, &out, "ulimit -v 1500000; "), 1)
        << args << "\n" << err;
    EXPECT_NE(out.find("request 0: [1, 1, 1, 1, 1, 1, 1, 1]"),
              std::string::npos)
        << args << "\n" << out;
    EXPECT_NE(out.find("request 1: error (out of memory: "),
              std::string::npos)
        << args << "\n" << out;
  }
  std::filesystem::remove(file);
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
