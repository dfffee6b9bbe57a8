// Corpus differential execution: every tests/corpus/*.nsc program is
// parsed, resolved, evaluated with the NSC evaluator (Definition 3.1
// semantics) on every `input` declaration, and compiled + executed on the
// BVRAM at every OptLevel x WhileSchedule -- O0/O1/O2 x naive/eager/
// staged(1/2) -- with bit-for-bit agreement required on values and on
// traps (the Omega programs must trap identically everywhere).  This is
// the acceptance gate that turns "find a workload" into "add a .nsc
// file": anything dropped into tests/corpus/ is automatically held to
// the full pipeline contract.
//
// A second gate pins the emitted code itself: an FNV-1a-64 digest of
// every corpus program's O2 compile (disassembly, last-use masks and
// fusion plan), unit and lifted, under every WhileSchedule.  An
// optimizer change that is meant to be output-neutral must leave the
// table alone; one that is not must say which digests it moves.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "front/front.hpp"
#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "object/value.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "support/error.hpp"
#include "corpus_files.hpp"

namespace nsc {
namespace {

namespace F = nsc::front;
namespace L = nsc::lang;

using nsc::testing::corpus_files;
using nsc::testing::kSchedules;

struct Outcome {
  bool trapped = false;
  ValueRef value;
};

Outcome eval_outcome(const L::FuncRef& f, const ValueRef& arg) {
  Outcome o;
  try {
    o.value = L::apply_fn(f, arg).value;
  } catch (const Error&) {
    o.trapped = true;
  }
  return o;
}

Outcome compiled_outcome(const bvram::Program& p, const TypeRef& dom,
                         const TypeRef& cod, const ValueRef& arg) {
  Outcome o;
  try {
    o.value = sa::run_compiled(p, dom, cod, arg).value;
  } catch (const Error&) {
    o.trapped = true;
  }
  return o;
}

TEST(Corpus, MeetsTheAcceptanceFloor) {
  const auto files = corpus_files();
  EXPECT_GE(files.size(), 10u);
  std::size_t inputs = 0, traps = 0;
  for (const auto& path : files) {
    const F::SourceFile src = F::load_file(path);
    const F::ResolvedModule mod = F::compile_file(src);
    const F::ResolvedFn& main_fn = mod.main();
    EXPECT_GE(mod.inputs.size(), 2u) << path << ": too few inputs";
    inputs += mod.inputs.size();
    for (const auto& in : mod.inputs) {
      try {
        const auto r = L::eval(in.term);
        if (eval_outcome(main_fn.fn, r.value).trapped) ++traps;
      } catch (const Error&) {
        ++traps;
      }
    }
  }
  EXPECT_GE(inputs, 30u);
  EXPECT_GE(traps, 1u) << "the corpus should include trapping runs";
}

TEST(Corpus, DifferentialAcrossOptLevelsAndSchedules) {
  const opt::OptLevel levels[] = {opt::OptLevel::O0, opt::OptLevel::O1,
                                  opt::OptLevel::O2};
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 10u);
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const F::SourceFile src = F::load_file(path);
    const F::ResolvedModule mod = F::compile_file(src);
    const F::ResolvedFn& main_fn = mod.main();
    ASSERT_FALSE(mod.inputs.empty()) << path << " has no input declarations";
    std::vector<ValueRef> args;
    for (const auto& in : mod.inputs) args.push_back(L::eval(in.term).value);
    std::vector<Outcome> expected;
    for (const auto& a : args) expected.push_back(eval_outcome(main_fn.fn, a));
    for (const auto level : levels) {
      for (const auto& s : kSchedules) {
        SCOPED_TRACE(std::string("opt ") + std::to_string(int(level)) +
                     " sched " + s.name);
        bvram::Program program;
        ASSERT_NO_THROW(program = sa::compile_nsc(main_fn.fn, level, s.sched));
        for (std::size_t i = 0; i < args.size(); ++i) {
          SCOPED_TRACE("input " + std::to_string(i));
          const Outcome got = compiled_outcome(program, main_fn.dom,
                                               main_fn.cod, args[i]);
          ASSERT_EQ(expected[i].trapped, got.trapped);
          if (!expected[i].trapped) {
            EXPECT_TRUE(Value::equal(expected[i].value, got.value))
                << "eval: " << expected[i].value->show()
                << "\ncompiled: " << got.value->show();
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// emitted-code digests
// ---------------------------------------------------------------------------

/// FNV-1a over bytes; integers are fed little-endian, one byte at a time,
/// so the digest does not depend on the host's layout or compiler.
struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

std::uint64_t program_digest(const bvram::Program& p) {
  Fnv1a64 f;
  f.str(p.disassemble());
  f.u64(p.last_use.size());
  for (std::uint8_t m : p.last_use) f.byte(m);
  f.u64(p.fusion.size());
  for (const bvram::FusedGroup& g : p.fusion) {
    f.u64(g.begin);
    f.u64(g.end);
    f.u64(g.inputs.size());
    for (std::uint32_t r : g.inputs) f.u64(r);
    f.u64(g.binds.size());
    for (const auto& b : g.binds) {
      f.byte(b.from_def ? 1 : 0);
      f.u64(b.index);
    }
    f.u64(g.bind_base.size());
    for (std::uint32_t k : g.bind_base) f.u64(k);
    f.u64(g.commit.size());
    for (std::int32_t c : g.commit) f.u64(static_cast<std::uint32_t>(c));
    f.byte(g.serial_only ? 1 : 0);
    f.byte(g.has_select ? 1 : 0);
  }
  return f.h;
}

struct PinnedDigest {
  const char* program;  ///< corpus file stem
  bool lifted;          ///< `map main` instead of `main`
  const char* sched;
  std::uint64_t digest;
};

// O2 compiles of tests/corpus/*.nsc.  Regenerate a row from the failure
// message, which prints it ready to paste.
constexpr PinnedDigest kPinned[] = {
    {"countdown", false, "naive", 0xc69adb37486eadefull},
    {"countdown", false, "eager", 0xcdd218127c7cd477ull},
    {"countdown", false, "staged", 0xc53d1d93894ee788ull},
    {"countdown", true, "naive", 0x6d14714e576de21aull},
    {"countdown", true, "eager", 0x7d405dfca7e2b049ull},
    {"countdown", true, "staged", 0x2ea03380dcc08adfull},
    {"divide_conquer", false, "naive", 0xfb9bbfdad945660full},
    {"divide_conquer", false, "eager", 0xfb9bbfdad945660full},
    {"divide_conquer", false, "staged", 0xfb9bbfdad945660full},
    {"divide_conquer", true, "naive", 0xdeed9350fe0e305dull},
    {"divide_conquer", true, "eager", 0xfa1cf7c479f00f0full},
    {"divide_conquer", true, "staged", 0x32cf5fda97344af7ull},
    {"histogram", false, "naive", 0x4c0360baf4b3d9ecull},
    {"histogram", false, "eager", 0x4c0360baf4b3d9ecull},
    {"histogram", false, "staged", 0x4c0360baf4b3d9ecull},
    {"histogram", true, "naive", 0x6872cb7956ea1779ull},
    {"histogram", true, "eager", 0x6872cb7956ea1779ull},
    {"histogram", true, "staged", 0x6872cb7956ea1779ull},
    {"merge_sorted", false, "naive", 0xf485a30eed09776dull},
    {"merge_sorted", false, "eager", 0xf485a30eed09776dull},
    {"merge_sorted", false, "staged", 0xf485a30eed09776dull},
    {"merge_sorted", true, "naive", 0x2263b9fa4cd2265aull},
    {"merge_sorted", true, "eager", 0x2263b9fa4cd2265aull},
    {"merge_sorted", true, "staged", 0x2263b9fa4cd2265aull},
    {"nested_join", false, "naive", 0x70baf55e405892f3ull},
    {"nested_join", false, "eager", 0x70baf55e405892f3ull},
    {"nested_join", false, "staged", 0x70baf55e405892f3ull},
    {"nested_join", true, "naive", 0xacb95082b3f57e6eull},
    {"nested_join", true, "eager", 0xacb95082b3f57e6eull},
    {"nested_join", true, "staged", 0xacb95082b3f57e6eull},
    {"nested_query", false, "naive", 0x44123929975aa1e0ull},
    {"nested_query", false, "eager", 0x5283ef12a2eff7ebull},
    {"nested_query", false, "staged", 0xe35c092bba9e63d2ull},
    {"nested_query", true, "naive", 0x9906d509bc6d886eull},
    {"nested_query", true, "eager", 0xbe39b6d67b4b4b48ull},
    {"nested_query", true, "staged", 0xee9fd277a2136c5full},
    {"quickstart", false, "naive", 0xd9641b236f017957ull},
    {"quickstart", false, "eager", 0xd9641b236f017957ull},
    {"quickstart", false, "staged", 0xd9641b236f017957ull},
    {"quickstart", true, "naive", 0x82d5025f46d4d3d7ull},
    {"quickstart", true, "eager", 0x82d5025f46d4d3d7ull},
    {"quickstart", true, "staged", 0x82d5025f46d4d3d7ull},
    {"segmented_filter_reduce", false, "naive", 0xb91a89172756d35dull},
    {"segmented_filter_reduce", false, "eager", 0xa9e3516e4c33152eull},
    {"segmented_filter_reduce", false, "staged", 0x5f41f022b3dbc6ddull},
    {"segmented_filter_reduce", true, "naive", 0xc6cf68dd6b462144ull},
    {"segmented_filter_reduce", true, "eager", 0x3a34c395f471645dull},
    {"segmented_filter_reduce", true, "staged", 0x10b0a91aa84d9dacull},
    {"sqrt_blocks", false, "naive", 0xc581b5580e933716ull},
    {"sqrt_blocks", false, "eager", 0x4a818a0183a7fd98ull},
    {"sqrt_blocks", false, "staged", 0x2bd420ee875d48a8ull},
    {"sqrt_blocks", true, "naive", 0x41bafd2b53e99422ull},
    {"sqrt_blocks", true, "eager", 0x369ea6057c073409ull},
    {"sqrt_blocks", true, "staged", 0xe92ce614d56c8e0cull},
    {"stragglers", false, "naive", 0xcbd159c5220a2c08ull},
    {"stragglers", false, "eager", 0xa40f553d7d5cb812ull},
    {"stragglers", false, "staged", 0x462ef81093815d65ull},
    {"stragglers", true, "naive", 0x0155f0845cbce287ull},
    {"stragglers", true, "eager", 0x95418384115ee4afull},
    {"stragglers", true, "staged", 0xa3cedb62627f5b3aull},
    {"tokenizer", false, "naive", 0xb96b21d40a6f1473ull},
    {"tokenizer", false, "eager", 0x58cb5b5a89587f38ull},
    {"tokenizer", false, "staged", 0x4ef2641fa37e9e21ull},
    {"tokenizer", true, "naive", 0xdd3dfd94df2f0c47ull},
    {"tokenizer", true, "eager", 0x0c40bffad5a4e202ull},
    {"tokenizer", true, "staged", 0xb88cf4ea52bedadbull},
    {"trap_division", false, "naive", 0x0c949e1c459cd133ull},
    {"trap_division", false, "eager", 0x4ee58e9dc824c046ull},
    {"trap_division", false, "staged", 0x197e64603a65b26dull},
    {"trap_division", true, "naive", 0xb62f25e64416c926ull},
    {"trap_division", true, "eager", 0x5e6f1682e1a334b8ull},
    {"trap_division", true, "staged", 0xee28e929137c0dd1ull},
};

TEST(Corpus, EmittedCodeDigestsArePinned) {
  std::size_t checked = 0;
  for (const auto& path : corpus_files()) {
    const std::string stem = std::filesystem::path(path).stem().string();
    const F::SourceFile src = F::load_file(path);
    const F::ResolvedModule mod = F::compile_file(src);
    const L::FuncRef& fn = mod.main().fn;
    for (const bool lifted : {false, true}) {
      for (const auto& s : kSchedules) {
        const bvram::Program p = sa::compile_nsc(
            lifted ? L::map_f(fn) : fn, opt::OptLevel::O2, s.sched);
        const std::uint64_t got = program_digest(p);
        char row[160];
        std::snprintf(row, sizeof row,
                      "{\"%s\", %s, \"%s\", 0x%016" PRIx64 "ull},",
                      stem.c_str(), lifted ? "true" : "false", s.name, got);
        const PinnedDigest* pin = nullptr;
        for (const PinnedDigest& d : kPinned) {
          if (stem == d.program && lifted == d.lifted &&
              std::string(s.name) == d.sched) {
            pin = &d;
          }
        }
        if (pin == nullptr) {
          ADD_FAILURE() << "no pinned digest; add the row\n" << row;
          continue;
        }
        ++checked;
        EXPECT_EQ(pin->digest, got) << "emitted code changed; new row\n"
                                    << row;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinned)) << "a pinned program is gone";
}

}  // namespace
}  // namespace nsc
