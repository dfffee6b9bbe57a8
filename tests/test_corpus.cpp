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
// every corpus program's O2 compile (disassembly and last-use masks),
// unit and lifted, under every WhileSchedule.  An optimizer change that
// is meant to be output-neutral must leave the table alone; one that is
// not must say which digests it moves.
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
    {"countdown", false, "naive", 0xb9bdce7ae131ab11ull},
    {"countdown", false, "eager", 0x583e371bf235566eull},
    {"countdown", false, "staged", 0x15bf2e18b7d4ab26ull},
    {"countdown", true, "naive", 0x643fb57f927aa795ull},
    {"countdown", true, "eager", 0x0f787e3e1aaf92f3ull},
    {"countdown", true, "staged", 0xb4f0a0db6900dcf3ull},
    {"divide_conquer", false, "naive", 0x27a90d1899fe882aull},
    {"divide_conquer", false, "eager", 0x27a90d1899fe882aull},
    {"divide_conquer", false, "staged", 0x27a90d1899fe882aull},
    {"divide_conquer", true, "naive", 0x95fd8a683e338d6cull},
    {"divide_conquer", true, "eager", 0xb77b61a3651de28eull},
    {"divide_conquer", true, "staged", 0xc71290c18eb78e97ull},
    {"histogram", false, "naive", 0x919c869708baff03ull},
    {"histogram", false, "eager", 0x919c869708baff03ull},
    {"histogram", false, "staged", 0x919c869708baff03ull},
    {"histogram", true, "naive", 0x2b6a3b4ec29b20d7ull},
    {"histogram", true, "eager", 0x2b6a3b4ec29b20d7ull},
    {"histogram", true, "staged", 0x2b6a3b4ec29b20d7ull},
    {"merge_sorted", false, "naive", 0x7c0b22fcf7571410ull},
    {"merge_sorted", false, "eager", 0x7c0b22fcf7571410ull},
    {"merge_sorted", false, "staged", 0x7c0b22fcf7571410ull},
    {"merge_sorted", true, "naive", 0xc8161ec8b458d641ull},
    {"merge_sorted", true, "eager", 0xc8161ec8b458d641ull},
    {"merge_sorted", true, "staged", 0xc8161ec8b458d641ull},
    {"nested_join", false, "naive", 0xca48a2131f7e13d9ull},
    {"nested_join", false, "eager", 0xca48a2131f7e13d9ull},
    {"nested_join", false, "staged", 0xca48a2131f7e13d9ull},
    {"nested_join", true, "naive", 0x8bb0758eecf45c55ull},
    {"nested_join", true, "eager", 0x8bb0758eecf45c55ull},
    {"nested_join", true, "staged", 0x8bb0758eecf45c55ull},
    {"nested_query", false, "naive", 0xb75c6ff01eafac28ull},
    {"nested_query", false, "eager", 0x9e7aee4334118cceull},
    {"nested_query", false, "staged", 0x26668ba923074b8cull},
    {"nested_query", true, "naive", 0xf284c2d624b0b787ull},
    {"nested_query", true, "eager", 0x65589562cdc2ed60ull},
    {"nested_query", true, "staged", 0x557d0a5ce8cf3ce3ull},
    {"quickstart", false, "naive", 0x8c42ca78aef3ab4bull},
    {"quickstart", false, "eager", 0x8c42ca78aef3ab4bull},
    {"quickstart", false, "staged", 0x8c42ca78aef3ab4bull},
    {"quickstart", true, "naive", 0xe8c3485cbb0ad8c0ull},
    {"quickstart", true, "eager", 0xe8c3485cbb0ad8c0ull},
    {"quickstart", true, "staged", 0xe8c3485cbb0ad8c0ull},
    {"segmented_filter_reduce", false, "naive", 0x44c5bbbd13fe0a9bull},
    {"segmented_filter_reduce", false, "eager", 0x7335821ceeff3074ull},
    {"segmented_filter_reduce", false, "staged", 0xd935f8bd9e3dcb30ull},
    {"segmented_filter_reduce", true, "naive", 0xffbaa877ff174b55ull},
    {"segmented_filter_reduce", true, "eager", 0x4ec52d3af3683685ull},
    {"segmented_filter_reduce", true, "staged", 0x1f82f0753d2d0f5aull},
    {"sqrt_blocks", false, "naive", 0x43078bcb270193d6ull},
    {"sqrt_blocks", false, "eager", 0xf2064963b4753241ull},
    {"sqrt_blocks", false, "staged", 0x2705073506172d94ull},
    {"sqrt_blocks", true, "naive", 0x4e2e8eea42b22699ull},
    {"sqrt_blocks", true, "eager", 0x067aeb811c64ebc1ull},
    {"sqrt_blocks", true, "staged", 0x6ed8f76d5b82e7a0ull},
    {"stragglers", false, "naive", 0x56c9d9e8b23987d7ull},
    {"stragglers", false, "eager", 0x634def9a9c50a618ull},
    {"stragglers", false, "staged", 0xb87e833099f1dfc4ull},
    {"stragglers", true, "naive", 0x9021d3e31822d2ddull},
    {"stragglers", true, "eager", 0x7ca727d603442a91ull},
    {"stragglers", true, "staged", 0xa3599f2284c961d0ull},
    {"tokenizer", false, "naive", 0x4d03929caf11d9c3ull},
    {"tokenizer", false, "eager", 0x700654d374e46d3eull},
    {"tokenizer", false, "staged", 0xed2b48731f93d9f3ull},
    {"tokenizer", true, "naive", 0xf46dadc7dc019319ull},
    {"tokenizer", true, "eager", 0xcf47d5f59f4c400eull},
    {"tokenizer", true, "staged", 0x50cd62a1c69e4c77ull},
    {"trap_division", false, "naive", 0xf72416515da45437ull},
    {"trap_division", false, "eager", 0x55da02ffc4ecc539ull},
    {"trap_division", false, "staged", 0x05a53f305e9f7f29ull},
    {"trap_division", true, "naive", 0x054fd83eab8cc2f4ull},
    {"trap_division", true, "eager", 0xafbb08c716125d84ull},
    {"trap_division", true, "staged", 0xa7dc5b38279de4f3ull},
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
