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
    {"countdown", false, "naive", 0x849e422e0e1a4d73ull},
    {"countdown", false, "eager", 0x3fb4fc728046ba4aull},
    {"countdown", false, "staged", 0x744c4f950279a60dull},
    {"countdown", true, "naive", 0xfba96e09bb88c37bull},
    {"countdown", true, "eager", 0x40e2aa2358e377baull},
    {"countdown", true, "staged", 0xd51fdc2fd4b9bdbaull},
    {"divide_conquer", false, "naive", 0x6ef97c69e3487803ull},
    {"divide_conquer", false, "eager", 0x6ef97c69e3487803ull},
    {"divide_conquer", false, "staged", 0x6ef97c69e3487803ull},
    {"divide_conquer", true, "naive", 0x732bdcec981c29c9ull},
    {"divide_conquer", true, "eager", 0x90ec1d393989e07aull},
    {"divide_conquer", true, "staged", 0xa2e5ca43df588f8eull},
    {"histogram", false, "naive", 0x24174019016ba531ull},
    {"histogram", false, "eager", 0x24174019016ba531ull},
    {"histogram", false, "staged", 0x24174019016ba531ull},
    {"histogram", true, "naive", 0xc9ea74ea9e64fb82ull},
    {"histogram", true, "eager", 0xc9ea74ea9e64fb82ull},
    {"histogram", true, "staged", 0xc9ea74ea9e64fb82ull},
    {"merge_sorted", false, "naive", 0x1f854407d7dca82cull},
    {"merge_sorted", false, "eager", 0x1f854407d7dca82cull},
    {"merge_sorted", false, "staged", 0x1f854407d7dca82cull},
    {"merge_sorted", true, "naive", 0x8cdee2f04a0ef38eull},
    {"merge_sorted", true, "eager", 0x8cdee2f04a0ef38eull},
    {"merge_sorted", true, "staged", 0x8cdee2f04a0ef38eull},
    {"nested_join", false, "naive", 0xb76b424865c78578ull},
    {"nested_join", false, "eager", 0xb76b424865c78578ull},
    {"nested_join", false, "staged", 0xb76b424865c78578ull},
    {"nested_join", true, "naive", 0xacdf042ff1851a50ull},
    {"nested_join", true, "eager", 0xacdf042ff1851a50ull},
    {"nested_join", true, "staged", 0xacdf042ff1851a50ull},
    {"nested_query", false, "naive", 0x3d1c0fbb6e21a2c1ull},
    {"nested_query", false, "eager", 0x1503a7a094f7c3bdull},
    {"nested_query", false, "staged", 0x9a9b8cf43cc56e66ull},
    {"nested_query", true, "naive", 0xd6ef343938be8718ull},
    {"nested_query", true, "eager", 0x1fabfd1c847bbb42ull},
    {"nested_query", true, "staged", 0x49468019c3243276ull},
    {"quickstart", false, "naive", 0x9bfec0200d07b8b6ull},
    {"quickstart", false, "eager", 0x9bfec0200d07b8b6ull},
    {"quickstart", false, "staged", 0x9bfec0200d07b8b6ull},
    {"quickstart", true, "naive", 0x87796338a8bc29c0ull},
    {"quickstart", true, "eager", 0x87796338a8bc29c0ull},
    {"quickstart", true, "staged", 0x87796338a8bc29c0ull},
    {"segmented_filter_reduce", false, "naive", 0xda95e4ae94ea975aull},
    {"segmented_filter_reduce", false, "eager", 0x654ec5b150315041ull},
    {"segmented_filter_reduce", false, "staged", 0x0f76ab77325a0b82ull},
    {"segmented_filter_reduce", true, "naive", 0xcf1b16ba7a366001ull},
    {"segmented_filter_reduce", true, "eager", 0x8965dea15e164173ull},
    {"segmented_filter_reduce", true, "staged", 0xbc108947ea9831e4ull},
    {"sqrt_blocks", false, "naive", 0x663370ec8c48dffcull},
    {"sqrt_blocks", false, "eager", 0xe2a9ea6ddf9abd76ull},
    {"sqrt_blocks", false, "staged", 0x7a159c4668a232c5ull},
    {"sqrt_blocks", true, "naive", 0x8ef5e97f20d6351eull},
    {"sqrt_blocks", true, "eager", 0x564751800ceb5415ull},
    {"sqrt_blocks", true, "staged", 0x6fd285d44abe681dull},
    {"stragglers", false, "naive", 0x52e1c6fdf8fbe1dbull},
    {"stragglers", false, "eager", 0x6937d1ebe8d2126cull},
    {"stragglers", false, "staged", 0x997105f265d659feull},
    {"stragglers", true, "naive", 0x77d89cf962759ecfull},
    {"stragglers", true, "eager", 0x430a2f07618931c3ull},
    {"stragglers", true, "staged", 0x11f7ecdad69d5171ull},
    {"tokenizer", false, "naive", 0x5b3fb7525d195604ull},
    {"tokenizer", false, "eager", 0xc1377bcae2a96611ull},
    {"tokenizer", false, "staged", 0x2edde24c4ca5823full},
    {"tokenizer", true, "naive", 0xe02b43b1a6f449d9ull},
    {"tokenizer", true, "eager", 0x7ddfd7590aa3765dull},
    {"tokenizer", true, "staged", 0xe27da3c3c014a761ull},
    {"trap_division", false, "naive", 0x60386020696c5fa2ull},
    {"trap_division", false, "eager", 0xb2abf6c4ca2c9e20ull},
    {"trap_division", false, "staged", 0xad2cab2352ffe949ull},
    {"trap_division", true, "naive", 0x16eb10ab3aeaee46ull},
    {"trap_division", true, "eager", 0x157f510035f714c6ull},
    {"trap_division", true, "staged", 0xe4367f4d37e5025bull},
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
