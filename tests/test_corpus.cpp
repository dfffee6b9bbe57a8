// Corpus differential execution: every tests/corpus/*.nsc program is
// parsed, resolved, evaluated with the NSC evaluator (Definition 3.1
// semantics) on every `input` declaration, and compiled + executed on the
// BVRAM at every OptLevel x WhileSchedule -- O0/O2 x naive/staged(1/2) --
// with bit-for-bit agreement required on values and on traps (the Omega
// programs must trap identically everywhere).  The lifted `map main` is
// held to the same contract on batches of those inputs: each alone, all
// non-trapping ones together, and the empty batch.  This is the
// acceptance gate that turns "find a workload" into "add a .nsc file":
// anything dropped into tests/corpus/ is automatically held to the full
// pipeline contract.
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

/// Compiles `f` at O0 and O2 under every schedule and runs it on each of
/// `args`: values and traps must match the evaluator's.
void expect_compiled_matches_eval(const L::FuncRef& f, const TypeRef& dom,
                                  const TypeRef& cod,
                                  const std::vector<ValueRef>& args) {
  std::vector<Outcome> expected;
  for (const auto& a : args) expected.push_back(eval_outcome(f, a));
  for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    for (const auto& s : kSchedules) {
      SCOPED_TRACE(std::string("opt ") + std::to_string(int(level)) +
                   " sched " + s.name);
      bvram::Program program;
      ASSERT_NO_THROW(program = sa::compile_nsc(f, level, s.sched));
      for (std::size_t i = 0; i < args.size(); ++i) {
        SCOPED_TRACE("input " + std::to_string(i));
        const Outcome got = compiled_outcome(program, dom, cod, args[i]);
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

/// Every corpus program with its declared inputs, evaluated.
struct CorpusProgram {
  std::string path;
  F::ResolvedFn main;
  std::vector<ValueRef> args;
};

std::vector<CorpusProgram> corpus_programs() {
  std::vector<CorpusProgram> out;
  for (const auto& path : corpus_files()) {
    const F::ResolvedModule mod = F::compile_file(F::load_file(path));
    std::vector<ValueRef> args;
    for (const auto& in : mod.inputs) args.push_back(L::eval(in.term).value);
    out.push_back({path, mod.main(), std::move(args)});
  }
  return out;
}

TEST(Corpus, DifferentialAcrossOptLevelsAndSchedules) {
  const auto programs = corpus_programs();
  ASSERT_GE(programs.size(), 10u);
  for (const auto& prog : programs) {
    SCOPED_TRACE(prog.path);
    ASSERT_FALSE(prog.args.empty()) << "no input declarations";
    expect_compiled_matches_eval(prog.main.fn, prog.main.dom, prog.main.cod,
                                 prog.args);
  }
}

TEST(Corpus, LiftedDifferentialAcrossOptLevelsAndSchedules) {
  const auto programs = corpus_programs();
  ASSERT_GE(programs.size(), 10u);
  for (const auto& prog : programs) {
    SCOPED_TRACE(prog.path);
    std::vector<ValueRef> batches;
    std::vector<ValueRef> clean;
    for (const auto& a : prog.args) {
      batches.push_back(Value::seq({a}));
      if (!eval_outcome(prog.main.fn, a).trapped) clean.push_back(a);
    }
    batches.push_back(Value::seq(clean));
    batches.push_back(Value::empty_seq());
    expect_compiled_matches_eval(L::map_f(prog.main.fn),
                                 Type::seq(prog.main.dom),
                                 Type::seq(prog.main.cod), batches);
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
    {"count_to", false, "naive", 0x20d15b1dab899138ull},
    {"count_to", false, "staged", 0x20d15b1dab899138ull},
    {"count_to", true, "naive", 0xf1eae3aa423a1ef4ull},
    {"count_to", true, "staged", 0x64277e5fe831e4efull},
    {"countdown", false, "naive", 0x71c18c87673f4011ull},
    {"countdown", false, "staged", 0x9966c334950b9211ull},
    {"countdown", true, "naive", 0x6a563e9796b9b615ull},
    {"countdown", true, "staged", 0x26472d2bbf0e9becull},
    {"divide_conquer", false, "naive", 0xf747d916bd178b02ull},
    {"divide_conquer", false, "staged", 0xf747d916bd178b02ull},
    {"divide_conquer", true, "naive", 0xc0889631c051e6ecull},
    {"divide_conquer", true, "staged", 0xd6dee39ff1b5f2f5ull},
    {"histogram", false, "naive", 0x2c832457eec2e659ull},
    {"histogram", false, "staged", 0x2c832457eec2e659ull},
    {"histogram", true, "naive", 0x28d9114a900dd8d7ull},
    {"histogram", true, "staged", 0x28d9114a900dd8d7ull},
    {"merge_sorted", false, "naive", 0xde521b3ed4f10964ull},
    {"merge_sorted", false, "staged", 0xde521b3ed4f10964ull},
    {"merge_sorted", true, "naive", 0xee785594375fdd41ull},
    {"merge_sorted", true, "staged", 0xee785594375fdd41ull},
    {"nested_join", false, "naive", 0x51a89a05a4c6f0b9ull},
    {"nested_join", false, "staged", 0x51a89a05a4c6f0b9ull},
    {"nested_join", true, "naive", 0x117feed89eb3d2d5ull},
    {"nested_join", true, "staged", 0x117feed89eb3d2d5ull},
    {"nested_query", false, "naive", 0x2a1ce4d65973d3a8ull},
    {"nested_query", false, "staged", 0xf0406fac6d24f026ull},
    {"nested_query", true, "naive", 0x1b60fd1dce7e1f87ull},
    {"nested_query", true, "staged", 0xef81cbfa9246ffa2ull},
    {"quickstart", false, "naive", 0x67033715d56a4bcbull},
    {"quickstart", false, "staged", 0x67033715d56a4bcbull},
    {"quickstart", true, "naive", 0xdfa32e242162a4c0ull},
    {"quickstart", true, "staged", 0xdfa32e242162a4c0ull},
    {"segmented_filter_reduce", false, "naive", 0x7d09b2435bb49d9bull},
    {"segmented_filter_reduce", false, "staged", 0x550dbb09de9b762aull},
    {"segmented_filter_reduce", true, "naive", 0xb366d973f1c5bad5ull},
    {"segmented_filter_reduce", true, "staged", 0x4453c2a0bded5ae0ull},
    {"sqrt_blocks", false, "naive", 0x08857c2e0504bad6ull},
    {"sqrt_blocks", false, "staged", 0x7450948e4e455b1bull},
    {"sqrt_blocks", true, "naive", 0x071d93daed1f6519ull},
    {"sqrt_blocks", true, "staged", 0x4715367a70fb9a47ull},
    {"stragglers", false, "naive", 0x8af90719202235d7ull},
    {"stragglers", false, "staged", 0x141d5f8b2d1e0242ull},
    {"stragglers", true, "naive", 0xe4ed44e3be75725dull},
    {"stragglers", true, "staged", 0x1277acb7ac06af12ull},
    {"tokenizer", false, "naive", 0x505aca0b80d8ec61ull},
    {"tokenizer", false, "staged", 0x755ac955a40460faull},
    {"tokenizer", true, "naive", 0x07ace468fd181719ull},
    {"tokenizer", true, "staged", 0x4fd9f2f834af2bb8ull},
    {"trap_division", false, "naive", 0x1678b9ab90baf037ull},
    {"trap_division", false, "staged", 0xbacb82582f706965ull},
    {"trap_division", true, "naive", 0x4ad232f01121a474ull},
    {"trap_division", true, "staged", 0x2779d47d2b12da43ull},
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

// ---------------------------------------------------------------------------
// O2 pipeline rounds
// ---------------------------------------------------------------------------

struct PinnedRounds {
  const char* program;  ///< corpus file stem
  std::size_t unit;     ///< rounds of `main`'s O2 compile
  std::size_t lifted;   ///< rounds of `map main`'s
};

// Naive-schedule O2 compiles of tests/corpus/*.nsc.  Every round runs gvn
// and licm over the whole program, so a round that only finishes what a
// pass left undone costs a full pass of each; the last round changes
// nothing.
constexpr PinnedRounds kRounds[] = {
    {"count_to", 3, 2},        {"countdown", 2, 2},
    {"divide_conquer", 2, 2},  {"histogram", 4, 2},
    {"merge_sorted", 4, 3},    {"nested_join", 4, 2},
    {"nested_query", 2, 2},    {"quickstart", 2, 2},
    {"segmented_filter_reduce", 3, 3},
    {"sqrt_blocks", 3, 3},     {"stragglers", 2, 2},
    {"tokenizer", 3, 3},       {"trap_division", 2, 2},
};

TEST(Corpus, O2RoundCountsArePinned) {
  std::size_t checked = 0;
  for (const auto& path : corpus_files()) {
    const std::string stem = std::filesystem::path(path).stem().string();
    const F::ResolvedModule mod = F::compile_file(F::load_file(path));
    const L::FuncRef& fn = mod.main().fn;
    const PinnedRounds* pin = nullptr;
    for (const PinnedRounds& r : kRounds) {
      if (stem == r.program) pin = &r;
    }
    opt::PipelineStats unit, lifted;
    sa::compile_nsc(fn, opt::OptLevel::O2, {}, &unit);
    sa::compile_nsc(L::map_f(fn), opt::OptLevel::O2, {}, &lifted);
    if (pin == nullptr) {
      ADD_FAILURE() << "no pinned rounds; add the row\n{\"" << stem
                    << "\", " << unit.rounds << ", " << lifted.rounds << "},";
      continue;
    }
    ++checked;
    EXPECT_EQ(pin->unit, unit.rounds) << stem << " unit";
    EXPECT_EQ(pin->lifted, lifted.rounds) << stem << " lifted";
  }
  EXPECT_EQ(checked, std::size(kRounds)) << "a pinned program is gone";
}

}  // namespace
}  // namespace nsc
