// Observability-layer tests (src/obs/ + the engine profiler behind
// bvram::RunConfig::profile):
//
//   * profiling is a pure observer: with cfg.profile on vs off, outputs,
//     trap type *and message*, T, W, and the per-instruction trace are
//     bit-identical at every OptLevel x WhileSchedule on the corpus;
//   * the deterministic profile fields (per-pc count / work / bytes)
//     equal the totals summed from run_reference's trace in both engine
//     configurations (bare and +liveness) -- only wall times and engine
//     counters may differ;
//   * every TraceEntry carries the executed instruction's index;
//   * >= 95% of *executed* instructions on the O2-compiled corpus carry
//     surface attribution (the CI profile-smoke gate, measured here via
//     Program::debug_coverage weighted by execution counts);
//   * DebugTable interning and the obs::Profile report views, and the
//     profile's Chrome timeline written through the one span writer.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "bvram/machine.hpp"
#include "front/front.hpp"
#include "nsc/eval.hpp"
#include "nsc/prelude.hpp"
#include "nsc/typecheck.hpp"
#include "obs/debuginfo.hpp"
#include "obs/profile.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "corpus_files.hpp"

namespace nsc {
namespace {

namespace F = nsc::front;
namespace L = nsc::lang;
namespace P = nsc::lang::prelude;
using Vec = std::vector<std::uint64_t>;
using nsc::testing::corpus_files;
using nsc::testing::kSchedules;

struct Outcome {
  bool trapped = false;
  std::string error;  // dynamic exception type + message
  bvram::RunResult result;
};

template <typename Runner>
Outcome outcome_of(Runner runner, const bvram::Program& p,
                   const std::vector<Vec>& inputs, bool profile) {
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  cfg.profile = profile;
  Outcome o;
  try {
    o.result = runner(p, inputs, cfg);
  } catch (const Error& e) {
    o.trapped = true;
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

/// The observable machine state two runs must agree on regardless of
/// profiling or engine configuration.
void expect_same_semantics(const Outcome& base, const Outcome& got,
                           const std::string& label) {
  ASSERT_EQ(base.trapped, got.trapped)
      << label << ": trap disagreement (" << base.error << " vs " << got.error
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
    EXPECT_EQ(base.result.trace[i].instr, got.result.trace[i].instr)
        << label << " trace[" << i << "]";
  }
}

/// The deterministic profile fields: count, work, and bytes per pc are a
/// function of the executed path, never of the engine, backend, or clock,
/// so they equal the totals of a trace of that path.
std::vector<bvram::InstrProfile> totals_from_trace(
    const std::vector<bvram::TraceEntry>& trace, std::size_t slots) {
  std::vector<bvram::InstrProfile> out(slots);
  for (const bvram::TraceEntry& te : trace) {
    bvram::InstrProfile& ip = out.at(te.instr);
    ip.count += 1;
    ip.work = sat_add(ip.work, te.work);
    ip.bytes = sat_add(ip.bytes, sat_mul(te.work, 8));
  }
  return out;
}

void expect_same_profile(const std::vector<bvram::InstrProfile>& expected,
                         const Outcome& got, const std::string& label) {
  ASSERT_EQ(expected.size(), got.result.profile.size()) << label;
  for (std::size_t pc = 0; pc < expected.size(); ++pc) {
    EXPECT_EQ(expected[pc].count, got.result.profile[pc].count)
        << label << " pc=" << pc;
    EXPECT_EQ(expected[pc].work, got.result.profile[pc].work)
        << label << " pc=" << pc;
    EXPECT_EQ(expected[pc].bytes, got.result.profile[pc].bytes)
        << label << " pc=" << pc;
  }
}

struct CorpusProgram {
  std::string path;
  bvram::Program program;
  std::vector<std::vector<Vec>> inputs;  // encoded REP(dom) per declaration
};

std::vector<CorpusProgram> compiled_corpus(opt::OptLevel level,
                                           const opt::WhileSchedule& sched) {
  std::vector<CorpusProgram> out;
  for (const auto& path : corpus_files()) {
    const F::SourceFile src = F::load_file(path);
    const F::ResolvedModule mod = F::compile_file(src);
    const F::ResolvedFn& main_fn = mod.main();
    CorpusProgram cp;
    cp.path = path;
    cp.program = sa::compile_nsc(main_fn.fn, level, sched);
    for (const auto& in : mod.inputs) {
      cp.inputs.push_back(
          sa::encode_value(L::eval(in.term).value, main_fn.dom));
    }
    out.push_back(std::move(cp));
  }
  return out;
}

// ---------------------------------------------------------------------------
// profiling is a pure observer
// ---------------------------------------------------------------------------

TEST(Profile, OffVsOnBitIdenticalAcrossOptLevelsAndSchedules) {
  const opt::OptLevel levels[] = {opt::OptLevel::O0, opt::OptLevel::O2};
  for (const auto level : levels) {
    for (const auto& s : kSchedules) {
      SCOPED_TRACE(std::string("opt ") + std::to_string(int(level)) +
                   " sched " + s.name);
      for (const auto& cp : compiled_corpus(level, s.sched)) {
        SCOPED_TRACE(cp.path);
        for (std::size_t i = 0; i < cp.inputs.size(); ++i) {
          SCOPED_TRACE("input " + std::to_string(i));
          const Outcome off =
              outcome_of(bvram::run, cp.program, cp.inputs[i], false);
          const Outcome on =
              outcome_of(bvram::run, cp.program, cp.inputs[i], true);
          expect_same_semantics(off, on, "profile on/off");
          // Off: no samples allocated.  On: one slot per instruction.
          EXPECT_TRUE(off.result.profile.empty());
          if (!on.trapped) {
            EXPECT_EQ(on.result.profile.size(), cp.program.code.size());
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// deterministic profile fields match the reference trace in both engine
// configurations
// ---------------------------------------------------------------------------

TEST(Profile, DeterministicFieldsAcrossEngineConfigs) {
  for (const auto& cp : compiled_corpus(opt::OptLevel::O2, {})) {
    SCOPED_TRACE(cp.path);
    bvram::Program bare = cp.program;
    bare.last_use.clear();
    bvram::Program live = bare;
    opt::annotate_last_use(live);
    const struct {
      const char* label;
      const bvram::Program& program;
    } configs[] = {{"v2", bare}, {"v2+liveness", live}};
    for (std::size_t i = 0; i < cp.inputs.size(); ++i) {
      SCOPED_TRACE("input " + std::to_string(i));
      const Outcome base =
          outcome_of(bvram::run_reference, bare, cp.inputs[i], false);
      const std::vector<bvram::InstrProfile> expected =
          totals_from_trace(base.result.trace, bare.code.size());
      for (const auto& c : configs) {
        const Outcome got =
            outcome_of(bvram::run, c.program, cp.inputs[i], true);
        expect_same_semantics(base, got, c.label);
        if (!got.trapped) expect_same_profile(expected, got, c.label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// every TraceEntry names the instruction it executed
// ---------------------------------------------------------------------------

TEST(Profile, TraceEntriesCarryInstructionIndex) {
  for (const auto& cp : compiled_corpus(opt::OptLevel::O2, {})) {
    SCOPED_TRACE(cp.path);
    for (const auto& inputs : cp.inputs) {
      const Outcome o = outcome_of(bvram::run, cp.program, inputs, true);
      for (const auto& te : o.result.trace) {
        ASSERT_LT(te.instr, cp.program.code.size());
        EXPECT_EQ(cp.program.code[te.instr].op, te.op);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// the attribution gate: >= 95% of executed instructions, O2 corpus
// ---------------------------------------------------------------------------

TEST(Profile, ExecutedAttributionAtLeast95PercentOnO2Corpus) {
  std::uint64_t executed = 0, attributed = 0;
  for (const auto& cp : compiled_corpus(opt::OptLevel::O2, {})) {
    SCOPED_TRACE(cp.path);
    std::vector<std::uint64_t> counts(cp.program.code.size(), 0);
    for (const auto& inputs : cp.inputs) {
      const Outcome o = outcome_of(bvram::run, cp.program, inputs, true);
      if (o.trapped) continue;  // a trapped run yields no RunResult
      ASSERT_EQ(o.result.profile.size(), counts.size());
      for (std::size_t pc = 0; pc < counts.size(); ++pc) {
        counts[pc] += o.result.profile[pc].count;
      }
    }
    std::uint64_t file_total = 0;
    for (std::size_t pc = 0; pc < counts.size(); ++pc) {
      file_total += counts[pc];
      executed += counts[pc];
      if (cp.program.debug.site(cp.program.code[pc].dbg).has_loc()) {
        attributed += counts[pc];
      }
    }
    if (file_total > 0) {
      EXPECT_GE(cp.program.debug_coverage(&counts), 0.95)
          << cp.path << ": executed-instruction attribution below the gate";
    }
  }
  ASSERT_GT(executed, 0u);
  EXPECT_GE(static_cast<double>(attributed) / static_cast<double>(executed),
            0.95)
      << "corpus-wide executed attribution below the CI gate";
}

// ---------------------------------------------------------------------------
// the report layer
// ---------------------------------------------------------------------------

TEST(Profile, BuildAggregatesAndFindsLoops) {
  // sum-via-while compiles to a real backwards jump; the loop view must
  // find it and the by-line/by-opcode totals must match the run's W.
  auto f = P::sum_nats();
  auto [dom, cod] = L::check_func(f);
  (void)cod;
  const auto p = sa::compile_nsc(f, opt::OptLevel::O2);
  const auto inputs = sa::encode_value(
      Value::nat_seq(std::vector<std::uint64_t>(64, 3)), dom);
  bvram::RunConfig cfg;
  cfg.record_trace = true;
  cfg.profile = true;
  const bvram::RunResult r = bvram::run(p, inputs, cfg);
  const obs::Profile prof = obs::Profile::build(p, r);
  EXPECT_EQ(prof.total_count, r.trace.size());
  EXPECT_EQ(prof.total_work, r.cost.work);
  ASSERT_FALSE(prof.by_opcode.empty());
  ASSERT_FALSE(prof.by_loop.empty()) << "while loop not detected";
  EXPECT_GT(prof.by_loop[0].trips, 1u);
  EXPECT_LE(prof.by_loop[0].head, prof.by_loop[0].back);
  // The report strings render without throwing and are non-empty.
  EXPECT_FALSE(prof.render_by_opcode().empty());
  EXPECT_FALSE(prof.render_by_line().empty());
  EXPECT_FALSE(prof.render_loops().empty());
  EXPECT_FALSE(prof.render_engine().empty());
}

TEST(Profile, DebugTableInternsAndResolves) {
  obs::DebugTable t;
  EXPECT_EQ(t.size(), 1u);  // the reserved unknown site
  EXPECT_FALSE(t.site(0).has_loc());
  EXPECT_EQ(t.site(0).show(), "?");

  const auto a = t.intern("map", 12, 7);
  const auto b = t.intern("map", 12, 7);
  const auto c = t.intern("map", 12, 8);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, b);  // idempotent
  EXPECT_NE(a, c);
  EXPECT_EQ(t.site(a).show(), "map@12:7");
  EXPECT_TRUE(t.site(a).has_loc());

  // A combinator with no surface position is still named.
  const auto d = t.intern("append", 0, 0);
  EXPECT_FALSE(t.site(d).has_loc());

  // Out-of-range indices resolve to the unknown site, never throw.
  EXPECT_EQ(t.site(9999).show(), "?");
}

// `nscc profile --chrome` renders through the one span writer: the
// optimizer row holds the passes, and the execute row one complete event
// per executed instruction, named by opcode, noted with its debug site,
// and sized so the sizes add up to the run's W.
TEST(Profile, ChromeTimelineThroughTheSpanWriter) {
  const F::SourceFile src =
      F::load_file(std::string(NSCC_CORPUS_DIR) + "/nested_query.nsc");
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& main_fn = mod.main();
  ASSERT_FALSE(mod.inputs.empty());
  opt::PipelineStats stats;
  const bvram::Program p =
      sa::compile_nsc(main_fn.fn, opt::OptLevel::O2, {}, &stats);
  bvram::RunConfig cfg;
  cfg.profile = true;
  cfg.record_trace = true;
  const bvram::RunResult r = bvram::run(
      p, sa::encode_value(L::eval(mod.inputs[0].term).value, main_fn.dom),
      cfg);

  std::ostringstream out;
  obs::write_chrome_trace(out, obs::timeline_spans(p, r, &stats),
                          {"optimizer", "execute"});
  const json::Value doc = json::parse(out.str());
  std::map<std::uint64_t, std::string> rows;
  std::vector<const json::Value*> passes, instrs;
  for (const json::Value& e : doc.at("traceEvents").items) {
    if (e.at("ph").as_string() == "M") {
      rows[e.at("tid").as_u64()] = e.at("args").at("name").as_string();
      continue;
    }
    ASSERT_EQ(e.at("ph").as_string(), "X");
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("dur"), nullptr);
    (e.at("tid").as_u64() == 0 ? passes : instrs).push_back(&e);
  }
  EXPECT_EQ(rows, (std::map<std::uint64_t, std::string>{
                      {0, "optimizer"}, {1, "execute"}}));
  EXPECT_EQ(passes.size(), stats.passes.size());
  ASSERT_EQ(instrs.size(), r.cost.time);
  ASSERT_EQ(instrs.size(), r.trace.size());
  std::uint64_t work = 0;
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    const json::Value& args = instrs[k]->at("args");
    const json::Value* size = args.find("size");
    work += size == nullptr ? 0 : size->as_u64();
    const bvram::Instr& in = p.code.at(r.trace[k].instr);
    EXPECT_EQ(instrs[k]->at("name").as_string(), bvram::op_name(in.op)) << k;
    EXPECT_EQ(args.at("note").as_string(), p.debug.site(in.dbg).show()) << k;
  }
  EXPECT_EQ(work, r.cost.work);
}

TEST(Profile, PassTimingsArePopulated) {
  opt::PipelineStats stats;
  auto f = P::sum_nats();
  (void)sa::compile_nsc(f, opt::OptLevel::O2, {}, &stats);
  ASSERT_FALSE(stats.passes.empty());
  // steady_clock is monotonic; the pipeline total bounds each pass.
  for (const auto& ps : stats.passes) {
    EXPECT_LE(ps.wall_ns, stats.wall_ns) << ps.name;
  }
  EXPECT_GT(stats.wall_ns, 0u);
}

}  // namespace
}  // namespace nsc
