// The compile and execute paths the workloads drive, each in two forms:
// plain, through the one-call entry points a user calls (what the
// untraced runs time), and staged, split at every layer's public entry
// point with one span per call (what the traced runs record).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bvram/machine.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

/// The unit program of a source's main and, when asked for, the lifted
/// `map main` batch program (what a `nscc serve` cache miss compiles).
struct Compiled {
  nsc::bvram::Program unit;
  nsc::bvram::Program lifted;
  nsc::TypeRef dom, cod;
};

/// front::compile_file, then sa::compile_nsc at O2 (unit, then lifted).
Compiled compile_plain(const std::string& name, const std::string& text,
                       bool with_lifted);

/// The span of work the staged compile does beyond the one-call compile.
inline constexpr const char* kNaiveAnnotate = "sa.flatten.naive_annotate";

/// Counts the staged compile reads off the layers it passes through.
struct StagedCounts {
  std::uint64_t tokens = 0;
  std::uint64_t instrs_o0 = 0;
  std::uint64_t rounds = 0;
  std::uint64_t instrs_o2 = 0;
  std::uint64_t regs_o2 = 0;
};

/// The same compile, one span per public call: front::lex,
/// front::parse_module (which lexes again internally), front::resolve,
/// then per program nsa::from_closed_func, sa::compile_nsa at O0 (with a
/// synthetic child span, kNaiveAnnotate, for the naive program's
/// verification and annotation, which compile_nsc does not do),
/// opt::optimize at O2 (with one synthetic child span per pass, laid end
/// to end from the returned PipelineStats), opt::annotate_last_use and
/// opt::annotate_fusion.  A non-null `inputs` receives the module's
/// declared inputs, evaluated.
Compiled compile_staged(Tracer& t, std::uint64_t op, const std::string& name,
                        const std::string& text, bool with_lifted,
                        StagedCounts& counts,
                        std::vector<nsc::ValueRef>* inputs = nullptr);

/// Identical disassembly, last-use masks and fusion plan.  On a
/// difference, `why` says which.
bool same_program(const nsc::bvram::Program& a, const nsc::bvram::Program& b,
                  std::string& why);

struct RunOut {
  Observed got;
  nsc::Cost cost;  ///< zero unless the run returned a value
};

/// sa::run_compiled: encode -> bvram::run -> decode, default RunConfig.
RunOut run_plain(const nsc::bvram::Program& p, const nsc::TypeRef& dom,
                 const nsc::TypeRef& cod, const nsc::ValueRef& arg);

/// The same run as three spans: sa.encode, bvram.run, sa.decode.
RunOut run_staged(Tracer& t, std::uint64_t op, const nsc::bvram::Program& p,
                  const nsc::TypeRef& dom, const nsc::TypeRef& cod,
                  const nsc::ValueRef& arg);

/// Engine counters and per-opcode wall time summed over runs made with
/// RunConfig::profile.
struct EngineTotals {
  static constexpr std::size_t kOps =
      static_cast<std::size_t>(nsc::bvram::Op::Halt) + 1;
  std::array<std::uint64_t, kOps> op_ns{};
  std::array<std::uint64_t, kOps> op_count{};
  std::uint64_t T = 0;
  nsc::bvram::EngineProfile engine;

  /// Runs `arg` once with profiling on and folds the run in.  A trapping
  /// run contributes nothing.
  void profile(const nsc::bvram::Program& p, const nsc::TypeRef& dom,
               const nsc::ValueRef& arg);
  /// bvram.op.<opcode>_ms and the engine ratios.
  void put(Report& r) const;
};

/// Every per-layer metric a traced run prints, in order.
const std::vector<std::string>& per_layer_names();
/// Every end-to-end metric an untraced run prints, in order.
const std::vector<std::string>& end_to_end_names();

}  // namespace perfbench
