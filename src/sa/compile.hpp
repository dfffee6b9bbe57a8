// The flattening compiler (Theorem 7.1): NSA -> BVRAM.
//
// This realizes section 7's pipeline with the SEQ(t) segment-descriptor
// encoding (sa/layout.hpp) as the register discipline.  Each NSA combinator
// is emitted either
//   * at depth 0 ("scalar world"): values are register tuples, sums carry a
//     [1]/[] tag register, and control flow uses real jumps; or
//   * lifted ("vector world", the Map Lemma 7.2): one element per vector
//     slot, sums carry 0/1 flag vectors with packed sides, case becomes
//     pack / both-branches / Example-D.1 combine, and while becomes an
//     active-set loop (pack the unfinished elements, step them, merge
//     back).  map(g) simply recurses one segment-descriptor level deeper --
//     the descriptor registers of outer levels pass through untouched,
//     which is precisely why flattening works.
//
// Entering map from either world switches to the lifted emitter; nested
// maps lift recursively to any depth.  Scalar operations collapse: a
// k-deep mapped arithmetic op is a single vector instruction regardless of
// k.  The segment bookkeeping (per-segment sums, packing, interleaving,
// gathers) is emitted from a small catalog of routines built only from
// BVRAM primitives: bm-route/sbm-route, select, scan-plus, enumerate and
// elementwise arithmetic -- each O(1) instructions, i.e. O(1) parallel
// time and work linear in the registers touched, as Lemma 7.2 requires.
//
// The lifted while supports two schedules behind opt::WhileSchedule
// (default: naive).  Naive touches every element once per iteration during
// pack/merge.  Staged extracts finished elements into archive buffers
// instead -- flushed at the Lemma 7.2 V0/V1/V2 thresholds ceil(n^(k*eps))
// that give the O(W^(1+eps)) bound -- and logs the per-round pack flags so
// that one exit-time backwards replay of the packs restores the original
// element order exactly.  Both schedules produce bit-identical outputs and
// traps; the register file is fixed and independent of eps.
// The machine-level ablation lives in bench/bench_seqwhile.cpp.
#pragma once

#include "bvram/machine.hpp"
#include "nsa/ast.hpp"
#include "object/value.hpp"
#include "opt/opt.hpp"
#include "sa/layout.hpp"
#include "support/cost.hpp"
#include "support/error.hpp"

namespace nsc::sa {

class CompileError : public Error {
 public:
  explicit CompileError(const std::string& what)
      : Error("compile error: " + what) {}
};

/// Compile an NSA function f : s -> t into a BVRAM program whose inputs
/// are REP(s) and outputs REP(t).  The emitted program is verified and
/// optimized by the src/opt/ pass pipeline; pass OptLevel::O0 to get the
/// naive catalog emission (exact instruction sequences, for tests).
/// `sched` picks the lifted-while schedule (Lemma 7.2); the default naive
/// schedule matches the historical emission exactly.  A non-null `stats`
/// receives the optimizer pipeline's per-pass statistics (bench_compile
/// reports them alongside the T/W measurements).
bvram::Program compile_nsa(const nsa::NsaRef& f,
                           opt::OptLevel opt = opt::OptLevel::O2,
                           const opt::WhileSchedule& sched = {},
                           opt::PipelineStats* stats = nullptr);

/// Full pipeline: closed NSC function -> NSA (variable elimination) ->
/// BVRAM (flattening) -> optimizer.
bvram::Program compile_nsc(const lang::FuncRef& f,
                           opt::OptLevel opt = opt::OptLevel::O2,
                           const opt::WhileSchedule& sched = {},
                           opt::PipelineStats* stats = nullptr);

struct CompiledRun {
  ValueRef value;
  Cost cost;  ///< the BVRAM's T (instructions) and W (register lengths)
};

/// Encode the argument, run the program, decode the result.  A non-null
/// `raw` receives the full machine-level RunResult (per-instruction
/// profile, engine counters, trace) for the observability layer.
CompiledRun run_compiled(const bvram::Program& program, const TypeRef& dom,
                         const TypeRef& cod, const ValueRef& arg,
                         const bvram::RunConfig& cfg = {},
                         bvram::RunResult* raw = nullptr);

}  // namespace nsc::sa
