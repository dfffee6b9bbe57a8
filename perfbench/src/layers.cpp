#include "layers.hpp"

#include "nsa/from_nsc.hpp"
#include "nsc/build.hpp"
#include "opt/fuse.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace F = nsc::front;
namespace bvram = nsc::bvram;
using nsc::ValueRef;

Compiled compile_plain(const std::string& name, const std::string& text,
                       bool with_lifted) {
  const F::SourceFile src(name, text);
  const F::ResolvedModule mod = F::compile_file(src);
  const F::ResolvedFn& fn = mod.main();
  Compiled c;
  c.dom = fn.dom;
  c.cod = fn.cod;
  c.unit = nsc::sa::compile_nsc(fn.fn);
  if (with_lifted) c.lifted = nsc::sa::compile_nsc(nsc::lang::map_f(fn.fn));
  return c;
}

namespace {

bvram::Program staged_program(Tracer& t, std::uint64_t op,
                              const nsc::lang::FuncRef& fn,
                              StagedCounts& counts) {
  nsc::nsa::NsaRef nsa;
  {
    Scope s(t, "nsa.from_nsc", op);
    nsa = nsc::nsa::from_closed_func(fn);
  }
  bvram::Program p;
  std::size_t flatten = 0;
  {
    Scope s(t, "sa.flatten", op);
    flatten = s.id();
    p = nsc::sa::compile_nsa(nsa, nsc::opt::OptLevel::O0);
  }
  // sa::compile_nsa at O0 also verifies the naive program and annotates
  // its last uses and fusion plan, which the one-call compile_nsc never
  // does.  That work is timed again on a copy and laid at the end of the
  // sa.flatten span as its child kNaiveAnnotate, so sa.flatten's self
  // time is the flattening alone; the accounting leaves the child out.
  {
    bvram::Program naive = p;
    naive.last_use.clear();
    naive.fusion.clear();
    const std::uint64_t a = t.now_ns();
    (void)nsc::opt::optimize(naive, nsc::opt::OptLevel::O0);
    nsc::opt::annotate_last_use(naive);
    nsc::opt::annotate_fusion(naive);
    const std::uint64_t took = t.now_ns() - a;
    const Span& f = t.spans()[flatten];
    Span s;
    s.name = kNaiveAnnotate;
    s.end_ns = f.end_ns;
    s.start_ns = f.end_ns - std::min(took, f.end_ns - f.start_ns);
    s.parent = static_cast<std::int64_t>(flatten);
    s.op = op;
    t.add(std::move(s));
  }
  counts.instrs_o0 += p.code.size();
  nsc::opt::PipelineStats stats;
  {
    Scope s(t, "opt.optimize", op);
    stats = nsc::opt::optimize(p, nsc::opt::OptLevel::O2);
  }
  // One child span per pass, laid end to end inside the optimize span:
  // passes interleave across fixpoint rounds, so only their totals exist.
  const Span outer = t.spans().back();
  const std::size_t outer_id = t.spans().size() - 1;
  std::uint64_t at = outer.start_ns;
  for (const nsc::opt::PassStats& ps : stats.passes) {
    Span s;
    s.name = "opt.pass." + ps.name;
    s.start_ns = at;
    s.end_ns = std::min(outer.end_ns, at + ps.wall_ns);
    s.parent = static_cast<std::int64_t>(outer_id);
    s.op = op;
    t.add(std::move(s));
    at = std::min(outer.end_ns, at + ps.wall_ns);
  }
  counts.rounds += stats.rounds;
  counts.instrs_o2 += p.code.size();
  counts.regs_o2 += p.num_regs;
  {
    Scope s(t, "opt.last_use", op);
    nsc::opt::annotate_last_use(p);
  }
  {
    Scope s(t, "opt.fusion", op);
    nsc::opt::annotate_fusion(p);
  }
  return p;
}

}  // namespace

Compiled compile_staged(Tracer& t, std::uint64_t op, const std::string& name,
                        const std::string& text, bool with_lifted,
                        StagedCounts& counts,
                        std::vector<nsc::ValueRef>* inputs) {
  const F::SourceFile src(name, text);
  {
    Scope s(t, "front.lex", op);
    counts.tokens += F::lex(src).size();
  }
  F::Module parsed;
  {
    Scope s(t, "front.parse", op);
    parsed = F::parse_module(src);
  }
  F::ResolvedModule mod;
  {
    Scope s(t, "front.resolve", op);
    mod = F::resolve(parsed, src);
  }
  if (inputs != nullptr) *inputs = declared_inputs(mod);
  const F::ResolvedFn& fn = mod.main();
  Compiled c;
  c.dom = fn.dom;
  c.cod = fn.cod;
  c.unit = staged_program(t, op, fn.fn, counts);
  if (with_lifted) {
    c.lifted = staged_program(t, op, nsc::lang::map_f(fn.fn), counts);
  }
  return c;
}

bool same_program(const bvram::Program& a, const bvram::Program& b,
                  std::string& why) {
  if (a.disassemble() != b.disassemble()) {
    why = "disassembly differs";
    return false;
  }
  if (a.last_use != b.last_use) {
    why = "last_use masks differ";
    return false;
  }
  if (a.fusion.size() != b.fusion.size()) {
    why = "fusion plans differ in group count";
    return false;
  }
  for (std::size_t i = 0; i < a.fusion.size(); ++i) {
    const bvram::FusedGroup& x = a.fusion[i];
    const bvram::FusedGroup& y = b.fusion[i];
    bool same = x.begin == y.begin && x.end == y.end && x.inputs == y.inputs &&
                x.bind_base == y.bind_base && x.commit == y.commit &&
                x.serial_only == y.serial_only &&
                x.has_select == y.has_select && x.binds.size() == y.binds.size();
    for (std::size_t k = 0; same && k < x.binds.size(); ++k) {
      same = x.binds[k].from_def == y.binds[k].from_def &&
             x.binds[k].index == y.binds[k].index;
    }
    if (!same) {
      why = "fusion group " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

namespace {

template <typename Body>
RunOut guarded(Body&& body) {
  RunOut out;
  try {
    body(out);
  } catch (const nsc::FuelExhausted&) {
    out.got = {Observed::Kind::FuelExhausted, nullptr};
  } catch (const nsc::EvalError&) {
    out.got = {Observed::Kind::Trap, nullptr};
  } catch (const nsc::Error&) {
    out.got = {Observed::Kind::Error, nullptr};
  }
  return out;
}

}  // namespace

RunOut run_plain(const bvram::Program& p, const nsc::TypeRef& dom,
                 const nsc::TypeRef& cod, const ValueRef& arg) {
  return guarded([&](RunOut& out) {
    const nsc::sa::CompiledRun r = nsc::sa::run_compiled(p, dom, cod, arg);
    out.got = {Observed::Kind::Value, r.value};
    out.cost = r.cost;
  });
}

RunOut run_staged(Tracer& t, std::uint64_t op, const bvram::Program& p,
                  const nsc::TypeRef& dom, const nsc::TypeRef& cod,
                  const ValueRef& arg) {
  return guarded([&](RunOut& out) {
    std::vector<nsc::sa::Vec> in;
    {
      Scope s(t, "sa.encode", op);
      in = nsc::sa::encode_value(arg, dom);
    }
    bvram::RunResult r;
    {
      Scope s(t, "bvram.run", op);
      r = bvram::run(p, in);
    }
    ValueRef v;
    {
      Scope s(t, "sa.decode", op);
      v = nsc::sa::decode_value(cod, r.outputs);
    }
    out.got = {Observed::Kind::Value, v};
    out.cost = r.cost;
  });
}

void EngineTotals::profile(const bvram::Program& p, const nsc::TypeRef& dom,
                           const ValueRef& arg) {
  bvram::RunConfig cfg;
  cfg.profile = true;
  bvram::RunResult r;
  try {
    r = bvram::run(p, nsc::sa::encode_value(arg, dom), cfg);
  } catch (const nsc::Error&) {
    return;
  }
  for (std::size_t pc = 0; pc < r.profile.size() && pc < p.code.size(); ++pc) {
    const auto k = static_cast<std::size_t>(p.code[pc].op);
    op_ns[k] += r.profile[pc].wall_ns;
    op_count[k] += r.profile[pc].count;
  }
  T += r.cost.time;
  const bvram::EngineProfile& e = r.engine;
  engine.pool_hits += e.pool_hits;
  engine.pool_misses += e.pool_misses;
  engine.inplace_hits += e.inplace_hits;
  engine.move_swaps += e.move_swaps;
  engine.fused_groups += e.fused_groups;
  engine.fused_instrs += e.fused_instrs;
  engine.fused_fallbacks += e.fused_fallbacks;
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void EngineTotals::put(Report& r) const {
  for (std::size_t k = 0; k < kOps; ++k) {
    r.put(std::string("bvram.op.") + bvram::op_name(static_cast<bvram::Op>(k)) +
              "_ms",
          static_cast<double>(op_ns[k]) / 1e6, "ms");
  }
  const auto move = static_cast<std::size_t>(bvram::Op::Move);
  r.put("bvram.pool_hit_ratio",
        ratio(engine.pool_hits, engine.pool_hits + engine.pool_misses),
        "ratio");
  r.put("bvram.inplace_ratio", ratio(engine.inplace_hits, T), "ratio");
  r.put("bvram.move_swap_ratio", ratio(engine.move_swaps, op_count[move]),
        "ratio");
  r.put("bvram.fused_instr_frac", ratio(engine.fused_instrs, T), "fraction");
  r.put("bvram.fused_fallback_ratio",
        ratio(engine.fused_fallbacks,
              engine.fused_groups + engine.fused_fallbacks),
        "ratio");
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "front.lex_ms",     "front.parse_ms",   "front.resolve_ms",
        "front.tokens",     "nsa.from_nsc_ms",  "sa.flatten_ms",
        "sa.instrs_o0",     "sa.encode_ms",     "sa.decode_ms",
        "opt.optimize_ms"};
    for (const char* pass :
         {"copy-prop", "gvn", "licm", "peephole", "dce", "reg-compact"}) {
      n.push_back(std::string("opt.pass.") + pass + "_ms");
    }
    for (const char* m : {"opt.rounds", "opt.instrs_o2", "opt.regs_o2",
                          "opt.last_use_ms", "opt.fusion_ms",
                          "bvram.run_ms_small", "bvram.run_ms_large",
                          "bvram.ns_per_W_small", "bvram.ns_per_W_large"}) {
      n.push_back(m);
    }
    for (std::size_t k = 0; k < EngineTotals::kOps; ++k) {
      n.push_back(std::string("bvram.op.") +
                  bvram::op_name(static_cast<bvram::Op>(k)) + "_ms");
    }
    for (const char* m :
         {"bvram.pool_hit_ratio", "bvram.inplace_ratio",
          "bvram.move_swap_ratio", "bvram.fused_instr_frac",
          "bvram.fused_fallback_ratio", "serve.load_ms", "serve.submit_us",
          "serve.batch_occupancy", "serve.batched_frac", "serve.runs_per_req",
          "serve.replays", "serve.exec_busy_frac", "serve.queue_wait_ms_p50",
          "serve.queue_wait_ms_p99", "serve.rss_kb_per_1k_req",
          "gen.late_ms_p99", "trace.overhead_frac", "trace.accounted_frac"}) {
      n.push_back(m);
    }
    return n;
  }();
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "cold_ms", "cold_total_s", "code_instrs",
      "run_ms_small", "run_ms_large", "T", "W", "peak_rss_mb"};
  return names;
}

}  // namespace perfbench
