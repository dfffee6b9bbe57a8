// The Bounded Vector Random Access Machine (paper section 2).
//
// A BVRAM has a *fixed* number of vector registers V_0 .. V_{r-1}, each
// holding a finite sequence of naturals.  There are no scalar registers --
// a number is a sequence of length 1 -- and, crucially, no runtime vector
// stack: the register count is part of the machine, which is the paper's
// point of departure from Blelloch's VRAM.
//
// Instruction set (section 2):
//   Move        V_i <- V_j
//   Arith       V_i <- V_j op V_k        (elementwise; lengths must match)
//   LoadEmpty   V_i <- []
//   LoadConst   V_i <- [n]
//   Append      V_i <- V_j @ V_k
//   Length      V_i <- [length(V_j)]
//   Enumerate   V_i <- [0, 1, ..., length(V_j) - 1]
//   BmRoute     V_i <- bm-route(V_j, V_k, V_l):  element t of V_l is
//               replicated V_k[t] times; V_j is the "bound": its length
//               must equal sum(V_k)   (so the output size is pre-budgeted).
//   SbmRoute    V_i <- sbm-route(V_j, V_k, V_l, V_m): V_l is split into
//               subsequences by V_m; subsequence t is replicated V_k[t]
//               times.  (V_j, V_k) must be a nested sequence (len V_j =
//               sum V_k) and length(V_k) = length(V_m).
//   Select      V_i <- sigma(V_j): pack the nonzero values of V_j.
//   ScanPlus    V_i <- exclusive prefix sums of V_j.
//               *Extension*: not in the paper's base ISA; added under the
//               paper's own robustness remark ("theorem 7.1 can be extended
//               ... provided corresponding instructions are added to the
//               BVRAM", section 3, which names scan explicitly).  Needed by
//               the flattening of sigma/enumerate (the extended abstract
//               omits the segment-descriptor bookkeeping).  Prop 2.1 is
//               preserved: a scan runs in O(log n) butterfly steps
//               (see butterfly/).
//   Goto        unconditional jump
//   GotoIfEmpty if empty?(V_j) then goto l
//   Halt
//
// Costs (section 2): T counts executed instructions (1 each); W charges
// each instruction the sum of the lengths of its input and output
// registers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bvram/pool.hpp"  // Buf / BufferPool (RunConfig::arena)
#include "nsc/ast.hpp"     // ArithOp (the shared operation set Sigma)
#include "obs/debuginfo.hpp"
#include "support/cost.hpp"
#include "support/error.hpp"

namespace nsc::bvram {

using lang::ArithOp;

enum class Op {
  Move,
  Arith,
  LoadEmpty,
  LoadConst,
  Append,
  Length,
  Enumerate,
  BmRoute,
  SbmRoute,
  Select,
  ScanPlus,
  Goto,
  GotoIfEmpty,
  Halt,
};

const char* op_name(Op op);

/// One instruction.  Register operands are indices into the machine's
/// register file; `target` is an instruction index for jumps.
///
/// Note: `SbmRoute` carries its fourth register operand (the segment
/// lengths) in `imm`; use `srcs()`/`map_srcs()` below rather than reading
/// the fields positionally.
struct Instr {
  Op op = Op::Halt;
  ArithOp aop = ArithOp::Add;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t imm = 0;
  std::size_t target = 0;
  /// Debug-site index into the owning Program's DebugTable (0 = unknown).
  /// Pure metadata: never read by the execution engines or the cost model.
  /// Passes that rewrite an instruction in place must leave it; passes
  /// that derive a new instruction from an old one must copy it (see
  /// obs/debuginfo.hpp for the full invariants).
  std::uint32_t dbg = 0;

  std::string show() const;

  // -- accessors for the CFG / dataflow passes in src/opt/ ----------------

  /// How many source registers each op reads.  They occupy the fields
  /// a, b, c, then (for SbmRoute only) imm, in that order -- this is the
  /// single authoritative operand-shape table; srcs() and map_srcs()
  /// below both derive from it.
  static constexpr std::size_t src_count(Op op) {
    switch (op) {
      case Op::Move:
      case Op::Length:
      case Op::Enumerate:
      case Op::Select:
      case Op::ScanPlus:
      case Op::GotoIfEmpty:
        return 1;
      case Op::Arith:
      case Op::Append:
        return 2;
      case Op::BmRoute:
        return 3;
      case Op::SbmRoute:
        return 4;
      case Op::LoadEmpty:
      case Op::LoadConst:
      case Op::Goto:
      case Op::Halt:
        return 0;
    }
    return 0;
  }

  /// The registers this instruction reads (0..4 of them).
  struct Srcs {
    std::uint32_t regs[4] = {0, 0, 0, 0};
    std::size_t n = 0;
    const std::uint32_t* begin() const { return regs; }
    const std::uint32_t* end() const { return regs + n; }
  };
  Srcs srcs() const {
    Srcs s;
    s.n = src_count(op);
    const std::uint32_t fields[4] = {a, b, c,
                                     static_cast<std::uint32_t>(imm)};
    for (std::size_t i = 0; i < s.n; ++i) s.regs[i] = fields[i];
    return s;
  }

  /// Whether this instruction writes `dst`.
  bool has_dst() const {
    return op != Op::Goto && op != Op::GotoIfEmpty && op != Op::Halt;
  }

  /// Whether this instruction transfers control (reads `target`).
  bool is_jump() const { return op == Op::Goto || op == Op::GotoIfEmpty; }

  /// Whether execution can raise a MachineError/EvalError even when every
  /// register operand is in range: Arith (length mismatch, division by
  /// zero) and the routing instructions (bound/segment certificates).
  /// Such instructions must survive dead-code elimination.
  bool can_trap() const {
    return op == Op::Arith || op == Op::BmRoute || op == Op::SbmRoute;
  }

  /// Apply `f : reg -> reg` to every source-register operand in place
  /// (dst and jump targets are untouched).
  template <typename F>
  void map_srcs(F&& f) {
    const std::size_t n = src_count(op);
    if (n >= 1) a = f(a);
    if (n >= 2) b = f(b);
    if (n >= 3) c = f(c);
    if (n >= 4) imm = f(static_cast<std::uint32_t>(imm));
  }
};

/// The shape of a fusion-plan group, from the elementwise fusion pass
/// that was deleted because it did not beat per-instruction execution on
/// the corpus.  Nothing builds, attaches or reads one: it exists only
/// until a benchmark change retires perfbench's opt.fusion_ms,
/// bvram.fused_instr_frac and bvram.fused_fallback_ratio, which still
/// compile against these names (ROADMAP item 3).
struct FusedGroup {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<std::uint32_t> inputs;
  struct Bind {
    bool from_def = false;
    std::uint32_t index = 0;
  };
  std::vector<Bind> binds;
  std::vector<std::uint32_t> bind_base;
  std::vector<std::int32_t> commit;
  bool serial_only = false;
  bool has_select = false;
};

/// A program plus its machine shape (register count, I/O arity).
struct Program {
  std::size_t num_regs = 0;
  std::size_t num_inputs = 0;   // inputs arrive in V_0 .. V_{num_inputs-1}
  std::size_t num_outputs = 0;  // outputs read from V_0 .. V_{num_outputs-1}
  std::vector<Instr> code;

  /// Optional per-instruction source-operand death masks, produced by
  /// opt::annotate_last_use (sa::compile_nsa / compile_nsc attach them as
  /// their final step): bit k of last_use[i] is set iff the register read
  /// by source operand k of code[i] is dead on every path after i.  The
  /// execution engine uses the masks to recycle operand buffers (see the
  /// cost-model note below); empty means "unknown", which is always safe.
  /// The masks describe this exact instruction sequence -- any mutation of
  /// `code` invalidates them (the optimizer's PassManager clears stale
  /// annotations; re-run opt::annotate_last_use after hand edits).
  std::vector<std::uint8_t> last_use;

  /// Always empty: run() never reads it.  Kept, like FusedGroup, only
  /// until a benchmark change retires perfbench's fusion metrics.
  std::vector<FusedGroup> fusion;

  /// Interned debug sites referenced by Instr::dbg.  sa::compile_nsa /
  /// compile_nsc populate it from the NSA tree's surface locations; the
  /// default (empty) table resolves every index to the unknown site, so
  /// hand-assembled programs need no setup.  Unlike last_use this is NOT
  /// invalidated by code edits: the indices live inside the instructions.
  obs::DebugTable debug;

  /// Fraction of instructions (weighted by `weight`, e.g. executed counts;
  /// nullptr weights every slot 1) whose debug site carries a surface
  /// line.  The CI profile-smoke job gates this at >= 0.95 on the
  /// O2-compiled corpus.
  double debug_coverage(const std::vector<std::uint64_t>* weight =
                            nullptr) const;

  std::string disassemble() const;
};

/// Per-instruction work record, consumed by the PRAM scheduler (Prop 3.2)
/// and the butterfly mapper (Prop 2.1).
struct TraceEntry {
  Op op;
  std::uint64_t work;
  std::uint64_t max_len;    // longest register touched
  std::uint64_t instr = 0;  // index of the executed instruction in code
};

/// Accumulated profile for one instruction *slot* (indexed by position in
/// Program::code), collected by run() only under RunConfig::profile.
/// `wall_ns` varies run to run; count, work, and bytes are deterministic:
/// they equal the totals of the slot's TraceEntry records, with or without
/// last-use masks (the test_profile gate).
struct InstrProfile {
  std::uint64_t count = 0;    ///< times this slot executed
  std::uint64_t wall_ns = 0;  ///< accumulated wall-clock nanoseconds
  std::uint64_t work = 0;     ///< accumulated W charged by this slot
  std::uint64_t bytes = 0;    ///< cost-model memory traffic: 8 * work
};

/// Engine-level counters, collected by run() only under RunConfig::profile.
struct EngineProfile {
  std::uint64_t wall_ns = 0;        ///< whole-run wall clock
  std::uint64_t pool_hits = 0;      ///< acquire() served from a pooled buffer
  std::uint64_t pool_misses = 0;    ///< acquire() had to touch the allocator
  std::uint64_t inplace_hits = 0;   ///< kernel wrote over a dying operand
  std::uint64_t move_swaps = 0;     ///< Move executed as an O(1) buffer swap
  // Always 0: no engine path fuses instructions.  Kept only until a
  // benchmark change retires perfbench's fusion metrics (ROADMAP item 3).
  std::uint64_t fused_groups = 0;
  std::uint64_t fused_instrs = 0;
  std::uint64_t fused_fallbacks = 0;
};

struct RunResult {
  std::vector<std::vector<std::uint64_t>> outputs;
  Cost cost;
  std::vector<TraceEntry> trace;  // only if RunConfig::record_trace
  /// Per-slot samples (size == code.size()), only from run() under
  /// RunConfig::profile.
  std::vector<InstrProfile> profile;
  EngineProfile engine;  // only meaningful if run() with RunConfig::profile
};

struct RunConfig {
  std::uint64_t max_instructions = std::uint64_t{1} << 32;
  bool record_trace = false;
  /// Collect per-instruction wall time / work / traffic samples and the
  /// engine counters into RunResult::profile / RunResult::engine.  Opt-in
  /// observability: when false (the default) the engine takes no
  /// timestamps and allocates nothing extra, and outputs, traps, T, W,
  /// and traces are bit-identical either way (profiling never touches
  /// the machine state -- the differential test in test_profile.cpp).
  bool profile = false;
  /// Optional cross-run register-file arena (non-owning).  When set, the
  /// engine draws every buffer -- input registers included -- from this
  /// pool instead of a private per-run one, and parks the whole register
  /// file back into it when the run finishes (outputs are copied out
  /// first).  Re-running the same program against the same arena is then
  /// allocation-free for registers in steady state: every acquire is
  /// served by a buffer the previous run recycled, and the arena stops
  /// growing (EngineProfile::pool_misses reads 0 and the spare count and
  /// bytes hold still, the Arena.SteadyStateZeroAllocation gate).  Purely
  /// an allocator swap: outputs, traps, T, W, traces, and profiles are
  /// bit-identical with or without an arena.  An arena must not be shared
  /// by two concurrent runs (see pool.hpp); the serve layer leases one
  /// arena per worker.
  BufferPool* arena = nullptr;
};

// Why the execution engine is invisible to the T/W cost model
// -----------------------------------------------------------
// run() executes programs with a pooled register file: freed buffers are
// recycled instead of returned to the allocator, Move executes as a buffer
// swap when Program::last_use proves the source dead, Arith / Enumerate /
// ScanPlus / Select (the pack never writes past its read index)
// write their result in place over a dead source operand, and a source
// register of a page or more that dies at an instruction hands its buffer
// back to the pool once the instruction completes.  None of this can be
// observed through the paper's semantics:
//
//   * T charges 1 per executed instruction and W charges the *lengths* of
//     the registers an instruction touches (section 2).  Both are functions
//     of the register *contents*, never of where those contents live in
//     host memory.  Buffer reuse changes addresses only, so the engine
//     charges exactly the costs the naive interpreter charges -- a Move
//     executed as an O(1) pointer swap still charges 2*|V_j|.
//   * Stealing or releasing a buffer mutates only registers that liveness
//     proved dead on every path (opt/liveness.hpp), so no later read --
//     including the output extraction at Halt, where V_0..V_{num_outputs-1}
//     are live by the boundary condition -- can see the difference.
//   * Trap order is preserved: every certificate (operand bounds, length
//     equalities, route sums) is checked before the first byte of any
//     register is overwritten, and in-place elementwise kernels are
//     index-aligned, so a mid-kernel EvalError aborts the run exactly as
//     it does with a fresh output buffer.
//
// The machine therefore runs at hardware speed (register buffers are
// recycled, not reallocated, and never deep-copied by Move) while
// reporting costs bit-identical to run_reference(), the section-2
// specification kept below as the oracle.

/// Execute a program.  Throws MachineError on ill-formed programs
/// (register/length/jump violations) and FuelExhausted past the budget.
RunResult run(const Program& program,
              const std::vector<std::vector<std::uint64_t>>& inputs,
              const RunConfig& cfg = {});

/// The reference interpreter: section 2's instructions and charges,
/// executed serially with a fresh output vector per instruction.  It reads
/// only RunConfig::max_instructions and record_trace, and ignores
/// Program::last_use.  Semantically identical to run()
/// (outputs, traps, T, W, trace); kept as the oracle that tests and
/// bench/bench_machine.cpp check run() against.
RunResult run_reference(const Program& program,
                        const std::vector<std::vector<std::uint64_t>>& inputs,
                        const RunConfig& cfg = {});

/// Assembler with labels, for writing programs by hand (tests, examples)
/// and for the SA -> BVRAM code generator.
class Assembler {
 public:
  /// Reserve a fresh register; returns its index.
  std::uint32_t reg();
  /// Ensure at least n registers exist (used to pin input registers).
  void reserve_regs(std::size_t n);

  /// Debug site stamped onto every subsequently emitted instruction
  /// (index into the caller's DebugTable; 0 = unknown, the default).
  /// The SA compiler brackets each NSA node's emission with
  /// set_site(node site) / set_site(previous), so instructions inherit
  /// the nearest enclosing source-attributed combinator.
  void set_site(std::uint32_t site) { site_ = site; }
  std::uint32_t site() const { return site_; }

  // -- instruction emitters ------------------------------------------------
  void move(std::uint32_t dst, std::uint32_t src);
  void arith(std::uint32_t dst, ArithOp op, std::uint32_t a, std::uint32_t b);
  void load_empty(std::uint32_t dst);
  void load_const(std::uint32_t dst, std::uint64_t n);
  void append(std::uint32_t dst, std::uint32_t a, std::uint32_t b);
  void length(std::uint32_t dst, std::uint32_t src);
  void enumerate(std::uint32_t dst, std::uint32_t src);
  void bm_route(std::uint32_t dst, std::uint32_t bound, std::uint32_t counts,
                std::uint32_t data);
  void sbm_route(std::uint32_t dst, std::uint32_t bound, std::uint32_t counts,
                 std::uint32_t data, std::uint32_t segs);
  void select(std::uint32_t dst, std::uint32_t src);
  void scan_plus(std::uint32_t dst, std::uint32_t src);
  void halt();

  // -- labels ---------------------------------------------------------------
  using Label = std::size_t;
  Label fresh_label();
  void bind(Label l);  ///< bind the label to the next instruction
  void jump(Label l);
  void jump_if_empty(std::uint32_t reg, Label l);

  /// Finish: resolves labels; `num_inputs`/`num_outputs` describe the I/O
  /// convention of the finished program.  Throws MachineError if any jump
  /// references a label that was never bound, or if any resolved target
  /// (including the not-taken edge of a GotoIfEmpty) falls outside
  /// [0, code.size()].
  Program finish(std::size_t num_inputs, std::size_t num_outputs);

 private:
  void check_label(Label l) const;
  /// Every emitter funnels through here so the current debug site is
  /// stamped exactly once.
  void push(Instr in);

  std::vector<Instr> code_;
  std::vector<std::ptrdiff_t> label_addr_;     // -1 = unbound
  std::vector<std::pair<std::size_t, Label>> fixups_;
  std::uint32_t next_reg_ = 0;
  std::uint32_t site_ = 0;
};

}  // namespace nsc::bvram
