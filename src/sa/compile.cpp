#include "sa/compile.hpp"

#include "nsa/from_nsc.hpp"
#include "obs/debuginfo.hpp"
#include "opt/liveness.hpp"

namespace nsc::sa {

namespace {

using bvram::Assembler;
using lang::ArithOp;
using nsa::NsaKind;
using nsa::NsaRef;
using R = std::uint32_t;
using Regs = std::vector<R>;

Regs slice(const Regs& regs, std::size_t from, std::size_t count) {
  return Regs(regs.begin() + from, regs.begin() + from + count);
}

Regs concat(Regs a, const Regs& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

class Compiler {
 public:
  explicit Compiler(const opt::WhileSchedule& sched) : sched_(sched) {}

  bvram::Program compile(const NsaRef& f) {
    // Root site: prologue/epilogue instructions (output moves, halt) are
    // attributed to the program's top-level combinator, so whole-program
    // overhead still lands on a surface line when the root is stamped.
    a_.set_site(dbg_.intern(nsa::nsa_kind_name(f->kind()), f->src_line(),
                            f->src_col()));
    const std::size_t nin = rep_width(*f->dom());
    a_.reserve_regs(nin);
    Regs in(nin);
    for (std::size_t i = 0; i < nin; ++i) in[i] = static_cast<R>(i);
    Regs out = emit0(f, in);
    // Copy results into the output convention V_0..V_{m-1} via temps (the
    // low registers are also the inputs, so stage through fresh registers).
    Regs temps;
    for (R r : out) {
      R t = a_.reg();
      a_.move(t, r);
      temps.push_back(t);
    }
    for (std::size_t i = 0; i < temps.size(); ++i) {
      a_.move(static_cast<R>(i), temps[i]);
    }
    a_.halt();
    bvram::Program p = a_.finish(nin, out.size());
    p.debug = std::move(dbg_);
    return p;
  }

 private:
  /// RAII debug-site scope: while alive, every instruction the assembler
  /// emits is attributed to combinator `f`.  An unstamped node inherits
  /// the enclosing scope's surface location (nearest stamped ancestor),
  /// so attribution never degrades as the emitter recurses through the
  /// glue combinators the translation inserts.
  class SiteScope {
   public:
    SiteScope(Compiler& c, const NsaRef& f) : c_(c), saved_(c.a_.site()) {
      std::uint32_t line = f->src_line();
      std::uint32_t col = f->src_col();
      if (line == 0) {
        const obs::DebugSite& enclosing = c.dbg_.site(saved_);
        line = enclosing.line;
        col = enclosing.col;
      }
      c_.a_.set_site(
          c_.dbg_.intern(nsa::nsa_kind_name(f->kind()), line, col));
    }
    ~SiteScope() { c_.a_.set_site(saved_); }
    SiteScope(const SiteScope&) = delete;
    SiteScope& operator=(const SiteScope&) = delete;

   private:
    Compiler& c_;
    std::uint32_t saved_;
  };
  // ---------------------------------------------------------------------
  // small emission helpers
  //
  // C++ leaves the evaluation order of a call's arguments unspecified, so
  // no argument list below holds two calls that allocate a register or
  // emit an instruction: each such call is a statement of its own, and
  // the emitted code does not depend on the compiler.  Where a helper
  // emits its right operand first, that order is the one pinned by the
  // emitted-code digests in tests/test_corpus.cpp.
  // ---------------------------------------------------------------------
  R fresh() { return a_.reg(); }

  R konst(std::uint64_t n) {
    R r = fresh();
    a_.load_const(r, n);
    return r;
  }

  R emptyreg() {
    R r = fresh();
    a_.load_empty(r);
    return r;
  }

  R len_of(R v) {
    R r = fresh();
    a_.length(r, v);
    return r;
  }

  R enum_of(R v) {
    R r = fresh();
    a_.enumerate(r, v);
    return r;
  }

  R arith(ArithOp op, R x, R y) {
    R r = fresh();
    a_.arith(r, op, x, y);
    return r;
  }

  R append(R x, R y) {
    R r = fresh();
    a_.append(r, x, y);
    return r;
  }

  R scan(R v) {
    R r = fresh();
    a_.scan_plus(r, v);
    return r;
  }

  /// Replicate the singleton `scalar` to the length of `like`.
  R broadcast(R scalar, R like) {
    R r = fresh();
    a_.bm_route(r, like, len_of(like), scalar);
    return r;
  }

  R ones_like(R v) { return broadcast(konst(1), v); }
  R zeros_like(R v) { return broadcast(konst(0), v); }
  R inv_bits(R bits) { return arith(ArithOp::Monus, ones_like(bits), bits); }

  /// Elementwise x == y as 0/1 bits: 1 - ((x-y) + (y-x)) under monus.
  R eq_bits(R x, R y) {
    R yx = arith(ArithOp::Monus, y, x);
    R xy = arith(ArithOp::Monus, x, y);
    R d = arith(ArithOp::Add, xy, yx);
    return arith(ArithOp::Monus, ones_like(x), d);
  }

  /// Keep data[i] where bits[i] == 1 (order-preserving pack).
  R pack_vec(R data, R bits) {
    R bound = fresh();
    a_.select(bound, bits);  // the 1-entries; length = #selected
    R r = fresh();
    a_.bm_route(r, bound, bits, data);
    return r;
  }

  /// Abort the program (machine error) if `reg` is non-empty.
  void trap_if_nonempty(R reg) {
    auto ok = a_.fresh_label();
    a_.jump_if_empty(reg, ok);
    emit_unconditional_trap();
    a_.bind(ok);
  }

  /// Abort if any bit set.
  void trap_if_any(R bits) {
    R sel = fresh();
    a_.select(sel, bits);
    trap_if_nonempty(sel);
  }

  /// [1] + [] is a length mismatch, which the machine traps on.
  void emit_unconditional_trap() {
    R empty = emptyreg();
    R one = konst(1);
    a_.arith(fresh(), ArithOp::Add, one, empty);
  }

  /// [sum v] as a singleton register.
  R vec_total(R v) {
    R ext = append(v, konst(0));
    R sc = scan(ext);  // sc[i] = sum v[0..i); sc[n] = total
    R e = enum_of(sc);
    R pos = broadcast(len_of(v), sc);
    return pack_vec(sc, eq_bits(e, pos));
  }

  /// [len v - 1] (monus: [0] when v is empty).
  R last_index(R v) {
    R one = konst(1);
    return arith(ArithOp::Monus, len_of(v), one);
  }

  /// Remove the last element of v.
  R drop_last(R v) {
    R e = enum_of(v);
    R last = broadcast(last_index(v), v);
    return pack_vec(v, inv_bits(eq_bits(e, last)));
  }

  /// [v[len-1]] as a singleton (empty when v is empty).
  R last_of(R v) {
    R e = enum_of(v);
    R last = broadcast(last_index(v), v);
    return pack_vec(v, eq_bits(e, last));
  }

  /// Elementwise "is nonzero" as 0/1 bits.
  R nonzero_bits(R v) {
    R ones = ones_like(v);
    return arith(ArithOp::Monus, ones, arith(ArithOp::Monus, ones, v));
  }

  /// 0/1 bits over v marking its last k slots (k a singleton <= [len v]).
  R tail_bits(R v, R k) {
    R e = enum_of(v);
    R cut = broadcast(arith(ArithOp::Monus, len_of(v), k), v);
    // slot i is in the tail iff i >= len-k iff (len-k) monus i == 0.
    return inv_bits(nonzero_bits(arith(ArithOp::Monus, cut, e)));
  }

  /// [#nonzero slots of bits] as a singleton.
  R ones_count(R bits) {
    R sel = fresh();
    a_.select(sel, bits);
    return len_of(sel);
  }

  /// Remove the first element of v.
  R drop_first(R v) {
    R e = enum_of(v);
    return pack_vec(v, inv_bits(eq_bits(e, zeros_like(v))));
  }

  /// Gather V at sorted positions P (duplicates allowed): Figure 3's
  /// double bm-route.
  R gather_sorted(R V, R P) {
    R n = len_of(V);
    R k = len_of(P);
    R ztk = append(enum_of(P), k);
    R zP = append(konst(0), P);
    R dI = arith(ArithOp::Monus, append(P, n), zP);
    R Pv = fresh();
    a_.bm_route(Pv, V, dI, ztk);  // rank of each slot among P
    R shifted = drop_last(append(konst(0), Pv));
    R dP = arith(ArithOp::Monus, Pv, shifted);
    R out = fresh();
    a_.bm_route(out, P, dP, V);
    return out;
  }

  /// Per-segment sums of w; segments given by lens (sum lens = len w).
  R seg_sum(R lens, R w) {
    R starts = scan(lens);
    R ends = arith(ArithOp::Add, starts, lens);
    R ext = scan(append(w, konst(0)));
    R at_starts = gather_sorted(ext, starts);
    R at_ends = gather_sorted(ext, ends);
    return arith(ArithOp::Monus, at_ends, at_starts);
  }

  /// Replicate v[i] lens[i] times; probe_inner has the output length.
  R expand_by(R v, R lens, R probe_inner) {
    R out = fresh();
    a_.bm_route(out, probe_inner, lens, v);
    return out;
  }

  /// Per-segment enumerate (0,1,.. within each segment).
  R seg_enum(R lens, R probe_inner) {
    R offs = expand_by(scan(lens), lens, probe_inner);
    return arith(ArithOp::Monus, enum_of(probe_inner), offs);
  }

  /// Example D.1: interleave A into the bits=1 slots and B into the bits=0
  /// slots of a len(bits)-long output.
  R combine_vec(R bits, R A, R B) {
    // Trivial sides first (pure jumps; the general path below needs both
    // sides non-empty).
    R out = fresh();
    auto general = a_.fresh_label();
    auto join = a_.fresh_label();
    auto b_empty = a_.fresh_label();
    a_.jump_if_empty(A, b_empty);
    a_.jump(general);
    a_.bind(b_empty);
    a_.move(out, B);
    a_.jump(join);
    a_.bind(general);
    {
      auto full = a_.fresh_label();
      auto a_only = a_.fresh_label();
      a_.jump_if_empty(B, a_only);
      a_.jump(full);
      a_.bind(a_only);
      a_.move(out, A);
      a_.jump(join);
      a_.bind(full);
      R inv = inv_bits(bits);
      R e = enum_of(bits);
      R n = len_of(bits);
      auto gap_counts = [&](R pos) {
        // counts_i = next_i - pos_i, with the first stretched back to 0.
        R nexts = append(drop_first(pos), n);
        R efirst = enum_of(pos);
        R first_bit = eq_bits(efirst, zeros_like(pos));
        R masked = arith(ArithOp::Mul, pos, inv_bits(first_bit));
        return arith(ArithOp::Monus, nexts, masked);
      };
      R posA = pack_vec(e, bits);
      R posB = pack_vec(e, inv);
      R xx = fresh();
      a_.bm_route(xx, bits, gap_counts(posA), A);
      R yy = fresh();
      a_.bm_route(yy, bits, gap_counts(posB), B);
      R ys = arith(ArithOp::Mul, yy, inv);
      R xs = arith(ArithOp::Mul, xx, bits);
      R mixed = arith(ArithOp::Add, xs, ys);
      a_.move(out, mixed);
    }
    a_.bind(join);
    return out;
  }

  // ---------------------------------------------------------------------
  // shape-recursive routines over SEQREP(t)
  // ---------------------------------------------------------------------

  R probe(const Regs& regs) { return regs.at(0); }

  Regs empty_seqrep(const Type& t) {
    Regs out;
    for (std::size_t i = 0; i < seqrep_width(t); ++i) out.push_back(emptyreg());
    return out;
  }

  /// Keep the elements whose bit is 1.
  Regs pack_seq(const Type& t, const Regs& in, R bits) {
    switch (t.kind()) {
      case TypeKind::Unit:
      case TypeKind::Nat:
        return {pack_vec(in[0], bits)};
      case TypeKind::Prod: {
        const std::size_t lw = seqrep_width(*t.left());
        Regs l = pack_seq(*t.left(), slice(in, 0, lw), bits);
        Regs r = pack_seq(*t.right(), slice(in, lw, in.size() - lw), bits);
        return concat(std::move(l), r);
      }
      case TypeKind::Sum: {
        R flags = in[0];
        const std::size_t lw = seqrep_width(*t.left());
        R b1 = pack_vec(bits, flags);
        R b2 = pack_vec(bits, inv_bits(flags));
        R nf = pack_vec(flags, bits);
        Regs l = pack_seq(*t.left(), slice(in, 1, lw), b1);
        Regs r = pack_seq(*t.right(), slice(in, 1 + lw, in.size() - 1 - lw),
                          b2);
        return concat(concat({nf}, l), r);
      }
      case TypeKind::Seq: {
        R lens = in[0];
        Regs inner = slice(in, 1, in.size() - 1);
        R nl = pack_vec(lens, bits);
        R ebits = expand_by(bits, lens, probe(inner));
        Regs ni = pack_seq(*t.elem(), inner, ebits);
        return concat({nl}, ni);
      }
    }
    throw CompileError("pack_seq: bad type");
  }

  /// Interleave A's elements into the bits=1 slots, B's into the rest.
  Regs combine_seq(const Type& t, R bits, const Regs& A, const Regs& B) {
    switch (t.kind()) {
      case TypeKind::Unit:
      case TypeKind::Nat:
        return {combine_vec(bits, A[0], B[0])};
      case TypeKind::Prod: {
        const std::size_t lw = seqrep_width(*t.left());
        Regs l = combine_seq(*t.left(), bits, slice(A, 0, lw),
                             slice(B, 0, lw));
        Regs r = combine_seq(*t.right(), bits, slice(A, lw, A.size() - lw),
                             slice(B, lw, B.size() - lw));
        return concat(std::move(l), r);
      }
      case TypeKind::Sum: {
        const std::size_t lw = seqrep_width(*t.left());
        R nf = combine_vec(bits, A[0], B[0]);
        R b1 = pack_vec(bits, nf);             // origin of combined lefts
        R b2 = pack_vec(bits, inv_bits(nf));   // origin of combined rights
        Regs l = combine_seq(*t.left(), b1, slice(A, 1, lw), slice(B, 1, lw));
        Regs r = combine_seq(*t.right(), b2,
                             slice(A, 1 + lw, A.size() - 1 - lw),
                             slice(B, 1 + lw, B.size() - 1 - lw));
        return concat(concat({nf}, l), r);
      }
      case TypeKind::Seq: {
        R nl = combine_vec(bits, A[0], B[0]);
        Regs ia = slice(A, 1, A.size() - 1);
        Regs ib = slice(B, 1, B.size() - 1);
        R pr = append(probe(ia), probe(ib));
        R ebits = fresh();
        a_.bm_route(ebits, pr, nl, bits);
        Regs ni = combine_seq(*t.elem(), ebits, ia, ib);
        return concat({nl}, ni);
      }
    }
    throw CompileError("combine_seq: bad type");
  }

  /// Replicate element blocks: element i of the sequence is replicated
  /// times[i] times.  `segs` gives the number of items of the *current*
  /// register level per (top) element; `bound` certifies sum(times).
  Regs replicate_seq(const Type& t, const Regs& in, R times, R bound,
                     R segs) {
    auto sbm = [&](R data) {
      R out = fresh();
      a_.sbm_route(out, bound, times, data, segs);
      return out;
    };
    switch (t.kind()) {
      case TypeKind::Unit:
      case TypeKind::Nat:
        return {sbm(in[0])};
      case TypeKind::Prod: {
        const std::size_t lw = seqrep_width(*t.left());
        Regs l = replicate_seq(*t.left(), slice(in, 0, lw), times, bound,
                               segs);
        Regs r = replicate_seq(*t.right(), slice(in, lw, in.size() - lw),
                               times, bound, segs);
        return concat(std::move(l), r);
      }
      case TypeKind::Sum: {
        R flags = in[0];
        const std::size_t lw = seqrep_width(*t.left());
        R nf = sbm(flags);
        // Per-top-element item counts on each side.
        R segs1 = seg_sum(segs, flags);
        R segs2 = seg_sum(segs, inv_bits(flags));
        Regs l = replicate_seq(*t.left(), slice(in, 1, lw), times, bound,
                               segs1);
        Regs r = replicate_seq(*t.right(),
                               slice(in, 1 + lw, in.size() - 1 - lw), times,
                               bound, segs2);
        return concat(concat({nf}, l), r);
      }
      case TypeKind::Seq: {
        R lens = in[0];
        Regs inner = slice(in, 1, in.size() - 1);
        R nl = sbm(lens);
        R segs_inner = seg_sum(segs, lens);
        Regs ni = replicate_seq(*t.elem(), inner, times, bound, segs_inner);
        return concat({nl}, ni);
      }
    }
    throw CompileError("replicate_seq: bad type");
  }

  /// Convert a depth-0 REP(t) into the SEQREP(t) of the one-element
  /// sequence [v].
  Regs rep_to_single(const Type& t, const Regs& in) {
    switch (t.kind()) {
      case TypeKind::Unit:
        return {konst(0)};
      case TypeKind::Nat:
        return {in[0]};  // a singleton vector either way
      case TypeKind::Prod: {
        const std::size_t lw = rep_width(*t.left());
        Regs l = rep_to_single(*t.left(), slice(in, 0, lw));
        Regs r = rep_to_single(*t.right(), slice(in, lw, in.size() - lw));
        return concat(std::move(l), r);
      }
      case TypeKind::Sum: {
        R tag = in[0];
        const std::size_t lw = rep_width(*t.left());
        R flags = len_of(tag);  // [1] if in1, [0] if in2
        // Conditionally build each side as a 0- or 1-element SEQREP.
        const std::size_t w1 = seqrep_width(*t.left());
        const std::size_t w2 = seqrep_width(*t.right());
        Regs side1(w1), side2(w2);
        for (auto& r : side1) r = fresh();
        for (auto& r : side2) r = fresh();
        auto is_in2 = a_.fresh_label();
        auto join = a_.fresh_label();
        a_.jump_if_empty(tag, is_in2);
        {
          Regs s1 = rep_to_single(*t.left(), slice(in, 1, lw));
          Regs s2 = empty_seqrep(*t.right());
          for (std::size_t i = 0; i < w1; ++i) a_.move(side1[i], s1[i]);
          for (std::size_t i = 0; i < w2; ++i) a_.move(side2[i], s2[i]);
        }
        a_.jump(join);
        a_.bind(is_in2);
        {
          Regs s1 = empty_seqrep(*t.left());
          Regs s2 = rep_to_single(*t.right(),
                                  slice(in, 1 + lw, in.size() - 1 - lw));
          for (std::size_t i = 0; i < w1; ++i) a_.move(side1[i], s1[i]);
          for (std::size_t i = 0; i < w2; ++i) a_.move(side2[i], s2[i]);
        }
        a_.bind(join);
        return concat(concat({flags}, side1), side2);
      }
      case TypeKind::Seq: {
        // REP([u]) = SEQREP(u); as one element: lens = [count].
        Regs inner = in;
        R lens = len_of(probe(inner));
        return concat({lens}, inner);
      }
    }
    throw CompileError("rep_to_single: bad type");
  }

  /// Convert the SEQREP(t) of a one-element sequence back to REP(t)
  /// (traps if the sequence is not a singleton) -- the compiled `get`.
  Regs single_to_rep(const Type& t, const Regs& in) {
    switch (t.kind()) {
      case TypeKind::Unit:
        return {};
      case TypeKind::Nat:
        return {in[0]};
      case TypeKind::Prod: {
        const std::size_t lw = seqrep_width(*t.left());
        Regs l = single_to_rep(*t.left(), slice(in, 0, lw));
        Regs r = single_to_rep(*t.right(), slice(in, lw, in.size() - lw));
        return concat(std::move(l), r);
      }
      case TypeKind::Sum: {
        R flags = in[0];  // [1] or [0]
        const std::size_t lw = seqrep_width(*t.left());
        R tag = fresh();
        a_.select(tag, flags);  // [1] or []
        const std::size_t w1 = rep_width(*t.left());
        const std::size_t w2 = rep_width(*t.right());
        Regs out1(w1), out2(w2);
        for (auto& r : out1) r = fresh();
        for (auto& r : out2) r = fresh();
        auto is_in2 = a_.fresh_label();
        auto join = a_.fresh_label();
        a_.jump_if_empty(tag, is_in2);
        {
          Regs v = single_to_rep(*t.left(), slice(in, 1, lw));
          for (std::size_t i = 0; i < w1; ++i) a_.move(out1[i], v[i]);
          for (std::size_t i = 0; i < w2; ++i) a_.load_empty(out2[i]);
        }
        a_.jump(join);
        a_.bind(is_in2);
        {
          Regs v = single_to_rep(*t.right(),
                                 slice(in, 1 + lw, in.size() - 1 - lw));
          for (std::size_t i = 0; i < w1; ++i) a_.load_empty(out1[i]);
          for (std::size_t i = 0; i < w2; ++i) a_.move(out2[i], v[i]);
        }
        a_.bind(join);
        return concat(concat({tag}, out1), out2);
      }
      case TypeKind::Seq:
        // REP([u]) = SEQREP(u): drop the (checked) singleton lens.
        return slice(in, 1, in.size() - 1);
    }
    throw CompileError("single_to_rep: bad type");
  }

  // ---------------------------------------------------------------------
  // depth-0 emitter
  // ---------------------------------------------------------------------
  Regs emit0(const NsaRef& f, const Regs& in) {
    SiteScope site_scope(*this, f);
    switch (f->kind()) {
      case NsaKind::Id:
        return in;
      case NsaKind::Compose:
        return emit0(f->g(), emit0(f->f(), in));
      case NsaKind::Bang:
        return {};
      case NsaKind::PairF: {
        Regs r = emit0(f->g(), in);
        Regs l = emit0(f->f(), in);
        return concat(std::move(l), r);
      }
      case NsaKind::Pi1:
        return slice(in, 0, rep_width(*f->cod()));
      case NsaKind::Pi2:
        return slice(in, in.size() - rep_width(*f->cod()),
                     rep_width(*f->cod()));
      case NsaKind::In1F: {
        Regs out{konst(1)};
        out = concat(std::move(out), in);
        for (std::size_t i = 0; i < rep_width(*f->cod()->right()); ++i) {
          out.push_back(emptyreg());
        }
        return out;
      }
      case NsaKind::In2F: {
        Regs out{emptyreg()};
        for (std::size_t i = 0; i < rep_width(*f->cod()->left()); ++i) {
          out.push_back(emptyreg());
        }
        return concat(std::move(out), in);
      }
      case NsaKind::SumCase: {
        R tag = in[0];
        const std::size_t lw = rep_width(*f->f()->dom());
        Regs side1 = slice(in, 1, lw);
        Regs side2 = slice(in, 1 + lw, in.size() - 1 - lw);
        const std::size_t ow = rep_width(*f->cod());
        Regs out(ow);
        for (auto& r : out) r = fresh();
        auto is_in2 = a_.fresh_label();
        auto join = a_.fresh_label();
        a_.jump_if_empty(tag, is_in2);
        {
          Regs r1 = emit0(f->f(), side1);
          for (std::size_t i = 0; i < ow; ++i) a_.move(out[i], r1[i]);
        }
        a_.jump(join);
        a_.bind(is_in2);
        {
          Regs r2 = emit0(f->g(), side2);
          for (std::size_t i = 0; i < ow; ++i) a_.move(out[i], r2[i]);
        }
        a_.bind(join);
        return out;
      }
      case NsaKind::Dist: {
        // ((t1+t2) x u)  ->  (t1 x u) + (t2 x u): pure register shuffling;
        // the u registers are shared by both (read-only) sides.
        const Type& sum_t = *f->dom()->left();
        const std::size_t w1 = rep_width(*sum_t.left());
        const std::size_t w2 = rep_width(*sum_t.right());
        const std::size_t wu = rep_width(*f->dom()->right());
        R tag = in[0];
        Regs s1 = slice(in, 1, w1);
        Regs s2 = slice(in, 1 + w1, w2);
        Regs u = slice(in, 1 + w1 + w2, wu);
        return concat(concat(concat({tag}, s1), u), concat(s2, u));
      }
      case NsaKind::Omega: {
        emit_unconditional_trap();
        Regs out(rep_width(*f->cod()));
        for (auto& r : out) r = emptyreg();
        return out;
      }
      case NsaKind::ConstNat:
        return {konst(f->imm())};
      case NsaKind::Arith:
        return {arith(f->aop(), in[0], in[1])};
      case NsaKind::EqF: {
        R tag = fresh();
        a_.select(tag, eq_bits(in[0], in[1]));
        return {tag};
      }
      case NsaKind::EmptySeq:
        return empty_seqrep(*f->cod()->elem());
      case NsaKind::SingletonF:
        return rep_to_single(*f->dom(), in);
      case NsaKind::AppendF: {
        // Whole-sequence concatenation is register-wise append.
        const std::size_t w = seqrep_width(*f->cod()->elem());
        Regs out;
        for (std::size_t i = 0; i < w; ++i) {
          out.push_back(append(in[i], in[w + i]));
        }
        return out;
      }
      case NsaKind::FlattenF:
        return slice(in, 1, in.size() - 1);  // drop the outer lengths
      case NsaKind::LengthF:
        return {len_of(probe(in))};
      case NsaKind::GetF: {
        R cnt = len_of(probe(in));
        trap_if_any(inv_bits(eq_bits(cnt, konst(1))));
        return single_to_rep(*f->cod(), in);
      }
      case NsaKind::MapF: {
        return emitL(f->f(), in);
      }
      case NsaKind::ZipF: {
        const std::size_t lw = seqrep_width(*f->dom()->left()->elem());
        Regs aregs = slice(in, 0, lw);
        Regs bregs = slice(in, lw, in.size() - lw);
        R nb = len_of(probe(bregs));
        R na = len_of(probe(aregs));
        trap_if_any(inv_bits(eq_bits(na, nb)));
        return concat(std::move(aregs), bregs);
      }
      case NsaKind::EnumerateF:
        return {enum_of(probe(in))};
      case NsaKind::SplitF: {
        const std::size_t tw = seqrep_width(*f->dom()->left()->elem());
        Regs data = slice(in, 0, tw);
        R sizes = in[tw];
        R n = len_of(probe(data));
        trap_if_any(inv_bits(eq_bits(vec_total(sizes), n)));
        return concat({sizes}, data);
      }
      case NsaKind::P2: {
        const Type& s = *f->dom()->left();
        const std::size_t sw = rep_width(s);
        Regs sregs = slice(in, 0, sw);
        Regs tregs = slice(in, sw, in.size() - sw);
        Regs single = rep_to_single(s, sregs);
        R n = len_of(probe(tregs));
        R times = n;  // one entry: replicate the single element n times
        R segs = ones_like(single[0]);  // [1]
        Regs sexp = replicate_seq(s, single, times, probe(tregs), segs);
        return concat(std::move(sexp), tregs);
      }
      case NsaKind::WhileF: {
        const std::size_t w = rep_width(*f->cod());
        Regs state(w);
        for (auto& r : state) r = fresh();
        for (std::size_t i = 0; i < w; ++i) a_.move(state[i], in[i]);
        auto top = a_.fresh_label();
        auto exit = a_.fresh_label();
        a_.bind(top);
        Regs tag = emit0(f->f(), state);  // REP(B) = one [1]/[] register
        a_.jump_if_empty(tag[0], exit);
        Regs next = emit0(f->g(), state);
        for (std::size_t i = 0; i < w; ++i) a_.move(state[i], next[i]);
        a_.jump(top);
        a_.bind(exit);
        return state;
      }
    }
    throw CompileError("emit0: unknown combinator");
  }

  // ---------------------------------------------------------------------
  // lifted emitter (the Map Lemma)
  // ---------------------------------------------------------------------
  Regs emitL(const NsaRef& f, const Regs& in) {
    SiteScope site_scope(*this, f);
    switch (f->kind()) {
      case NsaKind::Id:
        return in;
      case NsaKind::Compose:
        return emitL(f->g(), emitL(f->f(), in));
      case NsaKind::Bang:
        return {zeros_like(probe(in))};
      case NsaKind::PairF: {
        Regs r = emitL(f->g(), in);
        Regs l = emitL(f->f(), in);
        return concat(std::move(l), r);
      }
      case NsaKind::Pi1:
        return slice(in, 0, seqrep_width(*f->cod()));
      case NsaKind::Pi2:
        return slice(in, in.size() - seqrep_width(*f->cod()),
                     seqrep_width(*f->cod()));
      case NsaKind::In1F: {
        Regs out{ones_like(probe(in))};
        out = concat(std::move(out), in);
        return concat(std::move(out), empty_seqrep(*f->cod()->right()));
      }
      case NsaKind::In2F: {
        Regs out{zeros_like(probe(in))};
        out = concat(std::move(out), empty_seqrep(*f->cod()->left()));
        return concat(std::move(out), in);
      }
      case NsaKind::SumCase: {
        // Both sides arrive packed; run both branches, then re-interleave.
        R flags = in[0];
        const std::size_t lw = seqrep_width(*f->f()->dom());
        Regs r1 = emitL(f->f(), slice(in, 1, lw));
        Regs r2 = emitL(f->g(), slice(in, 1 + lw, in.size() - 1 - lw));
        return combine_seq(*f->cod(), flags, r1, r2);
      }
      case NsaKind::Dist: {
        const Type& sum_t = *f->dom()->left();
        const Type& u = *f->dom()->right();
        const std::size_t w1 = seqrep_width(*sum_t.left());
        const std::size_t w2 = seqrep_width(*sum_t.right());
        const std::size_t wu = seqrep_width(u);
        R flags = in[0];
        Regs s1 = slice(in, 1, w1);
        Regs s2 = slice(in, 1 + w1, w2);
        Regs uregs = slice(in, 1 + w1 + w2, wu);
        Regs u1 = pack_seq(u, uregs, flags);
        Regs u2 = pack_seq(u, uregs, inv_bits(flags));
        return concat(concat(concat({flags}, s1), u1), concat(s2, u2));
      }
      case NsaKind::Omega: {
        trap_if_nonempty(probe(in));  // map(omega)([]) = [] is fine
        Regs out(seqrep_width(*f->cod()));
        for (auto& r : out) r = emptyreg();
        return out;
      }
      case NsaKind::ConstNat:
        return {broadcast(konst(f->imm()), probe(in))};
      case NsaKind::Arith:
        return {arith(f->aop(), in[0], in[1])};
      case NsaKind::EqF: {
        R bits = eq_bits(in[0], in[1]);
        R inv = inv_bits(bits);
        // SEQREP(B): flags ++ zeros-per-true ++ zeros-per-false.
        R lz = pack_vec(zeros_like(bits), bits);
        R rz = pack_vec(zeros_like(bits), inv);
        return {bits, lz, rz};
      }
      case NsaKind::EmptySeq:
        // n elements, each the empty sequence: lengths = the unit zeros.
        return concat({in[0]}, empty_seqrep(*f->cod()->elem()));
      case NsaKind::SingletonF:
        return concat({ones_like(probe(in))}, in);
      case NsaKind::AppendF: {
        const Type& elem = *f->cod()->elem();
        const std::size_t w = 1 + seqrep_width(elem);
        R l1 = in[0];
        Regs i1 = slice(in, 1, w - 1);
        R l2 = in[w];
        Regs i2 = slice(in, w + 1, w - 1);
        R nl = arith(ArithOp::Add, l1, l2);
        // Alternating flags [1,0,1,0,...] over 2n slots select l1/l2.
        R two_n = append(l1, l2);
        R e = enum_of(two_n);
        R half = arith(ArithOp::Rsh, e, ones_like(e));
        R m2 = arith(ArithOp::Monus, e,
                     arith(ArithOp::Mul, half, broadcast(konst(2), e)));
        R evenbits = inv_bits(m2);
        R il = combine_vec(evenbits, l1, l2);
        R pr = append(probe(i1), probe(i2));
        R eflags = fresh();
        a_.bm_route(eflags, pr, il, evenbits);
        Regs ni = combine_seq(elem, eflags, i1, i2);
        return concat({nl}, ni);
      }
      case NsaKind::FlattenF: {
        R l1 = in[0];
        R l2 = in[1];
        Regs inner = slice(in, 2, in.size() - 2);
        return concat({seg_sum(l1, l2)}, inner);
      }
      case NsaKind::LengthF:
        return {in[0]};
      case NsaKind::GetF: {
        R lens = in[0];
        trap_if_any(inv_bits(eq_bits(lens, ones_like(lens))));
        return slice(in, 1, in.size() - 1);
      }
      case NsaKind::MapF: {
        // One descriptor level deeper; the lengths pass through.
        Regs inner = slice(in, 1, in.size() - 1);
        return concat({in[0]}, emitL(f->f(), inner));
      }
      case NsaKind::ZipF: {
        const std::size_t lw = 1 + seqrep_width(*f->dom()->left()->elem());
        R l1 = in[0];
        Regs i1 = slice(in, 1, lw - 1);
        R l2 = in[lw];
        Regs i2 = slice(in, lw + 1, in.size() - lw - 1);
        trap_if_any(inv_bits(eq_bits(l1, l2)));
        return concat(concat({l1}, i1), i2);
      }
      case NsaKind::EnumerateF: {
        R lens = in[0];
        Regs inner = slice(in, 1, in.size() - 1);
        return {lens, seg_enum(lens, probe(inner))};
      }
      case NsaKind::SplitF: {
        const std::size_t tw = 1 + seqrep_width(*f->dom()->left()->elem());
        R lt = in[0];
        Regs it = slice(in, 1, tw - 1);
        R ln = in[tw];
        R dn = in[tw + 1];
        trap_if_any(inv_bits(eq_bits(seg_sum(ln, dn), lt)));
        return concat({ln, dn}, it);
      }
      case NsaKind::P2: {
        const Type& s = *f->dom()->left();
        const std::size_t sw = seqrep_width(s);
        Regs sregs = slice(in, 0, sw);
        R lens = in[sw];
        Regs tregs = slice(in, sw + 1, in.size() - sw - 1);
        Regs sexp = replicate_seq(s, sregs, lens, probe(tregs),
                                  ones_like(probe(sregs)));
        return concat(concat({lens}, sexp), tregs);
      }
      case NsaKind::WhileF: {
        switch (sched_.kind) {
          case opt::WhileScheduleKind::Naive:
            return emit_while_naive(f, in);
          case opt::WhileScheduleKind::Eager:
            return emit_while_buffered(f, in, /*staged=*/false);
          case opt::WhileScheduleKind::Staged:
            return emit_while_buffered(f, in, /*staged=*/true);
        }
        throw CompileError("emitL: bad while schedule");
      }
    }
    throw CompileError("emitL: unknown combinator");
  }

  // ---------------------------------------------------------------------
  // lifted while schedules (Lemma 7.2's while case)
  // ---------------------------------------------------------------------

  /// Naive schedule: pack the still-running elements, step them,
  /// interleave back -- every iteration touches all n slots once.
  Regs emit_while_naive(const NsaRef& f, const Regs& in) {
    const Type& t = *f->cod();
    const std::size_t w = seqrep_width(t);
    Regs state(w);
    for (auto& r : state) r = fresh();
    for (std::size_t i = 0; i < w; ++i) a_.move(state[i], in[i]);
    auto top = a_.fresh_label();
    auto exit = a_.fresh_label();
    a_.bind(top);
    Regs pflags = emitL(f->f(), state);  // SEQREP(B): bits first
    R bits = pflags[0];
    R sel = fresh();
    a_.select(sel, bits);
    a_.jump_if_empty(sel, exit);
    Regs active = pack_seq(t, state, bits);
    Regs idle = pack_seq(t, state, inv_bits(bits));
    Regs stepped = emitL(f->g(), active);
    Regs merged = combine_seq(t, bits, stepped, idle);
    for (std::size_t i = 0; i < w; ++i) a_.move(state[i], merged[i]);
    a_.jump(top);
    a_.bind(exit);
    return state;
  }

  /// Emit code computing [2^ceil((num/den) * ceil_log2(n))] into dst --
  /// the integer pow_eps of support/checked.hpp, evaluated at run time
  /// from the singleton [n] in nr ([1] when n <= 1).  Uses only the
  /// machine's arithmetic set; 2^e is a doubling loop since the BVRAM has
  /// no left shift.
  void emit_pow_eps(R dst, R nr, Rational eps) {
    R e = fresh();
    auto small = a_.fresh_label();
    auto have_e = a_.fresh_label();
    R nm1 = arith(ArithOp::Monus, nr, konst(1));
    R nsel = fresh();
    a_.select(nsel, nm1);
    a_.jump_if_empty(nsel, small);
    {
      // ceil_log2(n) = log2(n-1) + 1 for n >= 2 (machine log2 = floor).
      R one = konst(1);
      R lg = arith(ArithOp::Add, arith(ArithOp::Log2, nm1, nm1), one);
      R num = konst(eps.num);
      R den = konst(eps.den);
      R den_m1 = arith(ArithOp::Monus, den, konst(1));
      R up = arith(ArithOp::Add, arith(ArithOp::Mul, lg, num), den_m1);
      a_.move(e, arith(ArithOp::Div, up, den));
      a_.jump(have_e);
    }
    a_.bind(small);
    a_.load_const(e, 0);
    a_.bind(have_e);
    a_.load_const(dst, 1);
    R two = konst(2);
    R one = konst(1);
    R esel = fresh();
    auto ptop = a_.fresh_label();
    auto pdone = a_.fresh_label();
    a_.bind(ptop);
    a_.select(esel, e);
    a_.jump_if_empty(esel, pdone);
    a_.arith(dst, ArithOp::Mul, dst, two);
    a_.arith(e, ArithOp::Monus, e, one);
    a_.jump(ptop);
    a_.bind(pdone);
  }

  /// Eager / staged schedule.  The loop keeps only the still-running
  /// elements in `act`; a round in which something finishes is *logged*:
  /// the finished elements are packed out and appended to the V1 archive
  /// a1 (flushed into the V2 archive a2 at the staged thresholds), and the
  /// round's pack flags / active count are appended to the parallel V1/V2
  /// logs bl*/ll* (fb records how many logged rounds each flush moved).
  /// Rounds in which nothing finishes touch nothing but the active set.
  ///
  /// On exit the original element order is restored by replaying the
  /// logged packs backwards: popping the most recent round's flags and
  /// extracted elements off the archive tails and interleaving with
  /// combine_seq exactly inverts that round's pack_seq, so the final state
  /// is bit-identical to the naive schedule's.  The replay consumes the
  /// buffers in the same staged pattern the forward pass filled them (tail
  /// pops from V1; one V2 tail split per flush), so restoration costs no
  /// more than the forward staging did.
  ///
  /// Eager is the same machine with thr = stepf = [1]: V1 flushes into the
  /// V2 archive on every extraction round (the accumulator-touching
  /// ablation baseline of bench_seqwhile).  For a given schedule the
  /// register file is identical across eps values; only threshold
  /// constants change (eager skips the threshold computation, so its file
  /// is slightly smaller than staged's).
  Regs emit_while_buffered(const NsaRef& f, const Regs& in, bool staged) {
    const Type& t = *f->cod();
    const std::size_t w = seqrep_width(t);

    // Fixed (loop-carried) registers.
    Regs act(w), a1(w), a2(w), S(w);
    for (auto& r : act) r = fresh();
    for (auto& r : a1) r = fresh();
    for (auto& r : a2) r = fresh();
    for (auto& r : S) r = fresh();
    R bl1 = fresh(), bl2 = fresh();  // pack-flag logs (V1 / V2)
    R ll1 = fresh(), ll2 = fresh();  // per-logged-round active-count logs
    R fb = fresh();                  // per-flush logged-round counts
    R cnt = fresh(), thr = fresh(), stepf = fresh();

    for (std::size_t i = 0; i < w; ++i) a_.move(act[i], in[i]);
    for (std::size_t i = 0; i < w; ++i) a_.load_empty(a1[i]);
    for (std::size_t i = 0; i < w; ++i) a_.load_empty(a2[i]);
    a_.load_empty(bl1);
    a_.load_empty(bl2);
    a_.load_empty(ll1);
    a_.load_empty(ll2);
    a_.load_empty(fb);
    a_.load_const(cnt, 0);
    if (staged) {
      emit_pow_eps(stepf, len_of(probe(act)), sched_.eps);
    } else {
      a_.load_const(stepf, 1);
    }
    a_.move(thr, stepf);

    auto top = a_.fresh_label();
    auto step_l = a_.fresh_label();
    auto restore = a_.fresh_label();

    // Rotated entry guard: the emptiness test runs once, *outside* the
    // loop.  It would be redundant on later iterations anyway -- the
    // step preserves the active count and the extraction path re-checks
    // before looping -- and keeping it out of the body makes the
    // predicate block the loop header, so the optimizer's LICM can move
    // the per-iteration invariant code of the predicate into a
    // preheader that empty-population entries never execute.
    a_.jump_if_empty(probe(act), restore);
    a_.bind(top);
    Regs pflags = emitL(f->f(), act);  // SEQREP(B): bits first
    R bits = pflags[0];
    R fin = inv_bits(bits);
    R fsel = fresh();
    a_.select(fsel, fin);
    a_.jump_if_empty(fsel, step_l);  // nothing finished this round
    {
      // Extract the finished elements and log the round.
      Regs extr = pack_seq(t, act, fin);
      Regs surv = pack_seq(t, act, bits);
      a_.append(ll1, ll1, len_of(bits));
      a_.append(bl1, bl1, bits);
      a_.arith(cnt, ArithOp::Add, cnt, len_of(probe(extr)));
      for (std::size_t i = 0; i < w; ++i) a_.append(a1[i], a1[i], extr[i]);
      for (std::size_t i = 0; i < w; ++i) a_.move(act[i], surv[i]);
      // Flush V1 -> V2 once the extracted total reaches the threshold.
      R below = arith(ArithOp::Monus, thr, cnt);
      R bsel = fresh();
      a_.select(bsel, below);
      auto flush_l = a_.fresh_label();
      auto no_flush = a_.fresh_label();
      a_.jump_if_empty(bsel, flush_l);
      a_.jump(no_flush);
      a_.bind(flush_l);
      a_.append(fb, fb, len_of(ll1));
      a_.append(bl2, bl2, bl1);
      a_.load_empty(bl1);
      a_.append(ll2, ll2, ll1);
      a_.load_empty(ll1);
      for (std::size_t i = 0; i < w; ++i) {
        a_.append(a2[i], a2[i], a1[i]);
        a_.load_empty(a1[i]);
      }
      a_.arith(thr, ArithOp::Mul, thr, stepf);
      a_.bind(no_flush);
      a_.jump_if_empty(probe(act), restore);  // everything finished
    }
    a_.bind(step_l);
    Regs next = emitL(f->g(), act);
    for (std::size_t i = 0; i < w; ++i) a_.move(act[i], next[i]);
    a_.jump(top);

    // -- exit: replay the logged packs backwards to restore the order --
    a_.bind(restore);
    for (std::size_t i = 0; i < w; ++i) a_.load_empty(S[i]);
    auto replay_top = a_.fresh_label();
    auto refill = a_.fresh_label();
    auto replay_done = a_.fresh_label();

    a_.bind(replay_top);
    a_.jump_if_empty(ll1, refill);
    {
      // Pop the most recent logged round off the V1 logs and archive.
      R ak = last_of(ll1);
      a_.move(ll1, drop_last(ll1));
      R tb = tail_bits(bl1, ak);
      R bits_k = pack_vec(bl1, tb);
      a_.move(bl1, pack_vec(bl1, inv_bits(tb)));
      // The round extracted one element per zero flag.
      R ek = ones_count(inv_bits(bits_k));
      R etb = tail_bits(probe(a1), ek);
      Regs extr = pack_seq(t, a1, etb);
      Regs head = pack_seq(t, a1, inv_bits(etb));
      for (std::size_t i = 0; i < w; ++i) a_.move(a1[i], head[i]);
      // Invert the round's pack: the already-restored suffix state S holds
      // the round's survivors (flag 1), extr its finished (flag 0).
      Regs merged = combine_seq(t, bits_k, S, extr);
      for (std::size_t i = 0; i < w; ++i) a_.move(S[i], merged[i]);
    }
    a_.jump(replay_top);

    a_.bind(refill);
    a_.jump_if_empty(fb, replay_done);
    {
      // Pull the most recent flush chunk from the V2 logs into the (now
      // empty) V1 registers.
      R nr = last_of(fb);
      a_.move(fb, drop_last(fb));
      R ltb = tail_bits(ll2, nr);
      a_.move(ll1, pack_vec(ll2, ltb));
      a_.move(ll2, pack_vec(ll2, inv_bits(ltb)));
      R sb = vec_total(ll1);  // total flags logged in the chunk
      R btb = tail_bits(bl2, sb);
      a_.move(bl1, pack_vec(bl2, btb));
      a_.move(bl2, pack_vec(bl2, inv_bits(btb)));
      R ec = arith(ArithOp::Monus, sb, ones_count(bl1));
      R atb = tail_bits(probe(a2), ec);
      Regs chunk = pack_seq(t, a2, atb);
      Regs rest = pack_seq(t, a2, inv_bits(atb));
      for (std::size_t i = 0; i < w; ++i) a_.move(a1[i], chunk[i]);
      for (std::size_t i = 0; i < w; ++i) a_.move(a2[i], rest[i]);
    }
    a_.jump(replay_top);

    a_.bind(replay_done);
    return S;
  }

  Assembler a_;
  opt::WhileSchedule sched_;
  obs::DebugTable dbg_;
};

}  // namespace

bvram::Program compile_nsa(const nsa::NsaRef& f, opt::OptLevel opt,
                           const opt::WhileSchedule& sched,
                           opt::PipelineStats* stats) {
  Compiler c(sched);
  bvram::Program p = c.compile(f);
  opt::PipelineStats s = opt::optimize(p, opt);
  if (stats != nullptr) *stats = std::move(s);
  // Attach the per-instruction last-use masks as the final step: the
  // execution engine uses them to recycle dead operand buffers
  // (Move-as-swap, in-place kernels) without touching the T/W accounting.
  opt::annotate_last_use(p);
  return p;
}

bvram::Program compile_nsc(const lang::FuncRef& f, opt::OptLevel opt,
                           const opt::WhileSchedule& sched,
                           opt::PipelineStats* stats) {
  return compile_nsa(nsa::from_closed_func(f), opt, sched, stats);
}

CompiledRun run_compiled(const bvram::Program& program, const TypeRef& dom,
                         const TypeRef& cod, const ValueRef& arg,
                         const bvram::RunConfig& cfg, bvram::RunResult* raw) {
  auto inputs = encode_value(arg, dom);
  auto result = bvram::run(program, inputs, cfg);
  CompiledRun out;
  out.value = decode_value(cod, result.outputs);
  out.cost = result.cost;
  if (raw != nullptr) *raw = std::move(result);
  return out;
}

}  // namespace nsc::sa
