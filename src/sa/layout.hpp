// Flat register layouts for the flattening compiler (paper section 7).
//
// A value of NSA type t is laid out as a tuple of BVRAM vector registers:
//
//   REP(unit)      = ()                      -- nothing to store
//   REP(N)         = (v)                     -- singleton vector [n]
//   REP(t1 x t2)   = REP(t1) ++ REP(t2)
//   REP(t1 + t2)   = (tag) ++ REP(t1) ++ REP(t2)
//                    tag = [1] for in1, [] for in2 (so the machine's
//                    `if empty? goto` is exactly boolean branching); the
//                    inactive side's registers are empty.
//   REP([t])       = SEQREP(t)               -- the sequence's elements
//
// and a *sequence* of n elements of type t is laid out segment-descriptor
// style (the paper's SEQ(t), section 7.1):
//
//   SEQREP(unit)    = (z)                    -- n zeros      (SEQ(unit)=[N])
//   SEQREP(N)       = (v)                    -- n values
//   SEQREP(t1 x t2) = SEQREP(t1) ++ SEQREP(t2)
//   SEQREP(t1 + t2) = (flags) ++ SEQREP(t1) ++ SEQREP(t2)
//                    flags = n 0/1 bits; the sides hold the packed in1 /
//                    in2 elements in order                  (SEQ(t+t'))
//   SEQREP([t])     = (lengths) ++ SEQREP(t) -- n segment lengths, then the
//                    concatenated elements                  (SEQ([s]))
//
// Invariant: the *first* register of any SEQREP has length exactly n (the
// element count), so it doubles as a "probe" for the population.
#pragma once

#include <cstdint>
#include <vector>

#include "object/type.hpp"
#include "object/value.hpp"

namespace nsc::sa {

using Vec = std::vector<std::uint64_t>;

/// Number of registers in REP(t) / SEQREP(t).
std::size_t rep_width(const Type& t);
std::size_t seqrep_width(const Type& t);

/// Encode a value of type t into REP(t) vectors (appended to `out`).
void encode_rep(const Value& v, const Type& t, std::vector<Vec>& out);

/// Decode REP(t) / SEQREP(t) back into values.  `at` is advanced past the
/// consumed registers.
ValueRef decode_rep(const Type& t, const std::vector<Vec>& regs,
                    std::size_t& at);
std::vector<ValueRef> decode_seqrep(const Type& t, const std::vector<Vec>& regs,
                                    std::size_t& at);

/// Convenience wrappers.
std::vector<Vec> encode_value(const ValueRef& v, const TypeRef& t);
ValueRef decode_value(const TypeRef& t, const std::vector<Vec>& regs);

}  // namespace nsc::sa
