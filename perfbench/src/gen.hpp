// Seeded input generators, one per corpus program.
//
// generate(program, seed, n) returns an argument for the program's `main`
// of about n elements, shaped so that no register of the compiled program
// grows far beyond n.  The shapes matter: with the `nscc bench --scale`
// synthesizer every `[nat]` gets n elements, and the broadcast programs
// (histogram, merge_sorted, nested_join) then build n x n registers.
//
//   histogram                     n/16 values and 4 sorted edges
//   merge_sorted, nested_join     sqrt(n) x sqrt(n)
//   nested_query,
//   segmented_filter_reduce,
//   trap_division                 sqrt(n) segments of sqrt(n)
//   countdown                     n values < 15
//   stragglers                    n values in [1, 15]
//   tokenizer                     n characters of 1-5-digit tokens
//   quickstart, divide_conquer,
//   sqrt_blocks                   n values
//
// The same (program, seed, n, empty_segment) always yields the same value.
//
// Value ranges keep every data-dependent register size (the kept share of
// a filter, a while loop's active set) away from a power of two: the
// engine rounds buffer capacities up to powers of two, so a share of
// exactly 1/2 or 1/4 would give half the seeds registers twice as large
// and make seeds incomparable at 2^18.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "object/value.hpp"

namespace perfbench {

/// The twelve corpus programs the benchmark knows how to feed, in a fixed
/// order (tests/corpus/<name>.nsc).
const std::vector<std::string>& program_names();

/// An argument for `program`'s main of about n elements.  For
/// trap_division, `empty_segment` replaces one segment by an empty one so
/// the run traps (ignored by every other program).  Throws std::invalid_argument
/// for an unknown program name.
nsc::ValueRef generate(const std::string& program, std::uint64_t seed,
                       std::size_t n, bool empty_segment = false);

}  // namespace perfbench
