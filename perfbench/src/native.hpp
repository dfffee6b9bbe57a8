// Hand-written native references for the corpus programs.
//
// The NSC evaluator is the benchmark's oracle, but it needs tens of
// seconds per pass at 2^18 elements, so the execute workload checks its
// large runs against these plain C++ versions instead.  Each follows the
// program's source and the builtin semantics of docs/nsc-language.md
// (saturating naturals, monus, sqrt_split / sqrt_positions block size
// max(1, n >> ((log2 n + 1) / 2)), index_split by monus deltas that must
// sum to the length) -- and shares no code with the compiler or the
// evaluator.  Every run re-checks them against the evaluator on the
// 2^12 inputs and the declared inputs before trusting them at 2^18.
#pragma once

#include <string>

#include "object/value.hpp"

namespace perfbench {

/// What a program does on one input: a value, or the paper's Omega.
struct Outcome {
  bool trapped = false;
  nsc::ValueRef value;  ///< null when trapped
};

/// Run the native reference of `program` (a name from program_names()).
/// Throws std::invalid_argument for an unknown program.
Outcome native_reference(const std::string& program, const nsc::ValueRef& arg);

/// Same value-or-trap on both sides.  Trap messages are not compared:
/// the evaluator and the machine word them differently.
bool same_outcome(const Outcome& a, const Outcome& b);

}  // namespace perfbench
