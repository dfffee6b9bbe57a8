// What is left of elementwise fusion planning.  The pass and the engine's
// fused path were deleted: a fused group ran no faster than the same
// instructions executed one at a time on the compiled corpus, and the
// T/W cost model never saw it.
#pragma once

#include "bvram/machine.hpp"

namespace nsc::opt {

/// Does nothing.  Exists only until a benchmark change retires
/// perfbench's opt.fusion_ms, bvram.fused_instr_frac and
/// bvram.fused_fallback_ratio, which still call it (ROADMAP item 3).
inline void annotate_fusion(bvram::Program&) {}

}  // namespace nsc::opt
