// Debug-information substrate for the observability layer (src/obs/).
//
// A compiled bvram::Program carries a DebugTable: an interned list of
// DebugSites, each naming the NSA combinator a run of instructions was
// emitted for and the surface .nsc position (1-based line:col) that
// combinator was translated from.  Every bvram::Instr holds a site index
// (`dbg`; 0 is the reserved "unknown" site), so any executed instruction
// can be blamed on a source line -- the empirical mirror of the paper's
// per-combinator work accounting.
//
// Invariants for pass authors (enforced by tests/test_profile.cpp and the
// CI profile-smoke attribution gate):
//   * The site index travels INSIDE Instr.  A pass that deletes, moves,
//     or copies whole instructions (erase_unkept / insert_before / in-place
//     field rewrites) preserves attribution for free.
//   * A pass that REPLACES an instruction's operation in place (GVN's
//     fuse-to-Move and its folds) must keep the slot's existing `dbg` --
//     the rewritten instruction still does that source line's job.
//   * A pass that synthesizes a genuinely new instruction should copy
//     `dbg` from the instruction it was derived from; only when there is
//     no such instruction may it use site 0.
//
// This header is a dependency leaf (strings and vectors only) so that
// bvram/machine.hpp can include it without entangling the machine model
// with the frontend.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace nsc::obs {

/// One attribution target: an NSA combinator (by name) at a surface
/// source position.  line == 0 means "no surface attribution".
struct DebugSite {
  std::string nsa;         ///< originating NSA combinator, e.g. "map", "while"
  std::uint32_t line = 0;  ///< 1-based surface line (0 = unknown)
  std::uint32_t col = 0;   ///< 1-based surface column

  bool has_loc() const { return line != 0; }
  /// "map@12:7", or "?" for the unknown site.
  std::string show() const;
};

/// The interned site list attached to a compiled program.  Index 0 is
/// always the reserved unknown site, so a default-initialized Instr::dbg
/// is valid against any table (including the default-constructed empty
/// one, whose lone entry is the unknown site).
class DebugTable {
 public:
  DebugTable() : sites_(1) {}

  /// Intern (nsa, line, col); returns the site index.  Idempotent.
  std::uint32_t intern(const std::string& nsa, std::uint32_t line,
                       std::uint32_t col);

  /// Site by index; out-of-range indices resolve to the unknown site
  /// (robust against tables detached from their program).
  const DebugSite& site(std::uint32_t idx) const;

  std::size_t size() const { return sites_.size(); }
  const std::vector<DebugSite>& sites() const { return sites_; }

 private:
  std::vector<DebugSite> sites_;
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      index_;
};

}  // namespace nsc::obs
