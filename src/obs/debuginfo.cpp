#include "obs/debuginfo.hpp"

namespace nsc::obs {

std::string DebugSite::show() const {
  if (!has_loc() && nsa.empty()) return "?";
  std::string out = nsa.empty() ? "?" : nsa;
  if (has_loc()) {
    out += '@';
    out += std::to_string(line);
    out += ':';
    out += std::to_string(col);
  }
  return out;
}

std::uint32_t DebugTable::intern(const std::string& nsa, std::uint32_t line,
                                 std::uint32_t col) {
  const auto key = std::make_tuple(nsa, line, col);
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(sites_.size());
  sites_.push_back(DebugSite{nsa, line, col});
  index_.emplace(key, idx);
  return idx;
}

const DebugSite& DebugTable::site(std::uint32_t idx) const {
  return idx < sites_.size() ? sites_[idx] : sites_[0];
}

}  // namespace nsc::obs
