#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::size_t Tracer::open(const std::string& name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.op = op;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  spans_[id].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::size_t Tracer::add(Span s) {
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

std::vector<std::uint64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals, clipped to the parent.
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = p.end_ns - p.start_ns;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

std::map<std::string, std::uint64_t> Tracer::self_by_name(
    std::size_t root) const {
  const std::vector<std::uint64_t> self = self_ns();
  // Spans are appended after their parents, so one forward pass finds the
  // subtree.
  std::vector<bool> in(spans_.size(), false);
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = root; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    in[i] = i == root ||
            (s.parent >= 0 && in[static_cast<std::size_t>(s.parent)]);
    if (in[i]) out[s.name] += self[i];
  }
  return out;
}

void Tracer::write_chrome(std::ostream& out,
                          const std::string& meta_json) const {
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta_json
      << ", \"traceEvents\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0";
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.start_ns) / 1e3);
    out << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << ", \"dur\": " << buf << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
