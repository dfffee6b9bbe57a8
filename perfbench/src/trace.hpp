// In-memory span recorder for the traced runs.
//
// Spans are recorded by the benchmark around the public entry points of
// each layer (front::lex, nsa::from_closed_func, opt::optimize,
// bvram::run, ...); nothing inside src/ is
// instrumented.  Each span has a name, start, end, parent span and the id
// of the operation it belongs to.  A layer's self time is its span's
// duration minus the part of that interval its child spans cover.  The
// spans stay in memory and are written out once, as Chrome trace_event
// JSON, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  ///< since the tracer's origin
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into Tracer::spans(); -1 = root
  std::uint64_t op = 0;      ///< operation id shared by one request's spans
};

/// Single-threaded recorder: spans opened on the benchmark thread nest by
/// a stack; spans known only by their duration (the optimizer's per-pass
/// totals) are added whole with add().
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::uint64_t now_ns() const { return ns_between(origin_, Clock::now()); }

  std::size_t open(const std::string& name, std::uint64_t op);
  void close(std::size_t id);
  /// A finished span, parent as given.
  std::size_t add(Span s);

  const std::vector<Span>& spans() const { return spans_; }
  /// Room for `n` spans, so recording allocates nothing until then.
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time of every span, indexed like spans().
  std::vector<std::uint64_t> self_ns() const;

  /// Self time summed by span name over the subtree rooted at `root`.
  std::map<std::string, std::uint64_t> self_by_name(std::size_t root) const;

  /// Chrome trace_event JSON ("X" events, microseconds).
  void write_chrome(std::ostream& out, const std::string& meta_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on the benchmark thread.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t op)
      : t_(t), id_(t.open(name, op)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t id() const { return id_; }

 private:
  Tracer& t_;
  std::size_t id_;
};

}  // namespace perfbench
