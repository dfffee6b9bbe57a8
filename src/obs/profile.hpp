// Report layer over the execution engine's profiler (bvram::RunConfig::
// profile): aggregates the per-instruction samples in bvram::RunResult
// into the views the `nscc profile` subcommand renders --
//
//   by_opcode   flat profile per BVRAM opcode
//   by_line     per surface source line, through the Program's debug
//               table (instruction -> NSA combinator -> front::SrcLoc)
//   by_loop     natural back-edge loops (a backwards Goto/GotoIfEmpty),
//               with trip counts and the cost of the loop body range
//
// plus the one Chrome trace_event writer (chrome://tracing / Perfetto),
// write_chrome_trace, which renders spans: the request spans of the
// serve path, and the optimizer passes and executed instructions that
// timeline_spans lays out for a profiled run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "bvram/machine.hpp"
#include "opt/opt.hpp"

namespace nsc::obs {

struct Provenance;  // obs/provenance.hpp

struct ProfileRow {
  std::string key;  ///< opcode name, or "line:col", or a site label
  std::uint64_t count = 0;    ///< instructions executed
  std::uint64_t wall_ns = 0;  ///< total wall time
  std::uint64_t work = 0;     ///< paper W charged
  std::uint64_t bytes = 0;    ///< cost-model traffic (8 bytes per W unit)
};

struct LoopRow {
  std::size_t head = 0;  ///< loop entry pc (the back edge's target)
  std::size_t back = 0;  ///< pc of the backwards jump
  std::string site;      ///< debug site of the back edge
  std::uint64_t trips = 0;    ///< times the back-edge instruction ran
  std::uint64_t wall_ns = 0;  ///< total time spent in [head, back]
  std::uint64_t work = 0;     ///< total W charged in [head, back]
};

struct Profile {
  std::uint64_t total_count = 0;
  std::uint64_t total_wall_ns = 0;
  std::uint64_t total_work = 0;
  std::uint64_t total_bytes = 0;
  /// Fraction of *executed* instructions carrying surface attribution
  /// (count-weighted, the CI gate's number).
  double attributed_frac = 0.0;
  std::vector<ProfileRow> by_opcode;  ///< sorted hottest-first
  std::vector<ProfileRow> by_line;    ///< sorted hottest-first
  std::vector<LoopRow> by_loop;       ///< sorted hottest-first
  bvram::EngineProfile engine;

  /// Aggregate a profiled run (requires cfg.profile; result.profile must
  /// be sized to p.code).  Rows are sorted by wall time, work breaking
  /// ties (so the ordering is deterministic when wall times are zero).
  static Profile build(const bvram::Program& p, const bvram::RunResult& r);

  std::string render_by_opcode() const;
  std::string render_by_line() const;
  std::string render_loops() const;
  std::string render_engine() const;
};

// -- spans and the Chrome trace -------------------------------------------
//
// The Service records one ServeSpan per request phase (admission,
// queue-wait, compile, batch-assembly, execute, replay, split) into a
// SpanLog; timeline_spans turns a profiled run into the same spans; and
// write_chrome_trace lays either out as a Chrome trace_event timeline.

/// One timed span: a serve phase, an optimizer pass or an executed
/// instruction.
struct ServeSpan {
  /// The trace event's name.  Serve phases are the stable strings
  /// "admission", "queue-wait", "compile", "cache-hit", "batch-assembly",
  /// "execute", "replay" and "split"; a profile names a pass or an opcode.
  std::string phase;
  std::uint64_t request_id = 0;  ///< 0 for batch-level / service-level spans
  std::uint64_t batch_id = 0;    ///< machine-run id; 0 = none (e.g. compile)
  /// Trace row.  Serve: 0 = caller thread, 1.. = worker threads.
  std::size_t worker = 0;
  std::uint64_t t0_ns = 0;  ///< since the timeline's origin (SpanLog::now_ns)
  std::uint64_t dur_ns = 0;
  /// Payload: batch size, queue depth, a pass's instructions removed, an
  /// instruction's W charged, ...
  std::uint64_t size = 0;
  /// "" = none; else a failed run's "<outcome>: <error>", a failed
  /// batch's error, "rejected", a compile/cache-hit's program name, or an
  /// executed instruction's debug site.
  std::string note;
};

/// The timeline of a profiled run (requires cfg.profile and
/// cfg.record_trace).  Row 0: one span per pass of `compile` (when
/// non-null), back to back, sized by the instructions it removed.  Row 1:
/// one span per executed instruction, named by its opcode, noted with its
/// debug site and sized by the W it charged.  An instruction lasts its
/// pc's average wall time (at least 1 ns), so the relative widths are
/// faithful even though single samples are too short for the clock.
std::vector<ServeSpan> timeline_spans(const bvram::Program& p,
                                      const bvram::RunResult& r,
                                      const opt::PipelineStats* compile);

struct SpanLogStats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;  ///< record() calls refused at capacity
  std::size_t queued = 0;
  std::size_t capacity = 0;
};

/// Bounded, thread-safe span sink: a full log drops new spans and counts
/// the drops, so a saturated sink degrades telemetry, never the request
/// path.  now_ns() gives producers a shared monotonic origin so spans
/// from different threads align.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = std::size_t{1} << 16);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t now_ns() const;  ///< nanoseconds since construction
  void record(ServeSpan s);
  std::vector<ServeSpan> drain();
  SpanLogStats stats() const;

 private:
  const std::uint64_t origin_ns_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<ServeSpan> spans_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Chrome trace_event JSON for a set of spans.  `rows` names the trace
/// rows up front (metadata events; a row's tid is its index), and a span
/// lands on row ServeSpan::worker as a complete event.  A "queue-wait"
/// span is an async begin/end pair on row 0 instead (queued requests
/// overlap), with a flow arrow into the earliest span of the run that
/// answered it.  When `prov` is non-null the provenance is embedded in
/// otherData so the trace is self-describing.
void write_chrome_trace(std::ostream& out, const std::vector<ServeSpan>& spans,
                        const std::vector<std::string>& rows,
                        const Provenance* prov = nullptr);

}  // namespace nsc::obs
