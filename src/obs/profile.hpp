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
// plus a Chrome trace_event exporter (chrome://tracing / Perfetto): the
// recorded instruction trace becomes one complete event per executed
// instruction, laid out on a synthetic timeline built from the per-pc
// average wall time, so the relative widths are faithful even though
// individual samples are too short for the clock.
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

/// Emit Chrome trace_event JSON for a profiled run.  Requires both
/// cfg.profile and cfg.record_trace.  When `compile` is non-null, the
/// optimizer's per-pass timings are emitted as a second thread of events
/// ahead of the execution timeline.
void write_chrome_trace(std::ostream& out, const bvram::Program& p,
                        const bvram::RunResult& r,
                        const opt::PipelineStats* compile = nullptr);

// -- serve-path span tracing ---------------------------------------------
//
// The request-path counterpart of the per-instruction profiler: the
// Service records one ServeSpan per request phase (queue-wait, compile,
// batch-assembly, execute, replay, split) into a SpanLog, and
// write_serve_trace lays them out as a Chrome trace_event timeline --
// each service worker is a trace thread, queued requests live on a
// "queue" thread as async events, and flow arrows connect every request's
// queue-wait to the machine run (batch or solo) that answered it.

struct ServeSpan {
  /// Phase names are stable strings (they become trace event names):
  /// "queue-wait", "compile", "cache-hit", "batch-assembly", "execute",
  /// "replay", "split".
  std::string phase;
  std::uint64_t request_id = 0;  ///< 0 for batch-level / service-level spans
  std::uint64_t batch_id = 0;    ///< machine-run id; 0 = none (e.g. compile)
  std::size_t worker = 0;        ///< 0 = caller thread, 1.. = worker threads
  std::uint64_t t0_ns = 0;       ///< monotonic, since the SpanLog's origin
  std::uint64_t dur_ns = 0;
  std::uint64_t size = 0;        ///< payload: batch size, queue depth, ...
  std::string note;              ///< outcome or diagnostic ("" = none)
};

struct SpanLogStats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;  ///< record() calls refused at capacity
  std::size_t queued = 0;
  std::size_t capacity = 0;
};

/// Bounded, thread-safe span sink (same degradation contract as the
/// event log: a full log drops new spans and counts the drops, it never
/// blocks the request path).  now_ns() gives producers a shared
/// monotonic origin so spans from different threads align.
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

/// Chrome trace_event JSON for a set of serve spans.  `workers` names the
/// worker-thread rows up front (metadata events); spans index into them
/// via ServeSpan::worker.  When `prov` is non-null the provenance is
/// embedded in otherData so the trace is self-describing.
void write_serve_trace(std::ostream& out, const std::vector<ServeSpan>& spans,
                       std::size_t workers, const Provenance* prov = nullptr);

}  // namespace nsc::obs
