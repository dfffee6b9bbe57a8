// Structured event log for the serve path: a bounded in-memory queue of
// discrete happenings (a trap, a replay cascade, a cache eviction, a slow
// request) that a consumer drains to a JSONL stream.
//
// Two invariants shape the design:
//
//   * The producer never blocks and never allocates unboundedly.  The
//     queue holds at most `capacity` events; an emit into a full queue
//     DROPS the new event and counts the drop (visible as
//     `dropped_total`), so a saturated service degrades its telemetry,
//     never its request path.  Event construction does allocate (names
//     and field strings) -- events are for *exceptional* happenings at
//     request rate, not per-instruction rate; the per-request steady
//     state is covered by the lock-free metrics registry instead.
//
//   * The log is self-describing.  The first line of a drained JSONL
//     stream is a header object carrying the schema tag, the host/build
//     provenance (obs/provenance.hpp), and the log's capacity; every
//     subsequent line is one event with both a monotonic timestamp
//     (nanoseconds since the log's construction -- subtraction-safe) and
//     a wall-clock timestamp (microseconds since the Unix epoch -- joins
//     against external logs).
//
// Thread safety: emit/drain/counters may be called from any thread; one
// mutex guards the deque (held for a push or a splice, never for IO).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/provenance.hpp"

namespace nsc::obs {

enum class Severity { Debug, Info, Warn, Error };

const char* severity_name(Severity s);

/// One structured event.  Build with the fluent helpers:
///
///   Event("serve.trap", Severity::Warn)
///       .num("request", id).str("error", what)
///
/// Field order is preserved into the JSONL output.
struct Event {
  Event() = default;
  Event(std::string name_, Severity sev_) : name(std::move(name_)), sev(sev_) {}

  Event&& num(const std::string& key, std::uint64_t value) &&;
  Event&& str(const std::string& key, const std::string& value) &&;

  struct Field {
    std::string key;
    std::string value;  ///< pre-rendered; printed raw or escaped+quoted
    bool raw = false;   ///< true for numbers (printed unquoted)
  };

  std::string name;               ///< dotted event type, e.g. "serve.trap"
  Severity sev = Severity::Info;
  std::uint64_t mono_ns = 0;      ///< stamped by EventLog::emit
  std::uint64_t wall_us = 0;      ///< stamped by EventLog::emit
  std::vector<Field> fields;      ///< emission order preserved
};

struct EventLogStats {
  std::uint64_t emitted = 0;  ///< accepted into the queue
  std::uint64_t dropped = 0;  ///< rejected because the queue was full
  std::size_t queued = 0;     ///< currently waiting for a drain
  std::size_t capacity = 0;
};

/// The bounded queue.  Construction pins the monotonic origin; capacity 0
/// means "drop everything" (a cheap way to disable a wired-up log).
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 4096);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Stamp timestamps and enqueue; drops (and counts) when full.
  void emit(Event e);

  /// Remove and return every queued event, in emission order.
  std::vector<Event> drain();

  EventLogStats stats() const;

  /// The JSONL header line (schema nscc-serve-events/v1 + provenance +
  /// capacity + the current drop count), newline-terminated.
  void write_header(std::ostream& out) const;

  /// One event as a single JSONL line, newline-terminated.
  static void write_event(std::ostream& out, const Event& e);

 private:
  const std::size_t capacity_;
  const std::uint64_t mono_origin_ns_;  ///< steady_clock at construction
  mutable std::mutex mu_;
  std::deque<Event> queue_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  Provenance prov_;
};

}  // namespace nsc::obs
