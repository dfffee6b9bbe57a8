#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/provenance.hpp"
#include "support/checked.hpp"
#include "support/json.hpp"

namespace nsc::obs {

namespace {

bool hotter(const ProfileRow& a, const ProfileRow& b) {
  if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
  if (a.work != b.work) return a.work > b.work;
  return a.key < b.key;
}

std::vector<ProfileRow> sorted_rows(std::map<std::string, ProfileRow>&& m) {
  std::vector<ProfileRow> rows;
  rows.reserve(m.size());
  for (auto& [key, row] : m) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), hotter);
  return rows;
}

void accumulate(ProfileRow& row, const bvram::InstrProfile& ip) {
  row.count += ip.count;
  row.wall_ns += ip.wall_ns;
  row.work = sat_add(row.work, ip.work);
  row.bytes = sat_add(row.bytes, ip.bytes);
}

std::string ms(std::uint64_t ns) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3)
      << static_cast<double>(ns) / 1e6;
  return out.str();
}

std::string render_rows(const char* key_header,
                        const std::vector<ProfileRow>& rows,
                        std::uint64_t total_wall) {
  std::ostringstream out;
  out << std::left << std::setw(24) << key_header << std::right
      << std::setw(10) << "count" << std::setw(14) << "work"
      << std::setw(14) << "bytes" << std::setw(12) << "wall(ms)"
      << std::setw(8) << "wall%" << "\n";
  for (const auto& r : rows) {
    const double pct =
        total_wall == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.wall_ns) /
                  static_cast<double>(total_wall);
    out << std::left << std::setw(24) << r.key << std::right << std::setw(10)
        << r.count << std::setw(14) << r.work << std::setw(14) << r.bytes
        << std::setw(12) << ms(r.wall_ns)
        << std::setw(7) << std::fixed << std::setprecision(1) << pct << "%"
        << "\n";
  }
  return out.str();
}

/// Label for an instruction on the timeline: "arith (map@12:7)" when
/// attributed, bare opcode otherwise.
std::string event_name(const bvram::Program& p, std::size_t pc) {
  const DebugSite& site = p.debug.site(p.code[pc].dbg);
  std::string name = bvram::op_name(p.code[pc].op);
  if (site.has_loc() || !site.nsa.empty()) {
    name += " (" + site.show() + ")";
  }
  return name;
}

}  // namespace

Profile Profile::build(const bvram::Program& p, const bvram::RunResult& r) {
  Profile out;
  out.engine = r.engine;
  const std::size_t n = std::min(p.code.size(), r.profile.size());

  std::map<std::string, ProfileRow> by_op;
  std::map<std::string, ProfileRow> by_line;
  std::uint64_t attributed = 0;
  for (std::size_t pc = 0; pc < n; ++pc) {
    const bvram::InstrProfile& ip = r.profile[pc];
    if (ip.count == 0) continue;
    out.total_count += ip.count;
    out.total_wall_ns += ip.wall_ns;
    out.total_work = sat_add(out.total_work, ip.work);
    out.total_bytes = sat_add(out.total_bytes, ip.bytes);

    ProfileRow& op_row = by_op[bvram::op_name(p.code[pc].op)];
    if (op_row.key.empty()) op_row.key = bvram::op_name(p.code[pc].op);
    accumulate(op_row, ip);

    const DebugSite& site = p.debug.site(p.code[pc].dbg);
    std::string line_key = "?";
    if (site.has_loc()) {
      line_key = "line " + std::to_string(site.line) + ":" +
                 std::to_string(site.col);
      attributed += ip.count;
    }
    ProfileRow& line_row = by_line[line_key];
    if (line_row.key.empty()) line_row.key = line_key;
    accumulate(line_row, ip);
  }
  out.attributed_frac =
      out.total_count == 0 ? 1.0
                           : static_cast<double>(attributed) /
                                 static_cast<double>(out.total_count);
  out.by_opcode = sorted_rows(std::move(by_op));
  out.by_line = sorted_rows(std::move(by_line));

  // Natural back-edge loops: a Goto/GotoIfEmpty at `back` targeting
  // head <= back brackets the loop body [head, back].
  for (std::size_t back = 0; back < n; ++back) {
    const bvram::Instr& in = p.code[back];
    if (!in.is_jump() || in.target > back) continue;
    if (back >= r.profile.size() || r.profile[back].count == 0) continue;
    LoopRow loop;
    loop.head = in.target;
    loop.back = back;
    loop.site = p.debug.site(in.dbg).show();
    loop.trips = r.profile[back].count;
    for (std::size_t pc = loop.head; pc <= back; ++pc) {
      loop.wall_ns += r.profile[pc].wall_ns;
      loop.work = sat_add(loop.work, r.profile[pc].work);
    }
    out.by_loop.push_back(std::move(loop));
  }
  std::sort(out.by_loop.begin(), out.by_loop.end(),
            [](const LoopRow& a, const LoopRow& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              if (a.work != b.work) return a.work > b.work;
              return a.head < b.head;
            });
  return out;
}

std::string Profile::render_by_opcode() const {
  return render_rows("opcode", by_opcode, total_wall_ns);
}

std::string Profile::render_by_line() const {
  return render_rows("source line", by_line, total_wall_ns);
}

std::string Profile::render_loops() const {
  std::ostringstream out;
  out << std::left << std::setw(16) << "loop (pc range)" << std::setw(24)
      << "site" << std::right << std::setw(10) << "trips" << std::setw(14)
      << "work" << std::setw(12) << "wall(ms)" << "\n";
  for (const auto& l : by_loop) {
    out << std::left << std::setw(16)
        << (std::to_string(l.head) + ".." + std::to_string(l.back))
        << std::setw(24) << l.site << std::right << std::setw(10) << l.trips
        << std::setw(14) << l.work << std::setw(12) << ms(l.wall_ns) << "\n";
  }
  return out.str();
}

std::string Profile::render_engine() const {
  std::ostringstream out;
  out << "wall " << ms(engine.wall_ns) << "ms"
      << "; pool " << engine.pool_hits << " hits / " << engine.pool_misses
      << " misses; in-place " << engine.inplace_hits << "; move-swaps "
      << engine.move_swaps;
  return out.str();
}

void write_chrome_trace(std::ostream& out, const bvram::Program& p,
                        const bvram::RunResult& r,
                        const opt::PipelineStats* compile) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& name, int tid, double ts_us,
                        double dur_us, const std::string& args) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":"
        << std::fixed << std::setprecision(3) << ts_us << ",\"dur\":"
        << dur_us << ",\"args\":{" << args << "}}";
  };

  double ts = 0.0;
  if (compile != nullptr) {
    for (const auto& ps : compile->passes) {
      const double dur =
          static_cast<double>(ps.wall_ns) / 1e3;  // ns -> us
      emit("opt:" + ps.name, 2, ts, dur,
           "\"applications\":" + std::to_string(ps.applications) +
               ",\"instrs_removed\":" + std::to_string(ps.instrs_removed));
      ts += dur;
    }
    ts = 0.0;  // execution gets its own timeline origin
  }

  // Synthetic execution timeline: each executed instruction gets its pc's
  // average wall time as its duration, so the layout is faithful in the
  // aggregate even when a single sample is below clock resolution.
  for (const auto& te : r.trace) {
    const std::size_t pc = static_cast<std::size_t>(te.instr);
    double dur = 0.001;  // floor: keep zero-cost events visible (1ns)
    if (pc < r.profile.size() && r.profile[pc].count > 0) {
      const double avg_ns = static_cast<double>(r.profile[pc].wall_ns) /
                            static_cast<double>(r.profile[pc].count);
      if (avg_ns / 1e3 > dur) dur = avg_ns / 1e3;
    }
    std::string args = "\"pc\":" + std::to_string(pc) +
                       ",\"work\":" + std::to_string(te.work) +
                       ",\"max_len\":" + std::to_string(te.max_len);
    if (pc < p.code.size()) {
      const DebugSite& site = p.debug.site(p.code[pc].dbg);
      if (site.has_loc()) {
        args += ",\"line\":" + std::to_string(site.line) +
                ",\"col\":" + std::to_string(site.col);
      }
      emit(event_name(p, pc), 1, ts, dur, args);
    } else {
      emit(bvram::op_name(te.op), 1, ts, dur, args);
    }
    ts += dur;
  }
  out << "],\"otherData\":{\"total_work\":" << r.cost.work
      << ",\"total_time_T\":" << r.cost.time << ",\"engine_wall_ns\":"
      << r.engine.wall_ns << "}}";
}

// -- serve-path span tracing ---------------------------------------------

SpanLog::SpanLog(std::size_t capacity)
    : origin_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())),
      capacity_(capacity) {}

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) -
         origin_ns_;
}

void SpanLog::record(ServeSpan s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ++recorded_;
  spans_.push_back(std::move(s));
}

std::vector<ServeSpan> SpanLog::drain() {
  std::vector<ServeSpan> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(spans_);
  return out;
}

SpanLogStats SpanLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanLogStats s;
  s.recorded = recorded_;
  s.dropped = dropped_;
  s.queued = spans_.size();
  s.capacity = capacity_;
  return s;
}

void write_serve_trace(std::ostream& out, const std::vector<ServeSpan>& spans,
                       std::size_t workers, const Provenance* prov) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };

  // Thread rows: tid 0 is the queue (submitted-but-unclaimed requests as
  // async events), tid 1..workers are the service workers, and compile /
  // cache spans from caller threads keep tid 0 too (they run before any
  // request is in flight on that program).
  const auto thread_name = [&](std::size_t tid, const std::string& name) {
    comma();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << json::escape(name) << "\"}}";
  };
  thread_name(0, "queue");
  for (std::size_t w = 1; w <= workers; ++w) {
    thread_name(w, "worker " + std::to_string(w));
  }

  // Index: batch id -> the earliest worker-side span of that machine run,
  // the landing point for every member request's flow arrow.
  struct Landing {
    std::uint64_t t0_ns = 0;
    std::size_t worker = 0;
    bool set = false;
  };
  std::unordered_map<std::uint64_t, Landing> landing;
  for (const ServeSpan& s : spans) {
    if (s.batch_id == 0 || s.phase == "queue-wait") continue;
    Landing& l = landing[s.batch_id];
    if (!l.set || s.t0_ns < l.t0_ns) {
      l.t0_ns = s.t0_ns;
      l.worker = s.worker;
      l.set = true;
    }
  }

  const auto span_args = [&](const ServeSpan& s) {
    std::string args;
    if (s.request_id != 0) {
      args += "\"request\":" + std::to_string(s.request_id);
    }
    if (s.batch_id != 0) {
      if (!args.empty()) args += ",";
      args += "\"run\":" + std::to_string(s.batch_id);
    }
    if (s.size != 0) {
      if (!args.empty()) args += ",";
      args += "\"size\":" + std::to_string(s.size);
    }
    if (!s.note.empty()) {
      if (!args.empty()) args += ",";
      args += "\"note\":\"" + json::escape(s.note) + "\"";
    }
    return args;
  };

  out << std::fixed << std::setprecision(3);
  for (const ServeSpan& s : spans) {
    const double t0_us = static_cast<double>(s.t0_ns) / 1e3;
    const double dur_us = static_cast<double>(s.dur_ns) / 1e3;
    if (s.phase == "queue-wait") {
      // Queued requests overlap arbitrarily, so they live on the queue
      // row as async begin/end pairs (ids keep concurrent waits apart).
      comma();
      out << "{\"name\":\"queue-wait\",\"cat\":\"queue\",\"ph\":\"b\","
             "\"id\":" << s.request_id
          << ",\"pid\":1,\"tid\":0,\"ts\":" << t0_us << ",\"args\":{"
          << span_args(s) << "}}";
      comma();
      out << "{\"name\":\"queue-wait\",\"cat\":\"queue\",\"ph\":\"e\","
             "\"id\":" << s.request_id
          << ",\"pid\":1,\"tid\":0,\"ts\":" << t0_us + dur_us << "}";
      // Flow arrow: this request's wait flows into the machine run
      // (batch or solo) that answered it.
      const auto l = landing.find(s.batch_id);
      if (s.batch_id != 0 && l != landing.end() && l->second.set) {
        comma();
        out << "{\"name\":\"batch\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":"
            << s.request_id << ",\"pid\":1,\"tid\":0,\"ts\":"
            << t0_us + dur_us << "}";
        comma();
        out << "{\"name\":\"batch\",\"cat\":\"flow\",\"ph\":\"f\","
               "\"bp\":\"e\",\"id\":" << s.request_id
            << ",\"pid\":1,\"tid\":" << l->second.worker << ",\"ts\":"
            << static_cast<double>(l->second.t0_ns) / 1e3 << "}";
      }
      continue;
    }
    comma();
    out << "{\"name\":\"" << json::escape(s.phase)
        << "\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.worker
        << ",\"ts\":" << t0_us << ",\"dur\":" << dur_us << ",\"args\":{"
        << span_args(s) << "}}";
  }
  out << "],\"otherData\":{\"spans\":" << spans.size();
  if (prov != nullptr) out << ",\"provenance\":" << prov->to_json();
  out << "}}";
}

}  // namespace nsc::obs
