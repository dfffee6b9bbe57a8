#include "obs/events.hpp"

#include <chrono>
#include <ostream>

#include "support/json.hpp"

namespace nsc::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "?";
}

Event&& Event::num(const std::string& key, std::uint64_t value) && {
  fields.push_back({key, std::to_string(value), true});
  return std::move(*this);
}

Event&& Event::str(const std::string& key, const std::string& value) && {
  fields.push_back({key, value, false});
  return std::move(*this);
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity),
      mono_origin_ns_(steady_now_ns()),
      prov_(Provenance::collect()) {}

void EventLog::emit(Event e) {
  e.mono_ns = steady_now_ns() - mono_origin_ns_;
  e.wall_us = wall_now_us();
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ++emitted_;
  queue_.push_back(std::move(e));
}

std::vector<Event> EventLog::drain() {
  std::deque<Event> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken.swap(queue_);
  }
  return std::vector<Event>(std::make_move_iterator(taken.begin()),
                            std::make_move_iterator(taken.end()));
}

EventLogStats EventLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EventLogStats s;
  s.emitted = emitted_;
  s.dropped = dropped_;
  s.queued = queue_.size();
  s.capacity = capacity_;
  return s;
}

void EventLog::write_header(std::ostream& out) const {
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped = dropped_;
  }
  out << "{\"schema\":\"nscc-serve-events/v1\",\"provenance\":"
      << prov_.to_json() << ",\"capacity\":" << capacity_
      << ",\"dropped\":" << dropped << "}\n";
}

void EventLog::write_event(std::ostream& out, const Event& e) {
  out << "{\"event\":\"" << json::escape(e.name) << "\",\"sev\":\""
      << severity_name(e.sev) << "\",\"mono_ns\":" << e.mono_ns
      << ",\"wall_us\":" << e.wall_us;
  for (const Event::Field& f : e.fields) {
    out << ",\"" << json::escape(f.key) << "\":";
    if (f.raw) {
      out << f.value;
    } else {
      out << "\"" << json::escape(f.value) << "\"";
    }
  }
  out << "}\n";
}

}  // namespace nsc::obs
