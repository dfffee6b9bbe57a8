#include "obs/metrics.hpp"

#include <bit>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace nsc::obs {

// -- Histogram -----------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

void Histogram::observe(std::uint64_t v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  // Saturating sum: a sum that wrapped would make mean() garbage forever.
  std::uint64_t cur = sum_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = sat_add(cur, v);
  } while (next != cur &&
           !sum_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    s.count += s.buckets[b];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t HistogramSnapshot::bucket_upper(std::size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << b) - 1;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the smallest r in [1, count] with r >= q * count.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.999999999999);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] < rank) {
      cum += buckets[b];
      continue;
    }
    // The rank-th sample lies in bucket b: interpolate linearly between
    // the bucket's lower and upper edge by the rank's position inside it.
    const std::uint64_t lower = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
    const std::uint64_t upper = bucket_upper(b);
    const double frac = buckets[b] <= 1
                            ? 1.0
                            : static_cast<double>(rank - cum - 1) /
                                  static_cast<double>(buckets[b] - 1);
    return lower + static_cast<std::uint64_t>(
                       static_cast<double>(upper - lower) * frac);
  }
  return bucket_upper(kBuckets - 1);  // unreachable when counts add up
}

// -- Registry ------------------------------------------------------------

Registry::Entry& Registry::find_or_add(const std::string& name,
                                       const std::string& help, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name) {
      if (e->kind != kind) {
        throw Error("metrics: '" + name + "' re-registered as a different "
                    "metric kind");
      }
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = kind;
  switch (kind) {
    case Kind::Counter: e->counter = std::make_unique<Counter>(); break;
    case Kind::Gauge: e->gauge = std::make_unique<Gauge>(); break;
    case Kind::Histogram: e->histogram = std::make_unique<Histogram>(); break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  return *find_or_add(name, help, Kind::Counter).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  return *find_or_add(name, help, Kind::Gauge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help) {
  return *find_or_add(name, help, Kind::Histogram).histogram;
}

std::string Registry::escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Registry::escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

void write_info_metric(std::ostream& out, const Provenance& prov) {
  out << "# HELP nscc_build_info Build and host provenance of this "
         "process (value is always 1).\n";
  out << "# TYPE nscc_build_info gauge\n";
  out << "nscc_build_info{compiler=\"" << Registry::escape_label(prov.compiler)
      << "\",git_sha=\"" << Registry::escape_label(prov.git_sha)
      << "\",host_cores=\"" << prov.host_cores << "\"} 1\n";
}

}  // namespace

void Registry::write_prometheus(std::ostream& out,
                                const Provenance* prov) const {
  if (prov != nullptr) write_info_metric(out, *prov);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    out << "# HELP " << e->name << " " << escape_help(e->help) << "\n";
    switch (e->kind) {
      case Kind::Counter:
        out << "# TYPE " << e->name << " counter\n";
        out << e->name << " " << e->counter->value() << "\n";
        break;
      case Kind::Gauge:
        out << "# TYPE " << e->name << " gauge\n";
        out << e->name << " " << e->gauge->value() << "\n";
        break;
      case Kind::Histogram: {
        out << "# TYPE " << e->name << " histogram\n";
        const HistogramSnapshot s = e->histogram->snapshot();
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
          if (s.buckets[b] == 0) continue;  // sparse: skip empty buckets
          cum += s.buckets[b];
          out << e->name << "_bucket{le=\""
              << HistogramSnapshot::bucket_upper(b) << "\"} " << cum << "\n";
        }
        out << e->name << "_bucket{le=\"+Inf\"} " << s.count << "\n";
        out << e->name << "_sum " << s.sum << "\n";
        out << e->name << "_count " << s.count << "\n";
        break;
      }
    }
  }
}

void Registry::write_json(std::ostream& out, const Provenance* prov) const {
  out << "{\n  \"schema\": \"nscc-metrics/v1\"";
  if (prov != nullptr) {
    out << ",\n  \"provenance\": " << prov->to_json();
  }
  out << ",\n  \"metrics\": {";
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << e->name << "\": ";
    switch (e->kind) {
      case Kind::Counter:
        out << "{\"type\": \"counter\", \"value\": " << e->counter->value()
            << "}";
        break;
      case Kind::Gauge:
        out << "{\"type\": \"gauge\", \"value\": " << e->gauge->value() << "}";
        break;
      case Kind::Histogram: {
        const HistogramSnapshot s = e->histogram->snapshot();
        out << "{\"type\": \"histogram\", \"count\": " << s.count
            << ", \"sum\": " << s.sum << ", \"mean\": " << s.mean()
            << ", \"p50\": " << s.quantile(0.50)
            << ", \"p95\": " << s.quantile(0.95)
            << ", \"p99\": " << s.quantile(0.99) << ", \"buckets\": [";
        bool fb = true;
        for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
          if (s.buckets[b] == 0) continue;
          if (!fb) out << ", ";
          fb = false;
          out << "[" << HistogramSnapshot::bucket_upper(b) << ", "
              << s.buckets[b] << "]";
        }
        out << "]}";
        break;
      }
    }
  }
  out << "\n  }\n}\n";
}

}  // namespace nsc::obs
