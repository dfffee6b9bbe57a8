// Serve-path metrics: a registry of counters, gauges, and fixed-bucket
// log2-scale latency histograms, with a Prometheus text-exposition
// writer.
//
// The design center is the hot path of src/serve/service.cpp: a worker
// finishing a request must be able to record its outcome and latency
// without taking a lock or allocating.  So every metric is a fixed block
// of relaxed atomics -- Counter::inc is one fetch_add, Histogram::observe
// is two fetch_adds plus a bit_width -- and the Registry's mutex guards
// only registration and enumeration (cold paths: construction and
// export).  References returned by counter()/gauge()/histogram() stay
// valid for the Registry's lifetime; metrics are never unregistered.
//
// Histogram buckets are powers of two: bucket 0 holds the value 0,
// bucket b (1..64) holds [2^(b-1), 2^b).  Quantiles come from
// nearest-rank over the bucket counts with linear interpolation inside
// the landing bucket, so a reported quantile is always within its
// bucket's bounds -- at most a 2x relative error, in exchange for an
// O(1) lock-free observe and an O(65) export (the lock-held
// copy-and-sort of a 64Ki latency ring this replaced was O(n log n)
// per snapshot *and* stalled the request path while it ran).
//
// Naming follows the Prometheus convention the exposition writer
// expects: snake_case metric names, a `_total` suffix on monotonic
// counters, base units in the name (`_ns`, `_bytes`).  See
// docs/observability.md ("Serving telemetry") for the full scheme.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/provenance.hpp"

namespace nsc::obs {

/// Monotonic counter.  Relaxed atomics: cross-thread increments are never
/// lost, but a reader may see counter A's update before counter B's even
/// if some thread wrote B first -- snapshots are eventually-exact, not
/// cut-point-consistent (fine for telemetry, documented in the docs).
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, cache size, ...).
class Gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A coherent copy of one histogram, taken bucket by bucket (relaxed, so
/// concurrent observes may straddle the copy; counts never go backwards).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;
  std::array<std::uint64_t, kBuckets> buckets{};  ///< per-bucket counts
  std::uint64_t count = 0;  ///< sum of buckets
  std::uint64_t sum = 0;    ///< sum of observed values (saturating)

  /// Inclusive upper edge of bucket b: 0 for b = 0, 2^b - 1 for b >= 1
  /// (UINT64_MAX for the last).
  static std::uint64_t bucket_upper(std::size_t b);

  /// Nearest-rank quantile (q in [0, 1]) with linear interpolation inside
  /// the landing bucket.  Exact for q over bucket boundaries; otherwise
  /// within the bucket's [lower, upper] bounds (<= 2x relative error).
  std::uint64_t quantile(double q) const;
  std::uint64_t mean() const { return count == 0 ? 0 : sum / count; }
};

/// Fixed-bucket log2 histogram of uint64 samples (latencies in ns, batch
/// sizes, ...).  observe() is lock-free: one bit_width, two relaxed
/// fetch_adds.
class Histogram {
 public:
  void observe(std::uint64_t v);
  /// Bucket index for a value: 0 for 0, else std::bit_width(v) (1..64).
  static std::size_t bucket_of(std::uint64_t v);
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// A registry of named metrics.  Registration (counter/gauge/histogram)
/// and export (write_prometheus) take the registry mutex;
/// updates through the returned references are lock-free.  Registering a
/// name twice returns the existing metric (the kinds must match; a
/// mismatch throws).  Output order is registration order, so exports are
/// deterministic for a fixed registration sequence.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help);

  /// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
  /// per metric, cumulative `_bucket{le="..."}` series plus `_sum` and
  /// `_count` for histograms.  When `prov` is non-null, an info-style
  /// `nscc_build_info{...} 1` gauge carrying the provenance as labels is
  /// emitted first, so scraped telemetry is self-describing like the
  /// committed BENCH_*.json files.
  void write_prometheus(std::ostream& out,
                        const Provenance* prov = nullptr) const;

  /// Escape a HELP text for the exposition format (backslash, newline).
  static std::string escape_help(const std::string& s);
  /// Escape a label value (backslash, double-quote, newline).
  static std::string escape_label(const std::string& s);

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    // Exactly one of these is non-null, matching `kind`.  unique_ptr so
    // the atomics never move when entries_ grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_add(const std::string& name, const std::string& help,
                     Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
};

}  // namespace nsc::obs
