// Shared parts of the benchmark: the corpus, reference outcomes,
// failure accounting, sample statistics, memory readings, provenance and
// the result line every run ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "front/front.hpp"
#include "native.hpp"
#include "serve/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Corpus

/// One corpus program: its source text plus the resolved module, kept for
/// the evaluator references (the timed operations start from the text).
struct CorpusProgram {
  std::string name;
  std::string text;
  nsc::front::ResolvedModule module;
  const nsc::front::ResolvedFn& main() const { return module.main(); }
};

/// tests/corpus/<name>.nsc under `root` for every name in program_names().
/// Throws nsc::Error when a file is missing or does not resolve.
std::vector<CorpusProgram> load_corpus(const std::string& root);

/// The evaluator's outcome: the oracle every compiled result is checked
/// against (traps included).
Outcome evaluate(const nsc::front::ResolvedFn& fn, const nsc::ValueRef& arg);

/// The declared `input` values of a module, evaluated.
std::vector<nsc::ValueRef> declared_inputs(const nsc::front::ResolvedModule& m);

// ---------------------------------------------------------------------------
// Failure accounting

/// What the system under test answered for one operation.
struct Observed {
  enum class Kind { Value, Trap, Rejected, Error, FuelExhausted };
  Kind kind = Kind::Error;
  nsc::ValueRef value;  ///< Kind::Value only
};

Observed observed_from(const nsc::serve::Response& r);

/// An operation fails when its outcome differs from the reference, or
/// when it was rejected, errored or ran out of fuel.  An expected trap
/// that traps is correct.
bool matches(const Outcome& expected, const Observed& got);

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one operation; returns whether it was correct.
  bool add(const Outcome& expected, const Observed& got);
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// ---------------------------------------------------------------------------
// Statistics

/// Samples of one quantity (milliseconds unless stated).
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t count() const { return v.size(); }
  double fastest() const;
  double slowest() const;
  /// Python statistics.quantiles-style (exclusive) interpolation; q in
  /// [0, 1]; the median is quantile(0.5).
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
};

double geomean(const std::vector<double>& xs);

/// One "name  n  fastest  median  slowest" row.
void print_row(const std::string& label, const Samples& s,
               const char* unit = "ms");

// ---------------------------------------------------------------------------
// Memory

/// Resident set size now, in KiB (/proc/self/statm).
std::uint64_t current_rss_kb();
/// Peak resident set size of the process so far, in MiB (getrusage).
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Run context and result

struct Context {
  std::string root = ".";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output (traced runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  Tally tally;
  bool correct = true;  ///< false also when an integrity check failed
  std::vector<Metric> metrics;
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The last line of the run's standard output.
  std::string json() const;
};

/// seed, nproc, CPU model, compiler and git SHA (obs/provenance).
void print_provenance(const Context& ctx);

}  // namespace perfbench
