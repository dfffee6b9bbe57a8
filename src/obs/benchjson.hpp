// Shared emitter for the committed BENCH_*.json reports.
//
// Every bench harness (bench_machine, bench_compile, bench_serve) writes
// the same envelope -- a schema tag plus the host/build provenance object
// (obs/provenance.hpp) -- around a harness-specific body.  BenchReport
// dedupes that boilerplate: it opens the file, emits the envelope header,
// hands the harness a FILE* for the body (the harnesses are fprintf-
// style), and closes the envelope and the file in the destructor.
//
//   obs::BenchReport report(path, "bvram-bench-serve/v1");
//   if (!report.ok()) { ... }                       // could not open
//   std::fprintf(report.out(), "  \"entries\": [...]");
//   report.close();                                 // or let ~BenchReport
//
// The emitted document is always
//
//   {
//     "schema": "<schema>",
//     "provenance": {...},
//     <body written by the harness>
//   }
//
// so the body must start with a key (the header ends with a comma).
#pragma once

#include <cstdio>
#include <string>

namespace nsc::obs {

class BenchReport {
 public:
  /// Opens `path` and writes the envelope header (schema + provenance).
  /// On failure ok() is false, a one-line error went to stderr, and every
  /// other member is a no-op.
  BenchReport(const std::string& path, const std::string& schema);
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool ok() const { return f_ != nullptr; }
  /// The body stream; nullptr when !ok().
  std::FILE* out() { return f_; }

  /// Close the envelope ("}") and the file; prints "wrote <path>".
  /// Idempotent; the destructor calls it.
  void close();

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
};

}  // namespace nsc::obs
