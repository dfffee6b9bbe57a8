// Host/build provenance for benchmark emitters: perf numbers without the
// machine and configuration that produced them are noise in a trajectory,
// so every BENCH_*.json run object embeds one of these.
#pragma once

#include <cstddef>
#include <string>

namespace nsc::obs {

struct Provenance {
  std::size_t host_cores = 0;  ///< std::thread::hardware_concurrency
  std::string compiler;        ///< compiler id, e.g. "gcc 13.2.0"
  std::string git_sha;         ///< NSCC_GIT_SHA / GITHUB_SHA, else "unknown"

  /// Collect from the running process and environment.
  static Provenance collect();

  /// One flat JSON object (no trailing newline), e.g.
  /// {"host_cores":8,"compiler":...} -- for embedding in bench reports.
  std::string to_json() const;
};

}  // namespace nsc::obs
