// Shared corpus helpers for the test suites: every .nsc file under
// tests/corpus/ (NSCC_CORPUS_DIR is injected by tests/CMakeLists), sorted
// for deterministic iteration order, and the WhileSchedules the corpus
// programs are compiled under.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "opt/opt.hpp"

namespace nsc::testing {

inline std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(NSCC_CORPUS_DIR)) {
    if (entry.path().extension() == ".nsc") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct NamedSchedule {
  const char* name;
  opt::WhileSchedule sched;
};

/// Every lifted-while schedule, staged at eps = 1/2.
inline const NamedSchedule kSchedules[] = {
    {"naive", opt::WhileSchedule::naive()},
    {"staged", opt::WhileSchedule::staged({1, 2})},
};

}  // namespace nsc::testing
