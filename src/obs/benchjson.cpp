#include "obs/benchjson.hpp"

#include "obs/provenance.hpp"
#include "support/json.hpp"

namespace nsc::obs {

BenchReport::BenchReport(const std::string& path, const std::string& schema)
    : path_(path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f_, "{\n  \"schema\": \"%s\",\n",
               json::escape(schema).c_str());
  std::fprintf(f_, "  \"provenance\": %s,\n",
               Provenance::collect().to_json().c_str());
}

BenchReport::~BenchReport() { close(); }

void BenchReport::close() {
  if (f_ == nullptr) return;
  std::fprintf(f_, "}\n");
  std::fclose(f_);
  f_ = nullptr;
  std::printf("wrote %s\n", path_.c_str());
}

}  // namespace nsc::obs
