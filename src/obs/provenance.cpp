#include "obs/provenance.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "support/json.hpp"

namespace nsc::obs {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Ask git for the short head sha, for bench runs outside CI (where the
/// env vars below are unset).  Returns "" on any failure -- no repo, no
/// git binary, sandboxed popen -- so the caller can keep its fallback.
std::string git_head_sha() {
#if defined(_WIN32)
  return "";
#else
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[64];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int rc = pclose(pipe);
  if (rc != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  for (char c : out) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return "";
  }
  return out;
#endif
}

}  // namespace

Provenance Provenance::collect() {
  Provenance p;
  p.host_cores = static_cast<std::size_t>(std::thread::hardware_concurrency());
  p.compiler = compiler_id();
  const char* sha = std::getenv("NSCC_GIT_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("GITHUB_SHA");
  if (sha != nullptr && *sha != '\0') {
    p.git_sha = sha;
  } else {
    // Outside CI, ask the working tree itself (committed BENCH_*.json
    // files should never say "unknown" when produced from a checkout).
    const std::string head = git_head_sha();
    p.git_sha = !head.empty() ? head : "unknown";
  }
  return p;
}

std::string Provenance::to_json() const {
  std::ostringstream out;
  out << "{\"host_cores\":" << host_cores << ",\"compiler\":\""
      << json::escape(compiler) << "\",\"git_sha\":\""
      << json::escape(git_sha) << "\"}";
  return out.str();
}

}  // namespace nsc::obs
