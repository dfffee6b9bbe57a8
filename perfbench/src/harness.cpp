#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "gen.hpp"
#include "nsc/eval.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace F = nsc::front;

std::vector<CorpusProgram> load_corpus(const std::string& root) {
  std::vector<CorpusProgram> out;
  for (const std::string& name : program_names()) {
    const F::SourceFile src =
        F::load_file(root + "/tests/corpus/" + name + ".nsc");
    out.push_back(CorpusProgram{name, src.text(), F::compile_file(src)});
  }
  return out;
}

Outcome evaluate(const F::ResolvedFn& fn, const nsc::ValueRef& arg) {
  try {
    return Outcome{false, nsc::lang::apply_fn(fn.fn, arg).value};
  } catch (const nsc::EvalError&) {
    return Outcome{true, nullptr};
  }
}

std::vector<nsc::ValueRef> declared_inputs(const F::ResolvedModule& m) {
  std::vector<nsc::ValueRef> out;
  for (const F::ResolvedInput& in : m.inputs) {
    out.push_back(nsc::lang::eval(in.term).value);
  }
  return out;
}

Observed observed_from(const nsc::serve::Response& r) {
  using nsc::serve::Outcome;
  switch (r.outcome) {
    case Outcome::Ok: return {Observed::Kind::Value, r.value};
    case Outcome::Trap: return {Observed::Kind::Trap, nullptr};
    case Outcome::Rejected: return {Observed::Kind::Rejected, nullptr};
    case Outcome::FuelExhausted:
      return {Observed::Kind::FuelExhausted, nullptr};
    case Outcome::Error: break;
  }
  return {Observed::Kind::Error, nullptr};
}

bool matches(const Outcome& expected, const Observed& got) {
  if (expected.trapped) return got.kind == Observed::Kind::Trap;
  return got.kind == Observed::Kind::Value && got.value != nullptr &&
         nsc::Value::equal(expected.value, got.value);
}

bool Tally::add(const Outcome& expected, const Observed& got) {
  ++attempted;
  const bool ok = matches(expected, got);
  if (!ok) ++failed;
  return ok;
}

double Samples::fastest() const {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Samples::slowest() const {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double Samples::quantile(double q) const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() + 1);
  const auto j = static_cast<std::size_t>(std::floor(pos));
  if (j < 1) return s.front();
  if (j >= s.size()) return s.back();
  return s[j - 1] + (pos - static_cast<double>(j)) * (s[j] - s[j - 1]);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

void print_row(const std::string& label, const Samples& s, const char* unit) {
  std::printf("  %-34s n=%-6zu fastest %10.4f  median %10.4f  slowest %10.4f %s\n",
              label.c_str(), s.count(), s.fastest(), s.median(), s.slowest(),
              unit);
}

std::uint64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct && tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void print_provenance(const Context& ctx) {
  const nsc::obs::Provenance p = nsc::obs::Provenance::collect();
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0);
  std::printf("nproc %zu  cpu \"%s\"  compiler %s  git %s\n", p.host_cores,
              cpu_model().c_str(), p.compiler.c_str(), p.git_sha.c_str());
}

}  // namespace perfbench
