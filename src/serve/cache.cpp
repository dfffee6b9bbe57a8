#include "serve/cache.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "nsc/build.hpp"
#include "sa/compile.hpp"

namespace nsc::serve {

std::uint64_t hash_source(const std::string& source_text,
                          const std::string& entry_name) {
  // FNV-1a 64; the 0x1f separator keeps ("ab","c") and ("a","bc") apart.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  };
  mix(source_text);
  mix(entry_name);
  return h;
}

std::size_t CacheKeyHash::operator()(const CacheKey& k) const {
  std::uint64_t h = k.source_hash;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.opt));
  mix(static_cast<std::uint64_t>(k.sched));
  mix(k.eps_num);
  mix(k.eps_den);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const CompiledProgram> compile_program(
    const std::string& name, const lang::FuncRef& fn, const TypeRef& dom,
    const TypeRef& cod, const CacheKey& key) {
  opt::WhileSchedule sched;
  sched.kind = key.sched;
  sched.eps = {key.eps_num, key.eps_den};

  auto out = std::make_shared<CompiledProgram>();
  out->key = key;
  out->name = name;
  out->dom = dom;
  out->cod = cod;

  const auto t0 = std::chrono::steady_clock::now();
  out->unit = sa::compile_nsc(fn, key.opt, sched);
  // The lifted program runs one segment-descriptor level above the unit
  // program: its input is the concatenation of the queued requests'
  // encodings, exactly sa/layout.hpp's SEQREP of a [dom] value.
  out->batch = sa::compile_nsc(lang::map_f(fn), key.opt, sched);
  const auto t1 = std::chrono::steady_clock::now();
  out->compile_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return out;
}

ProgramCache::ProgramCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  stats_.capacity = capacity_;
}

std::shared_ptr<const CompiledProgram> ProgramCache::get_or_compile(
    const CacheKey& key, const CompileFn& compile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
    return it->second->second;
  }
  ++stats_.misses;
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const CompiledProgram> prog = compile();
  const auto t1 = std::chrono::steady_clock::now();
  stats_.compile_wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  if (prog == nullptr) throw std::logic_error("serve: compile returned null");
  while (lru_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(key, prog);
  map_[key] = lru_.begin();
  stats_.size = lru_.size();
  return prog;
}

CacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace nsc::serve
