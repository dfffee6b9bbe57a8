// Compiled-program cache for the `nscc serve` query service.
//
// `nscc run` pays the whole frontend + flattening + optimizer pipeline on
// every invocation; for the small requests a service handles, that
// compile dwarfs the execution the engine work made fast.  The cache
// turns compiled bvram::Programs into immutable, shareable artifacts:
// keyed on (source hash, OptLevel, WhileSchedule) -- everything that
// affects the emitted code -- and handed out as
// shared_ptr<const CompiledProgram>, so a hit costs one hash lookup and
// the artifact stays alive for exactly as long as some request still
// executes against it, even across an LRU eviction.
//
// Each artifact carries TWO programs compiled from the same source
// function f : dom -> cod:
//
//   unit    f itself -- the program a lone request runs; and
//   batch   map f : [dom] -> [cod] -- the lifted program (Lemma 7.2).
//           In the flattening representation a sequence of requests is a
//           segment descriptor over the concatenated per-request
//           registers (sa/layout.hpp SEQREP), so executing one batch of
//           k queued requests is the paper's own trick applied to
//           throughput: append the inputs, run once, split the outputs.
//
// Thread safety: every public ProgramCache member takes an internal
// mutex; a miss compiles while holding it, which serializes compiles of
// the same key (a program is never compiled twice concurrently) at the
// price of blocking other lookups for the compile's duration --
// acceptable because hits are the steady state by design.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bvram/machine.hpp"
#include "nsc/ast.hpp"
#include "object/type.hpp"
#include "opt/opt.hpp"

namespace nsc::serve {

/// Everything that determines the compiled artifact.  Two sources that
/// hash equal share an entry; OptLevel / schedule variants of one source
/// are distinct entries (a serve process can hold several).
struct CacheKey {
  std::uint64_t source_hash = 0;  ///< hash_source() of text + entry name
  opt::OptLevel opt = opt::OptLevel::O2;
  opt::WhileScheduleKind sched = opt::WhileScheduleKind::Naive;
  std::uint64_t eps_num = 1, eps_den = 2;  ///< staged threshold exponent

  bool operator==(const CacheKey& o) const {
    return source_hash == o.source_hash && opt == o.opt && sched == o.sched &&
           eps_num == o.eps_num && eps_den == o.eps_den;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const;
};

/// FNV-1a 64 over the program source text and the entry-point name: the
/// cache key's identity component.  Whitespace-sensitive on purpose --
/// hashing a canonical form would mean re-running the formatter per
/// request, which is exactly the work the cache exists to avoid.
std::uint64_t hash_source(const std::string& source_text,
                          const std::string& entry_name);

/// An immutable compiled artifact.  Everything here is set once at
/// compile time and only ever read afterwards; bvram::run takes the
/// programs by const reference and never mutates them (the concurrency
/// audit gated by Serve.ConcurrentSharedProgram), so one instance may be
/// executed by any number of threads at once.
struct CompiledProgram {
  CacheKey key;
  std::string name;  ///< diagnostic label (file/entry), not part of the key
  TypeRef dom, cod;  ///< of the unit program; batch is [dom] -> [cod]
  bvram::Program unit;
  bvram::Program batch;
  std::uint64_t compile_wall_ns = 0;  ///< both compiles, end to end
};

/// Compile a closed core function into a CompiledProgram (unit + lifted
/// batch), timing the whole pipeline.  The cache calls this on a miss;
/// bench_serve calls it directly to price the cold path.
std::shared_ptr<const CompiledProgram> compile_program(
    const std::string& name, const lang::FuncRef& fn, const TypeRef& dom,
    const TypeRef& cod, const CacheKey& key);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< == number of compiles
  std::uint64_t evictions = 0;
  std::uint64_t compile_wall_ns = 0;  ///< total wall time spent compiling
  std::size_t size = 0;
  std::size_t capacity = 0;
};

/// LRU cache of CompiledPrograms.  Capacity is in entries; an evicted
/// artifact dies only when its last in-flight request drops the ref.
class ProgramCache {
 public:
  explicit ProgramCache(std::size_t capacity);

  using CompileFn = std::function<std::shared_ptr<const CompiledProgram>()>;

  /// The cached artifact for `key`, compiling (and inserting) via
  /// `compile` on a miss.  Never returns nullptr (a throwing compile
  /// propagates and caches nothing).
  std::shared_ptr<const CompiledProgram> get_or_compile(
      const CacheKey& key, const CompileFn& compile);

  /// The cached artifact, or nullptr without compiling (stats untouched).
  std::shared_ptr<const CompiledProgram> peek(const CacheKey& key) const;

  /// Drop every entry (in-flight refs keep their artifacts alive).
  void clear();

  CacheStats stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  /// MRU-first list; the map points into it.
  std::list<std::pair<CacheKey, std::shared_ptr<const CompiledProgram>>> lru_;
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> map_;
  CacheStats stats_;
};

}  // namespace nsc::serve
