// Data-parallel execution helpers for the BVRAM execution engine's "real
// hardware" backend (experiment E10).  A static thread pool plus blocking
// fork-join primitives, following the structured idiom of the OpenMP
// examples (no detached work, no futures escaping the call):
//
//   parallel_for     invoke fn over disjoint chunks of [0, n)
//   ChunkPlan        a deterministic chunking of [0, n) that several
//                    passes over the same index space can share
//   parallel_scan    exclusive prefix over per-chunk partial sums -- the
//                    first pass of every two-pass block-scan kernel
//                    (scan-plus, select, bm-route/sbm-route scatter)
//   for_each_chunk   the second pass: emit each chunk given its offset
//
// Because saturating uint64 addition is associative (any partial sum that
// would overflow pins the whole sum at 2^64-1 regardless of association),
// scan results are bit-identical for every chunk decomposition --
// one chunk (the serial backend), or one per worker.  The kernels in
// bvram/machine.cpp rely on this to make the serial and parallel backends
// produce identical outputs, costs, and traps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include <string>

namespace nsc {

/// Number of worker threads the pool was built with: the NSCC_WORKERS
/// environment variable if set (read once, at first use), else hardware
/// concurrency.
std::size_t parallel_workers();

/// The most worker threads NSCC_WORKERS or `nscc serve --workers` may ask
/// for.
constexpr std::size_t kMaxWorkers = 256;

/// Resolve an NSCC_WORKERS value (nullptr = unset) to an effective worker
/// count.  Strictly-digit values in [1, kMaxWorkers] are taken as-is;
/// everything else -- garbage, empty, 0, negative, out of range -- falls
/// back to hardware concurrency (clamping overlarge values to kMaxWorkers)
/// and, when `warning` is non-null, explains the rejection in one line
/// including the effective count.  Exposed separately from the pool so the
/// validation is unit-testable (the pool reads the env exactly once).
std::size_t effective_workers(const char* env_value,
                              std::string* warning = nullptr);

/// Process-wide monotonic counters for the pool's dispatch behavior,
/// maintained with relaxed atomics (a handful of increments per *kernel
/// call*, never per element -- cheap enough to keep always-on).  The
/// execution engine's profiler reports per-run deltas of these.
struct ParallelCounters {
  std::uint64_t calls = 0;         ///< parallel_for/scan/chunk calls
  std::uint64_t serial_calls = 0;  ///< of which collapsed to one chunk
  std::uint64_t chunks = 0;        ///< chunks dispatched to the pool
  std::vector<std::uint64_t> per_worker_tasks;  ///< tasks run by worker i
};
ParallelCounters parallel_counters();

/// The chunks counter alone (two relaxed loads cheaper than a full
/// ParallelCounters snapshot): the execution engine reads it around every
/// instruction when profiling to attribute chunk counts per opcode.
std::uint64_t parallel_chunk_count();

/// Invoke fn(begin..end) over disjoint non-empty chunks of [0, n) on the
/// pool and wait for completion.  Falls back to a serial call when n is
/// small (the per-chunk closure cost would dominate) or when the pool has
/// one worker.  If any chunk throws, the first exception is rethrown on the
/// calling thread after all chunks finish (it never escapes into a worker).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 4096);

/// A deterministic partition of [0, n) into equal `step`-sized chunks
/// (the last possibly shorter).  Multiple passes over the same index space
/// (count, then scatter) share one plan so their chunk boundaries agree.
struct ChunkPlan {
  std::size_t n = 0;
  std::size_t step = 0;
  std::size_t chunks = 0;

  /// One chunk covering all of [0, n) -- the serial backend's plan.
  static ChunkPlan serial(std::size_t n);
  /// Worker-count-many chunks of at least `grain` elements (collapses to
  /// a single chunk when n <= grain or the pool has one worker).
  static ChunkPlan make(std::size_t n, std::size_t grain = 4096);

  std::size_t begin(std::size_t c) const { return c * step; }
  std::size_t end(std::size_t c) const {
    const std::size_t e = begin(c) + step;
    return e < n ? e : n;
  }
};

/// Run fn(chunk, begin, end) for every chunk of the plan; on the pool when
/// the plan has more than one chunk, inline otherwise.  Exceptions are
/// rethrown on the calling thread (first one wins).
void for_each_chunk(
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Exclusive prefix over the per-chunk partial sums: offsets[c] is the
/// saturating sum of all chunks before c; returns the grand total.  This
/// is the first pass of a two-pass block scan -- follow with
/// for_each_chunk over the same plan to emit chunk c starting at
/// offsets[c].
std::uint64_t parallel_scan(
    const ChunkPlan& plan,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& partial,
    std::vector<std::uint64_t>& offsets);

}  // namespace nsc
