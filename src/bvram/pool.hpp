// The execution engine's buffer primitives, split out of machine.cpp so
// the register-file pool can outlive a single run (the arena each serve
// worker owns, src/serve/service.cpp).
//
//   Buf         a raw uninitialized uint64 buffer: growing never
//               value-initializes and shrinking/regrowing within capacity
//               never touches the allocator -- the two properties the
//               pooled register file is built on.
//   BufferPool  a recycling allocator of Bufs.  Within one run it takes
//               the buffers displaced by overwrites and, when the program
//               carries last-use masks, the buffer of each register of a
//               page or more at its last use -- or right after its def,
//               when the def is never read -- so the run's footprint
//               follows the registers live at once rather than every
//               register it writes.  Registers under a page, registers
//               carried around a loop, registers that die on a control
//               flow edge rather than at an instruction, and every
//               register of a program without masks keep their buffers
//               until overwritten or Halt.
//               Kept across runs of the same program it serves every
//               register buffer of a steady-state run from the previous
//               run's spares: the allocator is touched for registers only
//               while the pool warms up, and the pool then stops growing
//               (the serve layer's amortization claim, gated by the
//               Arena.* tests).
//
// A BufferPool is NOT thread-safe: it is either private to one Engine
// (the historical per-run pool) or owned by exactly one serve worker,
// which runs one request at a time against it.  Sharing one pool between
// two concurrent runs is a data race by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <utility>
#include <vector>

namespace nsc::bvram {

/// A raw uninitialized uint64 buffer: the engine's register representation.
/// Unlike std::vector, growing never value-initializes (every kernel writes
/// every slot of its output) and shrinking/regrowing within capacity never
/// touches the allocator.
class Buf {
 public:
  Buf() = default;
  Buf(Buf&& o) noexcept
      : d_(std::exchange(o.d_, nullptr)),
        n_(std::exchange(o.n_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  Buf& operator=(Buf&& o) noexcept {
    if (this != &o) {
      std::free(d_);
      d_ = std::exchange(o.d_, nullptr);
      n_ = std::exchange(o.n_, 0);
      cap_ = std::exchange(o.cap_, 0);
    }
    return *this;
  }
  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;
  ~Buf() { std::free(d_); }

  std::size_t size() const { return n_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return n_ == 0; }
  std::uint64_t* data() { return d_; }
  const std::uint64_t* data() const { return d_; }
  std::uint64_t& operator[](std::size_t i) { return d_[i]; }
  std::uint64_t operator[](std::size_t i) const { return d_[i]; }

  void clear() { n_ = 0; }

  /// Set the size to n, contents uninitialized.  Reallocates (discarding
  /// the old contents) only when the capacity is insufficient.  Capacity
  /// is rounded up to a power of two so that a recycled buffer always
  /// satisfies any later request of its own size class -- BufferPool bins
  /// spares by floor(log2(capacity)), and without the rounding a buffer
  /// of capacity 3 would land in bin 1 while an acquire of 3 (which must
  /// start at bin 2 to be guaranteed a fit) could never find it again.
  void reset_size(std::size_t n) {
    if (n > cap_) {
      static constexpr std::size_t kMaxElems =
          std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t) / 2;
      if (n > kMaxElems) throw std::bad_alloc();
      std::size_t cap = 1;
      while (cap < n) cap <<= 1;
      if (cap > kMaxElems) cap = n;
      std::free(d_);
      d_ = nullptr;
      cap_ = 0;
      d_ = static_cast<std::uint64_t*>(
          std::malloc(cap * sizeof(std::uint64_t)));
      if (d_ == nullptr) throw std::bad_alloc();
      cap_ = cap;
    }
    n_ = n;
  }

  void assign(const std::vector<std::uint64_t>& v) {
    reset_size(v.size());
    if (!v.empty()) {
      std::memcpy(d_, v.data(), v.size() * sizeof(std::uint64_t));
    }
  }

  std::vector<std::uint64_t> to_vec() const {
    return n_ == 0 ? std::vector<std::uint64_t>{}
                   : std::vector<std::uint64_t>(d_, d_ + n_);
  }

  void swap(Buf& o) noexcept {
    std::swap(d_, o.d_);
    std::swap(n_, o.n_);
    std::swap(cap_, o.cap_);
  }

 private:
  std::uint64_t* d_ = nullptr;
  std::size_t n_ = 0;
  std::size_t cap_ = 0;
};

/// A recycling Buf allocator.  Spares are binned by power-of-two capacity
/// class (bin b holds buffers with capacity in [2^b, 2^{b+1})), so both
/// acquire and recycle are O(1): an acquire of n pops the first non-empty
/// bin that guarantees capacity >= n, found with one bit scan over the
/// mask of non-empty bins, and a recycle pushes onto its bin's LIFO
/// stack.  O(1) matters here -- a register file parks hundreds of
/// buffers per run into a cross-run arena (RunConfig::arena), a small
/// run acquires mostly from an empty pool, and a scan per acquire would
/// cost more than the mallocs the pool exists to avoid.  When no bin can
/// satisfy a request the pool sacrifices its largest spare (one realloc
/// instead of a fresh heap block, and the buffer population stays
/// bounded).
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  Buf acquire(std::size_t n) {
    // Smallest bin every member of which has capacity >= n.
    const int want = n <= 1 ? 0 : bin_of(n - 1) + 1;
    const std::uint64_t fits = want < kBins ? nonempty_ >> want << want : 0;
    Buf b;
    int from = -1;
    if (fits != 0) {
      ++hits_;
      from = std::countr_zero(fits);
    } else {
      ++misses_;
      // Sacrifice the largest spare (every non-empty bin is below want):
      // realloc beats a fresh heap block and keeps the circulating buffer
      // population bounded.
      if (nonempty_ != 0) from = kBins - 1 - std::countl_zero(nonempty_);
    }
    if (from >= 0) {
      b = std::move(bins_[from].back());
      bins_[from].pop_back();
      if (bins_[from].empty()) nonempty_ &= ~(std::uint64_t{1} << from);
      --count_;
    }
    b.reset_size(n);
    return b;
  }

  /// Park a buffer for reuse; zero-capacity buffers are dropped (nothing
  /// to recycle).
  void recycle(Buf&& b) {
    if (b.capacity() == 0) return;
    const int bin = bin_of(b.capacity());
    bins_[bin].push_back(std::move(b));
    nonempty_ |= std::uint64_t{1} << bin;
    ++count_;
  }

  /// Drop every spare buffer, returning the memory to the allocator.  The
  /// hit/miss counters are monotonic and survive (they describe the
  /// pool's lifetime, not its current contents).
  void reset() {
    for (auto& bin : bins_) bin.clear();
    nonempty_ = 0;
    count_ = 0;
  }

  std::size_t spare_count() const { return count_; }
  std::size_t spare_bytes() const {
    std::size_t total = 0;
    for (const auto& bin : bins_) {
      for (const Buf& b : bin) total += b.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

  /// Lifetime counters: acquires served from a spare vs acquires that had
  /// to touch the allocator (malloc or realloc-via-sacrifice).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr int kBins = 64;

  /// floor(log2(cap)) for cap >= 1.
  static int bin_of(std::size_t cap) {
    return static_cast<int>(std::bit_width(cap)) - 1;
  }

  std::vector<Buf> bins_[kBins];
  /// Bit b set iff bins_[b] is non-empty.
  std::uint64_t nonempty_ = 0;
  std::size_t count_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nsc::bvram
