// Process-wide parallel runtime: a lazily-started thread pool plus
// deterministic data-parallel primitives.
//
// Determinism contract.  Every primitive here produces results that are
// *independent of the thread count*: parallelFor / parallelMap write
// each index's result into its own pre-assigned slot, so scheduling
// order cannot change the output, and the chunk grid is a function of
// `n` alone.  Callers must keep any randomness on the calling thread
// (the EAs fan out evaluation only) — then `RRSN_THREADS=1` and
// `RRSN_THREADS=64` yield byte-identical damage vectors, dictionaries
// and archives.
//
// The pool size comes from the RRSN_THREADS environment variable
// (default: std::thread::hardware_concurrency) and can be changed at
// runtime with setThreadCount() while no parallel region is active.
// With one thread every primitive degenerates to the plain serial loop
// — zero threading overhead on small inputs or single-core machines.
// Nested parallel regions execute inline on the worker that encounters
// them rather than deadlocking the pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rrsn {

/// Cooperative cancellation signal, shared between a controller and any
/// number of workers.  Cancellation is one-way and latching: once
/// cancelled() returns true it stays true.  A token can also carry a
/// wall-clock deadline; passing the deadline cancels it implicitly, so a
/// long-running loop only needs a single cancelled() poll per unit of
/// work.  All members are safe to call concurrently.
class CancellationToken {
 public:
  /// Requests cancellation.
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }

  /// Cancels automatically once `budget` has elapsed from now.
  void setDeadlineFromNow(std::chrono::nanoseconds budget) noexcept {
    const auto at = std::chrono::steady_clock::now() + budget;
    deadlineNs_.store(at.time_since_epoch().count(), std::memory_order_release);
  }

  /// True once cancel() was called or the deadline passed.
  bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_acquire)) return true;
    const std::int64_t at = deadlineNs_.load(std::memory_order_acquire);
    if (at != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= at) {
      flag_.store(true, std::memory_order_release);  // latch
      return true;
    }
    return false;
  }

 private:
  static constexpr std::int64_t kNoDeadline = INT64_MIN;
  mutable std::atomic<bool> flag_{false};
  std::atomic<std::int64_t> deadlineNs_{kNoDeadline};
};

/// Number of workers a parallel region fans out to (>= 1).  The first
/// call latches RRSN_THREADS / hardware_concurrency.
std::size_t threadCount();

/// Reconfigures the pool to exactly `n` workers (n >= 1; 0 re-reads the
/// environment).  Must not be called from inside a parallel region.
void setThreadCount(std::size_t n);

/// Default minimum number of indices per chunk before a primitive fans
/// out.  Inputs smaller than twice the grain run serially on the caller
/// — per-task dispatch overhead (~µs) otherwise dominates
/// sub-millisecond sweeps, making the pooled run *slower* than the
/// serial one.  Call sites with cheap per-index bodies should pass an
/// explicit larger grain.
inline constexpr std::size_t kDefaultGrain = 16;

namespace detail {

/// How one environment value was interpreted by parseEnvCount.
struct EnvParse {
  std::size_t value = 0;
  bool usedFallback = false;  ///< text was garbage / empty / non-positive
  bool clamped = false;       ///< text was numeric but outside [lo, hi]
};

/// Strict parser for positive environment counts (RRSN_THREADS).
/// `text` may be null (unset variable).  Accepts only a
/// full decimal integer; garbage, trailing characters, empty strings,
/// zero and negative values fall back to `fallback`, while values
/// outside [lo, hi] (including overflow) clamp to the nearest bound.
/// Exposed for tests; callers warn once per variable on either flag.
EnvParse parseEnvCount(const char* text, std::size_t fallback, std::size_t lo,
                       std::size_t hi);

/// Bound on RRSN_THREADS.  A thread count above the cap only adds
/// context-switch thrash (the pool caps chunk counts at 256 anyway).
inline constexpr std::size_t kMaxThreads = 1024;

/// Runs body(chunk, worker) for every chunk in [0, chunks); worker is in
/// [0, threadCount()) and identifies the executing lane for scratch
/// indexing.  Blocks until all chunks completed; rethrows the first
/// exception thrown by any chunk.  If `cancel` is non-null and becomes
/// cancelled, chunks that have not started yet are *skipped* (their body
/// is never invoked); chunks already running finish normally.  Callers
/// that pass a token must therefore track per-index completion
/// themselves — the primitives below make no completeness guarantee
/// under cancellation.
void runChunks(std::size_t chunks,
               const std::function<void(std::size_t, std::size_t)>& body,
               const CancellationToken* cancel = nullptr);

/// Chunk grid used by every primitive: a function of `n` and the grain
/// only (never of the pool size), so that per-chunk partial results do
/// not depend on the thread count.  `grain` is the minimum indices per
/// chunk; 0 means kDefaultGrain.  Returns 1 (serial fallback) when the
/// input is below twice the grain.
std::size_t chunkGrid(std::size_t n, std::size_t grain = 0);

/// Half-open index range of chunk `c` in a grid of `chunks` over [0, n).
inline std::pair<std::size_t, std::size_t> chunkRange(std::size_t n,
                                                      std::size_t chunks,
                                                      std::size_t c) {
  return {c * n / chunks, (c + 1) * n / chunks};
}

}  // namespace detail

/// Deterministic parallel loop: fn(i) for every i in [0, n), in
/// unspecified order.  fn must only write state owned by index i.
/// `grain` is the minimum work (indices) per chunk — inputs below twice
/// the grain fall back to the plain serial loop; 0 uses kDefaultGrain.
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t chunks = detail::chunkGrid(n, grain);
  if (chunks <= 1 || threadCount() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::runChunks(chunks, [&](std::size_t c, std::size_t) {
    const auto [begin, end] = detail::chunkRange(n, chunks, c);
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Cancellable parallel loop: like parallelFor, but stops dispatching
/// work once `cancel` trips.  Indices whose chunk never started are
/// silently skipped, so fn must record its own completion (e.g. set a
/// done flag as its last store) and fn itself should poll the token for
/// finer-grained exits.  With a null token this is exactly parallelFor.
template <typename Fn>
void parallelForCancellable(std::size_t n, const CancellationToken* cancel,
                            Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t chunks = detail::chunkGrid(n, grain);
  if (chunks <= 1 || threadCount() <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) return;
      fn(i);
    }
    return;
  }
  detail::runChunks(
      chunks,
      [&](std::size_t c, std::size_t) {
        const auto [begin, end] = detail::chunkRange(n, chunks, c);
        for (std::size_t i = begin; i < end; ++i) {
          if (cancel != nullptr && cancel->cancelled()) return;
          fn(i);
        }
      },
      cancel);
}

/// Chunked variant exposing the worker lane for per-thread scratch:
/// fn(begin, end, worker) with worker < threadCount().  The [begin, end)
/// ranges tile [0, n) and depend only on n.
template <typename Fn>
void parallelForChunks(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t chunks = detail::chunkGrid(n, grain);
  if (chunks <= 1 || threadCount() <= 1) {
    fn(std::size_t{0}, n, std::size_t{0});
    return;
  }
  detail::runChunks(chunks, [&](std::size_t c, std::size_t worker) {
    const auto [begin, end] = detail::chunkRange(n, chunks, c);
    fn(begin, end, worker);
  });
}

/// out[i] = fn(i) for every i in [0, n); T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> parallelMap(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  std::vector<T> out(n);
  parallelFor(n, [&](std::size_t i) { out[i] = fn(i); }, grain);
  return out;
}

}  // namespace rrsn
