// Fixed-size thread pool + deterministic parallel_for.
//
// Design constraints (DESIGN.md §9):
//   * no work stealing — parallel_for splits [begin, end) into contiguous
//     chunks and each chunk is executed by exactly one thread, so every
//     index is visited once and per-index work is identical to the serial
//     loop. Outputs that are written per-index are therefore bit-identical
//     for ANY thread count, including 1.
//   * nested parallel_for calls (a worker reaching another parallel
//     region) run inline on the calling worker — no deadlock, no
//     oversubscription.
//   * the pool is fixed-size; threads are started once in the constructor
//     and joined in the destructor. A process-wide pool is available via
//     ThreadPool::global() and is sized with set_global_threads() (bench
//     --threads N, tests) before the parallel sections run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace mandipass::common {

class ThreadPool {
 public:
  /// Creates a pool with `threads` execution lanes (the caller of
  /// parallel_for counts as one lane, so `threads` total OS threads
  /// participate and `threads - 1` workers are spawned). `threads == 0`
  /// selects the number of CPUs in the calling thread's affinity mask, so
  /// a pinned or cpuset-limited process does not oversubscribe its CPUs
  /// (std::thread::hardware_concurrency() where the mask cannot be read).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  std::size_t thread_count() const;

  /// Runs body(chunk_begin, chunk_end) over a deterministic contiguous
  /// partition of [begin, end). Chunks never shrink below `grain`
  /// indices; ranges smaller than 2 * grain (or a single-lane pool, or a
  /// call made from inside a pool worker) execute inline on the caller.
  /// Blocks until every chunk has finished. The first exception thrown by
  /// a chunk is rethrown on the caller after the region completes.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide pool, created on first use (default size, as above).
  static ThreadPool& global();

  /// Replaces the global pool with one of `threads` lanes (0 = default
  /// size). Must not be called while a parallel region is
  /// executing on the global pool.
  static void set_global_threads(std::size_t threads);

  /// Lane count of the global pool (creates it on first use).
  static std::size_t global_thread_count();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// parallel_for on the global pool (the common call-site form).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace mandipass::common
