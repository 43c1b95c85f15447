#include "common/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/mutex.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace mandipass::common {

namespace {
// Set while a thread is executing chunks for ANY pool; a parallel_for
// issued from such a thread runs inline instead of re-entering a queue
// (prevents deadlock when every worker blocks on a nested region).
thread_local bool t_inside_pool = false;

// CPUs the calling thread may run on; hardware_concurrency() counts the
// whole machine even under taskset or a cpuset.
std::size_t default_lanes() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&mask));  // never empty on success
  }
#endif
  return std::max(1U, std::thread::hardware_concurrency());
}
}  // namespace

struct ThreadPool::Impl {
  Mutex mutex;
  // condition_variable_any waits on the annotated MutexLock guard
  // directly (BasicLockable), so the queue handshake stays inside the
  // capability system instead of needing a raw std::unique_lock.
  std::condition_variable_any wake;
  std::vector<std::function<void()>> queue MANDIPASS_GUARDED_BY(mutex);  // LIFO; order is irrelevant
  std::vector<std::thread> workers;  ///< written by ctor, joined by dtor only
  bool stopping MANDIPASS_GUARDED_BY(mutex) = false;
  std::size_t lanes = 1;  ///< immutable after construction

  void worker_loop() {
    t_inside_pool = true;
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mutex);
        while (!stopping && queue.empty()) {
          wake.wait(lock);
        }
        if (queue.empty()) {
          return;  // stopping, and the backlog is drained
        }
        task = std::move(queue.back());
        queue.pop_back();
      }
      task();  // run outside the lock so other workers can dequeue
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  if (threads == 0) {
    threads = default_lanes();
  }
  impl_->lanes = threads;
  impl_->workers.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (std::thread& w : impl_->workers) {
    w.join();
  }
}

std::size_t ThreadPool::thread_count() const { return impl_->lanes; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  MANDIPASS_EXPECTS(begin <= end);
  MANDIPASS_EXPECTS(grain >= 1);
  const std::size_t range = end - begin;
  if (range == 0) {
    return;
  }
  // Inline fast path: nothing to split, a single lane, or a nested call.
  if (impl_->lanes == 1 || range < 2 * grain || t_inside_pool) {
    body(begin, end);
    return;
  }

  std::size_t chunks = (range + grain - 1) / grain;
  if (chunks > impl_->lanes) {
    chunks = impl_->lanes;
  }
  const std::size_t base = range / chunks;
  const std::size_t extra = range % chunks;  // first `extra` chunks get +1

  struct Region {
    Mutex mutex;
    std::condition_variable_any done;
    std::size_t remaining MANDIPASS_GUARDED_BY(mutex);
    std::exception_ptr error MANDIPASS_GUARDED_BY(mutex);
  } region;
  {
    MutexLock lock(region.mutex);
    region.remaining = chunks;
  }

  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t lo =
        begin + chunk * base + (chunk < extra ? chunk : extra);
    const std::size_t hi = lo + base + (chunk < extra ? 1 : 0);
    try {
      body(lo, hi);
    } catch (...) {
      MutexLock lock(region.mutex);
      if (!region.error) {
        region.error = std::current_exception();
      }
    }
    MutexLock lock(region.mutex);
    if (--region.remaining == 0) {
      region.done.notify_one();
    }
  };

  {
    MutexLock lock(impl_->mutex);
    for (std::size_t c = 1; c < chunks; ++c) {
      impl_->queue.push_back([&run_chunk, c] { run_chunk(c); });
    }
  }
  impl_->wake.notify_all();

  // The caller executes chunk 0, then waits for the workers.
  const bool was_inside = t_inside_pool;
  t_inside_pool = true;
  run_chunk(0);
  t_inside_pool = was_inside;

  MutexLock lock(region.mutex);
  while (region.remaining != 0) {
    region.done.wait(lock);
  }
  if (region.error) {
    std::rethrow_exception(region.error);
  }
}

namespace {
Mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool MANDIPASS_GUARDED_BY(g_global_mutex);
}  // namespace

ThreadPool& ThreadPool::global() {
  MutexLock lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>();
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  MutexLock lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

std::size_t ThreadPool::global_thread_count() { return global().thread_count(); }

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

}  // namespace mandipass::common
