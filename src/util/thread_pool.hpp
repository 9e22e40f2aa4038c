// Persistent worker pool behind parallel_for / parallel_reduce.
//
// The construction pipeline fires many short data-parallel regions
// (exit enumeration, vertex emission) per embedding;
// spawning std::threads per call made thread-management overhead scale
// with the number of embeddings rather than with the work.  This pool
// spawns workers once (lazily, on the first region that wants them),
// parks them on a condition variable between regions, and hands out
// work in dynamic chunks so blocks with expensive fault handling do not
// straggle behind cheap healthy ones the way static chunking forces.
//
// Concurrency contract:
//  * One region runs at a time; concurrent callers serialize on an
//    internal mutex.  A region entered from inside a pool worker
//    (nested parallelism) must be run inline by the caller — use
//    ThreadPool::in_worker() to detect this; parallel_for does.
//  * The caller participates in its own region, so a region always
//    makes progress even with zero workers.
//  * Cancellation is cooperative: the region stops handing out chunks
//    once *cancel becomes true (parallel_for trips it on the first
//    exception).
//
// Observability (when the obs layer is enabled):
//   pool.workers  gauge: workers ever spawned
//   pool.tasks    regions executed
//   pool.chunks   dynamic chunks handed out
//   pool.wakeups  times a parked worker woke up and joined a region
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace starring {

/// Largest worker count that makes sense on this host.
inline unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

class ThreadPool {
 public:
  /// Chunk executor: process indices [lo, hi) as participant `lane`
  /// (0 = caller, 1.. = workers).  Must not throw — wrap the user
  /// callable in try/catch and record the exception (parallel_for's
  /// trampoline does).
  using Invoke = void (*)(void* ctx, std::size_t lo, std::size_t hi,
                          unsigned lane);

  /// The process-wide pool, created on first use.
  static ThreadPool& instance();

  /// True while the calling thread is executing inside a region — as a
  /// pool worker, or as the caller working its own lane; a nested
  /// region must then run inline instead of re-entering run().
  static bool in_worker();

  /// Execute one parallel region over [begin, end) with up to `lanes`
  /// participants (the caller plus lanes-1 workers).  Blocks until every
  /// chunk completed.  Preconditions: begin < end, lanes >= 2, not
  /// called from a pool worker.
  void run(std::size_t begin, std::size_t end, unsigned lanes, Invoke invoke,
           void* ctx, const std::atomic<bool>* cancel);

  /// Workers currently spawned (grows on demand, capped).
  unsigned workers() const;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;

  void ensure_workers(unsigned want);
  void worker_loop();
  void work(unsigned lane);

  std::mutex region_mu_;  // serializes run() across user threads

  mutable std::mutex mu_;  // protects everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  // State of the active region; valid only while live_ is true.
  std::uint64_t epoch_ = 0;
  bool live_ = false;
  unsigned max_extra_ = 0;  // workers allowed to join (lanes - 1)
  unsigned joined_ = 0;     // workers that joined this region
  unsigned active_ = 0;     // workers currently executing chunks
  std::size_t end_index_ = 0;
  std::size_t chunk_ = 1;
  Invoke invoke_ = nullptr;
  void* ctx_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;
  // Submitting thread's span context, adopted by every worker of the
  // region so spans opened inside user callables parent correctly
  // across the fan-out.
  obs::trace::Context trace_ctx_{};
  std::atomic<std::size_t> next_{0};
};

}  // namespace starring
