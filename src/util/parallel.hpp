// Data-parallel helpers over the persistent worker pool.
//
// The construction pipeline has two embarrassingly parallel phases —
// per-block exit enumeration and final vertex emission — whose cost
// scales with n! while the sequential chaining search between them is
// cheap.  parallel_for schedules those phases in dynamic chunks over
// the process-wide ThreadPool (util/thread_pool.hpp) so one expensive
// fault-containing block cannot straggle a whole lane; with
// threads == 1 it degenerates to a plain loop (no pool touch), which is
// also the deterministic default everywhere correctness tests care
// about ordering.
// Exception safety: a throw from fn escapes to the caller.  With
// threads > 1 the first exception any participant raises is captured
// via std::exception_ptr and rethrown after the region drains (the
// other participants stop at their next iteration boundary instead of
// calling std::terminate); with threads <= 1 it propagates directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "util/thread_pool.hpp"

namespace starring {

namespace parallel_detail {

/// First-exception capture shared by the participants of one region.
struct ErrorSlot {
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr error;

  void capture() noexcept {
    failed.store(true, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::current_exception();
  }
  bool tripped() const {
    return failed.load(std::memory_order_relaxed);
  }
  void rethrow_if_set() {
    if (error) std::rethrow_exception(error);
  }
};

/// Per-lane reduction accumulator, padded out to a cache line so
/// adjacent lanes never false-share the accumulator array.
template <typename T>
struct alignas(64) PaddedAccumulator {
  T value;
};

}  // namespace parallel_detail

/// Invoke fn(i) for i in [begin, end) across `threads` participants of
/// the persistent pool, in dynamically scheduled chunks.  fn must be
/// safe to call concurrently for distinct i.  threads <= 1 runs inline,
/// as does a region opened from inside a pool worker (no nested pools).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, unsigned threads,
                  Fn&& fn) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  if (threads <= 1 || count == 1 || ThreadPool::in_worker()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  parallel_detail::ErrorSlot err;
  struct Ctx {
    Fn* fn;
    parallel_detail::ErrorSlot* err;
  } ctx{&fn, &err};
  ThreadPool::instance().run(
      begin, end, lanes,
      [](void* c, std::size_t lo, std::size_t hi, unsigned) {
        auto* x = static_cast<Ctx*>(c);
        try {
          for (std::size_t i = lo; i < hi; ++i) {
            if (x->err->tripped()) return;
            (*x->fn)(i);
          }
        } catch (...) {
          x->err->capture();
        }
      },
      &ctx, &err.failed);
  err.rethrow_if_set();
}

/// Parallel reduction: combine per-index values with a commutative,
/// associative `combine` starting from `init`, which must be an
/// identity (or at least idempotent) element for `combine` — every lane
/// seeds its private accumulator with it.  Each lane reduces the chunks
/// it grabs into a cache-line-padded private accumulator; partials
/// merge serially at the end (so the result is deterministic for
/// commutative+associative combines regardless of chunk schedule).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, unsigned threads,
                  T init, Map&& map, Combine&& combine) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return init;
  if (threads <= 1 || count == 1 || ThreadPool::in_worker()) {
    T acc = init;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  parallel_detail::ErrorSlot err;
  std::vector<parallel_detail::PaddedAccumulator<T>> partial(
      lanes, parallel_detail::PaddedAccumulator<T>{init});
  struct Ctx {
    Map* map;
    Combine* combine;
    parallel_detail::ErrorSlot* err;
    parallel_detail::PaddedAccumulator<T>* partial;
  } ctx{&map, &combine, &err, partial.data()};
  ThreadPool::instance().run(
      begin, end, lanes,
      [](void* c, std::size_t lo, std::size_t hi, unsigned lane) {
        auto* x = static_cast<Ctx*>(c);
        try {
          T acc = x->partial[lane].value;
          for (std::size_t i = lo; i < hi; ++i) {
            if (x->err->tripped()) return;
            acc = (*x->combine)(acc, (*x->map)(i));
          }
          x->partial[lane].value = acc;
        } catch (...) {
          x->err->capture();
        }
      },
      &ctx, &err.failed);
  err.rethrow_if_set();
  T acc = init;
  for (const auto& p : partial) acc = combine(acc, p.value);
  return acc;
}

}  // namespace starring
