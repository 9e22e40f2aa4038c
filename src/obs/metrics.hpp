// Lightweight observability layer: named monotonic counters and
// phase wall-clock timers for the embedding pipeline.
//
// Design constraints, in order:
//   1. Disabled cost ~ zero.  The runtime switch is OFF by default; a
//      counter op behind it is one relaxed atomic load and a branch.
//   2. No dependencies.  obs sits below every other library in the
//      repo (core, sim, util all may link it); it depends only on the
//      standard library.
//   3. Concurrency-safe.  Counters are atomics; the registry hands out
//      stable references, so hot paths cache a `Counter&` in a
//      function-local static and never re-lookup.
//
// Naming convention for counters (what lands in BENCH_*.json):
//   <area>.<what>           e.g. chain.backtracks, oracle.cache_hits
//   phase.<name>_ns         wall time accumulated by obs::Scope
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace starring::obs {

/// Ordered (name, value) view of the registry; the unit of exchange
/// for snapshot_delta and the bench artifact writer.
using Snapshot = std::vector<std::pair<std::string, std::int64_t>>;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime switch.  Defaults to off unless the environment sets
/// STARRING_METRICS=1; benches flip it on via BenchRecorder.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

class Counter {
 public:
  /// Monotonic increment; dropped while the layer is disabled.
  void add(std::int64_t delta = 1) {
    if (!enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Keep the largest value seen (gauge-style: max n, threads used).
  void record_max(std::int64_t v) {
    if (!enabled()) return;
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Gauge-style overwrite: latest value wins and may move down
  /// (breaker state, live map epoch).  add/record_max cannot express
  /// a value that legitimately decreases.
  void set(std::int64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend Snapshot snapshot();
  friend void reset();
  std::atomic<std::int64_t> value_{0};
};

/// Registry lookup; creates the counter on first use.  The reference
/// stays valid for the process lifetime, so call sites may cache it:
///   static obs::Counter& c = obs::counter("chain.backtracks");
Counter& counter(std::string_view name);

/// All registered counters, sorted by name (zeros included).
Snapshot snapshot();

/// Counters that changed since `before`, as deltas (zero deltas
/// dropped).  The baseline is matched by name, so it may be unsorted or
/// filtered (e.g. a previous delta), and counters first registered
/// after the baseline was taken are reported in full.
Snapshot snapshot_delta(const Snapshot& before);

/// Zero every counter (test isolation; not thread-safe vs. writers).
void reset();

/// The counter `phase.<name>_ns` that obs::Scope feeds, with every '.'
/// of `name` written '_' (svc.batch -> phase.svc_batch_ns).  Each
/// distinct name is resolved against the registry once; later calls
/// hash the name into a lock-free table and take no lock.
Counter& phase_counter(std::string_view name);

/// Fixed-bucket latency histogram over plain counters, so distributions
/// ride the existing snapshot/JSON machinery without a new exchange
/// type.  One record() increments the first bucket whose upper bound
/// holds plus the running count and total:
///   <prefix>.le_100us .le_1ms .le_10ms .le_100ms .le_1s .gt_1s
///   <prefix>.count   <prefix>.total_us
/// Counter references are resolved once at construction; record() is
/// two relaxed atomic adds plus a small scan when the layer is enabled.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::string_view prefix) {
    static constexpr std::string_view kSuffix[kBuckets] = {
        ".le_100us", ".le_1ms", ".le_10ms", ".le_100ms", ".le_1s",
        ".gt_1s"};
    for (int i = 0; i < kBuckets; ++i)
      bucket_[i] = &counter(std::string(prefix).append(kSuffix[i]));
    count_ = &counter(std::string(prefix).append(".count"));
    total_us_ = &counter(std::string(prefix).append(".total_us"));
  }

  void record(std::chrono::nanoseconds elapsed) {
    if (!enabled()) return;
    const std::int64_t us = elapsed.count() / 1000;
    int i = 0;
    while (i < kBuckets - 1 && us > kBoundUs[i]) ++i;
    bucket_[i]->add();
    count_->add();
    total_us_->add(us);
  }

 private:
  static constexpr int kBuckets = 6;
  static constexpr std::int64_t kBoundUs[kBuckets - 1] = {
      100, 1'000, 10'000, 100'000, 1'000'000};
  Counter* bucket_[kBuckets];
  Counter* count_;
  Counter* total_us_;
};

}  // namespace starring::obs
