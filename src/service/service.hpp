// Long-running embedding service: admission queue, batch scheduler,
// symmetry-canonical result cache.
//
// Request flow:
//   submit()            bounded admission queue (blocking backpressure
//      |                or immediate rejection, caller's choice)
//   scheduler thread    pops a batch of same-dimension requests
//      |
//   canonicalize        map (n, F) to its relabeling-class
//      |                representative (service/canonical.hpp)
//   cache lookup        sharded LRU keyed by canonical form; a batch
//      |                computes each distinct canonical instance once
//   embed (miss)        Theorem-1 pipeline on the persistent thread
//      |                pool, in the canonical frame
//   relabel + verify    map the canonical ring back to the caller's
//      |                frame; optionally re-run the independent
//   respond             verifier (always on request, and on every
//                       cache hit with verify_on_hit)
//
// Computing only in the canonical frame makes responses deterministic:
// a cache hit is bit-identical to what a fresh computation of the same
// request would return.  Every answer leaves through the caller's
// callback: submit() queues a request for the scheduler, process_now()
// runs one as a batch of its own on the caller's thread, and both go
// through the same admission and the same run_batch.  Graceful drain:
// drain() stops admission, everything already queued is processed and
// delivered, and destruction joins the scheduler.
//
// Observability (svc.* counters, emitted like every other area's):
//   svc.requests / svc.rejected      admitted vs bounced at the queue
//   svc.throttled                    bounced by a tenant token bucket
//   svc.cache_hits / svc.cache_misses  canonical-cache outcomes
//   svc.cache_evictions              LRU pressure
//   svc.batches / svc.batch_size_max / svc.queue_depth_max
//   svc.embed_failures / svc.verify_failures / svc.verified
//   svc.timeouts                     requests answered `status timeout`
//   svc.latency.*                    submit-to-response histogram
//   svc.tenant.<t>.requests/.throttled/.ok/.timeouts/.hits
//   svc.tenant.<t>.latency.*         per-tenant histogram (folds into
//                                    the Prometheus exposition)
//
// Multi-tenant QoS: every request carries an accounting principal (the
// wire `tenant` line; absent means `default` — untagged traffic never
// bypasses quotas).  Admission charges a per-tenant token bucket
// (tenant_rate / tenant_burst); an exhausted bucket answers `status
// throttled` immediately.  Batch formation is deficit-round-robin over
// per-tenant FIFO queues: each batch visits tenants in rotation,
// granting one request of service per visit, so a tenant
// flooding the queue cannot starve the others — a lightly loaded
// tenant's requests ride the next batches regardless of how deep the
// flooder's backlog is.  Batches stay same-dimension: the first
// DRR-selected request pins n and the rest of the batch is filled with
// matching-n requests in DRR order.
//
// Deadlines: a request may carry a completion budget (deadline_ms,
// measured from admission).  Expired requests still queued are shed at
// batch formation; an in-flight embedding whose every interested
// request is past budget is cooperatively cancelled (a watchdog thread
// flips the EmbedOptions::cancel flag the pipeline polls).  Either way
// the response is `status timeout` — strictly: a ring computed after
// the budget elapsed is cached for future callers but not returned.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/ring_embedder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "util/io.hpp"

namespace starring {

struct ServiceOptions {
  /// Admission-queue bound; submit() blocks (wait=true) or returns
  /// false (wait=false) while this many requests are queued.
  std::size_t queue_depth = 256;
  /// Most requests one scheduler batch may contain.
  std::size_t batch_max = 16;
  /// Canonical embeddings kept by the LRU cache.
  std::size_t cache_capacity = 4096;
  /// Re-run the independent verifier on every cache hit after
  /// relabeling (defense against cache corruption; requests can also
  /// ask for verification individually).
  bool verify_on_hit = false;
  /// Per-tenant token-bucket refill rate in requests/second; 0 turns
  /// quotas off entirely (every tenant unlimited).
  double tenant_rate = 0.0;
  /// Token-bucket depth (burst allowance); 0 defaults to
  /// max(1, tenant_rate).
  double tenant_burst = 0.0;
  /// Knobs for the underlying Theorem-1 pipeline.
  EmbedOptions embed;
};

class EmbedService {
 public:
  using Callback = std::function<void(ServiceResponse)>;

  explicit EmbedService(ServiceOptions opts = {});
  ~EmbedService();  // drains and joins the scheduler
  EmbedService(const EmbedService&) = delete;
  EmbedService& operator=(const EmbedService&) = delete;

  /// Admit a request.  With wait=true a full queue blocks the caller
  /// until space frees (backpressure); with wait=false it returns false
  /// instead.  Returns false once drain() has begun.  on_done (required)
  /// runs on the scheduler thread, or on the caller's for a throttled
  /// request.
  bool submit(ServiceRequest req, Callback on_done, bool wait = true);

  /// Stop admitting; queued requests still complete.  Idempotent and
  /// non-blocking — destruction marks the drain finished.
  void drain();

  /// One request on the caller's thread: admitted like submit() (tenant
  /// quota, inflight) but never queued — it runs as a batch of one, so
  /// it also works after drain().  For tests, benches, and embedded
  /// callers.
  ServiceResponse process_now(const ServiceRequest& req);

  /// Pre-populate the canonical result cache with a known-good ring
  /// (snapshot warm start).  `key` is the CanonicalForm::key of the
  /// instance computed in the canonical frame; the ring must be exactly
  /// what compute_canonical would produce for it — seeded entries are
  /// served as ordinary cache hits, relabeled and (optionally)
  /// re-verified like any other.  Call before serving traffic.
  void seed_cache(const std::string& key, std::vector<VertexId> ring);

  /// Entries currently held by the canonical result cache (the shard
  /// HEALTH probe reports this).
  std::size_t cache_size() const { return cache_.size(); }

  /// Requests admitted but not yet answered — queued plus in flight,
  /// including synchronous process_now callers.  The HEALTH probe
  /// reports this as `inflight`.
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  const ServiceOptions& options() const { return opts_; }

 private:
  struct TenantState;

  struct Pending {
    /// Stamps admission time, deadline and the root span context.
    Pending(ServiceRequest r, Callback d);

    ServiceRequest req;
    Callback done;
    TenantState* tenant = nullptr;
    std::chrono::steady_clock::time_point admitted;
    /// Absolute completion budget (admitted + deadline_ms); only
    /// meaningful when has_deadline.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    // Root span context of this request's trace (invalid while tracing
    // is off).  Allocated at admission — adopting the wire trace id
    // when the request carried one, so the svc.request root lands in
    // the caller's (e.g. the proxy's) trace and parents under its
    // forward span.  Every stage the request passes through parents
    // its spans here, and the svc.request root itself is emitted with
    // explicit [admitted, delivered] endpoints.
    obs::trace::Context span;

    bool expired(std::chrono::steady_clock::time_point now) const {
      return has_deadline && now >= deadline;
    }
  };

  /// Per-tenant accounting: token bucket, DRR backlog + deficit, and
  /// the tenant's slice of the metrics registry.  Owned by tenants_
  /// (stable addresses); mutable state is guarded by mu_ except the
  /// obs objects, which are internally atomic.
  struct TenantState {
    TenantState(const std::string& name, double burst,
                std::chrono::steady_clock::time_point now)
        : requests(obs::counter("svc.tenant." + name + ".requests")),
          throttled(obs::counter("svc.tenant." + name + ".throttled")),
          ok(obs::counter("svc.tenant." + name + ".ok")),
          timeouts(obs::counter("svc.tenant." + name + ".timeouts")),
          hits(obs::counter("svc.tenant." + name + ".hits")),
          latency("svc.tenant." + name + ".latency"),
          tokens(burst),
          last_refill(now) {}

    obs::Counter& requests;
    obs::Counter& throttled;
    obs::Counter& ok;
    obs::Counter& timeouts;
    obs::Counter& hits;
    obs::LatencyHistogram latency;

    double tokens;
    std::chrono::steady_clock::time_point last_refill;
    /// DRR service credit, in requests.
    std::int64_t deficit = 0;
    std::deque<Pending> queue;
  };

  /// Resolve (creating on first sight) the tenant bucket for a wire
  /// name; "" maps to `default`, names beyond kMaxTenants collapse
  /// into `other`.  Caller holds mu_.
  TenantState& tenant_state(const std::string& name);
  /// Charge one token from the request's tenant bucket.  False (the
  /// throttle counted) when the bucket is exhausted; true when `p` is
  /// now in flight.  Caller holds mu_.
  bool admit(Pending& p);

  void scheduler_loop();
  /// Pop up to batch_max same-dimension requests by deficit round
  /// robin over the tenant queues (the first selected request pins the
  /// dimension), preserving each tenant's internal FIFO order.
  std::vector<Pending> take_batch();
  void run_batch(std::vector<Pending> batch);
  /// Canonical-frame embedding for a cache miss; inserts on success.
  /// A non-null cancel is polled by the pipeline (deadline watchdog).
  CanonicalRingCache::RingPtr compute_canonical(
      int n, const CanonicalForm& canon,
      const std::atomic<bool>* cancel = nullptr);
  /// Latency accounting, root-span emission, and the callback for one
  /// finished request.
  void deliver(Pending& p, ServiceResponse resp,
               std::chrono::steady_clock::time_point now);

  // --- Deadline watchdog --------------------------------------------
  // One thread arms per-computation cancel flags: run_batch registers
  // (deadline, flag) pairs before embedding and unregisters after; the
  // watchdog flips flags whose deadline passed.
  std::uint64_t watch_deadline(std::chrono::steady_clock::time_point deadline,
                               std::atomic<bool>* cancel);
  void unwatch(std::uint64_t id);
  void watchdog_loop();
  /// Relabel a canonical ring into the request's frame and verify as
  /// asked; fills everything but the latency accounting.
  ServiceResponse finish(const ServiceRequest& req,
                         const CanonicalForm& canon,
                         const CanonicalRingCache::RingPtr& ring,
                         bool cache_hit);

  ServiceOptions opts_;
  CanonicalRingCache cache_;
  obs::LatencyHistogram latency_{"svc.latency"};

  std::mutex mu_;
  std::condition_variable admit_cv_;  // submitters waiting for space
  std::condition_variable work_cv_;   // scheduler waiting for work
  /// Tenant buckets (stable addresses; Pending::tenant points here)
  /// and the round-robin visit order for DRR batch formation.
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::vector<TenantState*> rr_order_;
  std::size_t rr_cursor_ = 0;
  /// Requests queued across all tenants (the admission bound).
  std::size_t total_queued_ = 0;
  /// Admitted-but-unanswered requests (queued + in flight), across the
  /// queued and synchronous paths; read lock-free by the HEALTH probe.
  std::atomic<std::uint64_t> inflight_{0};
  bool draining_ = false;
  std::thread scheduler_;

  struct Watch {
    std::chrono::steady_clock::time_point deadline;
    std::atomic<bool>* cancel;
  };
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::vector<std::pair<std::uint64_t, Watch>> watches_;
  std::uint64_t next_watch_id_ = 1;
  bool watch_stop_ = false;
  std::thread watchdog_;
};

}  // namespace starring
