#include "service/service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/verify.hpp"
#include "obs/scope.hpp"
#include "stargraph/star_graph.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace starring {

namespace {

obs::Counter& c_requests() {
  static obs::Counter& c = obs::counter("svc.requests");
  return c;
}
obs::Counter& c_rejected() {
  static obs::Counter& c = obs::counter("svc.rejected");
  return c;
}
obs::Counter& c_hits() {
  static obs::Counter& c = obs::counter("svc.cache_hits");
  return c;
}
obs::Counter& c_misses() {
  static obs::Counter& c = obs::counter("svc.cache_misses");
  return c;
}
obs::Counter& c_batches() {
  static obs::Counter& c = obs::counter("svc.batches");
  return c;
}
obs::Counter& c_batch_size_max() {
  static obs::Counter& c = obs::counter("svc.batch_size_max");
  return c;
}
obs::Counter& c_queue_depth_max() {
  static obs::Counter& c = obs::counter("svc.queue_depth_max");
  return c;
}
obs::Counter& c_embed_failures() {
  static obs::Counter& c = obs::counter("svc.embed_failures");
  return c;
}
obs::Counter& c_verify_failures() {
  static obs::Counter& c = obs::counter("svc.verify_failures");
  return c;
}
obs::Counter& c_verified() {
  static obs::Counter& c = obs::counter("svc.verified");
  return c;
}
obs::Counter& c_timeouts() {
  static obs::Counter& c = obs::counter("svc.timeouts");
  return c;
}
obs::Counter& c_throttled() {
  static obs::Counter& c = obs::counter("svc.throttled");
  return c;
}

ServiceResponse error_response(std::uint64_t id, std::string reason) {
  return {
      .id = id, .status = ServiceStatus::kError, .reason = std::move(reason)};
}

ServiceResponse timeout_response(std::uint64_t id, std::string reason) {
  return {
      .id = id, .status = ServiceStatus::kTimeout, .reason = std::move(reason)};
}

ServiceResponse throttled_response(std::uint64_t id) {
  return {.id = id,
          .status = ServiceStatus::kThrottled,
          .reason = "tenant quota exhausted"};
}

}  // namespace

EmbedService::TenantState& EmbedService::tenant_state(
    const std::string& name) {
  // The wire allows an absent tenant line; such requests are bucketed
  // into `default` rather than riding quota-free.
  const std::string* key = name.empty() ? nullptr : &name;
  static const std::string kDefault = "default";
  static const std::string kOther = "other";
  if (key == nullptr) key = &kDefault;
  auto it = tenants_.find(*key);
  if (it == tenants_.end()) {
    // Cap the registry: tenant names become counter names, and an
    // adversarial client must not be able to grow it without bound.
    if (tenants_.size() >= opts_.max_tenants && *key != kOther)
      return tenant_state(kOther);
    const double burst = opts_.tenant_burst > 0
                             ? opts_.tenant_burst
                             : std::max(1.0, opts_.tenant_rate);
    it = tenants_
             .emplace(*key, std::make_unique<TenantState>(
                                *key, burst,
                                std::chrono::steady_clock::now()))
             .first;
    rr_order_.push_back(it->second.get());
  }
  return *it->second;
}

bool EmbedService::quota_admit(TenantState& t,
                               std::chrono::steady_clock::time_point now) {
  if (opts_.tenant_rate <= 0) return true;  // quotas off
  const double burst = opts_.tenant_burst > 0
                           ? opts_.tenant_burst
                           : std::max(1.0, opts_.tenant_rate);
  const double dt =
      std::chrono::duration<double>(now - t.last_refill).count();
  if (dt > 0) {
    t.tokens = std::min(burst, t.tokens + dt * opts_.tenant_rate);
    t.last_refill = now;
  }
  if (t.tokens < 1.0) return false;
  t.tokens -= 1.0;
  return true;
}

EmbedService::EmbedService(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache_capacity) {
  scheduler_ = std::thread([this] { scheduler_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

EmbedService::~EmbedService() {
  drain();
  if (scheduler_.joinable()) scheduler_.join();
  {
    const std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::uint64_t EmbedService::watch_deadline(
    std::chrono::steady_clock::time_point deadline,
    std::atomic<bool>* cancel) {
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(watch_mu_);
    id = next_watch_id_++;
    watches_.push_back({id, Watch{deadline, cancel}});
  }
  watch_cv_.notify_one();
  return id;
}

void EmbedService::unwatch(std::uint64_t id) {
  // Holding watch_mu_ for the erase guarantees the watchdog is not
  // mid-flip on this entry when we return — the flag may be freed.
  const std::lock_guard<std::mutex> lock(watch_mu_);
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->first == id) {
      watches_.erase(it);
      return;
    }
  }
}

void EmbedService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!watch_stop_) {
    if (watches_.empty()) {
      watch_cv_.wait(lock);
      continue;
    }
    auto earliest = watches_.front().second.deadline;
    for (const auto& [id, w] : watches_)
      earliest = std::min(earliest, w.deadline);
    watch_cv_.wait_until(lock, earliest);
    const auto now = std::chrono::steady_clock::now();
    for (auto it = watches_.begin(); it != watches_.end();) {
      if (now >= it->second.deadline) {
        it->second.cancel->store(true, std::memory_order_relaxed);
        it = watches_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool EmbedService::submit(ServiceRequest req, Callback on_done, bool wait) {
  // `admitted` is stamped at entry, before any backpressure wait: the
  // latency histogram, the svc.request root span, and the deadline
  // budget all cover the full submit-to-response interval the caller
  // experienced (a request that waited out its budget at admission is
  // shed unprocessed).
  Pending p;
  p.req = std::move(req);
  p.done = std::move(on_done);
  p.admitted = std::chrono::steady_clock::now();
  if (p.req.deadline_ms > 0) {
    p.deadline = p.admitted + std::chrono::milliseconds(p.req.deadline_ms);
    p.has_deadline = true;
  }
  if (obs::trace::enabled()) {
    // Adopt a propagated wire context so this request's spans land in
    // the originator's trace; otherwise the request roots a new one.
    p.span.trace_id = p.req.trace_id != 0 ? p.req.trace_id
                                          : obs::trace::new_trace_id();
    p.span.span_id = obs::trace::new_span_id();
  }
  const obs::trace::Context root = p.span;
  const auto admitted_at = p.admitted;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) {
      admit_cv_.wait(lock, [this] {
        return total_queued_ < opts_.queue_depth || draining_;
      });
    }
    if (draining_ || total_queued_ >= opts_.queue_depth) {
      c_rejected().add();
      return false;
    }
    TenantState& t = tenant_state(p.req.tenant);
    t.requests.add();
    if (!quota_admit(t, std::chrono::steady_clock::now())) {
      // Quota bounce: an immediate terminal response, not an enqueue.
      // Delivered below outside the lock; returns true because the
      // caller's request did reach a terminal status.
      t.throttled.add();
      c_throttled().add();
      lock.unlock();
      ServiceResponse r = throttled_response(p.req.id);
      if (p.done) {
        p.done(std::move(r));
      } else {
        {
          const std::lock_guard<std::mutex> relock(mu_);
          responses_.push_back(std::move(r));
        }
        resp_cv_.notify_all();
      }
      return true;
    }
    p.tenant = &t;
    t.queue.push_back(std::move(p));
    ++total_queued_;
    inflight_.fetch_add(1, std::memory_order_relaxed);
    c_queue_depth_max().record_max(
        static_cast<std::int64_t>(total_queued_));
  }
  // Admission span: time spent blocked on queue backpressure (plus the
  // queue push itself).  Rejected submissions record nothing — their
  // trace never delivers a svc.request root.
  if (root.valid()) {
    obs::trace::emit("svc.admit", root.trace_id, obs::trace::new_span_id(),
                     root.span_id, admitted_at,
                     std::chrono::steady_clock::now());
  }
  c_requests().add();
  work_cv_.notify_one();
  return true;
}

std::optional<ServiceResponse> EmbedService::next_response() {
  std::unique_lock<std::mutex> lock(mu_);
  resp_cv_.wait(lock,
                [this] { return !responses_.empty() || stopped_; });
  if (responses_.empty()) return std::nullopt;
  ServiceResponse r = std::move(responses_.front());
  responses_.pop_front();
  return r;
}

void EmbedService::drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  admit_cv_.notify_all();
  work_cv_.notify_all();
}

std::vector<EmbedService::Pending> EmbedService::take_batch() {
  std::vector<Pending> batch;
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [this] { return total_queued_ > 0 || draining_; });
  if (total_queued_ == 0) return batch;  // draining with nothing left

  // Deficit round robin over the tenant queues: cycle the tenants from
  // the cursor, each backlogged tenant earning drr_quantum requests of
  // service per visit, until the batch is full or no tenant can
  // contribute.  The first selected request pins the batch's dimension
  // (compatible = same dimension: those requests share StarGraph
  // sizing, oracle working set, and — via canonical dedup — possibly
  // embeddings); later visits take only matching-n requests, skipping
  // over a tenant's mismatched entries without reordering them — a
  // tenant stuck on a mismatched dimension keeps accruing deficit and
  // is compensated when a batch of its dimension forms.
  int n = -1;
  const std::size_t tenants = rr_order_.size();
  const std::int64_t quantum =
      static_cast<std::int64_t>(std::max<std::size_t>(1, opts_.drr_quantum));
  std::size_t last_served = rr_cursor_;
  bool progress = true;
  while (progress && batch.size() < opts_.batch_max) {
    progress = false;
    for (std::size_t k = 0; k < tenants && batch.size() < opts_.batch_max;
         ++k) {
      const std::size_t ti = (rr_cursor_ + k) % tenants;
      TenantState& t = *rr_order_[ti];
      if (t.queue.empty()) {
        t.deficit = 0;  // classic DRR: idle tenants accrue no credit
        continue;
      }
      t.deficit += quantum;
      while (t.deficit > 0 && batch.size() < opts_.batch_max) {
        auto it = t.queue.begin();
        if (n >= 0)
          while (it != t.queue.end() && it->req.n != n) ++it;
        if (it == t.queue.end()) break;
        if (n < 0) n = it->req.n;
        batch.push_back(std::move(*it));
        t.queue.erase(it);
        --total_queued_;
        --t.deficit;
        last_served = ti;
        progress = true;
      }
      if (t.queue.empty()) t.deficit = 0;
    }
  }
  rr_cursor_ = tenants == 0 ? 0 : (last_served + 1) % tenants;
  lock.unlock();
  admit_cv_.notify_all();
  return batch;
}

CanonicalRingCache::RingPtr EmbedService::compute_canonical(
    int n, const CanonicalForm& canon, const std::atomic<bool>* cancel) {
  // Chaos: refuse the embedding outright, exercising the same branch a
  // genuine pipeline failure takes.
  if (FAILPOINT("svc.embed")) {
    c_embed_failures().add();
    return nullptr;
  }
  const StarGraph g(n);
  EmbedOptions eopts = opts_.embed;
  eopts.cancel = cancel;
  const auto res = embed_longest_ring(g, canon.faults, eopts);
  if (!res.has_value()) {
    // A cooperatively cancelled search is a timeout, not a pipeline
    // failure; only the latter counts as svc.embed_failures.
    if (cancel == nullptr || !cancel->load(std::memory_order_relaxed))
      c_embed_failures().add();
    return nullptr;
  }
  auto ring = std::make_shared<const std::vector<VertexId>>(
      std::move(res->ring));
  cache_.insert(canon.key, ring);
  return ring;
}

void EmbedService::seed_cache(const std::string& key,
                              std::vector<VertexId> ring) {
  cache_.insert(key,
                std::make_shared<const std::vector<VertexId>>(std::move(ring)));
}

void EmbedService::deliver(Pending& p, ServiceResponse resp,
                           std::chrono::steady_clock::time_point now) {
  latency_.record(now - p.admitted);
  if (p.tenant != nullptr) {
    p.tenant->latency.record(now - p.admitted);
    if (resp.status == ServiceStatus::kOk)
      p.tenant->ok.add();
    else if (resp.status == ServiceStatus::kTimeout)
      p.tenant->timeouts.add();
  }
  // Emit the request's root span now that every child has closed: the
  // whole admitted-to-delivered interval.  A request that arrived with
  // a wire trace context parents under the originator's span (the
  // proxy's forward attempt); otherwise this is the root of its trace.
  if (p.span.valid())
    obs::trace::emit("svc.request", p.span.trace_id, p.span.span_id,
                     p.req.trace_id != 0 ? p.req.parent_span_id : 0,
                     p.admitted, now);
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (p.done) {
    p.done(std::move(resp));
  } else {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      responses_.push_back(std::move(resp));
    }
    resp_cv_.notify_all();
  }
}

ServiceResponse EmbedService::finish(const ServiceRequest& req,
                                     const CanonicalForm& canon,
                                     const CanonicalRingCache::RingPtr& ring,
                                     bool cache_hit) {
  if (req.n < 3 || req.n > kMaxN)
    return error_response(req.id, "unsupported dimension");
  if (ring == nullptr)
    return error_response(
        req.id, "embedding failed (outside the guarantee regime?)");
  ServiceResponse resp;
  resp.id = req.id;
  resp.status = ServiceStatus::kOk;
  resp.cache_hit = cache_hit;
  {
    const obs::Scope scope("svc.relabel");
    resp.ring = relabel_ring(*ring, inverse_of(canon.to_canonical), req.n);
  }
  if (req.verify || (cache_hit && opts_.verify_on_hit)) {
    const obs::Scope scope("svc.verify");
    const StarGraph g(req.n);
    const RingReport report = verify_healthy_ring(g, req.faults, resp.ring);
    if (!report.valid) {
      c_verify_failures().add();
      return error_response(req.id, "verifier: " + report.error);
    }
    c_verified().add();
    resp.verified = true;
  }
  return resp;
}

void EmbedService::run_batch(std::vector<Pending> batch) {
  // The batch itself is its own trace (the scheduler has no request
  // context); per-request spans below parent into each request's trace
  // via explicit ContextGuards, not into this one.
  const obs::Scope scope("svc.batch");
  c_batches().add();
  c_batch_size_max().record_max(static_cast<std::int64_t>(batch.size()));

  // Close out each request's queue-wait interval: admitted on the
  // submitter's thread, picked up here.
  const auto batch_start = std::chrono::steady_clock::now();
  for (const Pending& p : batch) {
    if (p.span.valid())
      obs::trace::emit("svc.queue_wait", p.span.trace_id,
                       obs::trace::new_span_id(), p.span.span_id,
                       p.admitted, batch_start);
  }

  // Shed requests that waited out their budget in the queue before
  // spending any work on them.
  {
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& p : batch) {
      if (p.expired(batch_start)) {
        c_timeouts().add();
        deliver(p,
                timeout_response(p.req.id, "deadline expired in queue"),
                batch_start);
      } else {
        live.push_back(std::move(p));
      }
    }
    batch = std::move(live);
    if (batch.empty()) return;
  }

  const int n = batch.front().req.n;
  struct Slot {
    CanonicalForm canon;
    CanonicalRingCache::RingPtr ring;
    bool hit = false;
  };
  std::vector<Slot> slots(batch.size());
  std::vector<std::size_t> compute;  // slot index owning each distinct miss
  std::vector<ServiceResponse> out(batch.size());
  try {
    if (FAILPOINT("svc.batch"))
      throw failpoint::FailpointError("svc.batch");

    // Canonicalize and consult the cache; each distinct canonical
    // instance is computed at most once per batch, so intra-batch
    // duplicates are hits even when the cache was cold.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const obs::trace::ContextGuard as_request(batch[i].span);
      {
        const obs::Scope scope("svc.canonicalize");
        slots[i].canon = canonicalize(n, batch[i].req.faults);
      }
      {
        const obs::Scope scope("svc.cache_probe");
        slots[i].ring = cache_.lookup(slots[i].canon.key);
      }
      if (slots[i].ring != nullptr) {
        slots[i].hit = true;
        continue;
      }
      bool owned = false;
      for (const std::size_t j : compute) {
        if (slots[j].canon.key == slots[i].canon.key) {
          slots[i].hit = true;  // served by slot j's computation
          owned = true;
          break;
        }
      }
      if (!owned) compute.push_back(i);
    }

    // One cancel flag per distinct computation, armed with the latest
    // deadline among the requests sharing it — and only when every
    // sharer carries a deadline, so the flag can never fire while an
    // unbudgeted request still wants the result.
    std::vector<std::atomic<bool>> cancels(compute.size());
    for (auto& c : cancels) c.store(false, std::memory_order_relaxed);
    std::vector<std::uint64_t> watch_ids(compute.size(), 0);
    for (std::size_t c = 0; c < compute.size(); ++c) {
      bool all_deadlined = true;
      auto latest = std::chrono::steady_clock::time_point::min();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (slots[i].canon.key != slots[compute[c]].canon.key) continue;
        if (!batch[i].has_deadline) {
          all_deadlined = false;
          break;
        }
        latest = std::max(latest, batch[i].deadline);
      }
      if (all_deadlined)
        watch_ids[c] = watch_deadline(latest, &cancels[c]);
    }

    // Compute the distinct misses.  A single miss keeps the pipeline's
    // own data parallelism; several misses fan out one embedding per
    // pool lane instead (nested regions run inline).  n < 3 has no
    // embedding to compute; finish() reports it per request.
    const unsigned threads = opts_.embed.effective_threads();
    try {
      if (n >= 3 && compute.size() == 1) {
        const obs::trace::ContextGuard as_request(
            batch[compute.front()].span);
        const obs::Scope scope("svc.embed");
        Slot& s = slots[compute.front()];
        s.ring = compute_canonical(n, s.canon, &cancels.front());
      } else if (n >= 3 && !compute.empty()) {
        parallel_for(0, compute.size(), threads, [&](std::size_t k) {
          const obs::trace::ContextGuard as_request(batch[compute[k]].span);
          const obs::Scope scope("svc.embed");
          Slot& s = slots[compute[k]];
          s.ring = compute_canonical(n, s.canon, &cancels[k]);
        });
      }
    } catch (...) {
      // The watchdog must stop referencing the flags before their
      // storage unwinds.
      for (const std::uint64_t id : watch_ids)
        if (id != 0) unwatch(id);
      throw;
    }
    for (const std::uint64_t id : watch_ids)
      if (id != 0) unwatch(id);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      (slots[i].hit ? c_hits() : c_misses()).add();
      if (slots[i].hit && batch[i].tenant != nullptr)
        batch[i].tenant->hits.add();
    }
    // Batch-local duplicates of a miss share the owner's ring.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (slots[i].ring != nullptr || !slots[i].hit) continue;
      for (const std::size_t j : compute)
        if (slots[j].canon.key == slots[i].canon.key) {
          slots[i].ring = slots[j].ring;
          break;
        }
    }

    // Relabel into each caller's frame and verify as asked —
    // per-request work, fanned out across the pool.
    parallel_for(0, batch.size(), threads, [&](std::size_t i) {
      const obs::trace::ContextGuard as_request(batch[i].span);
      out[i] = finish(batch[i].req, slots[i].canon, slots[i].ring,
                      slots[i].hit);
    });
  } catch (const std::exception& e) {
    // Deliver something for every request even if a stage threw
    // (allocation failure, injected fault, ...): callers blocked on
    // these ids.
    for (std::size_t i = 0; i < batch.size(); ++i)
      out[i] = error_response(batch[i].req.id,
                              std::string("internal: ") + e.what());
  }

  // Response-delay chaos site.  Armed in throw mode it must not unwind
  // past delivery — callers block on these ids — so it is absorbed.
  try {
    if (FAILPOINT("svc.respond")) {
      // error mode: delivery itself has no failure branch to take.
    }
  } catch (const failpoint::FailpointError&) {
  }

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Strict deadline semantics, judged at delivery: a result computed
    // (or delayed) past its budget goes out as `status timeout` — the
    // ring, if any, stays cached for future callers.
    if (batch[i].expired(now) &&
        out[i].status != ServiceStatus::kTimeout) {
      c_timeouts().add();
      out[i] = timeout_response(batch[i].req.id, "deadline exceeded");
    }
    deliver(batch[i], std::move(out[i]), now);
  }
}

void EmbedService::scheduler_loop() {
  while (true) {
    std::vector<Pending> batch = take_batch();
    if (batch.empty()) break;  // drained
    run_batch(std::move(batch));
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  resp_cv_.notify_all();
}

ServiceResponse EmbedService::process_now(const ServiceRequest& req) {
  // Synchronous path: the whole request is one scope, so the root and
  // its children all come from plain Scope nesting.  The explicit
  // parent context adopts a propagated wire trace (invalid when the
  // request carried none — then this roots a fresh trace, as before).
  const obs::Scope root("svc.request",
                        obs::trace::Context{req.trace_id, req.parent_span_id});
  struct InflightGuard {
    std::atomic<std::uint64_t>& n;
    explicit InflightGuard(std::atomic<std::uint64_t>& c) : n(c) {
      n.fetch_add(1, std::memory_order_relaxed);
    }
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard(inflight_);
  c_requests().add();
  const auto admitted = std::chrono::steady_clock::now();
  // The synchronous path charges the same tenant buckets as the queue:
  // process_now is not a quota bypass.
  TenantState* tstate = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    TenantState& t = tenant_state(req.tenant);
    t.requests.add();
    if (!quota_admit(t, admitted)) {
      t.throttled.add();
      c_throttled().add();
      return throttled_response(req.id);
    }
    tstate = &t;
  }
  const bool budgeted = req.deadline_ms > 0;
  const auto deadline =
      admitted + std::chrono::milliseconds(budgeted ? req.deadline_ms : 0);
  if (req.n < 3 || req.n > kMaxN)
    return error_response(req.id, "unsupported dimension");
  CanonicalForm canon;
  {
    const obs::Scope scope("svc.canonicalize");
    canon = canonicalize(req.n, req.faults);
  }
  CanonicalRingCache::RingPtr ring;
  {
    const obs::Scope scope("svc.cache_probe");
    ring = cache_.lookup(canon.key);
  }
  const bool hit = ring != nullptr;
  (hit ? c_hits() : c_misses()).add();
  if (hit) tstate->hits.add();
  if (!hit) {
    const obs::Scope scope("svc.embed");
    std::atomic<bool> cancel{false};
    const std::uint64_t watch =
        budgeted ? watch_deadline(deadline, &cancel) : 0;
    try {
      ring = compute_canonical(req.n, canon, budgeted ? &cancel : nullptr);
    } catch (...) {
      if (watch != 0) unwatch(watch);
      throw;
    }
    if (watch != 0) unwatch(watch);
  }
  ServiceResponse resp;
  if (budgeted && std::chrono::steady_clock::now() >= deadline) {
    c_timeouts().add();
    resp = timeout_response(req.id, "deadline exceeded");
  } else {
    resp = finish(req, canon, ring, hit);
  }
  tstate->latency.record(std::chrono::steady_clock::now() - admitted);
  if (resp.status == ServiceStatus::kOk)
    tstate->ok.add();
  else if (resp.status == ServiceStatus::kTimeout)
    tstate->timeouts.add();
  return resp;
}

}  // namespace starring
