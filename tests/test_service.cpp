// Tests for the embedding service: cache semantics (bit-identical
// hits, cross-relabeling sharing, eviction), the batched scheduler
// (submit/drain, callbacks, backpressure rejection), verification
// plumbing, and failure surfaces.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <vector>

#include "core/verify.hpp"
#include "fault/generators.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "stargraph/star_graph.hpp"
#include "util/failpoint.hpp"

namespace starring {
namespace {

ServiceRequest make_request(std::uint64_t id, int n, FaultSet faults,
                            bool verify = false) {
  ServiceRequest r;
  r.id = id;
  r.n = n;
  r.faults = std::move(faults);
  r.verify = verify;
  return r;
}

TEST(EmbedService, ProcessNowHitIsBitIdentical) {
  const StarGraph g(6);
  const FaultSet faults = random_vertex_faults(g, 2, /*seed=*/3);
  EmbedService svc;
  const ServiceResponse fresh = svc.process_now(make_request(1, 6, faults));
  ASSERT_EQ(fresh.status, ServiceStatus::kOk);
  EXPECT_FALSE(fresh.cache_hit);
  const ServiceResponse hit = svc.process_now(make_request(2, 6, faults));
  ASSERT_EQ(hit.status, ServiceStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  // The acceptance bar: a hit's ring is bit-identical to the fresh
  // computation's, because both were computed in the canonical frame
  // and relabeled with the same map.
  EXPECT_EQ(hit.ring, fresh.ring);
}

TEST(EmbedService, EquivalentRelabeledRequestsShareTheCache) {
  const int n = 6;
  const StarGraph g(n);
  const FaultSet faults = random_vertex_faults(g, 2, /*seed=*/9);
  EmbedService svc;
  ASSERT_EQ(svc.process_now(make_request(1, n, faults)).status,
            ServiceStatus::kOk);
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Perm h = Perm::unrank(rng() % factorial(n), n);
    const FaultSet moved = faults.relabeled(h);
    const ServiceResponse r =
        svc.process_now(make_request(10 + trial, n, moved, /*verify=*/true));
    ASSERT_EQ(r.status, ServiceStatus::kOk) << r.reason;
    EXPECT_TRUE(r.cache_hit) << "relabeled instance missed the cache";
    EXPECT_TRUE(r.verified);
    const RingReport rep = verify_healthy_ring(g, moved, r.ring);
    EXPECT_TRUE(rep.valid) << rep.error;
  }
}

TEST(EmbedService, SubmitDrainNextResponse) {
  const StarGraph g(5);
  EmbedService svc;
  std::mt19937_64 rng(29);
  const int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const int nf = static_cast<int>(rng() % 3);  // 0..2 = n-3
    ASSERT_TRUE(svc.submit(
        make_request(i, 5, random_vertex_faults(g, nf, rng()), true)));
  }
  svc.drain();
  EXPECT_FALSE(svc.submit(make_request(999, 5, FaultSet{})))
      << "submit after drain must be refused";
  std::map<std::uint64_t, ServiceResponse> got;
  while (auto r = svc.next_response()) got.emplace(r->id, std::move(*r));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, r] : got) {
    EXPECT_EQ(r.status, ServiceStatus::kOk) << "id=" << id << ": " << r.reason;
    EXPECT_TRUE(r.verified);
  }
}

TEST(EmbedService, CallbacksRunForEveryRequest) {
  const StarGraph g(5);
  EmbedService svc;
  std::atomic<int> done{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(svc.submit(
        make_request(i, 5, random_vertex_faults(g, i % 3, i)),
        [&](ServiceResponse r) {
          done.fetch_add(1);
          if (r.status == ServiceStatus::kOk) ok.fetch_add(1);
        }));
  }
  svc.drain();
  while (svc.next_response()) {
  }
  EXPECT_EQ(done.load(), 16);
  EXPECT_EQ(ok.load(), 16);
}

TEST(EmbedService, MixedDimensionsBatchCorrectly) {
  // Batches are same-n; interleaved dimensions must still all complete.
  EmbedService svc;
  for (int i = 0; i < 18; ++i) {
    const int n = 4 + i % 3;  // 4,5,6 interleaved
    const StarGraph g(n);
    ASSERT_TRUE(svc.submit(
        make_request(i, n, random_vertex_faults(g, i % 2, i), true)));
  }
  svc.drain();
  int count = 0;
  while (auto r = svc.next_response()) {
    EXPECT_EQ(r->status, ServiceStatus::kOk) << r->reason;
    ++count;
  }
  EXPECT_EQ(count, 18);
}

TEST(EmbedService, NonBlockingSubmitRejectsWhenFull) {
  // One-slot queue, one-request batches, and slow n=7 work: keep
  // stuffing without waiting until a rejection is observed.
  ServiceOptions opts;
  opts.queue_depth = 1;
  opts.batch_max = 1;
  EmbedService svc(opts);
  const StarGraph g(7);
  std::mt19937_64 rng(41);
  bool rejected = false;
  for (int i = 0; i < 64 && !rejected; ++i) {
    const FaultSet faults = random_vertex_faults(g, 4, rng());
    rejected = !svc.submit(make_request(i, 7, faults), nullptr,
                           /*wait=*/false);
  }
  EXPECT_TRUE(rejected) << "a one-deep queue never filled under load";
  svc.drain();
  while (svc.next_response()) {
  }
}

TEST(EmbedService, VerifyOnHitMarksResponsesVerified) {
  ServiceOptions opts;
  opts.verify_on_hit = true;
  EmbedService svc(opts);
  const StarGraph g(5);
  const FaultSet faults = random_vertex_faults(g, 1, /*seed=*/7);
  const ServiceResponse fresh = svc.process_now(make_request(1, 5, faults));
  ASSERT_EQ(fresh.status, ServiceStatus::kOk);
  EXPECT_FALSE(fresh.verified) << "misses only verify when asked";
  const ServiceResponse hit = svc.process_now(make_request(2, 5, faults));
  ASSERT_EQ(hit.status, ServiceStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.verified);
}

TEST(EmbedService, UnsupportedDimensionIsAnErrorNotACrash) {
  EmbedService svc;
  const ServiceResponse r = svc.process_now(make_request(1, 2, FaultSet{}));
  EXPECT_EQ(r.status, ServiceStatus::kError);
  EXPECT_FALSE(r.reason.empty());
  EXPECT_TRUE(r.ring.empty());
}

TEST(EmbedService, TooManyFaultsReportsEmbedFailure) {
  // n - 2 vertex faults is outside the Theorem-1 guarantee; the
  // pipeline may fail, and the service must answer with kError rather
  // than a bogus ring.  (With n = 4 and 2 faults placed adjacent to
  // each other the 4-cycle-free structure makes failure reliable.)
  const int n = 4;
  const StarGraph g(n);
  EmbedService svc;
  FaultSet faults;
  // Fault every even permutation's first two: id and one neighbor.
  const Perm id = Perm::identity(n);
  faults.add_vertex(id);
  for (const Perm& q : neighbors(id)) faults.add_vertex(q);
  const ServiceResponse r = svc.process_now(make_request(1, n, faults));
  if (r.status == ServiceStatus::kOk) {
    const RingReport rep = verify_healthy_ring(g, faults, r.ring);
    EXPECT_TRUE(rep.valid) << rep.error;
  } else {
    EXPECT_FALSE(r.reason.empty());
  }
}

TEST(EmbedOptionsCancel, PreCancelledEmbedReturnsNothing) {
  // The cooperative flag the deadline watchdog flips: already set, the
  // search must stop at its first checkpoint instead of computing.
  const StarGraph g(7);
  const FaultSet faults = random_vertex_faults(g, 3, /*seed=*/11);
  std::atomic<bool> cancel{true};
  EmbedOptions opts;
  opts.cancel = &cancel;
  EXPECT_FALSE(embed_longest_ring(g, faults, opts).has_value());
}

TEST(EmbedServiceDeadline, ExpiredInQueueIsShedAsTimeout) {
  // One-request batches behind a deterministically slow first batch
  // (delay-mode failpoint): the deadlined n=5 requests expire while
  // queued and must be shed with kTimeout, never silently dropped.
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(failpoint::set("svc.batch=delay:50@once"));
  struct Cleaner {
    ~Cleaner() { failpoint::clear(); }
  } cleaner;
  ServiceOptions opts;
  opts.batch_max = 1;
  EmbedService svc(opts);
  const StarGraph g7(7);
  ASSERT_TRUE(svc.submit(
      make_request(0, 7, random_vertex_faults(g7, 4, /*seed=*/5))));
  const StarGraph g5(5);
  const int kDeadlined = 4;
  for (int i = 1; i <= kDeadlined; ++i) {
    ServiceRequest r =
        make_request(i, 5, random_vertex_faults(g5, 1, /*seed=*/i));
    r.deadline_ms = 1;
    ASSERT_TRUE(svc.submit(std::move(r)));
  }
  svc.drain();
  std::map<std::uint64_t, ServiceResponse> got;
  while (auto r = svc.next_response()) got.emplace(r->id, std::move(*r));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kDeadlined + 1))
      << "every request must reach a terminal status";
  EXPECT_EQ(got.at(0).status, ServiceStatus::kOk) << got.at(0).reason;
  for (int i = 1; i <= kDeadlined; ++i) {
    EXPECT_EQ(got.at(i).status, ServiceStatus::kTimeout)
        << "id=" << i << ": " << got.at(i).reason;
    EXPECT_TRUE(got.at(i).ring.empty());
    EXPECT_FALSE(got.at(i).reason.empty());
  }
}

TEST(EmbedServiceDeadline, DrainStillAnswersExpiredRequests) {
  // Satellite of the reliability layer: drain() racing queued deadlines
  // must not lose responses — drain processes everything queued, and
  // expired entries become timeouts.
  ServiceOptions opts;
  opts.batch_max = 1;
  EmbedService svc(opts);
  const StarGraph g7(7);
  ASSERT_TRUE(svc.submit(
      make_request(0, 7, random_vertex_faults(g7, 4, /*seed=*/13))));
  const StarGraph g5(5);
  for (int i = 1; i <= 3; ++i) {
    ServiceRequest r =
        make_request(i, 5, random_vertex_faults(g5, 1, /*seed=*/40 + i));
    r.deadline_ms = 1;
    ASSERT_TRUE(svc.submit(std::move(r)));
  }
  svc.drain();  // immediately: deadlines expire during the drain
  int terminal = 0;
  while (auto r = svc.next_response()) {
    ++terminal;
    EXPECT_TRUE(r->status == ServiceStatus::kOk ||
                r->status == ServiceStatus::kTimeout)
        << "id=" << r->id << " status not terminal-clean: " << r->reason;
  }
  EXPECT_EQ(terminal, 4);
}

TEST(EmbedServiceDeadline, ProcessNowHonorsBudgetAroundSlowEmbed) {
  if (!failpoint::compiled_in())
    GTEST_SKIP() << "failpoints compiled out";
  // Delay the pipeline past the request budget after the ring exists
  // (the insert site runs post-embed): the response must be kTimeout
  // even though a ring was computed (strict semantics).
  ASSERT_TRUE(failpoint::set("svc.cache_insert=delay:60@once"));
  EmbedService svc;
  const StarGraph g(5);
  ServiceRequest req =
      make_request(1, 5, random_vertex_faults(g, 1, /*seed=*/3));
  req.deadline_ms = 20;
  const ServiceResponse r = svc.process_now(req);
  failpoint::clear();
  EXPECT_EQ(r.status, ServiceStatus::kTimeout) << r.reason;
  // The computed ring stayed cached: the same request without a budget
  // is now a hit.
  const ServiceResponse again =
      svc.process_now(make_request(2, 5, random_vertex_faults(g, 1, 3)));
  EXPECT_EQ(again.status, ServiceStatus::kOk) << again.reason;
  EXPECT_TRUE(again.cache_hit);
}

TEST(EmbedServiceFailpoints, InjectedEmbedFailureIsAnErrorResponse) {
  if (!failpoint::compiled_in())
    GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(failpoint::set("svc.embed=error@once"));
  EmbedService svc;
  const StarGraph g(5);
  const FaultSet faults = random_vertex_faults(g, 1, /*seed=*/21);
  const ServiceResponse r = svc.process_now(make_request(1, 5, faults));
  failpoint::clear();
  EXPECT_EQ(r.status, ServiceStatus::kError);
  EXPECT_FALSE(r.reason.empty());
  // @once: the next attempt computes normally.
  const ServiceResponse ok = svc.process_now(make_request(2, 5, faults));
  EXPECT_EQ(ok.status, ServiceStatus::kOk) << ok.reason;
}

TEST(EmbedServiceFailpoints, BatchThrowStillAnswersEveryRequest) {
  if (!failpoint::compiled_in())
    GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(failpoint::set("svc.batch=throw@once"));
  EmbedService svc;
  const StarGraph g(5);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(svc.submit(
        make_request(i, 5, random_vertex_faults(g, i % 3, i))));
  svc.drain();
  int count = 0;
  while (auto r = svc.next_response()) {
    ++count;
    EXPECT_TRUE(r->status == ServiceStatus::kOk ||
                r->status == ServiceStatus::kError);
  }
  failpoint::clear();
  EXPECT_EQ(count, 6) << "a thrown batch must still answer its callers";
}

TEST(EmbedServiceFailpoints, LostCacheInsertForcesRecompute) {
  if (!failpoint::compiled_in())
    GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(failpoint::set("svc.cache_insert=error"));
  EmbedService svc;
  const StarGraph g(5);
  const FaultSet faults = random_vertex_faults(g, 1, /*seed=*/33);
  const ServiceResponse first = svc.process_now(make_request(1, 5, faults));
  EXPECT_EQ(first.status, ServiceStatus::kOk) << first.reason;
  const ServiceResponse second = svc.process_now(make_request(2, 5, faults));
  failpoint::clear();
  EXPECT_EQ(second.status, ServiceStatus::kOk) << second.reason;
  EXPECT_FALSE(second.cache_hit) << "insert was dropped; must recompute";
  EXPECT_EQ(second.ring, first.ring) << "recompute stays deterministic";
}

TEST(CanonicalRingCache, LookupInsertAndEvictionBound) {
  CanonicalRingCache cache(/*capacity=*/8);  // 1 entry per shard
  EXPECT_EQ(cache.lookup("absent"), nullptr);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key-" + std::to_string(i));
    cache.insert(keys.back(),
                 std::make_shared<const std::vector<VertexId>>(
                     std::vector<VertexId>{static_cast<VertexId>(i)}));
  }
  // Per-shard LRU keeps the total bounded by capacity.
  EXPECT_LE(cache.size(), 8u);
  // Whatever survived still resolves to its own value.
  int survivors = 0;
  for (int i = 0; i < 64; ++i) {
    if (auto p = cache.lookup(keys[i])) {
      ++survivors;
      ASSERT_EQ(p->size(), 1u);
      EXPECT_EQ((*p)[0], static_cast<VertexId>(i));
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(survivors), cache.size());
}

TEST(CanonicalRingCache, HitRefreshesLruPosition) {
  // Capacity 8 over 8 shards = 1 entry/shard, so two same-shard keys
  // evict each other; with a big per-shard budget a refreshed key
  // outlives later inserts.
  CanonicalRingCache cache(/*capacity=*/16);
  auto ring = [](VertexId v) {
    return std::make_shared<const std::vector<VertexId>>(
        std::vector<VertexId>{v});
  };
  cache.insert("a", ring(1));
  cache.insert("b", ring(2));
  EXPECT_NE(cache.lookup("a"), nullptr);  // refresh "a"
  // Re-insert refreshes rather than duplicating.
  cache.insert("a", ring(3));
  auto p = cache.lookup("a");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ((*p)[0], 3u);
  EXPECT_LE(cache.size(), 16u);
}

TEST(CanonicalRingCache, CapacityIsRespectedExactly) {
  // Regression: the old per-shard budget max(1, capacity/kShards) let
  // capacity < 8 hold up to 8 entries and truncated any capacity not
  // divisible by the shard count (12 held only 8).  The budget must be
  // distributed exactly: under sustained fill of distinct keys, the
  // steady-state size IS the configured capacity.
  for (const std::size_t cap : {std::size_t{1}, std::size_t{4},
                                std::size_t{12}, std::size_t{4096}}) {
    CanonicalRingCache cache(cap);
    EXPECT_EQ(cache.capacity(), cap);
    const std::size_t inserts = cap * 4 + 256;
    for (std::size_t i = 0; i < inserts; ++i)
      cache.insert("fill-" + std::to_string(i),
                   std::make_shared<const std::vector<VertexId>>(
                       std::vector<VertexId>{static_cast<VertexId>(i)}));
    EXPECT_EQ(cache.size(), cap) << "capacity " << cap;
  }
}

TEST(CanonicalRingCache, HotSetSurvivesOnePassScan) {
  // Scan resistance: keys touched again after insertion live in the
  // protected segment; a one-pass scan of fresh keys only ever churns
  // probation, so the hot set outlives a scan far larger than the
  // cache.  Under the old plain LRU the scan evicted everything.
  CanonicalRingCache cache(/*capacity=*/64);
  auto ring = [](VertexId v) {
    return std::make_shared<const std::vector<VertexId>>(
        std::vector<VertexId>{v});
  };
  const int kHot = 8;
  for (int i = 0; i < kHot; ++i)
    cache.insert("hot-" + std::to_string(i), ring(static_cast<VertexId>(i)));
  // Second touch promotes into the protected segment.
  for (int i = 0; i < kHot; ++i)
    ASSERT_NE(cache.lookup("hot-" + std::to_string(i)), nullptr);
  for (int i = 0; i < 1000; ++i)
    cache.insert("scan-" + std::to_string(i), ring(0));
  int survivors = 0;
  for (int i = 0; i < kHot; ++i)
    if (cache.lookup("hot-" + std::to_string(i)) != nullptr) ++survivors;
  EXPECT_GE(survivors, 6) << "hot set evicted by a one-pass scan";
  EXPECT_LE(cache.size(), 64u);
}

TEST(EmbedServiceQoS, QuotaThrottlesAndUntaggedRequestsUseDefaultTenant) {
  ServiceOptions opts;
  opts.tenant_rate = 0.001;  // no meaningful refill within the test
  opts.tenant_burst = 2;
  const bool was = obs::enabled();
  obs::set_enabled(true);
  const std::int64_t req_before =
      obs::counter("svc.tenant.default.requests").value();
  const std::int64_t thr_before =
      obs::counter("svc.tenant.default.throttled").value();
  {
    EmbedService svc(opts);
    const StarGraph g(5);
    int ok = 0;
    int throttled = 0;
    for (int i = 0; i < 5; ++i) {
      // No tenant on the request: it must be charged to `default`, not
      // ride quota-free.
      const ServiceResponse r = svc.process_now(
          make_request(i, 5, random_vertex_faults(g, 1, 100 + i)));
      if (r.status == ServiceStatus::kOk) ++ok;
      if (r.status == ServiceStatus::kThrottled) {
        ++throttled;
        EXPECT_EQ(r.reason, "tenant quota exhausted");
      }
    }
    EXPECT_EQ(ok, 2) << "burst of 2 tokens admits exactly 2";
    EXPECT_EQ(throttled, 3);
  }
  EXPECT_EQ(obs::counter("svc.tenant.default.requests").value() - req_before,
            5);
  EXPECT_EQ(
      obs::counter("svc.tenant.default.throttled").value() - thr_before, 3);
  obs::set_enabled(was);
}

TEST(EmbedServiceQoS, SubmittedThrottleIsDeliveredAsTerminalResponse) {
  ServiceOptions opts;
  opts.tenant_rate = 0.001;
  opts.tenant_burst = 1;
  EmbedService svc(opts);
  const StarGraph g(5);
  std::atomic<int> ok{0};
  std::atomic<int> throttled{0};
  for (int i = 0; i < 3; ++i) {
    ServiceRequest r = make_request(i, 5, random_vertex_faults(g, 1, i));
    r.tenant = "burst1";
    ASSERT_TRUE(svc.submit(std::move(r), [&](ServiceResponse resp) {
      if (resp.status == ServiceStatus::kOk) ++ok;
      if (resp.status == ServiceStatus::kThrottled) ++throttled;
    })) << "a throttled submit still reached a terminal status";
  }
  svc.drain();
  EXPECT_EQ(svc.next_response(), std::nullopt);  // joins the drain
  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(throttled.load(), 2);
}

TEST(EmbedServiceQoS, DrrBoundsHeavyTenantProgressWhileLightFinishes) {
  if (!failpoint::compiled_in())
    GTEST_SKIP() << "needs the svc.batch delay failpoint";
  // 10:1 skew: a heavy tenant floods 40 requests, a light tenant sends
  // 4.  Deficit-round-robin batch formation must interleave them, so
  // when the light tenant's last response lands the heavy tenant has
  // completed a bounded share — not its whole backlog first (FIFO
  // behaviour).  A per-batch delay lets the full skewed backlog build
  // before scheduling decisions are made.
  ASSERT_TRUE(failpoint::set("svc.batch=delay:30"));
  std::atomic<int> heavy_done{0};
  std::atomic<int> light_done{0};
  std::atomic<int> heavy_at_light_finish{-1};
  {
    ServiceOptions opts;
    opts.batch_max = 4;
    EmbedService svc(opts);
    const StarGraph g(5);
    for (int i = 0; i < 40; ++i) {
      ServiceRequest r =
          make_request(1000 + i, 5, random_vertex_faults(g, 1, 7 * i));
      r.tenant = "heavy";
      ASSERT_TRUE(svc.submit(std::move(r),
                             [&](ServiceResponse) { ++heavy_done; }));
    }
    for (int i = 0; i < 4; ++i) {
      ServiceRequest r =
          make_request(i, 5, random_vertex_faults(g, 1, 9000 + i));
      r.tenant = "light";
      ASSERT_TRUE(svc.submit(std::move(r), [&](ServiceResponse) {
        if (light_done.fetch_add(1) + 1 == 4)
          heavy_at_light_finish.store(heavy_done.load());
      }));
    }
    svc.drain();
    EXPECT_EQ(svc.next_response(), std::nullopt);  // joins the drain
  }
  failpoint::clear();
  EXPECT_EQ(light_done.load(), 4);
  EXPECT_EQ(heavy_done.load(), 40);
  // Batches of 4 alternate 2 heavy / 2 light once both are backlogged;
  // generous slack for requests batched before the light tenant
  // appeared.
  EXPECT_GE(heavy_at_light_finish.load(), 0);
  EXPECT_LE(heavy_at_light_finish.load(), 20)
      << "heavy tenant starved the light one";
}

TEST(EmbedServiceQoS, TenantRegistryCollapsesBeyondMaxTenants) {
  ServiceOptions opts;
  opts.tenant_rate = 0.001;
  opts.tenant_burst = 1;  // 1 token per tenant bucket
  opts.max_tenants = 4;
  EmbedService svc(opts);
  const StarGraph g(5);
  int throttled = 0;
  // Distinct names beyond max_tenants share the `other` bucket: with 1
  // token there, at most max_tenants + 1 of these can succeed however
  // many names an adversary invents.
  for (int i = 0; i < 12; ++i) {
    ServiceRequest r = make_request(i, 5, random_vertex_faults(g, 1, i));
    r.tenant = "spoof-" + std::to_string(i);
    if (svc.process_now(r).status == ServiceStatus::kThrottled) ++throttled;
  }
  EXPECT_GE(throttled, 12 - 5);
}

}  // namespace
}  // namespace starring
