// Chaos tests for the reliability layer: the failpoint grammar and
// firing semantics, and the embedding service run under a storm of
// injected faults.  The invariants under chaos are absolute — every
// request reaches a terminal status, nothing deadlocks (ctest enforces
// a wall-clock timeout), and the shared cache stays verify-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "fault/generators.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "util/failpoint.hpp"

namespace starring {
namespace {

// Every test disarms the process-global registry on both ends so a
// failure in one test cannot leak injected faults into the next.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::compiled_in())
      GTEST_SKIP() << "failpoints compiled out";
    failpoint::clear();
  }
  void TearDown() override {
    if (failpoint::compiled_in()) failpoint::clear();
  }
};

using FailpointSpec = FailpointTest;
using Chaos = FailpointTest;

TEST_F(FailpointSpec, RejectsMalformedEntries) {
  const std::pair<const char*, const char*> cases[] = {
      {"noequals", "missing site="},
      {"=error", "missing site="},
      {"site=", "missing mode"},
      {"site=explode", "unknown mode"},
      {"site=delay:soon", "bad delay"},
      {"site=error@p:2.0", "bad probability"},
      {"site=error@p:x", "bad probability"},
      {"site=error@sometimes", "unknown modifier"},
      {"site=error@every:0", "unknown modifier"},
      {"site=off@once", "'off' takes no modifiers"},
  };
  for (const auto& [spec, why] : cases) {
    std::string err;
    EXPECT_FALSE(failpoint::set(spec, &err)) << spec;
    EXPECT_NE(err.find(why), std::string::npos)
        << spec << " -> " << err;
    EXPECT_NE(err.find(spec), std::string::npos)
        << "error must echo the offending entry: " << err;
  }
}

TEST_F(FailpointSpec, EntriesBeforeAMalformedOneStayApplied) {
  std::string err;
  EXPECT_FALSE(failpoint::set("t.good=error,t.bad=bogus", &err));
  const auto armed = failpoint::list();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].first, "t.good");
  EXPECT_EQ(armed[0].second, "error");
}

TEST_F(FailpointSpec, OffDisarmsOneSite) {
  ASSERT_TRUE(failpoint::set("t.a=error,t.b=error"));
  EXPECT_EQ(failpoint::list().size(), 2u);
  ASSERT_TRUE(failpoint::set("t.a=off"));
  const auto armed = failpoint::list();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].first, "t.b");
  EXPECT_FALSE(FAILPOINT("t.a"));
  EXPECT_TRUE(FAILPOINT("t.b"));
}

TEST_F(FailpointSpec, ClearDisarmsEverything) {
  ASSERT_TRUE(failpoint::set("t.a=error,t.b=throw"));
  failpoint::clear();
  EXPECT_TRUE(failpoint::list().empty());
  EXPECT_FALSE(FAILPOINT("t.a"));
  EXPECT_FALSE(FAILPOINT("t.b"));
  // The "clear" keyword in a config string does the same.
  ASSERT_TRUE(failpoint::set("t.a=error"));
  ASSERT_TRUE(failpoint::set("clear"));
  EXPECT_TRUE(failpoint::list().empty());
}

TEST_F(FailpointSpec, UnarmedSiteNeverFires) {
  ASSERT_TRUE(failpoint::set("t.other=error"));
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(FAILPOINT("t.unarmed"));
}

TEST_F(FailpointSpec, EveryNFiresOnSchedule) {
  ASSERT_TRUE(failpoint::set("t.every=error@every:3"));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(FAILPOINT("t.every"));
  const std::vector<bool> want = {false, false, true, false, false,
                                  true, false, false, true};
  EXPECT_EQ(fired, want);
}

TEST_F(FailpointSpec, OnceFiresExactlyOnce) {
  ASSERT_TRUE(failpoint::set("t.once=error@once"));
  EXPECT_TRUE(FAILPOINT("t.once"));
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(FAILPOINT("t.once"));
  // Re-arming resets the spent latch.
  ASSERT_TRUE(failpoint::set("t.once=error@once"));
  EXPECT_TRUE(FAILPOINT("t.once"));
}

TEST_F(FailpointSpec, ThrowModeThrowsFailpointError) {
  ASSERT_TRUE(failpoint::set("t.throw=throw"));
  EXPECT_THROW((void)FAILPOINT("t.throw"), failpoint::FailpointError);
  try {
    (void)FAILPOINT("t.throw");
    FAIL() << "must throw";
  } catch (const failpoint::FailpointError& e) {
    EXPECT_NE(std::string(e.what()).find("t.throw"), std::string::npos);
  }
}

TEST_F(FailpointSpec, DelayModeSleepsAndDoesNotFail) {
  ASSERT_TRUE(failpoint::set("t.delay=delay:40"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(FAILPOINT("t.delay"))
      << "a delay perturbs timing but is not a failure branch";
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 35);
}

TEST_F(FailpointSpec, ProbabilisticFiringIsDeterministic) {
  // The per-site RNG is seeded from hash(site) ^ STARRING_FAILPOINT_SEED,
  // so re-arming the same spec replays the exact firing sequence: a
  // probabilistic chaos run reproduces bit-for-bit.
  ASSERT_TRUE(failpoint::set("t.prob=error@p:0.5"));
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(FAILPOINT("t.prob"));
  ASSERT_TRUE(failpoint::set("t.prob=error@p:0.5"));
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) second.push_back(FAILPOINT("t.prob"));
  EXPECT_EQ(first, second);
  // p:0.5 over 64 draws: both outcomes must appear (deterministically).
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointSpec, FiredCountersReconcile) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  ASSERT_TRUE(failpoint::set("t.ca=error,t.cb=error@every:2"));
  for (int i = 0; i < 6; ++i) (void)FAILPOINT("t.ca");
  for (int i = 0; i < 6; ++i) (void)FAILPOINT("t.cb");
  std::int64_t total = 0;
  std::int64_t per_site = 0;
  for (const auto& [name, delta] : obs::snapshot_delta(before)) {
    if (name == "svc.failpoints_fired") total = delta;
    if (name.rfind("fail.t.c", 0) == 0) per_site += delta;
  }
  EXPECT_EQ(total, 6 + 3);
  EXPECT_EQ(per_site, total)
      << "svc.failpoints_fired must equal the sum of fail.<site> counters";
  obs::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// The service under a chaos storm.

ServiceRequest chaos_request(std::uint64_t id, int n, FaultSet faults) {
  ServiceRequest r;
  r.id = id;
  r.n = n;
  r.faults = std::move(faults);
  return r;
}

TEST_F(Chaos, ServiceSurvivesAChaosStorm) {
  // Probabilistic faults at every service-layer site at once: forced
  // cache misses, lost inserts, embed failures, scheduler-batch throws,
  // respond-path evaluation.  Invariants: every request reaches a
  // terminal status, ok responses carry verifiable rings, and after the
  // storm the cache serves only verify-clean entries.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  ASSERT_TRUE(failpoint::set(
      "svc.cache_lookup=error@p:0.3,svc.cache_insert=error@p:0.3,"
      "svc.embed=error@p:0.15,svc.batch=throw@every:5,"
      "svc.respond=error@p:0.25"));

  ServiceOptions opts;
  opts.batch_max = 4;
  opts.verify_on_hit = true;
  struct Spec {
    int n;
    FaultSet faults;
  };
  std::vector<Spec> specs;
  const int kRequests = 60;
  std::mutex got_mu;
  std::condition_variable got_cv;
  std::map<std::uint64_t, ServiceResponse> got;
  {
    EmbedService svc(opts);
    for (int i = 0; i < kRequests; ++i) {
      const int n = 4 + (i % 3);
      const StarGraph g(n);
      Spec s{n, random_vertex_faults(g, i % (n - 2), /*seed=*/1000 + i)};
      ServiceRequest r = chaos_request(i, n, s.faults);
      r.verify = i % 4 == 0;
      if (i % 5 == 0) r.deadline_ms = 500;
      specs.push_back(std::move(s));
      ASSERT_TRUE(svc.submit(std::move(r), [&](ServiceResponse resp) {
        const std::lock_guard<std::mutex> lock(got_mu);
        got.emplace(resp.id, std::move(resp));
        got_cv.notify_all();
      }));
    }
    svc.drain();
    {
      // The service stays up for the sweep below, so wait for the
      // answers rather than for its destruction.
      std::unique_lock<std::mutex> lock(got_mu);
      got_cv.wait_for(lock, std::chrono::seconds(60), [&] {
        return got.size() == static_cast<std::size_t>(kRequests);
      });
    }

    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRequests))
        << "every request must reach a terminal status";
    int ok = 0;
    int errors = 0;
    for (const auto& [id, resp] : got) {
      switch (resp.status) {
        case ServiceStatus::kOk: {
          ++ok;
          const Spec& s = specs.at(static_cast<std::size_t>(id));
          const StarGraph g(s.n);
          ASSERT_FALSE(resp.ring.empty());
          EXPECT_TRUE(verify_healthy_ring(g, s.faults, resp.ring).valid)
              << "id=" << id;
          break;
        }
        case ServiceStatus::kError:
          ++errors;
          EXPECT_FALSE(resp.reason.empty());
          break;
        case ServiceStatus::kTimeout:
          EXPECT_TRUE(resp.ring.empty());
          break;
        case ServiceStatus::kRejected:
          ADD_FAILURE() << "nothing should be rejected: id=" << id;
          break;
        case ServiceStatus::kThrottled:
          ADD_FAILURE() << "quotas are off: nothing should be throttled: id="
                        << id;
          break;
      }
    }
    EXPECT_GT(ok, 0) << "chaos at these rates must not starve the service";
    EXPECT_GT(errors, 0) << "the storm must actually inject failures";

    // Counter reconciliation: the aggregate equals the per-site sum.
    std::int64_t total = 0;
    std::int64_t per_site = 0;
    std::int64_t distinct_sites = 0;
    for (const auto& [name, delta] : obs::snapshot_delta(before)) {
      if (name == "svc.failpoints_fired") total = delta;
      if (name.rfind("fail.", 0) == 0) {
        per_site += delta;
        ++distinct_sites;
      }
    }
    EXPECT_EQ(per_site, total);
    EXPECT_GE(distinct_sites, 3)
        << "a storm over five armed sites should fire at least three";

    // Post-chaos verify sweep through the surviving cache: disarm and
    // re-ask for every instance with verification on.  A corrupt cache
    // entry (e.g. from a torn insert) would surface here.
    failpoint::clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ServiceRequest r =
          chaos_request(10000 + i, specs[i].n, specs[i].faults);
      r.verify = true;
      const ServiceResponse resp = svc.process_now(r);
      ASSERT_EQ(resp.status, ServiceStatus::kOk)
          << "sweep id=" << r.id << ": " << resp.reason;
      EXPECT_TRUE(resp.verified);
    }
  }
  obs::set_enabled(was_enabled);
}

TEST_F(Chaos, DrainUnderChaosDeliversEverything) {
  // drain() racing a throw-heavy scheduler: the contract that every
  // admitted request is answered holds even when whole batches fail.
  ASSERT_TRUE(failpoint::set("svc.batch=throw@every:2"));
  ServiceOptions opts;
  opts.batch_max = 2;
  const int kRequests = 12;
  std::mutex mu;
  std::vector<ServiceResponse> answers;
  {
    EmbedService svc(opts);
    const StarGraph g(5);
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(svc.submit(
          chaos_request(i, 5, random_vertex_faults(g, 1, /*seed=*/i)),
          [&](ServiceResponse r) {
            const std::lock_guard<std::mutex> lock(mu);
            answers.push_back(std::move(r));
          }));
    }
    svc.drain();
  }  // destruction joins the drain
  int terminal = 0;
  for (const ServiceResponse& r : answers) {
    EXPECT_TRUE(r.status == ServiceStatus::kOk ||
                r.status == ServiceStatus::kError)
        << "id=" << r.id;
    ++terminal;
  }
  EXPECT_EQ(terminal, kRequests);
}

}  // namespace
}  // namespace starring
