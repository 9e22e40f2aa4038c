// Tests for the observability layer: counters, phase spans, the JSON
// emitter/parser, the BENCH_*.json artifact schema, and the pipeline
// wiring (EmbedStats carries the counter snapshot; disabled means
// zero-footprint).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ring_embedder.hpp"
#include "fault/generators.hpp"
#include "obs/bench_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "service/service.hpp"
#include "util/parallel.hpp"

namespace starring {
namespace {


/// Enable metrics for one test, restoring the previous state after.
class MetricsOn {
 public:
  MetricsOn() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset();
  }
  ~MetricsOn() { obs::set_enabled(was_); }

 private:
  bool was_;
};

TEST(ObsMetrics, CounterAccumulates) {
  MetricsOn on;
  obs::Counter& c = obs::counter("test.adds");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name resolves to the same counter.
  EXPECT_EQ(&obs::counter("test.adds"), &c);
}

TEST(ObsMetrics, RecordMaxKeepsLargest) {
  MetricsOn on;
  obs::Counter& c = obs::counter("test.max");
  c.record_max(7);
  c.record_max(3);
  c.record_max(9);
  EXPECT_EQ(c.value(), 9);
}

TEST(ObsMetrics, DisabledCounterDropsWrites) {
  MetricsOn on;
  obs::Counter& c = obs::counter("test.disabled");
  obs::set_enabled(false);
  c.add(100);
  c.record_max(100);
  EXPECT_EQ(c.value(), 0);
  obs::set_enabled(true);
}

TEST(ObsMetrics, SnapshotListsRegisteredCounters) {
  MetricsOn on;
  obs::counter("test.snap_a").add(3);
  obs::counter("test.snap_b").add(5);
  const obs::Snapshot snap = obs::snapshot();
  std::int64_t a = -1;
  std::int64_t b = -1;
  for (const auto& [name, value] : snap) {
    if (name == "test.snap_a") a = value;
    if (name == "test.snap_b") b = value;
  }
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 5);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
}

TEST(ObsMetrics, SnapshotDeltaReportsOnlyGrowth) {
  MetricsOn on;
  obs::counter("test.delta_stale").add(10);
  const obs::Snapshot before = obs::snapshot();
  obs::counter("test.delta_grown").add(4);
  const obs::Snapshot delta = obs::snapshot_delta(before);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].first, "test.delta_grown");
  EXPECT_EQ(delta[0].second, 4);
}

TEST(ObsMetrics, SnapshotDeltaIncludesLateRegisteredCounters) {
  // Counters that first appear AFTER the baseline was taken must be
  // reported in full — regardless of where their name sorts relative
  // to the baseline's names.  (A previous implementation walked both
  // snapshots with a monotone cursor and could mis-attribute or skip
  // late arrivals.)
  MetricsOn on;
  obs::counter("m.delta_existing").add(5);
  const obs::Snapshot before = obs::snapshot();
  obs::counter("a.late_first").add(2);   // sorts before every baseline name
  obs::counter("z.late_last").add(7);    // sorts after every baseline name
  obs::counter("m.delta_existing").add(1);
  const obs::Snapshot delta = obs::snapshot_delta(before);
  const auto value = [&](std::string_view name) -> std::int64_t {
    for (const auto& [k, v] : delta)
      if (k == name) return v;
    return -1;
  };
  EXPECT_EQ(value("a.late_first"), 2);
  EXPECT_EQ(value("z.late_last"), 7);
  EXPECT_EQ(value("m.delta_existing"), 1);
}

TEST(ObsMetrics, SnapshotDeltaMatchesBaselineByName) {
  // The baseline need not be sorted or complete (a previous delta is a
  // legal baseline).  Matching must be by name, never by position.
  MetricsOn on;
  obs::counter("p.delta_a").add(1);
  obs::counter("p.delta_z").add(1);
  // Deliberately unsorted, and missing p.delta_a entirely.
  obs::Snapshot baseline;
  baseline.emplace_back("p.delta_z", 1);
  obs::counter("p.delta_a").add(2);
  obs::counter("p.delta_z").add(4);
  const obs::Snapshot delta = obs::snapshot_delta(baseline);
  const auto value = [&](std::string_view name) -> std::int64_t {
    for (const auto& [k, v] : delta)
      if (k == name) return v;
    return -1;
  };
  // p.delta_a was absent from the baseline: reported in full.
  EXPECT_EQ(value("p.delta_a"), 3);
  EXPECT_EQ(value("p.delta_z"), 4);
}

TEST(ObsMetrics, ScopeAccumulatesWallTime) {
  MetricsOn on;
  {
    const obs::Scope scope("test_sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(obs::counter("phase.test_sleep_ns").value(), 1'000'000);
}

TEST(ObsMetrics, PhaseCounterInternsEachNameOnceAcrossThreads) {
  // Threads racing to intern the same fresh names (each in its own
  // order) must all land on the one registry counter per name; the TSan
  // build runs this against the lock-free probe path.
  constexpr int kNames = 64;
  constexpr int kThreads = 4;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i)
    names.push_back("intern.race." + std::to_string(i));
  std::vector<std::vector<obs::Counter*>> got(
      kThreads, std::vector<obs::Counter*>(kNames, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int k = 0; k < kNames; ++k) {
        const int i = (k * (2 * t + 1) + t) % kNames;
        got[t][i] = &obs::phase_counter(names[i]);
      }
    });
  for (auto& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    obs::Counter* want =
        &obs::counter("phase.intern_race_" + std::to_string(i) + "_ns");
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t][i], want) << i;
  }
}

TEST(ObsMetrics, EmbedStatsCarryCounterSnapshot) {
  MetricsOn on;
  const StarGraph g(5);
  const FaultSet f = random_vertex_faults(g, 2, 3);
  const auto res = embed_longest_ring(g, f);
  ASSERT_TRUE(res.has_value());
  ASSERT_FALSE(res->stats.counters.empty());
  const auto find = [&](const std::string& name) -> std::int64_t {
    for (const auto& [k, v] : res->stats.counters)
      if (k == name) return v;
    return -1;
  };
  EXPECT_GT(find("oracle.cache_misses") + find("oracle.cache_hits"), 0);
}

TEST(ObsMetrics, OracleAndPoolCountersInSchema) {
  // The artifact schema relies on these counter names existing; a
  // multithreaded embed must register and move them.
  MetricsOn on;
  const StarGraph g(5);
  const FaultSet f = random_vertex_faults(g, 2, 11);
  EmbedOptions opts;
  opts.num_threads = 4;
  opts.prewarm_oracle = true;
  const auto res = embed_longest_ring(g, f, opts);
  ASSERT_TRUE(res.has_value());
  const obs::Snapshot snap = obs::snapshot();
  const auto value = [&](const std::string& name) -> std::int64_t {
    for (const auto& [k, v] : snap)
      if (k == name) return v;
    return -1;  // absent: distinguishable from a present zero
  };
  EXPECT_GT(value("oracle.cache_hits") + value("oracle.cache_misses"), 0);
  EXPECT_GE(value("oracle.cache_hits"), 0);
  EXPECT_GE(value("oracle.cache_misses"), 0);
  EXPECT_GT(value("pool.tasks"), 0);
  EXPECT_GT(value("pool.chunks"), 0);
  EXPECT_GE(value("pool.wakeups"), 0);
  EXPECT_GE(value("pool.workers"), 3);  // lanes - 1 spawned for 4 lanes
}

TEST(ObsMetrics, EmbedStatsEmptyWhenDisabled) {
  MetricsOn on;
  obs::set_enabled(false);
  const StarGraph g(5);
  const auto res = embed_hamiltonian_cycle(g);
  obs::set_enabled(true);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->stats.counters.empty());
}

TEST(ObsBench, RecorderWritesValidArtifact) {
  MetricsOn on;
  const std::string dir = ::testing::TempDir();
  setenv("STARRING_BENCH_DIR", dir.c_str(), 1);
  std::string path;
  {
    obs::BenchRecorder rec("unit_test");
    rec.note_n(6);
    rec.note_faults(3);
    rec.add_counter("extra.value", 1.5);
    obs::counter("test.from_recorder_scope").add(2);
    path = rec.path();
  }
  unsetenv("STARRING_BENCH_DIR");
  EXPECT_NE(path.find("BENCH_unit_test.json"), std::string::npos);
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << path;
  std::stringstream buf;
  buf << is.rdbuf();
  std::string err;
  EXPECT_TRUE(obs::validate_bench_artifact_json(buf.str(), &err)) << err;
  const auto doc = obs::json_parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("bench")->string, "unit_test");
  EXPECT_EQ(doc->find("n")->number, 6.0);
  EXPECT_EQ(doc->find("faults")->number, 3.0);
  EXPECT_GE(doc->find("wall_ms")->number, 0.0);
  EXPECT_FALSE(doc->find("git_rev")->string.empty());
  const obs::JsonValue* counters = doc->find("counters");
  EXPECT_EQ(counters->find("extra.value")->number, 1.5);
  EXPECT_EQ(counters->find("test.from_recorder_scope")->number, 2.0);
}

TEST(ObsMetrics, LatencyHistogramBucketsAndTotals) {
  MetricsOn on;
  obs::LatencyHistogram h("test.lat");
  h.record(std::chrono::microseconds(50));        // -> le_100us
  h.record(std::chrono::microseconds(500));       // -> le_1ms
  h.record(std::chrono::milliseconds(5));         // -> le_10ms
  h.record(std::chrono::milliseconds(50));        // -> le_100ms
  h.record(std::chrono::milliseconds(500));       // -> le_1s
  h.record(std::chrono::seconds(2));              // -> gt_1s
  h.record(std::chrono::microseconds(100));       // boundary: still le_100us
  EXPECT_EQ(obs::counter("test.lat.le_100us").value(), 2);
  EXPECT_EQ(obs::counter("test.lat.le_1ms").value(), 1);
  EXPECT_EQ(obs::counter("test.lat.le_10ms").value(), 1);
  EXPECT_EQ(obs::counter("test.lat.le_100ms").value(), 1);
  EXPECT_EQ(obs::counter("test.lat.le_1s").value(), 1);
  EXPECT_EQ(obs::counter("test.lat.gt_1s").value(), 1);
  EXPECT_EQ(obs::counter("test.lat.count").value(), 7);
  EXPECT_EQ(obs::counter("test.lat.total_us").value(),
            50 + 500 + 5'000 + 50'000 + 500'000 + 2'000'000 + 100);
}

TEST(ObsMetrics, LatencyHistogramExactBucketBoundaries) {
  // record() truncates to whole microseconds and places a value in the
  // first bucket whose upper bound is >= it, so each bound itself lands
  // in its own bucket and bound+1us spills into the next.
  MetricsOn on;
  obs::LatencyHistogram h("test.edge");
  const std::int64_t bounds_us[] = {100, 1'000, 10'000, 100'000, 1'000'000};
  for (const std::int64_t b : bounds_us) {
    h.record(std::chrono::microseconds(b));
    h.record(std::chrono::microseconds(b + 1));
  }
  // Sub-microsecond values truncate to 0us -> first bucket.
  h.record(std::chrono::nanoseconds(999));
  // 100'999ns truncates to 100us: still within the first bound.
  h.record(std::chrono::nanoseconds(100'999));
  EXPECT_EQ(obs::counter("test.edge.le_100us").value(), 3);
  EXPECT_EQ(obs::counter("test.edge.le_1ms").value(), 2);
  EXPECT_EQ(obs::counter("test.edge.le_10ms").value(), 2);
  EXPECT_EQ(obs::counter("test.edge.le_100ms").value(), 2);
  EXPECT_EQ(obs::counter("test.edge.le_1s").value(), 2);
  EXPECT_EQ(obs::counter("test.edge.gt_1s").value(), 1);
  EXPECT_EQ(obs::counter("test.edge.count").value(), 12);
}

TEST(ObsMetrics, LatencyHistogramConcurrentRecordFromPoolWorkers) {
  // record() is a few relaxed atomic adds; hammering one histogram from
  // every pool lane must lose no increments and keep the invariant
  // sum(buckets) == count.
  MetricsOn on;
  obs::LatencyHistogram h("test.conc");
  constexpr std::size_t kRecords = 4096;
  parallel_for(0, kRecords, 4, [&](std::size_t i) {
    // Spread across the first three buckets deterministically.
    h.record(std::chrono::microseconds(50 + 400 * (i % 3)));
  });
  EXPECT_EQ(obs::counter("test.conc.count").value(),
            static_cast<std::int64_t>(kRecords));
  const std::int64_t bucketed = obs::counter("test.conc.le_100us").value() +
                                obs::counter("test.conc.le_1ms").value();
  EXPECT_EQ(bucketed, static_cast<std::int64_t>(kRecords));
  EXPECT_EQ(obs::counter("test.conc.le_100us").value(),
            static_cast<std::int64_t>(kRecords / 3 + (kRecords % 3 ? 1 : 0)));
  EXPECT_EQ(
      obs::counter("test.conc.total_us").value(),
      static_cast<std::int64_t>(
          kRecords / 3 * (50 + 450 + 850) + (kRecords % 3 > 0 ? 50 : 0) +
          (kRecords % 3 > 1 ? 450 : 0)));
}

TEST(ObsMetrics, ServiceCountersAfterBatchedRun) {
  MetricsOn on;
  const StarGraph g(5);
  const FaultSet faults = random_vertex_faults(g, 1, /*seed=*/3);
  const int kRequests = 8;
  {
    EmbedService svc;
    for (int i = 0; i < kRequests; ++i) {
      ServiceRequest r;
      r.id = i;
      r.n = 5;
      r.faults = faults;  // one canonical class: 1 miss, the rest hits
      ASSERT_TRUE(svc.submit(std::move(r), [](ServiceResponse) {}));
    }
    svc.drain();
  }  // destruction joins the drain
  const auto value = [](const std::string& name) {
    return obs::counter(name).value();
  };
  EXPECT_EQ(value("svc.requests"), kRequests);
  EXPECT_EQ(value("svc.rejected"), 0);
  EXPECT_GE(value("svc.batches"), 1);
  EXPECT_GE(value("svc.batch_size_max"), 1);
  EXPECT_GE(value("svc.queue_depth_max"), 1);
  EXPECT_EQ(value("svc.cache_misses"), 1);
  EXPECT_EQ(value("svc.cache_hits"), kRequests - 1);
  EXPECT_EQ(value("svc.embed_failures"), 0);
  EXPECT_EQ(value("svc.verify_failures"), 0);
  // Every request's submit-to-response latency was recorded.
  EXPECT_EQ(value("svc.latency.count"), kRequests);
  EXPECT_GT(value("svc.latency.total_us"), 0);
  std::int64_t bucketed = 0;
  for (const char* b : {"svc.latency.le_100us", "svc.latency.le_1ms",
                        "svc.latency.le_10ms", "svc.latency.le_100ms",
                        "svc.latency.le_1s", "svc.latency.gt_1s"})
    bucketed += value(b);
  EXPECT_EQ(bucketed, kRequests);
}

TEST(ObsMetrics, ServiceVerifyCountersViaProcessNow) {
  MetricsOn on;
  const StarGraph g(5);
  EmbedService svc;
  ServiceRequest r;
  r.id = 1;
  r.n = 5;
  r.faults = random_vertex_faults(g, 2, 7);
  r.verify = true;
  const ServiceResponse first = svc.process_now(r);
  ASSERT_EQ(first.status, ServiceStatus::kOk) << first.reason;
  r.id = 2;
  const ServiceResponse second = svc.process_now(r);
  ASSERT_EQ(second.status, ServiceStatus::kOk) << second.reason;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(obs::counter("svc.verified").value(), 2);
  EXPECT_EQ(obs::counter("svc.verify_failures").value(), 0);
  EXPECT_EQ(obs::counter("svc.cache_hits").value(), 1);
  EXPECT_EQ(obs::counter("svc.cache_misses").value(), 1);
}


TEST(ObsJson, EscapeCoversSpecials) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(ObsJson, NumberFormatting) {
  EXPECT_EQ(obs::json_number(42.0), "42");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  // nan/inf are not representable in JSON; they clamp to 0.
  EXPECT_EQ(obs::json_number(std::nan("")), "0");
}

TEST(ObsJson, ParseRoundTrip) {
  const char* text =
      "{\"a\": 1, \"b\": [true, null, \"x\\ny\"], \"c\": {\"d\": -2.5}}";
  std::string err;
  const auto doc = obs::json_parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("a")->number, 1.0);
  ASSERT_EQ(doc->find("b")->array.size(), 3u);
  EXPECT_TRUE(doc->find("b")->array[0].boolean);
  EXPECT_EQ(doc->find("b")->array[2].string, "x\ny");
  EXPECT_EQ(doc->find("c")->find("d")->number, -2.5);
}

TEST(ObsJson, ParseRejectsMalformed) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "{} trailing",
        "\"unterminated", "{\"a\": 01x}"}) {
    std::string err;
    EXPECT_FALSE(obs::json_parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(ObsJson, ParseDecodesUnicodeEscape) {
  const auto doc = obs::json_parse("{\"s\": \"\\u0041\\u00e9\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->string, "A\xc3\xa9");
}

TEST(ObsBench, ArtifactJsonMatchesSchema) {
  obs::BenchArtifact a;
  a.bench = "schema_check";
  a.n = 9;
  a.faults = 6;
  a.wall_ms = 12.25;
  a.counters = {{"chain.backtracks", 17.0}, {"phase.embed_ns", 1e9}};
  a.git_rev = obs::git_rev();
  const std::string json = obs::bench_artifact_json(a);
  std::string err;
  EXPECT_TRUE(obs::validate_bench_artifact_json(json, &err)) << err << json;
}

TEST(ObsBench, ValidatorRejectsMissingOrWrongTypes) {
  std::string err;
  EXPECT_FALSE(obs::validate_bench_artifact_json("{}", &err));
  EXPECT_NE(err.find("missing key"), std::string::npos);
  EXPECT_FALSE(obs::validate_bench_artifact_json(
      "{\"bench\": 1, \"n\": 0, \"faults\": 0, \"wall_ms\": 0, "
      "\"counters\": {}, \"git_rev\": \"x\"}",
      &err));
  EXPECT_NE(err.find("wrong type"), std::string::npos);
  EXPECT_FALSE(obs::validate_bench_artifact_json(
      "{\"bench\": \"b\", \"n\": 0, \"faults\": 0, \"wall_ms\": 0, "
      "\"counters\": {\"k\": \"not a number\"}, \"git_rev\": \"x\"}",
      &err));
  EXPECT_NE(err.find("non-numeric counter"), std::string::npos);
}

}  // namespace
}  // namespace starring
