// Tests for the tracing subsystem (obs/trace.hpp): span identity and
// nesting, cross-thread context propagation through the pool, the
// flight recorder's overwrite semantics, concurrent record/collect
// (the TSan target for the seqlock cells), and both exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/ring_embedder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace starring {
namespace {

namespace trace = obs::trace;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(true);
    trace::clear();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
  }
};


std::map<std::string, trace::SpanRecord> by_name(
    const std::vector<trace::SpanRecord>& records) {
  std::map<std::string, trace::SpanRecord> m;
  for (const auto& r : records) m[r.name] = r;
  return m;
}

TEST_F(TraceTest, NestedScopesChainParentLinks) {
  {
    obs::Scope outer("outer");
    obs::Scope mid("mid");
    { obs::Scope inner("inner"); }
  }
  const auto m = by_name(trace::collect());
  ASSERT_EQ(m.size(), 3u);
  const auto& outer = m.at("outer");
  const auto& mid = m.at("mid");
  const auto& inner = m.at("inner");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(mid.parent_id, outer.span_id);
  EXPECT_EQ(inner.parent_id, mid.span_id);
  EXPECT_EQ(outer.trace_id, mid.trace_id);
  EXPECT_EQ(outer.trace_id, inner.trace_id);
  // Temporal containment: children start no earlier and end no later.
  EXPECT_GE(mid.start_ns, outer.start_ns);
  EXPECT_LE(mid.start_ns + mid.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_GE(inner.start_ns, mid.start_ns);
}

TEST_F(TraceTest, SiblingScopesShareParentNotIds) {
  {
    obs::Scope root("root");
    { obs::Scope a("a"); }
    { obs::Scope b("b"); }
  }
  const auto m = by_name(trace::collect());
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("a").parent_id, m.at("root").span_id);
  EXPECT_EQ(m.at("b").parent_id, m.at("root").span_id);
  EXPECT_NE(m.at("a").span_id, m.at("b").span_id);
}

TEST_F(TraceTest, SeparateRootsGetSeparateTraces) {
  { obs::Scope a("a"); }
  { obs::Scope b("b"); }
  const auto m = by_name(trace::collect());
  ASSERT_EQ(m.size(), 2u);
  EXPECT_NE(m.at("a").trace_id, m.at("b").trace_id);
}

TEST_F(TraceTest, DisabledRecordsNothingAndContextStaysInvalid) {
  trace::set_enabled(false);
  {
    obs::Scope span("ghost");
    EXPECT_FALSE(span.context().valid());
    EXPECT_FALSE(trace::current().valid());
  }
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, ScopeFeedsPhaseCounterAndSpanUnderOneName) {
  // One instrument, two sinks: the span keeps the dotted name and the
  // counter writes each '.' as '_'.  A copy of the name in another
  // buffer resolves to the same counter.
  const bool was = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("phase.test_scope_both_ns");
  const std::int64_t before = c.value();
  char copy[] = "test.scope.both";
  { const obs::Scope scope("test.scope.both"); }
  { const obs::Scope scope(copy); }
  EXPECT_EQ(&obs::phase_counter(copy), &c);
  EXPECT_GT(c.value(), before);
  const auto records = trace::collect();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "test.scope.both");
  EXPECT_EQ(records[1].name, "test.scope.both");

  // Both switches off: no span and no counter growth.
  trace::set_enabled(false);
  obs::set_enabled(false);
  const std::int64_t off_before = c.value();
  { const obs::Scope scope("test.scope.both"); }
  EXPECT_EQ(c.value(), off_before);
  EXPECT_EQ(trace::collect().size(), 2u);
  obs::set_enabled(was);
}

TEST_F(TraceTest, EmbedSpanDoesNotNeedTheMetricsSwitch) {
  // Tracing alone records the pipeline's spans, `embed` included.
  const bool was = obs::enabled();
  obs::set_enabled(false);
  const StarGraph g(5);
  ASSERT_TRUE(embed_longest_ring(g, FaultSet{}).has_value());
  obs::set_enabled(was);
  const auto m = by_name(trace::collect());
  ASSERT_EQ(m.count("embed"), 1u);
  ASSERT_EQ(m.count("chain_search"), 1u);
  EXPECT_EQ(m.at("chain_search").trace_id, m.at("embed").trace_id);
}

TEST_F(TraceTest, ExplicitParentOverridesThreadCurrent) {
  trace::Context foreign;
  foreign.trace_id = trace::new_trace_id();
  foreign.span_id = trace::new_span_id();
  {
    obs::Scope ambient("ambient");
    obs::Scope adopted("adopted", foreign);
    EXPECT_EQ(adopted.context().trace_id, foreign.trace_id);
  }
  const auto m = by_name(trace::collect());
  EXPECT_EQ(m.at("adopted").parent_id, foreign.span_id);
  EXPECT_NE(m.at("adopted").trace_id, m.at("ambient").trace_id);
}

TEST_F(TraceTest, EmitRecordsExplicitIntervals) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = t0 + std::chrono::microseconds(250);
  const std::uint64_t trace_id = trace::new_trace_id();
  const std::uint64_t span_id = trace::new_span_id();
  trace::emit("manual", trace_id, span_id, 0, t0, t1);
  // A t1 before t0 must clamp to zero duration, not go negative.
  trace::emit("clamped", trace_id, trace::new_span_id(), span_id, t1, t0);
  const auto m = by_name(trace::collect());
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("manual").dur_ns, 250'000);
  EXPECT_EQ(m.at("clamped").dur_ns, 0);
  EXPECT_EQ(m.at("clamped").parent_id, span_id);
}

TEST_F(TraceTest, LongNamesTruncateWithoutCorruption) {
  { obs::Scope span("a.very.long.span.name.that.exceeds.the.cap"); }
  const auto records = trace::collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "a.very.long.span.name.th");  // 24 bytes
}

TEST_F(TraceTest, ContextPropagatesAcrossPoolWorkers) {
  constexpr std::size_t kItems = 64;
  std::vector<trace::Context> seen(kItems);
  trace::Context root_ctx;
  {
    obs::Scope root("fanout_root");
    root_ctx = root.context();
    parallel_for(0, kItems, 4, [&](std::size_t i) {
      obs::Scope item("item");
      seen[i] = trace::current();
      // Enough per-item work that the caller lane cannot drain every
      // chunk before a worker wakes — the fan-out must cross threads.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i].trace_id, root_ctx.trace_id) << "item " << i;
  }
  const auto records = trace::collect();
  std::size_t items = 0;
  std::set<std::uint32_t> tids;
  for (const auto& r : records) {
    if (r.name != "item") continue;
    ++items;
    EXPECT_EQ(r.trace_id, root_ctx.trace_id);
    EXPECT_EQ(r.parent_id, root_ctx.span_id);
    tids.insert(r.tid);
  }
  EXPECT_EQ(items, kItems);
  // The fan-out really crossed threads (caller lane + >= 1 worker).
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(TraceTest, WorkerContextRestoredBetweenRegions) {
  {
    obs::Scope root("first_region");
    parallel_for(0, 8, 3, [&](std::size_t) {
      obs::Scope s("first_item");
    });
  }
  // No ambient context now: items of this region must start new traces,
  // not inherit a stale context from the previous region's workers.
  parallel_for(0, 8, 3, [&](std::size_t) {
    obs::Scope s("second_item");
  });
  for (const auto& r : trace::collect()) {
    if (r.name == "second_item") {
      EXPECT_EQ(r.parent_id, 0u);
    }
  }
}

TEST_F(TraceTest, RingOverwritesOldestKeepsNewest) {
  const std::size_t cap = trace::ring_capacity();
  // A fresh thread gets its own ring; overflow it deterministically.
  std::thread t([&] {
    for (std::size_t i = 0; i < cap + 10; ++i) {
      obs::Scope span("overflow");
    }
  });
  t.join();
  std::size_t overflow = 0;
  for (const auto& r : trace::collect())
    if (r.name == "overflow") ++overflow;
  EXPECT_LE(overflow, cap);
  EXPECT_GE(overflow, cap - 1);  // a torn cell may drop at most the seam
  const auto stats = trace::stats();
  EXPECT_GE(stats.recorded, cap + 10);
  EXPECT_GE(stats.dropped, 10u);
}

TEST_F(TraceTest, ConcurrentRecordAndCollectStaysWellFormed) {
  // The TSan target: writers push while a reader drains.  Correctness
  // bar: no crash, no torn record surfacing impossible ids.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::Scope span("w");
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const auto records = trace::collect();
    for (const auto& r : records) {
      EXPECT_NE(r.trace_id, 0u);
      EXPECT_GE(r.dur_ns, 0);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST_F(TraceTest, CollectIsSortedByStartTime) {
  for (int i = 0; i < 20; ++i) obs::Scope("tick");
  const auto records = trace::collect();
  ASSERT_GE(records.size(), 20u);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LE(records[i - 1].start_ns, records[i].start_ns);
}

TEST_F(TraceTest, IdNamespaceSeparatesProcesses) {
  // Shard k mints under namespace k+1: every id carries the namespace
  // in its top 16 bits, so merged dumps from different processes never
  // collide.  clear() must re-seed at the namespace base, not 1.
  trace::set_id_namespace(3);
  trace::clear();
  { obs::Scope span("a"); }
  { obs::Scope span("b"); }
  const auto records = trace::collect();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_EQ(r.trace_id >> 48, 3u) << r.name;
    EXPECT_EQ(r.span_id >> 48, 3u) << r.name;
  }
  EXPECT_NE(records[0].trace_id, records[1].trace_id);
  trace::set_id_namespace(0);  // restore the default for later tests
  trace::clear();
}

TEST_F(TraceTest, WireContextAdoptedAsParent) {
  // A request arriving with a `trace` line hands its context to the
  // server-side root span: same trace id, remote span as parent.
  const trace::Context wire{(std::uint64_t{7} << 48) + 5, 99};
  { obs::Scope root("svc.request", wire); }
  const auto records = trace::collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, wire.trace_id);
  EXPECT_EQ(records[0].parent_id, wire.span_id);
}

TEST_F(TraceTest, EpochIsStableAndNonZero) {
  EXPECT_GT(trace::epoch_ns(), 0u);
  EXPECT_EQ(trace::epoch_ns(), trace::epoch_ns());
}


TEST_F(TraceTest, ChromeTraceExportParsesAndNests) {
  {
    obs::Scope outer("svc.outer");
    obs::Scope inner("svc.inner");
  }
  std::ostringstream os;
  ASSERT_TRUE(trace::write_chrome_trace(os));
  std::string error;
  const auto doc = obs::json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  for (const auto& e : events->array) {
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_EQ(e.find("cat")->string, "svc");
    EXPECT_GE(e.find("dur")->number, 0.0);
    ASSERT_NE(e.find("args"), nullptr);
  }
  // Parent linkage survives export.
  const auto& a = events->array[0];
  const auto& b = events->array[1];
  const auto& outer_ev =
      a.find("name")->string == "svc.outer" ? a : b;
  const auto& inner_ev =
      a.find("name")->string == "svc.outer" ? b : a;
  EXPECT_EQ(inner_ev.find("args")->find("parent")->number,
            outer_ev.find("args")->find("span")->number);
}

TEST_F(TraceTest, ChromeTraceEmptyRecorderIsWellFormed) {
  std::ostringstream os;
  ASSERT_TRUE(trace::write_chrome_trace(os));
  std::string error;
  const auto doc = obs::json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("traceEvents")->array.empty());
}

// --- Prometheus renderer ---------------------------------------------

TEST(PrometheusTest, RendersCountersGaugesAndHistograms) {
  obs::Snapshot snap = {
      {"embed.calls", 42},
      {"embed.max_n", 9},
      {"svc.batch_size_max", 8},
      {"svc.latency.le_100us", 1},
      {"svc.latency.le_1ms", 2},
      {"svc.latency.le_10ms", 3},
      {"svc.latency.le_100ms", 0},
      {"svc.latency.le_1s", 0},
      {"svc.latency.gt_1s", 1},
      {"svc.latency.count", 7},
      {"svc.latency.total_us", 1'500'000},
  };
  const std::string text = obs::render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE starring_embed_calls counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("starring_embed_calls 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE starring_embed_max_n gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE starring_svc_batch_size_max gauge\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE starring_svc_latency_seconds histogram\n"),
      std::string::npos);
  // Cumulative buckets in seconds.
  EXPECT_NE(text.find(
                "starring_svc_latency_seconds_bucket{le=\"0.0001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("starring_svc_latency_seconds_bucket{le=\"0.001\"} 3\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("starring_svc_latency_seconds_bucket{le=\"0.01\"} 6\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("starring_svc_latency_seconds_bucket{le=\"+Inf\"} 7\n"),
      std::string::npos);
  EXPECT_NE(text.find("starring_svc_latency_seconds_sum 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("starring_svc_latency_seconds_count 7\n"),
            std::string::npos);
  // Histogram members are folded, not re-exported as scalars.
  EXPECT_EQ(text.find("starring_svc_latency_le_100us"), std::string::npos);
  EXPECT_EQ(text.find("starring_svc_latency_count "), std::string::npos);
}

TEST(PrometheusTest, RacySnapshotCountBelowBucketSumStaysMonotone) {
  // A snapshot can catch .count before the last bucket increment lands;
  // +Inf and _count must still be >= the cumulative bucket sum.
  obs::Snapshot snap = {
      {"x.le_100us", 5}, {"x.le_1ms", 0},  {"x.le_10ms", 0},
      {"x.le_100ms", 0}, {"x.le_1s", 0},   {"x.gt_1s", 0},
      {"x.count", 3},    {"x.total_us", 1},
  };
  const std::string text = obs::render_prometheus(snap);
  EXPECT_NE(text.find("starring_x_seconds_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("starring_x_seconds_count 5\n"), std::string::npos);
}

TEST(PrometheusTest, ParseHistogramRoundTripsRenderedOutput) {
  obs::Snapshot snap = {
      {"svc.latency.le_100us", 10}, {"svc.latency.le_1ms", 20},
      {"svc.latency.le_10ms", 0},   {"svc.latency.le_100ms", 0},
      {"svc.latency.le_1s", 0},     {"svc.latency.gt_1s", 0},
      {"svc.latency.count", 30},    {"svc.latency.total_us", 9'000},
  };
  const auto h = obs::parse_histogram(obs::render_prometheus(snap),
                                      "starring_svc_latency_seconds");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, 30);
  EXPECT_DOUBLE_EQ(h->sum_seconds, 0.009);
  ASSERT_EQ(h->buckets.size(), 6u);
  EXPECT_EQ(h->buckets.front().second, 10);
  EXPECT_EQ(h->buckets.back().second, 30);
  // Quantiles: p25 sits inside the first bucket, p90 inside the second.
  const double p25 = obs::histogram_quantile(*h, 0.25);
  EXPECT_GT(p25, 0.0);
  EXPECT_LE(p25, 0.0001);
  const double p90 = obs::histogram_quantile(*h, 0.90);
  EXPECT_GT(p90, 0.0001);
  EXPECT_LE(p90, 0.001);
  // Everything in +Inf clamps to the largest finite bound.
  obs::HistogramSample tail;
  tail.buckets = {{0.0001, 0}, {0.001, 0},
                  {std::numeric_limits<double>::infinity(), 5}};
  tail.count = 5;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(tail, 0.5), 0.001);
}

TEST(PrometheusTest, ParseHistogramRejectsAbsentFamilies) {
  EXPECT_FALSE(obs::parse_histogram("starring_other 3\n",
                                    "starring_svc_latency_seconds")
                   .has_value());
  EXPECT_FALSE(obs::parse_histogram("", "starring_svc_latency_seconds")
                   .has_value());
}

}  // namespace
}  // namespace starring
