// Tests of the benchmark's own arithmetic and generators.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perm/factorial.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

std::string stream_bytes(const Mix& mix, std::uint64_t seed, int count) {
  RequestStream s(mix, seed, 1);
  std::string out;
  for (int i = 0; i < count; ++i) out += wire_bytes(s.next().req);
  return out;
}

TEST(RequestStream, SameSeedGivesByteIdenticalStream) {
  const Mix mix;
  EXPECT_EQ(stream_bytes(mix, 7, 400), stream_bytes(mix, 7, 400));
  Mix hit;
  hit.nmin = hit.nmax = 8;
  hit.scan_frac = 0;
  EXPECT_EQ(stream_bytes(hit, 3, 50), stream_bytes(hit, 3, 50));
}

TEST(RequestStream, DifferentSeedGivesDifferentStream) {
  const Mix mix;
  EXPECT_NE(stream_bytes(mix, 7, 50), stream_bytes(mix, 8, 50));
}

TEST(RequestStream, MixHasTheConfiguredShapes) {
  const Mix mix;
  RequestStream s(mix, 11, 1, 100);
  int verify = 0, edge = 0, scan = 0;
  std::set<std::uint64_t> classes;
  const int count = 4000;
  for (int i = 0; i < count; ++i) {
    const Generated g = s.next();
    EXPECT_EQ(g.req.id, static_cast<std::uint64_t>(100 + i));
    const int n = g.req.n;
    ASSERT_GE(n, mix.nmin);
    ASSERT_LE(n, mix.nmax);
    const auto fv = static_cast<int>(g.req.faults.num_vertex_faults());
    const auto fe = static_cast<int>(g.req.faults.num_edge_faults());
    EXPECT_EQ(fv + fe, n - 3);  // the guarantee regime, always full
    EXPECT_EQ(g.expect_len, starring::factorial(n) - 2 * static_cast<std::uint64_t>(fv));
    verify += g.req.verify ? 1 : 0;
    edge += fe;
    if (g.class_id >> 63) {
      ++scan;
      EXPECT_TRUE(g.check_ring);  // a scan is the first of its class
    }
    if (classes.insert(g.class_id).second) {
      EXPECT_TRUE(g.check_ring);
    }
  }
  EXPECT_NEAR(verify / double(count), mix.verify_frac, 0.02);
  EXPECT_NEAR(edge / double(count), mix.edge_frac, 0.02);
  EXPECT_NEAR(scan / double(count), mix.scan_frac, 0.02);
}

TEST(RequestStream, DimensionAndVerifySharesAreExactPerBlock) {
  Mix mix;
  mix.nmax_weight = 3;  // blocks of 5, 6, 7, 7, 7
  RequestStream s(mix, 21, 1);
  std::map<int, int> per_n, verified;
  for (int i = 0; i < 5 * 60; ++i) {
    const Generated g = s.next();
    ++per_n[g.req.n];
    verified[g.req.n] += g.req.verify ? 1 : 0;
  }
  EXPECT_EQ(per_n[5], 60);
  EXPECT_EQ(per_n[6], 60);
  EXPECT_EQ(per_n[7], 180);
  // Every tenth request of each dimension is verify-flagged.
  EXPECT_EQ(verified[5], 6);
  EXPECT_EQ(verified[6], 6);
  EXPECT_EQ(verified[7], 18);
}

TEST(RequestStream, ClassRequestsAreRelabelingsOfOneFaultSet) {
  Mix mix;
  mix.scan_frac = 0;
  mix.edge_frac = 0;
  RequestStream s(mix, 5, 1);
  // Two requests of one class differ on the wire (fresh relabeling)
  // but share the class's fault count.
  std::vector<Generated> seen;
  for (int i = 0; i < 200 && seen.size() < 2; ++i) {
    Generated g = s.next();
    if (seen.empty() || g.class_id == seen.front().class_id) seen.push_back(std::move(g));
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].req.n, seen[1].req.n);
  EXPECT_EQ(seen[0].req.faults.num_vertex_faults(), seen[1].req.faults.num_vertex_faults());
}

TEST(ColdInstance, EveryFourthIsN10AndDeterministic) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    const ColdInstance a = cold_instance(9, i);
    const ColdInstance b = cold_instance(9, i);
    EXPECT_EQ(a.n, i % 4 == 3 ? 10 : 9);
    EXPECT_EQ(a.faults.num_vertex_faults(), static_cast<std::size_t>(a.n - 3));
    EXPECT_EQ(a.faults.vertex_faults(), b.faults.vertex_faults());
  }
}

TEST(Schedule, ArrivalsAreSeededIncreasingAndExactlyAtRate) {
  const auto a = poisson_arrivals(55, 2, 4);
  EXPECT_EQ(a, poisson_arrivals(55, 2, 4));
  EXPECT_NE(a, poisson_arrivals(55, 2, 5));
  ASSERT_EQ(a.size(), 110u);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_EQ(poisson_arrivals(8, 19.25, 1).size(), 154u);
  EXPECT_TRUE(poisson_arrivals(8, 0.01, 1).empty());
  // Uniform order statistics: the mean offset sits near the window's
  // middle (sd of the mean of 4000 uniforms on [0, 100]: ~0.46).
  const auto b = poisson_arrivals(40, 100, 9);
  EXPECT_NEAR(mean(b), 50, 2.5);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(percentile({3}, 0.99), 3);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
}

TEST(Stats, BlockMedianIgnoresASlowStretch) {
  // 1000 samples of 10, of which the third and fourth tenth run 3x slow.
  std::vector<double> v(1000, 10);
  for (std::size_t i = 200; i < 400; ++i) v[i] = 30;
  const auto p90 = [&](std::size_t b, std::size_t e) {
    return percentile({v.begin() + static_cast<std::ptrdiff_t>(b),
                       v.begin() + static_cast<std::ptrdiff_t>(e)}, 0.9);
  };
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 30);
  EXPECT_DOUBLE_EQ(block_median(v.size(), 10, p90), 10);
  // Slices cover [0, count) exactly once, also when count is not a
  // multiple of the slice count or smaller than it.
  for (const std::size_t count : {0, 3, 10, 37}) {
    std::size_t covered = 0;
    std::size_t next = 0;
    block_median(count, 8, [&](std::size_t b, std::size_t e) {
      EXPECT_EQ(b, next);
      next = e;
      covered += e - b;
      return 0.0;
    });
    EXPECT_EQ(covered, count);
  }
}

TEST(Stats, BisectionConvergesOnASyntheticKnee) {
  EXPECT_EQ(probes_for_resolution(20, 640, 1.1), 6);
  for (const double knee : {23.0, 97.0, 150.0, 400.0, 639.0}) {
    RateBisection b(20, 640);
    for (int p = 0; p < 6; ++p) b.record(b.next_rate() <= knee);
    EXPECT_LE(b.result(), knee);
    EXPECT_GT(b.hi(), knee);
    EXPECT_LT(b.hi() / b.lo(), 1.1);
  }
}

TEST(Proc, ParsesStatWithSpacesInTheCommandName) {
  const std::string stat =
      "1234 (odd name) x) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15 16 17";
  const auto t = parse_proc_stat_times(stat);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->first, 111u);
  EXPECT_EQ(t->second, 222u);
  EXPECT_FALSE(parse_proc_stat_times("1234 no paren").has_value());
  EXPECT_FALSE(parse_proc_stat_times("1 (a) S 1 2").has_value());
}

TEST(Proc, ParsesKeyedFields) {
  const std::string io = "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\n";
  EXPECT_EQ(parse_proc_field(io, "syscw"), 4u);
  EXPECT_EQ(parse_proc_field(io, "wchar"), 20u);
  EXPECT_FALSE(parse_proc_field(io, "sysc").has_value());
  EXPECT_EQ(parse_proc_field("VmHWM:\t   5120 kB\n", "VmHWM"), 5120u);
}

TEST(Proc, DeltaSeesThisProcessWriteAndRun) {
  const auto before = read_proc(::getpid());
  ASSERT_TRUE(before.has_value());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ::close(fds[0]);
  ::close(fds[1]);
  volatile double sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(60))
    sink = sink + std::sqrt(static_cast<double>(t0.time_since_epoch().count() % 97));
  const auto after = read_proc(::getpid());
  ASSERT_TRUE(after.has_value());
  const ProcSample d = proc_delta(*before, *after);
  EXPECT_GE(d.syscw, 50u);
  EXPECT_GT(d.utime_s + d.stime_s, 0.0);
  EXPECT_GT(d.vm_hwm_kb, 0u);
  EXPECT_FALSE(read_proc(-1).has_value());
}

TEST(Json, QuotesAndKeepsEveryDigit) {
  JsonObject o;
  o.num("x", 0.1234567890123).str("s", "a\"b\n").raw("r", "{}");
  EXPECT_EQ(o.dump(),
            "{\"x\": 0.12345678901230001, \"s\": \"a\\\"b\\u000a\", \"r\": {}}");
}

}  // namespace
}  // namespace e2e
