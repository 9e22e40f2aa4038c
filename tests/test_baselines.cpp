// Tests for the prior-art baselines: Tseng et al. (vertex and edge
// faults) and Latifi–Bagherzadeh (clustered faults), plus the relative
// ordering the paper's comparison rests on.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/latifi.hpp"
#include "baselines/tseng.hpp"
#include "core/verify.hpp"
#include "fault/generators.hpp"

namespace starring {
namespace {

TEST(Tseng, VertexFaultBoundMet) {
  for (int n = 5; n <= 7; ++n) {
    const StarGraph g(n);
    for (int nf = 1; nf <= n - 3; ++nf) {
      const FaultSet f = random_vertex_faults(g, nf, 1000 + nf);
      const auto res = tseng_vertex_fault_ring(g, f);
      ASSERT_TRUE(res.has_value()) << "n=" << n << " nf=" << nf;
      const auto rep = verify_healthy_ring(g, f, res->ring);
      EXPECT_TRUE(rep.valid) << rep.error;
      EXPECT_EQ(rep.length, factorial(n) - 4 * static_cast<std::uint64_t>(nf));
    }
  }
}

TEST(Tseng, OursStrictlyLonger) {
  // The paper's claim in one line: n!-2f > n!-4f for every f >= 1.
  const StarGraph g(6);
  const FaultSet f = random_vertex_faults(g, 3, 7);
  const auto ours = embed_longest_ring(g, f);
  const auto theirs = tseng_vertex_fault_ring(g, f);
  ASSERT_TRUE(ours && theirs);
  EXPECT_EQ(ours->ring.size(), 720u - 6);
  EXPECT_EQ(theirs->ring.size(), 720u - 12);
  EXPECT_GT(ours->ring.size(), theirs->ring.size());
}

class TsengEdgeParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TsengEdgeParamTest, FullLengthRingDespiteEdgeFaults) {
  const auto [n, ne] = GetParam();
  const StarGraph g(n);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const FaultSet f = random_edge_faults(g, ne, seed);
    const auto res = tseng_edge_fault_ring(g, f);
    ASSERT_TRUE(res.has_value()) << "n=" << n << " ne=" << ne
                                 << " seed=" << seed;
    const auto rep = verify_healthy_ring(g, f, res->ring);
    EXPECT_TRUE(rep.valid) << rep.error;
    EXPECT_EQ(rep.length, factorial(n));  // no vertex lost
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeFaultSweep, TsengEdgeParamTest,
                         ::testing::Values(std::make_tuple(4, 1),
                                           std::make_tuple(5, 1),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(6, 3),
                                           std::make_tuple(7, 4)));

TEST(Tseng, ClusteredEdgeFaultsWorstCase) {
  // All n-3 faulty links at one vertex: it keeps 2 healthy links, just
  // enough to sit on a ring.
  for (int n = 5; n <= 7; ++n) {
    const StarGraph g(n);
    const FaultSet f = clustered_edge_faults(g, n - 3, 31);
    const auto res = tseng_edge_fault_ring(g, f);
    ASSERT_TRUE(res.has_value()) << n;
    const auto rep = verify_healthy_ring(g, f, res->ring);
    EXPECT_TRUE(rep.valid) << rep.error;
    EXPECT_EQ(rep.length, factorial(n));
  }
}

TEST(Latifi, MinimalEnclosingDim) {
  const StarGraph g(6);
  FaultSet f;
  // Two faults differing only in positions {0, 2}: they fit an S_2.
  const Perm a = Perm::of({0, 1, 2, 3, 4, 5});
  f.add_vertex(a);
  f.add_vertex(a.star_move(2));
  EXPECT_EQ(minimal_enclosing_substar_dim(g, f), 2);
}

TEST(Latifi, SingleFaultGrowsToS2) {
  const StarGraph g(6);
  FaultSet f;
  f.add_vertex(g.vertex(100));
  EXPECT_EQ(minimal_enclosing_substar_dim(g, f), 2);
}

TEST(Latifi, ClusteredRingLengthIsNfactMinusMfact) {
  const StarGraph g(6);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const FaultSet f = substar_clustered_faults(g, 3, seed);
    const auto res = latifi_clustered_ring(g, f);
    ASSERT_TRUE(res.has_value()) << seed;
    const auto rep = verify_healthy_ring(g, f, res->embed.ring);
    EXPECT_TRUE(rep.valid) << rep.error;
    EXPECT_EQ(rep.length,
              factorial(6) - factorial(res->m));
    EXPECT_GE(res->m, 2);
  }
}

TEST(Latifi, ClusteredRingsNeedTheChainSearch) {
  // Excising the enclosing substar leaves chains that the first
  // rotation cannot close: the backtracking search and the restarts are
  // load-bearing for this caller, not dead code.
  const StarGraph g(6);
  const auto restarted =
      latifi_clustered_ring(g, substar_clustered_faults(g, 3, 0));
  ASSERT_TRUE(restarted.has_value());
  EXPECT_GE(restarted->embed.stats.restarts, 1);
  const auto backtracked =
      latifi_clustered_ring(g, substar_clustered_faults(g, 3, 11));
  ASSERT_TRUE(backtracked.has_value());
  EXPECT_GE(backtracked->embed.stats.backtracks, 1);
}

TEST(Latifi, LargeEnclosingSubstar) {
  // Faults spread inside an S_5 of S_7: ring of 7! - 5!.
  const StarGraph g(7);
  FaultSet f;
  const Perm base = Perm::identity(7);
  f.add_vertex(base);                            // agrees with itself
  f.add_vertex(base.star_move(1));               // differs at 0,1
  f.add_vertex(base.star_move(2));               // differs at 0,2
  f.add_vertex(base.star_move(3).star_move(4));  // differs at 3,4
  const int m = minimal_enclosing_substar_dim(g, f);
  EXPECT_EQ(m, 5);  // free positions {0,1,2,3,4}
  const auto res = latifi_clustered_ring(g, f);
  ASSERT_TRUE(res.has_value());
  const auto rep = verify_healthy_ring(g, f, res->embed.ring);
  EXPECT_TRUE(rep.valid) << rep.error;
  EXPECT_EQ(rep.length, factorial(7) - factorial(5));
}

TEST(Latifi, ScatteredFaultsDefeatTheMethod) {
  // Faults chosen to disagree everywhere: m = n, method returns nothing —
  // while ours still embeds n!-2f.
  const StarGraph g(6);
  FaultSet f;
  f.add_vertex(Perm::of({0, 1, 2, 3, 4, 5}));
  f.add_vertex(Perm::of({1, 2, 3, 4, 5, 0}));
  f.add_vertex(Perm::of({2, 3, 4, 5, 0, 1}));
  EXPECT_EQ(minimal_enclosing_substar_dim(g, f), 6);
  EXPECT_FALSE(latifi_clustered_ring(g, f).has_value());
  const auto ours = embed_longest_ring(g, f);
  ASSERT_TRUE(ours.has_value());
  EXPECT_EQ(ours->ring.size(), 720u - 6);
}

TEST(Latifi, NoFaultsFullRing) {
  const StarGraph g(5);
  const auto res = latifi_clustered_ring(g, FaultSet{});
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->m, 0);
  EXPECT_EQ(res->embed.ring.size(), 120u);
}

TEST(Baselines, ThreeWayOrderingOnClusteredFaults) {
  // Clustered faults: ours (n!-2f) >= Latifi (n!-m!) relationship flips
  // with f vs m!; with f=3, m=3 : 720-6 vs 720-6 — equal; with f=2,
  // m=2: 720-4 vs 720-2 — Latifi wins? No: m=2 holds at most 2
  // faults, n!-m! = 718 > 716 = n!-2f.  Latifi can beat 2f only when
  // m! < 2f, impossible since m! >= f.  Assert ours >= Latifi - small
  // slack... in fact m! >= f and m! >= 2 imply n!-2f >= n!-2m! ; the
  // honest comparison: ours >= theirs whenever m! >= 2f, and never
  // worse than n!-2f by construction.
  const StarGraph g(6);
  const FaultSet f = substar_clustered_faults(g, 3, 11);
  const auto ours = embed_longest_ring(g, f);
  const auto lat = latifi_clustered_ring(g, f);
  const auto tseng = tseng_vertex_fault_ring(g, f);
  ASSERT_TRUE(ours && lat && tseng);
  EXPECT_GE(ours->ring.size(), lat->embed.ring.size());
  EXPECT_GT(ours->ring.size(), tseng->ring.size());
}

}  // namespace
}  // namespace starring
