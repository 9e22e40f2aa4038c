// Unit tests for the R_r super-ring construction (Definitions 4-5,
// Lemma 3): validity, fault spreading (P1/P3), the exclusion mechanism
// used by the Latifi baseline, and the open s-t chain of the
// longest-path extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/partition_selector.hpp"
#include "core/super_ring.hpp"
#include "fault/generators.hpp"
#include "stargraph/star_graph.hpp"

namespace starring {
namespace {

std::vector<int> positions_for(int n, const FaultSet& f) {
  return select_partition_positions(n, f).positions;
}

class SuperRingParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SuperRingParamTest, ValidRingWithIsolatedFaults) {
  const auto [n, nf] = GetParam();
  const StarGraph g(n);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const FaultSet f = random_vertex_faults(g, nf, seed);
    const auto pos = positions_for(n, f);
    const auto sr = build_block_ring(n, pos, f);
    ASSERT_TRUE(sr.has_value());
    EXPECT_TRUE(is_valid_super_ring(n, *sr));
    EXPECT_EQ(sr->r(), 4);
    EXPECT_EQ(sr->ring.size(), factorial(n) / 24);
    // P1: at most one fault per block.
    for (const auto& blk : sr->ring)
      EXPECT_LE(faults_in_pattern(blk, f), 1);
    // P3: no two consecutive faulty blocks.
    const auto m = sr->ring.size();
    for (std::size_t k = 0; k < m; ++k) {
      const bool a = faults_in_pattern(sr->ring[k], f) > 0;
      const bool b = faults_in_pattern(sr->ring[(k + 1) % m], f) > 0;
      EXPECT_FALSE(a && b) << "consecutive faulty blocks at " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, SuperRingParamTest,
                         ::testing::Values(std::make_tuple(5, 0),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(6, 0),
                                           std::make_tuple(6, 3),
                                           std::make_tuple(7, 4),
                                           std::make_tuple(8, 5)));

TEST(SuperRing, CoversAllVerticesExactlyOnce) {
  const int n = 6;
  const auto sr = build_block_ring(n, positions_for(n, {}), FaultSet{});
  ASSERT_TRUE(sr.has_value());
  std::set<std::uint64_t> seen;
  for (const auto& blk : sr->ring)
    for (const auto& p : blk.members())
      EXPECT_TRUE(seen.insert(p.bits()).second);
  EXPECT_EQ(seen.size(), factorial(n));
}

TEST(SuperRing, RotationsProduceDifferentRings) {
  const int n = 6;
  const auto a = build_block_ring(n, positions_for(n, {}), FaultSet{}, 0);
  const auto b = build_block_ring(n, positions_for(n, {}), FaultSet{}, 1);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(is_valid_super_ring(n, *a));
  EXPECT_TRUE(is_valid_super_ring(n, *b));
  EXPECT_NE(a->ring.front().to_string() + a->ring[1].to_string(),
            b->ring.front().to_string() + b->ring[1].to_string());
}

TEST(SuperRing, SamePartiteFaultsStillSeparated) {
  const int n = 7;
  const StarGraph g(n);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto f = same_partite_vertex_faults(g, n - 3, 0, seed);
    const auto sr = build_block_ring(n, positions_for(n, f), f);
    ASSERT_TRUE(sr.has_value());
    EXPECT_TRUE(is_valid_super_ring(n, *sr));
    const auto m = sr->ring.size();
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_LE(faults_in_pattern(sr->ring[k], f), 1);
      const bool a = faults_in_pattern(sr->ring[k], f) > 0;
      const bool b = faults_in_pattern(sr->ring[(k + 1) % m], f) > 0;
      EXPECT_FALSE(a && b);
    }
  }
}

TEST(SuperRing, DifPositionsAreFixedPositions) {
  // Every consecutive pair differs at exactly one of the partition
  // positions (the free positions are shared by construction).
  const int n = 6;
  const auto pos = positions_for(n, {});
  const auto sr = build_block_ring(n, pos, FaultSet{});
  ASSERT_TRUE(sr.has_value());
  const std::set<int> posset(pos.begin(), pos.end());
  const auto m = sr->ring.size();
  for (std::size_t k = 0; k < m; ++k) {
    int dif = -1;
    ASSERT_TRUE(SubstarPattern::adjacent(sr->ring[k], sr->ring[(k + 1) % m],
                                         &dif));
    EXPECT_TRUE(posset.contains(dif));
  }
}

TEST(SuperRing, ExcludeSupervertexDropsItsBlocks) {
  // Latifi mechanism: exclude an S_5 from S_7 — the ring must cover
  // 7! - 5! vertices and stay consecutive-adjacent.
  const int n = 7;
  FaultSet none;
  const auto pos = positions_for(n, none);
  // The excluded pattern must be one of the hierarchy's supervertices:
  // fix the first two positions.
  SubstarPattern excl = SubstarPattern::whole(n)
                            .child(pos[0], 0)
                            .child(pos[1], 1);
  ASSERT_EQ(excl.r(), 5);
  const auto sr = build_block_ring(n, pos, none, 0, &excl);
  ASSERT_TRUE(sr.has_value());
  EXPECT_TRUE(is_valid_super_ring(n, *sr, factorial(5)));
  for (const auto& blk : sr->ring)
    for (const auto& p : blk.members()) EXPECT_FALSE(excl.contains(p));
}

TEST(SuperRing, ExcludeBlockItself) {
  const int n = 6;
  FaultSet none;
  const auto pos = positions_for(n, none);
  SubstarPattern excl = SubstarPattern::whole(n)
                            .child(pos[0], 2)
                            .child(pos[1], 3);
  ASSERT_EQ(excl.r(), 4);
  const auto sr = build_block_ring(n, pos, none, 0, &excl);
  ASSERT_TRUE(sr.has_value());
  EXPECT_TRUE(is_valid_super_ring(n, *sr, factorial(4)));
}

TEST(SuperRing, ExcludeFirstLevelChild) {
  const int n = 6;
  FaultSet none;
  const auto pos = positions_for(n, none);
  SubstarPattern excl = SubstarPattern::whole(n).child(pos[0], 4);
  ASSERT_EQ(excl.r(), 5);
  const auto sr = build_block_ring(n, pos, none, 0, &excl);
  ASSERT_TRUE(sr.has_value());
  EXPECT_TRUE(is_valid_super_ring(n, *sr, factorial(5)));
}

TEST(SuperRing, InvalidChecksCatchCorruption) {
  // n = 6: blocks of different parents are mostly non-adjacent, so a
  // long-distance swap must break consecutive adjacency.  (At n = 5 the
  // single K_5 level makes every order valid — checked separately.)
  const int n = 6;
  auto sr = build_block_ring(n, positions_for(n, {}), FaultSet{});
  ASSERT_TRUE(sr.has_value());
  ASSERT_TRUE(is_valid_super_ring(n, *sr));
  SuperRing broken = *sr;
  std::swap(broken.ring[0], broken.ring[broken.ring.size() / 2]);
  EXPECT_FALSE(is_valid_super_ring(n, broken));
  SuperRing truncated = *sr;
  truncated.ring.pop_back();
  EXPECT_FALSE(is_valid_super_ring(n, truncated));
  SuperRing duplicated = *sr;
  duplicated.ring[1] = duplicated.ring[3];
  EXPECT_FALSE(is_valid_super_ring(n, duplicated));
}

TEST(SuperRing, AnyOrderValidAtSingleLevel) {
  // The K_5 observation itself: at n = 5 every cyclic order of the five
  // first-level blocks is a valid R_4.
  const int n = 5;
  auto sr = build_block_ring(n, positions_for(n, {}), FaultSet{});
  ASSERT_TRUE(sr.has_value());
  SuperRing shuffled = *sr;
  std::swap(shuffled.ring[0], shuffled.ring[2]);
  EXPECT_TRUE(is_valid_super_ring(n, shuffled));
}

/// Healthy endpoints that `positions[0]` separates — the open builder's
/// precondition (s and t start in different first-level children).
ChainEnds open_ends(const StarGraph& g, const FaultSet& f,
                    const std::vector<int>& positions, std::uint64_t salt) {
  const VertexId nv = g.num_vertices();
  Perm s = g.vertex(salt % nv);
  for (VertexId i = 1; f.vertex_faulty(s); ++i) s = g.vertex((salt + i) % nv);
  for (VertexId i = nv / 2 + salt;; ++i) {
    const Perm t = g.vertex(i % nv);
    if (!f.vertex_faulty(t) && t.get(positions[0]) != s.get(positions[0]))
      return ChainEnds{s, t};
  }
}

class OpenChainParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OpenChainParamTest, ValidOpenChainWithFaults) {
  const auto [n, nf] = GetParam();
  const StarGraph g(n);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const FaultSet f = random_vertex_faults(g, nf, seed);
    const auto pos = positions_for(n, f);
    const ChainEnds ends = open_ends(g, f, pos, 17 * seed);
    const auto sr = build_block_chain(n, pos, f, ends,
                                      static_cast<int>(seed));
    ASSERT_TRUE(sr.has_value()) << "n=" << n << " seed=" << seed;
    EXPECT_TRUE(is_valid_super_ring(n, *sr, 0, ends));
    EXPECT_EQ(sr->r(), 4);
    EXPECT_EQ(sr->ring.size(), factorial(n) / 24);
    EXPECT_TRUE(sr->ring.front().contains(*ends.s));
    EXPECT_TRUE(sr->ring.back().contains(*ends.t));
    // P1 holds on the open chain too.
    for (const auto& blk : sr->ring)
      EXPECT_LE(faults_in_pattern(blk, f), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, OpenChainParamTest,
                         ::testing::Values(std::make_tuple(5, 2),
                                           std::make_tuple(6, 3),
                                           std::make_tuple(7, 4)));

TEST(OpenChain, InvalidChecksCatchCorruption) {
  const int n = 6;
  const StarGraph g(n);
  const FaultSet f = random_vertex_faults(g, 2, 3);
  const auto pos = positions_for(n, f);
  const ChainEnds ends = open_ends(g, f, pos, 5);
  const auto sr = build_block_chain(n, pos, f, ends);
  ASSERT_TRUE(sr.has_value());
  ASSERT_TRUE(is_valid_super_ring(n, *sr, 0, ends));
  SuperRing broken = *sr;
  std::swap(broken.ring[1], broken.ring[broken.ring.size() / 2]);
  EXPECT_FALSE(is_valid_super_ring(n, broken, 0, ends));
  SuperRing truncated = *sr;
  truncated.ring.erase(truncated.ring.begin() + 1);
  EXPECT_FALSE(is_valid_super_ring(n, truncated, 0, ends));
  SuperRing duplicated = *sr;
  duplicated.ring[1] = duplicated.ring[3];
  EXPECT_FALSE(is_valid_super_ring(n, duplicated, 0, ends));
  // Reversed, the chain is still a Hamiltonian path of blocks; only its
  // endpoint blocks are wrong — until the ends are swapped too.
  SuperRing reversed = *sr;
  std::reverse(reversed.ring.begin(), reversed.ring.end());
  EXPECT_FALSE(is_valid_super_ring(n, reversed, 0, ends));
  EXPECT_TRUE(is_valid_super_ring(n, reversed, 0, ChainEnds{ends.t, ends.s}));
}

}  // namespace
}  // namespace starring
