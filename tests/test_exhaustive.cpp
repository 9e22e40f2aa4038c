// Exhaustive sweeps: not sampled, every instance in the class.
//
// These are the strongest statements the test suite makes: for small n
// the embedder is run against EVERY possible fault placement, so a
// regression anywhere in the construction cannot hide behind seeds.
#include <gtest/gtest.h>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "extensions/longest_path.hpp"

namespace starring {
namespace {

TEST(Exhaustive, S5EverySingleFault) {
  const StarGraph g(5);
  for (VertexId id = 0; id < g.num_vertices(); ++id) {
    FaultSet f;
    f.add_vertex(g.vertex(id));
    const auto res = embed_longest_ring(g, f);
    ASSERT_TRUE(res.has_value()) << "fault " << g.vertex(id).to_string();
    const auto rep = verify_healthy_ring(g, f, res->ring);
    ASSERT_TRUE(rep.valid) << rep.error;
    ASSERT_EQ(rep.length, 118u) << "fault " << g.vertex(id).to_string();
  }
}

TEST(Exhaustive, S5EveryFaultPair) {
  // All C(120, 2) = 7140 two-fault placements; |Fv| = 2 = n-3 is the
  // paper's regime boundary for S_5.
  const StarGraph g(5);
  std::size_t count = 0;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      FaultSet f;
      f.add_vertex(g.vertex(a));
      f.add_vertex(g.vertex(b));
      const auto res = embed_longest_ring(g, f);
      ASSERT_TRUE(res.has_value()) << a << "," << b;
      ASSERT_EQ(res->ring.size(), 116u) << a << "," << b;
      const auto rep = verify_healthy_ring(g, f, res->ring);
      ASSERT_TRUE(rep.valid) << a << "," << b << ": " << rep.error;
      ++count;
    }
  }
  EXPECT_EQ(count, 7140u);
}

TEST(Exhaustive, S6EverySingleFault) {
  const StarGraph g(6);
  for (VertexId id = 0; id < g.num_vertices(); ++id) {
    FaultSet f;
    f.add_vertex(g.vertex(id));
    const auto res = embed_longest_ring(g, f);
    ASSERT_TRUE(res.has_value()) << id;
    ASSERT_EQ(res->ring.size(), 718u) << id;
    const auto rep = verify_healthy_ring(g, f, res->ring);
    ASSERT_TRUE(rep.valid) << id << ": " << rep.error;
  }
}

TEST(Exhaustive, S4EveryEdgeFault) {
  // Every one of the 36 edges of S_4 as the lone faulty link: the ring
  // keeps its full length 24.
  const StarGraph g(4);
  std::size_t edges = 0;
  for (VertexId id = 0; id < g.num_vertices(); ++id) {
    const Perm u = g.vertex(id);
    for (int d = 1; d < 4; ++d) {
      const Perm v = u.star_move(d);
      if (v.rank() < id) continue;
      ++edges;
      FaultSet f;
      f.add_edge(u, v);
      const auto res = embed_longest_ring(g, f);
      ASSERT_TRUE(res.has_value()) << u.to_string() << "-" << v.to_string();
      const auto rep = verify_healthy_ring(g, f, res->ring);
      ASSERT_TRUE(rep.valid) << rep.error;
      ASSERT_EQ(rep.length, 24u);
    }
  }
  EXPECT_EQ(edges, 36u);
}

TEST(Exhaustive, S5EveryVertexAsLongestPathSource) {
  // Longest-path extension, exhaustive over sources: every vertex of
  // S_5 as s against a fixed far target — a Hamiltonian path (120
  // vertices) for opposite-parity pairs, 119 for same-parity.
  const StarGraph g(5);
  const Perm t = g.vertex(g.num_vertices() - 1);
  for (VertexId id = 0; id < g.num_vertices(); ++id) {
    const Perm s = g.vertex(id);
    if (s == t) continue;
    const auto res = embed_longest_path(g, FaultSet{}, s, t);
    ASSERT_TRUE(res.has_value()) << s.to_string();
    const auto rep = verify_healthy_path(g, FaultSet{}, res->embed.ring);
    ASSERT_TRUE(rep.valid) << s.to_string() << ": " << rep.error;
    ASSERT_EQ(rep.length, s.parity() == t.parity() ? 119u : 120u)
        << s.to_string();
    ASSERT_EQ(g.vertex(res->embed.ring.front()), s);
    ASSERT_EQ(g.vertex(res->embed.ring.back()), t);
  }
}

}  // namespace
}  // namespace starring
