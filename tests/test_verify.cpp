// Unit tests for the independent verifier — it must catch every way an
// embedding can be wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "extensions/longest_path.hpp"
#include "fault/generators.hpp"
#include "graph/graph.hpp"

namespace starring {
namespace {

std::vector<VertexId> good_ring(const StarGraph& g) {
  const auto res = embed_hamiltonian_cycle(g);
  EXPECT_TRUE(res.has_value());
  return res->ring;
}

TEST(Verify, AcceptsValidRing) {
  const StarGraph g(5);
  const auto rep = verify_healthy_ring(g, FaultSet{}, good_ring(g));
  EXPECT_TRUE(rep.valid) << rep.error;
  EXPECT_EQ(rep.length, 120u);
}

TEST(Verify, RejectsEmpty) {
  const StarGraph g(4);
  const auto rep = verify_healthy_ring(g, FaultSet{}, {});
  EXPECT_FALSE(rep.valid);
  // Degenerate input has a fixed message, independent of the adjacency
  // scan (and identical for the ring and path variants).
  EXPECT_EQ(rep.error, "empty sequence");
  EXPECT_EQ(rep.length, 0u);
  EXPECT_EQ(verify_healthy_path(g, FaultSet{}, {}).error, "empty sequence");
}

TEST(Verify, RejectsTooShortCycle) {
  const StarGraph g(4);
  const auto rep = verify_healthy_ring(g, FaultSet{}, {0, 1});
  EXPECT_FALSE(rep.valid);
  EXPECT_EQ(rep.error, "a cycle needs at least 3 vertices, got 2");
  const auto rep1 = verify_healthy_ring(g, FaultSet{}, {0});
  EXPECT_FALSE(rep1.valid);
  EXPECT_EQ(rep1.error, "a cycle needs at least 3 vertices, got 1");
}

TEST(Verify, TooShortCycleBeatsOtherDefects) {
  // Even when the short sequence also holds an out-of-range id, the
  // shape error wins: the scan must never touch the bad id.
  const StarGraph g(4);
  const auto rep =
      verify_healthy_ring(g, FaultSet{}, {0, factorial(4) + 7});
  EXPECT_FALSE(rep.valid);
  EXPECT_EQ(rep.error, "a cycle needs at least 3 vertices, got 2");
}

TEST(Verify, RejectsDuplicatesDeterministically) {
  // A two-vertex "path" that repeats one vertex: the duplicate check
  // reports it, not the adjacency scan (a vertex is not self-adjacent,
  // but the error must name the repetition).
  const StarGraph g(4);
  const auto rep = verify_healthy_path(g, FaultSet{}, {5, 5});
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("repeated vertex"), std::string::npos);
  // The first repeated occurrence is the one reported.
  auto ring = good_ring(g);
  ring[9] = ring[2];
  ring[15] = ring[4];
  const auto rep2 = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep2.valid);
  EXPECT_NE(rep2.error.find(g.vertex(ring[2]).to_string()),
            std::string::npos);
}

TEST(Verify, DuplicateCheckRunsAtAnyThreadCount) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  ring[50] = ring[10];
  for (const unsigned threads : {1u, 4u}) {
    const auto rep = verify_healthy_ring(g, FaultSet{}, ring, threads);
    EXPECT_FALSE(rep.valid);
    EXPECT_NE(rep.error.find("repeated vertex"), std::string::npos);
  }
}

TEST(Verify, RejectsDuplicates) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  ring[3] = ring[10];
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("repeated"), std::string::npos);
}

TEST(Verify, RejectsOutOfRangeId) {
  const StarGraph g(4);
  auto ring = good_ring(g);
  ring[0] = factorial(4) + 1;
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("out of range"), std::string::npos);
}

TEST(Verify, RejectsNonAdjacentStep) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  std::swap(ring[2], ring[40]);
  const auto rep = verify_healthy_ring(g, FaultSet{}, ring);
  EXPECT_FALSE(rep.valid);
}

TEST(Verify, RejectsFaultyVertexOnRing) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_vertex(g.vertex(ring[7]));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("faulty vertex"), std::string::npos);
}

TEST(Verify, RejectsFaultyEdgeOnRing) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_edge(g.vertex(ring[4]), g.vertex(ring[5]));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
  EXPECT_NE(rep.error.find("faulty edge"), std::string::npos);
}

TEST(Verify, WrapAroundEdgeIsChecked) {
  const StarGraph g(5);
  const auto ring = good_ring(g);
  FaultSet f;
  f.add_edge(g.vertex(ring.back()), g.vertex(ring.front()));
  const auto rep = verify_healthy_ring(g, f, ring);
  EXPECT_FALSE(rep.valid);
}

TEST(Verify, PathVariantAcceptsOpenPath) {
  const StarGraph g(5);
  auto ring = good_ring(g);
  // Drop the last vertex: still a valid open path even though the ends
  // may not be adjacent.
  ring.pop_back();
  const auto rep = verify_healthy_path(g, FaultSet{}, ring);
  EXPECT_TRUE(rep.valid) << rep.error;
}

TEST(Verify, PathVariantSingleVertex) {
  const StarGraph g(4);
  const auto rep = verify_healthy_path(g, FaultSet{}, {5});
  EXPECT_TRUE(rep.valid);
  EXPECT_EQ(rep.length, 1u);
}

TEST(Verify, PathVariantRejectsFaultyInterior) {
  const StarGraph g(4);
  const Perm p = g.vertex(3);
  const Perm q = p.star_move(1);
  FaultSet f;
  f.add_vertex(q);
  const auto rep =
      verify_healthy_path(g, f, {p.rank(), q.rank(), q.star_move(2).rank()});
  EXPECT_FALSE(rep.valid);
}

// ---------------------------------------------------------------------------
// Differential check.  The verifier decodes whole chunks through the
// batched kernels and tracks vertices and faults in rank bitsets; the
// reference below is the per-step algorithm it replaced (scalar
// Perm::unrank, Perm::adjacent and FaultSet lookups, one step at a
// time, the first failing index wins).  Verdict, message and length
// must be identical at every thread count.
// ---------------------------------------------------------------------------

RingReport reference_verify(const StarGraph& g, const FaultSet& faults,
                            const std::vector<VertexId>& seq, bool cyclic) {
  RingReport rep;
  rep.length = seq.size();
  if (seq.empty()) {
    rep.error = "empty sequence";
    return rep;
  }
  if (cyclic && seq.size() < 3) {
    rep.error = "a cycle needs at least 3 vertices, got " +
                std::to_string(seq.size());
    return rep;
  }
  for (const VertexId id : seq) {
    if (id >= g.num_vertices()) {
      rep.error = "vertex id out of range: " + std::to_string(id);
      return rep;
    }
  }
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  for (const VertexId id : seq) {
    if (seen[id]) {
      rep.error = "repeated vertex: " + Perm::unrank(id, g.n()).to_string();
      return rep;
    }
    seen[id] = 1;
  }
  const std::size_t steps = cyclic ? seq.size() : seq.size() - 1;
  for (std::size_t i = 0; i < steps; ++i) {
    const Perm a = Perm::unrank(seq[i], g.n());
    const Perm b = Perm::unrank(seq[(i + 1) % seq.size()], g.n());
    if (faults.vertex_faulty(b)) {
      rep.error = "faulty vertex on ring: " + b.to_string();
      return rep;
    }
    if (!a.adjacent(b)) {
      rep.error = "non-adjacent step " + a.to_string() + " -> " + b.to_string();
      return rep;
    }
    if (faults.edge_faulty(a, b)) {
      rep.error = "faulty edge used: " + a.to_string() + " -- " + b.to_string();
      return rep;
    }
  }
  const Perm v0 = Perm::unrank(seq[0], g.n());
  if (faults.vertex_faulty(v0)) {
    rep.error = "faulty vertex on ring: " + v0.to_string();
    return rep;
  }
  rep.valid = true;
  return rep;
}

struct Mutant {
  std::string what;
  std::vector<VertexId> seq;
  FaultSet faults;
};

/// The mutations of one healthy sequence: swap two vertices, drop one,
/// duplicate one, mark an on-sequence vertex or edge faulty (the
/// closing edge included), reverse a segment, plant an out-of-range id,
/// and cut it down to 1 and 2 vertices.  Positions include both ends
/// and the 1024-id chunk seams.
std::vector<Mutant> mutants(const StarGraph& g,
                            const std::vector<VertexId>& base,
                            const FaultSet& faults, int random_per_kind,
                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t len = base.size();
  std::vector<std::size_t> at = {0, 1, len / 2, len - 2, len - 1};
  for (const std::size_t seam : {1023, 1024, 1025})
    if (seam < len) at.push_back(seam);
  for (int k = 0; k < random_per_kind; ++k) at.push_back(rng() % len);
  const auto other = [&](std::size_t i) {
    return (i + 1 + rng() % (len - 1)) % len;
  };

  std::vector<Mutant> out;
  const auto add = [&](std::string what, std::vector<VertexId> seq,
                       FaultSet f) {
    out.push_back({std::move(what), std::move(seq), std::move(f)});
  };
  add("unmodified", base, faults);
  {
    auto rev = base;
    std::reverse(rev.begin(), rev.end());
    add("reversed whole", rev, faults);
  }
  add("1 vertex", {base[0]}, faults);
  add("2 vertices", {base[0], base[1]}, faults);
  for (const std::size_t i : at) {
    const std::string pos = " @" + std::to_string(i);
    const std::size_t j = other(i);
    auto seq = base;
    std::swap(seq[i], seq[j]);
    add("swap" + pos, seq, faults);

    seq = base;
    seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(i));
    add("drop" + pos, seq, faults);

    seq = base;
    seq[j] = seq[i];
    add("duplicate overwrite" + pos, seq, faults);
    seq = base;
    seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(j), base[i]);
    add("duplicate insert" + pos, seq, faults);

    FaultSet f = faults;
    f.add_vertex(g.vertex(base[i]));
    add("faulty vertex" + pos, base, f);

    f = faults;
    f.add_edge(g.vertex(base[i]), g.vertex(base[(i + 1) % len]));
    add("faulty edge" + pos, base, f);

    seq = base;
    const std::size_t lo = std::min(i, j);
    const std::size_t hi = std::max(i, j) + 1;
    std::reverse(seq.begin() + static_cast<std::ptrdiff_t>(lo),
                 seq.begin() + static_cast<std::ptrdiff_t>(hi));
    add("reverse segment" + pos, seq, faults);

    seq = base;
    seq[i] = g.num_vertices() + rng() % 1000;
    add("out of range" + pos, seq, faults);
  }
  // Two defects of different kinds: the repeat must outrank a bad step
  // that comes before it.
  auto seq = base;
  std::swap(seq[1], seq[len / 3]);
  seq[len - 1] = seq[len / 2];
  add("bad step then repeat", seq, faults);
  return out;
}

/// Runs the verifier at `threads` 1 and 4 against the reference on
/// every mutant, cyclic and open; with no faults the verdict must also
/// match the graph module's naive cycle / path check.  Returns the
/// number of disagreements (each one is also reported).
int disagreements(const StarGraph& g, const std::vector<Mutant>& cases,
                  const Graph* graph) {
  int bad = 0;
  for (const Mutant& m : cases) {
    for (const bool cyclic : {true, false}) {
      const RingReport want = reference_verify(g, m.faults, m.seq, cyclic);
      for (const unsigned threads : {1u, 4u}) {
        const RingReport got =
            cyclic ? verify_healthy_ring(g, m.faults, m.seq, threads)
                   : verify_healthy_path(g, m.faults, m.seq, threads);
        if (got.valid != want.valid || got.error != want.error ||
            got.length != want.length) {
          ++bad;
          ADD_FAILURE() << "n=" << g.n() << " " << m.what
                        << (cyclic ? " ring" : " path") << " threads="
                        << threads << ": got '" << got.error << "', want '"
                        << want.error << "'";
        }
      }
      if (graph != nullptr && m.faults.empty()) {
        const bool naive = cyclic ? is_valid_cycle(*graph, m.seq)
                                  : is_valid_path(*graph, m.seq);
        if (naive != want.valid) {
          ++bad;
          ADD_FAILURE() << "n=" << g.n() << " " << m.what
                        << (cyclic ? " ring" : " path")
                        << ": graph check says " << naive;
        }
      }
    }
  }
  return bad;
}

/// Mutants of the longest ring of S_n at |Fv| = n-3 and, below n = 8
/// (where the per-step reference gets slow), of the fault-free
/// Hamiltonian cycle and a fault-free longest path.
void check_mutated_rings_and_paths(int n, int random_per_kind) {
  const StarGraph g(n);
  const Graph graph = g.materialize();
  const FaultSet faults = random_vertex_faults(g, n - 3, 100 + n);
  const auto faulty = embed_longest_ring(g, faults);
  ASSERT_TRUE(faulty.has_value());
  int bad = disagreements(
      g, mutants(g, faulty->ring, faults, random_per_kind, 7 * n), &graph);
  if (n < 8) {
    const auto fault_free = embed_hamiltonian_cycle(g);
    ASSERT_TRUE(fault_free.has_value());
    const auto path = embed_longest_path(g, FaultSet{}, g.vertex(0),
                                         g.vertex(g.num_vertices() - 1));
    ASSERT_TRUE(path.has_value());
    bad += disagreements(
        g, mutants(g, fault_free->ring, FaultSet{}, random_per_kind, 11 * n),
        &graph);
    bad += disagreements(
        g, mutants(g, path->embed.ring, FaultSet{}, random_per_kind, 13 * n),
        &graph);
  }
  EXPECT_EQ(bad, 0);
}

TEST(VerifyDifferential, MutatedRingsAndPathsN5) {
  check_mutated_rings_and_paths(5, 8);
}
TEST(VerifyDifferential, MutatedRingsAndPathsN6) {
  check_mutated_rings_and_paths(6, 4);
}
TEST(VerifyDifferential, MutatedRingsAndPathsN7) {
  check_mutated_rings_and_paths(7, 2);
}
TEST(VerifyDifferential, MutatedRingsAndPathsN8) {
  check_mutated_rings_and_paths(8, 0);
}

TEST(VerifyDifferential, LargeRingsN9) {
  // n = 9 rings span hundreds of chunks, so defects sit far apart and
  // several chunks hold one each: only the first in precedence order
  // may be named.
  const StarGraph g(9);
  const FaultSet faults = random_vertex_faults(g, 6, 99);
  const auto res = embed_longest_ring(g, faults);
  ASSERT_TRUE(res.has_value());
  const std::vector<VertexId>& base = res->ring;
  const std::size_t len = base.size();
  std::vector<Mutant> cases;
  cases.push_back({"unmodified", base, faults});
  auto seq = base;
  seq[200000] = seq[5000];
  seq[100000] = seq[99000];
  std::swap(seq[3000], seq[3100]);
  cases.push_back({"two repeats after a bad step", seq, faults});
  seq = base;
  std::swap(seq[300000], seq[300500]);
  std::swap(seq[150000], seq[150010]);
  cases.push_back({"bad steps in two chunks", seq, faults});
  FaultSet f = faults;
  f.add_vertex(g.vertex(base[250000]));
  f.add_edge(g.vertex(base.back()), g.vertex(base.front()));
  cases.push_back({"faulty vertex and closing edge", base, f});
  f = faults;
  f.add_edge(g.vertex(base.back()), g.vertex(base.front()));
  cases.push_back({"closing edge", base, f});
  seq = base;
  seq[len - 1] = g.num_vertices();
  cases.push_back({"out of range last", seq, faults});
  seq = base;
  std::reverse(seq.begin() + 1024, seq.begin() + 70000);
  cases.push_back({"reverse segment across chunks", seq, faults});
  EXPECT_EQ(disagreements(g, cases, nullptr), 0);
}

}  // namespace
}  // namespace starring
