// Bit-identity pins for every caller of the block-chain construction
// (super-ring refinement + chaining search + restart loop): the ring,
// the Tseng and mixed-fault baselines, both Latifi mechanisms, the
// open s-t path (with and without the short block) and the pancyclic
// upper band.  Each case hashes the returned vertex ids with
// FNV-1a-64 (little-endian bytes) and compares against a constant, so
// any change to which ring or path the construction picks — not only
// to whether one is found — fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/latifi.hpp"
#include "baselines/tseng.hpp"
#include "extensions/longest_path.hpp"
#include "extensions/mixed_faults.hpp"
#include "extensions/pancyclic.hpp"
#include "fault/generators.hpp"

namespace starring {
namespace {

std::uint64_t fnv1a64(const std::vector<VertexId>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const VertexId id : ids) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Expect `ids` to hash to `want`; the message carries the actual hash
/// so a deliberate change can update the table in one pass.
void expect_pin(const std::vector<VertexId>& ids, std::uint64_t want,
                const std::string& label) {
  const std::uint64_t got = fnv1a64(ids);
  EXPECT_EQ(got, want) << label << ": size " << ids.size() << " hash 0x"
                       << std::hex << got << "ull";
}

struct RingPin {
  int n;
  int faults;
  std::uint64_t hash;
};

TEST(ChainPin, EmbedLongestRing) {
  const RingPin pins[] = {
      {5, 0, 0x38c84e0e7149e225ull},
      {5, 1, 0x5cac73fcf919e8ddull},
      {5, 2, 0xb451659577434190ull},
      {6, 0, 0xd8d93a6db7b4bafdull},
      {6, 1, 0xd99f704c6ca0fa74ull},
      {6, 3, 0x7999e3c362760507ull},
      {7, 0, 0x36fe11898cea5cf5ull},
      {7, 1, 0xc63d4c6c3e98c8b9ull},
      {7, 4, 0xbeadb108210ea346ull},
      {8, 0, 0xed327280b3e99a11ull},
      {8, 1, 0x3eb936e498e2a3edull},
      {8, 5, 0x874cbf5c87f0a43ull},
      {9, 0, 0x1b5de22992fa85cdull},
      {9, 1, 0x9733b66a7426a231ull},
      {9, 6, 0xf11da1dd2e103bb1ull},
  };
  for (const RingPin& p : pins) {
    const StarGraph g(p.n);
    const FaultSet f = random_vertex_faults(g, p.faults, 100 * p.n + p.faults);
    const auto res = embed_longest_ring(g, f);
    ASSERT_TRUE(res.has_value()) << "n=" << p.n << " |Fv|=" << p.faults;
    expect_pin(res->ring, p.hash,
               "ring n=" + std::to_string(p.n) +
                   " |Fv|=" + std::to_string(p.faults));
  }
}

TEST(ChainPin, TsengLoss4) {
  const RingPin pins[] = {
      {6, 1, 0x8fed03f361848d34ull},
      {6, 3, 0xf1fc349cffce3d8bull},
      {7, 2, 0xfe4b91d887b1608cull},
      {7, 4, 0x748686546c05532full},
  };
  for (const RingPin& p : pins) {
    const StarGraph g(p.n);
    const FaultSet f = random_vertex_faults(g, p.faults, 7 * p.n + p.faults);
    const auto res = tseng_vertex_fault_ring(g, f);
    ASSERT_TRUE(res.has_value()) << "n=" << p.n << " |Fv|=" << p.faults;
    expect_pin(res->ring, p.hash,
               "tseng n=" + std::to_string(p.n) +
                   " |Fv|=" + std::to_string(p.faults));
  }
}

TEST(ChainPin, LatifiExciseAndExclude) {
  struct LatifiPin {
    int n;
    std::vector<int> moves;  // faults: base, then base.star_move(i)
    int m;                   // enclosing substar dimension
    std::uint64_t hash;
  };
  // m < 4: the enclosing S_m is excised inside one block; m >= 4: it is
  // a supervertex of the hierarchy, excluded by the builder.
  const LatifiPin pins[] = {
      {6, {2}, 2, 0x9ed61a50e2e1ee6eull},
      {6, {1, 2}, 3, 0x64322c03e1b6fcd2ull},
      {6, {1, 2, 3}, 4, 0xa4bd0f35a4b266a5ull},
      {7, {1, 2, 3}, 4, 0xaffe1168a4a7feb1ull},
  };
  for (const LatifiPin& p : pins) {
    const StarGraph g(p.n);
    const Perm base = Perm::identity(p.n);
    FaultSet f;
    f.add_vertex(base);
    for (const int i : p.moves) f.add_vertex(base.star_move(i));
    const auto res = latifi_clustered_ring(g, f);
    ASSERT_TRUE(res.has_value()) << "n=" << p.n << " m=" << p.m;
    EXPECT_EQ(res->m, p.m);
    expect_pin(res->embed.ring, p.hash,
               "latifi n=" + std::to_string(p.n) +
                   " m=" + std::to_string(p.m));
  }
}

TEST(ChainPin, MixedFaultBaseline) {
  struct MixedPin {
    int n;
    int nv;
    int ne;
    std::uint64_t hash;
  };
  const MixedPin pins[] = {
      {6, 1, 2, 0x99526e466b825bccull},
      {6, 3, 0, 0x3bb99e3e28db0585ull},
      {7, 2, 2, 0xc732d6e55526b18dull},
  };
  for (const MixedPin& p : pins) {
    const StarGraph g(p.n);
    const FaultSet f = mixed_faults(g, p.nv, p.ne, 11 * p.n + p.nv);
    const auto res = embed_mixed_fault_ring_baseline(g, f);
    ASSERT_TRUE(res.has_value()) << "n=" << p.n;
    expect_pin(res->embed.ring, p.hash,
               "mixed n=" + std::to_string(p.n) +
                   " nv=" + std::to_string(p.nv) +
                   " ne=" + std::to_string(p.ne));
  }
}

/// The first healthy vertex of `parity` at or after id `from`, skipping
/// `other`.
Perm healthy_vertex(const StarGraph& g, const FaultSet& f, int parity,
                    VertexId from, const Perm* other) {
  for (VertexId id = from; id < g.num_vertices(); ++id) {
    const Perm p = g.vertex(id);
    if (p.parity() != parity || f.vertex_faulty(p)) continue;
    if (other != nullptr && p == *other) continue;
    return p;
  }
  return Perm::identity(g.n());
}

TEST(ChainPin, LongestPath) {
  struct PathPin {
    int n;
    int faults;
    bool same_parity;  // true: one block gives up a vertex
    std::uint64_t hash;
  };
  const PathPin pins[] = {
      {5, 0, false, 0xcd79db428edce525ull},
      {5, 2, false, 0x289ac7d72287c138ull},
      {5, 2, true, 0x12390ea98acfd487ull},
      {6, 0, true, 0x9ff70debb8806f44ull},
      {6, 3, false, 0x195065b871c00b1aull},
      {6, 3, true, 0x2cf0e9c39db2a63bull},
      {7, 1, false, 0x80adf47919198642ull},
      {7, 4, false, 0x89cb580df765a33bull},
      {7, 4, true, 0x4fa763c6680aadd5ull},
  };
  for (const PathPin& p : pins) {
    const StarGraph g(p.n);
    const FaultSet f = random_vertex_faults(g, p.faults, 13 * p.n + p.faults);
    const Perm s = healthy_vertex(g, f, 0, 3, nullptr);
    const Perm t = healthy_vertex(g, f, p.same_parity ? 0 : 1,
                                  g.num_vertices() / 2 + 1, &s);
    ASSERT_EQ(s.parity() == t.parity(), p.same_parity);
    const auto res = embed_longest_path(g, f, s, t);
    ASSERT_TRUE(res.has_value()) << "n=" << p.n << " |Fv|=" << p.faults;
    EXPECT_EQ(res->embed.ring.size(), res->promised_vertices);
    expect_pin(res->embed.ring, p.hash,
               "path n=" + std::to_string(p.n) +
                   " |Fv|=" + std::to_string(p.faults) +
                   (p.same_parity ? " same" : " opposite"));
  }
}

TEST(ChainPin, PancyclicUpperBand) {
  // Lengths close to r! go through the ring construction with virtual
  // faults over the canonical blocks.
  struct BandPin {
    int n;
    std::uint64_t length;
    std::uint64_t hash;
  };
  const BandPin pins[] = {
      {6, 700, 0xf4376da13801f21cull},
      {7, 5000, 0xd298df10991da0bfull},
  };
  for (const BandPin& p : pins) {
    const StarGraph g(p.n);
    const auto ring = embed_even_ring(g, p.length);
    ASSERT_TRUE(ring.has_value()) << "n=" << p.n << " length=" << p.length;
    expect_pin(*ring, p.hash,
               "pancyclic n=" + std::to_string(p.n) +
                   " length=" + std::to_string(p.length));
  }
}

}  // namespace
}  // namespace starring
