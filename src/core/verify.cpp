#include "core/verify.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "perm/simd.hpp"

namespace starring {

namespace {

// Ids decoded per batch_unrank call: the packed scratch stays in L1.
constexpr std::size_t kChunk = 1024;

obs::Counter& c_calls() {
  static obs::Counter& c = obs::counter("verify.calls");
  return c;
}
obs::Counter& c_rejects() {
  static obs::Counter& c = obs::counter("verify.rejects");
  return c;
}

/// One bit per vertex of S_n, indexed by rank.
class VertexBits {
 public:
  explicit VertexBits(std::uint64_t size) : words_((size + 63) / 64, 0) {}

  bool test(VertexId v) const { return (words_[v >> 6] & mask(v)) != 0; }
  void set(VertexId v) { words_[v >> 6] |= mask(v); }
  /// Set v; true iff it was already set.
  bool test_and_set(VertexId v) {
    std::uint64_t& w = words_[v >> 6];
    const bool had = (w & mask(v)) != 0;
    w |= mask(v);
    return had;
  }

 private:
  static std::uint64_t mask(VertexId v) { return std::uint64_t{1} << (v & 63); }
  std::vector<std::uint64_t> words_;
};

/// The fault set in rank form: faulty vertices as a bitset, faulty
/// edges as sorted (min rank, max rank) pairs.  Faults of another
/// dimension never match a vertex of S_n, as in FaultSet's lookups.
struct RankFaults {
  VertexBits vertices;
  std::vector<std::pair<VertexId, VertexId>> edges;

  RankFaults(const StarGraph& g, const FaultSet& faults)
      : vertices(g.num_vertices()) {
    for (const Perm& p : faults.vertex_faults())
      if (p.size() == g.n()) vertices.set(p.rank());
    for (const EdgeFault& e : faults.edge_faults())
      if (e.u.size() == g.n() && e.v.size() == g.n())
        edges.push_back(key(e.u.rank(), e.v.rank()));
    std::sort(edges.begin(), edges.end());
  }

  bool edge(VertexId a, VertexId b) const {
    return !edges.empty() &&
           std::binary_search(edges.begin(), edges.end(), key(a, b));
  }

  static std::pair<VertexId, VertexId> key(VertexId a, VertexId b) {
    return {std::min(a, b), std::max(a, b)};
  }
};

/// Star adjacency of two valid packed permutations of one S_n: their
/// XOR is nonzero in nibble 0 and in exactly one other nibble.  For
/// valid operands the two differing slots then hold one pair of symbols
/// swapped, which is exactly one star move (Perm::adjacent).
bool star_adjacent(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = a ^ b;
  const std::uint64_t nonzero =
      (x | x >> 1 | x >> 2 | x >> 3) & 0x1111111111111111ULL;
  const std::uint64_t rest = nonzero & ~std::uint64_t{1};
  return (nonzero & 1) != 0 && rest != 0 && (rest & (rest - 1)) == 0;
}

/// What, if anything, is wrong with a step a -> b (ranks, with their
/// packed permutations), in check order: the vertex entered is faulty,
/// the two are not star-adjacent, the edge is faulty.
enum class StepFault { kNone, kFaultyVertex, kNonAdjacent, kFaultyEdge };

StepFault step_fault(const RankFaults& faults, VertexId a, VertexId b,
                     std::uint64_t pa, std::uint64_t pb) {
  if (faults.vertices.test(b)) return StepFault::kFaultyVertex;
  if (!star_adjacent(pa, pb)) return StepFault::kNonAdjacent;
  if (faults.edge(a, b)) return StepFault::kFaultyEdge;
  return StepFault::kNone;
}

std::string step_error(const StarGraph& g, StepFault fault, VertexId a,
                       VertexId b) {
  const Perm pa = g.vertex(a);
  const Perm pb = g.vertex(b);
  switch (fault) {
    case StepFault::kFaultyVertex:
      return "faulty vertex on ring: " + pb.to_string();
    case StepFault::kNonAdjacent:
      return "non-adjacent step " + pa.to_string() + " -> " + pb.to_string();
    default:
      return "faulty edge used: " + pa.to_string() + " -- " + pb.to_string();
  }
}

RingReport verify_sequence(const StarGraph& g, const FaultSet& faults,
                           const std::vector<VertexId>& seq, bool cyclic) {
  const obs::Scope scope("verify");
  c_calls().add();
  RingReport rep;
  rep.length = seq.size();
  // Degenerate shapes are rejected up front with fixed messages — the
  // scan below must never be what trips on them.
  if (seq.empty()) {
    rep.error = "empty sequence";
    return rep;
  }
  if (cyclic && seq.size() < 3) {
    rep.error = "a cycle needs at least 3 vertices, got " +
                std::to_string(seq.size());
    return rep;
  }

  // Every id must be a rank before any of them is decoded.
  const std::uint64_t order = g.num_vertices();
  const auto out_of_range = std::find_if(
      seq.begin(), seq.end(), [order](VertexId id) { return id >= order; });
  if (out_of_range != seq.end()) {
    rep.error = "vertex id out of range: " + std::to_string(*out_of_range);
    return rep;
  }

  const RankFaults rank_faults(g, faults);
  // One pass over chunks of kChunk positions: each chunk is decoded,
  // and each of its vertices is marked in `seen` and its step checked.
  // Position j >= 1 owns the step seq[j-1] -> seq[j].  A repeat anywhere
  // outranks any bad step, so the pass stops at the first repeat but
  // only records the first bad step.
  VertexBits seen(order);
  seen.set(seq[0]);
  std::uint64_t first;
  simd::batch_unrank(&seq[0], 1, g.n(), &first);
  std::uint64_t prev = first;
  std::size_t bad_pos = 0;
  StepFault bad = StepFault::kNone;
  std::array<std::uint64_t, kChunk> packed;
  for (std::size_t begin = 1; begin < seq.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, seq.size());
    simd::batch_unrank(seq.data() + begin, end - begin, g.n(), packed.data());
    for (std::size_t j = begin; j < end; ++j) {
      if (seen.test_and_set(seq[j])) {
        rep.error = "repeated vertex: " + g.vertex(seq[j]).to_string();
        return rep;
      }
      const std::uint64_t cur = packed[j - begin];
      if (bad == StepFault::kNone) {
        bad = step_fault(rank_faults, seq[j - 1], seq[j], prev, cur);
        bad_pos = j;
      }
      prev = cur;
    }
  }
  if (bad != StepFault::kNone) {
    rep.error = step_error(g, bad, seq[bad_pos - 1], seq[bad_pos]);
    return rep;
  }
  // The closing step of a ring enters v0; an open path still must not
  // start on a faulty vertex.  Either way this is checked last.
  if (cyclic) {
    bad = step_fault(rank_faults, seq.back(), seq[0], prev, first);
    if (bad != StepFault::kNone) {
      rep.error = step_error(g, bad, seq.back(), seq[0]);
      return rep;
    }
  } else if (rank_faults.vertices.test(seq[0])) {
    rep.error = step_error(g, StepFault::kFaultyVertex, seq[0], seq[0]);
    return rep;
  }
  rep.valid = true;
  return rep;
}

}  // namespace

RingReport verify_healthy_ring(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& ring,
                               unsigned /*threads*/) {
  RingReport rep = verify_sequence(g, faults, ring, /*cyclic=*/true);
  if (!rep.valid) c_rejects().add();
  return rep;
}

RingReport verify_healthy_path(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& path,
                               unsigned /*threads*/) {
  RingReport rep = verify_sequence(g, faults, path, /*cyclic=*/false);
  if (!rep.valid) c_rejects().add();
  return rep;
}

}  // namespace starring
