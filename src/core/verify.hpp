// Independent embedding verifier.
//
// Every ring the library emits is checked by code that shares nothing
// with the construction: no tables of core/chaining, only the
// perm/simd unrank kernels (held bit-identical to the scalar
// Perm::unrank by tests/test_simd.cpp) and the fault set.  Tests and
// benches route all results through here, so a bug in the
// partition/super-ring/chaining machinery cannot silently produce a
// wrong "ring".
//
// One sequential pass over 1024-id chunks: each chunk is decoded with
// simd::batch_unrank into an L1 scratch buffer, each id is marked in a
// 1-bit seen set over [0, n!), and every step is checked: the vertex entered is not
// in the faulty-vertex bitset, the packed XOR of the two permutations
// is nonzero in nibble 0 and in exactly one other nibble (exact star
// adjacency for valid permutations), and the edge is not among the
// faulty edges, kept as sorted rank pairs.  No per-vertex allocation.
//
// Error precedence: the shape
// ("empty sequence", fewer than 3 vertices for a cycle), then the first
// out-of-range id, then the first repeated vertex, then the first bad
// step in sequence order; a ring's closing step comes last, and an open
// path's faulty v0 after all of its steps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "stargraph/star_graph.hpp"

namespace starring {

struct RingReport {
  bool valid = false;
  /// Human-readable reason when !valid.
  std::string error;
  /// Number of vertices on the ring.
  std::uint64_t length = 0;
};

/// Check that `ring` is a simple cycle of S_n that touches no faulty
/// vertex and uses no faulty edge.  `threads` is accepted for callers
/// that pass a pool size but is unused: the one-pass scan runs on the
/// calling thread, so the verdict and message never depend on it.
RingReport verify_healthy_ring(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& ring,
                               unsigned threads = 1);

/// Check that `path` is a simple healthy path of S_n.
RingReport verify_healthy_path(const StarGraph& g, const FaultSet& faults,
                               const std::vector<VertexId>& path,
                               unsigned threads = 1);

}  // namespace starring
