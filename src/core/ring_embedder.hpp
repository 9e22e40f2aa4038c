// Theorem 1 of the paper: embedding a healthy ring of length
// n! - 2|Fv| into S_n with |Fv| <= n-3 vertex faults.
//
// Pipeline (mirrors the paper's proof structure):
//   1. select_partition_positions  — Lemma 2: positions whose partition
//      leaves at most one fault per S_4 block (property P1);
//   2. build_block_chain           — Lemma 3: an R_4 threading all
//      n!/24 blocks, fault-containing blocks spread apart (P3) and each
//      child connected to a ring neighbour (P2 via Lemma 1);
//   3. chain_blocks                — Lemmas 4-7: choose a healthy
//      entry/exit vertex pair per block, thread a healthy path of 24
//      vertices (healthy block) or 24 - 2*(faults inside) vertices
//      (faulty block) through each, and splice the paths with the
//      super-edge crossings into one ring.
// Steps 2-3 run inside build_and_chain's restart loop (core/chaining),
// which every baseline and extension shares.
//
// Where the paper argues existence through case analysis, step 3
// searches: per-block paths come from the exhaustive (memoized)
// BlockOracle and entry/exit choices are made greedily with full
// backtracking across blocks, so the driver finds an embedding whenever
// the choices the paper proves to exist are present.  Edge faults are
// handled uniformly (forbidden in-block edges and cross-edge choices),
// which yields both Tseng's edge-fault theorem and the paper's
// concluding mixed-fault corollary from the same machinery.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_selector.hpp"
#include "fault/fault.hpp"
#include "stargraph/star_graph.hpp"

namespace starring {

struct EmbedOptions {
  SplitHeuristic heuristic = SplitHeuristic::kMaxSplitting;
  /// Restart attempts; each uses a different rotation of the first-level
  /// block ordering.
  int max_restarts = 8;
  /// Worker threads for the data-parallel phases (exit enumeration and
  /// vertex emission).  The embedding produced is identical for any
  /// value; 0 means one thread per hardware core.
  unsigned num_threads = 1;
  /// Populate the shared block-path cache with every fault-free
  /// Hamiltonian key before chaining (once per process), so no worker
  /// pays a cold in-block search.
  bool prewarm_oracle = false;
  /// Cooperative cancellation: when non-null and set, the search stops
  /// at the next restart / backtrack boundary and the embed returns
  /// nullopt.  The flag must outlive the call; the embedder only reads
  /// it (relaxed).  Deadline enforcement in the service flips it for
  /// in-flight computations past their budget.
  const std::atomic<bool>* cancel = nullptr;

  /// num_threads with the conventions applied: the STARRING_THREADS
  /// environment variable (parsed once per process) overrides the
  /// field, and 0 — from either source — means hardware concurrency.
  unsigned effective_threads() const;
};

struct EmbedStats {
  std::size_t num_blocks = 0;
  int faulty_blocks = 0;
  std::int64_t backtracks = 0;
  int restarts = 0;
  int closure_attempts = 0;
  /// Snapshot of the obs counters this embed call moved (sorted by
  /// name): phase wall times, oracle cache hits/misses, threads used.
  /// Empty unless the metrics layer is enabled (obs/metrics.hpp).
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

struct EmbedResult {
  /// The embedded healthy ring as vertex ids (Lehmer ranks), in cyclic
  /// order.
  std::vector<VertexId> ring;
  EmbedStats stats;
};

/// Length Theorem 1 promises: n! - 2 * |Fv|.
std::uint64_t expected_ring_length(int n, std::size_t num_vertex_faults);

/// The bipartite worst-case ceiling for a given fault population:
/// n! - 2 * max(faults among even perms, faults among odd perms).
/// Theorem 1 meets it exactly when all faults share one parity.
std::uint64_t bipartite_upper_bound(const StarGraph& g, const FaultSet& faults);

/// Embed the longest healthy ring the construction supports:
/// length n! - 2|Fv| avoiding every vertex fault and (extension) every
/// edge fault.  Supports n >= 3; the paper's guarantee regime is
/// n >= 4 with |Fv| + |Fe| <= n-3.  Returns nullopt when the
/// construction fails (outside the guarantee regime, or budget
/// exhausted).
std::optional<EmbedResult> embed_longest_ring(const StarGraph& g,
                                              const FaultSet& faults,
                                              const EmbedOptions& opts = {});

/// Fault-free Hamiltonian cycle of S_n via the same construction
/// (the substrate Tseng's and Latifi's algorithms also need).
std::optional<EmbedResult> embed_hamiltonian_cycle(const StarGraph& g,
                                                   const EmbedOptions& opts = {});

}  // namespace starring
