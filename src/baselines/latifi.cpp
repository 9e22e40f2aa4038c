#include "baselines/latifi.hpp"

#include <algorithm>
#include <cassert>

#include "core/chaining.hpp"

namespace starring {

namespace {

/// Smallest pattern containing every vertex fault: fix exactly the
/// positions (other than 0) on which all faults agree.  Returns the
/// pattern, or nullopt when there are no faults.
std::optional<SubstarPattern> enclosing_pattern(const StarGraph& g,
                                                const FaultSet& faults) {
  const std::vector<Perm> fv = faults.vertex_faults();
  if (fv.empty()) return std::nullopt;
  SubstarPattern pat = SubstarPattern::whole(g.n());
  for (int i = 1; i < g.n(); ++i) {
    const int s = fv.front().get(i);
    const bool agree = std::all_of(fv.begin(), fv.end(),
                                   [&](const Perm& f) { return f.get(i) == s; });
    if (agree) pat = pat.child(i, s);
  }
  // A 1-pattern (single vertex) cannot be excised alone from a bipartite
  // ring: grow it to an S_2 by freeing one fixed position.
  if (pat.r() < 2) {
    for (int i = 1; i < g.n(); ++i) {
      if (!pat.is_free(i)) {
        SubstarPattern grown = SubstarPattern::whole(g.n());
        for (int j = 1; j < g.n(); ++j)
          if (j != i && !pat.is_free(j)) grown = grown.child(j, pat.slot(j));
        return grown;
      }
    }
  }
  return pat;
}

}  // namespace

int minimal_enclosing_substar_dim(const StarGraph& g, const FaultSet& faults) {
  const auto pat = enclosing_pattern(g, faults);
  return pat ? pat->r() : 0;
}

std::optional<LatifiResult> latifi_clustered_ring(const StarGraph& g,
                                                  const FaultSet& faults,
                                                  const EmbedOptions& opts) {
  if (faults.num_edge_faults() != 0) return std::nullopt;
  const int n = g.n();
  if (n < 5) return std::nullopt;  // hierarchy needs at least one level

  const auto pat = enclosing_pattern(g, faults);
  if (!pat) {
    // No faults: the clustered-star ring degenerates to the full
    // Hamiltonian cycle.
    auto res = embed_hamiltonian_cycle(g, opts);
    if (!res) return std::nullopt;
    return LatifiResult{std::move(*res), 0};
  }
  const int m = pat->r();
  if (m >= n) return std::nullopt;  // faults do not fit a proper substar

  // Partition positions: all of the enclosing pattern's fixed positions
  // first (so it appears as one supervertex of the hierarchy), then —
  // when the pattern is larger than a block — enough of its free
  // positions to reach blocks.
  std::vector<int> positions;
  for (int i = 1; i < n; ++i)
    if (!pat->is_free(i)) positions.push_back(i);
  for (int i = 1; i < n && static_cast<int>(positions.size()) < n - 4; ++i)
    if (pat->is_free(i)) positions.push_back(i);
  if (static_cast<int>(positions.size()) != n - 4) {
    // m < 4: more fixed positions than levels; keep only n-4 of them.
    positions.resize(static_cast<std::size_t>(n - 4));
  }

  // All faults sit inside the excised pattern, so the construction sees
  // a fault-free graph; the dropped supervertex (m >= 4, excluded by the
  // builder) or the excised mask (m < 4, skipped by the chain) accounts
  // for the n! - m! length.
  const bool pattern_is_supervertex = m >= 4;
  auto res = build_and_chain(g, positions, FaultSet{}, opts, {},
                             /*per_fault_loss=*/2,
                             pattern_is_supervertex ? &*pat : nullptr,
                             pattern_is_supervertex ? nullptr : &*pat);
  if (!res) return std::nullopt;
  return LatifiResult{std::move(*res), m};
}

}  // namespace starring
