#include "extensions/longest_path.hpp"

#include <algorithm>
#include <cassert>

#include "core/block_oracle.hpp"
#include "core/chaining.hpp"

namespace starring {

std::uint64_t expected_path_vertices(int n, std::size_t num_vertex_faults,
                                     const Perm& s, const Perm& t) {
  const std::uint64_t base =
      factorial(n) - 2 * static_cast<std::uint64_t>(num_vertex_faults);
  return s.parity() == t.parity() ? base - 1 : base;
}

namespace {

/// Single-block case (n = 4): search the 24-vertex block directly.
std::optional<LongestPathResult> path_small(const StarGraph& g,
                                            const FaultSet& faults,
                                            const Perm& s, const Perm& t) {
  const SubstarPattern whole = g.whole_pattern();
  SmallGraph block = whole.block_graph();
  std::uint32_t forbidden = 0;
  for (const Perm& f : faults.vertex_faults())
    forbidden |= 1u << whole.local_index(f);
  for (const EdgeFault& e : faults.edge_faults())
    block.remove_edge(static_cast<int>(whole.local_index(e.u)),
                      static_cast<int>(whole.local_index(e.v)));
  const auto target = static_cast<int>(
      expected_path_vertices(g.n(), faults.num_vertex_faults(), s, t));
  const auto p = path_with_exact_vertices(
      block, static_cast<int>(whole.local_index(s)),
      static_cast<int>(whole.local_index(t)), forbidden, target);
  if (!p) return std::nullopt;
  LongestPathResult out;
  out.promised_vertices = static_cast<std::uint64_t>(target);
  out.embed.ring.reserve(p->size());
  for (const int local : *p)
    out.embed.ring.push_back(
        whole.member(static_cast<std::uint64_t>(local)).rank());
  out.embed.stats.num_blocks = 1;
  return out;
}

}  // namespace

std::optional<LongestPathResult> embed_longest_path(const StarGraph& g,
                                                    const FaultSet& faults,
                                                    const Perm& s,
                                                    const Perm& t,
                                                    const EmbedOptions& opts) {
  const int n = g.n();
  if (n < 4 || s == t) return std::nullopt;
  if (faults.vertex_faulty(s) || faults.vertex_faulty(t)) return std::nullopt;
  if (n == 4) return path_small(g, faults, s, t);

  // Positions where s and t disagree (never position 0 alone: two
  // distinct permutations always differ somewhere in 1..n-1).
  std::vector<int> separating;
  for (int i = 1; i < n; ++i)
    if (s.get(i) != t.get(i)) separating.push_back(i);
  assert(!separating.empty());

  const std::vector<Perm> vfaults = faults.vertex_faults();
  const std::vector<int> edge_dims = edge_fault_dims(n, faults);

  // Pick a separating position that still lets Lemma 2 isolate the
  // vertex faults (property P1); with |Fv| <= n-3 at least one choice
  // works, since isolation needs at most |Fv|-1 <= n-5 of the remaining
  // n-5 greedy slots.
  PartitionSelection sel;
  bool found = false;
  for (const int d : separating) {
    const int forced[] = {d};
    sel = select_positions_for(n, vfaults, n - 4, opts.heuristic, edge_dims,
                               forced);
    // Reorder so the forced separator leads (the level-0 partition must
    // put s and t into different first-level children).
    const auto it = std::find(sel.positions.begin(), sel.positions.end(), d);
    assert(it != sel.positions.end());
    std::rotate(sel.positions.begin(), it, it + 1);
    if (sel.max_faults_per_block <= 1) {
      found = true;
      break;
    }
  }
  if (!found && sel.positions.empty()) return std::nullopt;

  const std::uint64_t promise =
      expected_path_vertices(n, faults.num_vertex_faults(), s, t);
  auto res = build_and_chain(g, sel.positions, faults, opts, {s, t});
  if (!res || res->ring.size() != promise) return std::nullopt;
  return LongestPathResult{std::move(*res), promise};
}

}  // namespace starring
