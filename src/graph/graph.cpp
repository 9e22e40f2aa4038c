#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <queue>

namespace starring {

void Graph::add_edge(std::uint64_t u, std::uint64_t v) {
  assert(u < adj_.size() && v < adj_.size() && u != v);
  auto& au = adj_[u];
  auto it = std::lower_bound(au.begin(), au.end(), v);
  if (it != au.end() && *it == v) return;
  au.insert(it, v);
  auto& av = adj_[v];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++num_edges_;
}

bool Graph::has_edge(std::uint64_t u, std::uint64_t v) const {
  assert(u < adj_.size() && v < adj_.size());
  const auto& au = adj_[u];
  return std::binary_search(au.begin(), au.end(), v);
}

namespace {
bool all_distinct(std::span<const std::uint64_t> seq, std::size_t universe) {
  std::vector<std::uint8_t> seen(universe, 0);
  for (auto v : seq) {
    if (v >= universe || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}
}  // namespace

bool is_valid_cycle(const Graph& g, std::span<const std::uint64_t> cycle) {
  if (cycle.size() < 3) return false;
  if (!all_distinct(cycle, g.num_vertices())) return false;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const auto u = cycle[i];
    const auto v = cycle[(i + 1) % cycle.size()];
    if (!g.has_edge(u, v)) return false;
  }
  return true;
}

bool is_valid_path(const Graph& g, std::span<const std::uint64_t> path) {
  if (path.empty()) return false;
  if (!all_distinct(path, g.num_vertices())) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!g.has_edge(path[i], path[i + 1])) return false;
  return true;
}

BipartiteResult check_bipartite(const Graph& g) {
  BipartiteResult res;
  res.color.assign(g.num_vertices(), 2);  // 2 = uncoloured
  for (std::uint64_t s = 0; s < g.num_vertices(); ++s) {
    if (res.color[s] != 2) continue;
    res.color[s] = 0;
    std::queue<std::uint64_t> q;
    q.push(s);
    while (!q.empty()) {
      const auto u = q.front();
      q.pop();
      for (auto v : g.neighbors(u)) {
        if (res.color[v] == 2) {
          res.color[v] = static_cast<std::uint8_t>(1 - res.color[u]);
          q.push(v);
        } else if (res.color[v] == res.color[u]) {
          res.is_bipartite = false;
          return res;
        }
      }
    }
  }
  res.is_bipartite = true;
  return res;
}

std::size_t reachable_count(const Graph& g, std::uint64_t start,
                            std::span<const std::uint8_t> blocked) {
  assert(start < g.num_vertices() && !blocked[start]);
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  std::vector<std::uint64_t> stack{start};
  seen[start] = 1;
  std::size_t count = 0;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    ++count;
    for (auto v : g.neighbors(u)) {
      if (!seen[v] && !blocked[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return count;
}

// ---------------------------------------------------------------------
// Exhaustive small-graph search.
// ---------------------------------------------------------------------

namespace {

/// Shared DFS machinery for longest-path-style searches over <= 64
/// vertices.  `visited` is the bitmask of vertices on the current path.
struct PathSearch {
  const SmallGraph& g;
  int to;
  std::uint64_t allowed;          // vertices that may ever be used
  int target = -1;                // stop early when a path of this many
                                  // vertices is found; -1 = find maximum
  std::vector<int> current;
  std::vector<int> best;

  explicit PathSearch(const SmallGraph& g_, int to_, std::uint64_t allowed_)
      : g(g_), to(to_), allowed(allowed_) {}

  /// Upper bound on how many more vertices any extension can add:
  /// vertices still reachable from `u` through unvisited allowed
  /// vertices.  Also prunes branches from which `to` is unreachable.
  int reach_bound(int u, std::uint64_t visited, bool* to_reachable) const {
    std::uint64_t frontier = 1ULL << u;
    std::uint64_t seen = frontier;
    const std::uint64_t open = allowed & ~visited;
    while (frontier) {
      std::uint64_t next = 0;
      std::uint64_t f = frontier;
      while (f) {
        const int v = std::countr_zero(f);
        f &= f - 1;
        next |= g.neighbor_mask(v) & open & ~seen;
      }
      seen |= next;
      frontier = next;
    }
    *to_reachable = (seen >> to) & 1ULL;
    return std::popcount(seen);  // includes u itself
  }

  /// Returns true when the search can stop (early-exit target met).
  /// Cache-line aligned: the oracle's S4 block searches spend most of a
  /// cold start here, and without the pin its speed followed whatever
  /// the linker placed before it (a 16-byte shift cost ~10% of the
  /// prewarm-plus-first-embed time on a Xeon VM).
  __attribute__((aligned(64))) bool dfs(int u, std::uint64_t visited) {
    current.push_back(u);
    if (u == to) {
      if (current.size() > best.size()) best = current;
      if (target >= 0 && static_cast<int>(best.size()) >= target) {
        current.pop_back();
        return true;
      }
      current.pop_back();
      return false;
    }
    bool to_ok = false;
    const int bound = reach_bound(u, visited & ~(1ULL << u), &to_ok);
    // -1: u is counted in both current and bound.
    const int potential = static_cast<int>(current.size()) + bound - 1;
    const int goal = target >= 0 ? target : static_cast<int>(best.size()) + 1;
    if (!to_ok || potential < goal) {
      current.pop_back();
      return false;
    }
    std::uint64_t cand = g.neighbor_mask(u) & allowed & ~visited;
    while (cand) {
      const int v = std::countr_zero(cand);
      cand &= cand - 1;
      if (dfs(v, visited | (1ULL << v))) {
        current.pop_back();
        return true;
      }
    }
    current.pop_back();
    return false;
  }
};

}  // namespace

std::optional<std::vector<int>> longest_path(const SmallGraph& g, int from,
                                             int to, std::uint64_t forbidden) {
  assert(from >= 0 && from < g.size() && to >= 0 && to < g.size());
  const std::uint64_t allowed =
      (g.size() == 64 ? ~0ULL : ((1ULL << g.size()) - 1)) & ~forbidden;
  if (!((allowed >> from) & 1) || !((allowed >> to) & 1)) return std::nullopt;
  if (from == to) return std::vector<int>{from};
  PathSearch s(g, to, allowed);
  s.dfs(from, 1ULL << from);
  if (s.best.empty()) return std::nullopt;
  return s.best;
}

std::optional<std::vector<int>> path_with_exact_vertices(
    const SmallGraph& g, int from, int to, std::uint64_t forbidden,
    int target_vertices) {
  assert(from >= 0 && from < g.size() && to >= 0 && to < g.size());
  const std::uint64_t allowed =
      (g.size() == 64 ? ~0ULL : ((1ULL << g.size()) - 1)) & ~forbidden;
  if (!((allowed >> from) & 1) || !((allowed >> to) & 1)) return std::nullopt;
  if (from == to) {
    if (target_vertices != 1) return std::nullopt;
    return std::vector<int>{from};
  }
  PathSearch s(g, to, allowed);
  s.target = target_vertices;
  s.dfs(from, 1ULL << from);
  if (static_cast<int>(s.best.size()) == target_vertices) return s.best;
  return std::nullopt;
}

LongestCycleResult longest_cycle(const SmallGraph& g, std::uint64_t forbidden) {
  LongestCycleResult res;
  const std::uint64_t allowed =
      (g.size() == 64 ? ~0ULL : ((1ULL << g.size()) - 1)) & ~forbidden;
  // A longest cycle through the lowest remaining vertex v is a longest
  // v-w path plus edge (w, v) for some neighbour w; enumerate anchor
  // vertices in increasing order and forbid smaller anchors to avoid
  // re-finding the same cycle.
  std::uint64_t banned = forbidden;
  std::uint64_t rest = allowed;
  while (rest) {
    const int v = std::countr_zero(rest);
    rest &= rest - 1;
    std::uint64_t nbrs = g.neighbor_mask(v) & allowed & ~banned;
    while (nbrs) {
      const int w = std::countr_zero(nbrs);
      nbrs &= nbrs - 1;
      if (w <= v) continue;
      auto p = longest_path(g, v, w, banned & ~(1ULL << v));
      if (p && static_cast<int>(p->size()) >= 3 &&
          static_cast<int>(p->size()) > res.length) {
        res.length = static_cast<int>(p->size());
        res.cycle = std::move(*p);
      }
    }
    banned |= 1ULL << v;
  }
  return res;
}

std::optional<std::vector<int>> hamiltonian_cycle(const SmallGraph& g,
                                                  std::uint64_t forbidden) {
  const std::uint64_t allowed =
      (g.size() == 64 ? ~0ULL : ((1ULL << g.size()) - 1)) & ~forbidden;
  const int want = std::popcount(allowed);
  if (want < 3) return std::nullopt;
  const int v = std::countr_zero(allowed);
  std::uint64_t nbrs = g.neighbor_mask(v) & allowed;
  while (nbrs) {
    const int w = std::countr_zero(nbrs);
    nbrs &= nbrs - 1;
    auto p = path_with_exact_vertices(g, v, w, forbidden, want);
    if (p) return p;
  }
  return std::nullopt;
}

std::optional<std::vector<int>> cycle_with_exact_vertices(
    const SmallGraph& g, std::uint64_t forbidden, int target_vertices) {
  if (target_vertices < 3) return std::nullopt;
  const std::uint64_t allowed =
      (g.size() == 64 ? ~0ULL : ((1ULL << g.size()) - 1)) & ~forbidden;
  // A target-length cycle through anchor v is a target-length v-w path
  // plus the edge (w, v); anchors are tried in increasing order, each
  // banning the smaller ones so work is not repeated.
  std::uint64_t banned = forbidden;
  std::uint64_t rest = allowed;
  while (rest) {
    const int v = std::countr_zero(rest);
    rest &= rest - 1;
    std::uint64_t nbrs = g.neighbor_mask(v) & allowed & ~banned;
    while (nbrs) {
      const int w = std::countr_zero(nbrs);
      nbrs &= nbrs - 1;
      if (w <= v) continue;
      auto p = path_with_exact_vertices(g, v, w, banned & ~(1ULL << v),
                                        target_vertices);
      if (p) return p;
    }
    banned |= 1ULL << v;
  }
  return std::nullopt;
}

}  // namespace starring
