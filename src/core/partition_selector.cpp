#include "core/partition_selector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace starring {

namespace {

/// Number of distinct groups after refining `groups` by the symbol each
/// member shows at position p.
int groups_after_split(const std::vector<std::vector<Perm>>& groups, int p) {
  int total = 0;
  for (const auto& g : groups) {
    std::uint32_t symbols = 0;
    for (const Perm& perm : g) symbols |= 1u << perm.get(p);
    total += std::popcount(symbols);
  }
  return total;
}

/// True iff some group holds two members differing at position p.
bool splits_something(const std::vector<std::vector<Perm>>& groups, int p) {
  for (const auto& g : groups) {
    if (g.size() < 2) continue;
    const int s0 = g.front().get(p);
    for (const Perm& perm : g)
      if (perm.get(p) != s0) return true;
  }
  return false;
}

std::vector<std::vector<Perm>> apply_split(
    const std::vector<std::vector<Perm>>& groups, int p) {
  std::vector<std::vector<Perm>> out;
  for (const auto& g : groups) {
    std::map<int, std::vector<Perm>> by_symbol;
    for (const Perm& perm : g) by_symbol[perm.get(p)].push_back(perm);
    for (auto& [sym, members] : by_symbol) out.push_back(std::move(members));
  }
  return out;
}

}  // namespace

PartitionSelection select_positions_for(int n, std::span<const Perm> items,
                                        int count, SplitHeuristic heuristic,
                                        std::span<const int> preferred_fillers,
                                        std::span<const int> forced_first) {
  assert(n >= 2 && count >= 0 && count <= n - 1);
  PartitionSelection sel;
  std::vector<std::vector<Perm>> groups;
  if (!items.empty()) groups.emplace_back(items.begin(), items.end());

  std::vector<bool> used(static_cast<std::size_t>(n), false);
  used[0] = true;  // position 0 is never a partition position

  for (const int p : forced_first) {
    if (static_cast<int>(sel.positions.size()) >= count) break;
    assert(p >= 1 && p < n);
    if (used[static_cast<std::size_t>(p)]) continue;
    used[static_cast<std::size_t>(p)] = true;
    sel.positions.push_back(p);
    if (splits_something(groups, p)) ++sel.effective_splits;
    groups = apply_split(groups, p);
  }

  while (static_cast<int>(sel.positions.size()) < count) {
    int best = -1;
    int best_groups = -1;
    for (int p = 1; p < n; ++p) {
      if (used[static_cast<std::size_t>(p)]) continue;
      if (!splits_something(groups, p)) continue;
      if (heuristic == SplitHeuristic::kFirstSplitting) {
        best = p;
        break;
      }
      const int ng = groups_after_split(groups, p);
      if (ng > best_groups) {
        best_groups = ng;
        best = p;
      }
    }
    if (best == -1) break;  // all groups are singletons (or unsplittable)
    used[static_cast<std::size_t>(best)] = true;
    sel.positions.push_back(best);
    groups = apply_split(groups, best);
    ++sel.effective_splits;
  }

  // Fill the remaining slots — preferred fillers first (faulty-edge
  // dimensions), then arbitrary unused positions; refine the groups
  // through them too so max_faults_per_block reflects the final blocks.
  for (const int p : preferred_fillers) {
    if (static_cast<int>(sel.positions.size()) >= count) break;
    if (p < 1 || p >= n || used[static_cast<std::size_t>(p)]) continue;
    used[static_cast<std::size_t>(p)] = true;
    sel.positions.push_back(p);
    groups = apply_split(groups, p);
  }
  for (int p = 1;
       p < n && static_cast<int>(sel.positions.size()) < count; ++p) {
    if (used[static_cast<std::size_t>(p)]) continue;
    used[static_cast<std::size_t>(p)] = true;
    sel.positions.push_back(p);
    groups = apply_split(groups, p);
  }

  sel.max_faults_per_block = 0;
  for (const auto& g : groups)
    sel.max_faults_per_block =
        std::max(sel.max_faults_per_block, static_cast<int>(g.size()));
  return sel;
}

std::vector<int> edge_fault_dims(int n, const FaultSet& faults) {
  std::vector<int> dim_count(static_cast<std::size_t>(n), 0);
  for (const EdgeFault& e : faults.edge_faults()) {
    for (int d = 1; d < n; ++d) {
      if (e.u.star_move(d) == e.v) {
        ++dim_count[static_cast<std::size_t>(d)];
        break;
      }
    }
  }
  std::vector<int> dims;
  for (int d = 1; d < n; ++d)
    if (dim_count[static_cast<std::size_t>(d)] > 0) dims.push_back(d);
  std::sort(dims.begin(), dims.end(), [&](int a, int b) {
    return dim_count[static_cast<std::size_t>(a)] >
           dim_count[static_cast<std::size_t>(b)];
  });
  return dims;
}

PartitionSelection select_partition_positions(int n, const FaultSet& faults,
                                              SplitHeuristic heuristic) {
  assert(n >= 5);
  const obs::Scope scope("partition_select");
  const std::vector<Perm> items = faults.vertex_faults();
  // Faulty-link swap dimensions, most frequent first: using them as
  // partition positions turns those links into super-edge crossings.
  const std::vector<int> preferred = edge_fault_dims(n, faults);
  PartitionSelection sel =
      select_positions_for(n, items, n - 4, heuristic, preferred);
  obs::counter("partition.selections").add();
  obs::counter("partition.effective_splits").add(sel.effective_splits);
  return sel;
}

}  // namespace starring
