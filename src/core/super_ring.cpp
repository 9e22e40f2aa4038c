#include "core/super_ring.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_set>

namespace starring {

int faults_in_pattern(const SubstarPattern& p, const FaultSet& faults) {
  int count = 0;
  for (const Perm& f : faults.vertex_faults())
    if (p.contains(f)) ++count;
  return count;
}

namespace {

/// Cyclic order for the first level: the n children of the a_1-partition
/// form K_n, so any order is a ring; we interleave fault-containing
/// children with healthy ones so no two sit adjacently (possible
/// whenever faulty children <= floor(n/2), amply true for |Fv| <= n-3
/// split across children).
std::vector<SubstarPattern> order_first_level(
    std::vector<SubstarPattern> children, const FaultSet& faults,
    int rotation) {
  std::vector<SubstarPattern> faulty;
  std::vector<SubstarPattern> healthy;
  for (auto& c : children) {
    (faults_in_pattern(c, faults) > 0 ? faulty : healthy)
        .push_back(std::move(c));
  }
  if (!healthy.empty()) {
    std::rotate(healthy.begin(),
                healthy.begin() + (rotation % static_cast<int>(healthy.size())),
                healthy.end());
  }
  // Round-robin: one faulty child, then a run of healthy ones, repeated.
  std::vector<SubstarPattern> out;
  out.reserve(faulty.size() + healthy.size());
  const std::size_t groups = std::max<std::size_t>(faulty.size(), 1);
  std::size_t h = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (g < faulty.size()) out.push_back(std::move(faulty[g]));
    const std::size_t take = (healthy.size() - h) / (groups - g == 0 ? 1 : (groups - g));
    for (std::size_t t = 0; t < take && h < healthy.size(); ++t)
      out.push_back(std::move(healthy[h++]));
  }
  while (h < healthy.size()) out.push_back(std::move(healthy[h++]));
  return out;
}

/// Bitmask over child symbols q of `parent`'s pos-partition whose child
/// holds at least one vertex fault: fault f lands in child(pos,
/// f.get(pos)) iff parent contains f, so the refinement levels can
/// score and order candidate children without constructing a single
/// throwaway pattern (the old code built two children per candidate
/// per connector pick and ran faults_in_pattern over each).
std::uint32_t faulty_children_mask(const SubstarPattern& parent, int pos,
                                   const FaultSet& faults) {
  std::uint32_t mask = 0;
  for (const Perm& f : faults.vertex_faults())
    if (parent.contains(f)) mask |= 1u << f.get(pos);
  return mask;
}

/// Symbol-level variant of order_middles: order the middle child
/// symbols of one K_r path (ascending within each class, mirroring the
/// free_symbols() enumeration the pattern-based code partitioned) so
/// fault-containing children are spread apart.  Returns the count.
int order_middle_syms(std::uint32_t mid_mask, std::uint32_t faulty_mask,
                      bool entry_faulty, bool exit_faulty, int* out) {
  int faulty[kMaxN];
  int healthy[kMaxN];
  int nf = 0;
  int nh = 0;
  for (std::uint32_t bits = mid_mask; bits != 0; bits &= bits - 1) {
    const int q = std::countr_zero(bits);
    if ((faulty_mask >> q) & 1u)
      faulty[nf++] = q;
    else
      healthy[nh++] = q;
  }
  int count = 0;
  bool prev_faulty = entry_faulty;
  int fi = 0;
  int hi = 0;
  while (fi < nf || hi < nh) {
    const bool last_slot = nf - fi + nh - hi == 1;
    const bool want_faulty =
        !prev_faulty && fi < nf && !(last_slot && exit_faulty);
    if (want_faulty || hi == nh) {
      out[count++] = faulty[fi++];
      prev_faulty = true;
    } else {
      out[count++] = healthy[hi++];
      prev_faulty = false;
    }
  }
  return count;
}

/// If `exclude` is a child of `parent` under the `pos`-partition,
/// return the symbol `exclude` fixes at `pos`; else -1.
int exclude_child_symbol(const SubstarPattern* exclude,
                         const SubstarPattern& parent, int pos) {
  if (exclude == nullptr || exclude->r() != parent.r() - 1) return -1;
  if (exclude->is_free(pos)) return -1;
  for (int i = 0; i < parent.n(); ++i) {
    if (i == pos) continue;
    if (parent.slot(i) != exclude->slot(i)) return -1;
  }
  return exclude->slot(pos);
}

/// One refinement level: partition every pattern of `chain` at position
/// `pos` and thread a Hamiltonian path through each resulting K_r.  A
/// cyclic chain has m connectors (the last joins A_{m-1} back to A_0); an
/// open one has m-1, and its outer path ends are forced instead: the
/// entry child of A_0 holds s and the exit child of A_{m-1} holds t.
/// When `exclude` is a child produced at this level, it is kept away
/// from every path end so the caller can erase it without breaking
/// consecutive adjacency (its neighbours are siblings in one K_r).
std::optional<std::vector<SubstarPattern>> refine(
    const std::vector<SubstarPattern>& chain, int pos, const FaultSet& faults,
    const ChainEnds& ends, const SubstarPattern* exclude) {
  const auto m = chain.size();
  const bool open = ends.open();
  assert(m >= (open ? 2u : 3u));
  const std::size_t conns = open ? m - 1 : m;
  // Forced outer ends of an open chain (-1: none).
  const int s_sym = open ? ends.s->get(pos) : -1;
  const int t_sym = open ? ends.t->get(pos) : -1;

  // Chain-edge data: the next element's symbol at the dif position.
  std::vector<int> next_sym(conns);  // b_k: symbol A_{k+1} fixes there
  for (std::size_t k = 0; k < conns; ++k) {
    const auto& b = chain[(k + 1) % m];
    int p = -1;
    const bool adj = SubstarPattern::adjacent(chain[k], b, &p);
    assert(adj);
    if (!adj) return std::nullopt;
    next_sym[k] = b.slot(p);
  }

  // Which child symbols of each parent hold faults (scored and ordered
  // by mask — no throwaway child patterns).
  std::vector<std::uint32_t> fmask(m);
  for (std::size_t k = 0; k < m; ++k)
    fmask[k] = faulty_children_mask(chain[k], pos, faults);

  // Choose the connector symbols c_k (the symbol shared by the exit
  // child of A_k and the entry child of A_{k+1}).
  std::vector<int> c(conns, -1);
  auto pick = [&](std::size_t k, std::uint32_t extra_banned) -> int {
    const auto& a = chain[k];
    const auto& b = chain[(k + 1) % m];
    std::uint32_t cand = a.free_symbol_mask();
    cand &= ~(1u << next_sym[k]);
    // The exit child of A_k must differ from its entry child.
    if (const int entry = k > 0 ? c[k - 1] : s_sym; entry >= 0)
      cand &= ~(1u << entry);
    // ... and the entry child of the last open element from t's child.
    if (open && k + 2 == m) cand &= ~(1u << t_sym);
    cand &= ~extra_banned;
    // Keep the excluded child out of any path-end role: it must be
    // neither the exit of A_k nor the entry of A_{k+1}.
    if (const int q = exclude_child_symbol(exclude, a, pos); q >= 0)
      cand &= ~(1u << q);
    if (const int q = exclude_child_symbol(exclude, b, pos); q >= 0)
      cand &= ~(1u << q);
    const std::uint32_t f_a = fmask[k];
    const std::uint32_t f_b = fmask[(k + 1) % m];
    int best = -1;
    int best_score = -1;
    std::uint32_t bits = cand;
    while (bits) {
      const int q = std::countr_zero(bits);
      bits &= bits - 1;
      const int score = (((f_b >> q) & 1u) == 0 ? 2 : 0) +
                        (((f_a >> q) & 1u) == 0 ? 1 : 0);
      if (score > best_score) {
        best_score = score;
        best = q;
      }
    }
    return best;
  };
  for (std::size_t k = 0; k < conns; ++k) {
    c[k] = pick(k, 0);
    if (c[k] < 0) return std::nullopt;
  }
  // Cyclic closure: the entry symbol of A_0 is c_{m-1}; it must differ
  // from the exit symbol c_0.  Re-pick c_0 if they collided (banning
  // both c_{m-1} and c_1 keeps every other constraint intact).
  if (!open && c[0] == c[m - 1]) {
    const std::uint32_t banned =
        (1u << c[m - 1]) | (1u << c[1 % m]);
    c[0] = pick(0, banned);
    if (c[0] < 0) return std::nullopt;
  }

  // Thread the paths: each child pattern is constructed exactly once,
  // directly into its final slot.
  std::vector<SubstarPattern> out;
  out.reserve(m * static_cast<std::size_t>(chain.front().r()));
  for (std::size_t k = 0; k < m; ++k) {
    const auto& a = chain[k];
    const int entry_sym = k > 0 ? c[k - 1] : open ? s_sym : c[m - 1];
    const int exit_sym = k < conns ? c[k] : t_sym;
    assert(entry_sym != exit_sym);
    const std::uint32_t mid_mask = a.free_symbol_mask() &
                                   ~(1u << entry_sym) & ~(1u << exit_sym);
    int order[kMaxN];
    const int mid_count = order_middle_syms(
        mid_mask, fmask[k], ((fmask[k] >> entry_sym) & 1u) != 0,
        ((fmask[k] >> exit_sym) & 1u) != 0, order);
    out.push_back(a.child(pos, entry_sym));
    for (int t = 0; t < mid_count; ++t) out.push_back(a.child(pos, order[t]));
    out.push_back(a.child(pos, exit_sym));
  }
  return out;
}

/// Order the first-level children of the open chain: the child holding
/// `s` first, the child holding `t` last, fault-containing children
/// spread through the middle.
std::vector<SubstarPattern> order_first_level_path(
    std::vector<SubstarPattern> children, const FaultSet& faults,
    const Perm& s, const Perm& t, int rotation) {
  SubstarPattern s_child = children.front();
  SubstarPattern t_child = children.front();
  std::vector<SubstarPattern> rest;
  for (auto& ch : children) {
    if (ch.contains(s))
      s_child = ch;
    else if (ch.contains(t))
      t_child = ch;
    else
      rest.push_back(std::move(ch));
  }
  std::vector<SubstarPattern> faulty;
  std::vector<SubstarPattern> healthy;
  for (auto& ch : rest)
    (faults_in_pattern(ch, faults) > 0 ? faulty : healthy)
        .push_back(std::move(ch));
  if (!healthy.empty()) {
    std::rotate(healthy.begin(),
                healthy.begin() + (rotation % static_cast<int>(healthy.size())),
                healthy.end());
  }
  std::vector<SubstarPattern> out;
  out.push_back(std::move(s_child));
  std::size_t hi = 0;
  for (std::size_t fi = 0; fi < faulty.size(); ++fi) {
    if (hi < healthy.size()) out.push_back(std::move(healthy[hi++]));
    out.push_back(std::move(faulty[fi]));
  }
  while (hi < healthy.size()) out.push_back(std::move(healthy[hi++]));
  out.push_back(std::move(t_child));
  return out;
}

}  // namespace

std::optional<SuperRing> build_block_chain(int n,
                                           std::span<const int> positions,
                                           const FaultSet& faults,
                                           const ChainEnds& ends, int rotation,
                                           const SubstarPattern* exclude) {
  assert(n >= 5);
  assert(static_cast<int>(positions.size()) == n - 4);
  assert((!ends.open() ||
          ends.s->get(positions[0]) != ends.t->get(positions[0])) &&
         "positions[0] must separate s and t");
  const SubstarPattern whole = SubstarPattern::whole(n);
  std::vector<SubstarPattern> chain =
      ends.open() ? order_first_level_path(whole.children(positions[0]),
                                           faults, *ends.s, *ends.t, rotation)
                  : order_first_level(whole.children(positions[0]), faults,
                                      rotation);
  // Erase the excluded pattern once the level producing its r is built.
  // At the first level the ring is a K_n cycle, and at refinement levels
  // the pick() bans above keep it mid-path, so erasing never breaks
  // consecutive adjacency.
  auto maybe_erase = [&]() {
    if (exclude == nullptr || chain.empty() ||
        chain.front().r() != exclude->r())
      return;
    std::erase(chain, *exclude);
  };
  maybe_erase();
  for (std::size_t level = 1; level < positions.size(); ++level) {
    auto next = refine(chain, positions[level], faults, ends, exclude);
    if (!next) return std::nullopt;
    chain = std::move(*next);
    maybe_erase();
  }
  SuperRing sr;
  sr.ring = std::move(chain);
  return sr;
}

bool is_valid_super_ring(int n, const SuperRing& sr,
                         std::uint64_t missing_vertices,
                         const ChainEnds& ends) {
  const auto& ring = sr.ring;
  const bool open = ends.open();
  if (ring.size() < (open ? 2u : 3u)) return false;
  const int r = ring.front().r();
  if (ring.size() * factorial(r) != factorial(n) - missing_vertices)
    return false;
  if (open && (!ring.front().contains(*ends.s) ||
               !ring.back().contains(*ends.t)))
    return false;
  std::unordered_set<SubstarPattern, SubstarPatternHash> seen;
  for (std::size_t k = 0; k < ring.size(); ++k) {
    if (ring[k].r() != r || ring[k].n() != n) return false;
    if (!seen.insert(ring[k]).second) return false;
    if ((!open || k + 1 < ring.size()) &&
        !SubstarPattern::adjacent(ring[k], ring[(k + 1) % ring.size()]))
      return false;
  }
  return true;
}

}  // namespace starring
