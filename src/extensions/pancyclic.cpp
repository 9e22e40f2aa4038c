#include "extensions/pancyclic.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "core/chaining.hpp"
#include "extensions/longest_path.hpp"
#include "core/ring_embedder.hpp"
#include "core/super_ring.hpp"
#include "graph/graph.hpp"

namespace starring {

namespace {

/// Lift a ring of the abstract S_r into S_n: the abstract permutation
/// occupies positions 0..r-1 and the tail r..n-1 stays the identity,
/// which lands every vertex inside one embedded S_r of S_n.
std::vector<VertexId> lift(const std::vector<Perm>& ring, int n) {
  std::vector<VertexId> out;
  out.reserve(ring.size());
  std::vector<int> syms(static_cast<std::size_t>(n));
  for (const Perm& p : ring) {
    for (int i = 0; i < p.size(); ++i)
      syms[static_cast<std::size_t>(i)] = p.get(i);
    for (int i = p.size(); i < n; ++i) syms[static_cast<std::size_t>(i)] = i;
    out.push_back(Perm::of(syms).rank());
  }
  return out;
}

/// Ring growth by hexagon surgery.  Two moves, both instances of
/// swapping arcs of one 6-cycle (the star graph's girth is 6, so no
/// shorter surgery exists):
///
///  * +2 (arc swap): a 2-edge arc u - m - v (dims i then j) lies on a
///    unique hexagon alternating i and j; when the complementary arc's
///    three vertices are off-ring, swap the arcs (m leaves the ring,
///    three vertices join: net +2).
///  * +4 (edge bridge): an edge (u, v) of dim j lies on one hexagon for
///    every other dim d; when the complementary 5-edge arc's four
///    vertices are off-ring, replace the edge by that arc (net +4).
///    Unlike the arc swap, the bridge can pick d outside the dims the
///    ring currently uses — this is what lets a ring saturated inside
///    an embedded substar escape into fresh territory (a +2 swap can
///    never introduce a new dimension, so it alone stays confined).
///
/// Returns false when the target cannot be reached (e.g. remaining
/// gap 2 with no +2 available).
bool grow_to(std::vector<Perm>& ring, std::uint64_t target) {
  std::unordered_set<std::uint64_t> on_ring;
  on_ring.reserve(2 * target);
  for (const Perm& p : ring) on_ring.insert(p.bits());
  const int r = ring.front().size();

  auto try_plus2 = [&](std::size_t& cursor) -> bool {
    const std::size_t len = ring.size();
    for (std::size_t step = 0; step < len; ++step) {
      const std::size_t i = (cursor + step) % len;
      const Perm& u = ring[i];
      const Perm& m = ring[(i + 1) % len];
      const Perm& v = ring[(i + 2) % len];
      const int di = m.position_of(u.get(0));
      const int dj = v.position_of(m.get(0));
      const Perm h5 = u.star_move(dj);
      const Perm h4 = h5.star_move(di);
      const Perm h3 = v.star_move(di);
      if (on_ring.contains(h5.bits()) || on_ring.contains(h4.bits()) ||
          on_ring.contains(h3.bits()))
        continue;
      on_ring.erase(m.bits());
      on_ring.insert(h5.bits());
      on_ring.insert(h4.bits());
      on_ring.insert(h3.bits());
      const std::size_t mi = (i + 1) % len;
      ring[mi] = h5;  // overwrite m
      ring.insert(ring.begin() + static_cast<std::ptrdiff_t>(mi) + 1,
                  {h4, h3});
      cursor = i;
      return true;
    }
    return false;
  };

  auto try_plus4 = [&](std::size_t& cursor) -> bool {
    const std::size_t len = ring.size();
    for (std::size_t step = 0; step < len; ++step) {
      const std::size_t i = (cursor + step) % len;
      const Perm& u = ring[i];
      const Perm& v = ring[(i + 1) % len];
      const int dj = v.position_of(u.get(0));
      for (int d = 1; d < r; ++d) {
        if (d == dj) continue;
        const Perm h2 = v.star_move(d);
        const Perm h3 = h2.star_move(dj);
        const Perm h4 = h3.star_move(d);
        const Perm h5 = u.star_move(d);
        if (on_ring.contains(h2.bits()) || on_ring.contains(h3.bits()) ||
            on_ring.contains(h4.bits()) || on_ring.contains(h5.bits()))
          continue;
        on_ring.insert(h2.bits());
        on_ring.insert(h3.bits());
        on_ring.insert(h4.bits());
        on_ring.insert(h5.bits());
        ring.insert(ring.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    {h5, h4, h3, h2});
        cursor = i;
        return true;
      }
    }
    return false;
  };

  std::size_t cursor = 0;
  while (ring.size() < target) {
    const std::uint64_t gap = target - ring.size();
    if (try_plus2(cursor)) continue;
    if (gap >= 4 && try_plus4(cursor)) continue;
    return false;
  }
  return true;
}

/// Upper band: length close to r!.  Run the Theorem 1 machinery with
/// (r! - length)/2 virtual faults, each shortening the ring by exactly
/// 2.  The virtual faults are same-parity vertices dealt round-robin
/// over the canonical S_4 blocks so no block carries more damage than
/// ceil(k/m) — with k <= 5m that keeps every per-block target at >= 14
/// vertices, which the exhaustive in-block search can almost always
/// thread (entry/exit choice plus chaining backtracking absorb the
/// rest).
std::optional<std::vector<VertexId>> upper_band(int r, std::uint64_t length,
                                                std::uint64_t seed) {
  const StarGraph g(r);
  const std::uint64_t k = (factorial(r) - length) / 2;
  const std::uint64_t m = factorial(r) / 24;
  FaultSet fake;
  if (k > 0) {
    // Canonical blocks: patterns free on positions {0,1,2,3}; the
    // members with even global parity are the virtual-fault pool of
    // each block (12 per block).
    const std::uint64_t per = k / m;
    std::uint64_t extra = k % m;
    if (per + (extra ? 1 : 0) > 12) return std::nullopt;
    std::uint64_t block_index = 0;
    for (VertexId id = 0; id < g.num_vertices(); ++id) {
      const Perm p = g.vertex(id);
      bool canonical = true;
      for (int i = 0; i + 1 < 4; ++i)
        if (p.get(i) > p.get(i + 1)) canonical = false;
      if (!canonical) continue;
      SubstarPattern pat = SubstarPattern::whole(r);
      for (int i = 4; i < r; ++i) pat = pat.child(i, p.get(i));
      std::uint64_t want = per + (block_index < extra ? 1 : 0);
      ++block_index;
      // Deal same-parity members, offset by the seed for variety.
      for (std::uint64_t j = 0; j < 24 && want > 0; ++j) {
        const Perm member = pat.member((j + seed * 5) % 24);
        if (member.parity() != 0) continue;
        fake.add_vertex(member);
        --want;
      }
    }
    if (fake.num_vertex_faults() != k) return std::nullopt;
  }
  EmbedOptions opts;
  if (k == 0) {
    auto res = embed_hamiltonian_cycle(g, opts);
    if (!res || res->ring.size() != length) return std::nullopt;
    return std::move(res->ring);
  }
  // Chain over the canonical partition (positions 4..r-1) so the
  // blocks the chaining sees are exactly the blocks the virtual faults
  // were dealt over — the Lemma 2 selector would re-partition and
  // unbalance them.
  std::vector<int> positions;
  for (int i = 4; i < r; ++i) positions.push_back(i);
  opts.max_restarts = 4;
  auto res = build_and_chain(g, positions, fake, opts);
  if (!res || res->ring.size() != length) return std::nullopt;
  return std::move(res->ring);
}

/// Anchor ring: exactly q of the r children of S_r (split at the last
/// position), each traversed by a Hamiltonian path between its cross
/// vertices — a ring of exactly q * (r-1)! vertices.  Children of one
/// parent are pairwise adjacent, so any q-subset chains cyclically; the
/// per-child Hamiltonian paths come from the longest-path machinery
/// (fault-free case: S_{r-1} is Hamiltonian-laceable).  Growth then
/// only ever has to cover less than one child volume.
std::optional<std::vector<Perm>> anchor_ring(int r, int q) {
  assert(q >= 2 && q <= r && r >= 5);
  const int pos = r - 1;
  const SubstarPattern whole = SubstarPattern::whole(r);
  std::vector<SubstarPattern> kids;
  std::vector<MemberExpander> expand;
  for (int s = 0; s < q; ++s) {
    kids.push_back(whole.child(pos, s));
    expand.emplace_back(kids.back());
  }
  const StarGraph child_graph(r - 1);

  // Closure: exit of child q-1 crosses to child 0.
  int closure_tries = 0;
  for (std::uint64_t closure = 0;
       closure < factorial(r - 1) && closure_tries < 24; ++closure) {
    const Perm y_last = expand[static_cast<std::size_t>(q - 1)].member(closure);
    if (y_last.get(0) != 0) continue;  // must cross into child 0
    ++closure_tries;
    Perm entry = y_last.star_move(pos);

    std::vector<Perm> ring;
    ring.reserve(static_cast<std::size_t>(q) * factorial(r - 1));
    bool ok = true;
    for (int i = 0; i < q && ok; ++i) {
      const auto& ex = expand[static_cast<std::size_t>(i)];
      // Abstract endpoints within this child.
      const Perm s_abs = Perm::unrank(ex.local_index(entry), r - 1);
      std::optional<Perm> exit;
      Perm t_abs = s_abs;
      if (i == q - 1) {
        exit = y_last;
        t_abs = Perm::unrank(ex.local_index(y_last), r - 1);
        if (s_abs == t_abs || s_abs.parity() == t_abs.parity()) {
          ok = false;
          break;
        }
      } else {
        // Any member crossing to the next child, opposite parity.
        const int next_sym = i + 1;
        for (std::uint64_t j = 0; j < factorial(r - 1); ++j) {
          const Perm cand = ex.member(j);
          if (cand.get(0) != next_sym) continue;
          if (cand == entry) continue;
          if (cand.parity() == entry.parity()) continue;
          exit = cand;
          t_abs = Perm::unrank(j, r - 1);
          break;
        }
        if (!exit) {
          ok = false;
          break;
        }
      }
      const auto path =
          embed_longest_path(child_graph, FaultSet{}, s_abs, t_abs);
      if (!path || path->embed.ring.size() != factorial(r - 1)) {
        ok = false;
        break;
      }
      for (const VertexId id : path->embed.ring)
        ring.push_back(ex.member(id));
      entry = exit->star_move(pos);
    }
    if (ok) return ring;
  }
  return std::nullopt;
}

}  // namespace

/// A ring of exactly `length` vertices in the abstract S_r (as Perms
/// of size r), or nullopt.  Recursive banding:
///  * length <= 24: exhaustive inside one S_4 block;
///  * length close to r! (upper band): Theorem-1 machinery with virtual
///    faults;
///  * otherwise: a recursively built base ring of length
///    min((r-1)!, length-4) — small enough to leave a growth gap of at
///    least one +4 bridge — grown by hexagon surgery.
std::optional<std::vector<Perm>> ring_in_abstract(int r,
                                                  std::uint64_t length) {
  if (length % 2 != 0 || length < 6 || length > factorial(r))
    return std::nullopt;

  if (length <= 24) {
    const SubstarPattern block = SubstarPattern::whole(4);
    const auto cyc = cycle_with_exact_vertices(
        block.block_graph(), 0, static_cast<int>(length));
    if (!cyc) return std::nullopt;
    std::vector<Perm> ring;
    ring.reserve(cyc->size());
    for (const int local : *cyc)
      ring.push_back(block.member(static_cast<std::uint64_t>(local)));
    if (r == 4) return ring;
    // Lift into S_r with the identity tail.
    std::vector<Perm> lifted;
    lifted.reserve(ring.size());
    std::vector<int> syms(static_cast<std::size_t>(r));
    for (const Perm& p : ring) {
      for (int i = 0; i < 4; ++i) syms[static_cast<std::size_t>(i)] = p.get(i);
      for (int i = 4; i < r; ++i) syms[static_cast<std::size_t>(i)] = i;
      lifted.push_back(Perm::of(syms));
    }
    return lifted;
  }

  // Upper band: virtual faults reach down to ~(5/6) r! robustly.
  if (3 * length >= 2 * factorial(r)) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      if (auto ids = upper_band(r, length, seed)) {
        std::vector<Perm> ring;
        ring.reserve(ids->size());
        for (const VertexId id : *ids) ring.push_back(Perm::unrank(id, r));
        return ring;
      }
    }
  }

  // Growth band: an anchor strictly below the target so at least one
  // +4 bridge fits (a ring saturating an embedded substar cannot take
  // +2 steps, and a gap of exactly 2 from such an anchor is a dead
  // end).  For targets above 2 * (r-1)! the anchor is a ring over
  // floor((length-4)/(r-1)!) full sibling children, so growth never
  // has to cover more than one child volume.
  // Candidate bases, tried in order until one grows to the target:
  //  1. an anchor over floor((length-4)/(r-1)!) full sibling children
  //     (growth covers < 1 child volume),
  //  2. the single-child spectrum (Hamiltonian ring of S_{r-1}, or the
  //     child's own recursive ring when the target is smaller),
  //  3. a shorter recursive base at ~3/4 of the target.
  const auto q_anchor = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(r),
                              (length - 4) / factorial(r - 1)));
  auto lift_into_r = [&](const std::vector<Perm>& base) {
    std::vector<Perm> lifted;
    lifted.reserve(length);
    std::vector<int> syms(static_cast<std::size_t>(r));
    for (const Perm& p : base) {
      for (int i = 0; i < r - 1; ++i)
        syms[static_cast<std::size_t>(i)] = p.get(i);
      syms[static_cast<std::size_t>(r - 1)] = r - 1;
      lifted.push_back(Perm::of(syms));
    }
    return lifted;
  };
  auto child_base = [&](std::uint64_t base_len)
      -> std::optional<std::vector<Perm>> {
    if (base_len == factorial(r - 1)) {
      const StarGraph bg(r - 1);
      const auto ham = embed_hamiltonian_cycle(bg);
      if (!ham) return std::nullopt;
      std::vector<Perm> ring;
      ring.reserve(ham->ring.size());
      for (const VertexId id : ham->ring)
        ring.push_back(Perm::unrank(id, r - 1));
      return lift_into_r(ring);
    }
    const auto base = ring_in_abstract(r - 1, base_len);
    if (!base) return std::nullopt;
    return lift_into_r(*base);
  };

  std::vector<std::optional<std::vector<Perm>>> bases;
  if (q_anchor >= 2) bases.push_back(anchor_ring(r, q_anchor));
  // A one-smaller anchor leaves a whole fresh child next to the growth
  // frontier — the cure for targets just above a q-child anchor, where
  // the saturated anchor offers few absorbable hexagons.
  if (q_anchor >= 3) bases.push_back(anchor_ring(r, q_anchor - 1));
  bases.push_back(
      child_base(std::min<std::uint64_t>(factorial(r - 1), length - 4)));
  bases.push_back(child_base(std::min<std::uint64_t>(
      factorial(r - 1), ((length * 3) / 4) & ~1ULL)));
  for (auto& base : bases) {
    if (!base) continue;
    std::vector<Perm> ring = std::move(*base);
    ring.reserve(length);
    if (grow_to(ring, length)) return ring;
  }

  // Last resort: virtual faults below the usual band.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    if (auto ids = upper_band(r, length, seed)) {
      std::vector<Perm> out;
      out.reserve(ids->size());
      for (const VertexId id : *ids) out.push_back(Perm::unrank(id, r));
      return out;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<VertexId>> embed_even_ring(const StarGraph& g,
                                                     std::uint64_t length) {
  const int n = g.n();
  if (length % 2 != 0 || length < 6 || length > g.num_vertices())
    return std::nullopt;

  if (n == 3) {
    if (length != 6) return std::nullopt;
    std::vector<Perm> cyc;
    Perm cur = Perm::identity(3);
    for (int s = 0; s < 6; ++s) {
      cyc.push_back(cur);
      cur = cur.star_move(s % 2 == 0 ? 1 : 2);
    }
    return lift(cyc, n);
  }

  int r = 4;
  while (factorial(r) < length) ++r;
  assert(r <= n);
  const auto ring = ring_in_abstract(r, length);
  if (!ring) return std::nullopt;
  return lift(*ring, n);
}

}  // namespace starring
