#include "core/chaining.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "core/block_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "stargraph/lehmer4.hpp"
#include "util/parallel.hpp"

namespace starring {

namespace {

constexpr int kBlockSize = BlockOracle::kBlockSize;
constexpr int kCrossings = kBlockSize / 4;  // (4-1)!: crossings per super-edge
/// Cross-block backtrack pops allowed per closure attempt before the
/// attempt is abandoned.
constexpr std::int64_t kBacktrackBudget = 1'000'000;

/// Relaxed read of the caller's cooperative-cancel flag (see
/// EmbedOptions::cancel); checked at block-advance granularity so a
/// cancelled search stops within one in-block path search.
bool cancelled(const EmbedOptions& opts) {
  return opts.cancel != nullptr &&
         opts.cancel->load(std::memory_order_relaxed);
}

/// Struct-of-arrays state for one chaining call.
///
/// Every block of the super-ring fixes the SAME positions (patterns of
/// one partition differ only in the fixed symbols), so the per-block
/// "expander" of the old code — 15 120 copies of MemberExpander at
/// n = 9 — carried four shared fields per block and was built one
/// pointer-chased struct at a time.  Here the shared skeleton (free
/// positions, Lehmer weights, and the per-local-index digit
/// contribution, which depends only on the weights) is computed once,
/// and the genuinely per-block data lives in flat arrays the build and
/// emit loops stream through.  Exit candidates use fixed-stride rows
/// (at most kCrossings per block) instead of a vector per block, and
/// chosen paths are BlockOracle::PathVal slots — the whole call makes
/// O(1) allocations instead of O(m).
struct ChainState {
  std::size_t m = 0;
  int n = 0;

  // Shared skeleton.
  std::array<std::int8_t, 4> free_pos{};
  std::array<std::uint64_t, 4> weight{};  // factorial(n - 1 - free_pos[m])
  // digit_rank[k] = sum_m lehmer_digit_m(k) * weight[m]: the
  // free-over-free part of member_rank, identical for every block.
  std::array<std::uint64_t, kBlockSize> digit_rank{};
  std::vector<std::int8_t> fixed_pos;  // the n-4 fixed positions

  // Per-block info, indexed [k].
  std::vector<std::uint64_t> sig;        // fixed-position symbol signature
  std::vector<std::uint32_t> forbidden;  // fault | excised local bits
  std::vector<std::int8_t> target;       // vertices the block must supply

  // Exit candidates, fixed stride: row k occupies
  // [k*kCrossings, k*kCrossings + exit_count[k]).
  std::vector<std::int8_t> exit_y;
  std::vector<std::int8_t> exit_partner;
  std::vector<std::int8_t> exit_count;

  // Per-block member expansion (the split of MemberExpander's rank
  // decomposition that actually varies per block).
  std::vector<std::uint64_t> base_bits;  // fixed slots, free slots zero
  std::vector<std::int8_t> free_sym;     // [k*4 + a]: ascending free symbols
  std::vector<VertexId> rank_base;       // fixed-over-fixed contribution
  std::vector<std::uint64_t> rank_sym;   // [k*16 + m*4 + a]

  // In-block edge faults; empty (no per-block vectors at all) unless
  // the fault set actually contains edge faults.
  std::vector<std::vector<std::pair<int, int>>> removed_edges;

  std::size_t faulty_blocks = 0;

  // Reused scratch for the build phases and the backtracking search.
  // Everything here is overwritten before it is read, so stale values
  // from a previous call are harmless — the point is to keep the ~2.5MB
  // of flat arrays an n = 9 call needs warm across calls instead of
  // paying a fresh allocation, page-fault, and zero-fill storm on every
  // embed (resize() only value-initializes growth beyond the high-water
  // mark).
  std::vector<std::uint32_t> fault_mask;
  std::vector<std::uint32_t> failed;
  std::vector<std::size_t> exit_idx;
  std::vector<BlockOracle::PathVal> paths;
  std::vector<int> entry;

  std::span<const std::pair<int, int>> removed(std::size_t k) const {
    if (removed_edges.empty()) return {};
    return removed_edges[k];
  }

  /// Global Lehmer rank of local member `local` of block k —
  /// MemberExpander::member_rank against the flat tables.
  VertexId member_rank(std::size_t k, int local) const {
    const std::uint64_t* s = &rank_sym[k * 16];
    const auto& a = kLehmer4.sym[static_cast<std::size_t>(local)];
    return rank_base[k] + digit_rank[static_cast<std::size_t>(local)] +
           s[0 * 4 + a[0]] + s[1 * 4 + a[1]] + s[2 * 4 + a[2]] +
           s[3 * 4 + a[3]];
  }

  /// Packed bits of local member `local` of block k (edge-fault checks
  /// only; the bulk loops never materialize members).
  std::uint64_t member_bits(std::size_t k, int local) const {
    const std::int8_t* fs = &free_sym[k * 4];
    const auto& a = kLehmer4.sym[static_cast<std::size_t>(local)];
    std::uint64_t bits = base_bits[k];
    for (int m = 0; m < 4; ++m)
      bits |= static_cast<std::uint64_t>(fs[a[m]])
              << (4 * free_pos[static_cast<std::size_t>(m)]);
    return bits;
  }
};

/// The per-thread ChainState: one embed call runs at a time per thread,
/// and reusing the state keeps its flat arrays' heap pages hot.
ChainState& tls_chain_state() {
  static thread_local ChainState st;
  return st;
}

/// Pack the symbols a permutation shows at the blocks' fixed positions;
/// equal signature <=> same block.
std::uint64_t signature(const Perm& p, const std::vector<std::int8_t>& fixed) {
  std::uint64_t sig = 0;
  for (const std::int8_t i : fixed)
    sig = (sig << 4) | static_cast<std::uint64_t>(p.get(i));
  return sig;
}

/// Index of `s` among block k's ascending free symbols, or -1.
int free_symbol_index(const ChainState& st, std::size_t k, int s) {
  const std::int8_t* fs = &st.free_sym[k * 4];
  for (int j = 0; j < 4; ++j)
    if (fs[j] == s) return j;
  return -1;
}

/// Find the block whose signature is `sig`, or npos.  The handful of
/// fault lookups per call makes a linear scan over the flat signature
/// array cheaper than building any index of all m blocks (the old code
/// built a 2m-slot hash map to place ~6 faults).
std::size_t find_block(const ChainState& st, std::uint64_t sig) {
  const auto it = std::find(st.sig.begin(), st.sig.end(), sig);
  return it == st.sig.end() ? static_cast<std::size_t>(-1)
                            : static_cast<std::size_t>(it - st.sig.begin());
}

/// Phase 1: signatures, fault/excise placement, per-block targets.
/// Returns false when some block is damaged beyond threading.
bool build_block_infos(ChainState& st,
                       const std::vector<SubstarPattern>& blocks_pat,
                       const FaultSet& faults, int per_fault_loss,
                       const SubstarPattern* excise, unsigned threads) {
  const obs::Scope scope("chain_block_infos");
  const std::size_t m = blocks_pat.size();
  const SubstarPattern& front = blocks_pat.front();
  st.m = m;
  st.n = front.n();
  st.fixed_pos.clear();
  int fp = 0;
  for (int i = 0; i < st.n; ++i) {
    if (front.is_free(i)) {
      st.free_pos[static_cast<std::size_t>(fp++)] = static_cast<std::int8_t>(i);
    } else {
      st.fixed_pos.push_back(static_cast<std::int8_t>(i));
    }
  }
  assert(fp == 4);

  st.sig.resize(m);
  parallel_for(0, m, threads, [&](std::size_t k) {
    const SubstarPattern& pat = blocks_pat[k];
    std::uint64_t sig = 0;
    for (const std::int8_t i : st.fixed_pos)
      sig = (sig << 4) | static_cast<std::uint64_t>(pat.slot(i));
    st.sig[k] = sig;
  });

  st.fault_mask.assign(m, 0);
  std::vector<std::uint32_t>& fault_mask = st.fault_mask;
  std::vector<std::uint32_t> excised_mask;
  for (const Perm& f : faults.vertex_faults()) {
    const std::size_t k = find_block(st, signature(f, st.fixed_pos));
    if (k == static_cast<std::size_t>(-1)) continue;  // excluded (Latifi mode)
    fault_mask[k] |= 1u << blocks_pat[k].local_index(f);
  }
  if (faults.num_edge_faults() != 0) {
    st.removed_edges.assign(m, {});
    for (const EdgeFault& e : faults.edge_faults()) {
      const std::size_t ku = find_block(st, signature(e.u, st.fixed_pos));
      if (ku == static_cast<std::size_t>(-1)) continue;
      const std::size_t kv = find_block(st, signature(e.v, st.fixed_pos));
      if (kv != ku) continue;
      st.removed_edges[ku].emplace_back(
          static_cast<int>(blocks_pat[ku].local_index(e.u)),
          static_cast<int>(blocks_pat[ku].local_index(e.v)));
    }
  } else {
    st.removed_edges.clear();
  }
  if (excise != nullptr) {
    const std::size_t k =
        find_block(st, signature(excise->member(0), st.fixed_pos));
    if (k == static_cast<std::size_t>(-1)) return false;
    excised_mask.assign(m, 0);
    for (const Perm& p : excise->members()) {
      if (!blocks_pat[k].contains(p)) return false;  // spans blocks
      excised_mask[k] |= 1u << blocks_pat[k].local_index(p);
    }
  }

  st.forbidden.resize(m);
  st.target.resize(m);
  st.faulty_blocks = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t fm = fault_mask[k];
    const std::uint32_t em = excised_mask.empty() ? 0u : excised_mask[k];
    st.forbidden[k] = fm | em;
    if (fm != 0) ++st.faulty_blocks;
    const int target = kBlockSize - per_fault_loss * std::popcount(fm) -
                       std::popcount(em);
    if (target < 2) return false;  // block too damaged to thread
    st.target[k] = static_cast<std::int8_t>(target);
  }
  return true;
}

/// Phase 2: the member-expansion tables, struct-of-arrays.  The shared
/// skeleton is derived once; per-block data streams into flat arrays.
void build_expanders(ChainState& st,
                     const std::vector<SubstarPattern>& blocks_pat,
                     unsigned threads) {
  const obs::Scope scope("chain_expanders");
  const std::size_t m = st.m;
  const int n = st.n;
  for (int j = 0; j < 4; ++j)
    st.weight[static_cast<std::size_t>(j)] =
        factorial(n - 1 - st.free_pos[static_cast<std::size_t>(j)]);
  for (int k = 0; k < kBlockSize; ++k) {
    const auto& d = kLehmer4.digit[static_cast<std::size_t>(k)];
    st.digit_rank[static_cast<std::size_t>(k)] =
        d[0] * st.weight[0] + d[1] * st.weight[1] + d[2] * st.weight[2];
    // d[3] == 0 always.
  }

  st.base_bits.resize(m);
  st.free_sym.resize(m * 4);
  st.rank_base.resize(m);
  st.rank_sym.resize(m * 16);
  parallel_for(0, m, threads, [&](std::size_t k) {
    const SubstarPattern& pat = blocks_pat[k];
    // Fixed slots -> base bits and the used-symbol mask.
    std::uint64_t bits = 0;
    std::uint32_t used = 0;
    for (const std::int8_t i : st.fixed_pos) {
      const auto s = static_cast<std::uint32_t>(pat.slot(i));
      bits |= static_cast<std::uint64_t>(s) << (4 * i);
      used |= 1u << s;
    }
    st.base_bits[k] = bits;
    std::int8_t* fs = &st.free_sym[k * 4];
    const std::uint32_t fmask = ((1u << n) - 1u) & ~used;
    // tot[a]: fixed symbols smaller than free symbol f_a (the whole-line
    // total the suffix counts below are subtracted from).
    std::array<std::uint32_t, 4> tot{};
    {
      std::uint32_t rest = fmask;
      for (int a = 0; a < 4; ++a) {
        const int f = std::countr_zero(rest);
        rest &= rest - 1;
        fs[a] = static_cast<std::int8_t>(f);
        tot[static_cast<std::size_t>(a)] =
            static_cast<std::uint32_t>(std::popcount(used & ((1u << f) - 1u)));
      }
    }
    // One branchless left-to-right pass builds all three rank pieces.
    // At a fixed position with symbol s and weight w, with
    // c = |{free symbols < s}| (so fs[a] < s <=> a < c, since fs is
    // ascending):
    //   * acc[a] += w for a < c — fixed-over-free inversions whose free
    //     slot lies to the right (the prefix snapshot below);
    //   * cnt[a] += 1 for a >= c — fixed symbols < f_a seen so far, so
    //     the suffix count at a free slot is tot[a] - cnt[a];
    //   * base accumulates fixed-over-fixed inversions as
    //     (fixed < s in total) - (fixed < s already seen).
    std::uint64_t* sym_tab = &st.rank_sym[k * 16];
    std::array<std::uint64_t, 4> acc{};
    std::array<std::uint32_t, 4> cnt{};
    std::uint32_t seen = 0;
    VertexId base = 0;
    int slot_m = 0;
    for (int i = 0; i < n; ++i) {
      const int sv = pat.slot(i);
      if (sv < 0) {  // free position: snapshot this slot's table row
        const auto ms = static_cast<std::size_t>(slot_m);
        const std::uint64_t w = st.weight[ms];
        for (std::size_t a = 0; a < 4; ++a)
          sym_tab[ms * 4 + a] = acc[a] + (tot[a] - cnt[a]) * w;
        ++slot_m;
        continue;
      }
      const std::uint64_t w = factorial(n - 1 - i);
      const auto below = (1u << sv) - 1u;
      const auto c = static_cast<unsigned>(std::popcount(fmask & below));
      acc[0] += w & -static_cast<std::uint64_t>(c > 0);
      acc[1] += w & -static_cast<std::uint64_t>(c > 1);
      acc[2] += w & -static_cast<std::uint64_t>(c > 2);
      acc[3] += w & -static_cast<std::uint64_t>(c > 3);
      cnt[0] += static_cast<std::uint32_t>(c == 0);
      cnt[1] += static_cast<std::uint32_t>(c <= 1);
      cnt[2] += static_cast<std::uint32_t>(c <= 2);
      cnt[3] += static_cast<std::uint32_t>(c <= 3);
      base += static_cast<VertexId>(std::popcount(used & below) -
                                    std::popcount(seen & below)) *
              w;
      seen |= 1u << sv;
    }
    st.rank_base[k] = base;
#ifndef NDEBUG
    // One validation per block (not per member): the identity
    // arrangement must reconstruct a well-formed permutation whose rank
    // matches the table decomposition.
    const Perm check = Perm::from_packed(st.member_bits(k, 0), n);
    assert(check.rank() == st.member_rank(k, 0));
#endif
  });
}

/// Phase 3: enumerate the healthy crossings from block k to block
/// (k+1) % m into the fixed-stride exit rows.
bool compute_exits(ChainState& st,
                   const std::vector<SubstarPattern>& blocks_pat,
                   const FaultSet& faults, std::size_t k, std::size_t knext) {
  const auto& a = blocks_pat[k];
  const auto& next = blocks_pat[knext];
  int p = -1;
  const bool adj = SubstarPattern::adjacent(a, next, &p);
  assert(adj);
  if (!adj) return false;
  const int b_sym = next.slot(p);
  const int a_sym = a.slot(p);
  // Only members with b_sym at position 0 can cross, and those occupy
  // one contiguous local-index range (the leading Lehmer digit picks
  // the position-0 symbol): (r-1)! candidates instead of scanning all
  // r! members.  The crossing u -> v = u.star_move(p) swaps position 0
  // (holding b_sym) with the differing fixed position p (holding a_sym);
  // the trailing free symbols are untouched and form the same set in
  // both blocks, so the sub-Lehmer index t carries over verbatim:
  //   y = b_idx*(r-1)! + t in block k  <=>  partner = a_idx*(r-1)! + t.
  const int b_idx = free_symbol_index(st, k, b_sym);
  const int a_idx = free_symbol_index(st, knext, a_sym);
  assert(b_idx >= 0);  // next fixes b_sym at p, so it is free in a
  assert(a_idx >= 0);
  // Vertex faults are already folded into each block's forbidden mask,
  // so only cross-block edge faults need the actual permutations.
  const bool check_edges = faults.num_edge_faults() != 0;
  const std::uint32_t fa = st.forbidden[k];
  const std::uint32_t fb = st.forbidden[knext];
  std::int8_t* ey = &st.exit_y[k * kCrossings];
  std::int8_t* ep = &st.exit_partner[k * kCrossings];
  int count = 0;
  for (int t = 0; t < kCrossings; ++t) {
    const int y = b_idx * kCrossings + t;
    if ((fa >> y) & 1u) continue;
    const int partner = a_idx * kCrossings + t;
    if ((fb >> partner) & 1u) continue;
    if (check_edges) {
      const Perm u = Perm::from_packed(st.member_bits(k, y), st.n);
      assert(u.get(0) == b_sym);
      if (faults.edge_faulty(u, u.star_move(p))) continue;
    }
    ey[count] = static_cast<std::int8_t>(y);
    ep[count] = static_cast<std::int8_t>(partner);
    ++count;
  }
  st.exit_count[k] = static_cast<std::int8_t>(count);
  return count != 0;
}

/// Enumerate exits for every consecutive block pair in parallel;
/// returns false when some block has no healthy crossing.
bool compute_all_exits(ChainState& st,
                       const std::vector<SubstarPattern>& blocks_pat,
                       const FaultSet& faults, bool cyclic, unsigned threads) {
  const obs::Scope scope("chain_exits");
  obs::counter("chain.threads").record_max(threads);
  const std::size_t m = st.m;
  st.exit_y.resize(m * kCrossings);
  st.exit_partner.resize(m * kCrossings);
  st.exit_count.assign(m, 0);
  const std::size_t pairs = cyclic ? m : m - 1;
  std::vector<std::uint8_t> ok(pairs, 0);
  parallel_for(0, pairs, threads, [&](std::size_t k) {
    ok[k] = compute_exits(st, blocks_pat, faults, k, (k + 1) % m) ? 1 : 0;
  });
  for (const auto flag : ok)
    if (!flag) return false;
  return true;
}

/// Emit the concatenated vertex ids for the chosen per-block paths.
/// Offsets are exact, so blocks fill disjoint slices in parallel.
std::vector<VertexId> emit(const ChainState& st,
                           const std::vector<BlockOracle::PathVal>& paths,
                           unsigned threads) {
  const obs::Scope scope("chain_emit");
  std::vector<std::size_t> offset(st.m + 1, 0);
  for (std::size_t j = 0; j < st.m; ++j)
    offset[j + 1] = offset[j] + static_cast<std::size_t>(paths[j].len);
  std::vector<VertexId> out(offset.back());
  parallel_for(0, st.m, threads, [&](std::size_t j) {
    const BlockOracle::PathVal& p = paths[j];
    const int len = p.len;
    // Hoist every table pointer into const locals: `out` aliases the
    // u64 rank tables as far as the compiler can tell, so indexing
    // through `st` inside the loop would reload the vector data
    // pointers after every store.
    VertexId* const at = out.data() + offset[j];
    const VertexId base = st.rank_base[j];
    const std::uint64_t* const s = &st.rank_sym[j * 16];
    const std::uint64_t* const dr = st.digit_rank.data();
    const std::int8_t* const pv = p.v.data();
    for (int i = 0; i < len; ++i) {
      const auto local = static_cast<std::size_t>(pv[i]);
      const auto& a = kLehmer4.sym[local];
      at[i] = base + dr[local] + s[a[0]] + s[4 + a[1]] + s[8 + a[2]] +
              s[12 + a[3]];
    }
  });
  return out;
}

}  // namespace

std::optional<EmbedResult> chain_blocks(const StarGraph& g,
                                        const SuperRing& sr,
                                        const FaultSet& faults,
                                        const EmbedOptions& opts,
                                        const ChainEnds& ends,
                                        int per_fault_loss,
                                        const SubstarPattern* excise) {
  (void)g;
  assert(per_fault_loss % 2 == 0 && per_fault_loss >= 2);
  const auto& blocks = sr.ring;
  const std::size_t m = blocks.size();
  const bool open = ends.open();
  if (m < (open ? 2u : 3u) || blocks.front().r() != 4) return std::nullopt;
  if (open && (!blocks.front().contains(*ends.s) ||
               !blocks.back().contains(*ends.t) ||
               faults.vertex_faulty(*ends.s) || faults.vertex_faulty(*ends.t)))
    return std::nullopt;

  // The oracle is stateless apart from tallies: every instance shares
  // the process-wide path cache, so constructing one per call is cheap
  // and thread-clean.
  BlockOracle oracle;
  if (opts.prewarm_oracle)
    BlockOracle::prewarm_fault_free(opts.effective_threads());

  ChainState& st = tls_chain_state();
  if (!build_block_infos(st, blocks, faults, per_fault_loss, excise,
                         opts.effective_threads()))
    return std::nullopt;
  build_expanders(st, blocks, opts.effective_threads());
  if (!compute_all_exits(st, blocks, faults, /*cyclic=*/!open,
                         opts.effective_threads()))
    return std::nullopt;
  if (ends.short_block >= 0 && ends.short_block < static_cast<int>(m)) {
    std::int8_t& target = st.target[static_cast<std::size_t>(ends.short_block)];
    target = static_cast<std::int8_t>(target - 1);
    if (target < 1) return std::nullopt;
  }

  EmbedStats stats;
  stats.num_blocks = m;
  stats.faulty_blocks = st.faulty_blocks;

  st.failed.resize(m);
  st.exit_idx.resize(m);
  st.paths.resize(m);
  st.entry.resize(m);
  std::vector<std::uint32_t>& failed = st.failed;
  std::vector<std::size_t>& exit_idx = st.exit_idx;
  std::vector<BlockOracle::PathVal>& paths = st.paths;
  std::vector<int>& entry = st.entry;

  // Search-loop fast paths: the 24-bit local parity mask replaces two
  // pointer-chased local_parity() calls per candidate, and the published
  // fault-free plane turns the oracle query for healthy full blocks —
  // virtually all of them — into a bare 25-byte table copy with the
  // cache-hit counter flushed once per call instead of once per query.
  std::uint32_t pmask = 0;
  for (int v = 0; v < kBlockSize; ++v)
    pmask |= static_cast<std::uint32_t>(oracle.local_parity(v) & 1) << v;
  const BlockOracle::PathVal* const fftab = BlockOracle::fault_free_plane();
  const bool ff_fast = fftab != nullptr && st.removed_edges.empty();
  std::int64_t ff_hits = 0;
  static obs::Counter& ff_hit_counter = obs::counter("oracle.cache_hits");
  struct FlushHits {
    std::int64_t* n;
    obs::Counter* c;
    ~FlushHits() {
      if (*n != 0) c->add(*n);
    }
  } flush_hits{&ff_hits, &ff_hit_counter};

  // Spans the backtracking search; the nested chain_emit span on
  // success is contained in (not additional to) this one.
  const obs::Scope scope("chain_search");
  // The (entry of block 0, exit of block m-1) pairs the search threads
  // between: for a ring, every healthy crossing of the closing
  // super-edge (leaving block m-1 at y lands in block 0 at its
  // partner); for an open chain, the one pair (s, t).
  const int s_local =
      open ? static_cast<int>(blocks.front().local_index(*ends.s)) : -1;
  const int t_local =
      open ? static_cast<int>(blocks.back().local_index(*ends.t)) : -1;
  const std::int8_t* last_ey = &st.exit_y[(m - 1) * kCrossings];
  const std::int8_t* last_ep = &st.exit_partner[(m - 1) * kCrossings];
  const int end_pairs = open ? 1 : st.exit_count[m - 1];
  for (int c = 0; c < end_pairs; ++c) {
    const int first_entry = open ? s_local : last_ep[c];
    const int last_exit = open ? t_local : last_ey[c];
    if (cancelled(opts)) return std::nullopt;
    if (!open) ++stats.closure_attempts;
    std::fill(failed.begin(), failed.end(), 0u);
    std::size_t k = 0;
    entry[0] = first_entry;
    exit_idx[0] = 0;
    std::int64_t backtracks = 0;
    bool aborted = false;
    while (k < m && !aborted) {
      if (cancelled(opts)) return std::nullopt;
      bool advanced = false;
      const int target = st.target[k];
      const std::uint32_t forbidden = st.forbidden[k];
      const bool use_ff =
          ff_fast && forbidden == 0 && target == kBlockSize;
      const int ek = entry[k];
      const std::uint32_t need =
          ((pmask >> ek) ^ static_cast<std::uint32_t>(target - 1)) & 1u;
      const std::int8_t* ey = &st.exit_y[k * kCrossings];
      const std::int8_t* ep = &st.exit_partner[k * kCrossings];
      while (!advanced) {
        int y;
        int partner = -1;
        if (k == m - 1) {
          if (exit_idx[k] != 0) break;
          exit_idx[k] = 1;
          y = last_exit;
        } else {
          if (exit_idx[k] >= static_cast<std::size_t>(st.exit_count[k])) break;
          y = ey[exit_idx[k]];
          partner = ep[exit_idx[k]];
          ++exit_idx[k];
        }
        // A block shortened to one vertex enters and leaves through it;
        // any longer path joins two distinct vertices whose parities
        // its length fixes.
        if (target == 1 ? y != ek
                        : y == ek || ((pmask >> y) & 1u) != need)
          continue;
        if (k + 1 < m && ((failed[k + 1] >> partner) & 1u)) continue;
        if (use_ff) {
          paths[k] = fftab[static_cast<std::size_t>(ek) * kBlockSize +
                           static_cast<std::size_t>(y)];
          ++ff_hits;
          if (paths[k].len < 0) continue;
        } else if (!oracle.find_path_into(ek, y, forbidden, target, &paths[k],
                                          st.removed(k))) {
          continue;
        }
        if (k + 1 < m) {
          entry[k + 1] = partner;
          exit_idx[k + 1] = 0;
        }
        ++k;
        advanced = true;
      }
      if (!advanced) {
        failed[k] |= 1u << entry[k];
        if (k == 0) break;  // this end pair cannot work
        --k;
        ++backtracks;
        ++stats.backtracks;
        if (backtracks > kBacktrackBudget) aborted = true;
      }
    }
    if (k == m) {
      EmbedResult res;
      res.ring = emit(st, paths, opts.effective_threads());
      res.stats = stats;
      return res;
    }
  }
  return std::nullopt;
}

std::optional<EmbedResult> build_and_chain(const StarGraph& g,
                                           std::span<const int> positions,
                                           const FaultSet& faults,
                                           const EmbedOptions& opts,
                                           ChainEnds ends, int per_fault_loss,
                                           const SubstarPattern* exclude,
                                           const SubstarPattern* excise) {
  const bool short_needed =
      ends.open() && ends.s->parity() == ends.t->parity();
  for (int restart = 0; restart < std::max(1, opts.max_restarts); ++restart) {
    if (cancelled(opts)) return std::nullopt;
    const auto sr = [&] {
      const obs::Scope scope("super_ring");
      return build_block_chain(g.n(), positions, faults, ends, restart,
                               exclude);
    }();
    if (!sr) continue;
    // Blocks that may absorb an open chain's parity correction, in the
    // order tried: up to six healthy blocks away from the endpoints
    // (their 23-vertex paths are abundant), else the last block.  A
    // ring, or endpoints of opposite parity, need none (-1).
    const int m = static_cast<int>(sr->ring.size());
    std::array<int, 6> shorts{-1};
    std::size_t num_shorts = 1;
    if (short_needed) {
      num_shorts = 0;
      for (int k = m - 2; k >= 1 && num_shorts < shorts.size(); --k)
        if (faults_in_pattern(sr->ring[static_cast<std::size_t>(k)],
                              faults) == 0)
          shorts[num_shorts++] = k;
      if (num_shorts == 0) shorts[num_shorts++] = m - 1;
    }
    for (std::size_t i = 0; i < num_shorts; ++i) {
      ends.short_block = shorts[i];
      auto res =
          chain_blocks(g, *sr, faults, opts, ends, per_fault_loss, excise);
      if (res) {
        res->stats.restarts = restart;
        return res;
      }
    }
  }
  return std::nullopt;
}

}  // namespace starring
