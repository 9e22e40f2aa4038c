#include "core/ring_embedder.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/block_oracle.hpp"
#include "core/chaining.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/parallel.hpp"

namespace starring {

namespace {

/// STARRING_THREADS, parsed once: -1 = unset/invalid (no override),
/// otherwise the requested count with 0 meaning hardware concurrency.
long env_thread_override() {
  static const long parsed = [] {
    const char* env = std::getenv("STARRING_THREADS");
    if (env == nullptr || *env == '\0') return -1L;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 0) return -1L;
    return v;
  }();
  return parsed;
}

}  // namespace

unsigned EmbedOptions::effective_threads() const {
  const long env = env_thread_override();
  const unsigned requested =
      env >= 0 ? static_cast<unsigned>(env) : num_threads;
  return requested == 0 ? default_threads() : requested;
}

std::uint64_t expected_ring_length(int n, std::size_t num_vertex_faults) {
  return factorial(n) - 2 * static_cast<std::uint64_t>(num_vertex_faults);
}

std::uint64_t bipartite_upper_bound(const StarGraph& g,
                                    const FaultSet& faults) {
  std::uint64_t even = 0;
  std::uint64_t odd = 0;
  for (const Perm& f : faults.vertex_faults())
    (f.parity() == 0 ? even : odd) += 1;
  return factorial(g.n()) - 2 * std::max(even, odd);
}

namespace {

/// Direct search for tiny n (3 and 4): the whole of S_n is one block of
/// at most 24 vertices, so the exhaustive machinery applies verbatim.
std::optional<EmbedResult> embed_small(const StarGraph& g,
                                       const FaultSet& faults) {
  const SubstarPattern whole = g.whole_pattern();
  SmallGraph block = whole.block_graph();
  std::uint32_t forbidden = 0;
  for (const Perm& f : faults.vertex_faults())
    forbidden |= 1u << whole.local_index(f);
  for (const EdgeFault& e : faults.edge_faults())
    block.remove_edge(static_cast<int>(whole.local_index(e.u)),
                      static_cast<int>(whole.local_index(e.v)));

  std::optional<std::vector<int>> cycle;
  if (faults.num_vertex_faults() == 0) {
    cycle = hamiltonian_cycle(block, forbidden);
  } else {
    auto lc = longest_cycle(block, forbidden);
    if (lc.length >= 3) cycle = std::move(lc.cycle);
  }
  if (!cycle) return std::nullopt;
  EmbedResult res;
  res.ring.reserve(cycle->size());
  for (const int local : *cycle)
    res.ring.push_back(whole.member(static_cast<std::uint64_t>(local)).rank());
  res.stats.num_blocks = 1;
  res.stats.faulty_blocks = faults.num_vertex_faults() > 0 ? 1 : 0;
  return res;
}

}  // namespace

namespace {

/// The driver proper; embed_longest_ring wraps it in instrumentation.
std::optional<EmbedResult> embed_longest_ring_impl(const StarGraph& g,
                                                   const FaultSet& faults,
                                                   const EmbedOptions& opts) {
  const int n = g.n();
  if (n < 3) return std::nullopt;  // S_1, S_2 contain no cycle
  if (n <= 4) return embed_small(g, faults);

  const PartitionSelection sel =
      select_partition_positions(n, faults, opts.heuristic);
  return build_and_chain(g, sel.positions, faults, opts);
}

}  // namespace

std::optional<EmbedResult> embed_longest_ring(const StarGraph& g,
                                              const FaultSet& faults,
                                              const EmbedOptions& opts) {
  const auto run = [&] {
    const obs::Scope scope("embed");
    return embed_longest_ring_impl(g, faults, opts);
  };
  if (!obs::enabled()) return run();

  const obs::Snapshot before = obs::snapshot();

  // Gauges the bench artifact reads back as its n / faults extents.
  obs::counter("embed.max_n").record_max(g.n());
  obs::counter("embed.max_faults")
      .record_max(static_cast<std::int64_t>(faults.num_vertex_faults() +
                                            faults.num_edge_faults()));
  obs::counter("embed.calls").add();
  obs::counter("embed.threads").record_max(opts.effective_threads());
  auto res = run();
  if (res) {
    obs::counter("embed.restarts").add(res->stats.restarts);
    obs::counter("embed.backtracks").add(res->stats.backtracks);
    obs::counter("embed.closure_attempts").add(res->stats.closure_attempts);
    res->stats.counters = obs::snapshot_delta(before);
  } else {
    obs::counter("embed.failures").add();
  }
  return res;
}

std::optional<EmbedResult> embed_hamiltonian_cycle(const StarGraph& g,
                                                   const EmbedOptions& opts) {
  return embed_longest_ring(g, FaultSet{}, opts);
}

}  // namespace starring
