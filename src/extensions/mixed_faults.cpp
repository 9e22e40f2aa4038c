#include "extensions/mixed_faults.hpp"

#include "core/chaining.hpp"

namespace starring {

bool mixed_fault_regime_ok(const StarGraph& g, const FaultSet& faults) {
  return g.n() >= 4 &&
         faults.num_vertex_faults() + faults.num_edge_faults() <=
             static_cast<std::size_t>(g.n() - 3);
}

std::optional<MixedFaultResult> embed_mixed_fault_ring(
    const StarGraph& g, const FaultSet& faults, const EmbedOptions& opts) {
  auto res = embed_longest_ring(g, faults, opts);
  if (!res) return std::nullopt;
  return MixedFaultResult{
      std::move(*res), expected_ring_length(g.n(), faults.num_vertex_faults())};
}

std::optional<MixedFaultResult> embed_mixed_fault_ring_baseline(
    const StarGraph& g, const FaultSet& faults, const EmbedOptions& opts) {
  const int n = g.n();
  const std::uint64_t promise =
      factorial(n) - 4 * faults.num_vertex_faults();
  // One block below n = 5: the small cases coincide with the main engine.
  std::optional<EmbedResult> res;
  if (n < 5) {
    res = embed_longest_ring(g, faults, opts);
  } else {
    const PartitionSelection sel =
        select_partition_positions(n, faults, opts.heuristic);
    res = build_and_chain(g, sel.positions, faults, opts, {},
                          /*per_fault_loss=*/4);
  }
  if (!res) return std::nullopt;
  return MixedFaultResult{std::move(*res), promise};
}

}  // namespace starring
