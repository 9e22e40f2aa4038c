#include "baselines/tseng.hpp"

#include <cassert>

#include "core/chaining.hpp"

namespace starring {

std::optional<EmbedResult> tseng_vertex_fault_ring(const StarGraph& g,
                                                   const FaultSet& faults,
                                                   const EmbedOptions& opts) {
  assert(faults.num_edge_faults() == 0);
  // One block: the paper's small cases coincide with the main engine.
  if (g.n() < 5) return embed_longest_ring(g, faults, opts);
  const PartitionSelection sel =
      select_partition_positions(g.n(), faults, opts.heuristic);
  return build_and_chain(g, sel.positions, faults, opts, {},
                         /*per_fault_loss=*/4);
}

std::optional<EmbedResult> tseng_edge_fault_ring(const StarGraph& g,
                                                 const FaultSet& faults,
                                                 const EmbedOptions& opts) {
  assert(faults.num_vertex_faults() == 0);
  // No vertex faults: every block target stays 24 and the engine only
  // has to route around the forbidden edges — exactly the edge-fault
  // theorem.
  return embed_longest_ring(g, faults, opts);
}

}  // namespace starring
