#include "sim/self_healing.hpp"

#include <chrono>

#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace starring {

HealingTrace run_self_healing(const StarGraph& g,
                              const std::vector<Perm>& fault_sequence,
                              const SimParams& params,
                              const EmbedStrategy& strategy) {
  using clock = std::chrono::steady_clock;
  const obs::Scope scope("self_healing");
  HealingTrace trace;
  FaultSet faults;
  for (int step = 0; step <= static_cast<int>(fault_sequence.size()); ++step) {
    if (step > 0)
      faults.add_vertex(fault_sequence[static_cast<std::size_t>(step - 1)]);

    const auto t0 = clock::now();
    const auto res = strategy(g, faults);
    const auto t1 = clock::now();

    HealingEvent ev;
    ev.faults_so_far = step;
    ev.reembed_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    obs::counter("healing.reembeds").add();
    if (!res || !verify_healthy_ring(g, faults, res->ring).valid) {
      obs::counter("healing.incomplete_traces").add();
      trace.completed = false;
      trace.events.push_back(ev);
      return trace;
    }
    ev.ring_length = res->ring.size();
    ev.stranded = g.num_vertices() - faults.num_vertex_faults() -
                  res->ring.size();
    RingNetworkSim sim(res->ring, params);
    ev.allreduce_us = sim.run_allreduce().completion_time_us;
    trace.events.push_back(ev);
  }
  return trace;
}

}  // namespace starring
