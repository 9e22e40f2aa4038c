#include "sim/ring_sim.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace starring {

namespace {

/// Publish one finished workload run to the obs counters (one shot at
/// the end of each run_* so the hot event loops stay untouched).
void publish(const char* workload, const SimMetrics& m) {
  if (!obs::enabled()) return;
  obs::counter("sim.runs").add();
  obs::counter("sim.messages").add(static_cast<std::int64_t>(m.messages));
  obs::counter("sim.bytes_moved")
      .add(static_cast<std::int64_t>(m.bytes_moved));
  obs::counter(std::string("sim.") + workload + "_runs").add();
}

}  // namespace

RingNetworkSim::RingNetworkSim(std::vector<VertexId> ring, SimParams params)
    : ring_(std::move(ring)), params_(params) {
  assert(ring_.size() >= 3);
}

double RingNetworkSim::hop_time(std::size_t from_idx,
                                std::size_t to_idx) const {
  // Deterministic per-link jitter from a hash of the endpoint ids, so
  // runs are reproducible but links are not all identical.
  std::uint64_t h = ring_[from_idx] * 0x9E3779B97F4A7C15ULL ^
                    ring_[to_idx] * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  const double jitter =
      params_.jitter_frac * static_cast<double>(h % 1000) / 1000.0;
  return params_.link_latency_us * (1.0 + jitter) + transfer_time();
}

SimMetrics RingNetworkSim::run_token_ring(int rounds) {
  const obs::Scope scope("sim_token_ring");
  SimMetrics m;
  m.participants = ring_.size();
  const std::size_t p = ring_.size();
  // A single token: purely sequential, but run it through the event
  // queue so the engine is the same one the concurrent workloads use.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
  q.push({0.0, 0, 0});
  double end = 0.0;
  const auto total_hops = static_cast<std::uint64_t>(rounds) * p;
  while (!q.empty()) {
    const Event e = q.top();
    q.pop();
    end = e.time;
    if (m.messages == total_hops) break;
    const std::uint32_t next = (e.node + 1) % p;
    const double t =
        e.time + hop_time(e.node, next) + params_.node_overhead_us;
    ++m.messages;
    m.bytes_moved += params_.message_bytes;
    q.push({t, next, e.round});
  }
  m.completion_time_us = end;
  m.participants_per_us =
      end > 0.0 ? static_cast<double>(m.participants) / end : 0.0;
  publish("token_ring", m);
  return m;
}

SimMetrics RingNetworkSim::run_allreduce() {
  const obs::Scope scope("sim_allreduce");
  SimMetrics m;
  const std::size_t p = ring_.size();
  m.participants = p;
  // Ring all-reduce: 2(p-1) steps; in each step every node sends one
  // segment to its successor.  Nodes proceed to step s+1 once their
  // step-s message has arrived; the event queue tracks the per-node
  // completion frontier.
  std::vector<double> ready(p, 0.0);  // time node i may start sending step s
  const auto steps = 2 * (p - 1);
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<double> next_ready(p, 0.0);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t to = (i + 1) % p;
      const double arrive =
          ready[i] + hop_time(i, to) + params_.node_overhead_us;
      // The receiver continues once both its own step and the incoming
      // segment are done.
      next_ready[to] = std::max(arrive, ready[to]);
      ++m.messages;
      m.bytes_moved += params_.message_bytes;
    }
    ready = std::move(next_ready);
  }
  m.completion_time_us = *std::max_element(ready.begin(), ready.end());
  m.participants_per_us =
      m.completion_time_us > 0.0
          ? static_cast<double>(p) / m.completion_time_us
          : 0.0;
  publish("allreduce", m);
  return m;
}

SimMetrics RingNetworkSim::run_neighbor_exchange(int rounds) {
  const obs::Scope scope("sim_neighbor_exchange");
  SimMetrics m;
  const std::size_t p = ring_.size();
  m.participants = p;
  std::vector<double> ready(p, 0.0);
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> next_ready = ready;
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t right = (i + 1) % p;
      const std::size_t left = (i + p - 1) % p;
      const double t_right =
          ready[i] + hop_time(i, right) + params_.node_overhead_us;
      const double t_left =
          ready[i] + hop_time(i, left) + params_.node_overhead_us;
      next_ready[right] = std::max(next_ready[right], t_right);
      next_ready[left] = std::max(next_ready[left], t_left);
      m.messages += 2;
      m.bytes_moved += 2 * params_.message_bytes;
    }
    ready = std::move(next_ready);
  }
  m.completion_time_us = *std::max_element(ready.begin(), ready.end());
  m.participants_per_us =
      m.completion_time_us > 0.0
          ? static_cast<double>(p) / m.completion_time_us
          : 0.0;
  publish("neighbor_exchange", m);
  return m;
}

}  // namespace starring
