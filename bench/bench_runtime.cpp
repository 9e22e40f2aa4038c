// Experiment E4 — construction cost scaling (google-benchmark).
//
// Wall time of the full pipeline (Lemma 2 selection, R_4 construction,
// chaining, emission) as n grows with the maximum fault load
// |Fv| = n-3, plus a fault-free Hamiltonian-cycle series.  The
// construction is near-linear in n! (the output size), so ns/vertex is
// the number to watch.  BM_VerifyRing times the independent verifier
// on the same rings.
#include <benchmark/benchmark.h>

#include "bench_artifact.hpp"

#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "fault/generators.hpp"

using namespace starring;

namespace {

void BM_EmbedMaxFaults(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const StarGraph g(n);
  const FaultSet f = random_vertex_faults(g, n - 3, 42);
  std::uint64_t len = 0;
  for (auto _ : state) {
    auto res = embed_longest_ring(g, f, bench_embed_options());
    if (!res) state.SkipWithError("embedding failed");
    len = res->ring.size();
    benchmark::DoNotOptimize(res->ring.data());
  }
  state.counters["ring_len"] = static_cast<double>(len);
  state.counters["ns_per_vertex"] = benchmark::Counter(
      static_cast<double>(factorial(n)),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(factorial(n)));
}
BENCHMARK(BM_EmbedMaxFaults)->DenseRange(5, 9)->Unit(benchmark::kMillisecond);
// S_10: 3.6M vertices; pinned to two iterations so the full suite stays
// fast while still exercising the multi-second regime.
BENCHMARK(BM_EmbedMaxFaults)
    ->Arg(10)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_HamiltonianCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const StarGraph g(n);
  for (auto _ : state) {
    auto res = embed_hamiltonian_cycle(g, bench_embed_options());
    if (!res) state.SkipWithError("embedding failed");
    benchmark::DoNotOptimize(res->ring.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(factorial(n)));
}
BENCHMARK(BM_HamiltonianCycle)->DenseRange(5, 9)->Unit(benchmark::kMillisecond);

void BM_VerifyRing(benchmark::State& state) {
  // The independent verifier on one thread, over the ring the embedder
  // returns at the maximum fault load |Fv| = n-3.
  const int n = static_cast<int>(state.range(0));
  const StarGraph g(n);
  const FaultSet f = random_vertex_faults(g, n - 3, 42);
  const auto res = embed_longest_ring(g, f, bench_embed_options());
  if (!res) {
    state.SkipWithError("embedding failed");
    return;
  }
  for (auto _ : state) {
    const RingReport rep = verify_healthy_ring(g, f, res->ring, 1);
    if (!rep.valid) state.SkipWithError(rep.error.c_str());
    benchmark::DoNotOptimize(rep.length);
  }
  state.counters["ns_per_vertex"] = benchmark::Counter(
      static_cast<double>(res->ring.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(res->ring.size()));
}
BENCHMARK(BM_VerifyRing)->DenseRange(5, 9)->Unit(benchmark::kMillisecond);

}  // namespace

STARRING_BENCH_JSON_MAIN("runtime");
