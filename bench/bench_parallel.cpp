// Experiment E12 — thread-scaling ablation (google-benchmark).
//
// The chaining search is inherently sequential, but the n!-scaling
// phases around it (exit enumeration, emission) are data parallel.
// This bench measures end-to-end embedding at 1, 2, 4, and all hardware
// threads; the embedding result is bit-identical at every setting
// (asserted in tests/test_parallel.cpp).  Verification runs on one
// thread at any setting and is timed by BM_VerifyRing in bench_runtime.
#include <benchmark/benchmark.h>

#include "bench_artifact.hpp"

#include "core/ring_embedder.hpp"
#include "fault/generators.hpp"

using namespace starring;

namespace {

void BM_EmbedThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const StarGraph g(n);
  const FaultSet f = random_vertex_faults(g, n - 3, 42);
  EmbedOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    auto res = embed_longest_ring(g, f, opts);
    if (!res) state.SkipWithError("embedding failed");
    benchmark::DoNotOptimize(res->ring.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(factorial(n)));
}
BENCHMARK(BM_EmbedThreads)
    ->ArgsProduct({{8, 9}, {1, 2, 4, 0}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

STARRING_BENCH_JSON_MAIN("parallel");
