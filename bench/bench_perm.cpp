// Permutation-kernel microbenchmarks (google-benchmark).
//
// Throughput of the five batched packed-permutation primitives
// (perm/simd.hpp) on the dispatcher's active tier versus the pinned
// scalar tier, plus the service-level relabel_ring path they feed.
// items_per_second is permutations processed; the scalar/active ratio
// on one machine is the SIMD speedup the dispatch actually delivers
// there (on hardware with no vector tier the two series coincide).
//
// The artifact records, per primitive, the fastest observed
// ns-per-batch at n = 9 on both tiers as phase.perm_*_min_ns counters
// — the min statistic is stable enough for CI to gate against the
// committed BENCH_perm.json — plus perm.*_speedup_x100 ratios for the
// README table.
#include <benchmark/benchmark.h>

#include <chrono>
#include <random>
#include <vector>

#include "obs/bench_io.hpp"
#include "perm/permutation.hpp"
#include "perm/simd.hpp"
#include "service/canonical.hpp"

using namespace starring;

namespace {

constexpr std::size_t kBatch = 8192;
constexpr int kGateN = 9;  // the regime the gated mins are measured in

enum Op { kRank = 0, kUnrank, kParity, kRelabel, kInverse, kOpCount };
const char* const kOpName[kOpCount] = {"rank", "unrank", "parity", "relabel",
                                       "inverse"};
// [op][tier]: fastest ns for one kBatch-call at n = kGateN; tier 0 =
// scalar, 1 = active.  Filled by the benchmarks, read by main().
double g_min_ns[kOpCount][2] = {};

void note_min(Op op, long tier, double ns) {
  double& slot = g_min_ns[op][tier];
  slot = slot == 0 ? ns : std::min(slot, ns);
}

/// Args: (n, tier as int).  Tier 0 = scalar, 1 = active.
const simd::Kernels& pick(benchmark::State& state) {
  return state.range(1) == 0 ? simd::kernels(simd::Tier::kScalar)
                             : simd::active();
}

std::vector<std::uint64_t> packed_batch(int n) {
  std::mt19937_64 rng(2718);
  std::vector<std::uint64_t> out(kBatch);
  for (std::uint64_t& p : out)
    p = Perm::unrank(rng() % factorial(n), n).bits();
  return out;
}

void set_throughput(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

/// Run `call` once per iteration, tracking the fastest call for the
/// gated min counter when this is the n = kGateN series.
template <typename F>
void run_kernel_loop(benchmark::State& state, Op op, F&& call) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (n == kGateN) note_min(op, state.range(1), ns);
  }
  set_throughput(state);
}

void BM_BatchRank(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto packed = packed_batch(n);
  std::vector<VertexId> out(kBatch);
  const simd::Kernels& k = pick(state);
  run_kernel_loop(state, kRank, [&] {
    k.rank(packed.data(), kBatch, n, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}

void BM_BatchUnrank(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(31);
  std::vector<VertexId> ranks(kBatch);
  for (VertexId& r : ranks) r = rng() % factorial(n);
  std::vector<std::uint64_t> out(kBatch);
  const simd::Kernels& k = pick(state);
  run_kernel_loop(state, kUnrank, [&] {
    k.unrank(ranks.data(), kBatch, n, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}

void BM_BatchParity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto packed = packed_batch(n);
  std::vector<std::uint8_t> out(kBatch);
  const simd::Kernels& k = pick(state);
  run_kernel_loop(state, kParity, [&] {
    k.parity(packed.data(), kBatch, n, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}

void BM_BatchRelabel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto packed = packed_batch(n);
  const std::uint64_t g = Perm::unrank(factorial(n) - 1, n).bits();
  std::vector<std::uint64_t> out(kBatch);
  const simd::Kernels& k = pick(state);
  run_kernel_loop(state, kRelabel, [&] {
    k.relabel(g, packed.data(), kBatch, n, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}

void BM_BatchInverse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto packed = packed_batch(n);
  std::vector<std::uint64_t> out(kBatch);
  const simd::Kernels& k = pick(state);
  run_kernel_loop(state, kInverse, [&] {
    k.inverse(packed.data(), kBatch, n, out.data());
    benchmark::DoNotOptimize(out.data());
  });
}

// n = 9 matches the headline embed regime (and feeds the gated mins);
// n = 12 stresses the deeper unrank/rank recurrences.
#define STARRING_PERM_BENCH(fn)                 \
  BENCHMARK(fn)                                 \
      ->Args({9, 0})                            \
      ->Args({9, 1})                            \
      ->Args({12, 0})                           \
      ->Args({12, 1})                           \
      ->Unit(benchmark::kMicrosecond)

STARRING_PERM_BENCH(BM_BatchRank);
STARRING_PERM_BENCH(BM_BatchUnrank);
// Unrank also runs at n = 8, the service-hit regime (relabel_ring and
// the verifier decode every ring vertex through it).
BENCHMARK(BM_BatchUnrank)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMicrosecond);
STARRING_PERM_BENCH(BM_BatchParity);
STARRING_PERM_BENCH(BM_BatchRelabel);
STARRING_PERM_BENCH(BM_BatchInverse);

/// The consumer of the kernels on the service's response path: relabel
/// a whole canonical ring into the caller's frame (unrank -> relabel
/// -> rank per vertex, chunked through the batched kernels).
void BM_RelabelRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(5);
  // A synthetic ring the size of the real n-regime embedding; relabel
  // cost depends only on length, not on ring structure.
  std::vector<VertexId> ring(static_cast<std::size_t>(factorial(n)));
  for (VertexId& v : ring) v = rng() % factorial(n);
  const Perm g = Perm::unrank(1 + rng() % (factorial(n) - 1), n);
  for (auto _ : state) {
    auto out = relabel_ring(ring, g, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ring.size()));
}
BENCHMARK(BM_RelabelRing)->Arg(8)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::BenchRecorder rec("perm");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  rec.note_n(kGateN);
  rec.note_faults(0);
  for (int op = 0; op < kOpCount; ++op) {
    const double scalar_ns = g_min_ns[op][0];
    const double active_ns = g_min_ns[op][1];
    if (scalar_ns <= 0 || active_ns <= 0) continue;  // filtered run
    const std::string base = std::string("perm.") + kOpName[op];
    // phase.* naming so bench_compare.py treats them as gateable
    // timings; speedup is informational (it moves with the hardware).
    rec.add_counter("phase." + base + "_scalar_min_ns", scalar_ns);
    rec.add_counter("phase." + base + "_simd_min_ns", active_ns);
    rec.add_counter(base + "_speedup_x100", scalar_ns / active_ns * 100.0);
  }
  return 0;
}
