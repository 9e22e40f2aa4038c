// Tracing overhead on the paper pipeline (google-benchmark).
//
// The flight recorder promises near-zero disabled cost: a span site
// behind the runtime switch is one relaxed load and a branch.  This
// bench puts a number on that promise at two scales:
//
//   * BM_EmbedMaxFaults{TraceOff,TraceOn} — the full n=9 pipeline
//     (Lemma 2 selection, R_4 construction, chaining, emission) with
//     tracing disabled vs enabled.  Fixed iteration counts; both the
//     phase totals and a min-of-iterations statistic land in the
//     artifact.  The min is what scripts/ci.sh gates at 2% against the
//     committed baseline: scheduler noise on a shared box only ever
//     inflates an iteration, so the minimum is the stable
//     "quiet-machine" cost of the compiled-in span sites, where the
//     sum of 60 iterations can swing by 10%+ run to run.
//   * BM_SpanSite{Disabled,Enabled} — the raw per-site cost of an
//     obs::Scope, ns/op.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>

#include "bench_options.hpp"
#include "core/ring_embedder.hpp"
#include "fault/generators.hpp"
#include "obs/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

using namespace starring;

namespace {

constexpr int kN = 9;
// Enough full-pipeline runs that the fastest of 100 is a repeatable
// quiet-machine sample without making the CI bench stage crawl.
constexpr int kEmbedIters = 100;

// Fastest single iteration of each timed series, picked up by main()
// after RunSpecifiedBenchmarks; 0 means the series did not run.
double g_off_min_ns = 0;
double g_on_min_ns = 0;

void embed_once(benchmark::State& state, const StarGraph& g,
                const FaultSet& f) {
  auto res = embed_longest_ring(g, f, bench_embed_options());
  if (!res) state.SkipWithError("embedding failed");
  benchmark::DoNotOptimize(res->ring.data());
}

/// One untimed run so the process-global oracle cache is warm before
/// either series starts — otherwise whichever benchmark runs first
/// pays all the misses and the off/on comparison is meaningless.
void warm_up(const StarGraph& g, const FaultSet& f) {
  (void)embed_longest_ring(g, f, bench_embed_options());
}

double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Process CPU time, not wall: preemption on a shared box inflates wall
// samples unpredictably, while the CPU time of the fastest iteration
// is a repeatable measure of the work actually executed (and it still
// counts pool workers if the embed fans out).
double timed_embed_ns(benchmark::State& state, const StarGraph& g,
                      const FaultSet& f) {
  const double t0 = process_cpu_ns();
  embed_once(state, g, f);
  return process_cpu_ns() - t0;
}

void BM_EmbedMaxFaultsTraceOff(benchmark::State& state) {
  const StarGraph g(kN);
  const FaultSet f = random_vertex_faults(g, kN - 3, 42);
  warm_up(g, f);
  obs::trace::set_enabled(false);
  double min_ns = 0;
  for (auto _ : state) {
    const obs::Scope scope("trace_off_embed");
    const double ns = timed_embed_ns(state, g, f);
    min_ns = min_ns == 0 ? ns : std::min(min_ns, ns);
  }
  g_off_min_ns = min_ns;
  state.counters["min_ms"] = min_ns / 1e6;
}
BENCHMARK(BM_EmbedMaxFaultsTraceOff)
    ->Iterations(kEmbedIters)
    ->Unit(benchmark::kMillisecond);

void BM_EmbedMaxFaultsTraceOn(benchmark::State& state) {
  const StarGraph g(kN);
  const FaultSet f = random_vertex_faults(g, kN - 3, 42);
  warm_up(g, f);
  obs::trace::set_enabled(true);
  double min_ns = 0;
  for (auto _ : state) {
    const obs::Scope root("trace_on_embed");
    const double ns = timed_embed_ns(state, g, f);
    min_ns = min_ns == 0 ? ns : std::min(min_ns, ns);
  }
  obs::trace::set_enabled(false);
  g_on_min_ns = min_ns;
  state.counters["min_ms"] = min_ns / 1e6;
}
BENCHMARK(BM_EmbedMaxFaultsTraceOn)
    ->Iterations(kEmbedIters)
    ->Unit(benchmark::kMillisecond);

// The site benches time a Scope with metrics off, so Disabled is the
// both-switches-off path and Enabled the span alone.
void BM_SpanSiteDisabled(benchmark::State& state) {
  const bool metrics = obs::enabled();
  obs::set_enabled(false);
  obs::trace::set_enabled(false);
  for (auto _ : state) {
    const obs::Scope scope("bench.site");
    benchmark::ClobberMemory();
  }
  obs::set_enabled(metrics);
}
BENCHMARK(BM_SpanSiteDisabled);

void BM_SpanSiteEnabled(benchmark::State& state) {
  const bool metrics = obs::enabled();
  obs::set_enabled(false);
  obs::trace::set_enabled(true);
  for (auto _ : state) {
    const obs::Scope scope("bench.site");
    benchmark::ClobberMemory();
  }
  obs::trace::set_enabled(false);
  obs::set_enabled(metrics);
}
BENCHMARK(BM_SpanSiteEnabled);

}  // namespace

int main(int argc, char** argv) {
  obs::BenchRecorder rec("trace");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  rec.note_n(kN);
  rec.note_faults(kN - 3);
  // The min counters follow the phase.*_ns naming so bench_compare.py
  // treats them as gateable timings.
  if (g_off_min_ns > 0)
    rec.add_counter("phase.trace_off_embed_min_ns", g_off_min_ns);
  if (g_on_min_ns > 0)
    rec.add_counter("phase.trace_on_embed_min_ns", g_on_min_ns);
  if (g_off_min_ns > 0 && g_on_min_ns > 0)
    rec.add_counter("trace.overhead_pct",
                    (g_on_min_ns - g_off_min_ns) / g_off_min_ns * 100.0);
  return 0;
}
