// Experiment E13 — embedding-service microbenchmarks.
//
// Measures the three costs a service caller sees: a cold request
// (canonicalize + embed + relabel), a warm request (canonicalize +
// cache hit + relabel), and the canonicalization step alone.  The
// hit/miss gap is the value of the symmetry-canonical cache: every
// relabeled copy of an already-solved fault class is answered at hit
// cost, and at n >= 8 the gap is several orders of magnitude.
//
// BM_WriteResponse/BM_ReadResponse time the text codec on an n = 8
// answer (40,310 ids, about 230 KB) through a stringstream.  The
// artifact records the fastest iteration of each as
// phase.codec.{write,read}_response_min_ns, which CI gates against the
// committed BENCH_service_micro.json: a return to one stream call per
// id costs several times the gated minimum.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "fault/generators.hpp"
#include "obs/bench_io.hpp"
#include "service/canonical.hpp"
#include "service/service.hpp"
#include "stargraph/star_graph.hpp"
#include "util/io.hpp"

using namespace starring;

namespace {

ServiceRequest request_for(int n, int nf, std::uint64_t seed) {
  const StarGraph g(n);
  ServiceRequest r;
  r.n = n;
  r.faults = random_vertex_faults(g, nf, seed);
  return r;
}

void BM_ServiceMiss(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    // Fresh service each iteration: every request is a cold miss.
    state.PauseTiming();
    EmbedService svc;
    const ServiceRequest req = request_for(n, n - 3, seed++);
    state.ResumeTiming();
    const ServiceResponse r = svc.process_now(req);
    if (r.status != ServiceStatus::kOk) state.SkipWithError(r.reason.c_str());
    benchmark::DoNotOptimize(r.ring.data());
  }
}
BENCHMARK(BM_ServiceMiss)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ServiceHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  EmbedService svc;
  const ServiceRequest seedreq = request_for(n, n - 3, 42);
  if (svc.process_now(seedreq).status != ServiceStatus::kOk) {
    state.SkipWithError("warmup embedding failed");
    return;
  }
  // Every iteration asks for a random relabeling of the warmed class:
  // always a hit, never the identical byte-for-byte request.
  std::uint64_t k = 0;
  std::vector<ServiceRequest> moved;
  for (int i = 0; i < 64; ++i) {
    ServiceRequest r = seedreq;
    r.faults = seedreq.faults.relabeled(Perm::unrank(i * 104729 % factorial(n), n));
    moved.push_back(std::move(r));
  }
  for (auto _ : state) {
    const ServiceResponse r = svc.process_now(moved[k++ % moved.size()]);
    if (r.status != ServiceStatus::kOk || !r.cache_hit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(r.ring.data());
  }
}
BENCHMARK(BM_ServiceHit)->Arg(7)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_ServiceHitVerified(benchmark::State& state) {
  // The paranoid configuration: every hit re-verified after relabeling.
  const int n = static_cast<int>(state.range(0));
  ServiceOptions opts;
  opts.verify_on_hit = true;
  EmbedService svc(opts);
  const ServiceRequest req = request_for(n, n - 3, 42);
  if (svc.process_now(req).status != ServiceStatus::kOk) {
    state.SkipWithError("warmup embedding failed");
    return;
  }
  for (auto _ : state) {
    const ServiceResponse r = svc.process_now(req);
    if (r.status != ServiceStatus::kOk || !r.verified)
      state.SkipWithError("expected a verified hit");
    benchmark::DoNotOptimize(r.ring.data());
  }
}
BENCHMARK(BM_ServiceHitVerified)->Arg(7)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_Canonicalize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const StarGraph g(n);
  const FaultSet faults = random_vertex_faults(g, n - 3, 7);
  for (auto _ : state) {
    const CanonicalForm c = canonicalize(n, faults);
    benchmark::DoNotOptimize(c.key.data());
  }
}
BENCHMARK(BM_Canonicalize)->Arg(7)->Arg(8)->Arg(9)->Unit(benchmark::kMicrosecond);

void BM_BatchedThroughput(benchmark::State& state) {
  // End-to-end scheduler path: submit a burst, drain, consume.  Mixed
  // fault classes so the cache takes hits and misses in one batch.
  const int n = static_cast<int>(state.range(0));
  const StarGraph g(n);
  const int kBurst = 32;
  for (auto _ : state) {
    EmbedService svc;
    for (int i = 0; i < kBurst; ++i) {
      ServiceRequest r;
      r.id = static_cast<std::uint64_t>(i);
      r.n = n;
      r.faults = random_vertex_faults(g, 1 + i % (n - 3), i % 4);
      svc.submit(std::move(r));
    }
    svc.drain();
    int ok = 0;
    while (auto resp = svc.next_response())
      ok += resp->status == ServiceStatus::kOk;
    if (ok != kBurst) state.SkipWithError("lost responses");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBurst);
}
BENCHMARK(BM_BatchedThroughput)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

// Fastest observed ns of one format / one parse, read by main().
double g_write_min_ns = 0;
double g_read_min_ns = 0;

/// A real answer of dimension n: a cold request's ring, in its frame.
ServiceResponse answer_for(int n) {
  EmbedService svc;
  ServiceResponse r = svc.process_now(request_for(n, n - 3, 42));
  r.id = 1;
  return r;
}

/// Run `call` once per iteration, keeping its fastest time in *min_ns.
template <class F>
void timed_loop(benchmark::State& state, double* min_ns, F&& call) {
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    *min_ns = *min_ns == 0 ? ns : std::min(*min_ns, ns);
  }
}

void BM_WriteResponse(benchmark::State& state) {
  const ServiceResponse resp = answer_for(static_cast<int>(state.range(0)));
  if (resp.status != ServiceStatus::kOk) {
    state.SkipWithError(resp.reason.c_str());
    return;
  }
  timed_loop(state, &g_write_min_ns, [&] {
    std::ostringstream os;
    if (!write_response(os, resp)) state.SkipWithError("write failed");
    benchmark::DoNotOptimize(os.str().data());
  });
}
BENCHMARK(BM_WriteResponse)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_ReadResponse(benchmark::State& state) {
  const ServiceResponse resp = answer_for(static_cast<int>(state.range(0)));
  std::ostringstream os;
  if (resp.status != ServiceStatus::kOk || !write_response(os, resp)) {
    state.SkipWithError("no response to parse");
    return;
  }
  const std::string bytes = os.str();
  timed_loop(state, &g_read_min_ns, [&] {
    std::istringstream is(bytes);
    const auto r = read_response(is);
    if (!r || r->ring.size() != resp.ring.size())
      state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(r);
  });
}
BENCHMARK(BM_ReadResponse)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  obs::BenchRecorder rec("service_micro");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  // phase.* naming so bench_compare.py treats them as gateable timings.
  if (g_write_min_ns > 0)
    rec.add_counter("phase.codec.write_response_min_ns", g_write_min_ns);
  if (g_read_min_ns > 0)
    rec.add_counter("phase.codec.read_response_min_ns", g_read_min_ns);
  return 0;
}
