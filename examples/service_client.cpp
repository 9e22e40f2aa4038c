// Embedded use of the embedding service: run EmbedService in-process
// instead of talking to a starringd daemon.
//
//   $ ./service_client [n] [requests] [seed]
//
// Submits a burst of random fault scenarios through the batched
// scheduler, then demonstrates the symmetry-canonical cache: a
// relabeled copy of an already-answered request comes back as a cache
// hit, bit-identical to the fresh computation after mapping frames.
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <vector>

#include "core/verify.hpp"
#include "fault/generators.hpp"
#include "service/service.hpp"

int main(int argc, char** argv) {
  using namespace starring;
  const int n = argc > 1 ? std::atoi(argv[1]) : 6;
  const int count = argc > 2 ? std::atoi(argv[2]) : 40;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  if (n < 4 || n > 9) {
    std::cerr << "n must be in [4, 9]\n";
    return 1;
  }

  const StarGraph g(n);
  ServiceOptions opts;
  opts.verify_on_hit = true;

  // Burst of random scenarios through the queue + batcher.  Answers
  // arrive on the scheduler thread; destroying the service waits for
  // the last of them.
  std::mt19937_64 rng(seed);
  std::map<std::uint64_t, FaultSet> submitted;
  std::mutex mu;
  std::vector<ServiceResponse> answers;
  {
    EmbedService svc(opts);
    for (int i = 0; i < count; ++i) {
      ServiceRequest r;
      r.id = static_cast<std::uint64_t>(i);
      r.n = n;
      r.faults = random_vertex_faults(
          g, static_cast<int>(rng() % static_cast<std::uint64_t>(n - 2)),
          rng());
      r.verify = true;
      submitted.emplace(r.id, r.faults);
      svc.submit(std::move(r), [&](ServiceResponse resp) {
        const std::lock_guard<std::mutex> lock(mu);
        answers.push_back(std::move(resp));
      });
    }
    svc.drain();
  }

  int ok = 0;
  int hits = 0;
  for (const ServiceResponse& resp : answers) {
    if (resp.status != ServiceStatus::kOk) {
      std::cerr << "request " << resp.id << " failed: " << resp.reason
                << "\n";
      return 1;
    }
    const auto rep =
        verify_healthy_ring(g, submitted.at(resp.id), resp.ring);
    if (!rep.valid) {
      std::cerr << "request " << resp.id << " verification FAILED: "
                << rep.error << "\n";
      return 1;
    }
    ++ok;
    hits += resp.cache_hit;
  }
  std::cout << ok << "/" << count << " requests embedded and verified, "
            << hits << " cache hits\n";

  // The symmetry dividend: any relabeling of a solved instance is a
  // hit, with the cached canonical ring mapped into the caller's frame.
  EmbedService svc(opts);
  const FaultSet base = random_vertex_faults(g, n - 3, seed);
  ServiceRequest fresh;
  fresh.id = 1000;
  fresh.n = n;
  fresh.faults = base;
  const ServiceResponse first = svc.process_now(fresh);
  const Perm h = Perm::unrank(rng() % factorial(n), n);
  ServiceRequest moved = fresh;
  moved.id = 1001;
  moved.faults = base.relabeled(h);
  const ServiceResponse second = svc.process_now(moved);
  if (first.status != ServiceStatus::kOk ||
      second.status != ServiceStatus::kOk) {
    std::cerr << "canonical-cache demo failed\n";
    return 1;
  }
  std::cout << "relabeled request: cache_hit="
            << (second.cache_hit ? "yes" : "no") << ", verified="
            << (second.verified ? "yes" : "no") << ", ring length "
            << second.ring.size() << " (= n! - 2|Fv| = "
            << expected_ring_length(n, static_cast<int>(
                                           base.num_vertex_faults()))
            << ")\n";
  return second.cache_hit ? 0 : 1;
}
