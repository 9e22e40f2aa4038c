// starring-load — multi-tenant open-loop load harness for starringd.
//
// Each --tenant SPEC runs on its own TCP connection with an open-loop
// sender (arrivals follow the spec's Poisson or bursty schedule and
// never wait for responses) and a reader that correlates responses by
// id for client-side latency.  After --duration-ms the senders stop,
// the connections half-close (the daemon answers everything still in
// flight, then EOF), and a fresh connection scrapes STATS for the
// daemon-side view: per-tenant latency histograms (svc.tenant.*) and
// cache counters.
//
// The harness is also the assertion rig CI uses:
//   --assert-p99-ratio X   fail unless, across tenants with enough
//                          samples, max client p99 <= X * min p99
//                          (the DRR fairness bound)
//   --min-hit-rate F       fail unless the daemon's canonical-cache
//                          hit rate reached F (the scan-resistance
//                          bound: a hot zipf tenant must keep hitting
//                          while a scan tenant churns probation)
// Exit is non-zero on transport/parse errors, unanswered requests,
// failed assertions, or status-error responses; throttled / rejected /
// timeout responses are expected outcomes under QoS and are only
// counted.
//
// With --bench-artifact NAME the run writes BENCH_<NAME>.json
// (load.* counters) for scripts/bench_compare.py gating.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ext/stdio_filebuf.h>  // libstdc++; the repo targets the gcc toolchain
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen/loadgen.hpp"
#include "obs/bench_io.hpp"
#include "obs/prometheus.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring {
namespace {

using loadgen::TenantSpec;

struct LoadConfig {
  /// Targets ("PORT" or "HOST:PORT"); repeatable.  Tenant i dials
  /// endpoint i mod size, so one harness can spread tenants over a
  /// proxy plus individual shards (or several proxies).
  std::vector<net::Endpoint> connect;
  std::int64_t duration_ms = 2000;
  std::uint64_t seed = 1;
  std::vector<TenantSpec> tenants;
  double assert_p99_ratio = 0.0;  // 0 = no fairness assertion
  double min_hit_rate = -1.0;     // < 0 = no hit-rate assertion
  /// Stamp every request with a deterministic trace context (namespace
  /// 0xFFFE + the request's open-loop id) so proxy/shard spans of a
  /// load run stitch into per-request trees in a merged trace.
  bool trace = false;
  std::string bench_artifact;
  std::string stats_out;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --connect HOST:PORT [options]\n"
      << "  --connect HOST:PORT    target daemon or proxy (repeatable;\n"
      << "                         a bare PORT means 127.0.0.1:PORT;\n"
      << "                         tenant i dials endpoint i mod "
         "count)\n"
      << "  --tenant SPEC          add a tenant workload (repeatable);\n"
      << "                         SPEC = name[:key=value]... with keys\n"
      << "                         rate, arrival=poisson|burst, on_ms,\n"
      << "                         off_ms, zipf, classes,\n"
      << "                         pattern=zipf|scan, nmin, nmax,\n"
      << "                         deadline_ms, verify\n"
      << "  --duration-ms N        open-loop send window (default 2000)\n"
      << "  --seed S               workload seed (default 1)\n"
      << "  --assert-p99-ratio X   fail if max/min client p99 across\n"
      << "                         tenants exceeds X\n"
      << "  --min-hit-rate F       fail if the daemon cache hit rate\n"
      << "                         ends below F (0..1)\n"
      << "  --stats-out F          save the scraped STATS promtext\n"
      << "  --trace                stamp requests with trace ids so "
         "server\n"
      << "                         spans stitch into per-request trees\n"
      << "  --bench-artifact S     write BENCH_<S>.json (load.* "
         "counters)\n";
  return 2;
}

std::optional<LoadConfig> parse_args(int argc, char** argv) {
  LoadConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto num = [&]() -> long {
      return i + 1 < argc ? std::atol(argv[++i]) : -1;
    };
    long v = 0;
    if (a == "--connect" && i + 1 < argc) {
      const auto ep = net::parse_endpoint(argv[++i]);
      if (!ep) return std::nullopt;
      cfg.connect.push_back(*ep);
    } else if (a == "--duration-ms" && (v = num()) > 0) {
      cfg.duration_ms = v;
    } else if (a == "--seed" && (v = num()) >= 0) {
      cfg.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--tenant" && i + 1 < argc) {
      std::string why;
      const auto spec = loadgen::parse_tenant_spec(argv[++i], &why);
      if (!spec) {
        std::cerr << "starring-load: bad --tenant: " << why << "\n";
        return std::nullopt;
      }
      cfg.tenants.push_back(*spec);
    } else if (a == "--assert-p99-ratio" && i + 1 < argc) {
      cfg.assert_p99_ratio = std::atof(argv[++i]);
      if (cfg.assert_p99_ratio < 1.0) return std::nullopt;
    } else if (a == "--min-hit-rate" && i + 1 < argc) {
      cfg.min_hit_rate = std::atof(argv[++i]);
      if (cfg.min_hit_rate < 0 || cfg.min_hit_rate > 1) return std::nullopt;
    } else if (a == "--stats-out" && i + 1 < argc) {
      cfg.stats_out = argv[++i];
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "--bench-artifact" && i + 1 < argc) {
      cfg.bench_artifact = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (cfg.connect.empty() || cfg.tenants.empty()) return std::nullopt;
  return cfg;
}

/// One tenant's client-side tally.  The latency vector is only touched
/// by the tenant's reader thread until join, then read by main.
struct TenantTally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t throttled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t status_errors = 0;
  std::uint64_t hits = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t transport_errors = 0;
  std::vector<std::int64_t> latencies_us;
};

std::int64_t percentile_us(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// Drive one tenant: open-loop sender on this thread, reader on a
/// helper.  Returns when the send window elapsed AND every answered
/// response was consumed (the half-close makes the daemon flush
/// everything in flight and EOF the stream).
void run_tenant(const LoadConfig& cfg, const TenantSpec& spec,
                std::size_t idx, TenantTally& tally) {
  const net::Endpoint& ep = cfg.connect[idx % cfg.connect.size()];
  const int fd = net::connect_endpoint(ep);
  if (fd < 0) {
    std::cerr << "starring-load: " << spec.name << ": connect "
              << net::to_string(ep) << ": " << std::strerror(errno)
              << "\n";
    ++tally.transport_errors;
    return;
  }
  __gnu_cxx::stdio_filebuf<char> out_buf(::dup(fd), std::ios::out);
  __gnu_cxx::stdio_filebuf<char> in_buf(fd, std::ios::in);
  std::ostream out(&out_buf);
  std::istream in(&in_buf);

  std::mutex mu;  // guards sends
  std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point>
      sends;

  std::thread reader([&] {
    std::string err;
    while (true) {
      const auto resp = read_response(in, &err);
      if (!resp) {
        if (!err.empty()) {
          std::cerr << "starring-load: " << spec.name
                    << ": response parse error: " << err << "\n";
          ++tally.transport_errors;
        }
        return;  // EOF: the daemon delivered everything and closed
      }
      const auto now = std::chrono::steady_clock::now();
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = sends.find(resp->id);
        if (it != sends.end()) {
          tally.latencies_us.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - it->second)
                  .count());
          sends.erase(it);
        }
      }
      switch (resp->status) {
        case ServiceStatus::kOk:
          ++tally.ok;
          if (resp->cache_hit) ++tally.hits;
          break;
        case ServiceStatus::kThrottled:
          ++tally.throttled;
          break;
        case ServiceStatus::kRejected:
          ++tally.rejected;
          break;
        case ServiceStatus::kTimeout:
          ++tally.timeouts;
          break;
        case ServiceStatus::kError:
          ++tally.status_errors;
          std::cerr << "starring-load: " << spec.name << ": request "
                    << resp->id << ": " << resp->reason << "\n";
          break;
      }
    }
  });

  // Open loop: walk the arrival schedule by wall clock; a request whose
  // arrival time has already passed (daemon backpressure never reaches
  // here, but scheduling jitter can) is sent immediately.
  loadgen::ArrivalClock clock(spec, cfg.seed + idx);
  loadgen::ZipfSampler zipf(spec.classes, spec.zipf);
  std::mt19937_64 pick(cfg.seed * 1315423911ULL + idx);
  const auto start = std::chrono::steady_clock::now();
  const auto window = std::chrono::milliseconds(cfg.duration_ms);
  std::uint64_t seq = 0;
  while (true) {
    const auto offset = clock.next();
    if (offset >= window) break;
    std::this_thread::sleep_until(start + offset);
    const std::size_t cls =
        spec.pattern == loadgen::Pattern::kScan
            ? spec.classes + seq  // fresh class every time: pure scan
            : zipf.sample(static_cast<double>(pick()) /
                          static_cast<double>(UINT64_MAX));
    const std::uint64_t id = (static_cast<std::uint64_t>(idx) << 32) | seq;
    ServiceRequest req = synth_request(spec, cfg.seed, cls, id);
    if (cfg.trace) {
      // Client-minted trace id under its own namespace; the open-loop
      // id (tenant << 32 | seq) is unique across the run and < 2^48.
      req.trace_id = (std::uint64_t{0xFFFE} << 48) + id + 1;
      req.parent_span_id = 0;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      sends.emplace(id, std::chrono::steady_clock::now());
    }
    if (!write_request(out, req)) {
      ++tally.transport_errors;
      break;
    }
    out.flush();
    ++tally.sent;
    ++seq;
  }
  // Half-close: the daemon's connection loop sees EOF, waits for its
  // outstanding responses, writes them, and closes — our reader then
  // sees EOF with every in-flight answer consumed.
  ::shutdown(fd, SHUT_WR);
  reader.join();
  {
    const std::lock_guard<std::mutex> lock(mu);
    tally.unanswered = sends.size();
  }
}

/// Scrape STATS on a fresh connection; returns the promtext or nullopt.
std::optional<std::string> scrape_one(const net::Endpoint& ep) {
  net::ClientConn conn(ep, /*read_timeout_ms=*/-1, /*write_timeout_ms=*/-1);
  if (!conn.send({.kind = RequestKind::kStats})) return std::nullopt;
  return read_stats(conn.in);
}

/// Scrape every distinct endpoint, concatenating the expositions under
/// `# endpoint` separator comments.  nullopt only when every scrape
/// failed (a dead shard in a multi-endpoint run is survivable).
std::optional<std::string> scrape_stats(const LoadConfig& cfg) {
  std::string combined;
  bool any = false;
  for (std::size_t i = 0; i < cfg.connect.size(); ++i) {
    const net::Endpoint& ep = cfg.connect[i];
    // Skip duplicates (several tenants may share one endpoint).
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j)
      seen = cfg.connect[j].host == ep.host &&
             cfg.connect[j].port == ep.port;
    if (seen) continue;
    const auto body = scrape_one(ep);
    if (!body) {
      std::cerr << "starring-load: STATS scrape of " << net::to_string(ep)
                << " failed\n";
      continue;
    }
    combined += "# endpoint " + net::to_string(ep) + "\n";
    combined += *body;
    any = true;
  }
  if (!any) return std::nullopt;
  return combined;
}

/// Prometheus-mangled per-tenant histogram family name for `tenant`.
std::string tenant_histogram_metric(const std::string& tenant) {
  std::string mangled;
  for (const char c : tenant)
    mangled += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return "starring_svc_tenant_" + mangled + "_latency_seconds";
}

int load_main(int argc, char** argv) {
  const auto cfg = parse_args(argc, argv);
  if (!cfg) return usage(argv[0]);
  std::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<obs::BenchRecorder> rec;
  if (!cfg->bench_artifact.empty())
    rec = std::make_unique<obs::BenchRecorder>(cfg->bench_artifact);

  std::vector<TenantTally> tallies(cfg->tenants.size());
  std::vector<std::thread> workers;
  workers.reserve(cfg->tenants.size());
  for (std::size_t i = 0; i < cfg->tenants.size(); ++i)
    workers.emplace_back([&, i] {
      run_tenant(*cfg, cfg->tenants[i], i, tallies[i]);
    });
  for (std::thread& w : workers) w.join();

  int rc = 0;
  std::uint64_t total_sent = 0;
  std::uint64_t total_ok = 0;
  std::uint64_t total_throttled = 0;
  std::uint64_t total_timeouts = 0;
  std::uint64_t total_errors = 0;
  std::uint64_t total_unanswered = 0;
  std::vector<std::int64_t> p99s;  // per asserted tenant, us
  std::int64_t p99_max_us = 0;
  for (std::size_t i = 0; i < cfg->tenants.size(); ++i) {
    TenantTally& t = tallies[i];
    const std::int64_t p50 = percentile_us(t.latencies_us, 0.50);
    const std::int64_t p95 = percentile_us(t.latencies_us, 0.95);
    const std::int64_t p99 = percentile_us(t.latencies_us, 0.99);
    std::printf(
        "starring-load: %-12s sent %6llu  ok %6llu  throttled %5llu  "
        "rejected %4llu  timeout %4llu  error %3llu  hits %6llu  "
        "p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
        cfg->tenants[i].name.c_str(),
        static_cast<unsigned long long>(t.sent),
        static_cast<unsigned long long>(t.ok),
        static_cast<unsigned long long>(t.throttled),
        static_cast<unsigned long long>(t.rejected),
        static_cast<unsigned long long>(t.timeouts),
        static_cast<unsigned long long>(t.status_errors),
        static_cast<unsigned long long>(t.hits),
        static_cast<double>(p50) / 1e3, static_cast<double>(p95) / 1e3,
        static_cast<double>(p99) / 1e3);
    total_sent += t.sent;
    total_ok += t.ok;
    total_throttled += t.throttled;
    total_timeouts += t.timeouts;
    total_errors += t.status_errors + t.transport_errors;
    total_unanswered += t.unanswered;
    p99_max_us = std::max(p99_max_us, p99);
    // Fairness is only judged over tenants with a statistically
    // meaningful sample; a tenant throttled down to a handful of
    // answers has no p99 worth comparing.
    if (t.latencies_us.size() >= 20) p99s.push_back(p99);
  }

  double p99_ratio = 1.0;
  if (p99s.size() >= 2) {
    const auto [lo, hi] = std::minmax_element(p99s.begin(), p99s.end());
    if (*lo > 0)
      p99_ratio = static_cast<double>(*hi) / static_cast<double>(*lo);
  }
  if (cfg->assert_p99_ratio > 0) {
    if (p99s.size() < 2) {
      std::cerr << "starring-load: --assert-p99-ratio needs >= 2 tenants "
                   "with >= 20 answered requests\n";
      rc = 1;
    } else if (p99_ratio > cfg->assert_p99_ratio) {
      std::cerr << "starring-load: p99 ratio " << p99_ratio
                << " exceeds bound " << cfg->assert_p99_ratio << "\n";
      rc = 1;
    } else {
      std::cout << "starring-load: p99 ratio " << p99_ratio
                << " within bound " << cfg->assert_p99_ratio << "\n";
    }
  }

  // Daemon-side view: scrape STATS for the cache counters and the
  // per-tenant histograms the Prometheus exposition folds.
  double hit_rate = -1.0;
  const auto stats = scrape_stats(*cfg);
  if (stats) {
    if (!cfg->stats_out.empty()) {
      std::ofstream f(cfg->stats_out, std::ios::trunc);
      f << *stats;
      if (!f) {
        std::cerr << "starring-load: cannot write " << cfg->stats_out
                  << "\n";
        rc = 1;
      }
    }
    // Sum the cache counters across every scraped endpoint.  A daemon
    // exposes svc.cache_*; the proxy exposes cluster.cache_* instead
    // (hits as observed through routing), so fall back per endpoint.
    double hits_sum = 0.0, misses_sum = 0.0;
    bool have_cache = false;
    std::size_t pos = 0;
    while (pos < stats->size()) {
      std::size_t next = stats->find("# endpoint ", pos + 1);
      if (next == std::string::npos) next = stats->size();
      const std::string section = stats->substr(pos, next - pos);
      auto hits = loadgen::parse_scalar(section, "starring_svc_cache_hits");
      auto misses =
          loadgen::parse_scalar(section, "starring_svc_cache_misses");
      if (!hits || !misses) {
        hits = loadgen::parse_scalar(section, "starring_cluster_cache_hits");
        misses =
            loadgen::parse_scalar(section, "starring_cluster_cache_misses");
      }
      if (hits && misses) {
        hits_sum += *hits;
        misses_sum += *misses;
        have_cache = true;
      }
      pos = next;
    }
    if (have_cache && hits_sum + misses_sum > 0)
      hit_rate = hits_sum / (hits_sum + misses_sum);
    std::printf("starring-load: daemon cache hit rate %.3f\n", hit_rate);
    for (const TenantSpec& spec : cfg->tenants) {
      const auto h = obs::parse_histogram(
          *stats, tenant_histogram_metric(spec.name));
      if (h && h->count > 0)
        std::printf(
            "starring-load: %-12s daemon p99 %.3f ms (%lld samples)\n",
            spec.name.c_str(),
            obs::histogram_quantile(*h, 0.99) * 1e3,
            static_cast<long long>(h->count));
    }
  } else {
    std::cerr << "starring-load: STATS scrape failed\n";
    rc = 1;
  }
  if (cfg->min_hit_rate >= 0) {
    if (hit_rate < cfg->min_hit_rate) {
      std::cerr << "starring-load: hit rate " << hit_rate
                << " below bound " << cfg->min_hit_rate << "\n";
      rc = 1;
    } else {
      std::cout << "starring-load: hit rate " << hit_rate
                << " within bound " << cfg->min_hit_rate << "\n";
    }
  }

  if (total_unanswered > 0) {
    std::cerr << "starring-load: " << total_unanswered
              << " requests never answered\n";
    rc = 1;
  }
  if (total_errors > 0) rc = 1;
  std::printf(
      "starring-load: total sent %llu ok %llu throttled %llu timeouts "
      "%llu errors %llu\n",
      static_cast<unsigned long long>(total_sent),
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(total_throttled),
      static_cast<unsigned long long>(total_timeouts),
      static_cast<unsigned long long>(total_errors));

  if (rec) {
    int nmax = 0;
    for (const TenantSpec& spec : cfg->tenants)
      nmax = std::max(nmax, spec.nmax);
    rec->note_n(nmax);
    rec->add_counter("load.sent", static_cast<double>(total_sent));
    rec->add_counter("load.ok", static_cast<double>(total_ok));
    rec->add_counter("load.throttled",
                     static_cast<double>(total_throttled));
    rec->add_counter("load.timeouts", static_cast<double>(total_timeouts));
    rec->add_counter("load.errors", static_cast<double>(total_errors));
    rec->add_counter("load.unanswered",
                     static_cast<double>(total_unanswered));
    rec->add_counter("load.p99_ratio_x100", std::round(p99_ratio * 100));
    rec->add_counter("load.p99_us_max", static_cast<double>(p99_max_us));
    rec->add_counter("load.hit_rate_x1000",
                     hit_rate < 0 ? -1 : std::round(hit_rate * 1000));
  }
  return rc;
}

}  // namespace
}  // namespace starring

int main(int argc, char** argv) {
  return starring::load_main(argc, argv);
}
