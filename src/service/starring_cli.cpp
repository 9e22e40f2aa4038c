// starring-cli — client and soak driver for starringd.
//
// Three modes over one deterministic workload generator (mixed
// dimensions, vertex-fault counts up to n-3, optionally a slice of
// mixed vertex+edge fault requests), so requests never need to be
// stored to be checked — any mode can regenerate request i from
// (seed, i):
//
//   generate  write the request stream to stdout (pipe into starringd)
//   check     read a response stream from stdin, regenerate the
//             matching requests, verify every ring independently
//   drive     spawn starringd itself (argv after `--`), stream the
//             workload through its stdio, verify responses in flight,
//             and require a clean drain (daemon exit 0); or --connect
//             PORT to drive a TCP daemon instead
//   warm      compute the workload's canonical embeddings in-process
//             (plus the fault-free oracle plane) and write them to an
//             oracle snapshot (--out) that `starringd
//             --oracle-snapshot` loads at startup, turning the
//             workload's cold start into cache hits
//
// drive is the soak harness CI uses: it exits non-zero on any
// embedding/verifier failure, on response/request count mismatch, on
// an unclean daemon exit, and (with --expect-hits) when the canonical
// cache never hit.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ext/stdio_filebuf.h>  // libstdc++; the repo targets the gcc toolchain
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/oracle_store.hpp"
#include "core/ring_embedder.hpp"
#include "core/verify.hpp"
#include "fault/generators.hpp"
#include "service/canonical.hpp"
#include "obs/prometheus.hpp"
#include "stargraph/star_graph.hpp"
#include "util/backoff.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring {
namespace {

/// Id-namespace base for client-minted trace ids (see
/// obs::trace::set_id_namespace): request i is traced as base + i + 1.
constexpr std::uint64_t kCliTraceNamespace = std::uint64_t{0xFFFF} << 48;

struct CliConfig {
  std::string mode;
  std::size_t count = 100;
  std::uint64_t seed = 1;
  int nmin = 5;
  int nmax = 7;
  bool verify = false;       // set the per-request verify flag
  int edge_pct = 10;         // % of requests that carry one edge fault
  std::int64_t deadline_ms = 0;  // per-request budget; 0 = none
  std::string tenant;        // tag every request with this tenant
  bool expect_hits = false;  // drive: fail if the cache never hit
  /// drive: stamp every request with a deterministic trace context so
  /// daemon/proxy spans parent under the client's trace, and (TCP)
  /// pull the peer's span dump at end of run for a per-request hop
  /// summary.
  bool trace = false;
  /// drive: TCP endpoint instead of spawning ("PORT" or "HOST:PORT" —
  /// a bare port keeps the historical loopback behaviour).
  std::optional<net::Endpoint> connect;
  int retry = 0;  // drive (TCP): reconnect rounds after rejections/drops
  std::string trace_out;     // drive (spawned): daemon trace JSON path
  std::string stats_out;     // drive: save the raw STATS promtext here
  std::string out;           // warm: snapshot output path
  std::vector<std::string> daemon_argv;  // drive: after `--`
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <generate|check|drive|warm> [options]\n"
      << "  --count N        requests in the workload (default 100)\n"
      << "  --seed S         workload seed (default 1)\n"
      << "  --nmin N         smallest dimension (default 5)\n"
      << "  --nmax N         largest dimension (default 7)\n"
      << "  --verify         set the verify flag on every request\n"
      << "  --edge-pct P     percent of requests with an edge fault "
         "(default 10)\n"
      << "  --deadline-ms N  completion budget per request; past-budget\n"
      << "                   requests are answered `status timeout`\n"
      << "  --tenant NAME    tag every request with this tenant (quota\n"
      << "                   and fair-scheduling principal)\n"
      << "  --expect-hits    drive: fail when cache hits == 0\n"
      << "  --trace          drive: stamp requests with trace ids; with\n"
      << "                   --connect, print a per-request hop summary\n"
      << "                   (forward attempts, serving shard) scraped\n"
      << "                   from the peer's span dump\n"
      << "  --connect HOST:PORT  drive: use a TCP daemon (or proxy) "
         "there;\n"
      << "                   a bare PORT means 127.0.0.1:PORT\n"
      << "  --retry N        drive (TCP): reconnect and resubmit "
         "unanswered\n"
      << "                   requests up to N times (exponential backoff "
         "+\n"
      << "                   jitter) after rejections or transport "
         "drops\n"
      << "  --trace-out F    drive: pass --trace-out F to the spawned "
         "daemon\n"
      << "  --stats-out F    drive: save the end-of-run STATS promtext\n"
      << "  --out F          warm: oracle snapshot output path\n"
      << "  -- CMD ARGS...   drive: daemon command line to spawn\n";
  return 2;
}

std::optional<CliConfig> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliConfig cfg;
  cfg.mode = argv[1];
  if (cfg.mode != "generate" && cfg.mode != "check" &&
      cfg.mode != "drive" && cfg.mode != "warm")
    return std::nullopt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto num = [&]() -> long {
      return i + 1 < argc ? std::atol(argv[++i]) : -1;
    };
    long v = 0;
    if (a == "--count" && (v = num()) > 0) {
      cfg.count = static_cast<std::size_t>(v);
    } else if (a == "--seed" && (v = num()) >= 0) {
      cfg.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--nmin" && (v = num()) >= 3) {
      cfg.nmin = static_cast<int>(v);
    } else if (a == "--nmax" && (v = num()) >= 3) {
      cfg.nmax = static_cast<int>(v);
    } else if (a == "--verify") {
      cfg.verify = true;
    } else if (a == "--edge-pct" && (v = num()) >= 0 && v <= 100) {
      cfg.edge_pct = static_cast<int>(v);
    } else if (a == "--deadline-ms" && (v = num()) > 0) {
      cfg.deadline_ms = v;
    } else if (a == "--tenant" && i + 1 < argc) {
      cfg.tenant = argv[++i];
    } else if (a == "--expect-hits") {
      cfg.expect_hits = true;
    } else if (a == "--trace") {
      cfg.trace = true;
    } else if (a == "--connect" && i + 1 < argc) {
      cfg.connect = net::parse_endpoint(argv[++i]);
      if (!cfg.connect) return std::nullopt;
    } else if (a == "--retry" && (v = num()) >= 0) {
      cfg.retry = static_cast<int>(v);
    } else if (a == "--trace-out" && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else if (a == "--stats-out" && i + 1 < argc) {
      cfg.stats_out = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      cfg.out = argv[++i];
    } else if (a == "--") {
      for (++i; i < argc; ++i) cfg.daemon_argv.emplace_back(argv[i]);
    } else {
      return std::nullopt;
    }
  }
  if (cfg.nmax < cfg.nmin || cfg.nmax > kMaxN) return std::nullopt;
  return cfg;
}

/// Request i of the workload, a pure function of (cfg, i).
ServiceRequest make_request(const CliConfig& cfg, std::size_t i) {
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + i);
  ServiceRequest req;
  req.id = i;
  req.n = cfg.nmin + static_cast<int>(
                         rng() % static_cast<std::uint64_t>(
                                     cfg.nmax - cfg.nmin + 1));
  req.verify = cfg.verify;
  const StarGraph g(req.n);
  const int budget = req.n - 3;  // the paper's guarantee regime
  const int nf =
      budget > 0 ? static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                budget + 1))
                 : 0;
  const std::uint64_t fault_seed = rng();
  const bool with_edge =
      nf >= 1 && static_cast<int>(rng() % 100) < cfg.edge_pct;
  req.faults = with_edge ? mixed_faults(g, nf - 1, 1, fault_seed)
                         : random_vertex_faults(g, nf, fault_seed);
  req.deadline_ms = cfg.deadline_ms;
  req.tenant = cfg.tenant;
  if (cfg.trace) {
    // Deterministic client-minted trace context: namespace 0xFFFF keeps
    // these ids clear of any server-minted id (shard k mints under
    // namespace k+1, the proxy under 0), and request i always gets the
    // same trace id, so a retried request continues its trace.
    req.trace_id = kCliTraceNamespace + i + 1;
    req.parent_span_id = 0;  // the first server-side span is the root
  }
  return req;
}

/// Independent check of one response against its regenerated request.
/// Returns an empty string on success, else the failure reason.
std::string check_response(const CliConfig& cfg, const ServiceResponse& resp,
                           std::size_t* hits, std::size_t* timeouts) {
  if (resp.id >= cfg.count) return "response id out of workload range";
  const ServiceRequest req = make_request(cfg, resp.id);
  if (resp.status == ServiceStatus::kRejected) return "rejected by daemon";
  if (resp.status == ServiceStatus::kThrottled)
    return "throttled by daemon";
  if (resp.status == ServiceStatus::kTimeout) {
    ++*timeouts;
    // A timeout is a legitimate terminal status when the workload arms
    // deadlines; without them the daemon invented one.
    return cfg.deadline_ms > 0 ? "" : "unexpected timeout status";
  }
  if (resp.status != ServiceStatus::kOk)
    return "status error: " + resp.reason;
  if (resp.cache_hit) ++*hits;
  const StarGraph g(req.n);
  const std::uint64_t want =
      expected_ring_length(req.n, req.faults.num_vertex_faults());
  if (resp.ring.size() != want)
    return "ring length " + std::to_string(resp.ring.size()) +
           " != " + std::to_string(want);
  const RingReport report = verify_healthy_ring(g, req.faults, resp.ring);
  if (!report.valid) return "verifier: " + report.error;
  return "";
}

int run_generate(const CliConfig& cfg) {
  for (std::size_t i = 0; i < cfg.count; ++i)
    if (!write_request(std::cout, make_request(cfg, i))) return 1;
  return 0;
}

/// Drain a response stream, verifying everything, until end of stream
/// or `max_count` responses were consumed (drive modes stop at the
/// workload size so a STATS exchange can follow on the same stream).
/// Returns the number of failed responses (parse errors count as one
/// failure and stop).
int consume_responses(const CliConfig& cfg, std::istream& in,
                      std::size_t* received, std::size_t* hits,
                      std::size_t* timeouts,
                      std::size_t max_count = SIZE_MAX) {
  int failures = 0;
  std::string err;
  while (*received < max_count) {
    const auto resp = read_response(in, &err);
    if (!resp) {
      if (!err.empty()) {
        std::cerr << "starring-cli: response parse error: " << err << "\n";
        ++failures;
      }
      break;
    }
    ++*received;
    const std::string why = check_response(cfg, *resp, hits, timeouts);
    if (!why.empty()) {
      std::cerr << "starring-cli: request " << resp->id << ": " << why
                << "\n";
      ++failures;
    }
  }
  return failures;
}

/// End-of-run STATS exchange on a drive stream: request the daemon's
/// live Prometheus snapshot, optionally save it, and print the
/// p50/p95/p99 submit-to-response latency summary from the
/// svc.latency.* histogram.  Call only after every workload response
/// was consumed, so the stats record is the next record on the stream.
/// Returns 1 on a failed exchange.
int fetch_and_report_stats(const CliConfig& cfg, std::ostream& out,
                           std::istream& in) {
  if (!write_request(out, {.kind = RequestKind::kStats})) {
    std::cerr << "starring-cli: cannot send STATS\n";
    return 1;
  }
  out.flush();
  std::string err;
  const auto body = read_stats(in, &err);
  if (!body) {
    std::cerr << "starring-cli: STATS reply: "
              << (err.empty() ? "unexpected end of stream" : err) << "\n";
    return 1;
  }
  if (!cfg.stats_out.empty()) {
    std::ofstream f(cfg.stats_out, std::ios::trunc);
    f << *body;
    if (!f) {
      std::cerr << "starring-cli: cannot write " << cfg.stats_out << "\n";
      return 1;
    }
  }
  const auto h = obs::parse_histogram(*body, "starring_svc_latency_seconds");
  if (!h || h->count == 0) {
    std::cout << "starring-cli: latency: no samples reported\n";
    return 0;
  }
  const auto ms = [&](double q) {
    return obs::histogram_quantile(*h, q) * 1e3;
  };
  std::printf(
      "starring-cli: latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
      "mean %.3f ms (%lld samples)\n",
      ms(0.5), ms(0.95), ms(0.99),
      h->sum_seconds / static_cast<double>(h->count) * 1e3,
      static_cast<long long>(h->count));
  return 0;
}

/// --trace hop summary (TCP drive): pull the peer's span dump with a
/// TRACE exchange and report, per traced request, how many forward
/// attempts the proxy made and which shard served it.  Attempts are
/// counted from `proxy.forward.s<id>` spans of the request's trace;
/// the serving shard is the latest-starting attempt's suffix.  Against
/// a bare shard (no proxy spans) the summary degenerates to a note.
/// Returns 1 on a failed exchange — an empty dump is not a failure.
int fetch_and_report_hops(std::ostream& out, std::istream& in) {
  if (!write_request(out, {.kind = RequestKind::kTrace})) {
    std::cerr << "starring-cli: cannot send TRACE\n";
    return 1;
  }
  out.flush();
  std::string err;
  const auto dump = read_trace(in, &err);
  if (!dump) {
    std::cerr << "starring-cli: TRACE reply: "
              << (err.empty() ? "unexpected end of stream" : err) << "\n";
    return 1;
  }
  struct Hop {
    int attempts = 0;
    int shard = -1;
    std::int64_t last_start = INT64_MIN;
  };
  std::map<std::uint64_t, Hop> hops;  // keyed by client trace id
  for (const obs::trace::SpanRecord& s : dump->spans) {
    constexpr std::string_view kPrefix = "proxy.forward.s";
    if (s.name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if ((s.trace_id >> 48) != (kCliTraceNamespace >> 48)) continue;
    const char* suffix = s.name.c_str() + kPrefix.size();
    char* end = nullptr;
    const long sid = std::strtol(suffix, &end, 10);
    if (end == suffix || *end != '\0') continue;
    Hop& h = hops[s.trace_id];
    ++h.attempts;
    if (s.start_ns >= h.last_start) {
      h.last_start = s.start_ns;
      h.shard = static_cast<int>(sid);
    }
  }
  if (hops.empty()) {
    std::cout << "starring-cli: hops: no proxy forward spans in the "
                 "peer's dump ("
              << dump->spans.size() << " spans, process "
              << (dump->process.empty() ? "?" : dump->process) << ")\n";
    return 0;
  }
  std::size_t failovers = 0;
  for (const auto& [tid, h] : hops) {
    if (h.attempts > 1) ++failovers;
    std::cout << "starring-cli: hops: request " << (tid - kCliTraceNamespace - 1)
              << " attempts=" << h.attempts << " shard=" << h.shard << "\n";
  }
  std::cout << "starring-cli: hops: " << hops.size() << " traced requests, "
            << failovers << " with failover (dump: " << dump->spans.size()
            << " spans, " << dump->dropped << " dropped)\n";
  return 0;
}

int report(const CliConfig& cfg, std::size_t received, std::size_t hits,
           std::size_t timeouts, int failures, double wall_s) {
  std::cout << "starring-cli: " << received << "/" << cfg.count
            << " responses, " << hits << " cache hits, " << timeouts
            << " timeouts, " << failures << " failures";
  if (wall_s > 0)
    std::cout << ", " << static_cast<double>(received) / wall_s
              << " req/s";
  std::cout << "\n";
  if (received != cfg.count) {
    std::cerr << "starring-cli: missing responses\n";
    return 1;
  }
  if (cfg.expect_hits && hits == 0) {
    std::cerr << "starring-cli: expected cache hits, saw none\n";
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int run_check(const CliConfig& cfg) {
  std::size_t received = 0;
  std::size_t hits = 0;
  std::size_t timeouts = 0;
  const int failures =
      consume_responses(cfg, std::cin, &received, &hits, &timeouts);
  return report(cfg, received, hits, timeouts, failures, 0.0);
}

int drive_spawned(const CliConfig& cfg) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    std::cerr << "starring-cli: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  // The spawned daemon owns the flight recorder; --trace-out is
  // forwarded so the dump lands where the daemon runs (here: locally).
  std::vector<std::string> child_argv = cfg.daemon_argv;
  if (!cfg.trace_out.empty()) {
    child_argv.push_back("--trace-out");
    child_argv.push_back(cfg.trace_out);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "starring-cli: fork: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.reserve(child_argv.size() + 1);
    for (const std::string& a : child_argv)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::cerr << "starring-cli: exec " << cfg.daemon_argv[0] << ": "
              << std::strerror(errno) << "\n";
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  const auto t0 = std::chrono::steady_clock::now();
  __gnu_cxx::stdio_filebuf<char> out_buf(to_child[1], std::ios::out);
  __gnu_cxx::stdio_filebuf<char> in_buf(from_child[0], std::ios::in);
  std::ostream out(&out_buf);
  std::istream in(&in_buf);

  std::thread sender([&] {
    for (std::size_t i = 0; i < cfg.count; ++i)
      if (!write_request(out, make_request(cfg, i))) break;
    out.flush();
  });

  std::size_t received = 0;
  std::size_t hits = 0;
  std::size_t timeouts = 0;
  int failures =
      consume_responses(cfg, in, &received, &hits, &timeouts, cfg.count);
  sender.join();
  // With every workload response consumed (and the sender done), the
  // request stream is quiet: a STATS exchange cannot interleave with
  // embedding responses.
  if (received == cfg.count) {
    failures += fetch_and_report_stats(cfg, out, in);
    if (cfg.trace) failures += fetch_and_report_hops(out, in);
  }
  out_buf.close();  // EOF on the daemon's stdin: begin graceful drain
  failures += consume_responses(cfg, in, &received, &hits, &timeouts);

  int status = 0;
  if (::waitpid(pid, &status, 0) < 0 ||
      !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::cerr << "starring-cli: daemon did not drain cleanly (status "
              << status << ")\n";
    ++failures;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report(cfg, received, hits, timeouts, failures, wall_s);
}

/// TCP drive with resilience: each round opens a connection, submits
/// every not-yet-answered request, and consumes one response per
/// submission.  `status rejected` answers (queue full, connection
/// limit) and transport drops leave their requests unanswered; with
/// --retry N up to N further rounds resubmit them after an exponential
/// backoff with jitter.  Responses are correlated by id, so duplicate
/// answers across rounds are counted once.
int drive_tcp(const CliConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<char> answered(cfg.count, 0);
  std::size_t done = 0;
  std::size_t hits = 0;
  std::size_t timeouts = 0;
  int failures = 0;
  std::mt19937_64 jitter(cfg.seed ^ 0x6a177e5b0ff5ULL);
  const int rounds = cfg.retry + 1;

  for (int round = 0; round < rounds && done < cfg.count; ++round) {
    const bool last_round = round + 1 == rounds;
    if (round > 0) {
      // Capped exponential (util/backoff.hpp): saturates at 5s instead
      // of doubling forever — the old shift was UB from --retry 64 up.
      const long long backoff_ms =
          retry_backoff_ms(round) + static_cast<long long>(jitter() % 50);
      std::cerr << "starring-cli: retry round " << round << " for "
                << (cfg.count - done) << " requests after " << backoff_ms
                << " ms\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    const int fd = net::connect_endpoint(*cfg.connect);
    if (fd < 0) {
      if (last_round) {
        std::cerr << "starring-cli: connect: " << std::strerror(errno)
                  << "\n";
        ++failures;
      }
      continue;
    }
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < cfg.count; ++i)
      if (!answered[i]) pending.push_back(i);

    __gnu_cxx::stdio_filebuf<char> out_buf(::dup(fd), std::ios::out);
    __gnu_cxx::stdio_filebuf<char> in_buf(fd, std::ios::in);
    std::ostream out(&out_buf);
    std::istream in(&in_buf);
    // Full-duplex: the sender streams while this thread reads, so a
    // full daemon queue cannot deadlock the client against a full
    // socket buffer.
    std::thread sender([&] {
      for (const std::size_t i : pending)
        if (!write_request(out, make_request(cfg, i))) break;
      out.flush();
    });

    std::size_t got = 0;
    std::string err;
    while (got < pending.size()) {
      const auto resp = read_response(in, &err);
      if (!resp) {
        if (!err.empty()) {
          std::cerr << "starring-cli: response parse error: " << err
                    << "\n";
          ++failures;
        } else if (last_round) {
          std::cerr << "starring-cli: connection dropped with "
                    << (pending.size() - got) << " responses missing\n";
        }
        break;
      }
      ++got;
      if ((resp->status == ServiceStatus::kRejected ||
           resp->status == ServiceStatus::kThrottled) &&
          !last_round)
        continue;  // stays unanswered; the next round resubmits it
      if (resp->id < cfg.count && !answered[resp->id]) {
        answered[resp->id] = 1;
        ++done;
      }
      const std::string why = check_response(cfg, *resp, &hits, &timeouts);
      if (!why.empty()) {
        std::cerr << "starring-cli: request " << resp->id << ": " << why
                  << "\n";
        ++failures;
      }
    }
    sender.join();
    if (done == cfg.count) {
      failures += fetch_and_report_stats(cfg, out, in);
      if (cfg.trace) failures += fetch_and_report_hops(out, in);
      out.flush();
      ::shutdown(fd, SHUT_WR);  // end-of-workload; the daemon drains
      while (read_response(in, &err)) {
        // Drain stragglers (duplicates of already-answered ids).
      }
    } else {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report(cfg, done, hits, timeouts, failures, wall_s);
}

/// Compute the workload's warm-start state and write it as an oracle
/// snapshot: the fault-free oracle plane, every faulty-block memo entry
/// the workload's embeddings touch, and one canonical-frame ring per
/// distinct canonical instance — exactly what the service's miss path
/// (compute_canonical) would cache, so a daemon seeded from the
/// snapshot answers the same workload from the cache alone.
int run_warm(const CliConfig& cfg) {
  if (cfg.out.empty()) {
    std::cerr << "starring-cli: warm needs --out PATH\n";
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  BlockOracle::prewarm_fault_free();

  OracleSnapshot snap;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < cfg.count; ++i) {
    const ServiceRequest req = make_request(cfg, i);
    const CanonicalForm canon = canonicalize(req.n, req.faults);
    if (!seen.insert(canon.key).second) continue;
    const StarGraph g(req.n);
    const auto res = embed_longest_ring(g, canon.faults);
    if (!res.has_value()) {
      std::cerr << "starring-cli: warm: embedding failed for request " << i
                << "\n";
      return 1;
    }
    snap.rings.push_back({req.n, canon.key, res->ring});
  }
  // The compute clock stops before serialization/IO: the CI cold-start
  // smoke compares this against the daemon's snapshot_load_ms, and the
  // claim under test is compute-vs-load, not compute-vs-(load+write).
  const double compute_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  snap.memo = BlockOracle::export_memo();

  std::string err;
  if (!write_oracle_snapshot(cfg.out, snap, &err)) {
    std::cerr << "starring-cli: warm: " << err << "\n";
    return 1;
  }
  std::printf(
      "starring-cli: warm_compute_ms %.3f (%zu canonical rings, %zu memo "
      "entries) -> %s\n",
      compute_ms, snap.rings.size(), snap.memo.size(), cfg.out.c_str());
  return 0;
}

int cli_main(int argc, char** argv) {
  const auto cfg = parse_args(argc, argv);
  if (!cfg) return usage(argv[0]);
  // A dead daemon must surface as a failed read/report, not kill the
  // CLI mid-write.
  std::signal(SIGPIPE, SIG_IGN);
  if (cfg->mode == "generate") return run_generate(*cfg);
  if (cfg->mode == "check") return run_check(*cfg);
  if (cfg->mode == "warm") return run_warm(*cfg);
  if (cfg->connect) {
    if (!cfg->trace_out.empty()) {
      std::cerr << "starring-cli: --trace-out needs a spawned daemon; "
                   "pass --trace-out to the remote starringd instead\n";
      return 2;
    }
    return drive_tcp(*cfg);
  }
  if (cfg->daemon_argv.empty()) {
    std::cerr << "starring-cli: drive needs --connect PORT or -- CMD...\n";
    return 2;
  }
  return drive_spawned(*cfg);
}

}  // namespace
}  // namespace starring

int main(int argc, char** argv) {
  return starring::cli_main(argc, argv);
}
