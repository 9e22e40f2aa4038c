// starringd — long-running embedding daemon.
//
// Speaks the versioned starring-request/starring-response line protocol
// (util/io.hpp) over stdio (default) or TCP (--listen PORT, loopback).
// Requests flow through the EmbedService: bounded admission queue,
// same-dimension batching on the persistent thread pool, and the
// symmetry-canonical result cache.
//
// Shutdown/drain semantics:
//   stdio: EOF on stdin stops admission; every queued request is still
//          answered, stdout is flushed, exit 0.  A SIGINT/SIGTERM drain
//          is bounded by --drain-timeout-ms (overrun aborts the
//          process: a hung embedding must not wedge shutdown forever).
//          A failed answer write drains the same way, exit 1.
//   TCP:   SIGINT/SIGTERM stops accepting, half-closes live
//          connections (their reads see EOF), drains under the same
//          bound, escalating laggards to a hard close.
// Backpressure: the stdio reader blocks on a full queue, which stops
// consuming the pipe — the OS pipe buffer then backpressures the
// client.  TCP connections instead get `status rejected` responses so
// remote callers can retry elsewhere.
//
// Slow-client defense (TCP): connection sockets are non-blocking and
// every write polls POLLOUT with a --write-timeout-ms budget; a client
// that cannot drain its socket is evicted (svc.evicted_conns) rather
// than allowed to pin a response callback forever.  A hard write error
// (EPIPE, reset) marks the connection dead (io.write_errors) and stops
// servicing it.  --max-conns caps concurrent connections; excess
// accepts are answered `status rejected` and closed.
//
// Both transports read and write through util/net's fd streambufs —
// stdio over STDIN_FILENO/STDOUT_FILENO rather than std::cin/std::cout.
// A record is formatted into the output buffer and leaves at its flush:
// one write(2) per answer, unless a ring outgrows the 64 KiB buffer.
//
// All three serving paths (stdio, TCP, and starring-proxy's) run the
// one server loop in cluster/server.hpp; this file supplies the shard's
// command table and the per-transport embed hooks.
//
// Cluster membership (TCP + --shard-id only): the daemon runs a SWIM
// gossip agent (cluster/membership.hpp) when started with --shard-map
// (static bootstrap: every listed member is known at launch),
// --bootstrap (first member of a brand-new cluster), or --join
// HOST:PORT (dial a running member and adopt its snapshot — live
// scale-out, no restart of the world).  It answers starring-gossip v1
// probes inline, serves MEMBERS, and honors a graceful LEAVE: announce
// departure to every peer, stop accepting, drain in-flight work, exit
// 0 — peers see `left`, not a suspicion window, so no failover fires.
//
// With --bench-artifact NAME the daemon enables the metrics layer and
// writes BENCH_<NAME>.json (svc.* counters, latency histogram, cache
// hit rate) to $STARRING_BENCH_DIR on clean drain.
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/server.hpp"
#include "cluster/shard_map.hpp"
#include "core/oracle_store.hpp"
#include "obs/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring {
namespace {

// Set by SIGINT/SIGTERM, a LEAVE command or a dead stdout.  A
// lock-free atomic is safe to store from a signal handler.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
void on_signal(int) { g_stop.store(true); }

// SIGUSR1 asks for a flight-recorder dump without stopping the daemon;
// a watcher thread does the actual file I/O (signal-safe handlers
// cannot).
volatile std::sig_atomic_t g_dump = 0;
void on_dump_signal(int) { g_dump = 1; }

struct DaemonConfig {
  ServiceOptions svc;
  int listen_port = -1;  // -1: stdio mode; 0: kernel-assigned
  /// Cluster identity (--shard-id/--shard-map); -1 when standalone.
  /// Reported by the HEALTH probe so the proxy can detect a process
  /// serving under the wrong identity or an out-of-date map.
  int shard_id = -1;
  std::uint64_t map_epoch = 0;
  /// Non-empty: join a running cluster through this member (live
  /// scale-out).  Mutually exclusive with --shard-map/--bootstrap.
  std::string join_addr;
  /// First member of a brand-new cluster (no map file, no seed).
  bool bootstrap = false;
  /// SWIM tuning (--gossip-interval-ms, --suspicion-timeout-ms).
  cluster::MembershipOptions membership;
  /// Static map retained from --shard-map validation; seeds the gossip
  /// agent's initial member set.
  std::shared_ptr<cluster::ShardMap> static_map;
  /// --max-conns, --write-timeout-ms, --drain-timeout-ms (the last
  /// also bounds a signal-initiated stdio drain).
  cluster::AcceptorOptions server{"starringd"};
  std::string bench_artifact;
  std::string trace_out;  // non-empty: tracing on, dump here
  /// Tracing on without a local dump file: spans stay in the flight
  /// recorder for a remote TRACE pull (the proxy's merged export).
  bool trace = false;
  std::string oracle_snapshot;  // non-empty: warm-start from this file
  std::string shard_map;  // non-empty: validate --shard-id against it
  /// Canonical rings from a loaded snapshot, handed to the EmbedService
  /// (which is constructed inside serve_*) and consumed there.
  std::vector<OracleSnapshot::CanonicalRing> seed_rings;
};

/// Move the snapshot's canonical rings into the service's result cache.
void seed_service(EmbedService& svc, DaemonConfig& cfg) {
  for (OracleSnapshot::CanonicalRing& r : cfg.seed_rings)
    svc.seed_cache(r.key, std::move(r.ring));
  cfg.seed_rings.clear();
  cfg.seed_rings.shrink_to_fit();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [options]" << R"(
  --queue-depth N      admission queue bound (default 256)
  --batch-max N        max requests per batch (default 16)
  --cache-capacity N   canonical embeddings kept (default 4096)
  --verify-on-hit      re-verify relabeled cache hits
  --tenant-rate R      per-tenant token-bucket refill, req/s
                       (default 0 = quotas off)
  --tenant-burst B     token-bucket depth (default: max(1, R))
  --drr-quantum N      requests per tenant per DRR visit at
                       batch formation (default 1)
  --threads N          embedding worker threads (0 = cores)
  --listen PORT        serve TCP on 127.0.0.1:PORT (default: stdio;
                       0 = kernel-assigned, printed on stderr)
  --shard-id N         cluster identity, reported by HEALTH
  --shard-map FILE     validate --shard-id against this map, seed
                       gossip membership from it (static bootstrap)
  --bootstrap          start a brand-new cluster with self as the
                       only member (TCP + --shard-id)
  --join HOST:PORT     join a running cluster through this member
                       (TCP + --shard-id; adopts its snapshot)
  --gossip-interval-ms N  SWIM probe period (default 250)
  --suspicion-timeout-ms N  silence before a suspect is declared
                       dead (default 1500)
  --max-conns N        concurrent TCP connections; excess accepts
                       are answered `status rejected` (default 64)
  --write-timeout-ms N evict a TCP client that cannot drain its
                       socket within N ms (default 5000)
  --drain-timeout-ms N abort if shutdown drain exceeds N ms
                       (default 10000)
  --oracle-snapshot F  warm-start: seed the path-oracle memo and
                       canonical cache from this snapshot file
                       (written by `starring-cli warm`); a bad
                       snapshot is rejected and computation
                       proceeds cold
  --bench-artifact S   write BENCH_<S>.json on clean drain
  --trace-out FILE     enable tracing; dump Chrome trace JSON
                       on clean drain and on SIGUSR1
  --trace              enable tracing without a local dump; spans
                       are served to the TRACE command (the
                       proxy's merged cluster export)
)";
  return 2;
}

std::optional<DaemonConfig> parse_args(int argc, char** argv) {
  DaemonConfig cfg;
  cfg.svc.embed.prewarm_oracle = true;  // a daemon amortizes the warmup
  const auto num = [&](int* i) { return int_arg(argc, argv, i); };
  const auto real = [&](int* i) { return double_arg(argc, argv, i); };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    long v = 0;
    double d = 0;
    if (a == "--queue-depth" && (v = num(&i)) > 0) {
      cfg.svc.queue_depth = static_cast<std::size_t>(v);
    } else if (a == "--batch-max" && (v = num(&i)) > 0) {
      cfg.svc.batch_max = static_cast<std::size_t>(v);
    } else if (a == "--cache-capacity" && (v = num(&i)) > 0) {
      cfg.svc.cache_capacity = static_cast<std::size_t>(v);
    } else if (a == "--verify-on-hit") {
      cfg.svc.verify_on_hit = true;
    } else if (a == "--tenant-rate" && (d = real(&i)) >= 0) {
      cfg.svc.tenant_rate = d;
    } else if (a == "--tenant-burst" && (d = real(&i)) >= 0) {
      cfg.svc.tenant_burst = d;
    } else if (a == "--drr-quantum" && (v = num(&i)) > 0) {
      cfg.svc.drr_quantum = static_cast<std::size_t>(v);
    } else if (a == "--threads" && (v = num(&i)) >= 0) {
      cfg.svc.embed.num_threads = static_cast<unsigned>(v);
    } else if (a == "--listen" && (v = num(&i)) >= 0 && v < 65536) {
      cfg.listen_port = static_cast<int>(v);
    } else if (a == "--shard-id" && (v = num(&i)) >= 0) {
      cfg.shard_id = static_cast<int>(v);
    } else if (a == "--shard-map" && i + 1 < argc) {
      cfg.shard_map = argv[++i];
    } else if (a == "--join" && i + 1 < argc) {
      cfg.join_addr = argv[++i];
    } else if (a == "--bootstrap") {
      cfg.bootstrap = true;
    } else if (a == "--gossip-interval-ms" && (v = num(&i)) > 0) {
      cfg.membership.probe_interval_ms = static_cast<int>(v);
    } else if (a == "--suspicion-timeout-ms" && (v = num(&i)) > 0) {
      cfg.membership.suspicion_timeout_ms = static_cast<int>(v);
    } else if (a == "--max-conns" && (v = num(&i)) > 0) {
      cfg.server.max_conns = static_cast<int>(v);
    } else if (a == "--write-timeout-ms" && (v = num(&i)) > 0) {
      cfg.server.write_timeout_ms = static_cast<int>(v);
    } else if (a == "--drain-timeout-ms" && (v = num(&i)) > 0) {
      cfg.server.drain_timeout_ms = static_cast<int>(v);
    } else if (a == "--oracle-snapshot" && i + 1 < argc) {
      cfg.oracle_snapshot = argv[++i];
    } else if (a == "--bench-artifact" && i + 1 < argc) {
      cfg.bench_artifact = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else if (a == "--trace") {
      cfg.trace = true;
    } else {
      return std::nullopt;
    }
  }
  // Dynamic membership needs a dialable identity: TCP and a shard id.
  const int sources = (!cfg.shard_map.empty() ? 1 : 0) +
                      (!cfg.join_addr.empty() ? 1 : 0) +
                      (cfg.bootstrap ? 1 : 0);
  if (sources > 1) return std::nullopt;
  if ((!cfg.join_addr.empty() || cfg.bootstrap) &&
      (cfg.listen_port < 0 || cfg.shard_id < 0))
    return std::nullopt;
  return cfg;
}

/// The shard's answers to the out-of-band commands.  `agent` is null
/// outside member mode (stdio, or TCP without membership).
cluster::CommandTable shard_commands(EmbedService& svc,
                                     const DaemonConfig& cfg,
                                     cluster::MembershipAgent* agent) {
  cluster::CommandTable table;
  table.health = [&svc, &cfg, agent] {
    return HealthInfo{
        .shard_id = cfg.shard_id,
        // Live membership owns the epoch once an agent runs; the static
        // number is only the pre-membership fallback.
        .epoch = agent != nullptr ? agent->epoch() : cfg.map_epoch,
        .cache_entries = svc.cache_size(),
        .cache_hits = static_cast<std::uint64_t>(
            obs::counter("svc.cache_hits").value()),
        .cache_misses = static_cast<std::uint64_t>(
            obs::counter("svc.cache_misses").value()),
        .inflight = svc.inflight()};
  };
  table.trace_process = cfg.shard_id >= 0
                            ? "shard-" + std::to_string(cfg.shard_id)
                            : "starringd";
  table.seed = [&svc](const std::string& key, std::vector<VertexId> ring) {
    svc.seed_cache(key, std::move(ring));
  };
  table.agent = agent;
  table.static_epoch = cfg.map_epoch;
  table.stop = &g_stop;
  return table;
}

// --- stdio transport --------------------------------------------------

int serve_stdio(DaemonConfig& cfg) {
  // Declared before the service: destroyed after it, so a signal-drain
  // bound armed below covers the scheduler join in ~EmbedService.
  std::optional<net::DrainGuard> drain_guard;
  EmbedService svc(cfg.svc);
  seed_service(svc, cfg);
  // The fd streambufs every transport uses, not std::cin/std::cout:
  // one buffered write(2) per record, and no cin-to-cout tie for the
  // reader's input sentry to flush while the writer thread formats.
  // A failed answer write ends stdio as it ends a TCP connection:
  // io.write_errors counts it, stdout is released (its reader sees
  // EOF), the reader stops at its next record, the queue drains into
  // nothing, and the exit code is 1.
  std::atomic<bool> dead{false};
  net::FdInBuf in_buf(STDIN_FILENO);
  net::FdOutBuf out_buf(STDOUT_FILENO, /*write_timeout_ms=*/-1, &dead);
  std::istream in(&in_buf);
  std::ostream out(&out_buf);
  std::mutex out_mu;
  std::thread writer([&] {
    while (auto resp = svc.next_response()) {
      const std::lock_guard<std::mutex> lock(out_mu);
      if (dead.load()) continue;
      if (!write_response(out, *resp)) {
        obs::counter("io.write_errors").add();
        out_buf.mark_dead();
      }
      out.flush();  // a failed write(2) counts and marks `dead` itself
      if (dead.load()) g_stop.store(true);
    }
  });

  // wait=true: a full queue stops the reader, and the pipe buffer
  // backpressures the writer on the other side.
  const bool clean = cluster::serve_requests(
      in, out, out_mu, g_stop, shard_commands(svc, cfg, nullptr),
      [&svc](ServiceRequest& req) { svc.submit(std::move(req)); });
  // A clean EOF drain is allowed to take as long as the queue needs;
  // a signal-initiated one is bounded.
  if (g_stop.load()) drain_guard.emplace(cfg.server.drain_timeout_ms);
  svc.drain();
  writer.join();
  if (dead.load())
    std::cerr << "starringd: an answer write failed; answers dropped\n";
  return clean && !dead.load() ? 0 : 1;
}

// --- TCP transport ----------------------------------------------------

/// Embed hook for one TCP connection: non-blocking admission with a
/// per-connection response callback.  Responses may complete out of
/// submission order across batches; ids correlate them.  Returns once
/// every admitted request has been answered (or dropped on a dead
/// connection).
void serve_connection(cluster::TcpConn& conn, EmbedService& svc,
                      const cluster::CommandTable& table) {
  std::condition_variable done_cv;
  std::mutex done_mu;
  int outstanding = 0;
  cluster::serve_requests(
      conn.in, conn.out, conn.out_mu, conn.dead, table,
      [&](ServiceRequest& req) {
        {
          const std::lock_guard<std::mutex> lock(done_mu);
          ++outstanding;
        }
        const std::uint64_t id = req.id;
        const bool admitted = svc.submit(
            std::move(req),
            [&](ServiceResponse resp) {
              conn.send(resp);
              // Notify under the lock: the connection thread may
              // destroy the cv the moment it observes outstanding == 0.
              const std::lock_guard<std::mutex> lock(done_mu);
              --outstanding;
              done_cv.notify_all();
            },
            /*wait=*/false);
        if (!admitted) {
          // Remote callers get an explicit bounce instead of a stalled
          // socket, so they can back off or retry elsewhere.
          conn.send({.id = id,
                     .status = ServiceStatus::kRejected,
                     .reason = "queue full"});
          const std::lock_guard<std::mutex> lock(done_mu);
          --outstanding;
        }
      });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return outstanding == 0; });
}

int serve_tcp(DaemonConfig& cfg) {
  int actual_port = 0;
  std::string err;
  const int listen_fd =
      net::listen_loopback(cfg.listen_port, 16, &actual_port, &err);
  if (listen_fd < 0) {
    std::cerr << "starringd: " << err << "\n";
    return 1;
  }
  // With --listen 0 this line is how a test or launch script learns
  // the kernel-assigned port — keep it parseable.
  std::cerr << "starringd: listening on 127.0.0.1:" << actual_port << "\n";

  // Membership agent (member mode only): identity is the endpoint
  // peers dial — the map's listed endpoint under static bootstrap, the
  // actual listen address under --bootstrap/--join.
  std::unique_ptr<cluster::MembershipAgent> agent;
  if (cfg.shard_id >= 0 &&
      (cfg.static_map || cfg.bootstrap || !cfg.join_addr.empty())) {
    agent = cluster::bootstrap_agent(cfg.shard_id, actual_port,
                                     cfg.membership, cfg.static_map.get(),
                                     cfg.join_addr);
    if (!agent) {
      std::cerr << "starringd: failed to join cluster via " << cfg.join_addr
                << "\n";
      ::close(listen_fd);
      return 1;
    }
    if (!cfg.join_addr.empty())
      std::cerr << "starringd: joined cluster via " << cfg.join_addr
                << ", epoch " << agent->epoch() << "\n";
    agent->start();
  }

  // Declared before the service: destroyed last, so the drain bound
  // armed at shutdown covers the scheduler join too.
  std::optional<net::DrainGuard> drain_guard;
  EmbedService svc(cfg.svc);
  seed_service(svc, cfg);
  const cluster::CommandTable table = shard_commands(svc, cfg, agent.get());
  cluster::run_acceptor(
      listen_fd, cfg.server, g_stop,
      [&](cluster::TcpConn& conn) { serve_connection(conn, svc, table); },
      [&] {
        // Depart politely on SIGTERM too (idempotent after a LEAVE
        // command): peers record `left` and drop us from their maps
        // without a suspicion window.  A SIGKILLed process never gets
        // here, which is exactly the failure-detection path.
        if (agent) {
          agent->leave();
          agent->stop();
        }
        drain_guard.emplace(cfg.server.drain_timeout_ms);
      });
  svc.drain();
  return 0;
}

int daemon_main(int argc, char** argv) {
  auto cfg = parse_args(argc, argv);
  if (!cfg) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!cfg->shard_map.empty()) {
    // The map is the deployment's source of truth: refusing to start
    // under an identity it does not list catches the classic copy-paste
    // launch error before the proxy ever sees a mismatched HEALTH.
    std::string err;
    const auto map = cluster::ShardMap::load(cfg->shard_map, &err);
    if (!map) {
      std::cerr << "starringd: bad shard map: " << err << "\n";
      return 1;
    }
    if (cfg->shard_id < 0 || map->find(cfg->shard_id) == nullptr) {
      std::cerr << "starringd: --shard-id "
                << (cfg->shard_id < 0 ? std::string("(unset)")
                                      : std::to_string(cfg->shard_id))
                << " not in " << cfg->shard_map << "\n";
      return 1;
    }
    cfg->map_epoch = map->epoch();
    // Retained: serve_tcp seeds the gossip agent's member set from it.
    cfg->static_map =
        std::make_shared<cluster::ShardMap>(std::move(*map));
  }

  // A live daemon is meant to be inspected (STATS), so the metrics
  // layer is always on here; batch tools still opt in via BenchRecorder
  // or STARRING_METRICS.
  obs::set_enabled(true);

  // Cluster members mint trace/span ids in a per-process namespace so
  // a merged trace file never sees two processes reuse an id (shard k
  // gets namespace k+1; the proxy keeps the default 0).
  if (cfg->shard_id >= 0)
    obs::trace::set_id_namespace(
        static_cast<std::uint32_t>(cfg->shard_id) + 1);

  if (!cfg->oracle_snapshot.empty()) {
    // Warm start.  A rejected snapshot is a logged degradation, not a
    // startup failure: the daemon serves identical answers either way,
    // just colder.  snapshot_load_ms is greppable — the CI cold-start
    // smoke compares it against the warm run's warm_compute_ms.
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    std::optional<OracleSnapshot> snap;
    {
      const obs::Scope scope("snapshot_load");
      snap = load_oracle_snapshot(cfg->oracle_snapshot, &err);
      if (snap) BlockOracle::import_memo(snap->memo);
    }
    if (snap) {
      cfg->seed_rings = std::move(snap->rings);
      const double load_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      std::fprintf(stderr,
                   "starringd: snapshot_load_ms %.3f (%zu canonical rings, "
                   "%zu memo entries) from %s\n",
                   load_ms, cfg->seed_rings.size(), snap->memo.size(),
                   cfg->oracle_snapshot.c_str());
    } else {
      std::cerr << "starringd: snapshot rejected (" << err
                << "); starting cold\n";
    }
  }

  std::unique_ptr<obs::BenchRecorder> rec;
  if (!cfg->bench_artifact.empty())
    rec = std::make_unique<obs::BenchRecorder>(cfg->bench_artifact);

  if (cfg->trace) obs::trace::set_enabled(true);
  std::thread dump_watcher;
  std::atomic<bool> dump_watcher_stop{false};
  if (!cfg->trace_out.empty()) {
    obs::trace::set_enabled(true);
    std::signal(SIGUSR1, on_dump_signal);
    const std::string path = cfg->trace_out;
    dump_watcher = std::thread([path, &dump_watcher_stop] {
      while (!dump_watcher_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (g_dump != 0) {
          g_dump = 0;
          if (!obs::trace::write_chrome_trace_file(path))
            std::cerr << "starringd: cannot write trace to " << path
                      << "\n";
          else
            std::cerr << "starringd: trace dumped to " << path << "\n";
        }
      }
    });
  }

  const int rc = cfg->listen_port >= 0 ? serve_tcp(*cfg) : serve_stdio(*cfg);

  if (!cfg->trace_out.empty()) {
    dump_watcher_stop.store(true, std::memory_order_relaxed);
    dump_watcher.join();
    if (!obs::trace::write_chrome_trace_file(cfg->trace_out)) {
      std::cerr << "starringd: cannot write trace to " << cfg->trace_out
                << "\n";
      return rc == 0 ? 1 : rc;
    }
  }

  if (rec) rec->add_hit_rate("svc");
  return rc;
}

}  // namespace
}  // namespace starring

int main(int argc, char** argv) {
  return starring::daemon_main(argc, argv);
}
