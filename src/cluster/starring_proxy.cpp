// starring-proxy — thin cluster router in front of sharded starringd.
//
// Speaks starring-request/starring-response v1 on both sides.  For
// each embedding request it canonicalizes the fault set
// (service/canonical), hashes the canonical class key onto the shard
// map's consistent-hash ring, and forwards to the owner shard.  On
// connect/write/read failure — or a `status timeout` from the shard —
// it retries the next replica; per-shard circuit breakers
// (cluster/router.hpp) keep a dead shard from taxing every request
// with a connect timeout, while still leaving it in every candidate
// list as a last resort, so a request always reaches some terminal
// status.  Exhausting every shard answers `status rejected` with
// reason "no live shard" — terminal and retryable, like a queue-full
// bounce.
//
// Read-through replication: the proxy counts ok-served canonical
// classes; when one crosses --seed-threshold it pushes the canonical
// ring to the class's replica shards as `starring-seed v1` records
// (EmbedService::seed_cache on the far side), so a failover lands on a
// warm cache instead of recomputing.
//
// Membership is live (cluster/membership.hpp): the proxy participates
// in the SWIM gossip as an observer (shard -1), bootstrapped either
// from a static map file (--shard-map) or by joining a running member
// (--join HOST:PORT).  Each confirmed join/leave/death swaps the
// router's map snapshot atomically (RCU-style shared_ptr, epoch
// bumped); in-flight retries re-fetch candidates per attempt so they
// re-route against the new owner set; and on ownership growth the
// seeder drives seed handoff — hot classes' canonical rings are pushed
// to their new replicas before those take cold misses.
//
// A health poller sends the bare `HEALTH` line to every shard each
// --health-interval-ms: a dead shard trips its breaker between data-
// path requests, a recovered one closes it, and an identity mismatch
// (a process serving under the wrong shard id) is logged and counted.
// Per-shard polls are jittered (±25% plus a per-shard initial stagger)
// so N shards never land on one tick and a slow shard cannot delay
// detection of the others in its round.
//
// The proxy serves clients through the one server loop it shares with
// starringd (cluster/server.hpp), with its own command table: STATS is
// its cluster.* registry (including per-shard latency histograms
// cluster.shard.<id>.latency.*), FAIL arms local failpoints
// (proxy.forward fails a request before any forward, proxy.upstream
// fails individual forward attempts — the chaos tests storm these),
// and HEALTH reports shard -1 at the map's epoch.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "cluster/server.hpp"
#include "cluster/shard_map.hpp"
#include "obs/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "service/canonical.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring::cluster {
namespace {

// Set by SIGINT/SIGTERM or a LEAVE command.  A lock-free atomic is
// safe to store from a signal handler.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
void on_signal(int) { g_stop.store(true); }

struct ProxyConfig {
  std::string shard_map_path;
  /// Non-empty: bootstrap by joining this cluster member instead of
  /// reading a map file (mutually exclusive with --shard-map).
  std::string join_addr;
  /// SWIM tuning (--gossip-interval-ms, --suspicion-timeout-ms).
  MembershipOptions membership;
  int listen_port = -1;
  /// --max-conns, --write-timeout-ms, --drain-timeout-ms.
  AcceptorOptions server{"starring-proxy"};
  /// Budget for one upstream exchange (connect + request + response);
  /// a shard that cannot answer within it counts as failed and the
  /// request fails over.
  int upstream_timeout_ms = 10000;
  /// Health-poll period; 0 disables the poller (data-path failures
  /// still drive the breakers).
  int health_interval_ms = 1000;
  /// Ok-served responses of one canonical class before its ring is
  /// pushed to the replicas; 0 disables replication seeding.
  int seed_threshold = 3;
  /// Slow-request flight recorder: a request whose proxy-side handling
  /// exceeds this retains its span tree, attempt list, and status in a
  /// bounded ring (0 = recorder off).
  int slow_ms = 0;
  /// Slow requests retained before the oldest is dropped.
  int slow_keep = 32;
  std::string bench_artifact;
  /// Non-empty: enable tracing and, on clean exit, pull TRACE from
  /// every shard and write one merged Chrome/Perfetto file here.
  std::string trace_out;
};

/// Per-client-thread pool of upstream connections, one per shard,
/// created lazily and dropped on any failure (the next attempt
/// reconnects).  Not shared across client threads: each gets its own
/// upstream sockets, so responses never interleave.  The resolving map
/// is passed per call — membership swaps maps under the pool, and a
/// shard that rejoined at a new endpoint must get a fresh dial, not a
/// socket to its previous life.
class UpstreamPool {
 public:
  UpstreamPool(int upstream_timeout_ms, int write_timeout_ms)
      : read_timeout_ms_(upstream_timeout_ms),
        write_timeout_ms_(write_timeout_ms) {}

  /// `created`, when non-null, reports whether this call had to dial a
  /// fresh connection (the tracer gives only those an upstream_connect
  /// span).
  net::ClientConn* get(const ShardMap& map, int shard_id,
                       bool* created = nullptr) {
    if (created != nullptr) *created = false;
    const ShardInfo* info = map.find(shard_id);
    if (info == nullptr) return nullptr;
    const std::string ep = net::to_string(info->endpoint);
    const auto it = conns_.find(shard_id);
    if (it != conns_.end()) {
      if (it->second.endpoint == ep) return it->second.conn.get();
      conns_.erase(it);  // shard id reborn elsewhere
    }
    auto conn = std::make_unique<net::ClientConn>(
        info->endpoint, read_timeout_ms_, write_timeout_ms_);
    if (!conn->ok()) return nullptr;
    net::ClientConn* raw = conn.get();
    conns_[shard_id] = Slot{ep, std::move(conn)};
    if (created != nullptr) *created = true;
    return raw;
  }

  void drop(int shard_id) { conns_.erase(shard_id); }

 private:
  struct Slot {
    std::string endpoint;
    std::unique_ptr<net::ClientConn> conn;
  };

  int read_timeout_ms_;
  int write_timeout_ms_;
  std::map<int, Slot> conns_;
};

/// Read-through replication: count ok-served canonical classes and,
/// at the threshold, push the canonical ring to the class's replicas
/// from a background worker (a slow replica must not add latency to
/// the data path).
///
/// Hot classes keep their canonical ring after seeding, which is what
/// makes *seed handoff* possible: when membership adds a shard (join,
/// or a rejoin at a new endpoint) the proxy calls handle_map_change()
/// and every hot class whose replica set now includes a shard it never
/// seeded gets a warm-up push — the new owner serves hits instead of
/// taking cold misses.  FAILPOINT("cluster.handoff") suppresses the
/// handoff pass (chaos drills verify the cold-path fallback).
class Seeder {
 public:
  Seeder(ShardRouter& router, int threshold, int upstream_timeout_ms)
      : router_(router),
        threshold_(threshold),
        timeout_ms_(upstream_timeout_ms),
        worker_([this] { run(); }) {}

  ~Seeder() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  /// Note an ok response for canonical class `key` served by
  /// `served_by`.  `ring` is in the *canonical* frame (the caller
  /// relabels before handing it over).  Crossing the threshold retains
  /// the ring and enqueues one seed push to every replica except the
  /// server.
  void note_ok(const std::string& key, int n, std::vector<VertexId> ring,
               const std::vector<int>& replica_ids, int served_by) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      // Bounded tracker: losing the state on overflow only delays
      // re-seeding, which is idempotent anyway.
      if (classes_.size() > kMaxTracked) classes_.clear();
      Hot& h = classes_[key];
      if (h.seeded) return;
      if (++h.count < threshold_) return;
      h.seeded = true;
      h.n = n;
      h.ring = std::move(ring);
      h.seeded_to.push_back(served_by);  // the server has it by definition
      std::vector<int> targets;
      for (const int id : replica_ids)
        if (id != served_by) {
          targets.push_back(id);
          h.seeded_to.push_back(id);
        }
      if (targets.empty()) return;
      jobs_.push_back(Job{key, n, h.ring, std::move(targets)});
    }
    cv_.notify_one();
  }

  /// Seed handoff: the map changed (join/rejoin) — push every hot
  /// class's retained ring to replicas it has never been seeded to.
  void handle_map_change(const std::shared_ptr<const ShardMap>& map) {
    if (FAILPOINT("cluster.handoff")) {
      obs::counter("cluster.handoffs_suppressed").add();
      return;
    }
    std::size_t queued = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (auto& [key, h] : classes_) {
        if (!h.seeded) continue;
        std::vector<int> targets;
        for (const int id : map->replicas(key)) {
          if (std::find(h.seeded_to.begin(), h.seeded_to.end(), id) ==
              h.seeded_to.end()) {
            targets.push_back(id);
            h.seeded_to.push_back(id);
          }
        }
        if (targets.empty()) continue;
        queued += targets.size();
        jobs_.push_back(Job{key, h.n, h.ring, std::move(targets)});
      }
    }
    if (queued > 0) {
      obs::counter("cluster.handoff_seeds").add(
          static_cast<std::int64_t>(queued));
      cv_.notify_one();
    }
  }

  /// A shard died: its cache is gone, so hot classes must qualify for
  /// re-seeding when that id returns.
  void forget_shard(int shard_id) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, h] : classes_) {
      auto& v = h.seeded_to;
      v.erase(std::remove(v.begin(), v.end(), shard_id), v.end());
    }
  }

  /// Drop the seeded-marker for every class (a killed shard's replicas
  /// may themselves have died; tests re-arm via this).  Cheap, so the
  /// health poller calls it whenever a shard transitions to dead.
  void forget_seeded() {
    const std::lock_guard<std::mutex> lock(mu_);
    classes_.clear();
  }

 private:
  /// One canonical class's seeding state.  The ring is retained after
  /// the threshold so handoff never needs the data path.
  struct Hot {
    int n = 0;
    int count = 0;
    bool seeded = false;
    std::vector<VertexId> ring;
    std::vector<int> seeded_to;
  };
  struct Job {
    std::string key;
    int n;
    std::vector<VertexId> ring;
    std::vector<int> targets;
  };

  void run() {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop_ and drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      for (const int id : job.targets) push(job, id);
    }
  }

  void push(const Job& job, int shard_id) {
    // Seeding is background work with no originating request context:
    // each push roots its own little trace.  The target endpoint is
    // resolved against the map *now*, not at enqueue time — the shard
    // may have moved while the job sat in the queue.
    const obs::Scope scope("proxy.seed");
    const std::shared_ptr<const ShardMap> map = router_.map();
    const ShardInfo* info = map->find(shard_id);
    if (info == nullptr) return;
    net::ClientConn conn(info->endpoint, timeout_ms_, timeout_ms_);
    std::string line;
    std::string word;
    if (conn.send({.kind = RequestKind::kSeed,
                   .n = job.n,
                   .seed_key = job.key,
                   .seed_ring = job.ring}) &&
        (conn.in >> word >> line) && word == "SEED" && line == "ok") {
      obs::counter("cluster.seeds_sent").add();
    } else {
      obs::counter("cluster.seed_failures").add();
    }
  }

  static constexpr std::size_t kMaxTracked = 8192;

  ShardRouter& router_;
  const int threshold_;
  const int timeout_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Hot> classes_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread worker_;
};

/// What one forward_embed call did, for the slow-request recorder: the
/// proxy-side trace id (0 while tracing is off) and every shard
/// attempt with its outcome.
struct ForwardAttempt {
  int shard = -1;
  const char* outcome = "";
  double ms = 0.0;
};
struct ForwardReport {
  std::uint64_t trace_id = 0;
  std::vector<ForwardAttempt> attempts;
};

/// Slow-request flight recorder: a bounded ring of the last K requests
/// that exceeded --slow-ms, each retaining its terminal status, shard
/// attempt list, and (when tracing is on) the proxy-side span tree of
/// its trace.  Answered by the bare SLOW command and dumped to stderr
/// at clean exit.  Capturing a record drains the span rings — fine,
/// because only past-threshold requests pay it.
class SlowRecorder {
 public:
  SlowRecorder(int threshold_ms, std::size_t keep)
      : threshold_ms_(threshold_ms),
        keep_(std::max<std::size_t>(1, keep)),
        count_(obs::counter("proxy.slow_requests")) {}

  int threshold_ms() const { return threshold_ms_; }

  void note(const ServiceRequest& req, const ServiceResponse& resp,
            const ForwardReport& rep, double total_ms) {
    count_.add();
    Record r;
    r.request_id = req.id;
    r.tenant = req.tenant.empty() ? "default" : req.tenant;
    r.trace_id = rep.trace_id;
    r.total_ms = total_ms;
    r.status = status_name(resp.status);
    r.attempts = rep.attempts;
    if (rep.trace_id != 0) {
      for (obs::trace::SpanRecord& s : obs::trace::collect())
        if (s.trace_id == rep.trace_id) r.spans.push_back(std::move(s));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(r));
    if (ring_.size() > keep_) ring_.pop_front();
  }

  /// Text report, oldest record first (the SLOW answer rides the
  /// starring-stats framing; the exit dump goes to stderr verbatim).
  std::string render() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "# slow requests: " << ring_.size() << " retained (threshold "
       << threshold_ms_ << " ms, keep " << keep_ << ")\n";
    for (const Record& r : ring_) {
      os << "slow id=" << r.request_id << " tenant=" << r.tenant
         << " status=" << r.status << " ms=" << r.total_ms << " trace="
         << r.trace_id << " attempts=" << r.attempts.size() << "\n";
      for (const ForwardAttempt& a : r.attempts)
        os << "  attempt shard=" << a.shard << " outcome=" << a.outcome
           << " ms=" << a.ms << "\n";
      for (const obs::trace::SpanRecord& s : r.spans)
        os << "  span " << s.name << " id=" << s.span_id << " parent="
           << s.parent_id << " dur_us=" << s.dur_ns / 1000 << "\n";
    }
    return os.str();
  }

 private:
  struct Record {
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::string tenant;
    double total_ms = 0.0;
    const char* status = "";
    std::vector<ForwardAttempt> attempts;
    std::vector<obs::trace::SpanRecord> spans;
  };

  const int threshold_ms_;
  const std::size_t keep_;
  obs::Counter& count_;
  mutable std::mutex mu_;
  std::deque<Record> ring_;
};

struct ProxyCtx {
  ProxyConfig cfg;
  /// The proxy's SWIM participant (observer, shard -1).  Owns the
  /// authoritative membership view; the router holds its latest map.
  std::unique_ptr<MembershipAgent> agent;
  ShardRouter router;
  std::unique_ptr<Seeder> seeder;  // null: seeding disabled
  std::unique_ptr<SlowRecorder> slow;  // null: recorder disabled
  /// Embedding forwards currently in flight (the proxy HEALTH probe
  /// reports this as `inflight`).
  std::atomic<std::int64_t> inflight{0};

  ProxyCtx(ProxyConfig cfg_, std::unique_ptr<MembershipAgent> agent_)
      : cfg(std::move(cfg_)),
        agent(std::move(agent_)),
        router(agent->map()) {
    // Seeding no longer requires replication > 1 at boot: a cluster
    // that bootstraps single-node grows its replica sets live, and the
    // handoff path needs the hot-class rings retained from day one.
    if (cfg.seed_threshold > 0)
      seeder = std::make_unique<Seeder>(router, cfg.seed_threshold,
                                        cfg.upstream_timeout_ms);
    if (cfg.slow_ms > 0)
      slow = std::make_unique<SlowRecorder>(
          cfg.slow_ms, static_cast<std::size_t>(cfg.slow_keep));
  }

  /// Per-shard forward latency histogram, created on first use —
  /// membership means the shard set is not known at startup.  The
  /// generic histogram folding in obs/prometheus renders these as
  /// cluster.shard.<id>.latency quantiles for free.
  obs::LatencyHistogram& latency_for(int shard_id) {
    const std::lock_guard<std::mutex> lock(latency_mu_);
    auto& slot = latency_[shard_id];
    if (!slot)
      slot = std::make_unique<obs::LatencyHistogram>(
          "cluster.shard." + std::to_string(shard_id) + ".latency");
    return *slot;
  }

 private:
  std::mutex latency_mu_;
  std::map<int, std::unique_ptr<obs::LatencyHistogram>> latency_;
};

/// Forward one embedding request, failing over across the candidate
/// list.  Always returns a terminal response.  `rep`, when non-null,
/// receives the trace id and attempt list for the slow-request
/// recorder.
ServiceResponse forward_embed(const ServiceRequest& req, ProxyCtx& ctx,
                              UpstreamPool& pool,
                              ForwardReport* rep = nullptr) {
  obs::counter("cluster.requests").add();
  ctx.inflight.fetch_add(1, std::memory_order_relaxed);
  struct InflightGuard {
    std::atomic<std::int64_t>& n;
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard{ctx.inflight};
  // The request's proxy-side root span.  The explicit parent adopts a
  // client-originated wire trace (starring-cli --trace); invalid when
  // the request carried none, which roots a fresh trace here.
  const obs::Scope root("proxy.request",
                        obs::trace::Context{req.trace_id, req.parent_span_id});
  if (rep != nullptr) rep->trace_id = root.context().trace_id;
  CanonicalForm canon;
  {
    const obs::Scope scope("proxy.canonicalize");
    canon = canonicalize(req.n, req.faults);
  }
  std::vector<int> cands;
  {
    const obs::Scope scope("proxy.route");
    cands = ctx.router.candidates(canon.key, ShardRouter::Clock::now());
  }

  const auto fail_with = [&](ServiceStatus status, const char* reason) {
    return ServiceResponse{.id = req.id, .status = status, .reason = reason};
  };

  if (FAILPOINT("proxy.forward"))
    return fail_with(ServiceStatus::kError, "failpoint proxy.forward");

  std::optional<ServiceResponse> shard_timeout;
  std::vector<int> tried;
  while (true) {
    // After the first attempt, re-fetch candidates: membership may
    // have swapped the map mid-request, and the retry must route
    // against the new owner set (a confirmed-dead shard is gone, a
    // freshly joined one is eligible).  `tried` keeps the walk finite
    // and ensures no shard eats two attempts of the same request.
    if (!tried.empty())
      cands = ctx.router.candidates(canon.key, ShardRouter::Clock::now());
    int sid = -1;
    for (const int c : cands)
      if (std::find(tried.begin(), tried.end(), c) == tried.end()) {
        sid = c;
        break;
      }
    if (sid < 0) break;
    tried.push_back(sid);
    const std::shared_ptr<const ShardMap> map = ctx.router.map();
    const auto now = ShardRouter::Clock::now();
    const auto att_t0 = std::chrono::steady_clock::now();
    const auto note_attempt = [&](const char* outcome) {
      if (rep != nullptr)
        rep->attempts.push_back(ForwardAttempt{
            sid, outcome,
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - att_t0)
                .count()});
    };
    // Marker span for an abandoned attempt, parented under the request
    // root, so a failover request's tree shows each bounce explicitly.
    const auto note_failover = [&] {
      if (root.context().valid())
        obs::trace::emit("proxy.failover", root.context().trace_id,
                         obs::trace::new_span_id(),
                         root.context().span_id, att_t0,
                         std::chrono::steady_clock::now());
    };
    // One span per attempt; the serving shard rides in the name
    // (SpanRecord carries no args).  snprintf, not std::string: the
    // disabled path must stay allocation-free.
    char fname[24];
    std::snprintf(fname, sizeof fname, "proxy.forward.s%d", sid);
    const obs::Scope fspan(fname, root.context());
    if (FAILPOINT("proxy.upstream")) {
      // Chaos stands in for a dead upstream: same bookkeeping, same
      // failover path.
      ctx.router.record_failure(sid, now);
      obs::counter("cluster.upstream_failures").add();
      note_attempt("failpoint");
      note_failover();
      continue;
    }
    bool fresh = false;
    const auto conn_t0 = std::chrono::steady_clock::now();
    net::ClientConn* conn = pool.get(*map, sid, &fresh);
    if (fresh && fspan.context().valid())
      obs::trace::emit("proxy.upstream_connect",
                       fspan.context().trace_id, obs::trace::new_span_id(),
                       fspan.context().span_id, conn_t0,
                       std::chrono::steady_clock::now());
    if (conn == nullptr) {
      ctx.router.record_failure(sid, now);
      obs::counter("cluster.connect_failures").add();
      note_attempt("connect_fail");
      note_failover();
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    // Forward with this attempt's span as the parent, so the shard's
    // svc.request root stitches under proxy.forward.s<id> in the
    // merged trace.  Without a proxy-side span the client's context
    // (if any) passes through untouched.
    ServiceRequest fwd_storage;
    const ServiceRequest* fwd = &req;
    if (fspan.context().valid()) {
      fwd_storage = req;
      fwd_storage.trace_id = fspan.context().trace_id;
      fwd_storage.parent_span_id = fspan.context().span_id;
      fwd = &fwd_storage;
    }
    if (!conn->send(*fwd)) {
      pool.drop(sid);
      ctx.router.record_failure(sid, ShardRouter::Clock::now());
      obs::counter("cluster.write_failures").add();
      note_attempt("write_fail");
      note_failover();
      continue;
    }
    std::string err;
    const auto resp = read_response(conn->in, &err);
    if (!resp || resp->id != req.id) {
      // EOF, a wedged shard (bounded read expired), a malformed frame,
      // or a response for someone else: the connection is unusable.
      pool.drop(sid);
      ctx.router.record_failure(sid, ShardRouter::Clock::now());
      obs::counter("cluster.read_failures").add();
      note_attempt("read_fail");
      note_failover();
      continue;
    }
    ctx.router.record_success(sid);
    ctx.latency_for(sid).record(std::chrono::steady_clock::now() - t0);
    obs::counter("cluster.forwarded").add();

    if (resp->status == ServiceStatus::kTimeout) {
      // The shard is alive but missed the request's budget; a replica
      // with the class cached may still make it.  Keep the timeout as
      // the answer of last resort.
      obs::counter("cluster.upstream_timeouts").add();
      note_attempt("timeout");
      note_failover();
      shard_timeout = *resp;
      continue;
    }
    if (tried.size() > 1) obs::counter("cluster.failover").add();
    if (resp->status == ServiceStatus::kOk) {
      note_attempt(resp->cache_hit ? "ok_hit" : "ok_miss");
      obs::counter(resp->cache_hit ? "cluster.cache_hits"
                                   : "cluster.cache_misses")
          .add();
      if (ctx.seeder) {
        // The response ring is in the caller's frame; replicas cache
        // by canonical key, so hand the seeder the canonical-frame
        // ring (exactly inverse to the shard's finish() relabel).
        ctx.seeder->note_ok(canon.key, req.n,
                            relabel_ring(resp->ring, canon.to_canonical,
                                         req.n),
                            map->replicas(canon.key), sid);
      }
    } else {
      note_attempt(status_name(resp->status));
    }
    return *resp;
  }
  if (shard_timeout) return *shard_timeout;
  obs::counter("cluster.no_shard").add();
  return fail_with(ServiceStatus::kRejected, "no live shard");
}

// --- client side ------------------------------------------------------

/// Embed hook for one client connection: requests are forwarded
/// serially (the proxy holds no embedding state, so per-request
/// concurrency belongs to the client opening more connections, which is
/// what starring-load does — one per tenant).
void serve_client(TcpConn& conn, ProxyCtx& ctx, const CommandTable& table) {
  UpstreamPool pool(ctx.cfg.upstream_timeout_ms,
                    ctx.cfg.server.write_timeout_ms);
  serve_requests(
      conn.in, conn.out, conn.out_mu, conn.dead, table,
      [&](ServiceRequest& req) {
        ForwardReport frep;
        const auto req_t0 = std::chrono::steady_clock::now();
        const ServiceResponse resp =
            forward_embed(req, ctx, pool, ctx.slow ? &frep : nullptr);
        if (ctx.slow) {
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - req_t0)
                                .count();
          if (ms >= static_cast<double>(ctx.cfg.slow_ms))
            ctx.slow->note(req, resp, frep, ms);
        }
        conn.send(resp);
      });
}

/// The proxy's answers to the out-of-band commands.
CommandTable proxy_commands(ProxyCtx& ctx) {
  CommandTable table;
  table.health = [&ctx] {
    const std::int64_t inflight = ctx.inflight.load(std::memory_order_relaxed);
    return HealthInfo{
        .shard_id = -1,  // a router, not a shard
        .epoch = ctx.router.map()->epoch(),
        .cache_hits = static_cast<std::uint64_t>(
            obs::counter("cluster.cache_hits").value()),
        .cache_misses = static_cast<std::uint64_t>(
            obs::counter("cluster.cache_misses").value()),
        .inflight = inflight > 0 ? static_cast<std::uint64_t>(inflight) : 0};
  };
  table.trace_process = "proxy";
  table.slow_report = [&ctx] {
    return ctx.slow ? ctx.slow->render()
                    : std::string("# slow-request recorder off\n");
  };
  table.agent = ctx.agent.get();
  table.stop = &g_stop;
  return table;
}

/// Poll every shard's HEALTH: trip the breaker of a shard that cannot
/// answer, close the breaker of one that recovered, and flag identity
/// mismatches (a process serving under the wrong shard id).
///
/// Polls are per-shard deadlines, not one synchronized sweep.  The old
/// loop probed every shard back-to-back each period: N shards meant a
/// thundering herd of simultaneous HEALTH probes (every proxy landing
/// on every shard on the same tick), and one wedged shard's probe
/// budget delayed detection of all the others in its round.  Each
/// shard now gets an initial stagger uniform over one period, then
/// successive polls at interval * (0.75 + 0.5 * uniform) — the herd
/// decoheres and stays decohered.
void health_loop(ProxyCtx& ctx, std::atomic<bool>& stop) {
  using Clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::milliseconds(ctx.cfg.health_interval_ms);
  std::mt19937 rng(std::random_device{}());
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::map<int, bool> was_alive;
  std::map<int, Clock::time_point> next_poll;
  while (!stop.load(std::memory_order_relaxed)) {
    // Live map: shards join and leave under the poller's feet.
    const std::shared_ptr<const ShardMap> map = ctx.router.map();
    const auto now = Clock::now();
    for (const ShardInfo& s : map->shards()) {
      if (stop.load(std::memory_order_relaxed)) break;
      const auto slot = next_poll.find(s.id);
      if (slot == next_poll.end()) {
        // First sight: stagger the initial poll across one period.
        next_poll[s.id] =
            now + std::chrono::duration_cast<Clock::duration>(
                      interval * uni(rng));
        continue;
      }
      if (now < slot->second) continue;
      slot->second = now + std::chrono::duration_cast<Clock::duration>(
                               interval * (0.75 + 0.5 * uni(rng)));
      bool alive = false;
      // Health probes get a short budget of their own: a wedged shard
      // should trip its breaker well within the poll period.
      const int budget = std::max(100, ctx.cfg.health_interval_ms / 2);
      net::ClientConn conn(s.endpoint, budget, budget);
      if (conn.send({.kind = RequestKind::kHealth})) {
        if (const auto h = read_health(conn.in)) {
          // Identity check is id-only: under live membership, epochs
          // are eventually consistent across members, so a transient
          // epoch skew is convergence, not misconfiguration.
          if (h->shard_id != s.id) {
            obs::counter("cluster.health_mismatch").add();
            std::cerr << "starring-proxy: shard " << s.id << " at "
                      << net::to_string(s.endpoint)
                      << " reports identity " << h->shard_id << "\n";
          } else {
            alive = true;
            // Fold the shard's self-reported liveness stats into the
            // proxy's own registry so one STATS scrape of the proxy
            // shows the whole cluster.  record_max keeps the gauges
            // monotone across polls (uptime only moves forward; the
            // inflight gauge is a high-water mark).
            const std::string pfx = "cluster.shard." + std::to_string(s.id);
            obs::counter(pfx + ".uptime_ms")
                .record_max(static_cast<double>(h->uptime_ms));
            obs::counter(pfx + ".inflight_max")
                .record_max(static_cast<double>(h->inflight));
          }
        }
      }
      const auto prev = was_alive.find(s.id);
      if (alive) {
        ctx.router.record_success(s.id);
        if (prev == was_alive.end() || !prev->second)
          std::cerr << "starring-proxy: shard " << s.id << " healthy\n";
      } else {
        obs::counter("cluster.health_failures").add();
        ctx.router.record_failure(s.id, ShardRouter::Clock::now());
        if (ctx.seeder && (prev == was_alive.end() || prev->second)) {
          // A shard just died: previously pushed seeds may have lived
          // there, so let hot classes qualify for seeding again.
          ctx.seeder->forget_seeded();
        }
      }
      was_alive[s.id] = alive;
    }
    // Forget departed shards so a rejoining id starts fresh.
    for (auto it = next_poll.begin(); it != next_poll.end();) {
      if (map->find(it->first) == nullptr) {
        was_alive.erase(it->first);
        it = next_poll.erase(it);
      } else {
        ++it;
      }
    }
    // Short tick: deadlines do the pacing, the tick just bounds how
    // stale a deadline check can be (and keeps shutdown prompt).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// --- main -------------------------------------------------------------

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--shard-map FILE | --join HOST:PORT) --listen PORT "
               "[options]"
            << R"(
  --shard-map FILE       static bootstrap membership (starring-shard-map v1)
  --join HOST:PORT       join a running cluster member instead of a map
                         file (gossip adopts its snapshot)
  --gossip-interval-ms N SWIM probe period (default 250)
  --suspicion-timeout-ms N  silence before a suspect is declared dead
                         (default 1500)
  --listen PORT          serve TCP on 127.0.0.1:PORT (0 = kernel-assigned,
                         printed on stderr)
  --max-conns N          concurrent client connections (default 64)
  --write-timeout-ms N   evict a client that cannot drain its socket
                         (default 5000)
  --upstream-timeout-ms N  budget for one shard exchange; overrun
                         counts as failure and fails over (default 10000)
  --health-interval-ms N HEALTH poll period, 0 = off (default 1000)
  --seed-threshold N     ok responses of a class before its ring is
                         replicated, 0 = off (default 3)
  --drain-timeout-ms N   abort if shutdown drain exceeds N ms
                         (default 10000)
  --bench-artifact S     write BENCH_<S>.json on clean drain
  --slow-ms N            record requests slower than N ms in the
                         flight recorder, 0 = off (default 0)
  --slow-keep K          flight-recorder capacity (default 32)
  --trace-out FILE       enable tracing; on clean exit pull every
                         live shard's spans and write one merged
                         Chrome/Perfetto trace to FILE
)";
  return 2;
}

std::optional<ProxyConfig> parse_args(int argc, char** argv) {
  ProxyConfig cfg;
  bool saw_listen = false;
  const auto num = [&](int* i) { return int_arg(argc, argv, i); };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    long v = 0;
    if (a == "--shard-map" && i + 1 < argc) {
      cfg.shard_map_path = argv[++i];
    } else if (a == "--join" && i + 1 < argc) {
      cfg.join_addr = argv[++i];
    } else if (a == "--gossip-interval-ms" && (v = num(&i)) > 0) {
      cfg.membership.probe_interval_ms = static_cast<int>(v);
    } else if (a == "--suspicion-timeout-ms" && (v = num(&i)) > 0) {
      cfg.membership.suspicion_timeout_ms = static_cast<int>(v);
    } else if (a == "--listen" && (v = num(&i)) >= 0 && v < 65536) {
      cfg.listen_port = static_cast<int>(v);
      saw_listen = true;
    } else if (a == "--max-conns" && (v = num(&i)) > 0) {
      cfg.server.max_conns = static_cast<int>(v);
    } else if (a == "--write-timeout-ms" && (v = num(&i)) > 0) {
      cfg.server.write_timeout_ms = static_cast<int>(v);
    } else if (a == "--upstream-timeout-ms" && (v = num(&i)) > 0) {
      cfg.upstream_timeout_ms = static_cast<int>(v);
    } else if (a == "--health-interval-ms" && (v = num(&i)) >= 0) {
      cfg.health_interval_ms = static_cast<int>(v);
    } else if (a == "--seed-threshold" && (v = num(&i)) >= 0) {
      cfg.seed_threshold = static_cast<int>(v);
    } else if (a == "--drain-timeout-ms" && (v = num(&i)) > 0) {
      cfg.server.drain_timeout_ms = static_cast<int>(v);
    } else if (a == "--bench-artifact" && i + 1 < argc) {
      cfg.bench_artifact = argv[++i];
    } else if (a == "--slow-ms" && (v = num(&i)) >= 0) {
      cfg.slow_ms = static_cast<int>(v);
    } else if (a == "--slow-keep" && (v = num(&i)) > 0) {
      cfg.slow_keep = static_cast<int>(v);
    } else if (a == "--trace-out" && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  // Exactly one bootstrap source: a static map file or a seed member.
  if (cfg.shard_map_path.empty() == cfg.join_addr.empty() || !saw_listen)
    return std::nullopt;
  return cfg;
}

int proxy_main(int argc, char** argv) {
  auto cfg = parse_args(argc, argv);
  if (!cfg) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  obs::set_enabled(true);
  if (!cfg->trace_out.empty()) obs::trace::set_enabled(true);

  std::unique_ptr<obs::BenchRecorder> rec;
  if (!cfg->bench_artifact.empty())
    rec = std::make_unique<obs::BenchRecorder>(cfg->bench_artifact);

  // Listen before bootstrapping membership: the gossip identity is the
  // actual listen endpoint (PORT may be kernel-assigned).
  std::string err;
  int actual_port = 0;
  const int listen_fd =
      net::listen_loopback(cfg->listen_port, 16, &actual_port, &err);
  if (listen_fd < 0) {
    std::cerr << "starring-proxy: " << err << "\n";
    return 1;
  }
  std::cerr << "starring-proxy: listening on 127.0.0.1:" << actual_port
            << "\n";

  std::optional<ShardMap> map;
  if (!cfg->shard_map_path.empty() &&
      !(map = ShardMap::load(cfg->shard_map_path, &err))) {
    std::cerr << "starring-proxy: bad shard map: " << err << "\n";
    ::close(listen_fd);
    return 1;
  }
  // Observer identity (shard -1): routes, never owns ring points.
  auto agent = bootstrap_agent(-1, actual_port, cfg->membership,
                               map ? &*map : nullptr, cfg->join_addr);
  if (!agent) {
    std::cerr << "starring-proxy: failed to join cluster via "
              << cfg->join_addr << "\n";
    ::close(listen_fd);
    return 1;
  }
  {
    const std::shared_ptr<const ShardMap> boot = agent->map();
    std::cerr << "starring-proxy: " << boot->shards().size()
              << " shards, replication " << boot->replication()
              << ", epoch " << boot->epoch() << "\n";
  }

  ProxyCtx ctx(*cfg, std::move(agent));
  ctx.agent->on_map_change([&ctx](std::shared_ptr<const ShardMap> m,
                                  const MembershipEvent& ev) {
    // RCU swap: in-flight requests keep their snapshot, the next
    // candidates() fetch routes against the new owner set.
    ctx.router.swap_map(m);
    std::cerr << "starring-proxy: membership "
              << membership_event_name(ev.kind) << " shard "
              << ev.member.shard_id << " (" << ev.member.addr
              << "), epoch " << ev.map_epoch << "\n";
    if (ctx.seeder) {
      if (ev.kind == MembershipEvent::Kind::kDead)
        ctx.seeder->forget_shard(ev.member.shard_id);
      else
        ctx.seeder->handle_map_change(m);  // join/rejoin: seed handoff
    }
  });
  ctx.agent->start();

  std::atomic<bool> health_stop{false};
  std::thread health;
  if (cfg->health_interval_ms > 0)
    health = std::thread([&] { health_loop(ctx, health_stop); });

  std::optional<net::DrainGuard> drain_guard;
  const CommandTable table = proxy_commands(ctx);
  run_acceptor(
      listen_fd, cfg->server, g_stop,
      [&](TcpConn& conn) { serve_client(conn, ctx, table); },
      [&] { drain_guard.emplace(cfg->server.drain_timeout_ms); });
  if (health.joinable()) {
    health_stop.store(true, std::memory_order_relaxed);
    health.join();
  }
  // Depart politely even on SIGTERM: peers see `left` instead of
  // burning a suspicion window on us.  Idempotent if a LEAVE command
  // already ran.  Stop before the seeder drains so no more handoff
  // callbacks land in a dying seeder.
  ctx.agent->leave();
  ctx.agent->stop();
  ctx.seeder.reset();  // flush pending seed pushes

  if (!cfg->trace_out.empty()) {
    // Cluster-wide collection: the proxy's own spans plus a TRACE pull
    // from every shard still alive, merged onto one timeline.  Shards
    // must outlive the proxy for this to see their spans — the drill
    // stops the proxy first.
    std::vector<TraceDump> dumps;
    dumps.push_back(local_trace("proxy"));
    const std::shared_ptr<const ShardMap> final_map = ctx.router.map();
    for (const ShardInfo& s : final_map->shards()) {
      net::ClientConn conn(s.endpoint, cfg->upstream_timeout_ms,
                           cfg->server.write_timeout_ms);
      if (!conn.send({.kind = RequestKind::kTrace})) {
        std::cerr << "starring-proxy: trace pull: shard " << s.id
                  << " unreachable, spans lost\n";
        continue;
      }
      std::string trace_err;
      if (auto d = read_trace(conn.in, &trace_err)) {
        dumps.push_back(std::move(*d));
      } else {
        std::cerr << "starring-proxy: trace pull: shard " << s.id << ": "
                  << (trace_err.empty() ? "closed early" : trace_err)
                  << "\n";
      }
    }
    std::ofstream tf(cfg->trace_out);
    if (tf && write_merged_chrome_trace(tf, dumps)) {
      std::size_t total = 0;
      for (const TraceDump& d : dumps) total += d.spans.size();
      std::cerr << "starring-proxy: wrote " << total << " spans from "
                << dumps.size() << " processes to " << cfg->trace_out
                << "\n";
    } else {
      std::cerr << "starring-proxy: failed to write " << cfg->trace_out
                << "\n";
    }
  }
  if (ctx.slow) std::cerr << ctx.slow->render();

  if (rec) rec->add_hit_rate("cluster");
  return 0;
}

}  // namespace
}  // namespace starring::cluster

int main(int argc, char** argv) {
  return starring::cluster::proxy_main(argc, argv);
}
