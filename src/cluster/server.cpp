#include "cluster/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace starring::cluster {

namespace {

// Process start, for HEALTH uptime_ms.  Static-initialized so the
// number covers the whole process, not just time since first probe.
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

}  // namespace

TraceDump local_trace(const std::string& process) {
  return TraceDump{.process = process,
                   .epoch_ns = obs::trace::epoch_ns(),
                   .dropped = obs::trace::stats().dropped,
                   .spans = obs::trace::collect()};
}

Answer answer_command(ServiceRequest& req, std::ostream& out,
                      std::mutex& out_mu, const CommandTable& table) {
  if (req.kind == RequestKind::kEmbed) return Answer::kEmbed;
  std::optional<MembershipAgent::Reply> gossip;
  if (req.kind == RequestKind::kGossip && table.agent != nullptr) {
    gossip = table.agent->handle(*req.gossip);
    if (FAILPOINT("gossip.ack")) {
      // Partition chaos, receiver half: the updates were merged but
      // the peer hears nothing back.  Closing (rather than going
      // quiet) fails its probe at once and pins no server thread.
      obs::counter("cluster.membership.acks_dropped").add();
      return Answer::kClose;
    }
  }
  const std::lock_guard<std::mutex> lock(out_mu);
  switch (req.kind) {
    case RequestKind::kEmbed:  // returned above
      break;
    case RequestKind::kStats:
      write_stats(out, obs::render_prometheus());
      break;
    case RequestKind::kPing:
      out << "PONG\n";
      break;
    case RequestKind::kFail: {
      std::string why;
      if (failpoint::set(req.fail_config, &why))
        out << "FAIL ok\n";
      else
        out << "FAIL bad " << (why.empty() ? "failpoints unavailable" : why)
            << "\n";
      break;
    }
    case RequestKind::kHealth: {
      HealthInfo h = table.health();
      h.uptime_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - g_start)
              .count());
      write_health(out, h);
      break;
    }
    case RequestKind::kTrace:
      write_trace(out, local_trace(table.trace_process));
      break;
    case RequestKind::kSlow:
      // A shard answers the framed record with an empty report, so
      // callers can issue SLOW cluster-wide without special-casing.
      write_stats(out, table.slow_report
                           ? table.slow_report()
                           : "# slow-request recorder: not a proxy\n");
      break;
    case RequestKind::kSeed: {
      // Proxy-initiated read-through replication: insert the pushed
      // canonical ring as if it came from a snapshot warm start.  Trust
      // boundary is the same as FAIL — loopback peers are operators.
      const char* why = !table.seed              ? "proxy is not a shard"
                        : req.seed_key.empty()  ? "empty key"
                        : req.seed_ring.empty() ? "empty ring"
                                                : nullptr;
      if (table.seed) {
        if (why == nullptr)
          table.seed(req.seed_key, std::move(req.seed_ring));
        obs::counter(why == nullptr ? "svc.seeds_accepted"
                                    : "svc.seeds_rejected")
            .add();
      }
      if (why == nullptr)
        out << "SEED ok\n";
      else
        out << "SEED bad " << why << "\n";
      break;
    }
    case RequestKind::kGossip:
      // A non-member answers a malformed-on-purpose line, so the peer's
      // gossip parse fails fast instead of burning its read timeout.
      if (!gossip)
        out << "GOSSIP bad not a cluster member\n";
      else if (gossip->snapshot)
        write_membership(out, *gossip->snapshot);
      else if (gossip->ack)
        write_gossip(out, *gossip->ack);
      break;
    case RequestKind::kMembers: {
      MembershipRecord rec;
      if (table.agent != nullptr)
        rec = table.agent->membership();
      else
        rec.epoch = table.static_epoch;  // static view: no members list
      write_membership(out, rec);
      break;
    }
    case RequestKind::kLeave:
      // Graceful departure: announce `left` to every peer (so nobody
      // burns a suspicion window or trips a breaker on us), then stop
      // accepting; the owner's bounded drain answers what is queued.
      // Detached: leave() dials peers and must not block this reader.
      std::thread([agent = table.agent, stop = table.stop] {
        if (agent != nullptr) agent->leave();
        if (stop != nullptr) stop->store(true);
      }).detach();
      out << "LEAVE ok\n";
      break;
  }
  out.flush();
  return Answer::kDone;
}

bool serve_requests(std::istream& in, std::ostream& out, std::mutex& out_mu,
                    const std::atomic<bool>& quit, const CommandTable& table,
                    const std::function<void(ServiceRequest&)>& embed) {
  std::string err;
  while (!quit.load(std::memory_order_relaxed)) {
    auto req = read_request(in, &err);
    if (!req) {
      if (err.empty()) return true;  // clean EOF
      if (!quit.load(std::memory_order_relaxed)) {
        const std::lock_guard<std::mutex> lock(out_mu);
        write_response(out, {.status = ServiceStatus::kError,
                             .reason = "parse: " + err});
        out.flush();
      }
      return false;
    }
    switch (answer_command(*req, out, out_mu, table)) {
      case Answer::kEmbed: embed(*req); break;
      case Answer::kDone: break;
      case Answer::kClose: return true;
    }
  }
  return true;
}

void TcpConn::send(const ServiceResponse& resp) {
  if (dead.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(out_mu);
  if (write_response(out, resp))
    out.flush();
  else
    out_buf.mark_dead();
}

void run_acceptor(int listen_fd, const AcceptorOptions& opts,
                  const std::atomic<bool>& stop,
                  const std::function<void(TcpConn&)>& serve,
                  const std::function<void()>& on_stop) {
  net::ConnRegistry reg;
  obs::Counter& accept_errors = obs::counter("svc.accept_errors");
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 200 /*ms*/) <= 0) continue;  // re-check stop
    const int fd = net::accept_transient(listen_fd, opts.tag, accept_errors);
    if (fd < 0) continue;
    if (reg.count() >= static_cast<std::size_t>(opts.max_conns)) {
      // Over the cap: one bounce, then close.  The socket is still
      // blocking here; a peer that will not read its bounce is closed
      // on anyway.
      obs::counter("svc.rejected_conns").add();
      net::FdOutBuf out_buf(fd, /*write_timeout_ms=*/1000, nullptr);
      std::ostream out(&out_buf);
      write_response(out, {.status = ServiceStatus::kRejected,
                           .reason = "connection limit"});
      out.flush();
      ::close(fd);
      continue;
    }
    if (!net::set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    reg.add(fd);
    // Detached with the registry as the liveness ledger: finished
    // connections release their thread at once.  Deregister before
    // closing, so a reused fd number never aliases a live entry.
    std::thread([fd, &reg, &serve, &opts] {
      {
        TcpConn conn(fd, opts.write_timeout_ms);
        serve(conn);
      }
      reg.remove(fd);
      ::close(fd);
    }).detach();
  }
  ::close(listen_fd);
  if (on_stop) on_stop();
  reg.shutdown_all(SHUT_RD);
  if (!reg.wait_empty(opts.drain_timeout_ms / 2)) {
    // Laggards lose their half-closed grace: hard-close both ways so
    // blocked reads and writes fail and the connections unwind.
    reg.shutdown_all(SHUT_RDWR);
    if (!reg.wait_empty(opts.drain_timeout_ms / 4)) {
      // Detached threads still reference the caller's state; exiting
      // now is the only unwind that cannot touch freed memory.
      std::fprintf(stderr, "%s: connections failed to drain, aborting\n",
                   opts.tag);
      std::_Exit(1);
    }
  }
}

}  // namespace starring::cluster
