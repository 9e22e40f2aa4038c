// The one server loop behind every serving path: starringd over stdio,
// starringd over TCP, and starring-proxy.
//
// Three parts, each written once:
//   - answer_command: the table of out-of-band requests (the bare
//     STATS, PING, FAIL, HEALTH, TRACE, SLOW, MEMBERS and LEAVE lines
//     plus starring-seed and starring-gossip records).  What differs
//     between a shard and the proxy arrives as data or callbacks in a
//     CommandTable.
//   - serve_requests: read one record at a time, answer framing errors
//     once with `parse: <why>`, send commands to the table and embed
//     requests to a per-transport hook.
//   - run_acceptor: the TCP accept loop with the connection cap and the
//     bounded two-stage drain.
//
// DESIGN.md §8 tabulates how a shard and the proxy answer each command.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring::cluster {

/// What one process answers to the out-of-band commands.
struct CommandTable {
  /// HEALTH (required): the process's own record; uptime_ms is filled
  /// in by the table (time since process start).
  std::function<HealthInfo()> health;
  /// TRACE: the dump's process label ("shard-<id>", "starringd",
  /// "proxy").
  std::string trace_process;
  /// SLOW: the report body.  Null answers as a process without a
  /// slow-request recorder (a shard).
  std::function<std::string()> slow_report;
  /// SEED: receives an accepted canonical class key and ring.  Null
  /// answers `SEED bad proxy is not a shard`.
  std::function<void(const std::string& key, std::vector<VertexId> ring)>
      seed;
  /// GOSSIP and MEMBERS: the membership agent.  Null answers as a
  /// non-member (gossip refused, MEMBERS reports `static_epoch` only).
  MembershipAgent* agent = nullptr;
  std::uint64_t static_epoch = 0;
  /// Set by LEAVE once the agent has announced the departure.
  std::atomic<bool>* stop = nullptr;
};

enum class Answer {
  kEmbed,  // not an out-of-band command: the transport's hook serves it
  kDone,   // answered; keep reading
  kClose,  // stop serving this connection (a dropped gossip ack)
};

/// Answer `req` on `out` (under `out_mu`, flushed) when it is one of
/// the ten out-of-band kinds.  Answered inline: liveness probes, fault
/// arming, gossip and seeding must not wait behind queued embeddings.
Answer answer_command(ServiceRequest& req, std::ostream& out,
                      std::mutex& out_mu, const CommandTable& table);

/// TRACE's answer: this process's flight-recorder spans (a read, not a
/// reset — pull repeatedly).
TraceDump local_trace(const std::string& process);

/// Serve records from `in` until clean EOF, `quit`, a framing error or
/// a kClose answer.  A framing error poisons the token stream: it gets
/// one `status error` / `parse: <why>` response and ends the loop.
/// Returns false only in that case.
bool serve_requests(std::istream& in, std::ostream& out, std::mutex& out_mu,
                    const std::atomic<bool>& quit, const CommandTable& table,
                    const std::function<void(ServiceRequest&)>& embed);

/// One accepted TCP connection: the socket is non-blocking, reads wait
/// forever (the drain half-close ends them), writes are bounded by the
/// server's write timeout.  `dead` is set when the peer is evicted, a
/// write fails, or a response fails to serialize; the fd is closed by
/// the acceptor after the handler returns.
struct TcpConn {
  TcpConn(int fd, int write_timeout_ms)
      : in_buf(fd), out_buf(fd, write_timeout_ms, &dead),
        in(&in_buf), out(&out_buf) {}

  /// Write one response under out_mu unless the connection is dead.  A
  /// response that fails to serialize (the io.write_response failpoint,
  /// or a stream gone bad) hard-closes the socket, so the peer sees
  /// EOF at once instead of burning its read timeout.
  void send(const ServiceResponse& resp);

  std::atomic<bool> dead{false};
  net::FdInBuf in_buf;
  net::FdOutBuf out_buf;
  std::istream in;
  std::ostream out;
  std::mutex out_mu;
};

struct AcceptorOptions {
  const char* tag = "server";  // stderr prefix
  int max_conns = 64;
  int write_timeout_ms = 5000;
  int drain_timeout_ms = 10000;
};

/// Accept on `listen_fd` (closed on return) until `stop` is set,
/// polling every 200 ms.  Over `max_conns` a connection gets one
/// `status rejected` / `connection limit` response and is closed
/// (svc.rejected_conns).  Every other connection runs `serve` on its
/// own detached thread.  On stop: `on_stop` runs, then live
/// connections are half-closed (SHUT_RD) and get half the drain
/// budget, then are hard-closed (SHUT_RDWR) and get a quarter more;
/// past that the process exits 1.  Returns once every handler is done.
void run_acceptor(int listen_fd, const AcceptorOptions& opts,
                  const std::atomic<bool>& stop,
                  const std::function<void(TcpConn&)>& serve,
                  const std::function<void()>& on_stop = {});

}  // namespace starring::cluster
