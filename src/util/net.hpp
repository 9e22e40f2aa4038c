// TCP plumbing shared by every networked binary (starringd,
// starring-proxy, starring-cli, starring-load): endpoint parsing
// ("HOST:PORT" as well as the back-compatible bare "PORT"),
// bounded-read/bounded-write stream glue (a proxy must not hang
// forever on a wedged shard), one dialed-connection type, hardened
// accept, and the connection-drain scaffolding.  The server loop built
// on these lives in cluster/server.hpp.
//
// Everything is loopback/IPv4-oriented on purpose: the cluster model
// (DESIGN.md §13) is co-located processes behind one router, not a
// WAN protocol.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace starring {
struct ServiceRequest;  // util/io.hpp
}  // namespace starring

namespace starring::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parse "PORT" (loopback, the historical grammar) or "HOST:PORT".
/// nullopt on an empty host, a non-numeric or out-of-range port.
std::optional<Endpoint> parse_endpoint(const std::string& text);

std::string to_string(const Endpoint& ep);

/// Blocking TCP connect (IPv4, name resolution via getaddrinfo);
/// -1 on failure with errno left from the failing call.  On success
/// the fd is switched to non-blocking when `nonblocking` is set, so it
/// composes with the poll-based stream glue below.
int connect_endpoint(const Endpoint& ep, bool nonblocking = false);

bool set_nonblocking(int fd);

/// Bind + listen on 127.0.0.1:port (port 0: kernel-assigned).  Returns
/// the listening fd, or -1 with *error describing the failing call.
/// *actual_port receives the bound port — the way a test or script
/// using `--listen 0` learns where the daemon actually lives.
int listen_loopback(int port, int backlog, int* actual_port,
                    std::string* error);

/// accept() with transient-error discipline.  A daemon accept loop
/// must never treat accept failure as uniform: EINTR is silent,
/// ECONNABORTED (peer gave up in the backlog) and EMFILE/ENFILE
/// (fd exhaustion — hot when a proxy fronts many connections) are
/// logged, counted in `errors`, and survived.  EMFILE additionally
/// sleeps briefly so the loop cannot spin at 100% while the process
/// is out of descriptors.  Returns the accepted fd or -1 (caller
/// continues its loop either way).
int accept_transient(int listen_fd, const char* tag, obs::Counter& errors);

// --- fd <-> iostream glue --------------------------------------------
//
// Minimal streambufs over a file descriptor (a non-blocking socket, or
// starringd's stdin/stdout).  Reads poll for data (bounded by
// read_timeout_ms when >= 0).  Writes collect in a fixed buffer that
// sync() -- ostream::flush -- drains; every writer flushes once per
// record, so a record leaves in one write(2) however many insertions
// built it.  Draining polls for POLLOUT bounded by write_timeout_ms.
// A write timeout evicts the peer (svc.evicted_conns) and a hard error
// records io.write_errors; both mark the optional `dead` flag so the
// owner stops servicing the connection, and drop what is buffered.

class FdInBuf : public std::streambuf {
 public:
  /// read_timeout_ms < 0 blocks forever (a server reading its client);
  /// >= 0 bounds each poll — a proxy waiting on a shard reports EOF
  /// instead of hanging when the shard wedges.
  explicit FdInBuf(int fd, int read_timeout_ms = -1)
      : fd_(fd), timeout_ms_(read_timeout_ms) {}

 private:
  int_type underflow() override;

  int fd_;
  int timeout_ms_;
  char buf_[4096];
};

class FdOutBuf : public std::streambuf {
 public:
  /// Bytes held before a write(2): more than any record but the
  /// largest rings, which drain early once the buffer fills.
  static constexpr std::size_t kBufferSize = std::size_t{64} << 10;

  /// write_timeout_ms < 0 means block forever.  `dead`, when non-null,
  /// is set on eviction or hard write error so the owner stops
  /// servicing the connection.
  FdOutBuf(int fd, int write_timeout_ms, std::atomic<bool>* dead);

  /// Owner-invoked kill switch: sets `dead`, drops the buffered bytes
  /// and hard-closes the socket (a pipe's fd is pointed at /dev/null)
  /// so the peer sees EOF.  Used when a
  /// response fails to serialize — a wedged output stream must not
  /// leave the connection half-alive, nor send half a record.
  void mark_dead();

 private:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize count) override;
  int sync() override;
  /// Write out and empty the buffer; false (the bytes dropped) when the
  /// write fails.
  bool drain();
  bool write_all(const char* p, std::size_t count);

  int fd_;
  int timeout_ms_;
  std::atomic<bool>* dead_;
  std::unique_ptr<char[]> buf_;
};

/// One dialed connection: a non-blocking socket behind bounded
/// FdInBuf/FdOutBuf iostreams, closed on destruction.  Every outbound
/// exchange (proxy forwards, seed pushes, health polls, trace pulls,
/// gossip probes) goes through this type.  A failed dial leaves
/// ok() false and streams that fail on first use.
struct ClientConn {
  ClientConn(const Endpoint& ep, int read_timeout_ms, int write_timeout_ms)
      : fd(connect_endpoint(ep, /*nonblocking=*/true)),
        in_buf(fd, read_timeout_ms),
        out_buf(fd, write_timeout_ms, nullptr),
        in(&in_buf),
        out(&out_buf) {}
  ~ClientConn();
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  bool ok() const { return fd >= 0; }
  /// Write and flush one request record; false on a failed dial or
  /// write.
  bool send(const ServiceRequest& req);

  int fd;
  FdInBuf in_buf;
  FdOutBuf out_buf;
  std::istream in;
  std::ostream out;
};

// --- daemon shutdown scaffolding -------------------------------------

/// Live-connection ledger for a TCP daemon: connection threads
/// register their fd, the acceptor half-closes everything at drain and
/// waits (bounded) for the table to empty.
struct ConnRegistry {
  std::mutex mu;
  std::condition_variable empty_cv;
  std::vector<int> fds;

  std::size_t count();
  void add(int fd);
  void remove(int fd);
  /// SHUT_RD: readers see EOF, pending responses still flow out.
  /// SHUT_RDWR: hard close for drain laggards.
  void shutdown_all(int how);
  /// Wait (bounded) for every connection thread to deregister.
  bool wait_empty(int budget_ms);
};

/// Arms a wall-clock bound on shutdown: if the owner has not finished
/// draining (destroyed the guard) within the budget, the process is
/// aborted — a wedged embedding or connection must not turn SIGTERM
/// into a hang.
class DrainGuard {
 public:
  explicit DrainGuard(int budget_ms);
  ~DrainGuard();
  DrainGuard(const DrainGuard&) = delete;
  DrainGuard& operator=(const DrainGuard&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watcher_;
};

}  // namespace starring::net
