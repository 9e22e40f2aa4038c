#include "util/net.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/io.hpp"

namespace starring::net {

namespace {

// Request/response protocols on loopback die under Nagle: a record
// flushed as two segments waits out the peer's delayed ACK (~40ms),
// and behind a proxy the stall compounds per hop — per-connection
// throughput collapses below any open-loop arrival rate.  Every
// connected or accepted socket gets TCP_NODELAY.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

std::optional<Endpoint> parse_endpoint(const std::string& text) {
  Endpoint ep;
  std::string port_text = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    ep.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (ep.host.empty()) return std::nullopt;
  }
  if (port_text.empty() || port_text.size() > 5) return std::nullopt;
  long port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + (c - '0');
  }
  if (port < 1 || port > 65535) return std::nullopt;
  ep.port = static_cast<int>(port);
  return ep;
}

std::string to_string(const Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int connect_endpoint(const Endpoint& ep, bool nonblocking) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    errno = EHOSTUNREACH;
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) set_nodelay(fd);
  if (fd >= 0 && nonblocking && !set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_loopback(int port, int backlog, int* actual_port,
                    std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr)
      *error = std::string(what) + ": " + std::strerror(errno);
    return -1;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int rc = fail("bind/listen");
    ::close(fd);
    return rc;
  }
  if (actual_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const int rc = fail("getsockname");
      ::close(fd);
      return rc;
    }
    *actual_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

int accept_transient(int listen_fd, const char* tag, obs::Counter& errors) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    set_nodelay(fd);
    return fd;
  }
  if (errno == EINTR) return -1;  // signal; the caller re-checks its flag
  // Everything else is transient from the daemon's point of view:
  // ECONNABORTED means one peer gave up, EMFILE/ENFILE mean the
  // process (or box) is out of descriptors right now.  None of them
  // justify abandoning the accept loop and with it every future
  // client.
  errors.add();
  std::fprintf(stderr, "%s: accept: %s (transient, continuing)\n", tag,
               std::strerror(errno));
  if (errno == EMFILE || errno == ENFILE) {
    // Out of fds: accepting again immediately would fail again; yield
    // so connection teardown can release descriptors.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

// --- fd <-> iostream glue --------------------------------------------

FdInBuf::int_type FdInBuf::underflow() {
  while (true) {
    const ssize_t k = ::read(fd_, buf_, sizeof buf_);
    if (k > 0) {
      setg(buf_, buf_, buf_ + k);
      return traits_type::to_int_type(buf_[0]);
    }
    if (k == 0) return traits_type::eof();
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Non-blocking socket with nothing queued: wait for data.  A
      // drain half-close (SHUT_RD/SHUT_RDWR) wakes the poll with EOF;
      // a bounded wait that expires reads as EOF too (the caller
      // treats the peer as gone).
      pollfd pfd{fd_, POLLIN, 0};
      int r;
      do {
        r = ::poll(&pfd, 1, timeout_ms_);
      } while (r < 0 && errno == EINTR);
      if (r <= 0) return traits_type::eof();
      continue;
    }
    return traits_type::eof();
  }
}

// The buffer is left uninitialized, so an idle connection's pages stay
// untouched until a record needs them.
FdOutBuf::FdOutBuf(int fd, int write_timeout_ms, std::atomic<bool>* dead)
    : fd_(fd),
      timeout_ms_(write_timeout_ms),
      dead_(dead),
      buf_(new char[kBufferSize]) {
  setp(buf_.get(), buf_.get() + kBufferSize);
}

FdOutBuf::int_type FdOutBuf::overflow(int_type c) {
  if (!drain()) return traits_type::eof();
  if (traits_type::eq_int_type(c, traits_type::eof()))
    return traits_type::not_eof(c);
  *pptr() = traits_type::to_char_type(c);
  pbump(1);
  return c;
}

std::streamsize FdOutBuf::xsputn(const char* s, std::streamsize count) {
  auto left = static_cast<std::size_t>(count);
  while (left > 0) {
    // A span at least a buffer long goes straight out: copying it in
    // would only split it into more writes.
    if (pptr() == pbase() && left >= kBufferSize)
      return write_all(s, left) ? count : std::streamsize{0};
    const std::size_t k =
        std::min(left, static_cast<std::size_t>(epptr() - pptr()));
    std::memcpy(pptr(), s, k);
    pbump(static_cast<int>(k));
    s += k;
    left -= k;
    if (pptr() == epptr() && !drain()) return std::streamsize{0};
  }
  return count;
}

int FdOutBuf::sync() { return drain() ? 0 : -1; }

bool FdOutBuf::drain() {
  const auto count = static_cast<std::size_t>(pptr() - pbase());
  // Emptied first: bytes that fail to go out are dropped, never resent
  // ahead of a later record.
  setp(buf_.get(), buf_.get() + kBufferSize);
  return count == 0 || write_all(buf_.get(), count);
}

void FdOutBuf::mark_dead() {
  if (dead_ != nullptr) dead_->store(true, std::memory_order_relaxed);
  setp(buf_.get(), buf_.get() + kBufferSize);
  // Both directions: wake a reader blocked in poll and refuse any
  // queued peer bytes — the connection is done.  A pipe or file
  // (starringd's stdout) has no shutdown: /dev/null takes over the fd
  // number instead, which releases the pipe so its reader sees EOF.
  if (::shutdown(fd_, SHUT_RDWR) != 0 && errno == ENOTSOCK) {
    const int null_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (null_fd >= 0) {
      ::dup2(null_fd, fd_);
      ::close(null_fd);
    }
  }
}

bool FdOutBuf::write_all(const char* p, std::size_t count) {
  if (dead_ != nullptr && dead_->load(std::memory_order_relaxed))
    return false;
  while (count > 0) {
    const ssize_t k = ::write(fd_, p, count);
    if (k > 0) {
      p += k;
      count -= static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      int r;
      do {
        r = ::poll(&pfd, 1, timeout_ms_);
      } while (r < 0 && errno == EINTR);
      if (r > 0) continue;
      // The peer has not drained its socket within the write budget:
      // evict it rather than let it pin this thread (and the response
      // lock) indefinitely.
      obs::counter("svc.evicted_conns").add();
      mark_dead();
      return false;
    }
    // EPIPE, ECONNRESET, ...: the peer is gone; record and stop
    // servicing instead of erroring on every subsequent response.
    obs::counter("io.write_errors").add();
    mark_dead();
    return false;
  }
  return true;
}

ClientConn::~ClientConn() {
  if (fd >= 0) ::close(fd);
}

bool ClientConn::send(const ServiceRequest& req) {
  return ok() && write_request(out, req) && out.flush();
}

// --- daemon shutdown scaffolding -------------------------------------

std::size_t ConnRegistry::count() {
  const std::lock_guard<std::mutex> lock(mu);
  return fds.size();
}

void ConnRegistry::add(int fd) {
  const std::lock_guard<std::mutex> lock(mu);
  fds.push_back(fd);
}

void ConnRegistry::remove(int fd) {
  // Notify under the lock: the acceptor may tear down the registry
  // the moment it observes the table empty.
  const std::lock_guard<std::mutex> lock(mu);
  std::erase(fds, fd);
  if (fds.empty()) empty_cv.notify_all();
}

void ConnRegistry::shutdown_all(int how) {
  const std::lock_guard<std::mutex> lock(mu);
  for (const int fd : fds) ::shutdown(fd, how);
}

bool ConnRegistry::wait_empty(int budget_ms) {
  std::unique_lock<std::mutex> lock(mu);
  return empty_cv.wait_for(lock, std::chrono::milliseconds(budget_ms),
                           [this] { return fds.empty(); });
}

DrainGuard::DrainGuard(int budget_ms) {
  watcher_ = std::thread([this, budget_ms] {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::milliseconds(budget_ms),
                      [this] { return done_; })) {
      std::fprintf(stderr, "drain deadline exceeded, aborting\n");
      std::_Exit(1);
    }
  });
}

DrainGuard::~DrainGuard() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  watcher_.join();
}

}  // namespace starring::net
