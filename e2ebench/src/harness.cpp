// e2e_harness — runs one workload of the end-to-end benchmark against
// the real starringd / starring-proxy binaries (or, for embed-cold, the
// in-process library) and prints one JSON report line.  run.py builds
// it, runs it, and turns the report into the benchmark's result line;
// METRICS.md defines every metric.
//
//   e2e_harness --workload W --seed N --seconds S --trace 0|1
//               --daemon PATH --proxy PATH --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 reruns the same request stream against traced daemons,
// pulls STATS/TRACE and /proc counters, and replays the stream through
// each layer's public functions in-process to build the per-layer
// ledger.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/block_oracle.hpp"
#include "core/chaining.hpp"
#include "core/partition_selector.hpp"
#include "core/ring_embedder.hpp"
#include "core/super_ring.hpp"
#include "core/verify.hpp"
#include "loadgen/loadgen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "service/service.hpp"
#include "util/io.hpp"
#include "util/net.hpp"
#include "workload.hpp"

extern char** environ;

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using starring::CanonicalForm;
using starring::CanonicalRingCache;
using starring::EmbedOptions;
using starring::FaultSet;
using starring::ServiceRequest;
using starring::ServiceResponse;
using starring::ServiceStatus;
using starring::StarGraph;
using starring::VertexId;

// --- workload constants ----------------------------------------------------
//
// The nominal rate sits well below the serve workloads' saturation knee
// (at the seed, on a 4-core box, 40-70 req/s for one starringd and under
// 20 req/s through the proxy), so latency there is mostly service time,
// not queueing.  The latency limit is what a probe's tail must meet to
// count toward goodput.  It sits ten times above the n=7 service time
// (30-50 ms), so a probe fails when the queue keeps growing, not on a
// passing burst: at 250 ms one daemon build read 37 to 55 req/s across
// five seeds.
constexpr double kNominalRps = 8;
constexpr double kLatencyLimitMs = 500;
constexpr double kHitLatencyLimitMs = 100;
constexpr double kColdLatencyLimitMs = 1000;
constexpr int kConns = 2;
// hit-stdio-n8 and embed-cold run one busy thread on each side, so no
// more threads compete than there are cores.  hit-stdio-n8 at a window
// of 4 against a daemon with a worker per core ran five busy threads on
// four cores, and embed-cold at nproc threads had n=9 calls of 5-7 ms
// of CPU take 2 to 9.5 ms of wall time depending on how the host ran
// the four lanes: both measured the scheduler (quartile spreads up to
// 0.5 of the median between runs of the same code).
constexpr int kHitWindow = 1;
constexpr unsigned kHitDaemonThreads = 1;
constexpr unsigned kColdThreads = 1;
// hit-stdio-n8 and embed-cold report the median over this many
// consecutive slices of the timed run of each slice's figure.
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kSmallCache = 64;
constexpr int kSetupRepeats = 3;
// Geometric bisection over offered rate: hi/lo = 32 halves in log space
// per probe, so six probes end at a resolution of 32^(1/64) ~ 1.06.  The
// top, 384 req/s, is about 9x the seed's goodput.
constexpr double kBisectLo = 12;
constexpr double kBisectHi = 384;
constexpr double kResolution = 1.1;
// An overloaded probe leaves a backlog (the first, at 68 req/s, one to
// two seconds of it at the seed); the next probe starts once it is
// answered.
constexpr double kProbeDrainS = 10;
constexpr double kMaxFailFrac = 0.01;
// latency_tail_ms is p90 everywhere.  On the open-loop serve workloads
// (about 135 requests at the nominal rate) it is the highest percentile
// with at least ten samples beyond it; on embed-cold (about 40 calls a
// slice, the n=10 ones in the top quarter) it lies among the n=10 calls.
// hit-stdio-n8's hundreds of requests a slice would support p99, but at
// a window of 4 its p99 was set by how long the host stalls the VM's
// CPUs: over five ten-seed sets it spread 0.12 to 0.54 (quartile
// distance over median), past the 0.25 bound.
constexpr double kServeTail = 0.90;
constexpr double kHitTail = 0.90;
constexpr double kColdTail = 0.90;

double ms_since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// Every child still running, so an early exit can stop them all.
std::mutex g_children_mu;
std::vector<pid_t> g_children;

[[noreturn]] void die(const std::string& why) {
  std::cerr << "e2e_harness: " << why << "\n";
  const std::lock_guard<std::mutex> lock(g_children_mu);
  for (const pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::_Exit(2);
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string daemon;  // starringd binary
  std::string proxy;   // starring-proxy binary
  std::string work_dir;
  unsigned nproc = 1;
};

// n=7 answers take 30-50 ms at the seed (10k writes each) and n=5/6
// answers 1-6 ms; with equal shares the median sits on the boundary
// between them and hops from run to run.  Three n=7 requests per n=5
// and per n=6 put it inside the n=7 group.
Mix serve_mix() {
  Mix m;
  m.nmax_weight = 3;
  return m;
}

Mix hit_mix() {
  Mix m;
  m.nmin = m.nmax = 8;
  m.classes_per_n = 16;
  m.zipf_s = 0;
  m.scan_frac = 0;
  m.edge_frac = 0;
  m.verify_frac = 0.25;
  m.check_frac = 0.02;
  return m;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

class Metrics {
 public:
  void set(const std::string& name, double v, const std::string& unit,
           std::size_t samples) {
    m_[name] = Metric{v, unit, samples};
  }
  std::string json() const {
    JsonObject o;
    for (const auto& [name, m] : m_)
      o.raw(name, JsonObject()
                      .num("value", m.value)
                      .str("unit", m.unit)
                      .num("samples", static_cast<double>(m.samples))
                      .dump());
    return o.dump();
  }

 private:
  std::map<std::string, Metric> m_;
};

// --- child processes -----------------------------------------------------------

class Child {
 public:
  /// fork+exec `argv` with stdout/stderr to `log_path`; with `pipes`
  /// the child's stdin/stdout are pipes to this process instead.
  Child(const std::vector<std::string>& argv, const std::string& log_path,
        bool pipes, const std::vector<std::string>& env_extra = {},
        const cpu_set_t* cpus = nullptr)
      : log_path_(log_path) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
    for (const std::string& kv : env_extra) env.push_back(kv);
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    std::vector<char*> cenv;
    for (const std::string& kv : env) cenv.push_back(const_cast<char*>(kv.c_str()));
    cenv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) die("cannot open " + log_path);
    int in_pipe[2] = {-1, -1};
    int out_pipe[2] = {-1, -1};
    if (pipes && (::pipe2(in_pipe, O_CLOEXEC) != 0 ||
                  ::pipe2(out_pipe, O_CLOEXEC) != 0))
      die("pipe failed");
    start_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      if (cpus != nullptr) ::sched_setaffinity(0, sizeof(cpu_set_t), cpus);
      ::dup2(pipes ? in_pipe[0] : ::open("/dev/null", O_RDONLY), 0);
      ::dup2(pipes ? out_pipe[1] : log_fd, 1);
      ::dup2(log_fd, 2);
      ::syscall(SYS_close_range, 3U, ~0U, 0U);
      ::execve(cargv[0], cargv.data(), cenv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    {
      const std::lock_guard<std::mutex> lock(g_children_mu);
      g_children.push_back(pid_);
    }
    if (pipes) {
      ::close(in_pipe[0]);
      ::close(out_pipe[1]);
      to_fd_ = in_pipe[1];
      from_fd_ = out_pipe[0];
    }
  }
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  int to_fd() const { return to_fd_; }
  int from_fd() const { return from_fd_; }
  Clock::time_point started() const { return start_; }

  /// Port from the "listening on 127.0.0.1:PORT" stderr line.
  int wait_port(double timeout_s) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < timeout_s) {
      std::ifstream in(log_path_);
      std::string line;
      // Only a complete line counts: the daemon may be mid-write.
      while (std::getline(in, line) && !in.eof()) {
        const std::size_t at = line.find("listening on 127.0.0.1:");
        const int port = at == std::string::npos ? 0 : std::atoi(line.c_str() + at + 23);
        if (port > 0) return port;
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        {
          const std::lock_guard<std::mutex> lock(g_children_mu);
          g_children.erase(std::find(g_children.begin(), g_children.end(), pid_));
        }
        pid_ = -1;
        die("child exited before listening; see " + log_path_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    die("timed out waiting for a listening line in " + log_path_);
  }

  /// Stop and reap: a stdio child gets EOF on stdin (SIGTERM after 5 s),
  /// any other SIGTERM; SIGKILL after 15 s.  Returns the exit status, -1
  /// when killed or already reaped.
  int stop() {
    if (pid_ <= 0) return -1;
    // A stdio child drains and exits on EOF; others get SIGTERM.
    const bool stdio = to_fd_ >= 0;
    if (stdio) ::close(to_fd_);
    to_fd_ = -1;
    if (!stdio) ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    bool termed = !stdio;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (!termed && seconds_since(t0) > 5) {
        ::kill(pid_, SIGTERM);
        termed = true;
      }
      if (seconds_since(t0) > 15) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      const std::lock_guard<std::mutex> lock(g_children_mu);
      g_children.erase(std::find(g_children.begin(), g_children.end(), pid_));
    }
    pid_ = -1;
    if (from_fd_ >= 0) ::close(from_fd_);
    from_fd_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  Clock::time_point start_;
};

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t k = ::write(fd, s.data() + off, s.size() - off);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    off += static_cast<std::size_t>(k);
  }
  return true;
}

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof a;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0)
    die("cannot pick a free port");
  ::close(fd);
  return ntohs(a.sin_port);
}

int connect_port(int port) {
  starring::net::Endpoint ep;
  ep.port = port;
  const int fd = starring::net::connect_endpoint(ep);
  if (fd < 0) die("cannot connect to port " + std::to_string(port));
  return fd;
}

// --- the request book ------------------------------------------------------------
//
// Every request the run sends, with its schedule, send and completion
// times and the outcome of the per-response checks.  Ids are dense from
// 1, so an entry is found by id.

struct Entry {
  Generated gen;
  Clock::time_point sched{};
  Clock::time_point sent{};
  Clock::time_point done{};
  bool answered = false;
  /// Sent by a bisection probe, above the knee, where rejection or a
  /// missing answer is a legitimate overload outcome.  Anywhere else a
  /// request that is not answered ok counts as wrong.
  bool may_reject = false;
  ServiceStatus status = ServiceStatus::kError;
  bool hit = false;
  /// The response failed a check (wrong id, status, length, verified
  /// flag, or the independent verifier afterwards).
  bool wrong = false;
  std::vector<std::uint32_t> ring;  // kept when gen.check_ring

  bool ok() const { return answered && status == ServiceStatus::kOk && !wrong; }
  double latency_ms() const { return ms_since(sched, done); }
};

class Book {
 public:
  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size() + 1;
  }

  /// Append requests generated with ids next_id(), next_id()+1, ...
  std::vector<std::size_t> add(std::vector<Generated> gens, bool may_reject = false) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::size_t> idx;
    for (Generated& g : gens) {
      if (g.req.id != entries_.size() + 1) die("request ids out of order");
      idx.push_back(entries_.size());
      entries_.emplace_back();
      entries_.back().gen = std::move(g);
      entries_.back().may_reject = may_reject;
    }
    return idx;
  }

  void mark_sent(std::size_t i, Clock::time_point sched, Clock::time_point sent) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_[i].sched = sched;
    entries_[i].sent = sent;
  }

  void on_response(const ServiceResponse& r, Clock::time_point t) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (r.id == 0 || r.id > entries_.size() || entries_[r.id - 1].answered) {
        ++strays_;
        return;
      }
      Entry& e = entries_[r.id - 1];
      e.answered = true;
      e.done = t;
      e.status = r.status;
      e.hit = r.cache_hit;
      if (r.status == ServiceStatus::kOk) {
        e.wrong = r.ring.size() != e.gen.expect_len ||
                  (e.gen.req.verify && !r.verified);
        if (e.gen.check_ring) e.ring.assign(r.ring.begin(), r.ring.end());
      } else {
        // No request of these mixes may fail: rejection under overload,
        // during a bisection probe, is the only legitimate non-ok answer.
        e.wrong = !(e.may_reject && r.status == ServiceStatus::kRejected);
      }
    }
    cv_.notify_all();
  }

  void on_framing_error() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++framing_errors_;
  }

  /// Wait until every entry in `idx` is answered or `deadline` passes.
  void wait_answered(const std::vector<std::size_t>& idx,
                     Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t cursor = 0;
    cv_.wait_until(lock, deadline, [&] {
      while (cursor < idx.size() && entries_[idx[cursor]].answered) ++cursor;
      return cursor == idx.size();
    });
  }

  /// Requests among the first `count` of `idx` whose latency is already
  /// known to exceed `limit` at `now`: answered late or not ok, or still
  /// unanswered past their deadline.
  std::size_t over_limit(const std::vector<std::size_t>& idx, std::size_t count,
                         Clock::duration limit, Clock::time_point now) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t over = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const Entry& e = entries_[idx[k]];
      if (e.answered ? !e.ok() || e.done - e.sched > limit : now - e.sched > limit) ++over;
    }
    return over;
  }

  /// The latest answer time among `idx`; `since` when none is answered.
  Clock::time_point last_done(const std::vector<std::size_t>& idx,
                              Clock::time_point since) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::size_t i : idx)
      if (entries_[i].answered) since = std::max(since, entries_[i].done);
    return since;
  }

  /// Read-only access once the senders and readers are quiet.
  const Entry& at(std::size_t i) const { return entries_[i]; }
  Entry& mut(std::size_t i) { return entries_[i]; }
  std::size_t size() const { return entries_.size(); }
  std::size_t strays() const { return strays_; }
  std::size_t framing_errors() const { return framing_errors_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> entries_;
  std::size_t strays_ = 0;
  std::size_t framing_errors_ = 0;
};

/// The independent verifier over every kept ring (outside any timed
/// window).  Returns the number of rings checked.
std::size_t verify_kept_rings(Book& book) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < book.size(); ++i) {
    Entry& e = book.mut(i);
    if (!e.answered || e.status != ServiceStatus::kOk || e.ring.empty())
      continue;
    const std::vector<VertexId> ring(e.ring.begin(), e.ring.end());
    const starring::RingReport rep = starring::verify_healthy_ring(
        StarGraph(e.gen.req.n), e.gen.req.faults, ring);
    if (!rep.valid || rep.length != e.gen.expect_len) e.wrong = true;
    ++checked;
    e.ring.clear();
    e.ring.shrink_to_fit();
  }
  return checked;
}

// --- transports ------------------------------------------------------------------

/// Client-side socket reads that never block in the kernel: the
/// reader polls every kPollUs.  starringd writes an answer one token per
/// write(2), thousands of loopback segments each.  A reader blocked in
/// read(), as the repository's clients are, makes the daemon's write
/// path also pay a cross-CPU wake-up per segment, and whether it does
/// depends on the machine's scheduling: in a five-seed trial on a 4-core
/// VM the daemon's CPU per request was ~31 ms in four runs and 19 ms in
/// one.  The polling reader takes the wake-ups out, so the bounded
/// metrics are steady; the traced run reports the blocking reader too.
class PollingInBuf : public std::streambuf {
 public:
  PollingInBuf(int fd, const std::atomic<bool>& closing) : fd_(fd), closing_(closing) {}

 private:
  static constexpr int kPollUs = 200;
  int_type underflow() override {
    while (true) {
      const ssize_t k = ::recv(fd_, buf_, sizeof buf_, MSG_DONTWAIT);
      if (k > 0) {
        setg(buf_, buf_, buf_ + k);
        return traits_type::to_int_type(buf_[0]);
      }
      if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) ||
          closing_.load())
        return traits_type::eof();
      std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    }
  }

  int fd_;
  const std::atomic<bool>& closing_;
  char buf_[1 << 16];
};

enum class Reader { kPolling, kBlocking };

/// kConns TCP connections to one port, each with a reader thread that
/// parses responses into the book: a PollingInBuf, or with kBlocking a
/// net::FdInBuf as in the repository's clients.  Shutting the sockets
/// down ends the readers.
class TcpClients {
 public:
  TcpClients(int port, Book& book, Reader reader = Reader::kPolling)
      : book_(book), reader_(reader) {
    for (int i = 0; i < kConns; ++i) fds_.push_back(connect_port(port));
    for (const int fd : fds_) readers_.emplace_back([this, fd] { read_loop(fd); });
  }
  ~TcpClients() {
    closing_.store(true);
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : readers_) t.join();
    for (const int fd : fds_) ::close(fd);
  }
  TcpClients(const TcpClients&) = delete;
  TcpClients& operator=(const TcpClients&) = delete;

  bool send(std::size_t k, const std::string& bytes) {
    return write_all(fds_[k % fds_.size()], bytes);
  }

 private:
  void read_loop(int fd) {
    std::unique_ptr<std::streambuf> buf;
    if (reader_ == Reader::kBlocking)
      buf = std::make_unique<starring::net::FdInBuf>(fd);
    else
      buf = std::make_unique<PollingInBuf>(fd, closing_);
    std::istream in(buf.get());
    while (true) {
      std::string err;
      const auto r = starring::read_response(in, &err);
      const auto t = Clock::now();
      if (!r) {
        if (!err.empty() && !closing_.load()) book_.on_framing_error();
        return;
      }
      book_.on_response(*r, t);
    }
  }

  Book& book_;
  Reader reader_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;
  std::atomic<bool> closing_{false};
};

/// One control exchange (STATS or TRACE) on a fresh connection.
std::string query_stats(int port) {
  const int fd = connect_port(port);
  write_all(fd, "STATS\n");
  starring::net::FdInBuf buf(fd);
  std::istream in(&buf);
  const auto s = starring::read_stats(in);
  ::close(fd);
  if (!s) die("STATS failed on port " + std::to_string(port));
  return *s;
}

starring::TraceDump query_trace(int port) {
  const int fd = connect_port(port);
  write_all(fd, "TRACE\n");
  starring::net::FdInBuf buf(fd);
  std::istream in(&buf);
  const auto d = starring::read_trace(in);
  ::close(fd);
  if (!d) die("TRACE failed on port " + std::to_string(port));
  return *d;
}

double prom(const std::string& text, const std::string& counter) {
  return starring::loadgen::parse_scalar(text, "starring_" + counter).value_or(0);
}

// --- deployments -------------------------------------------------------------------

/// The serving processes of one daemon workload.
struct Deployment {
  std::vector<std::unique_ptr<Child>> procs;
  int client_port = -1;            // where requests go (daemon or proxy)
  std::vector<int> daemon_ports;   // every starringd, for STATS/TRACE
  int proxy_port = -1;

  std::vector<ProcSample> sample() const {
    std::vector<ProcSample> out;
    for (const auto& c : procs) {
      const auto s = read_proc(c->pid());
      if (!s) die("cannot read /proc for a serving process");
      out.push_back(*s);
    }
    return out;
  }
};

ProcSample sum_delta(const std::vector<ProcSample>& before,
                     const std::vector<ProcSample>& after) {
  ProcSample total;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const ProcSample d = proc_delta(before[i], after[i]);
    total.utime_s += d.utime_s;
    total.stime_s += d.stime_s;
    total.syscw += d.syscw;
    total.vm_hwm_kb += d.vm_hwm_kb;
  }
  return total;
}

/// Serving processes run on every CPU but the last and this process on
/// the last one, so the client's reader threads never preempt the
/// daemon's scheduler thread.
struct CpuSplit {
  cpu_set_t serve;
  cpu_set_t client;
};

const CpuSplit* cpu_split(unsigned nproc) {
  static CpuSplit split;
  if (nproc < 2) return nullptr;
  CPU_ZERO(&split.serve);
  CPU_ZERO(&split.client);
  for (unsigned c = 0; c < nproc; ++c) CPU_SET(c, c + 1 < nproc ? &split.serve : &split.client);
  return &split;
}

std::unique_ptr<Deployment> launch(const Config& cfg, bool proxy, bool traced,
                                   int tag) {
  auto d = std::make_unique<Deployment>();
  const CpuSplit* split = cpu_split(cfg.nproc);
  const cpu_set_t* cpus = split != nullptr ? &split->serve : nullptr;
  const std::string& daemon = cfg.daemon;
  const std::string base = cfg.work_dir + "/" + cfg.workload + "-" + std::to_string(tag);
  const std::vector<std::string> env = {"STARRING_TRACE_BUFFER=65536"};
  const std::string cache = std::to_string(kSmallCache);
  if (!proxy) {
    std::vector<std::string> argv = {daemon, "--listen", "0", "--cache-capacity", cache};
    if (traced) argv.push_back("--trace");
    d->procs.push_back(std::make_unique<Child>(argv, base + ".log", false, env, cpus));
    d->client_port = d->procs.back()->wait_port(30);
    d->daemon_ports.push_back(d->client_port);
    return d;
  }
  const std::string map_path = base + ".map";
  {
    std::ofstream map(map_path);
    map << "starring-shard-map v1\nshards 3\n";
    for (int i = 0; i < 3; ++i) {
      d->daemon_ports.push_back(free_port());
      map << "shard " << i << " 127.0.0.1:" << d->daemon_ports.back() << "\n";
    }
    map << "end\n";
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> argv = {
        daemon, "--listen", std::to_string(d->daemon_ports[static_cast<std::size_t>(i)]),
        "--shard-id", std::to_string(i), "--shard-map", map_path,
        "--threads", "1", "--cache-capacity", cache};
    if (traced) argv.push_back("--trace");
    d->procs.push_back(std::make_unique<Child>(
        argv, base + "-shard" + std::to_string(i) + ".log", false, env, cpus));
  }
  for (auto& c : d->procs) c->wait_port(30);
  std::vector<std::string> argv = {cfg.proxy, "--shard-map",
                                   map_path, "--listen", "0"};
  if (traced) {
    argv.push_back("--trace-out");
    argv.push_back(base + "-trace.json");
  }
  d->procs.push_back(std::make_unique<Child>(argv, base + "-proxy.log", false, env, cpus));
  d->proxy_port = d->client_port = d->procs.back()->wait_port(30);
  return d;
}

// --- phases ---------------------------------------------------------------------------

std::vector<Generated> generate(RequestStream& stream, std::size_t count,
                                bool traced) {
  std::vector<Generated> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(stream.next());
    // Traced runs stamp the request id as the wire trace id, so every
    // daemon-side span can be joined back to its request.
    if (traced) out.back().req.trace_id = out.back().req.id;
  }
  return out;
}

struct PhaseResult {
  std::vector<std::size_t> idx;
  double duration_s = 0;
  double answer_span_s = 0;  // open loop: phase start to the last answer
  std::vector<double> lag_ms;
};

/// Open loop: rate x secs Poisson arrivals over `secs`, each request
/// timed from its scheduled send; then up to `drain_s` for stragglers.
/// A bisection `probe` may see rejections, and it stops sending once
/// enough of its requests are over the latency limit that its tail must
/// miss it; the unsent rest count as failed.  An overloaded probe then
/// costs about a second and leaves a short backlog, where sending it out
/// at 2-3x the knee took up to 15 s of send and drain.
PhaseResult open_loop(Book& book, TcpClients& clients, const Mix& mix,
                      std::uint64_t seed, std::uint64_t tag, double rate,
                      double secs, double drain_s, bool traced, bool probe = false) {
  PhaseResult pr;
  const std::vector<double> sched = poisson_arrivals(rate, secs, mix_seed(seed, tag));
  RequestStream stream(mix, seed, tag, book.next_id());
  std::vector<Generated> gens = generate(stream, sched.size(), traced);
  std::vector<std::string> wire;
  for (const Generated& g : gens) wire.push_back(wire_bytes(g.req));
  pr.idx = book.add(std::move(gens), probe);
  const auto limit = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kLatencyLimitMs));
  // More than this many requests over the limit put the tail percentile
  // over it (percentile() interpolates between neighbouring ranks).
  const double give_up = (1 - kServeTail) * static_cast<double>(pr.idx.size()) + 2;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::size_t sent = 0;
  for (; sent < pr.idx.size(); ++sent) {
    const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(sched[sent]));
    std::this_thread::sleep_until(at);
    const auto now = Clock::now();
    if (probe && static_cast<double>(book.over_limit(pr.idx, sent, limit, now)) >= give_up)
      break;
    book.mark_sent(pr.idx[sent], at, now);
    pr.lag_ms.push_back(ms_since(at, now));
    if (!clients.send(sent, wire[sent])) die("send failed");
  }
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(secs));
  if (sent == pr.idx.size()) std::this_thread::sleep_until(end);
  const std::vector<std::size_t> sent_idx(pr.idx.begin(),
                                          pr.idx.begin() + static_cast<std::ptrdiff_t>(sent));
  book.wait_answered(sent_idx, std::max(end, Clock::now()) +
                                   std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(drain_s)));
  pr.duration_s = secs;
  pr.answer_span_s = std::chrono::duration<double>(book.last_done(pr.idx, t0) - t0).count();
  return pr;
}

/// The stdio pipe pair of one starringd, read and written from this
/// thread only (closed loop).
class StdioClient {
 public:
  explicit StdioClient(Child& c)
      : child_(c), buf_(c.from_fd()), in_(&buf_) {}

  void send(const std::string& bytes) {
    if (!write_all(child_.to_fd(), bytes)) die("stdio send failed");
  }
  std::optional<ServiceResponse> read(std::string* err) {
    return starring::read_response(in_, err);
  }
  std::string stats() {
    send("STATS\n");
    const auto s = starring::read_stats(in_);
    if (!s) die("STATS failed over stdio");
    return *s;
  }
  starring::TraceDump trace() {
    send("TRACE\n");
    const auto d = starring::read_trace(in_);
    if (!d) die("TRACE failed over stdio");
    return *d;
  }

 private:
  Child& child_;
  starring::net::FdInBuf buf_;
  std::istream in_;
};

/// Closed loop with at most `window` requests outstanding, for `secs`
/// (or until `gens` runs out when it is non-empty).
PhaseResult closed_loop(Book& book, StdioClient& client,
                        RequestStream* stream, std::vector<Generated> fixed,
                        int window, double secs, bool traced) {
  PhaseResult pr;
  const auto t0 = Clock::now();
  std::size_t next_fixed = 0;
  int outstanding = 0;
  while (true) {
    while (outstanding < window &&
           (stream != nullptr ? seconds_since(t0) < secs
                              : next_fixed < fixed.size())) {
      std::vector<Generated> one;
      if (stream != nullptr) {
        one = generate(*stream, 1, traced);
      } else {
        one.push_back(std::move(fixed[next_fixed++]));
      }
      const std::string wire = wire_bytes(one.front().req);
      const std::size_t i = book.add(std::move(one)).front();
      const auto now = Clock::now();
      book.mark_sent(i, now, now);
      client.send(wire);
      pr.idx.push_back(i);
      ++outstanding;
    }
    if (outstanding == 0) break;
    std::string err;
    const auto r = client.read(&err);
    if (!r) die("stdio response stream ended: " + err);
    book.on_response(*r, Clock::now());
    --outstanding;
  }
  pr.duration_s = seconds_since(t0);
  return pr;
}

// --- summaries ---------------------------------------------------------------------------

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;  // not ok: error, rejected, missing, or wrong
  std::size_t wrong = 0;
  std::size_t ok = 0;
  std::vector<double> lat_ms;         // ok requests
  std::vector<double> lat_verify_ms;  // ok, verify-flagged
  std::vector<double> lat_hit_ms;     // ok cache hits
  std::map<int, std::vector<double>> ns_per_vertex;  // by n
  std::size_t rejected = 0;
};

Outcome summarize(const Book& book, const std::vector<std::size_t>& idx) {
  Outcome o;
  for (const std::size_t i : idx) {
    const Entry& e = book.at(i);
    ++o.attempted;
    if (e.wrong) ++o.wrong;
    if (e.answered && e.status == ServiceStatus::kRejected) ++o.rejected;
    if (!e.ok()) {
      ++o.failed;
      continue;
    }
    ++o.ok;
    const double ms = e.latency_ms();
    o.lat_ms.push_back(ms);
    if (e.gen.req.verify) o.lat_verify_ms.push_back(ms);
    if (e.hit) o.lat_hit_ms.push_back(ms);
    o.ns_per_vertex[e.gen.req.n].push_back(
        ms * 1e6 / static_cast<double>(e.gen.expect_len));
  }
  return o;
}

/// A probe passes when the tail (a failed request counts as over the limit)
/// meets the limit, at most 1% fail, and the backlog did not grow.
bool probe_passes(const Book& book, const PhaseResult& pr, double rate) {
  if (pr.idx.empty()) return true;
  std::vector<double> lat;
  std::size_t failed = 0;
  std::size_t late_at_end = 0;
  const auto end = book.at(pr.idx.front()).sched +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(pr.duration_s));
  for (const std::size_t i : pr.idx) {
    const Entry& e = book.at(i);
    if (!e.ok()) {
      ++failed;
      lat.push_back(1e12);
      continue;
    }
    lat.push_back(e.latency_ms());
    if (e.done > end) ++late_at_end;
  }
  // Little's law: more requests outstanding at the end of the send
  // window than the limit allows at this rate means the queue grew.
  const double backlog_cap = std::max(2.0, rate * kLatencyLimitMs / 1000.0);
  return percentile(lat, kServeTail) <= kLatencyLimitMs &&
         static_cast<double>(failed) <=
             kMaxFailFrac * static_cast<double>(pr.idx.size()) &&
         static_cast<double>(late_at_end) <= backlog_cap;
}

double median_of(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void put_latency_metrics(Metrics& m, const Outcome& o, double tail, int nlo, int nhi) {
  m.set("latency_p50_ms", percentile(o.lat_ms, 0.5), "ms", o.lat_ms.size());
  m.set("latency_tail_ms", percentile(o.lat_ms, tail), "ms", o.lat_ms.size());
  m.set("latency_p50_ms.verify", percentile(o.lat_verify_ms, 0.5), "ms",
        o.lat_verify_ms.size());
  const auto per_n = [&](int n) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = o.ns_per_vertex.find(n);
    return it == o.ns_per_vertex.end() ? none : it->second;
  };
  m.set("ns_per_vertex.nlo", percentile(per_n(nlo), 0.5), "ns", per_n(nlo).size());
  m.set("ns_per_vertex.nhi", percentile(per_n(nhi), 0.5), "ns", per_n(nhi).size());
}

// --- the per-layer replay -------------------------------------------------------------------
//
// Each request of the traced phase goes through each layer's public
// function, timed from here: the whole EmbedService::process_now, then
// canonicalize, cache lookup/insert, the three construction phases and
// embed_longest_ring (misses), relabel_ring, verify_healthy_ring
// (verify-flagged), and the response codec.

struct Replay {
  std::size_t requests = 0;
  std::size_t mismatches = 0;
  std::vector<double> canonical_us, lookup_us, insert_us, relabel_ns_pv,
      verify_ns_pv, format_us, parse_us, resp_bytes, overhead_us;
  std::map<int, std::vector<double>> partition_us, super_ring_us, chain_ms,
      minflt, io_us;
  double oracle_misses = 0;
  double closure_attempts = 0;
  double rings = 0;
  double pool_t1 = 0;
  double pool_tn = 0;
  double entry_bytes = 0;
  double entries = 0;
  double prewarm_s = 0;
};

template <typename F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

long minflt_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double cpu_now_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// The three construction phases on their own, timed; returns their
/// summed time in microseconds.
double time_phases(Replay& rp, int n, const FaultSet& faults,
                   const EmbedOptions& eo) {
  if (n < 5) return 0;
  const StarGraph g(n);
  starring::PartitionSelection sel;
  const double part = time_us([&] { sel = starring::select_partition_positions(n, faults); });
  std::optional<starring::SuperRing> sr;
  const double ring = time_us([&] { sr = starring::build_block_ring(n, sel.positions, faults, 0); });
  double chain = 0;
  if (sr) chain = time_us([&] { (void)starring::chain_block_ring(g, *sr, faults, eo); });
  rp.partition_us[n].push_back(part);
  rp.super_ring_us[n].push_back(ring);
  rp.chain_ms[n].push_back(chain / 1000.0);
  return part + ring + chain;
}

void count_embed_stats(Replay& rp, const starring::EmbedResult& res) {
  for (const auto& [name, v] : res.stats.counters)
    if (name == "oracle.cache_misses") rp.oracle_misses += static_cast<double>(v);
  rp.closure_attempts += res.stats.closure_attempts;
  rp.rings += 1;
}

Replay replay(const Book& book, const std::vector<std::size_t>& idx,
              const starring::ServiceOptions& sopts, double budget_s,
              unsigned nproc) {
  Replay rp;
  rp.prewarm_s = time_us([&] {
                   starring::BlockOracle::prewarm_fault_free(
                       sopts.embed.effective_threads());
                 }) / 1e6;
  // The metrics layer feeds EmbedStats::counters (oracle misses).
  starring::obs::set_enabled(true);
  starring::EmbedService svc(sopts);
  CanonicalRingCache cache(sopts.cache_capacity);
  std::set<std::string> stored;  // keys inserted, for bytes_per_entry
  const auto t0 = Clock::now();
  for (const std::size_t i : idx) {
    if (seconds_since(t0) > budget_s) break;
    const ServiceRequest& req = book.at(i).gen.req;
    const int n = req.n;
    const StarGraph g(n);
    ServiceResponse whole;
    const double whole_us = time_us([&] { whole = svc.process_now(req); });

    CanonicalForm canon;
    const double canon_us = time_us([&] { canon = starring::canonicalize(n, req.faults); });
    CanonicalRingCache::RingPtr ring;
    const double lookup_us = time_us([&] { ring = cache.lookup(canon.key); });
    double embed_us = 0;
    double insert_us = 0;
    const bool miss = ring == nullptr;
    if (miss) {
      std::optional<starring::EmbedResult> res;
      const long f0 = minflt_now();
      embed_us = time_us(
          [&] { res = starring::embed_longest_ring(g, canon.faults, sopts.embed); });
      rp.minflt[n].push_back(static_cast<double>(minflt_now() - f0));
      if (!res) {
        ++rp.mismatches;
        continue;
      }
      count_embed_stats(rp, *res);
      time_phases(rp, n, canon.faults, sopts.embed);
      if (n <= 7) {
        // Pool overhead at small n: the same embed on one thread and
        // on every core.
        EmbedOptions one = sopts.embed;
        one.num_threads = 1;
        EmbedOptions all = sopts.embed;
        all.num_threads = nproc;
        rp.pool_t1 += time_us([&] { (void)starring::embed_longest_ring(g, canon.faults, one); });
        rp.pool_tn += time_us([&] { (void)starring::embed_longest_ring(g, canon.faults, all); });
      }
      if (stored.insert(canon.key).second) {
        rp.entry_bytes += static_cast<double>(res->ring.size() * sizeof(VertexId) +
                                              canon.key.size());
        rp.entries += 1;
      }
      ring = std::make_shared<const std::vector<VertexId>>(std::move(res->ring));
      insert_us = time_us([&] { cache.insert(canon.key, ring); });
      rp.insert_us.push_back(insert_us);
    }
    ServiceResponse resp;
    resp.id = req.id;
    resp.status = ServiceStatus::kOk;
    resp.cache_hit = !miss;
    const double relabel_us = time_us([&] {
      resp.ring = starring::relabel_ring(*ring, starring::inverse_of(canon.to_canonical), n);
    });
    double verify_us = 0;
    if (req.verify) {
      starring::RingReport rep;
      verify_us = time_us([&] { rep = starring::verify_healthy_ring(g, req.faults, resp.ring); });
      if (!rep.valid) ++rp.mismatches;
      resp.verified = true;
      rp.verify_ns_pv.push_back(verify_us * 1000 / static_cast<double>(resp.ring.size()));
    }
    if (whole.status != ServiceStatus::kOk || whole.ring != resp.ring) ++rp.mismatches;
    std::string bytes;
    const double format_us = time_us([&] {
      std::ostringstream os;
      starring::write_response(os, resp);
      bytes = os.str();
    });
    const double parse_us = time_us([&] {
      std::istringstream is(bytes);
      if (!starring::read_response(is)) ++rp.mismatches;
    });
    ++rp.requests;
    rp.canonical_us.push_back(canon_us);
    rp.lookup_us.push_back(lookup_us);
    rp.relabel_ns_pv.push_back(relabel_us * 1000 / static_cast<double>(resp.ring.size()));
    rp.format_us.push_back(format_us);
    rp.parse_us.push_back(parse_us);
    rp.resp_bytes.push_back(static_cast<double>(bytes.size()));
    rp.io_us[n].push_back(format_us + parse_us);
    if (miss && n <= 7)
      rp.overhead_us.push_back(whole_us - (canon_us + lookup_us + embed_us +
                                           insert_us + relabel_us + verify_us));
  }
  return rp;
}

// Per-n construction metrics, zero where the workload ran no miss at n.
void put_core_metrics(Metrics& m, const Replay& rp) {
  for (int n = 5; n <= 10; ++n) {
    const std::string s = ".n" + std::to_string(n);
    const auto get = [&](const std::map<int, std::vector<double>>& mp) {
      const auto it = mp.find(n);
      return it == mp.end() ? std::vector<double>{} : it->second;
    };
    const auto part = get(rp.partition_us);
    const auto sr = get(rp.super_ring_us);
    const auto ch = get(rp.chain_ms);
    const auto mf = get(rp.minflt);
    m.set("embed.partition_us" + s, median_of(part), "us", part.size());
    m.set("embed.super_ring_us" + s, median_of(sr), "us", sr.size());
    m.set("embed.chain_ms" + s, median_of(ch), "ms", ch.size());
    m.set("embed.minflt_per_call" + s, mean(mf), "count", mf.size());
  }
  m.set("embed.oracle_misses", rp.oracle_misses, "count", static_cast<std::size_t>(rp.rings));
  m.set("embed.closure_attempts_per_ring",
        rp.rings > 0 ? rp.closure_attempts / rp.rings : 0, "ratio",
        static_cast<std::size_t>(rp.rings));
  m.set("embed.prewarm_s", rp.prewarm_s, "s", 1);
}

// --- the ledger --------------------------------------------------------------------------------
//
// Self time per layer for the requests around the end-to-end median
// (the 45th-55th percentile band), so the layers plus an explicit
// unattributed remainder add up to the p50.

struct LedgerRow {
  double e2e_us = 0;
  std::map<std::string, double> layer_us;
};

const std::vector<std::string> kLedgerLayers = {
    "net", "io", "service", "canonical", "cache", "core", "relabel", "verify"};

void put_ledger(Metrics& m, std::vector<LedgerRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) { return a.e2e_us < b.e2e_us; });
  const std::size_t lo = rows.size() * 45 / 100;
  const std::size_t hi = std::max(lo + 1, rows.size() * 55 / 100);
  std::map<std::string, double> sum;
  double e2e = 0;
  std::size_t k = 0;
  for (std::size_t i = lo; i < hi && i < rows.size(); ++i, ++k) {
    e2e += rows[i].e2e_us;
    for (const auto& [layer, us] : rows[i].layer_us) sum[layer] += us;
  }
  const double denom = k > 0 ? static_cast<double>(k) : 1.0;
  double attributed = 0;
  for (const std::string& layer : kLedgerLayers) {
    const double v = sum[layer] / denom;
    attributed += v;
    m.set("ledger." + layer + "_us", v, "us", k);
  }
  m.set("ledger.e2e_p50_us", e2e / denom, "us", k);
  m.set("unattributed_share", e2e > 0 ? (e2e / denom - attributed) / (e2e / denom) : 0,
        "ratio", k);
}

/// Spans of one request, grouped from every process's TRACE dump by
/// the trace id the request carried (= its wire id).
struct RequestSpans {
  std::map<std::string, double> us;  // name -> summed duration
  double proxy_self_us = -1;
};

std::map<std::uint64_t, RequestSpans> group_spans(
    const std::vector<starring::TraceDump>& dumps) {
  std::map<std::uint64_t, RequestSpans> out;
  std::map<std::uint64_t, std::pair<std::uint64_t, double>> proxy_root;  // trace -> (span, dur)
  std::map<std::uint64_t, double> forward_child;                        // parent span -> dur
  for (const auto& d : dumps)
    for (const auto& s : d.spans) {
      const double us = static_cast<double>(s.dur_ns) / 1000.0;
      out[s.trace_id].us[s.name] += us;
      if (s.name == "proxy.request") proxy_root[s.trace_id] = {s.span_id, us};
      if (s.name.rfind("proxy.forward.", 0) == 0) forward_child[s.parent_id] += us;
    }
  for (const auto& [tid, root] : proxy_root)
    out[tid].proxy_self_us = root.second - forward_child[root.first];
  return out;
}

double span(const RequestSpans& rs, const char* name) {
  const auto it = rs.us.find(name);
  return it == rs.us.end() ? 0 : it->second;
}

/// Ledger rows for a daemon workload: daemon-side spans, the replayed
/// codec cost per n, and the daemon's system CPU apportioned by ring
/// length as the socket/pipe write cost.
std::vector<LedgerRow> daemon_ledger(const Book& book, const PhaseResult& pr,
                                     const std::map<std::uint64_t, RequestSpans>& spans,
                                     const Replay& rp, double stime_s) {
  std::map<int, double> io_by_n;
  for (const auto& [n, v] : rp.io_us) io_by_n[n] = mean(v);
  double total_len = 0;
  for (const std::size_t i : pr.idx)
    if (book.at(i).ok()) total_len += static_cast<double>(book.at(i).gen.expect_len);
  std::vector<LedgerRow> rows;
  for (const std::size_t i : pr.idx) {
    const Entry& e = book.at(i);
    if (!e.ok()) continue;
    LedgerRow row;
    row.e2e_us = e.latency_ms() * 1000;
    const auto it = spans.find(e.gen.req.id);
    if (it != spans.end()) {
      const RequestSpans& rs = it->second;
      const double canon = span(rs, "svc.canonicalize");
      const double probe = span(rs, "svc.cache_probe");
      const double embed = span(rs, "svc.embed");
      const double relabel = span(rs, "svc.relabel");
      const double verify = span(rs, "svc.verify");
      row.layer_us["canonical"] = canon;
      row.layer_us["cache"] = probe;
      row.layer_us["core"] = embed;
      row.layer_us["relabel"] = relabel;
      row.layer_us["verify"] = verify;
      row.layer_us["service"] =
          span(rs, "svc.request") - (canon + probe + embed + relabel + verify);
    }
    row.layer_us["io"] = io_by_n[e.gen.req.n];
    if (total_len > 0)
      row.layer_us["net"] =
          stime_s * 1e6 * static_cast<double>(e.gen.expect_len) / total_len;
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- workloads ---------------------------------------------------------------------------------

struct Result {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  JsonObject meta;
};

void account(Result& r, const Outcome& o) {
  r.attempted += o.attempted;
  r.failed += o.failed;
}

/// Wrong answers anywhere in the book (setup probes, warm-up, every
/// phase), requests outside a bisection probe that were not answered ok
/// (rejected, errored or missing), plus stray or unparseable responses.
std::size_t count_wrong(const Book& book) {
  std::size_t w = book.strays() + book.framing_errors();
  for (std::size_t i = 0; i < book.size(); ++i) {
    const Entry& e = book.at(i);
    if (e.may_reject ? e.wrong : !e.ok()) ++w;
  }
  return w;
}

/// One request of the stream's first class at the largest n: the
/// readiness probe every setup sends.
std::vector<Generated> probe_request(Book& book, const Mix& mix, std::uint64_t seed) {
  RequestStream probe(mix, seed, 0x960BE, book.next_id());
  std::vector<Generated> g = generate(probe, 1, false);
  return g;
}

/// The per-layer metrics every daemon workload reports: /proc deltas of
/// the daemon(s), their STATS and TRACE, and the in-process replay.
void put_daemon_layers(Metrics& m, const Outcome& o, const Replay& rp, const ProcSample& d,
                       const std::vector<std::string>& stats,
                       const std::vector<starring::TraceDump>& dumps) {
  const double responses = static_cast<double>(o.ok + o.rejected);
  m.set("net.write_syscalls_per_resp",
        responses > 0 ? static_cast<double>(d.syscw) / responses : 0, "count", o.ok);
  m.set("net.sys_cpu_share",
        d.utime_s + d.stime_s > 0 ? d.stime_s / (d.utime_s + d.stime_s) : 0, "ratio", 1);
  m.set("io.resp_bytes_mean", mean(rp.resp_bytes), "bytes", rp.resp_bytes.size());
  m.set("io.format_us_p50", median_of(rp.format_us), "us", rp.format_us.size());
  m.set("io.parse_us_p50", median_of(rp.parse_us), "us", rp.parse_us.size());
  const double hit_p50_us = percentile(o.lat_hit_ms, 0.5) * 1000;
  m.set("io.wire_share",
        hit_p50_us > 0 ? (median_of(rp.format_us) + median_of(rp.parse_us)) / hit_p50_us : 0,
        "ratio", o.lat_hit_ms.size());

  double hits = 0, misses = 0, batches = 0, evictions = 0;
  for (const std::string& s : stats) {
    hits += prom(s, "svc_cache_hits");
    misses += prom(s, "svc_cache_misses");
    batches += prom(s, "svc_batches");
    evictions += prom(s, "svc_cache_evictions");
  }
  std::vector<double> queue_wait;
  for (const auto& dump : dumps)
    for (const auto& s : dump.spans)
      if (s.name == "svc.queue_wait")
        queue_wait.push_back(static_cast<double>(s.dur_ns) / 1000.0);
  m.set("service.queue_wait_us_p99", percentile(queue_wait, 0.99), "us", queue_wait.size());
  m.set("service.batch_size_mean", batches > 0 ? (hits + misses) / batches : 0, "count",
        static_cast<std::size_t>(batches));
  m.set("service.rejected_frac",
        o.attempted > 0 ? static_cast<double>(o.rejected) / static_cast<double>(o.attempted) : 0,
        "ratio", o.attempted);
  m.set("service.overhead_us_p50", median_of(rp.overhead_us), "us", rp.overhead_us.size());
  m.set("canonical.us_p50", median_of(rp.canonical_us), "us", rp.canonical_us.size());
  m.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
        static_cast<std::size_t>(hits + misses));
  m.set("cache.lookup_us_p50", median_of(rp.lookup_us), "us", rp.lookup_us.size());
  m.set("cache.insert_us_p50", median_of(rp.insert_us), "us", rp.insert_us.size());
  m.set("cache.evictions_per_kreq",
        hits + misses > 0 ? evictions * 1000 / (hits + misses) : 0, "count",
        static_cast<std::size_t>(hits + misses));
  m.set("cache.bytes_per_entry", rp.entries > 0 ? rp.entry_bytes / rp.entries : 0, "bytes",
        static_cast<std::size_t>(rp.entries));
  m.set("relabel.ns_per_vertex", median_of(rp.relabel_ns_pv), "ns", rp.relabel_ns_pv.size());
  m.set("verify.ns_per_vertex", median_of(rp.verify_ns_pv), "ns", rp.verify_ns_pv.size());
  m.set("verify.latency_p50_ms", percentile(o.lat_verify_ms, 0.5), "ms", o.lat_verify_ms.size());
  put_core_metrics(m, rp);
  m.set("pool.speedup.small", rp.pool_tn > 0 ? rp.pool_t1 / rp.pool_tn : 0, "ratio",
        rp.pool_tn > 0 ? 1 : 0);
}

/// One open-loop phase at the nominal rate against freshly launched,
/// traced serving processes, with everything they expose afterwards.
struct TracedPhase {
  PhaseResult phase;
  ProcSample cpu;  // summed over the serving processes
  std::vector<std::string> daemon_stats;
  std::string proxy_stats;
  std::vector<starring::TraceDump> dumps;  // every process's TRACE
};

TracedPhase traced_phase(const Config& cfg, Book& book, const Mix& mix, bool proxy,
                         int tag, double secs) {
  TracedPhase t;
  auto dep = launch(cfg, proxy, true, tag);
  {
    TcpClients clients(dep->client_port, book);
    const auto before = dep->sample();
    t.phase = open_loop(book, clients, mix, cfg.seed, 1, kNominalRps, secs, 2.0, true);
    t.cpu = sum_delta(before, dep->sample());
  }
  for (const int port : dep->daemon_ports) {
    t.daemon_stats.push_back(query_stats(port));
    t.dumps.push_back(query_trace(port));
  }
  if (proxy) {
    t.proxy_stats = query_stats(dep->proxy_port);
    t.dumps.push_back(query_trace(dep->proxy_port));
  }
  return t;
}

void serve_workload(const Config& cfg, Result& out) {
  if (const CpuSplit* split = cpu_split(cfg.nproc))
    ::sched_setaffinity(0, sizeof(cpu_set_t), &split->client);
  const Mix mix = serve_mix();
  Book book;
  Metrics& m = out.metrics;
  if (!cfg.trace) {
    // Each of three deployments is timed from spawn to its first probe
    // answer (set-up), then serves a third of the nominal phase; the
    // last one also serves the bisection.  Pooling the nominal phase
    // over three daemon processes keeps one process's luck (where its
    // threads land, how its writes coalesce) from deciding the run.
    std::vector<double> setups;
    std::unique_ptr<Deployment> dep;
    std::unique_ptr<TcpClients> clients;
    PhaseResult nominal;
    ProcSample d;
    double rss_mb = 0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      clients.reset();
      dep.reset();
      const auto t0 = Clock::now();
      dep = launch(cfg, false, false, k);
      clients = std::make_unique<TcpClients>(dep->client_port, book);
      std::vector<std::size_t> idx = book.add(probe_request(book, mix, cfg.seed));
      const auto now = Clock::now();
      book.mark_sent(idx[0], now, now);
      clients->send(0, wire_bytes(book.at(idx[0]).gen.req));
      book.wait_answered(idx, now + std::chrono::seconds(30));
      if (!book.at(idx[0]).ok()) die("setup probe failed");
      setups.push_back(seconds_since(t0));

      const auto before = dep->sample();
      const PhaseResult seg = open_loop(book, *clients, mix, cfg.seed, 1 + k, kNominalRps,
                                        cfg.seconds * 0.42 / kSetupRepeats, 2.0, false);
      const ProcSample dk = sum_delta(before, dep->sample());
      d.utime_s += dk.utime_s;
      d.stime_s += dk.stime_s;
      rss_mb = std::max(rss_mb, static_cast<double>(dk.vm_hwm_kb) / 1024);
      nominal.idx.insert(nominal.idx.end(), seg.idx.begin(), seg.idx.end());
      nominal.duration_s += seg.duration_s;
      nominal.answer_span_s += seg.answer_span_s;
    }
    m.set("setup_s", median_of(setups), "s", setups.size());
    const Outcome o = summarize(book, nominal.idx);
    account(out, o);
    put_latency_metrics(m, o, kServeTail, 5, 7);
    m.set("server_cpu_ms_per_req",
          o.ok > 0 ? (d.utime_s + d.stime_s) * 1000 / static_cast<double>(o.ok) : 0,
          "ms", o.ok);
    m.set("server_rss_mb", rss_mb, "MB", kSetupRepeats);
    m.set("throughput_rps", static_cast<double>(o.ok) / nominal.answer_span_s, "1/s", o.ok);

    RateBisection bis(kBisectLo, kBisectHi);
    const int probes = probes_for_resolution(kBisectLo, kBisectHi, kResolution);
    const double probe_secs = cfg.seconds * 0.5 / probes;
    std::string trail;
    int probed = 0;
    const auto probe = [&](double rate) {
      // Stragglers drain before the next probe, so no probe inherits
      // another's backlog; a response still missing then counts failed.
      const PhaseResult pr = open_loop(book, *clients, mix, cfg.seed, 100 + probed++, rate,
                                       probe_secs, kProbeDrainS, false, true);
      const bool pass = probe_passes(book, pr, rate);
      const Outcome po = summarize(book, pr.idx);
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s%.1f%c(p50 %.0f tail %.0f fail %zu)",
                    trail.empty() ? "" : " ", rate, pass ? '+' : '-',
                    percentile(po.lat_ms, 0.5), percentile(po.lat_ms, kServeTail), po.failed);
      trail += buf;
      return pass;
    };
    bool passed_any = false;
    for (int p = 0; p < probes; ++p) {
      const bool pass = probe(bis.next_rate());
      passed_any = passed_any || pass;
      bis.record(pass);
    }
    // The bisection assumes its floor passes; when nothing above it did,
    // the floor is probed too, and goodput is 0 if it fails.
    const double goodput = passed_any || probe(kBisectLo) ? bis.result() : 0;
    m.set("goodput_rps", goodput, "1/s", static_cast<std::size_t>(probed));
    out.meta.str("bisection", trail)
        .num("bisection_probe_s", probe_secs)
        .num("bisection_resolution", bis.hi() / bis.lo());
    clients.reset();
    out.meta.num("rings_verified", static_cast<double>(verify_kept_rings(book)));
    out.wrong = count_wrong(book);
    return;
  }

  // Traced run: the same stream to an untraced daemon, then to a traced
  // one (the p50 ratio is the tracing overhead), then — for the cluster
  // layer — through a traced proxy and 3 shards, then the replay.
  const double phase_secs = cfg.seconds * 0.2;
  // The same stream, untraced, once per client reader: the polling
  // reader's p50 is the baseline of the tracing overhead, and the
  // blocking reader's CPU and latency show what the daemon's write path
  // costs when the client sleeps in read().
  const auto untraced = [&](Reader reader, int tag) {
    auto dep = launch(cfg, false, false, tag);
    TcpClients clients(dep->client_port, book, reader);
    const auto before = dep->sample();
    const PhaseResult a = open_loop(book, clients, mix, cfg.seed, 1, kNominalRps,
                                    phase_secs, 2.0, false);
    const ProcSample da = sum_delta(before, dep->sample());
    const Outcome oa = summarize(book, a.idx);
    account(out, oa);
    return std::make_pair(oa, oa.ok > 0 ? (da.utime_s + da.stime_s) * 1000 /
                                              static_cast<double>(oa.ok)
                                        : 0);
  };
  const auto [polling, polling_cpu_ms] = untraced(Reader::kPolling, 0);
  const auto [blocking, blocking_cpu_ms] = untraced(Reader::kBlocking, 3);
  const double p50_untraced = percentile(polling.lat_ms, 0.5);
  m.set("net.blocking_client.cpu_ms_per_req", blocking_cpu_ms, "ms", blocking.ok);
  m.set("net.blocking_client.cpu_ratio",
        polling_cpu_ms > 0 ? blocking_cpu_ms / polling_cpu_ms : 0, "ratio", blocking.ok);
  m.set("net.blocking_client.latency_p50_ms", percentile(blocking.lat_ms, 0.5), "ms",
        blocking.lat_ms.size());
  const TracedPhase tb = traced_phase(cfg, book, mix, false, 1, phase_secs);
  const TracedPhase tc = traced_phase(cfg, book, mix, true, 2, phase_secs);
  const PhaseResult& b = tb.phase;
  const ProcSample& d = tb.cpu;
  const Outcome o = summarize(book, b.idx);
  account(out, o);
  account(out, summarize(book, tc.phase.idx));

  starring::ServiceOptions sopts;
  sopts.cache_capacity = kSmallCache;
  sopts.embed.prewarm_oracle = true;
  const Replay rp = replay(book, b.idx, sopts, cfg.seconds * 0.2, cfg.nproc);
  out.wrong += rp.mismatches;

  put_daemon_layers(m, o, rp, d, tb.daemon_stats, tb.dumps);

  const auto spans = group_spans(tb.dumps);
  std::vector<double> proxy_self;
  for (const auto& [tid, rs] : group_spans(tc.dumps))
    if (rs.proxy_self_us >= 0) proxy_self.push_back(rs.proxy_self_us);
  m.set("proxy.self_us_p50", median_of(proxy_self), "us", proxy_self.size());
  m.set("proxy.failovers", prom(tc.proxy_stats, "cluster_failover"), "count", 1);
  std::vector<double> per_shard;
  for (const std::string& s : tc.daemon_stats) per_shard.push_back(prom(s, "svc_requests"));
  const double shard_mean = mean(per_shard);
  m.set("proxy.shard_skew",
        shard_mean > 0 ? *std::max_element(per_shard.begin(), per_shard.end()) / shard_mean : 0,
        "ratio", per_shard.size());
  m.set("sender.lag_p99_ms", percentile(b.lag_ms, 0.99), "ms", b.lag_ms.size());
  const double p50_traced = percentile(o.lat_ms, 0.5);
  m.set("obs.trace_overhead_frac", p50_untraced > 0 ? p50_traced / p50_untraced - 1 : 0,
        "ratio", o.lat_ms.size());
  put_ledger(m, daemon_ledger(book, b, spans, rp, d.stime_s));
  out.meta.num("replayed_requests", static_cast<double>(rp.requests));
  out.meta.num("rings_verified", static_cast<double>(verify_kept_rings(book)));
  out.wrong += count_wrong(book);
}

void hit_workload(const Config& cfg, Result& out) {
  const Mix mix = hit_mix();
  Book book;
  Metrics& m = out.metrics;
  const std::string& daemon = cfg.daemon;
  // Warm-up: every hot class once, canonical frame, so each timed
  // request is a cache hit.
  const auto warm_set = [&] {
    std::vector<Generated> gens;
    for (std::size_t c = 0; c < mix.classes_per_n; ++c) {
      Generated g;
      g.req.id = book.next_id() + gens.size();
      g.req.n = 8;
      g.req.faults = RequestStream::class_faults(cfg.seed, 8, c, false);
      g.expect_len = starring::factorial(8) - 2 * g.req.faults.num_vertex_faults();
      g.check_ring = c == 0;
      gens.push_back(std::move(g));
    }
    return gens;
  };
  const auto start = [&](bool traced, int tag) {
    std::vector<std::string> argv = {daemon, "--threads", std::to_string(kHitDaemonThreads)};
    if (traced) argv.push_back("--trace");
    return std::make_unique<Child>(
        argv, cfg.work_dir + "/" + cfg.workload + "-" + std::to_string(tag) + ".log", true,
        std::vector<std::string>{"STARRING_TRACE_BUFFER=65536"});
  };

  if (!cfg.trace) {
    std::vector<double> setups;
    std::unique_ptr<Child> child;
    std::unique_ptr<StdioClient> client;
    for (int k = 0; k < kSetupRepeats; ++k) {
      client.reset();
      child.reset();
      const auto t0 = Clock::now();
      child = start(false, k);
      client = std::make_unique<StdioClient>(*child);
      closed_loop(book, *client, nullptr, warm_set(), kHitWindow, 0, false);
      setups.push_back(seconds_since(t0));
    }
    m.set("setup_s", median_of(setups), "s", setups.size());
    const auto before = read_proc(child->pid());
    RequestStream stream(mix, cfg.seed, 1, book.next_id());
    const PhaseResult pr = closed_loop(book, *client, &stream, {}, kHitWindow, cfg.seconds,
                                       false);
    const auto after = read_proc(child->pid());
    if (!before || !after) die("cannot read /proc for starringd");
    const Outcome o = summarize(book, pr.idx);
    account(out, o);
    put_latency_metrics(m, o, kHitTail, 8, 8);
    // Latency, per-vertex time and rates as medians over slices of the
    // run; a slice's rates count from its first send to its last answer.
    const auto over_slices = [&](auto&& stat) {
      return block_median(pr.idx.size(), kBlocks, [&](std::size_t b, std::size_t e) {
        const auto first = pr.idx.begin() + static_cast<std::ptrdiff_t>(b);
        const auto last = pr.idx.begin() + static_cast<std::ptrdiff_t>(e);
        const double secs =
            std::chrono::duration<double>(book.at(*(last - 1)).done - book.at(*first).sent)
                .count();
        return stat(summarize(book, {first, last}), secs);
      });
    };
    m.set("latency_p50_ms",
          over_slices([](const Outcome& s, double) { return percentile(s.lat_ms, 0.5); }),
          "ms", o.lat_ms.size());
    m.set("latency_tail_ms",
          over_slices([](const Outcome& s, double) { return percentile(s.lat_ms, kHitTail); }),
          "ms", o.lat_ms.size());
    m.set("ns_per_vertex.nhi",
          over_slices([](Outcome s, double) { return percentile(s.ns_per_vertex[8], 0.5); }),
          "ns", o.lat_ms.size());
    m.set("throughput_rps",
          over_slices([](const Outcome& s, double secs) {
            return static_cast<double>(s.ok) / secs;
          }),
          "1/s", o.ok);
    const auto within = [](const Outcome& s) {
      std::size_t in = 0;
      for (const double ms : s.lat_ms) in += ms <= kHitLatencyLimitMs ? 1 : 0;
      return in;
    };
    m.set("goodput_rps",
          over_slices([&](const Outcome& s, double secs) {
            return static_cast<double>(within(s)) / secs;
          }),
          "1/s", within(o));
    const ProcSample d = proc_delta(*before, *after);
    m.set("server_cpu_ms_per_req",
          o.ok > 0 ? (d.utime_s + d.stime_s) * 1000 / static_cast<double>(o.ok) : 0, "ms",
          o.ok);
    m.set("server_rss_mb", static_cast<double>(d.vm_hwm_kb) / 1024, "MB", 1);
    std::size_t hits = 0;
    for (const std::size_t i : pr.idx) hits += book.at(i).hit ? 1 : 0;
    if (hits != o.ok) out.meta.num("timed_misses", static_cast<double>(o.ok - hits));
    client.reset();
    if (child->stop() != 0) ++out.wrong;
    out.meta.num("rings_verified", static_cast<double>(verify_kept_rings(book)));
    out.wrong += count_wrong(book);
    return;
  }

  const double phase_secs = cfg.seconds * 0.3;
  double p50_untraced = 0;
  {
    auto child = start(false, 0);
    StdioClient client(*child);
    closed_loop(book, client, nullptr, warm_set(), kHitWindow, 0, false);
    RequestStream stream(mix, cfg.seed, 1, book.next_id());
    const PhaseResult a = closed_loop(book, client, &stream, {}, kHitWindow, phase_secs, false);
    p50_untraced = percentile(summarize(book, a.idx).lat_ms, 0.5);
  }
  auto child = start(true, 1);
  StdioClient client(*child);
  closed_loop(book, client, nullptr, warm_set(), kHitWindow, 0, true);
  const auto before = read_proc(child->pid());
  RequestStream stream(mix, cfg.seed, 1, book.next_id());
  const PhaseResult b = closed_loop(book, client, &stream, {}, kHitWindow, phase_secs, true);
  const auto after = read_proc(child->pid());
  if (!before || !after) die("cannot read /proc for starringd");
  const ProcSample d = proc_delta(*before, *after);
  const std::string stats = client.stats();
  const starring::TraceDump dump = client.trace();
  child.reset();
  const Outcome o = summarize(book, b.idx);
  account(out, o);

  starring::ServiceOptions sopts;
  sopts.embed.prewarm_oracle = true;
  // The traced daemon's warm-up requests sit right before its timed
  // stream in the book; replaying them first fills the replay's cache
  // the same way, so the replayed stream is all hits too.
  std::vector<std::size_t> seq;
  for (std::size_t i = b.idx.front() - mix.classes_per_n; i < b.idx.front(); ++i)
    seq.push_back(i);
  seq.insert(seq.end(), b.idx.begin(), b.idx.end());
  Replay rp = replay(book, seq, sopts, cfg.seconds * 0.3, cfg.nproc);
  out.wrong += rp.mismatches;
  // The warm-up misses are set-up work: the timed stream built nothing.
  rp.partition_us.clear();
  rp.super_ring_us.clear();
  rp.chain_ms.clear();
  rp.minflt.clear();
  rp.oracle_misses = 0;
  rp.closure_attempts = 0;
  rp.rings = 0;
  rp.insert_us.clear();

  put_daemon_layers(m, o, rp, d, {stats}, {dump});
  // No TCP, no proxy and no open-loop sender here.
  m.set("net.blocking_client.cpu_ms_per_req", 0, "ms", 0);
  m.set("net.blocking_client.cpu_ratio", 0, "ratio", 0);
  m.set("net.blocking_client.latency_p50_ms", 0, "ms", 0);
  m.set("proxy.self_us_p50", 0, "us", 0);
  m.set("proxy.failovers", 0, "count", 0);
  m.set("proxy.shard_skew", 0, "ratio", 0);
  m.set("sender.lag_p99_ms", 0, "ms", 0);
  const double p50_traced = percentile(o.lat_ms, 0.5);
  m.set("obs.trace_overhead_frac", p50_untraced > 0 ? p50_traced / p50_untraced - 1 : 0,
        "ratio", o.lat_ms.size());
  put_ledger(m, daemon_ledger(book, b, group_spans({dump}), rp, d.stime_s));
  out.meta.num("replayed_requests", static_cast<double>(rp.requests));
  out.meta.num("rings_verified", static_cast<double>(verify_kept_rings(book)));
  out.wrong += count_wrong(book);
}

EmbedOptions cold_options() {
  EmbedOptions eo;
  eo.num_threads = kColdThreads;
  eo.prewarm_oracle = true;
  return eo;
}

/// Child mode for embed-cold's set-up time: a fresh process prewarms
/// and embeds one instance, then reports.
int setup_probe(std::uint64_t seed) {
  const ColdInstance c = cold_instance(seed, 0);
  const auto res = starring::embed_longest_ring(StarGraph(c.n), c.faults, cold_options());
  std::printf("ready %zu\n", res ? res->ring.size() : 0);
  std::fflush(stdout);
  return res ? 0 : 1;
}

struct ColdCall {
  int n = 0;
  double embed_ms = 0;
  double verify_ms = 0;
  double cpu_s = 0;
  double phases_us = 0;  // traced calls: the phases replayed on their own
  bool wrong = false;
  std::uint64_t len = 0;
};

ColdCall cold_call(const ColdInstance& c, const EmbedOptions& eo, unsigned verify_threads,
                   Replay* rp) {
  ColdCall call;
  call.n = c.n;
  call.len = starring::factorial(c.n) - 2 * c.faults.num_vertex_faults();
  const StarGraph g(c.n);
  std::optional<starring::EmbedResult> res;
  const double cpu0 = cpu_now_s();
  const long f0 = minflt_now();
  call.embed_ms = time_us([&] { res = starring::embed_longest_ring(g, c.faults, eo); }) / 1000;
  const long f1 = minflt_now();
  call.cpu_s = cpu_now_s() - cpu0;
  if (!res || res->ring.size() != call.len) {
    call.wrong = true;
    return call;
  }
  if (rp != nullptr) {
    rp->minflt[c.n].push_back(static_cast<double>(f1 - f0));
    count_embed_stats(*rp, *res);
    call.phases_us = time_phases(*rp, c.n, c.faults, eo);
  }
  starring::RingReport rep;
  call.verify_ms = time_us([&] {
                     rep = starring::verify_healthy_ring(g, c.faults, res->ring, verify_threads);
                   }) /
                   1000;
  call.wrong = !rep.valid || rep.length != call.len;
  return call;
}

void cold_workload(const Config& cfg, Result& out) {
  Metrics& m = out.metrics;
  const EmbedOptions eo = cold_options();
  std::vector<ColdCall> calls;
  std::uint64_t next = 1;  // instance 0 is the set-up probe's
  const auto run_calls = [&](double secs, Replay* rp) {
    std::vector<ColdCall> batch;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < secs || batch.size() < 4)
      batch.push_back(cold_call(cold_instance(cfg.seed, next++), eo, cfg.nproc, rp));
    return batch;
  };
  const auto add_outcome = [&](const std::vector<ColdCall>& batch) {
    for (const ColdCall& c : batch) {
      ++out.attempted;
      if (c.wrong) {
        ++out.failed;
        ++out.wrong;
      }
    }
  };
  const auto p50_embed = [](const std::vector<ColdCall>& batch) {
    std::vector<double> v;
    for (const ColdCall& c : batch) v.push_back(c.embed_ms);
    return median_of(v);
  };

  if (!cfg.trace) {
    std::vector<double> setups;
    char self[4096] = {};
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (len <= 0) die("cannot resolve own path");
    for (int k = 0; k < kSetupRepeats; ++k) {
      Child child({self, "--setup-probe", "--seed", std::to_string(cfg.seed)},
                  cfg.work_dir + "/embed-cold-setup.log", true);
      starring::net::FdInBuf buf(child.from_fd());
      std::istream in(&buf);
      std::string word;
      std::uint64_t ring = 0;
      in >> word >> ring;
      setups.push_back(std::chrono::duration<double>(Clock::now() - child.started()).count());
      const ColdInstance c0 = cold_instance(cfg.seed, 0);
      if (word != "ready" || ring != starring::factorial(c0.n) - 2 * c0.faults.num_vertex_faults())
        ++out.wrong;
      if (child.stop() != 0) ++out.wrong;
    }
    m.set("setup_s", median_of(setups), "s", setups.size());
    // This process's own one-time costs (prewarm, pool spawn) stay out
    // of the timed calls.
    (void)cold_call(cold_instance(cfg.seed, 0), eo, cfg.nproc, nullptr);
    calls = run_calls(cfg.seconds, nullptr);
    add_outcome(calls);
    // Latency, per-vertex time and rates as medians over slices of the
    // run; a slice's rates count its calls over its summed embed time.
    struct Slice {
      std::vector<double> lat, lat_verify;
      std::map<int, std::vector<double>> npv;
      double cpu_s = 0, embed_s = 0;
      std::size_t within = 0;
    };
    const auto slice = [&](std::size_t b, std::size_t e) {
      Slice sl;
      for (std::size_t i = b; i < e; ++i) {
        const ColdCall& c = calls[i];
        sl.lat.push_back(c.embed_ms);
        sl.lat_verify.push_back(c.embed_ms + c.verify_ms);
        sl.npv[c.n].push_back(c.embed_ms * 1e6 / static_cast<double>(c.len));
        sl.cpu_s += c.cpu_s;
        sl.embed_s += c.embed_ms / 1000;
        sl.within += c.embed_ms <= kColdLatencyLimitMs ? 1 : 0;
      }
      return sl;
    };
    const std::size_t count = calls.size();
    const auto over_slices = [&](auto&& stat) {
      return block_median(count, kBlocks,
                          [&](std::size_t b, std::size_t e) { return stat(slice(b, e)); });
    };
    Slice all = slice(0, count);
    m.set("latency_p50_ms", over_slices([](const Slice& sl) { return median_of(sl.lat); }),
          "ms", count);
    m.set("latency_tail_ms",
          over_slices([](const Slice& sl) { return percentile(sl.lat, kColdTail); }), "ms",
          count);
    m.set("latency_p50_ms.verify", median_of(all.lat_verify), "ms", count);
    m.set("ns_per_vertex.nlo", median_of(all.npv[9]), "ns", all.npv[9].size());
    m.set("ns_per_vertex.nhi",
          over_slices([](Slice sl) { return median_of(sl.npv[10]); }), "ns",
          all.npv[10].size());
    m.set("server_cpu_ms_per_req", all.cpu_s * 1000 / static_cast<double>(count), "ms", count);
    const auto self_proc = read_proc(::getpid());
    m.set("server_rss_mb", self_proc ? static_cast<double>(self_proc->vm_hwm_kb) / 1024 : 0,
          "MB", 1);
    m.set("throughput_rps",
          over_slices([](const Slice& sl) {
            return static_cast<double>(sl.lat.size()) / sl.embed_s;
          }),
          "1/s", count);
    m.set("goodput_rps",
          over_slices([](const Slice& sl) { return static_cast<double>(sl.within) / sl.embed_s; }),
          "1/s", all.within);
    out.meta.num("rings_verified", static_cast<double>(calls.size()));
    return;
  }

  // Traced: untraced calls, then calls with the metrics layer and the
  // span recorder on, each also replayed phase by phase.
  Replay rp;
  rp.prewarm_s = time_us([&] {
                   starring::BlockOracle::prewarm_fault_free(eo.effective_threads());
                 }) / 1e6;
  (void)cold_call(cold_instance(cfg.seed, 0), eo, cfg.nproc, nullptr);
  const std::vector<ColdCall> a = run_calls(cfg.seconds * 0.3, nullptr);
  add_outcome(a);
  starring::obs::set_enabled(true);
  starring::obs::trace::set_enabled(true);
  const std::vector<ColdCall> b = run_calls(cfg.seconds * 0.5, &rp);
  starring::obs::trace::set_enabled(false);
  starring::obs::set_enabled(false);
  add_outcome(b);
  // In-process: no wire, no service, no proxy, no open-loop sender.
  const std::pair<const char*, const char*> untouched[] = {
      {"net.write_syscalls_per_resp", "count"}, {"net.sys_cpu_share", "ratio"},
      {"net.blocking_client.cpu_ms_per_req", "ms"}, {"net.blocking_client.cpu_ratio", "ratio"},
      {"net.blocking_client.latency_p50_ms", "ms"},
      {"io.resp_bytes_mean", "bytes"}, {"io.format_us_p50", "us"}, {"io.parse_us_p50", "us"},
      {"io.wire_share", "ratio"}, {"service.queue_wait_us_p99", "us"},
      {"service.batch_size_mean", "count"}, {"service.rejected_frac", "ratio"},
      {"service.overhead_us_p50", "us"}, {"canonical.us_p50", "us"},
      {"cache.hit_ratio", "ratio"}, {"cache.lookup_us_p50", "us"},
      {"cache.insert_us_p50", "us"}, {"cache.evictions_per_kreq", "count"},
      {"cache.bytes_per_entry", "bytes"}, {"relabel.ns_per_vertex", "ns"},
      {"pool.speedup.small", "ratio"}, {"proxy.self_us_p50", "us"},
      {"proxy.failovers", "count"}, {"proxy.shard_skew", "ratio"},
      {"sender.lag_p99_ms", "ms"}};
  for (const auto& [name, unit] : untouched) m.set(name, 0, unit, 0);
  std::vector<double> verify_npv, with_verify_ms;
  std::vector<LedgerRow> rows;
  for (const ColdCall& c : b) {
    if (c.wrong) continue;
    verify_npv.push_back(c.verify_ms * 1e6 / static_cast<double>(c.len));
    with_verify_ms.push_back(c.embed_ms + c.verify_ms);
    LedgerRow row;
    row.e2e_us = c.embed_ms * 1000;
    row.layer_us["core"] = c.phases_us;
    rows.push_back(row);
  }
  m.set("verify.ns_per_vertex", median_of(verify_npv), "ns", verify_npv.size());
  m.set("verify.latency_p50_ms", median_of(with_verify_ms), "ms", with_verify_ms.size());
  put_core_metrics(m, rp);
  m.set("obs.trace_overhead_frac", p50_embed(b) / p50_embed(a) - 1, "ratio", b.size());
  put_ledger(m, rows);
  out.meta.num("rings_verified", static_cast<double>(a.size() + b.size()));
}

int run(const Config& cfg) {
  Result out;
  const auto t0 = Clock::now();
  if (cfg.workload == "serve-small") {
    serve_workload(cfg, out);
  } else if (cfg.workload == "hit-stdio-n8") {
    hit_workload(cfg, out);
  } else if (cfg.workload == "embed-cold") {
    cold_workload(cfg, out);
  } else {
    die("unknown workload " + cfg.workload);
  }
  out.meta.num("nproc", cfg.nproc)
      .num("nominal_rps", kNominalRps)
      .num("tail_percentile", cfg.workload == "embed-cold"     ? kColdTail
                              : cfg.workload == "hit-stdio-n8" ? kHitTail
                                                               : kServeTail)
      .num("latency_limit_ms", cfg.workload == "embed-cold"     ? kColdLatencyLimitMs
                               : cfg.workload == "hit-stdio-n8" ? kHitLatencyLimitMs
                                                                : kLatencyLimitMs)
      .num("wall_s", seconds_since(t0));
  JsonObject report;
  report.str("workload", cfg.workload)
      .num("seed", static_cast<double>(cfg.seed))
      .num("trace", cfg.trace ? 1 : 0)
      .raw("correct", out.wrong == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(out.attempted))
      .num("failed", static_cast<double>(out.failed))
      .num("wrong", static_cast<double>(out.wrong))
      .raw("metrics", out.metrics.json())
      .raw("meta", out.meta.dump());
  std::cout << report.dump() << std::endl;
  return out.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Config cfg;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) e2e::die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = val();
    else if (a == "--seed") cfg.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(val().c_str());
    else if (a == "--trace") cfg.trace = val() == "1";
    else if (a == "--daemon") cfg.daemon = val();
    else if (a == "--proxy") cfg.proxy = val();
    else if (a == "--work-dir") cfg.work_dir = val();
    else if (a == "--setup-probe") probe = true;
    else e2e::die("unknown argument " + a);
  }
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::signal(SIGPIPE, SIG_IGN);
  if (probe) return e2e::setup_probe(cfg.seed);
  if (cfg.daemon.empty() || cfg.proxy.empty() || cfg.work_dir.empty())
    e2e::die("--daemon, --proxy and --work-dir are required");
  return e2e::run(cfg);
}
