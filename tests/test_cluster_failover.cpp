// Process-level cluster tests: spawn real starringd shards and a real
// starring-proxy, SIGKILL the owner of a class mid-conversation, and
// assert a replica serves the retry (`status ok`, cluster.failover
// counted).  A second test storms the proxy's failpoints via the
// STARRING_FAILPOINTS environment and asserts every request still
// reaches a terminal status.  A third checks that both daemons refuse
// malformed numeric flags with their usage message and exit status 2.
//
// These tests exec the binaries the build just produced, located
// relative to /proc/self/exe (build/tests/ -> build/src/...).  If the
// binaries are missing (component build), the tests skip.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_map.hpp"
#include "fault/generators.hpp"
#include "graph/graph.hpp"
#include "loadgen/loadgen.hpp"
#include "service/canonical.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring {
namespace {

std::string build_dir() {
  // /proc/self/exe = <build>/tests/test_cluster_failover
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return {};
  buf[len] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  path.resize(slash);  // .../tests
  const auto slash2 = path.rfind('/');
  if (slash2 == std::string::npos) return {};
  path.resize(slash2);  // <build>
  return path;
}

bool file_exists(const std::string& p) {
  return ::access(p.c_str(), X_OK) == 0;
}

/// fork+exec with stdin from /dev/null, stderr redirected to
/// `stderr_path` (the daemons announce their kernel-assigned port
/// there) and optional extra environment entries of the form
/// NAME=VALUE.
pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stderr_path,
            const std::vector<std::string>& extra_env = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_RDONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, 0);
    ::close(null_fd);
  }
  const int err_fd =
      ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err_fd >= 0) {
    ::dup2(err_fd, 2);
    ::close(err_fd);
  }
  for (const std::string& kv : extra_env) {
    const auto eq = kv.find('=');
    ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv)
    cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  std::perror("execv");
  std::_Exit(127);
}

/// Poll a daemon's captured stderr for its "listening on
/// 127.0.0.1:<port>" line; -1 on timeout.
int wait_for_port(const std::string& stderr_path, int timeout_ms = 10000) {
  const char* needle = "listening on 127.0.0.1:";
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    std::ifstream f(stderr_path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const auto pos = text.find(needle);
    if (pos != std::string::npos) {
      const int port = std::atoi(text.c_str() + pos + std::strlen(needle));
      if (port > 0) return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// Client connections bound their reads, so a wedged server fails the
/// test instead of hanging it.
constexpr int kReadTimeoutMs = 20000;
constexpr int kWriteTimeoutMs = 5000;

class ClusterProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::signal(SIGPIPE, SIG_IGN);
    bdir_ = build_dir();
    starringd_ = bdir_ + "/src/service/starringd";
    proxy_ = bdir_ + "/src/cluster/starring-proxy";
    if (!file_exists(starringd_) || !file_exists(proxy_))
      GTEST_SKIP() << "service binaries not built";
    char tmpl[] = "/tmp/starring-cluster-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (const pid_t pid : children_)
      if (pid > 0) ::kill(pid, SIGKILL);
    for (const pid_t pid : children_)
      if (pid > 0) ::waitpid(pid, nullptr, 0);
  }

  /// Reserve a free loopback port by binding and immediately closing a
  /// listener (SO_REUSEADDR on the daemon side makes the handoff safe).
  static int reserve_port() {
    int port = 0;
    std::string err;
    const int fd = net::listen_loopback(0, 1, &port, &err);
    if (fd < 0) return -1;
    ::close(fd);
    return port;
  }

  /// Boot `count` shards plus the proxy; fills shard_pids_/ports and
  /// returns the proxy endpoint.
  net::Endpoint boot_cluster(int count,
                             const std::vector<std::string>& proxy_extra,
                             const std::vector<std::string>& proxy_env) {
    std::ostringstream map;
    map << "starring-shard-map v1\nepoch 1\nreplication 2\nshards "
        << count << "\n";
    for (int i = 0; i < count; ++i) {
      shard_ports_.push_back(reserve_port());
      EXPECT_GT(shard_ports_.back(), 0);
      map << "shard " << i << " 127.0.0.1:" << shard_ports_.back() << "\n";
    }
    map << "end\n";
    map_path_ = dir_ + "/shards.map";
    std::ofstream(map_path_) << map.str();

    for (int i = 0; i < count; ++i) {
      const std::string log = dir_ + "/shard" + std::to_string(i) + ".log";
      const pid_t pid = spawn(
          {starringd_, "--listen", std::to_string(shard_ports_[i]),
           "--shard-id", std::to_string(i), "--shard-map", map_path_},
          log);
      children_.push_back(pid);
      shard_pids_.push_back(pid);
      EXPECT_EQ(wait_for_port(log), shard_ports_[i]) << "shard " << i;
    }

    std::vector<std::string> argv = {proxy_, "--shard-map", map_path_,
                                     "--listen", "0"};
    argv.insert(argv.end(), proxy_extra.begin(), proxy_extra.end());
    const std::string log = dir_ + "/proxy.log";
    children_.push_back(spawn(argv, log, proxy_env));
    const int port = wait_for_port(log);
    EXPECT_GT(port, 0) << "proxy never announced its port";
    return net::Endpoint{"127.0.0.1", port};
  }

  static std::optional<ServiceResponse> embed(net::ClientConn& c,
                                              std::uint64_t id, int n,
                                              const FaultSet& f) {
    if (!c.send({.id = id, .n = n, .faults = f})) return std::nullopt;
    return read_response(c.in);
  }

  static std::optional<double> scrape_counter(const net::Endpoint& ep,
                                              const std::string& metric) {
    net::ClientConn c(ep, kReadTimeoutMs, kWriteTimeoutMs);
    if (!c.send({.kind = RequestKind::kStats})) return std::nullopt;
    const auto body = read_stats(c.in);
    if (!body) return std::nullopt;
    return loadgen::parse_scalar(*body, metric);
  }

  std::string bdir_, starringd_, proxy_, dir_, map_path_;
  std::vector<pid_t> children_;
  std::vector<pid_t> shard_pids_;
  std::vector<int> shard_ports_;
};

TEST_F(ClusterProcessTest, ReplicaServesAfterOwnerSigkill) {
  // Health polling off: the breaker state when the second request
  // arrives is exactly what the request path itself produced, so the
  // dead owner is still first in the candidate list and the serve
  // must go through the failover path (cluster.failover increments).
  const net::Endpoint proxy =
      boot_cluster(3, {"--health-interval-ms", "0", "--seed-threshold", "1"},
                   {});

  const int n = 5;
  const StarGraph g(n);
  const FaultSet faults = random_vertex_faults(g, 2, 11);
  const auto canon = canonicalize(n, faults);

  // Compute the owner in-process from the same map file — placement is
  // deterministic across processes (test_cluster pins this).
  std::string err;
  const auto map = cluster::ShardMap::load(map_path_, &err);
  ASSERT_TRUE(map.has_value()) << err;
  const int owner = map->owner(canon.key);
  ASSERT_GE(owner, 0);

  net::ClientConn c(proxy, kReadTimeoutMs, kWriteTimeoutMs);
  ASSERT_TRUE(c.ok());
  const auto first = embed(c, 1, n, faults);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, ServiceStatus::kOk);

  ASSERT_EQ(::kill(shard_pids_[owner], SIGKILL), 0);
  ::waitpid(shard_pids_[owner], nullptr, 0);
  shard_pids_[owner] = -1;

  // Same connection: the proxy's pooled upstream to the owner is now a
  // corpse; the retry must land on a replica and still answer ok.
  const auto second = embed(c, 2, n, faults);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, ServiceStatus::kOk) << second->reason;
  EXPECT_EQ(second->ring.size(), first->ring.size());

  const auto failover = scrape_counter(proxy, "starring_cluster_failover");
  ASSERT_TRUE(failover.has_value());
  EXPECT_GE(*failover, 1.0);
}

TEST_F(ClusterProcessTest, ChaosStormEveryRequestReachesTerminalStatus) {
  // Arm the proxy's failpoints through the environment, exactly as the
  // chaos CI stage does, and hammer it: some requests fail over, some
  // are answered error by the armed proxy.forward site — but every
  // single one gets a terminal response.
  const net::Endpoint proxy = boot_cluster(
      3, {"--health-interval-ms", "200"},
      {"STARRING_FAILPOINTS="
       "proxy.upstream=error@p:0.4,proxy.forward=error@p:0.1"});

  const int n = 4;
  const StarGraph g(n);
  net::ClientConn c(proxy, kReadTimeoutMs, kWriteTimeoutMs);
  ASSERT_TRUE(c.ok());
  int ok = 0, errors = 0, rejected = 0, timeouts = 0;
  const int kRequests = 60;
  for (int i = 0; i < kRequests; ++i) {
    const FaultSet faults =
        random_vertex_faults(g, 1, static_cast<std::uint64_t>(i));
    const auto resp = embed(c, static_cast<std::uint64_t>(i + 1), n, faults);
    ASSERT_TRUE(resp.has_value()) << "request " << i << " never answered";
    switch (resp->status) {
      case ServiceStatus::kOk: ++ok; break;
      case ServiceStatus::kError: ++errors; break;
      case ServiceStatus::kRejected: ++rejected; break;
      case ServiceStatus::kTimeout: ++timeouts; break;
      case ServiceStatus::kThrottled: ++rejected; break;
    }
  }
  EXPECT_EQ(ok + errors + rejected + timeouts, kRequests);
  EXPECT_GT(ok, 0) << "storm at p:0.4 should still let most through";
}

TEST(DaemonFlags, MalformedNumbersPrintUsageAndExit2) {
  const std::string bdir = build_dir();
  const std::string starringd = bdir + "/src/service/starringd";
  const std::string proxy = bdir + "/src/cluster/starring-proxy";
  if (!file_exists(starringd) || !file_exists(proxy))
    GTEST_SKIP() << "service binaries not built";
  char tmpl[] = "/tmp/starring-flags-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string log = std::string(tmpl) + "/stderr.log";

  // Each value is malformed, so each command line must stop at usage —
  // not bind a kernel-assigned port, run on every core, or cap
  // connections at a truncated number.
  const std::vector<std::vector<std::string>> cases = {
      {starringd, "--listen", "abc"},
      {starringd, "--threads", "x"},
      {starringd, "--max-conns", "5k"},
      {starringd, "--tenant-rate", "1x"},
      {starringd, "--tenant-burst", "fast"},
      {proxy, "--shard-map", "/nonexistent", "--listen", "abc"},
      {proxy, "--shard-map", "/nonexistent", "--listen", "0", "--max-conns",
       "5k"},
  };
  for (const std::vector<std::string>& argv : cases) {
    std::string cmd;
    for (const std::string& a : argv) cmd += " " + a;
    const pid_t pid = spawn(argv, log);
    ASSERT_GT(pid, 0);
    int status = 0;
    bool exited = false;
    for (int waited = 0; waited < 5000 && !exited; waited += 20) {
      exited = ::waitpid(pid, &status, WNOHANG) == pid;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
    EXPECT_TRUE(exited) << cmd << ": still running after 5 s";
    EXPECT_TRUE(exited && WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << cmd << ": status " << status;
    std::ifstream f(log);
    std::stringstream text;
    text << f.rdbuf();
    EXPECT_NE(text.str().find("usage:"), std::string::npos) << cmd;
  }
  std::remove(log.c_str());
  ::rmdir(tmpl);
}

}  // namespace
}  // namespace starring
