// The shared server loop (cluster/server.hpp): the out-of-band command
// table answered as a shard and as the proxy, the connection loop's
// framing-error and close contracts, the TCP acceptor's connection cap
// and bounded drain, the buffered socket writer under every response
// (util/net.hpp FdOutBuf), and the strict numeric flag parsers both
// daemons use.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/server.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/net.hpp"

namespace starring::cluster {
namespace {

/// What a shard's table received through its seed sink.
struct SeedLog {
  std::string key;
  std::vector<VertexId> ring;
  int calls = 0;
};

/// A standalone shard's table (no membership agent), as starringd
/// builds it outside member mode.
CommandTable shard_table(SeedLog& seeds, std::atomic<bool>& stop) {
  CommandTable t;
  t.health = [] {
    return HealthInfo{.shard_id = 2, .epoch = 7, .cache_entries = 5};
  };
  t.trace_process = "shard-2";
  t.seed = [&seeds](const std::string& key, std::vector<VertexId> ring) {
    seeds.key = key;
    seeds.ring = std::move(ring);
    ++seeds.calls;
  };
  t.static_epoch = 7;
  t.stop = &stop;
  return t;
}

/// The proxy's table: an observer agent, a slow-request report, no
/// seed sink.
CommandTable proxy_table(MembershipAgent& agent, std::atomic<bool>& stop) {
  CommandTable t;
  t.health = [] { return HealthInfo{.shard_id = -1, .epoch = 3}; };
  t.trace_process = "proxy";
  t.slow_report = [] { return std::string("# slow requests: 0 retained\n"); };
  t.agent = &agent;
  t.stop = &stop;
  return t;
}

std::unique_ptr<MembershipAgent> observer_agent() {
  MemberRecord self;
  self.addr = "127.0.0.1:1";
  self.shard_id = -1;
  self.incarnation = 1;
  auto agent = std::make_unique<MembershipAgent>(self, MembershipOptions{});
  agent->bootstrap_single();
  return agent;
}

/// Answer `req` into a fresh stream and return everything written.
std::string answer(ServiceRequest req, const CommandTable& t,
                   Answer expect = Answer::kDone) {
  std::stringstream out;
  std::mutex mu;
  EXPECT_EQ(answer_command(req, out, mu, t), expect);
  return out.str();
}

bool wait_for(const std::atomic<bool>& flag, int ms) {
  for (int waited = 0; waited < ms && !flag.load(); waited += 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return flag.load();
}

class CommandTableTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override { failpoint::clear(); }

  SeedLog seeds_;
  std::atomic<bool> stop_{false};
};

TEST_F(CommandTableTest, EmbedRequestsAreNotCommands) {
  const CommandTable t = shard_table(seeds_, stop_);
  EXPECT_EQ(answer({.kind = RequestKind::kEmbed, .id = 9, .n = 5}, t,
                   Answer::kEmbed),
            "");
}

TEST_F(CommandTableTest, ShardAnswersEveryCommand) {
  const CommandTable t = shard_table(seeds_, stop_);

  std::stringstream stats(answer({.kind = RequestKind::kStats}, t));
  EXPECT_TRUE(read_stats(stats).has_value());

  EXPECT_EQ(answer({.kind = RequestKind::kPing}, t), "PONG\n");

  std::stringstream health(answer({.kind = RequestKind::kHealth}, t));
  const auto h = read_health(health);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->shard_id, 2);
  EXPECT_EQ(h->epoch, 7u);
  EXPECT_EQ(h->cache_entries, 5u);

  std::stringstream trace(answer({.kind = RequestKind::kTrace}, t));
  const auto d = read_trace(trace);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->process, "shard-2");

  std::stringstream slow(answer({.kind = RequestKind::kSlow}, t));
  const auto report = read_stats(slow);
  ASSERT_TRUE(report.has_value());
  EXPECT_NE(report->find("not a proxy"), std::string::npos);

  const std::int64_t accepted = obs::counter("svc.seeds_accepted").value();
  const std::int64_t rejected = obs::counter("svc.seeds_rejected").value();
  EXPECT_EQ(answer({.kind = RequestKind::kSeed,
                    .n = 4,
                    .seed_key = "k4",
                    .seed_ring = {0, 1, 3}},
                   t),
            "SEED ok\n");
  EXPECT_EQ(seeds_.calls, 1);
  EXPECT_EQ(seeds_.key, "k4");
  EXPECT_EQ(seeds_.ring, (std::vector<VertexId>{0, 1, 3}));
  EXPECT_EQ(answer({.kind = RequestKind::kSeed, .n = 4, .seed_key = "k4"}, t),
            "SEED bad empty ring\n");
  EXPECT_EQ(seeds_.calls, 1);
  EXPECT_EQ(obs::counter("svc.seeds_accepted").value(), accepted + 1);
  EXPECT_EQ(obs::counter("svc.seeds_rejected").value(), rejected + 1);

  ServiceRequest gossip{.kind = RequestKind::kGossip};
  gossip.gossip = std::make_shared<GossipMessage>();
  EXPECT_EQ(answer(gossip, t), "GOSSIP bad not a cluster member\n");

  std::stringstream members(answer({.kind = RequestKind::kMembers}, t));
  const auto m = read_membership(members);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->epoch, 7u);
  EXPECT_TRUE(m->members.empty());

  EXPECT_EQ(answer({.kind = RequestKind::kLeave}, t), "LEAVE ok\n");
  EXPECT_TRUE(wait_for(stop_, 2000)) << "LEAVE never set the stop flag";
}

TEST_F(CommandTableTest, ProxyAnswersEveryCommand) {
  const auto agent = observer_agent();
  const CommandTable t = proxy_table(*agent, stop_);

  std::stringstream stats(answer({.kind = RequestKind::kStats}, t));
  EXPECT_TRUE(read_stats(stats).has_value());

  EXPECT_EQ(answer({.kind = RequestKind::kPing}, t), "PONG\n");

  std::stringstream health(answer({.kind = RequestKind::kHealth}, t));
  const auto h = read_health(health);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->shard_id, -1);
  EXPECT_EQ(h->epoch, 3u);

  std::stringstream trace(answer({.kind = RequestKind::kTrace}, t));
  const auto d = read_trace(trace);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->process, "proxy");

  std::stringstream slow(answer({.kind = RequestKind::kSlow}, t));
  EXPECT_EQ(read_stats(slow), "# slow requests: 0 retained\n");

  EXPECT_EQ(answer({.kind = RequestKind::kSeed,
                    .n = 4,
                    .seed_key = "k4",
                    .seed_ring = {0, 1, 3}},
                   t),
            "SEED bad proxy is not a shard\n");

  // A ping from a (closed) peer is merged and acked.
  auto ping = std::make_shared<GossipMessage>();
  ping->kind = GossipMessage::Kind::kPing;
  ping->from = MemberRecord{.addr = "127.0.0.1:2", .shard_id = 0,
                            .incarnation = 1};
  ServiceRequest gossip{.kind = RequestKind::kGossip};
  gossip.gossip = ping;
  std::stringstream ack(answer(gossip, t));
  const auto reply = read_gossip(ack);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, GossipMessage::Kind::kAck);
  EXPECT_EQ(reply->from.addr, "127.0.0.1:1");

  std::stringstream members(answer({.kind = RequestKind::kMembers}, t));
  const auto m = read_membership(members);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->epoch, agent->epoch());
  EXPECT_FALSE(m->members.empty());

  // LEAVE on an agent with no reachable peers: the announcement is a
  // no-op, the stop flag is still set.
  const auto leaver = observer_agent();
  const CommandTable lt = proxy_table(*leaver, stop_);
  EXPECT_EQ(answer({.kind = RequestKind::kLeave}, lt), "LEAVE ok\n");
  EXPECT_TRUE(wait_for(stop_, 2000)) << "LEAVE never set the stop flag";
}

TEST_F(CommandTableTest, FailArmsOrRefuses) {
  const CommandTable t = shard_table(seeds_, stop_);
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  EXPECT_EQ(answer({.kind = RequestKind::kFail,
                    .fail_config = "test.table=error@once"},
                   t),
            "FAIL ok\n");
  const std::string bad =
      answer({.kind = RequestKind::kFail, .fail_config = "nonsense@@"}, t);
  EXPECT_EQ(bad.rfind("FAIL bad ", 0), 0u) << bad;
}

TEST_F(CommandTableTest, DroppedGossipAckClosesTheConnection) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const auto agent = observer_agent();
  const CommandTable t = proxy_table(*agent, stop_);
  ASSERT_TRUE(failpoint::set("gossip.ack=error"));
  auto ping = std::make_shared<GossipMessage>();
  ping->from = MemberRecord{.addr = "127.0.0.1:2", .shard_id = 0,
                            .incarnation = 1};
  ServiceRequest gossip{.kind = RequestKind::kGossip};
  gossip.gossip = ping;
  EXPECT_EQ(answer(gossip, t, Answer::kClose), "");
}

TEST_F(CommandTableTest, ConnectionLoopContracts) {
  const CommandTable t = shard_table(seeds_, stop_);
  std::atomic<bool> quit{false};
  std::mutex mu;
  std::vector<std::uint64_t> embedded;
  const auto hook = [&](ServiceRequest& r) { embedded.push_back(r.id); };

  // Commands are answered inline, embed requests reach the hook, and a
  // clean EOF ends the loop successfully.
  std::stringstream in;
  write_request(in, {.kind = RequestKind::kPing});
  write_request(in, {.id = 4, .n = 5});
  std::stringstream out;
  EXPECT_TRUE(serve_requests(in, out, mu, quit, t, hook));
  EXPECT_EQ(out.str(), "PONG\n");
  EXPECT_EQ(embedded, std::vector<std::uint64_t>{4});

  // A framing error gets one `parse:` error response and stops.
  std::stringstream garbage("starring-request v9\nPING\n");
  std::stringstream err_out;
  EXPECT_FALSE(serve_requests(garbage, err_out, mu, quit, t, hook));
  const auto resp = read_response(err_out);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, ServiceStatus::kError);
  EXPECT_EQ(resp->reason.rfind("parse: ", 0), 0u) << resp->reason;
  EXPECT_FALSE(read_response(err_out).has_value()) << "PING was answered";
}

// --- acceptor ----------------------------------------------------------

class AcceptorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    std::string err;
    listen_fd_ = net::listen_loopback(0, 16, &port_, &err);
    ASSERT_GE(listen_fd_, 0) << err;
    table_.health = [] { return HealthInfo{}; };
  }

  /// Run the acceptor on a background thread; `returned_` flips when
  /// run_acceptor comes back.
  void start(const AcceptorOptions& opts) {
    acceptor_ = std::thread([this, opts] {
      run_acceptor(
          listen_fd_, opts, stop_,
          [this](TcpConn& conn) {
            serve_requests(conn.in, conn.out, conn.out_mu, conn.dead, table_,
                           [](ServiceRequest&) {});
          },
          [this] { on_stop_ran_ = true; });
      returned_ = true;
    });
  }

  void TearDown() override {
    stop_ = true;
    if (acceptor_.joinable()) acceptor_.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", port_}; }

  int listen_fd_ = -1;
  int port_ = 0;
  CommandTable table_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> returned_{false};
  std::atomic<bool> on_stop_ran_{false};
  std::thread acceptor_;
};

TEST_F(AcceptorTest, OverTheCapBouncesWithConnectionLimit) {
  start({.tag = "test", .max_conns = 1, .drain_timeout_ms = 2000});
  net::ClientConn first(endpoint(), 2000, 2000);
  ASSERT_TRUE(first.send({.kind = RequestKind::kPing}));
  std::string word;
  ASSERT_TRUE(first.in >> word);
  EXPECT_EQ(word, "PONG");  // registered and served

  const std::int64_t before = obs::counter("svc.rejected_conns").value();
  net::ClientConn second(endpoint(), 2000, 2000);
  ASSERT_TRUE(second.ok());
  const auto bounce = read_response(second.in);
  ASSERT_TRUE(bounce.has_value());
  EXPECT_EQ(bounce->status, ServiceStatus::kRejected);
  EXPECT_EQ(bounce->reason, "connection limit");
  EXPECT_EQ(obs::counter("svc.rejected_conns").value(), before + 1);

  // The first connection is unaffected by the bounce.
  ASSERT_TRUE(first.send({.kind = RequestKind::kPing}));
  ASSERT_TRUE(first.in >> word);
  EXPECT_EQ(word, "PONG");
}

TEST_F(AcceptorTest, StopHalfClosesLiveConnectionsWithinTheBudget) {
  const int budget_ms = 2000;
  start({.tag = "test", .max_conns = 4, .drain_timeout_ms = budget_ms});
  net::ClientConn live(endpoint(), budget_ms, budget_ms);
  ASSERT_TRUE(live.send({.kind = RequestKind::kPing}));
  std::string word;
  ASSERT_TRUE(live.in >> word);

  const auto t0 = std::chrono::steady_clock::now();
  stop_ = true;
  // The half-close ends the server's read loop, so the client reads a
  // clean EOF instead of waiting out its own timeout.
  std::string err;
  EXPECT_FALSE(read_response(live.in, &err).has_value());
  EXPECT_EQ(err, "");
  acceptor_.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(returned_);
  EXPECT_TRUE(on_stop_ran_);
  EXPECT_LT(elapsed, std::chrono::milliseconds(budget_ms / 2));
}

// --- buffered socket writes ---------------------------------------------

/// An ok response carrying the ids 0 .. count-1.
ServiceResponse ring_response(VertexId count) {
  ServiceResponse r;
  r.id = 5;
  r.status = ServiceStatus::kOk;
  for (VertexId v = 0; v < count; ++v) r.ring.push_back(v);
  return r;
}

/// A connected AF_UNIX socket pair: fds[0] is the writer's end,
/// non-blocking as the acceptor leaves a connection; fds[1] is the peer.
class FdOutBufTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override {
    failpoint::clear();
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
  }

  void open_pair(int type) {
    ASSERT_EQ(::socketpair(AF_UNIX, type, 0, fds_), 0);
    ASSERT_TRUE(net::set_nonblocking(fds_[0]));
  }

  int fds_[2] = {-1, -1};
};

TEST_F(FdOutBufTest, OneFlushedResponseIsOneWrite) {
  // On a SOCK_SEQPACKET socket every write(2) is one message, so the
  // message count is the write count.
  open_pair(SOCK_SEQPACKET);
  const ServiceResponse resp = ring_response(5040);  // an S_7 ring
  std::ostringstream want;
  ASSERT_TRUE(write_response(want, resp));
  ASSERT_LT(want.str().size(), net::FdOutBuf::kBufferSize);

  std::atomic<bool> dead{false};
  net::FdOutBuf buf(fds_[0], 1000, &dead);
  std::ostream out(&buf);
  ASSERT_TRUE(write_response(out, resp));
  ASSERT_TRUE(out.flush());

  std::vector<char> msg(std::size_t{1} << 20);
  std::vector<std::string> got;
  for (ssize_t k; (k = ::recv(fds_[1], msg.data(), msg.size(),
                              MSG_DONTWAIT)) > 0;)
    got.emplace_back(msg.data(), static_cast<std::size_t>(k));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], want.str());
  EXPECT_FALSE(dead);
}

TEST_F(FdOutBufTest, APeerThatNeverReadsIsEvicted) {
  open_pair(SOCK_STREAM);
  const int small = 4096;
  ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  const std::int64_t before = obs::counter("svc.evicted_conns").value();
  TcpConn conn(fds_[0], /*write_timeout_ms=*/50);
  const auto t0 = std::chrono::steady_clock::now();
  conn.send(ring_response(40320));  // an S_8 ring, ~230 KB
  EXPECT_TRUE(conn.dead);
  EXPECT_EQ(obs::counter("svc.evicted_conns").value(), before + 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST_F(FdOutBufTest, AClosedPeerIsAWriteError) {
  open_pair(SOCK_STREAM);
  ::close(fds_[1]);
  fds_[1] = -1;
  // As both daemons run: EPIPE comes back as an error, not a signal.
  const auto old = std::signal(SIGPIPE, SIG_IGN);
  const std::int64_t before = obs::counter("io.write_errors").value();
  TcpConn conn(fds_[0], 1000);
  conn.send(ring_response(16));
  std::signal(SIGPIPE, old);
  EXPECT_TRUE(conn.dead);
  EXPECT_EQ(obs::counter("io.write_errors").value(), before + 1);
}

TEST_F(FdOutBufTest, AResponseThatFailsToSerializeSendsNothing) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  open_pair(SOCK_STREAM);
  ASSERT_TRUE(failpoint::set("io.write_response=error"));
  TcpConn conn(fds_[0], 1000);
  // Half a record already buffered, as a serializer that failed midway
  // leaves it: dropped with the buffer, never sent.
  conn.out << "starring-response v1\nid 5\n";
  conn.send(ring_response(5040));
  EXPECT_TRUE(conn.dead);
  char byte = 0;
  EXPECT_EQ(::recv(fds_[1], &byte, 1, 0), 0);  // EOF, with zero bytes
}

// --- starringd over stdio ----------------------------------------------

/// <build>/src/service/starringd, found from /proc/self/exe =
/// <build>/tests/test_server.
std::string starringd_path() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return {};
  std::string path(buf, static_cast<std::size_t>(len));
  path.resize(path.rfind('/'));  // <build>/tests
  path.resize(path.rfind('/'));
  return path + "/src/service/starringd";
}

TEST(StdioDaemon, AFailedAnswerWriteClosesStdoutAndExitsNonZero) {
  // A failed answer write must not pass silently: stdout is released
  // at once (its reader sees EOF, as a TCP peer would), the daemon
  // stops at its next record and exits 1 -- with stdin still open.
  if (!failpoint::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string bin = starringd_path();
  ASSERT_EQ(::access(bin.c_str(), X_OK), 0) << bin;
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(::pipe2(to_child, O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(from_child, O_CLOEXEC), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDERR_FILENO);
    ::execl(bin.c_str(), bin.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  ASSERT_GT(pid, 0);
  ::close(to_child[0]);
  ::close(from_child[1]);
  const auto old = std::signal(SIGPIPE, SIG_IGN);
  const auto send = [&](const std::string& text) {
    return ::write(to_child[1], text.data(), text.size()) ==
           static_cast<ssize_t>(text.size());
  };

  std::ostringstream batch;
  batch << "FAIL io.write_response=error@once\n";
  for (std::uint64_t id = 1; id <= 3; ++id)
    write_request(batch, ServiceRequest{.id = id, .n = 5});
  EXPECT_TRUE(send(batch.str()));
  std::string got;
  bool eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{from_child[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t k = ::read(from_child[0], buf, sizeof buf);
    if (k > 0)
      got.append(buf, static_cast<std::size_t>(k));
    else
      eof = true;
  }
  EXPECT_TRUE(eof) << "stdout stayed open after the failed write";
  EXPECT_EQ(got, "FAIL ok\n");

  EXPECT_TRUE(send("PING\n"));  // the reader stops after this record
  int status = 0;
  pid_t done = 0;
  for (int waited = 0; done == 0 && waited < 20000; waited += 20) {
    done = ::waitpid(pid, &status, WNOHANG);
    if (done == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    ADD_FAILURE() << "starringd kept running after its stdout died";
  } else {
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
  }
  std::signal(SIGPIPE, old);
  ::close(to_child[1]);
  ::close(from_child[0]);
}

// --- strict numeric flags ----------------------------------------------

TEST(StrictFlags, IntegersAreWholeDecimalTokens) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("47161"), 47161u);
  for (const char* bad : {"", "abc", "5k", "-1", "+3", " 7", "1.5", "0x10",
                          "99999999999999999999999"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << bad;

  const char* argv[] = {"prog", "--max-conns", "5k", "--threads", "8",
                        "--listen", "99999999999", "--port"};
  int i = 1;
  EXPECT_EQ(int_arg(8, const_cast<char**>(argv), &i), -1);  // 5k
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_EQ(int_arg(8, const_cast<char**>(argv), &i), 8);
  i = 5;
  EXPECT_EQ(int_arg(8, const_cast<char**>(argv), &i), -1);  // > INT_MAX
  i = 7;
  EXPECT_EQ(int_arg(8, const_cast<char**>(argv), &i), -1);  // missing
}

TEST(StrictFlags, DoublesAreWholeFiniteNumbers) {
  EXPECT_EQ(parse_double("0.001"), 0.001);
  EXPECT_EQ(parse_double("2"), 2.0);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("-1"), -1.0);
  for (const char* bad : {"", "abc", "1x", " 1", "1 ", "inf", "nan",
                          "0x1p3", "1e", "1e999", "."})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  const char* argv[] = {"prog", "--tenant-rate", "fast"};
  int i = 1;
  EXPECT_EQ(double_arg(3, const_cast<char**>(argv), &i), -1);
}

}  // namespace
}  // namespace starring::cluster
