// The record codec as a whole: golden wire bytes for every record kind
// (pins what each writer emits, byte for byte), strict numbers on the
// u64 wire fields, bounded tokens, a deterministic mutation fuzz of
// every reader seeded from the golden records, and the vertex-id reader
// held to the `>>` loop it replaced.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/shard_map.hpp"
#include "util/io.hpp"

namespace starring {
namespace {

std::vector<VertexId> iota_ids(VertexId count) {
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < count; ++v) ids.push_back(v);
  return ids;
}

MemberRecord member(const char* addr, int shard, std::uint64_t inc,
                    MemberWireState state) {
  MemberRecord m;
  m.addr = addr;
  m.shard_id = shard;
  m.incarnation = inc;
  m.state = state;
  return m;
}

template <class Record, class Write>
std::string bytes_of(const Record& r, Write write) {
  std::ostringstream os;
  EXPECT_TRUE(write(os, r));
  return os.str();
}

std::string request_bytes(const ServiceRequest& r) {
  return bytes_of(r, [](std::ostream& os, const ServiceRequest& q) {
    return write_request(os, q);
  });
}

std::string response_bytes(const ServiceResponse& r) {
  return bytes_of(r, [](std::ostream& os, const ServiceResponse& q) {
    return write_response(os, q);
  });
}

ServiceResponse failed_response(ServiceStatus status, const char* reason) {
  ServiceResponse r;
  r.id = 8;
  r.status = status;
  r.reason = reason;
  return r;
}

GossipMessage golden_gossip() {
  GossipMessage m;
  m.kind = GossipMessage::Kind::kPingReq;
  m.from = member("127.0.0.1:47181", 0, 3, MemberWireState::kAlive);
  m.target = "127.0.0.1:47183";
  m.updates = {member("127.0.0.1:47182", 1, 2, MemberWireState::kSuspect),
               member("127.0.0.1:47190", -1, 1, MemberWireState::kLeft)};
  return m;
}

/// Which reader parses a golden record back.
enum class Reader {
  kRequest,
  kResponse,
  kStats,
  kHealth,
  kTrace,
  kGossip,
  kMembership,
  kEmbedding,
  kShardMap
};

struct Golden {
  const char* name;
  Reader reader;
  std::string got;   // what the writer emits
  std::string want;  // the literal wire bytes
};

/// One fully populated record of every kind, with its exact bytes.
std::vector<Golden> golden_records() {
  std::vector<Golden> cases;

  {
    ServiceRequest r;
    r.id = 42;
    r.n = 5;
    r.faults.add_vertex(Perm::of({1, 0, 2, 3, 4}));
    r.faults.add_edge(Perm::identity(5), Perm::of({2, 1, 0, 3, 4}));
    r.verify = true;
    r.tenant = "team-a";
    r.deadline_ms = 250;
    r.trace_id = 9;
    r.parent_span_id = 3;
    cases.push_back({"request", Reader::kRequest, request_bytes(r),
                     "starring-request v1\nid 42\nn 5\nvertex_faults 1\n"
                     "21345\nedge_faults 1\n32145 12345\nverify 1\n"
                     "tenant team-a\ndeadline_ms 250\ntrace 9 3\nend\n"});
  }
  {
    ServiceResponse r;
    r.id = 7;
    r.status = ServiceStatus::kOk;
    r.cache_hit = true;
    r.verified = true;
    r.ring = iota_ids(40);
    cases.push_back(
        {"ok response", Reader::kResponse, response_bytes(r),
         "starring-response v1\nid 7\nstatus ok\ncache hit\nverified 1\n"
         "ring 40\n0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"
         "16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31\n"
         "32 33 34 35 36 37 38 39 \nend\n"});
  }
  cases.push_back(
      {"error response", Reader::kResponse,
       response_bytes(failed_response(ServiceStatus::kError, "no ring")),
       "starring-response v1\nid 8\nstatus error\nreason no ring\nend\n"});
  cases.push_back(
      {"timeout response", Reader::kResponse,
       response_bytes(
           failed_response(ServiceStatus::kTimeout, "deadline expired")),
       "starring-response v1\nid 8\nstatus timeout\n"
       "reason deadline expired\nend\n"});
  cases.push_back(
      {"throttled response", Reader::kResponse,
       response_bytes(failed_response(ServiceStatus::kThrottled,
                                      "tenant quota exhausted")),
       "starring-response v1\nid 8\nstatus throttled\n"
       "reason tenant quota exhausted\nend\n"});
  cases.push_back(
      {"rejected response", Reader::kResponse,
       response_bytes(
           failed_response(ServiceStatus::kRejected, "connection limit")),
       "starring-response v1\nid 8\nstatus rejected\n"
       "reason connection limit\nend\n"});
  cases.push_back({"stats", Reader::kStats,
                   bytes_of(std::string("a 1\nb 2"),
                            [](std::ostream& os, const std::string& body) {
                              return write_stats(os, body);
                            }),
                   "starring-stats v1\nlines 2\na 1\nb 2\nend\n"});
  {
    HealthInfo h;
    h.shard_id = 3;
    h.epoch = 9;
    h.cache_entries = 12;
    h.cache_hits = 340;
    h.cache_misses = 17;
    h.uptime_ms = 15321;
    h.inflight = 4;
    cases.push_back({"health", Reader::kHealth,
                     bytes_of(h,
                              [](std::ostream& os, const HealthInfo& x) {
                                return write_health(os, x);
                              }),
                     "starring-health v1\nshard 3\nepoch 9\n"
                     "cache_entries 12\ncache_hits 340\ncache_misses 17\n"
                     "uptime_ms 15321\ninflight 4\nend\n"});
  }
  {
    TraceDump d;
    d.process = "shard-1";
    d.epoch_ns = 123;
    d.dropped = 2;
    obs::trace::SpanRecord a;
    a.trace_id = 5;
    a.span_id = 11;
    a.start_ns = 1000;
    a.dur_ns = 2500;
    a.tid = 1;
    a.name = "svc.request";
    obs::trace::SpanRecord b = a;
    b.span_id = 12;
    b.parent_id = 11;
    b.start_ns = 1100;
    b.dur_ns = 200;
    b.name = "";
    d.spans = {a, b};
    cases.push_back({"trace", Reader::kTrace,
                     bytes_of(d,
                              [](std::ostream& os, const TraceDump& x) {
                                return write_trace(os, x);
                              }),
                     "starring-trace v1\nprocess shard-1\nepoch_ns 123\n"
                     "dropped 2\nspans 2\n5 11 0 1000 2500 1 svc.request\n"
                     "5 12 11 1100 200 1 -\nend\n"});
  }
  const std::string gossip_want =
      "starring-gossip v1\nkind ping-req\nfrom 127.0.0.1:47181 0 3 alive\n"
      "target 127.0.0.1:47183\nupdates 2\n"
      "update 127.0.0.1:47182 1 2 suspect\n"
      "update 127.0.0.1:47190 -1 1 left\nend\n";
  cases.push_back({"gossip", Reader::kGossip,
                   bytes_of(golden_gossip(),
                            [](std::ostream& os, const GossipMessage& m) {
                              return write_gossip(os, m);
                            }),
                   gossip_want});
  {
    ServiceRequest r;
    r.kind = RequestKind::kGossip;
    r.gossip = std::make_shared<GossipMessage>(golden_gossip());
    cases.push_back(
        {"gossip request", Reader::kRequest, request_bytes(r), gossip_want});
  }
  {
    MembershipRecord m;
    m.epoch = 42;
    m.replication = 3;
    m.vnodes = 64;
    m.members = {member("127.0.0.1:47181", 0, 5, MemberWireState::kAlive),
                 member("127.0.0.1:47190", -1, 2, MemberWireState::kDead)};
    cases.push_back({"membership", Reader::kMembership,
                     bytes_of(m,
                              [](std::ostream& os, const MembershipRecord& x) {
                                return write_membership(os, x);
                              }),
                     "starring-membership v1\nepoch 42\nreplication 3\n"
                     "vnodes 64\nmembers 2\n"
                     "member 127.0.0.1:47181 0 5 alive\n"
                     "member 127.0.0.1:47190 -1 2 dead\nend\n"});
  }
  {
    ServiceRequest r;
    r.kind = RequestKind::kSeed;
    r.n = 4;
    r.seed_key = "n=4;fv=0.1";
    r.seed_ring = iota_ids(20);
    cases.push_back({"seed", Reader::kRequest, request_bytes(r),
                     "starring-seed v1\nn 4\nkey n=4;fv=0.1\nring 20\n"
                     "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"
                     "16 17 18 19 \nend\n"});
  }
  for (const auto& [kind, wire] :
       {std::pair{RequestKind::kStats, "STATS\n"},
        std::pair{RequestKind::kPing, "PING\n"},
        std::pair{RequestKind::kHealth, "HEALTH\n"},
        std::pair{RequestKind::kTrace, "TRACE\n"},
        std::pair{RequestKind::kSlow, "SLOW\n"},
        std::pair{RequestKind::kMembers, "MEMBERS\n"},
        std::pair{RequestKind::kLeave, "LEAVE\n"}}) {
    ServiceRequest r;
    r.kind = kind;
    cases.push_back({wire, Reader::kRequest, request_bytes(r), wire});
  }
  {
    ServiceRequest r;
    r.kind = RequestKind::kFail;
    r.fail_config = "svc.embed=error@once";
    cases.push_back(
        {"FAIL", Reader::kRequest, request_bytes(r),
         "FAIL svc.embed=error@once\n"});
  }
  {
    EmbeddingFile e;
    e.n = 4;
    e.is_ring = false;
    e.faults.add_vertex(Perm::of({1, 0, 2, 3}));
    e.faults.add_edge(Perm::identity(4), Perm::of({2, 1, 0, 3}));
    e.sequence = iota_ids(20);
    cases.push_back({"embedding", Reader::kEmbedding,
                     bytes_of(e,
                              [](std::ostream& os, const EmbeddingFile& x) {
                                return write_embedding(os, x);
                              }),
                     "starring-embedding v1\nn 4\nkind path\n"
                     "vertex_faults 1\n2134\nedge_faults 1\n3214 1234\n"
                     "sequence 20\n0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"
                     "16 17 18 19 \n"});
  }
  {
    const auto map = cluster::ShardMap::make(
        {{0, {"127.0.0.1", 47181}}, {3, {"127.0.0.1", 47184}}}, 7, 2, 64);
    cases.push_back({"shard map", Reader::kShardMap, map.to_text(),
                     "starring-shard-map v1\nepoch 7\nreplication 2\n"
                     "vnodes 64\nshards 2\nshard 0 127.0.0.1:47181\n"
                     "shard 3 127.0.0.1:47184\nend\n"});
  }
  {
    EmbeddingFile e;  // n > 9: dot-separated permutation literals
    e.n = 11;
    e.faults.add_vertex(Perm::of({1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
    e.sequence = iota_ids(3);
    cases.push_back({"embedding n=11", Reader::kEmbedding,
                     bytes_of(e,
                              [](std::ostream& os, const EmbeddingFile& x) {
                                return write_embedding(os, x);
                              }),
                     "starring-embedding v1\nn 11\nkind ring\n"
                     "vertex_faults 1\n2.1.3.4.5.6.7.8.9.10.11\n"
                     "edge_faults 0\nsequence 3\n0 1 2 \n"});
  }
  return cases;
}

TEST(CodecGolden, EveryWriterEmitsExactlyTheseBytes) {
  for (const Golden& g : golden_records()) EXPECT_EQ(g.got, g.want) << g.name;
}

// --- one reader, one contract ----------------------------------------

/// Parse `input`; a refusal must carry a reason (an empty one only for
/// a blank stream, the clean end), and an accepted record must write
/// back to bytes that re-read to the same record.  "" when it holds.
template <class T, class Read, class Write>
std::string round_trip(const std::string& input, Read read, Write write) {
  std::istringstream in(input);
  std::string err = "unset";
  const std::optional<T> first = read(in, &err);
  if (!first) {
    const bool blank =
        input.find_first_not_of(" \t\n\v\f\r") == std::string::npos;
    return err == "unset" || (err.empty() && !blank)
               ? "refused without a reason"
               : "";
  }
  std::ostringstream out;
  if (!write(out, *first)) return "write-back failed";
  std::istringstream back(out.str());
  const std::optional<T> again = read(back, &err);
  if (!again) return "write-back does not re-read: " + err;
  std::ostringstream out2;
  write(out2, *again);
  return out2.str() == out.str() ? "" : "re-read differs: " + out2.str();
}

std::string check_reader(Reader reader, const std::string& input) {
  switch (reader) {
    case Reader::kRequest:
      return round_trip<ServiceRequest>(input, read_request, write_request);
    case Reader::kResponse:
      return round_trip<ServiceResponse>(input, read_response,
                                         write_response);
    case Reader::kStats:
      return round_trip<std::string>(input, read_stats, write_stats);
    case Reader::kHealth:
      return round_trip<HealthInfo>(input, read_health, write_health);
    case Reader::kTrace:
      return round_trip<TraceDump>(input, read_trace, write_trace);
    case Reader::kGossip:
      return round_trip<GossipMessage>(input, read_gossip, write_gossip);
    case Reader::kMembership:
      return round_trip<MembershipRecord>(input, read_membership,
                                          write_membership);
    case Reader::kEmbedding:
      return round_trip<EmbeddingFile>(input, read_embedding,
                                       write_embedding);
    case Reader::kShardMap:
      return round_trip<cluster::ShardMap>(
          input,
          [](std::istream& is, std::string* err) {
            return cluster::ShardMap::parse(is, err);
          },
          [](std::ostream& os, const cluster::ShardMap& m) {
            return static_cast<bool>(os << m.to_text());
          });
  }
  return "unknown reader";
}

std::string printable(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n')
      out += "\\n";
    else if (c >= 32 && c < 127)
      out += c;
    else
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
  }
  return out;
}

// --- strict numbers ----------------------------------------------------

TEST(CodecStrict, NegativeAndWrappingNumbersAreFramingErrors) {
  const std::string req_tail =
      "\nn 4\nvertex_faults 0\nedge_faults 0\nverify 0\nend\n";
  const std::string health_head = "starring-health v1\nshard 0\n";
  const std::string trace_head =
      "starring-trace v1\nprocess p\nepoch_ns 1\ndropped 0\nspans 1\n";
  const std::string gossip_head = "starring-gossip v1\nkind ping\n";
  const std::string members_head =
      "starring-membership v1\nepoch 1\nreplication 2\nvnodes 8\n"
      "members 1\nmember 127.0.0.1:1 0 ";
  const struct {
    Reader reader;
    std::string text;
    const char* want;
  } cases[] = {
      {Reader::kRequest, "starring-request v1\nid -1" + req_tail,
       "bad id line"},
      {Reader::kResponse,
       "starring-response v1\nid -1\nstatus error\nreason r\nend\n",
       "bad id line"},
      {Reader::kHealth,
       "starring-health v1\nshard 0\nepoch -1\ncache_entries 0\n"
       "cache_hits 0\ncache_misses 0\nend\n",
       "bad epoch line"},
      {Reader::kHealth,
       health_head +
           "epoch 1\ncache_entries -1\ncache_hits 0\ncache_misses 0\nend\n",
       "bad cache_entries line"},
      {Reader::kHealth,
       health_head +
           "epoch 1\ncache_entries 0\ncache_hits -1\ncache_misses 0\nend\n",
       "bad cache_hits line"},
      {Reader::kHealth,
       health_head +
           "epoch 1\ncache_entries 0\ncache_hits 0\ncache_misses -1\nend\n",
       "bad cache_misses line"},
      {Reader::kHealth,
       health_head + "epoch 1\ncache_entries 0\ncache_hits 0\n"
                     "cache_misses 0\nuptime_ms -1\nend\n",
       "bad uptime_ms line"},
      {Reader::kHealth,
       health_head + "epoch 1\ncache_entries 0\ncache_hits 0\n"
                     "cache_misses 0\ninflight -1\nend\n",
       "bad inflight line"},
      {Reader::kTrace,
       "starring-trace v1\nprocess p\nepoch_ns -1\ndropped 0\nspans 0\n"
       "end\n",
       "bad epoch_ns line"},
      {Reader::kTrace,
       "starring-trace v1\nprocess p\nepoch_ns 1\ndropped -1\nspans 0\n"
       "end\n",
       "bad dropped line"},
      {Reader::kTrace, trace_head + "-1 2 0 5 5 0 x\nend\n",
       "truncated span list"},
      {Reader::kTrace, trace_head + "1 -2 0 5 5 0 x\nend\n",
       "truncated span list"},
      {Reader::kTrace, trace_head + "1 2 -1 5 5 0 x\nend\n",
       "truncated span list"},
      {Reader::kTrace, trace_head + "1 2 0 -5 5 0 x\nend\n",
       "truncated span list"},
      {Reader::kTrace, trace_head + "1 2 0 5 -5 0 x\nend\n",
       "truncated span list"},
      {Reader::kTrace, trace_head + "1 2 0 5 5 -1 x\nend\n",
       "truncated span list"},
      {Reader::kGossip,
       gossip_head + "from 127.0.0.1:1 0 -1 alive\nupdates 0\nend\n",
       "bad member tokens"},
      {Reader::kGossip,
       gossip_head + "from 127.0.0.1:1 0 1 alive\nupdates 1\n"
                     "update 127.0.0.1:2 1 -1 alive\nend\n",
       "bad member tokens"},
      // UINT64_MAX: a refutation (incarnation + 1) would wrap to 0.
      {Reader::kGossip,
       gossip_head +
           "from 127.0.0.1:1 0 18446744073709551615 alive\nupdates 0\nend\n",
       "bad member tokens"},
      {Reader::kMembership,
       "starring-membership v1\nepoch -1\nreplication 2\nvnodes 8\n"
       "members 0\nend\n",
       "bad epoch line"},
      {Reader::kMembership, members_head + "-1 alive\nend\n",
       "bad member tokens"},
      {Reader::kMembership, members_head + "18446744073709551615 alive\nend\n",
       "bad member tokens"},
      {Reader::kShardMap,
       "starring-shard-map v1\nepoch -1\nshards 1\nshard 0 127.0.0.1:1\n"
       "end\n",
       "bad epoch line"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    std::string err;
    bool parsed = false;
    switch (c.reader) {
      case Reader::kRequest:
        parsed = read_request(in, &err).has_value();
        break;
      case Reader::kResponse:
        parsed = read_response(in, &err).has_value();
        break;
      case Reader::kHealth:
        parsed = read_health(in, &err).has_value();
        break;
      case Reader::kTrace:
        parsed = read_trace(in, &err).has_value();
        break;
      case Reader::kGossip:
        parsed = read_gossip(in, &err).has_value();
        break;
      case Reader::kMembership:
        parsed = read_membership(in, &err).has_value();
        break;
      case Reader::kShardMap:
        parsed = cluster::ShardMap::parse(in, &err).has_value();
        break;
      default:
        break;
    }
    EXPECT_FALSE(parsed) << printable(c.text);
    EXPECT_EQ(err, c.want) << printable(c.text);
  }
}

TEST(CodecStrict, LargestIncarnationBelowTheWrapStillParses) {
  std::istringstream in(
      "starring-gossip v1\nkind ping\n"
      "from 127.0.0.1:1 0 18446744073709551614 alive\nupdates 0\nend\n");
  std::string err;
  const auto m = read_gossip(in, &err);
  ASSERT_TRUE(m.has_value()) << err;
  EXPECT_EQ(m->from.incarnation, UINT64_MAX - 1);
}

TEST(CodecStrict, SignedAndWrappingIdsAreFramingErrors) {
  // `>>` read `+5` as 5 and wrapped `-18446744073709551615` to 1, a
  // valid vertex; a sign is refused outright, an overflow as before.
  const struct {
    const char* ids;
    const char* want;
  } cases[] = {
      {"+5 1 2", "bad vertex id '+5'"},
      {"1 -1 2", "bad vertex id '-1'"},
      {"-18446744073709551615 1 2", "bad vertex id '-18446744073709551615'"},
      {"1 2 100000000000000000000", "truncated sequence"},  // 21 digits
  };
  for (const auto& c : cases) {
    const std::string ids = std::string("3\n") + c.ids + "\n";
    std::istringstream response(
        "starring-response v1\nid 1\nstatus ok\ncache hit\nverified 0\n"
        "ring " + ids + "end\n");
    std::istringstream seed("starring-seed v1\nn 4\nkey k\nring " + ids +
                            "end\n");
    std::istringstream file(
        "starring-embedding v1\nn 4\nkind ring\nvertex_faults 0\n"
        "edge_faults 0\nsequence " + ids);
    std::string err;
    EXPECT_FALSE(read_response(response, &err).has_value()) << c.ids;
    EXPECT_EQ(err, c.want);
    EXPECT_FALSE(read_request(seed, &err).has_value()) << c.ids;
    EXPECT_EQ(err, c.want);
    EXPECT_FALSE(read_embedding(file, &err).has_value()) << c.ids;
    EXPECT_EQ(err, c.want);
  }
}

// --- the id reader against the extraction loop it replaced --------------

struct IdsOutcome {
  bool ok = false;
  std::vector<VertexId> ids;
  std::string err;
};

/// `<key> <count>`, the ids, then `end`, read by RecordReader::ids.
IdsOutcome read_ids(const std::string& text, int n) {
  std::istringstream is(text);
  IdsOutcome o;
  RecordReader c(is, &o.err);
  o.ok = c.ids("ring", n, &o.ids) && c.end();
  return o;
}

/// The same record read by the earlier id loop: one `is >> id` per id.
IdsOutcome stream_ids(const std::string& text, int n) {
  std::istringstream is(text);
  IdsOutcome o;
  RecordReader c(is, &o.err);
  const std::uint64_t limit = factorial(n);
  std::size_t size = 0;
  o.ok = c.count("ring", limit, &size, "sequence count out of range");
  for (std::size_t i = 0; o.ok && i < size; ++i) {
    VertexId id = 0;
    if (!(is >> id)) {
      o.ok = c.fail("truncated sequence");
    } else if (id >= limit) {
      o.ok = c.fail("vertex id out of range: " + std::to_string(id));
    } else {
      o.ids.push_back(id);
    }
  }
  o.ok = o.ok && c.end();
  return o;
}

/// Mutations of an id-list record that keep every token unsigned.
std::vector<std::string> id_mutations(const std::string& ids, int count) {
  const auto record = [](int k, const std::string& body) {
    return "ring " + std::to_string(k) + "\n" + body + "end\n";
  };
  const std::string text = record(count, ids);
  std::vector<std::string> out;
  for (std::size_t k = 0; k < text.size(); ++k)  // EOF at every byte
    out.push_back(text.substr(0, k));
  for (std::size_t i = 0; i < text.size(); ++i)
    for (const char* with : {" ", "\t", "\r", "\n\n", " \r\n\n", "\v\f",
                             "x", "0", "9", "."}) {
      out.push_back(text);
      out.back().replace(i, 1, with);
    }
  // Each token replaced: leading zeros, 20-digit and overflowing
  // numbers, letters glued on either side.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] >= '0' && text[i] <= '9' &&
        (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n'))
      starts.push_back(i);
  for (const std::size_t i : starts) {
    const std::size_t j = text.find_first_of(" \n", i);
    const std::string tok = text.substr(i, j - i);
    for (const std::string& repl :
         {"00" + tok, std::string(40, '0') + tok, tok + "x", "x" + tok,
          tok + "1e5", "0x" + tok, tok + ".0"})
      out.push_back(text.substr(0, i) + repl + text.substr(j));
    for (const char* repl :
         {"18446744073709551615", "18446744073709551616",
          "99999999999999999999", "000018446744073709551615",
          "184467440737095516150"})
      out.push_back(text.substr(0, i) + repl + text.substr(j));
  }
  for (const int k : {0, 1, count - 1, count + 1, count + 5, 200})
    out.push_back(record(k, ids));
  return out;
}

TEST(CodecDiff, IdReaderMatchesTheExtractionLoopItReplaced) {
  for (const int n : {5, kMaxN}) {
    std::vector<VertexId> ring;
    for (VertexId v = 0; v < 37; ++v) ring.push_back(v * 3 + 1);
    std::ostringstream body;
    RecordWriter(body, "x").ids("ring", ring);
    const std::string written = body.str();
    // Just the ids: the writer's `x v1` header and `ring 37` line off.
    const std::string ids = written.substr(written.find("ring 37\n") + 8);
    std::size_t inputs = 0;
    for (const std::string& input : id_mutations(ids, 37)) {
      const IdsOutcome want = stream_ids(input, n);
      const IdsOutcome got = read_ids(input, n);
      ++inputs;
      EXPECT_EQ(got.ok, want.ok) << printable(input);
      EXPECT_EQ(got.err, want.err) << printable(input);
      EXPECT_EQ(got.ids, want.ids) << printable(input);
    }
    EXPECT_GT(inputs, 1500u);
  }
  // The one divergence: a signed token, which `>>` reads as a number
  // (wrapping a minus sign) and the id reader refuses by name.
  for (const char* tok : {"+5", "-0", "-1", "-18446744073709551615", "+x"}) {
    const std::string input = std::string("ring 2\n1 ") + tok + "\nend\n";
    const IdsOutcome got = read_ids(input, kMaxN);
    EXPECT_FALSE(got.ok) << tok;
    EXPECT_EQ(got.err, std::string("bad vertex id '") + tok + "'");
    EXPECT_EQ(got.ids, std::vector<VertexId>{1});
  }
  EXPECT_TRUE(stream_ids("ring 2\n1 +5\nend\n", kMaxN).ok);
  EXPECT_EQ(stream_ids("ring 2\n1 -18446744073709551615\nend\n", kMaxN).ids,
            (std::vector<VertexId>{1, 1}));
}

// --- bounded reads -----------------------------------------------------

std::size_t consumed(std::istringstream& in) {
  return static_cast<std::size_t>(
      in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in));
}

TEST(CodecBounds, HugeTokenIsRefusedAfterABoundedRead) {
  const std::string huge(std::size_t{16} << 20, 'x');
  std::istringstream in(huge + "\n");
  std::string err;
  EXPECT_FALSE(read_request(in, &err).has_value());
  EXPECT_EQ(err, "bad header");
  EXPECT_LE(consumed(in), std::size_t{64} << 10);
}

TEST(CodecStrict, OverlongIdIsRefusedAfterABoundedRead) {
  // Leading zeros do not make an id legal past the token cap: 16 MB of
  // `0` then `1` used to read as vertex 1.  The refusal quotes the
  // first kMaxTokenLen + 1 characters, and no more than those are read.
  const std::string zeros(std::size_t{16} << 20, '0');
  const std::string want =
      "bad vertex id '" + std::string(kMaxTokenLen + 1, '0') + "'";
  std::istringstream seed("starring-seed v1\nn 4\nkey k\nring 2\n0 " +
                          zeros + "1\nend\n");
  std::string err;
  EXPECT_FALSE(read_request(seed, &err).has_value());
  EXPECT_EQ(err, want);
  EXPECT_LE(consumed(seed), std::size_t{64} << 10);
  // One character under the cap is still a (zero-padded) id.
  const IdsOutcome under = read_ids(
      "ring 2\n0 " + std::string(kMaxTokenLen - 1, '0') + "1\nend\n", 5);
  EXPECT_TRUE(under.ok) << under.err;
  EXPECT_EQ(under.ids, (std::vector<VertexId>{0, 1}));
  const IdsOutcome at = read_ids(
      "ring 2\n0 " + std::string(kMaxTokenLen, '0') + "1\nend\n", 5);
  EXPECT_FALSE(at.ok);
  EXPECT_EQ(at.err,
            "bad vertex id '" + std::string(kMaxTokenLen, '0') + "1'");
  // A long run of significant digits stops at its overflow.
  std::istringstream nines("starring-seed v1\nn 4\nkey k\nring 2\n0 " +
                           std::string(std::size_t{16} << 20, '9') +
                           "\nend\n");
  EXPECT_FALSE(read_request(nines, &err).has_value());
  EXPECT_EQ(err, "truncated sequence");
  EXPECT_LE(consumed(nines), std::size_t{64} << 10);
}

TEST(CodecBounds, HugeLineFieldsAreRefusedAfterABoundedRead) {
  const std::string huge(std::size_t{16} << 20, 'x');
  const std::string head =
      "starring-request v1\nid 1\nn 4\nvertex_faults 0\nedge_faults 0\n"
      "verify 0\n";
  const struct {
    Reader reader;
    std::string prefix;
  } cases[] = {
      {Reader::kRequest, "FAIL "},
      {Reader::kRequest, head + "tenant "},
      {Reader::kResponse, "starring-response v1\nid 1\nstatus error\nreason "},
      {Reader::kStats, "starring-stats v1\nlines 1\n"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.prefix + huge + "\nend\n");
    std::string err;
    bool parsed = true;
    if (c.reader == Reader::kRequest)
      parsed = read_request(in, &err).has_value();
    else if (c.reader == Reader::kResponse)
      parsed = read_response(in, &err).has_value();
    else
      parsed = read_stats(in, &err).has_value();
    EXPECT_FALSE(parsed) << c.prefix;
    EXPECT_FALSE(err.empty()) << c.prefix;
    EXPECT_LE(consumed(in), std::size_t{64} << 10) << c.prefix;
  }
}

// --- deterministic mutation fuzz -------------------------------------

/// Every deterministic mutation of a golden record: truncation at each
/// byte, each byte replaced by a few fixed characters, each line
/// dropped, duplicated and swapped with the next, and each number
/// replaced by -1, 0 and 2^64 and grown past the token cap with leading
/// zeros.
std::vector<std::string> mutations(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < text.size(); ++k)
    out.push_back(text.substr(0, k));
  for (std::size_t i = 0; i < text.size(); ++i)
    for (const char ch : {' ', '\n', 'x', '0', '-', '\0'})
      if (text[i] != ch) {
        out.push_back(text);
        out.back()[i] = ch;
      }
  std::vector<std::string> lines;
  std::istringstream split(text);
  for (std::string l; std::getline(split, l);) lines.push_back(l + "\n");
  const auto join = [](const std::vector<std::string>& ls) {
    std::string joined;
    for (const std::string& l : ls) joined += l;
    return joined;
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> v = lines;
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(join(v));
    v = lines;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    out.push_back(join(v));
    if (i + 1 < lines.size()) {
      v = lines;
      std::swap(v[i], v[i + 1]);
      out.push_back(join(v));
    }
  }
  const auto digit = [&](std::size_t i) {
    return i < text.size() && text[i] >= '0' && text[i] <= '9';
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (!digit(i) || (i > 0 && digit(i - 1))) continue;
    std::size_t j = i;
    while (digit(j)) ++j;
    for (const char* number : {"-1", "0", "18446744073709551616"})
      out.push_back(text.substr(0, i) + number + text.substr(j));
    out.push_back(text.substr(0, i) + std::string(kMaxTokenLen, '0') +
                  text.substr(i));
  }
  return out;
}

TEST(CodecFuzz, EveryReaderRefusesOrRoundTripsEveryMutation) {
  std::size_t inputs = 0;
  std::size_t failures = 0;
  for (const Golden& g : golden_records()) {
    for (const std::string& input : mutations(g.want)) {
      // Every mutation also goes to the request reader: a daemon reads
      // whatever bytes arrive with it.
      for (const Reader reader : {g.reader, Reader::kRequest}) {
        ++inputs;
        const std::string why = check_reader(reader, input);
        if (!why.empty() && ++failures <= 10)
          ADD_FAILURE() << g.name << ": " << why
                        << "\ninput: " << printable(input);
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(inputs, 10000u);
}

}  // namespace
}  // namespace starring
