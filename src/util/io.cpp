#include "util/io.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/json.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"

namespace starring {

namespace {

void fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
}

/// Parse a 1-based permutation literal like "2134567" (n <= 9 digits) or
/// dot-separated "2.1.10.3..." for larger n.
std::optional<Perm> parse_perm(const std::string& text, int n) {
  std::vector<int> syms;
  if (text.find('.') == std::string::npos) {
    for (const char c : text) {
      if (c < '1' || c > '9') return std::nullopt;
      syms.push_back(c - '1');
    }
  } else {
    std::istringstream ss(text);
    std::string tok;
    while (std::getline(ss, tok, '.')) {
      if (tok.empty()) return std::nullopt;
      int v = 0;
      for (const char c : tok) {
        if (c < '0' || c > '9') return std::nullopt;
        v = v * 10 + (c - '0');
      }
      syms.push_back(v - 1);
    }
  }
  if (static_cast<int>(syms.size()) != n) return std::nullopt;
  std::uint32_t seen = 0;
  for (const int s : syms) {
    if (s < 0 || s >= n || ((seen >> s) & 1u)) return std::nullopt;
    seen |= 1u << s;
  }
  return Perm::of(syms);
}

void write_faults(std::ostream& os, const FaultSet& faults) {
  const auto vf = faults.vertex_faults();
  os << "vertex_faults " << vf.size() << "\n";
  for (const Perm& f : vf) os << f.to_string() << "\n";
  const auto ef = faults.edge_faults();
  os << "edge_faults " << ef.size() << "\n";
  for (const EdgeFault& f : ef)
    os << f.u.to_string() << ' ' << f.v.to_string() << "\n";
}

/// Read the `vertex_faults`/`edge_faults` sections shared by embedding
/// files and service requests.
bool read_faults(std::istream& is, int n, FaultSet* out, std::string* error) {
  // Structural bound on any fault count: there are only n! vertices
  // (and n!*(n-1)/2 edges, but one shared cap keeps the check simple).
  // Rejecting oversized counts up front stops a garbage frame from
  // driving an unbounded parse loop.
  const std::size_t cap = factorial(n);
  std::string word;
  std::size_t count = 0;
  if (!(is >> word >> count) || word != "vertex_faults") {
    fail(error, "bad vertex_faults line");
    return false;
  }
  if (count > cap) {
    fail(error, "vertex_faults count out of range");
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::string lit;
    if (!(is >> lit)) {
      fail(error, "truncated vertex faults");
      return false;
    }
    const auto p = parse_perm(lit, n);
    if (!p) {
      fail(error, "bad vertex fault '" + lit + "'");
      return false;
    }
    out->add_vertex(*p);
  }

  if (!(is >> word >> count) || word != "edge_faults") {
    fail(error, "bad edge_faults line");
    return false;
  }
  if (count > cap) {
    fail(error, "edge_faults count out of range");
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::string la;
    std::string lb;
    if (!(is >> la >> lb)) {
      fail(error, "truncated edge faults");
      return false;
    }
    const auto a = parse_perm(la, n);
    const auto b = parse_perm(lb, n);
    if (!a || !b || !a->adjacent(*b)) {
      fail(error, "bad edge fault '" + la + " " + lb + "'");
      return false;
    }
    out->add_edge(*a, *b);
  }
  return true;
}

/// Read `count` whitespace-separated vertex ids of S_n.
bool read_sequence(std::istream& is, int n, std::size_t count,
                   std::vector<VertexId>* out, std::string* error) {
  const std::uint64_t limit = factorial(n);
  if (count > limit) {
    // A sequence cannot visit more than n! vertices; an oversized count
    // is a framing error, refused before it can size an allocation.
    fail(error, "sequence count out of range");
    return false;
  }
  // Bound the up-front reservation independently of the wire count:
  // beyond this the vector grows as tokens actually arrive.
  out->reserve(std::min<std::size_t>(count, 1u << 16));
  for (std::size_t i = 0; i < count; ++i) {
    VertexId id = 0;
    if (!(is >> id)) {
      fail(error, "truncated sequence");
      return false;
    }
    if (id >= limit) {
      fail(error, "vertex id out of range: " + std::to_string(id));
      return false;
    }
    out->push_back(id);
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const std::string& tok) {
  if (tok.empty() || tok.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

std::optional<double> parse_double(const std::string& tok) {
  // The character whitelist rules out what strtod would otherwise
  // accept beyond plain decimals: whitespace, hex, inf and nan.
  if (tok.empty() ||
      tok.find_first_not_of("0123456789.eE+-") != std::string::npos)
    return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || !std::isfinite(v))
    return std::nullopt;
  return v;
}

long int_arg(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) return -1;
  const auto v = parse_u64(argv[++*i]);
  return v && *v <= static_cast<std::uint64_t>(INT_MAX)
             ? static_cast<long>(*v)
             : -1;
}

double double_arg(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) return -1;
  return parse_double(argv[++*i]).value_or(-1);
}

bool write_embedding(std::ostream& os, const EmbeddingFile& e) {
  os << "starring-embedding v1\n";
  os << "n " << e.n << "\n";
  os << "kind " << (e.is_ring ? "ring" : "path") << "\n";
  write_faults(os, e.faults);
  os << "sequence " << e.sequence.size() << "\n";
  for (std::size_t i = 0; i < e.sequence.size(); ++i)
    os << e.sequence[i] << ((i + 1) % 16 == 0 ? '\n' : ' ');
  os << "\n";
  return static_cast<bool>(os);
}

std::optional<EmbeddingFile> read_embedding(std::istream& is,
                                            std::string* error) {
  std::string word;
  std::string version;
  if (!(is >> word >> version) || word != "starring-embedding" ||
      version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  EmbeddingFile e;
  if (!(is >> word >> e.n) || word != "n" || e.n < 1 || e.n > kMaxN) {
    fail(error, "bad dimension line");
    return std::nullopt;
  }
  std::string kind;
  if (!(is >> word >> kind) || word != "kind" ||
      (kind != "ring" && kind != "path")) {
    fail(error, "bad kind line");
    return std::nullopt;
  }
  e.is_ring = kind == "ring";

  if (!read_faults(is, e.n, &e.faults, error)) return std::nullopt;

  std::size_t count = 0;
  if (!(is >> word >> count) || word != "sequence") {
    fail(error, "bad sequence line");
    return std::nullopt;
  }
  if (!read_sequence(is, e.n, count, &e.sequence, error)) return std::nullopt;
  return e;
}

namespace {

/// The bare one-word command lines, for both directions of the codec.
/// FAIL carries a payload and is framed apart.
constexpr std::pair<RequestKind, const char*> kBareCommands[] = {
    {RequestKind::kStats, "STATS"},     {RequestKind::kPing, "PING"},
    {RequestKind::kHealth, "HEALTH"},   {RequestKind::kTrace, "TRACE"},
    {RequestKind::kSlow, "SLOW"},       {RequestKind::kMembers, "MEMBERS"},
    {RequestKind::kLeave, "LEAVE"},
};

}  // namespace

bool write_request(std::ostream& os, const ServiceRequest& r) {
  for (const auto& [kind, word] : kBareCommands)
    if (r.kind == kind) {
      os << word << "\n";
      return static_cast<bool>(os);
    }
  if (r.kind == RequestKind::kFail) {
    os << "FAIL " << r.fail_config << "\n";
    return static_cast<bool>(os);
  }
  if (r.kind == RequestKind::kGossip) {
    // A gossip request without a payload is a caller bug, reported as
    // a stream failure rather than silently framing garbage.
    if (!r.gossip) return false;
    return write_gossip(os, *r.gossip);
  }
  if (r.kind == RequestKind::kSeed) {
    os << "starring-seed v1\n";
    os << "n " << r.n << "\n";
    os << "key " << r.seed_key << "\n";
    os << "ring " << r.seed_ring.size() << "\n";
    for (std::size_t i = 0; i < r.seed_ring.size(); ++i)
      os << r.seed_ring[i] << ((i + 1) % 16 == 0 ? '\n' : ' ');
    os << "\n";
    os << "end\n";
    return static_cast<bool>(os);
  }
  os << "starring-request v1\n";
  os << "id " << r.id << "\n";
  os << "n " << r.n << "\n";
  write_faults(os, r.faults);
  os << "verify " << (r.verify ? 1 : 0) << "\n";
  // Optional lines are omitted at their defaults, so records written
  // here stay parseable by readers of the original v1 grammar.
  if (!r.tenant.empty()) os << "tenant " << r.tenant << "\n";
  if (r.deadline_ms > 0) os << "deadline_ms " << r.deadline_ms << "\n";
  if (r.trace_id != 0)
    os << "trace " << r.trace_id << ' ' << r.parent_span_id << "\n";
  os << "end\n";
  return static_cast<bool>(os);
}

const char* status_name(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kError: return "error";
    case ServiceStatus::kRejected: return "rejected";
    case ServiceStatus::kTimeout: return "timeout";
    case ServiceStatus::kThrottled: return "throttled";
  }
  return "?";
}

bool write_response(std::ostream& os, const ServiceResponse& r) {
  // Chaos site: a failed serialization looks exactly like a peer whose
  // stream died mid-response — the caller's error path must cope.
  if (FAILPOINT("io.write_response")) {
    os.setstate(std::ios::failbit);
    return false;
  }
  os << "starring-response v1\n";
  os << "id " << r.id << "\n";
  if (r.status == ServiceStatus::kOk) {
    os << "status ok\n";
    os << "cache " << (r.cache_hit ? "hit" : "miss") << "\n";
    os << "verified " << (r.verified ? 1 : 0) << "\n";
    os << "ring " << r.ring.size() << "\n";
    for (std::size_t i = 0; i < r.ring.size(); ++i)
      os << r.ring[i] << ((i + 1) % 16 == 0 ? '\n' : ' ');
    os << "\n";
  } else {
    os << "status " << status_name(r.status) << "\nreason " << r.reason
       << "\n";
  }
  os << "end\n";
  return static_cast<bool>(os);
}

namespace {

/// Shared header handling: `starring-<what> v1` then `id <u64>`.  At a
/// clean end of stream (no header token at all) reports success=false
/// with *error cleared — the caller returns nullopt and the daemon
/// treats it as an orderly shutdown.
bool read_record_header(std::istream& is, const char* magic,
                        std::uint64_t* id, std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return false;
  }
  std::string version;
  if (word != magic || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return false;
  }
  if (!(is >> word >> *id) || word != "id") {
    fail(error, "bad id line");
    return false;
  }
  return true;
}

/// The record terminator keeps a stream of records self-framing.
bool read_end(std::istream& is, std::string* error) {
  std::string word;
  if (!(is >> word) || word != "end") {
    fail(error, "missing end line");
    return false;
  }
  return true;
}

/// A member address is the identity key of the whole membership layer,
/// so garbage is rejected at the parse boundary: bounded length and a
/// well-formed HOST:PORT per util/net's grammar.
bool valid_member_addr(const std::string& addr) {
  return !addr.empty() && addr.size() <= kMaxMemberAddrLen &&
         net::parse_endpoint(addr).has_value();
}

/// `<addr> <shard-id> <incarnation> <state>` — the quad both the
/// gossip `from`/`update` lines and the membership `member` lines use.
bool read_member_tokens(std::istream& is, MemberRecord* m,
                        std::string* error) {
  std::string state;
  if (!(is >> m->addr >> m->shard_id >> m->incarnation >> state) ||
      m->shard_id < -1 || !valid_member_addr(m->addr)) {
    fail(error, "bad member tokens");
    return false;
  }
  const auto parsed = parse_member_state(state);
  if (!parsed) {
    fail(error, "bad member state '" + state + "'");
    return false;
  }
  m->state = *parsed;
  return true;
}

void write_member_tokens(std::ostream& os, const MemberRecord& m) {
  os << m.addr << ' ' << m.shard_id << ' ' << m.incarnation << ' '
     << member_state_name(m.state);
}

const char* gossip_kind_name(GossipMessage::Kind k) {
  switch (k) {
    case GossipMessage::Kind::kPing:
      return "ping";
    case GossipMessage::Kind::kPingReq:
      return "ping-req";
    case GossipMessage::Kind::kAck:
      return "ack";
    case GossipMessage::Kind::kNack:
      return "nack";
    case GossipMessage::Kind::kJoin:
      return "join";
    case GossipMessage::Kind::kLeave:
      return "leave";
  }
  return "ping";
}

std::optional<GossipMessage::Kind> parse_gossip_kind(
    const std::string& token) {
  if (token == "ping") return GossipMessage::Kind::kPing;
  if (token == "ping-req") return GossipMessage::Kind::kPingReq;
  if (token == "ack") return GossipMessage::Kind::kAck;
  if (token == "nack") return GossipMessage::Kind::kNack;
  if (token == "join") return GossipMessage::Kind::kJoin;
  if (token == "leave") return GossipMessage::Kind::kLeave;
  return std::nullopt;
}

/// Body of a gossip record, after `starring-gossip v1` has been
/// consumed (read_request dispatches on the magic token itself).
std::optional<GossipMessage> read_gossip_body(std::istream& is,
                                              std::string* error) {
  GossipMessage m;
  std::string word;
  std::string kind;
  if (!(is >> word >> kind) || word != "kind") {
    fail(error, "bad kind line");
    return std::nullopt;
  }
  const auto parsed_kind = parse_gossip_kind(kind);
  if (!parsed_kind) {
    fail(error, "bad gossip kind '" + kind + "'");
    return std::nullopt;
  }
  m.kind = *parsed_kind;
  if (!(is >> word) || word != "from") {
    fail(error, "bad from line");
    return std::nullopt;
  }
  if (!read_member_tokens(is, &m.from, error)) return std::nullopt;
  if (!(is >> word)) {
    fail(error, "missing updates line");
    return std::nullopt;
  }
  if (word == "target") {
    if (!(is >> m.target) || !valid_member_addr(m.target)) {
      fail(error, "bad target line");
      return std::nullopt;
    }
    if (!(is >> word)) {
      fail(error, "missing updates line");
      return std::nullopt;
    }
  }
  if (m.kind == GossipMessage::Kind::kPingReq && m.target.empty()) {
    fail(error, "ping-req without target");
    return std::nullopt;
  }
  std::size_t count = 0;
  if (word != "updates" || !(is >> count) || count > kMaxMemberRecords) {
    fail(error, "bad updates line");
    return std::nullopt;
  }
  m.updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MemberRecord u;
    if (!(is >> word) || word != "update") {
      fail(error, "bad update line");
      return std::nullopt;
    }
    if (!read_member_tokens(is, &u, error)) return std::nullopt;
    m.updates.push_back(std::move(u));
  }
  if (!read_end(is, error)) return std::nullopt;
  return m;
}

}  // namespace

std::optional<ServiceRequest> read_request(std::istream& is,
                                           std::string* error) {
  ServiceRequest r;
  {
    // Bare command lines are recognized before the normal record
    // header; anything else must be a full record.
    std::string word;
    if (!(is >> word)) {
      fail(error, "");  // clean EOF
      return std::nullopt;
    }
    for (const auto& [kind, bare] : kBareCommands)
      if (word == bare) {
        r.kind = kind;
        return r;
      }
    if (word == "starring-gossip") {
      std::string version;
      if (!(is >> version) || version != "v1") {
        fail(error, "bad header");
        return std::nullopt;
      }
      auto g = read_gossip_body(is, error);
      if (!g) return std::nullopt;
      r.kind = RequestKind::kGossip;
      r.gossip = std::make_shared<GossipMessage>(std::move(*g));
      return r;
    }
    if (word == "starring-seed") {
      std::string version;
      if (!(is >> version) || version != "v1") {
        fail(error, "bad header");
        return std::nullopt;
      }
      r.kind = RequestKind::kSeed;
      if (!(is >> word >> r.n) || word != "n" || r.n < 1 || r.n > kMaxN) {
        fail(error, "bad dimension line");
        return std::nullopt;
      }
      if (!(is >> word >> r.seed_key) || word != "key" ||
          r.seed_key.size() > kMaxSeedKeyLen) {
        fail(error, "bad key line");
        return std::nullopt;
      }
      std::size_t count = 0;
      if (!(is >> word >> count) || word != "ring") {
        fail(error, "bad ring line");
        return std::nullopt;
      }
      if (!read_sequence(is, r.n, count, &r.seed_ring, error))
        return std::nullopt;
      if (!read_end(is, error)) return std::nullopt;
      return r;
    }
    if (word == "FAIL") {
      r.kind = RequestKind::kFail;
      std::getline(is, r.fail_config);
      // Trim the separating blank and any CR so the payload is exactly
      // the failpoint config grammar.
      while (!r.fail_config.empty() && (r.fail_config.front() == ' ' ||
                                        r.fail_config.front() == '\t'))
        r.fail_config.erase(r.fail_config.begin());
      while (!r.fail_config.empty() && (r.fail_config.back() == '\r' ||
                                        r.fail_config.back() == ' '))
        r.fail_config.pop_back();
      if (r.fail_config.empty()) {
        fail(error, "FAIL needs a config");
        return std::nullopt;
      }
      return r;
    }
    std::string version;
    if (word != "starring-request" || !(is >> version) || version != "v1") {
      fail(error, "bad header");
      return std::nullopt;
    }
    if (!(is >> word >> r.id) || word != "id") {
      fail(error, "bad id line");
      return std::nullopt;
    }
  }
  std::string word;
  if (!(is >> word >> r.n) || word != "n" || r.n < 1 || r.n > kMaxN) {
    fail(error, "bad dimension line");
    return std::nullopt;
  }
  if (!read_faults(is, r.n, &r.faults, error)) return std::nullopt;
  int verify = 0;
  if (!(is >> word >> verify) || word != "verify" ||
      (verify != 0 && verify != 1)) {
    fail(error, "bad verify line");
    return std::nullopt;
  }
  r.verify = verify == 1;
  // Optional tenant / deadline_ms / trace lines (any order, at most
  // once each), then the mandatory end terminator.
  bool saw_tenant = false;
  bool saw_deadline = false;
  bool saw_trace = false;
  while (true) {
    if (!(is >> word)) {
      fail(error, "missing end line");
      return std::nullopt;
    }
    if (word == "end") break;
    if (word == "trace" && !saw_trace) {
      std::string tid_tok;
      std::string psid_tok;
      if (!(is >> tid_tok >> psid_tok)) {
        fail(error, "bad trace line");
        return std::nullopt;
      }
      const auto tid = parse_u64(tid_tok);
      const auto psid = parse_u64(psid_tok);
      // trace id 0 is the "no trace" sentinel; a record spelling it out
      // is malformed, not a request without a trace.
      if (!tid || !psid || *tid == 0) {
        fail(error, "bad trace line");
        return std::nullopt;
      }
      r.trace_id = *tid;
      r.parent_span_id = *psid;
      saw_trace = true;
      continue;
    }
    if (word == "deadline_ms" && !saw_deadline) {
      if (!(is >> r.deadline_ms) || r.deadline_ms <= 0) {
        fail(error, "bad deadline_ms line");
        return std::nullopt;
      }
      saw_deadline = true;
      continue;
    }
    if (word == "tenant" && !saw_tenant) {
      // The name is the rest of the line (one token): taking it with
      // getline instead of >> keeps a nameless `tenant` line from
      // swallowing the `end` terminator as its value.
      std::string rest;
      std::getline(is, rest);
      while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
        rest.erase(rest.begin());
      while (!rest.empty() && (rest.back() == '\r' || rest.back() == ' ' ||
                               rest.back() == '\t'))
        rest.pop_back();
      if (rest.empty() || rest.size() > kMaxTenantLen ||
          rest.find_first_of(" \t") != std::string::npos) {
        fail(error, "bad tenant line");
        return std::nullopt;
      }
      r.tenant = std::move(rest);
      saw_tenant = true;
      continue;
    }
    fail(error, "missing end line");
    return std::nullopt;
  }
  return r;
}

std::optional<ServiceResponse> read_response(std::istream& is,
                                             std::string* error) {
  ServiceResponse r;
  if (!read_record_header(is, "starring-response", &r.id, error))
    return std::nullopt;
  std::string word;
  std::string status;
  if (!(is >> word >> status) || word != "status") {
    fail(error, "bad status line");
    return std::nullopt;
  }
  if (status == "error" || status == "rejected" || status == "timeout" ||
      status == "throttled") {
    r.status = status == "error"       ? ServiceStatus::kError
               : status == "rejected"  ? ServiceStatus::kRejected
               : status == "throttled" ? ServiceStatus::kThrottled
                                       : ServiceStatus::kTimeout;
    if (!(is >> word) || word != "reason") {
      fail(error, "bad reason line");
      return std::nullopt;
    }
    std::getline(is, r.reason);
    if (!r.reason.empty() && r.reason.front() == ' ')
      r.reason.erase(r.reason.begin());
    if (!read_end(is, error)) return std::nullopt;
    return r;
  }
  if (status != "ok") {
    fail(error, "bad status '" + status + "'");
    return std::nullopt;
  }
  r.status = ServiceStatus::kOk;
  std::string token;
  if (!(is >> word >> token) || word != "cache" ||
      (token != "hit" && token != "miss")) {
    fail(error, "bad cache line");
    return std::nullopt;
  }
  r.cache_hit = token == "hit";
  int verified = 0;
  if (!(is >> word >> verified) || word != "verified" ||
      (verified != 0 && verified != 1)) {
    fail(error, "bad verified line");
    return std::nullopt;
  }
  r.verified = verified == 1;
  std::size_t count = 0;
  if (!(is >> word >> count) || word != "ring") {
    fail(error, "bad ring line");
    return std::nullopt;
  }
  // The ring sequence has no dimension context of its own; responses
  // are validated against n! by the caller, which knows the request.
  // Structurally we only bound ids by kMaxN!.
  if (!read_sequence(is, kMaxN, count, &r.ring, error)) return std::nullopt;
  if (!read_end(is, error)) return std::nullopt;
  return r;
}

bool write_stats(std::ostream& os, const std::string& body) {
  std::string text = body;
  if (!text.empty() && text.back() != '\n') text.push_back('\n');
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  os << "starring-stats v1\n";
  os << "lines " << lines << "\n";
  os << text;
  os << "end\n";
  return static_cast<bool>(os);
}

std::optional<std::string> read_stats(std::istream& is, std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return std::nullopt;
  }
  std::string version;
  if (word != "starring-stats" || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  std::size_t lines = 0;
  if (!(is >> word >> lines) || word != "lines") {
    fail(error, "bad lines line");
    return std::nullopt;
  }
  std::string rest;
  std::getline(is, rest);  // consume the remainder of the count line
  std::string body;
  for (std::size_t i = 0; i < lines; ++i) {
    std::string line;
    if (!std::getline(is, line)) {
      fail(error, "truncated stats body");
      return std::nullopt;
    }
    body += line;
    body.push_back('\n');
  }
  if (!read_end(is, error)) return std::nullopt;
  return body;
}

bool write_health(std::ostream& os, const HealthInfo& h) {
  os << "starring-health v1\n";
  os << "shard " << h.shard_id << "\n";
  os << "epoch " << h.epoch << "\n";
  os << "cache_entries " << h.cache_entries << "\n";
  os << "cache_hits " << h.cache_hits << "\n";
  os << "cache_misses " << h.cache_misses << "\n";
  os << "uptime_ms " << h.uptime_ms << "\n";
  os << "inflight " << h.inflight << "\n";
  os << "end\n";
  return static_cast<bool>(os);
}

std::optional<HealthInfo> read_health(std::istream& is, std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return std::nullopt;
  }
  std::string version;
  if (word != "starring-health" || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  HealthInfo h;
  // shard -1 is legal: a proxy answers HEALTH too, and it is not a
  // shard.
  if (!(is >> word >> h.shard_id) || word != "shard" || h.shard_id < -1) {
    fail(error, "bad shard line");
    return std::nullopt;
  }
  if (!(is >> word >> h.epoch) || word != "epoch") {
    fail(error, "bad epoch line");
    return std::nullopt;
  }
  if (!(is >> word >> h.cache_entries) || word != "cache_entries") {
    fail(error, "bad cache_entries line");
    return std::nullopt;
  }
  if (!(is >> word >> h.cache_hits) || word != "cache_hits") {
    fail(error, "bad cache_hits line");
    return std::nullopt;
  }
  if (!(is >> word >> h.cache_misses) || word != "cache_misses") {
    fail(error, "bad cache_misses line");
    return std::nullopt;
  }
  // Optional uptime_ms / inflight lines (any order, at most once each);
  // absent in records written before PR 9, so tolerated rather than
  // required.
  bool saw_uptime = false;
  bool saw_inflight = false;
  while (true) {
    if (!(is >> word)) {
      fail(error, "missing end line");
      return std::nullopt;
    }
    if (word == "end") break;
    if (word == "uptime_ms" && !saw_uptime && (is >> h.uptime_ms)) {
      saw_uptime = true;
      continue;
    }
    if (word == "inflight" && !saw_inflight && (is >> h.inflight)) {
      saw_inflight = true;
      continue;
    }
    fail(error, "bad " + word + " line");
    return std::nullopt;
  }
  return h;
}

bool write_trace(std::ostream& os, const TraceDump& d) {
  os << "starring-trace v1\n";
  os << "process " << (d.process.empty() ? "-" : d.process) << "\n";
  os << "epoch_ns " << d.epoch_ns << "\n";
  os << "dropped " << d.dropped << "\n";
  os << "spans " << d.spans.size() << "\n";
  for (const obs::trace::SpanRecord& s : d.spans)
    os << s.trace_id << ' ' << s.span_id << ' ' << s.parent_id << ' '
       << s.start_ns << ' ' << s.dur_ns << ' ' << s.tid << ' '
       << (s.name.empty() ? "-" : s.name) << "\n";
  os << "end\n";
  return static_cast<bool>(os);
}

std::optional<TraceDump> read_trace(std::istream& is, std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return std::nullopt;
  }
  std::string version;
  if (word != "starring-trace" || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  TraceDump d;
  if (!(is >> word >> d.process) || word != "process" ||
      d.process.size() > kMaxTraceTokenLen) {
    fail(error, "bad process line");
    return std::nullopt;
  }
  if (d.process == "-") d.process.clear();
  if (!(is >> word >> d.epoch_ns) || word != "epoch_ns") {
    fail(error, "bad epoch_ns line");
    return std::nullopt;
  }
  if (!(is >> word >> d.dropped) || word != "dropped") {
    fail(error, "bad dropped line");
    return std::nullopt;
  }
  std::size_t count = 0;
  if (!(is >> word >> count) || word != "spans") {
    fail(error, "bad spans line");
    return std::nullopt;
  }
  if (count > kMaxTraceSpans) {
    fail(error, "spans count out of range");
    return std::nullopt;
  }
  // Bound the up-front reservation independently of the wire count,
  // like read_sequence: beyond this the vector grows as lines arrive.
  d.spans.reserve(std::min<std::size_t>(count, 1u << 16));
  for (std::size_t i = 0; i < count; ++i) {
    obs::trace::SpanRecord s;
    std::string name;
    if (!(is >> s.trace_id >> s.span_id >> s.parent_id >> s.start_ns >>
          s.dur_ns >> s.tid >> name)) {
      fail(error, "truncated span list");
      return std::nullopt;
    }
    if (name.size() > kMaxTraceTokenLen) {
      fail(error, "bad span name");
      return std::nullopt;
    }
    if (name != "-") s.name = std::move(name);
    d.spans.push_back(std::move(s));
  }
  if (!read_end(is, error)) return std::nullopt;
  return d;
}

bool write_merged_chrome_trace(std::ostream& os,
                               const std::vector<TraceDump>& dumps) {
  // Rebase every process onto the earliest epoch present; dumps taken
  // from one machine share CLOCK_MONOTONIC, so the offsets put their
  // spans on a single consistent timeline.
  std::uint64_t min_epoch = UINT64_MAX;
  for (const TraceDump& d : dumps) min_epoch = std::min(min_epoch, d.epoch_ns);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < dumps.size(); ++pid) {
    const TraceDump& d = dumps[pid];
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << obs::json_escape(d.process.empty() ? "unknown" : d.process)
       << "\"}}";
    const double offset_us =
        static_cast<double>(d.epoch_ns - min_epoch) / 1000.0;
    for (const obs::trace::SpanRecord& r : d.spans) {
      const std::string_view name = r.name;
      const std::string_view cat = name.substr(0, name.find('.'));
      os << ",\n{\"name\":\"" << obs::json_escape(name) << "\",\"cat\":\""
         << obs::json_escape(cat) << "\",\"ph\":\"X\",\"ts\":"
         << obs::json_number(static_cast<double>(r.start_ns) / 1000.0 +
                             offset_us)
         << ",\"dur\":"
         << obs::json_number(static_cast<double>(r.dur_ns) / 1000.0)
         << ",\"pid\":" << pid << ",\"tid\":" << r.tid
         << ",\"args\":{\"trace\":" << r.trace_id << ",\"span\":"
         << r.span_id << ",\"parent\":" << r.parent_id << "}}";
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

const char* member_state_name(MemberWireState s) {
  switch (s) {
    case MemberWireState::kAlive:
      return "alive";
    case MemberWireState::kSuspect:
      return "suspect";
    case MemberWireState::kDead:
      return "dead";
    case MemberWireState::kLeft:
      return "left";
  }
  return "alive";
}

std::optional<MemberWireState> parse_member_state(std::string_view token) {
  if (token == "alive") return MemberWireState::kAlive;
  if (token == "suspect") return MemberWireState::kSuspect;
  if (token == "dead") return MemberWireState::kDead;
  if (token == "left") return MemberWireState::kLeft;
  return std::nullopt;
}

bool write_gossip(std::ostream& os, const GossipMessage& m) {
  os << "starring-gossip v1\n";
  os << "kind " << gossip_kind_name(m.kind) << "\n";
  os << "from ";
  write_member_tokens(os, m.from);
  os << "\n";
  if (!m.target.empty()) os << "target " << m.target << "\n";
  os << "updates " << m.updates.size() << "\n";
  for (const MemberRecord& u : m.updates) {
    os << "update ";
    write_member_tokens(os, u);
    os << "\n";
  }
  os << "end\n";
  return static_cast<bool>(os);
}

std::optional<GossipMessage> read_gossip(std::istream& is,
                                         std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return std::nullopt;
  }
  std::string version;
  if (word != "starring-gossip" || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  return read_gossip_body(is, error);
}

bool write_membership(std::ostream& os, const MembershipRecord& m) {
  os << "starring-membership v1\n";
  os << "epoch " << m.epoch << "\n";
  os << "replication " << m.replication << "\n";
  os << "vnodes " << m.vnodes << "\n";
  os << "members " << m.members.size() << "\n";
  for (const MemberRecord& r : m.members) {
    os << "member ";
    write_member_tokens(os, r);
    os << "\n";
  }
  os << "end\n";
  return static_cast<bool>(os);
}

std::optional<MembershipRecord> read_membership(std::istream& is,
                                                std::string* error) {
  std::string word;
  if (!(is >> word)) {
    fail(error, "");  // clean EOF
    return std::nullopt;
  }
  std::string version;
  if (word != "starring-membership" || !(is >> version) || version != "v1") {
    fail(error, "bad header");
    return std::nullopt;
  }
  MembershipRecord m;
  if (!(is >> word >> m.epoch) || word != "epoch") {
    fail(error, "bad epoch line");
    return std::nullopt;
  }
  if (!(is >> word >> m.replication) || word != "replication" ||
      m.replication < 1) {
    fail(error, "bad replication line");
    return std::nullopt;
  }
  if (!(is >> word >> m.vnodes) || word != "vnodes" || m.vnodes < 1) {
    fail(error, "bad vnodes line");
    return std::nullopt;
  }
  std::size_t count = 0;
  if (!(is >> word >> count) || word != "members" ||
      count > kMaxMemberRecords) {
    fail(error, "bad members line");
    return std::nullopt;
  }
  m.members.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MemberRecord r;
    if (!(is >> word) || word != "member") {
      fail(error, "bad member line");
      return std::nullopt;
    }
    if (!read_member_tokens(is, &r, error)) return std::nullopt;
    m.members.push_back(std::move(r));
  }
  if (!read_end(is, error)) return std::nullopt;
  return m;
}

}  // namespace starring
