#include "util/io.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/json.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"

namespace starring {

namespace {

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
        if (c < '0' || c > '9' || v > kMaxN) return std::nullopt;
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

/// One name per enumerator, for both directions of the codec.
template <class E>
using NameTable = std::initializer_list<std::pair<E, const char*>>;

template <class E>
const char* name_of(NameTable<E> table, E value) {
  for (const auto& [v, name] : table)
    if (v == value) return name;
  return table.begin()->second;
}

template <class E>
std::optional<E> parse_name(NameTable<E> table, std::string_view token) {
  for (const auto& [v, name] : table)
    if (token == name) return v;
  return std::nullopt;
}

/// The bare one-word command lines.  FAIL carries a payload and is
/// framed apart.
constexpr NameTable<RequestKind> kBareCommands = {
    {RequestKind::kStats, "STATS"},     {RequestKind::kPing, "PING"},
    {RequestKind::kHealth, "HEALTH"},   {RequestKind::kTrace, "TRACE"},
    {RequestKind::kSlow, "SLOW"},       {RequestKind::kMembers, "MEMBERS"},
    {RequestKind::kLeave, "LEAVE"},
};

constexpr NameTable<ServiceStatus> kStatusNames = {
    {ServiceStatus::kOk, "ok"},
    {ServiceStatus::kError, "error"},
    {ServiceStatus::kRejected, "rejected"},
    {ServiceStatus::kTimeout, "timeout"},
    {ServiceStatus::kThrottled, "throttled"},
};

constexpr NameTable<MemberWireState> kMemberStates = {
    {MemberWireState::kAlive, "alive"},
    {MemberWireState::kSuspect, "suspect"},
    {MemberWireState::kDead, "dead"},
    {MemberWireState::kLeft, "left"},
};

constexpr NameTable<GossipMessage::Kind> kGossipKinds = {
    {GossipMessage::Kind::kPing, "ping"},
    {GossipMessage::Kind::kPingReq, "ping-req"},
    {GossipMessage::Kind::kAck, "ack"},
    {GossipMessage::Kind::kNack, "nack"},
    {GossipMessage::Kind::kJoin, "join"},
    {GossipMessage::Kind::kLeave, "leave"},
};

void write_faults(RecordWriter& w, const FaultSet& faults) {
  const auto vf = faults.vertex_faults();
  w.line("vertex_faults", vf.size());
  for (const Perm& f : vf) w.os << f.to_string() << "\n";
  const auto ef = faults.edge_faults();
  w.line("edge_faults", ef.size());
  for (const EdgeFault& f : ef)
    w.os << f.u.to_string() << ' ' << f.v.to_string() << "\n";
}

/// The `vertex_faults`/`edge_faults` sections shared by embedding
/// files and service requests.
void read_faults(RecordReader& c, int n, FaultSet* out) {
  if (!c.ok()) return;  // n is unchecked
  // One structural cap on both counts: there are only n! vertices (and
  // n!*(n-1)/2 edges, but one shared cap keeps the check simple).
  const std::size_t cap = factorial(n);
  std::size_t count = 0;
  std::string a;
  std::string b;
  c.count("vertex_faults", cap, &count, "vertex_faults count out of range");
  for (std::size_t i = 0;
       i < count && c.check(c.token(&a), "truncated vertex faults"); ++i) {
    if (const auto p = parse_perm(a, n))
      out->add_vertex(*p);
    else
      c.fail("bad vertex fault '" + a + "'");
  }
  c.count("edge_faults", cap, &count, "edge_faults count out of range");
  for (std::size_t i = 0; i < count && c.check(c.token(&a) && c.token(&b),
                                               "truncated edge faults");
       ++i) {
    const auto u = parse_perm(a, n);
    const auto v = parse_perm(b, n);
    if (u && v && u->adjacent(*v))
      out->add_edge(*u, *v);
    else
      c.fail("bad edge fault '" + a + " " + b + "'");
  }
}

/// A member address is the identity key of the whole membership layer,
/// so garbage is rejected at the parse boundary: bounded length and a
/// well-formed HOST:PORT per util/net's grammar.
bool valid_member_addr(const std::string& addr) {
  return !addr.empty() && addr.size() <= kMaxMemberAddrLen &&
         net::parse_endpoint(addr).has_value();
}

/// `<addr> <shard-id> <incarnation> <state>`, the member quad of the
/// gossip `from`/`update` lines and the membership `member` lines.
void read_member(RecordReader& c, MemberRecord* m) {
  std::string state;
  c.check(c.token(&m->addr) && valid_member_addr(m->addr) &&
              c.num(&m->shard_id, -1) &&
              c.num(&m->incarnation, 0, UINT64_MAX - 1) && c.token(&state),
          "bad member tokens");
  if (const auto parsed = parse_name(kMemberStates, state))
    m->state = *parsed;
  else
    c.fail("bad member state '" + state + "'");
}

void write_member(RecordWriter& w, std::string_view key,
                  const MemberRecord& m) {
  w.line(key, m.addr, m.shard_id, m.incarnation, member_state_name(m.state));
}

/// Body of a gossip record, after its header.
void read_gossip_body(RecordReader& c, GossipMessage* m) {
  std::string word;
  c.text("kind", &word);
  if (const auto kind = parse_name(kGossipKinds, word))
    m->kind = *kind;
  else
    c.fail("bad gossip kind '" + word + "'");
  if (c.key("from")) read_member(c, &m->from);
  c.check(c.token(&word), "missing updates line");
  if (word == "target") {
    c.check(c.token(&m->target) && valid_member_addr(m->target),
            "bad target line");
    c.check(c.token(&word), "missing updates line");
  }
  c.check(m->kind != GossipMessage::Kind::kPingReq || !m->target.empty(),
          "ping-req without target");
  std::size_t count = 0;
  c.check(word == "updates" && c.num(&count, 0, kMaxMemberRecords),
          "bad updates line");
  for (std::size_t i = 0; i < count && c.key("update"); ++i)
    read_member(c, &m->updates.emplace_back());
  c.end();
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

// --- RecordReader / RecordWriter -------------------------------------

bool RecordReader::fail(std::string_view why) {
  if (ok_ && error_ != nullptr) *error_ = why;
  ok_ = false;
  return false;
}

bool RecordReader::bad_line(std::string_view label) {
  return ok_ && fail("bad " + std::string(label) + " line");
}

bool RecordReader::missing(std::string_view what) {
  return ok_ && fail("missing " + std::string(what) + " line");
}

bool RecordReader::token(std::string* out) {
  if (!ok_) return false;
  is_.width(static_cast<std::streamsize>(kMaxTokenLen + 1));
  return static_cast<bool>(is_ >> *out);
}

bool RecordReader::expect(std::string_view word) {
  return token(&tok_) && tok_ == word;
}

bool RecordReader::value(std::uint64_t* out) {
  if (!token(&tok_)) return false;
  const auto v = parse_u64(tok_);
  if (v) *out = *v;
  return v.has_value();
}

bool RecordReader::value(std::int64_t* out) {
  if (!token(&tok_)) return false;
  const bool neg = tok_.size() > 1 && tok_[0] == '-';
  const auto v = parse_u64(neg ? tok_.substr(1) : tok_);
  if (!v || *v > static_cast<std::uint64_t>(INT64_MAX)) return false;
  *out = neg ? -static_cast<std::int64_t>(*v) : static_cast<std::int64_t>(*v);
  return true;
}

bool RecordReader::line(std::string* out, bool trim) {
  out->clear();
  if (!ok_) return false;
  using Traits = std::istream::traits_type;
  std::streambuf* in = is_.rdbuf();
  bool any = false;
  for (Traits::int_type ch; !Traits::eq_int_type(ch = in->sbumpc(),
                                                 Traits::eof());) {
    any = true;
    if (ch == '\n') break;
    if (out->size() == kMaxLineLen) return fail("line too long");
    out->push_back(Traits::to_char_type(ch));
  }
  if (!any) is_.setstate(std::ios::eofbit | std::ios::failbit);
  if (trim) {
    const auto first = out->find_first_not_of(" \t");
    out->erase(0, first == std::string::npos ? out->size() : first);
    out->erase(out->find_last_not_of(" \t\r") + 1);
  }
  return any;
}

bool RecordReader::open(std::string* magic, bool file) {
  magic->clear();
  return token(magic) || (file && ok_) || fail("");  // "": clean end
}

bool RecordReader::version(bool known) {
  return (known && expect("v1")) || fail("bad header");
}

bool RecordReader::key(std::string_view key, std::string_view label) {
  return expect(key) || bad_line(label.empty() ? key : label);
}

bool RecordReader::text(std::string_view key, std::string* out,
                        std::size_t cap) {
  return (expect(key) && token(out) && out->size() <= cap) || bad_line(key);
}

bool RecordReader::choice(std::string_view key, std::string_view no,
                          std::string_view yes, bool* out) {
  if (!expect(key) || !token(&tok_) || (tok_ != no && tok_ != yes))
    return bad_line(key);
  *out = tok_ == yes;
  return true;
}

bool RecordReader::count(std::string_view key, std::size_t cap,
                         std::size_t* out, std::string_view over) {
  if (!expect(key) || !num(out)) return bad_line(key);
  return *out <= cap || (over.empty() ? bad_line(key) : fail(over));
}

bool RecordReader::ids(std::string_view key, int n,
                       std::vector<VertexId>* out) {
  if (!ok_) return false;  // n is unchecked
  const std::uint64_t limit = factorial(n);
  std::size_t size = 0;
  if (!count(key, limit, &size, "sequence count out of range")) return false;
  out->reserve(std::min<std::size_t>(size, 1u << 16));
  // Straight off the buffer, with no sentry or locale per id, but
  // leaving the stream's state as `>>` would; the blanks skipped are
  // the C locale's.
  using Traits = std::istream::traits_type;
  std::streambuf* in = is_.rdbuf();
  const auto blank = [](Traits::int_type ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  };
  const auto digit = [](Traits::int_type ch) {
    return ch >= '0' && ch <= '9';
  };
  const auto at_end = [&](Traits::int_type ch) {
    if (!Traits::eq_int_type(ch, Traits::eof())) return false;
    is_.setstate(std::ios::eofbit);
    return true;
  };
  const auto refuse = [&](const std::string& why) {
    is_.setstate(std::ios::failbit);
    return fail(why);
  };
  for (std::size_t i = 0; i < size; ++i) {
    Traits::int_type ch = in->sgetc();
    while (blank(ch)) ch = in->snextc();
    if (ch == '+' || ch == '-') {
      std::string tok;
      for (; !at_end(ch) && !blank(ch) && tok.size() <= kMaxTokenLen;
           ch = in->snextc())
        tok.push_back(Traits::to_char_type(ch));
      return refuse("bad vertex id '" + tok + "'");
    }
    if (at_end(ch) || !digit(ch)) return refuse("truncated sequence");
    // No more than kMaxTokenLen + 1 characters are read.  Leading zeros
    // and the first 19 significant digits cannot overflow; from the
    // 20th on, each digit is checked, and the first overflow ends the
    // read.
    std::size_t len = 0;
    for (; ch == '0' && len <= kMaxTokenLen; ch = in->snextc()) ++len;
    const std::size_t zeros = len;
    VertexId id = 0;
    for (const std::size_t fast = std::min(len + 19, kMaxTokenLen + 1);
         len < fast && digit(ch); ++len, ch = in->snextc())
      id = id * 10 + static_cast<VertexId>(ch - '0');
    bool wrapped = false;
    for (; len <= kMaxTokenLen && !wrapped && digit(ch);
         ++len, ch = in->snextc())
      wrapped = __builtin_mul_overflow(id, 10, &id) |
                __builtin_add_overflow(id, ch - '0', &id);
    if (len > kMaxTokenLen && !wrapped)
      return refuse("bad vertex id '" + std::string(zeros, '0') +
                    (zeros < len ? std::to_string(id) : "") + "'");
    at_end(ch);  // an id that ends the stream sets eofbit
    if (wrapped) return refuse("truncated sequence");
    if (id >= limit)
      return fail("vertex id out of range: " + std::to_string(id));
    out->push_back(id);
  }
  return true;
}

bool RecordReader::end() { return expect("end") || fail("missing end line"); }

RecordWriter& RecordWriter::ids(std::string_view key,
                                const std::vector<VertexId>& ids) {
  line(key, ids.size());
  // One insertion per 16-id line: `id id ... id\n`, the last line
  // padded with a blank after each id, then the closing newline.
  char buf[16 * (std::numeric_limits<VertexId>::digits10 + 2)];
  for (std::size_t i = 0; i < ids.size();) {
    char* p = buf;
    do {
      p = std::to_chars(p, std::end(buf), ids[i]).ptr;
      *p++ = ++i % 16 == 0 ? '\n' : ' ';
    } while (i % 16 != 0 && i < ids.size());
    os.write(buf, p - buf);
  }
  os << '\n';
  return *this;
}

bool RecordWriter::end() {
  os << "end\n";
  return ok();
}

// --- the records -----------------------------------------------------

bool write_embedding(std::ostream& os, const EmbeddingFile& e) {
  RecordWriter w(os, "starring-embedding");
  w.line("n", e.n).line("kind", e.is_ring ? "ring" : "path");
  write_faults(w, e.faults);
  w.ids("sequence", e.sequence);
  return w.ok();
}

std::optional<EmbeddingFile> read_embedding(std::istream& is,
                                            std::string* error) {
  RecordReader c(is, error);
  EmbeddingFile e;
  c.header("starring-embedding", /*file=*/true);
  c.scalar("n", &e.n, 1, kMaxN, "dimension");
  c.choice("kind", "path", "ring", &e.is_ring);
  read_faults(c, e.n, &e.faults);
  c.ids("sequence", e.n, &e.sequence);
  return c.finish(std::move(e));
}

bool write_request(std::ostream& os, const ServiceRequest& r) {
  for (const auto& [kind, word] : kBareCommands)
    if (r.kind == kind) return static_cast<bool>(os << word << "\n");
  if (r.kind == RequestKind::kFail)
    return static_cast<bool>(os << "FAIL " << r.fail_config << "\n");
  // A gossip request without a payload is a caller bug, reported as a
  // stream failure rather than silently framing garbage.
  if (r.kind == RequestKind::kGossip)
    return r.gossip != nullptr && write_gossip(os, *r.gossip);
  if (r.kind == RequestKind::kSeed) {
    RecordWriter w(os, "starring-seed");
    w.line("n", r.n).line("key", r.seed_key).ids("ring", r.seed_ring);
    return w.end();
  }
  RecordWriter w(os, "starring-request");
  w.line("id", r.id).line("n", r.n);
  write_faults(w, r.faults);
  w.line("verify", r.verify);
  // Optional lines are omitted at their defaults, so records written
  // here stay parseable by readers of the original v1 grammar.
  if (!r.tenant.empty()) w.line("tenant", r.tenant);
  if (r.deadline_ms > 0) w.line("deadline_ms", r.deadline_ms);
  if (r.trace_id != 0) w.line("trace", r.trace_id, r.parent_span_id);
  return w.end();
}

std::optional<ServiceRequest> read_request(std::istream& is,
                                           std::string* error) {
  RecordReader c(is, error);
  ServiceRequest r;
  std::string word;
  if (!c.open(&word)) return std::nullopt;
  if (const auto bare = parse_name(kBareCommands, word)) {
    r.kind = *bare;
    return r;
  }
  if (word == "FAIL") {
    r.kind = RequestKind::kFail;
    c.line(&r.fail_config, /*trim=*/true);
    c.check(!r.fail_config.empty(), "FAIL needs a config");
  } else if (word == "starring-gossip") {
    r.kind = RequestKind::kGossip;
    r.gossip = std::make_shared<GossipMessage>();
    c.version(true);
    read_gossip_body(c, r.gossip.get());
  } else if (word == "starring-seed") {
    r.kind = RequestKind::kSeed;
    c.version(true);
    c.scalar("n", &r.n, 1, kMaxN, "dimension");
    c.text("key", &r.seed_key, kMaxSeedKeyLen);
    c.ids("ring", r.n, &r.seed_ring);
    c.end();
  } else {
    c.version(word == "starring-request");
    c.scalar("id", &r.id);
    c.scalar("n", &r.n, 1, kMaxN, "dimension");
    read_faults(c, r.n, &r.faults);
    c.scalar("verify", &r.verify);
    c.optionals({"tenant", "deadline_ms", "trace"},
                [&](std::size_t k, const std::string&) {
                  switch (k) {
                    case 0:  // one token, taken as the rest of the line
                             // so a nameless `tenant` line cannot
                             // swallow the `end` terminator as its name
                      return c.line(&r.tenant, /*trim=*/true) &&
                             !r.tenant.empty() &&
                             r.tenant.size() <= kMaxTenantLen &&
                             r.tenant.find_first_of(" \t") ==
                                 std::string::npos;
                    case 1:
                      return c.num(&r.deadline_ms, 1);
                    case 2:  // trace id 0 is the "no trace" sentinel
                      return c.num(&r.trace_id, 1) &&
                             c.num(&r.parent_span_id);
                  }
                  return false;  // unknown or repeated: no end line
                });
  }
  return c.finish(std::move(r));
}

const char* status_name(ServiceStatus s) { return name_of(kStatusNames, s); }

bool write_response(std::ostream& os, const ServiceResponse& r) {
  // Chaos site: a failed serialization looks exactly like a peer whose
  // stream died mid-response — the caller's error path must cope.
  if (FAILPOINT("io.write_response")) {
    os.setstate(std::ios::failbit);
    return false;
  }
  RecordWriter w(os, "starring-response");
  w.line("id", r.id).line("status", status_name(r.status));
  if (r.status == ServiceStatus::kOk)
    w.line("cache", r.cache_hit ? "hit" : "miss")
        .line("verified", r.verified)
        .ids("ring", r.ring);
  else
    w.line("reason", r.reason);
  return w.end();
}

std::optional<ServiceResponse> read_response(std::istream& is,
                                             std::string* error) {
  RecordReader c(is, error);
  ServiceResponse r;
  std::string status;
  c.header("starring-response");
  c.scalar("id", &r.id);
  c.text("status", &status);
  if (const auto parsed = parse_name(kStatusNames, status))
    r.status = *parsed;
  else
    c.fail("bad status '" + status + "'");
  if (r.status == ServiceStatus::kOk) {
    c.choice("cache", "miss", "hit", &r.cache_hit);
    c.scalar("verified", &r.verified);
    c.ids("ring", kMaxN, &r.ring);
  } else if (c.key("reason")) {
    c.line(&r.reason);
    if (!r.reason.empty() && r.reason.front() == ' ') r.reason.erase(0, 1);
  }
  c.end();
  return c.finish(std::move(r));
}

bool write_stats(std::ostream& os, const std::string& body) {
  std::string text = body;
  if (!text.empty() && text.back() != '\n') text.push_back('\n');
  RecordWriter w(os, "starring-stats");
  w.line("lines", std::count(text.begin(), text.end(), '\n'));
  w.os << text;
  return w.end();
}

std::optional<std::string> read_stats(std::istream& is, std::string* error) {
  RecordReader c(is, error);
  std::size_t lines = 0;
  std::string body;
  std::string line;
  c.header("starring-stats");
  c.count("lines", SIZE_MAX, &lines);
  c.line(&line);  // the remainder of the count line
  for (std::size_t i = 0;
       i < lines && c.check(c.line(&line), "truncated stats body"); ++i)
    (body += line) += '\n';
  c.end();
  return c.finish(std::move(body));
}

bool write_health(std::ostream& os, const HealthInfo& h) {
  RecordWriter w(os, "starring-health");
  w.line("shard", h.shard_id)
      .line("epoch", h.epoch)
      .line("cache_entries", h.cache_entries)
      .line("cache_hits", h.cache_hits)
      .line("cache_misses", h.cache_misses)
      .line("uptime_ms", h.uptime_ms)
      .line("inflight", h.inflight);
  return w.end();
}

std::optional<HealthInfo> read_health(std::istream& is, std::string* error) {
  RecordReader c(is, error);
  HealthInfo h;
  c.header("starring-health");
  c.scalar("shard", &h.shard_id, -1);  // -1: a proxy, which is no shard
  c.scalar("epoch", &h.epoch);
  c.scalar("cache_entries", &h.cache_entries);
  c.scalar("cache_hits", &h.cache_hits);
  c.scalar("cache_misses", &h.cache_misses);
  c.optionals({"uptime_ms", "inflight"},
              [&](std::size_t k, const std::string& word) {
                if (k == 2) return c.bad_line(word);
                return c.num(k == 0 ? &h.uptime_ms : &h.inflight);
              });
  return c.finish(std::move(h));
}

bool write_trace(std::ostream& os, const TraceDump& d) {
  RecordWriter w(os, "starring-trace");
  w.line("process", d.process.empty() ? "-" : d.process)
      .line("epoch_ns", d.epoch_ns)
      .line("dropped", d.dropped)
      .line("spans", d.spans.size());
  for (const obs::trace::SpanRecord& s : d.spans)
    w.os << s.trace_id << ' ' << s.span_id << ' ' << s.parent_id << ' '
         << s.start_ns << ' ' << s.dur_ns << ' ' << s.tid << ' '
         << (s.name.empty() ? "-" : s.name) << "\n";
  return w.end();
}

std::optional<TraceDump> read_trace(std::istream& is, std::string* error) {
  RecordReader c(is, error);
  TraceDump d;
  std::string name;
  c.header("starring-trace");
  c.text("process", &d.process, kMaxTraceTokenLen);
  if (d.process == "-") d.process.clear();
  c.scalar("epoch_ns", &d.epoch_ns);
  c.scalar("dropped", &d.dropped);
  c.list(
      "spans", kMaxTraceSpans, &d.spans,
      [&](obs::trace::SpanRecord& s) {
        c.check(c.num(&s.trace_id) && c.num(&s.span_id) &&
                    c.num(&s.parent_id) && c.num(&s.start_ns, 0) &&
                    c.num(&s.dur_ns, 0) && c.num(&s.tid) && c.token(&name),
                "truncated span list");
        c.check(name.size() <= kMaxTraceTokenLen, "bad span name");
        if (name != "-") s.name = name;
      },
      "spans count out of range");
  c.end();
  return c.finish(std::move(d));
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
  return name_of(kMemberStates, s);
}

std::optional<MemberWireState> parse_member_state(std::string_view token) {
  return parse_name(kMemberStates, token);
}

bool write_gossip(std::ostream& os, const GossipMessage& m) {
  RecordWriter w(os, "starring-gossip");
  w.line("kind", name_of(kGossipKinds, m.kind));
  write_member(w, "from", m.from);
  if (!m.target.empty()) w.line("target", m.target);
  w.line("updates", m.updates.size());
  for (const MemberRecord& u : m.updates) write_member(w, "update", u);
  return w.end();
}

std::optional<GossipMessage> read_gossip(std::istream& is,
                                         std::string* error) {
  RecordReader c(is, error);
  GossipMessage m;
  c.header("starring-gossip");
  read_gossip_body(c, &m);
  return c.finish(std::move(m));
}

bool write_membership(std::ostream& os, const MembershipRecord& m) {
  RecordWriter w(os, "starring-membership");
  w.line("epoch", m.epoch)
      .line("replication", m.replication)
      .line("vnodes", m.vnodes)
      .line("members", m.members.size());
  for (const MemberRecord& r : m.members) write_member(w, "member", r);
  return w.end();
}

std::optional<MembershipRecord> read_membership(std::istream& is,
                                                std::string* error) {
  RecordReader c(is, error);
  MembershipRecord m;
  c.header("starring-membership");
  c.scalar("epoch", &m.epoch);
  c.scalar("replication", &m.replication, 1);
  c.scalar("vnodes", &m.vnodes, 1);
  c.list("members", kMaxMemberRecords, &m.members, [&](MemberRecord& r) {
    if (c.key("member")) read_member(c, &r);
  });
  c.end();
  return c.finish(std::move(m));
}

}  // namespace starring
