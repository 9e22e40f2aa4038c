// The record codec: every text record the library reads or writes.
//
// One grammar serves them all.  A record is a sequence of
// whitespace-separated tokens laid out as lines:
//
//   <magic> v1            the header; any other version is `bad header`
//   <key> <value>         scalar lines, in a fixed order; a malformed or
//                         missing one is `bad <key> line`
//   [<key> <value>]       optional lines (where a record has them): any
//                         order, each at most once
//   <key> <count>         a counted list, then <count> items; the count
//   <item> x count        is checked against the list's cap before
//                         anything is reserved
//   end                   the terminator, so a stream of records is
//                         self-framing (`missing end line` otherwise)
//
// Numbers are strict decimals (parse_u64): `-1`, `+1` or 2^64 in an
// unsigned field is a framing error, never a silent wrap.  The readers
// are built on RecordReader, a cursor that keeps the first error it
// hits: each reader is a straight list of cursor calls, and the error
// string is the one the first failing call recorded.  A clean end of
// stream before a header is not an error: the reader returns nullopt
// with *error set to "" -- that is how a daemon tells an orderly
// shutdown from a framing error (non-empty *error).  The two file
// formats (embedding, shard map) are single records, so an empty file
// is `bad header` there.  No token is read past kMaxTokenLen + 1
// characters and no rest-of-line field past kMaxLineLen, so a garbage
// frame is refused after a bounded read.  The writers are built on
// RecordWriter and emit exactly what the readers accept.
//
// The records, as their fields (1-based permutation literals such as
// 2134567, dot-separated 2.1.10.3... for n > 9; vertex ids are Lehmer
// ranks, written 16 to a line):
//
//   starring-embedding v1   n <dim>, kind <ring|path>, vertex_faults
//                           <count> + one literal each, edge_faults
//                           <count> + two literals each, sequence
//                           <count> + ids.  A file: no end line.
//   starring-request v1     id <u64>, n, vertex_faults, edge_faults,
//                           verify <0|1>, optional tenant <name>,
//                           deadline_ms <ms> and trace <tid> <psid>, end
//   starring-response v1    id, status <ok|error|rejected|timeout|
//                           throttled>; ok: cache <hit|miss>, verified
//                           <0|1>, ring <count> + ids; otherwise
//                           reason <rest of line>; end
//   starring-seed v1        n, key <canonical class key>, ring <count>
//                           + ids, end
//   starring-stats v1       lines <count> + that many verbatim lines, end
//   starring-health v1      shard <id|-1>, epoch, cache_entries,
//                           cache_hits, cache_misses, optional uptime_ms
//                           and inflight, end
//   starring-trace v1       process <label|->, epoch_ns, dropped, spans
//                           <count> + `<trace> <span> <parent> <start_ns>
//                           <dur_ns> <tid> <name|->` each, end
//   starring-gossip v1      kind <ping|ping-req|ack|nack|join|leave>,
//                           from <member>, [target <host:port>],
//                           updates <count> + `update <member>` each, end
//   starring-membership v1  epoch, replication, vnodes, members <count>
//                           + `member <member>` each, end
//   starring-shard-map v1   optional epoch, replication and vnodes,
//                           shards <count> + `shard <id> <host:port>`
//                           each, end (cluster/shard_map.hpp)
//
// where <member> is `<host:port> <shard-id> <incarnation> <state>`.
//
// The request stream also carries bare command lines, each answered
// inline (ahead of any still-pending embedding responses): STATS (a
// stats record of Prometheus text), PING (`PONG`), FAIL <config> (arm
// fault-injection sites, util/failpoint.hpp grammar; `FAIL ok` or
// `FAIL bad <reason>`), HEALTH (a health record), TRACE (a trace
// record), SLOW (the proxy's slow-request report as a stats record),
// MEMBERS (a membership record) and LEAVE (`LEAVE ok`, then a graceful
// departure).  Seed records are answered `SEED ok` or `SEED bad
// <reason>`; gossip records with a gossip ack/nack, or a membership
// snapshot for `kind join`.
//
// read_embedding() and the response reader validate structure and
// value ranges only; whether a ring is really healthy stays with
// core/verify.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "perm/permutation.hpp"

namespace starring {

// --- strict numeric tokens -------------------------------------------

/// Strict decimal u64: all digits, no sign, no overflow.  Every
/// unsigned wire field parses with this rather than `>>`, so an
/// oversized or negative value is a framing error instead of a silent
/// wrap.
std::optional<std::uint64_t> parse_u64(const std::string& tok);

/// Strict finite double: the whole token is a decimal number (sign,
/// fraction and exponent allowed; no whitespace, hex, inf or nan).
std::optional<double> parse_double(const std::string& tok);

/// The daemons' numeric flag values: advance *i and parse argv[*i]
/// whole, as a parse_u64 integer no larger than INT_MAX or as a
/// parse_double.  -1 when the value is missing or malformed, so a
/// caller's `(v = int_arg(...)) >= 0` guard sends it to usage.
long int_arg(int argc, char** argv, int* i);
double double_arg(int argc, char** argv, int* i);

// --- the record grammar ----------------------------------------------

/// Longest token any record carries (a seed's canonical class key).
inline constexpr std::size_t kMaxTokenLen = 256;
/// Longest rest-of-line field: FAIL config, tenant, reason, stats line.
inline constexpr std::size_t kMaxLineLen = 4096;

/// Reading cursor over one record.  Every call is a no-op returning
/// false once a call has failed, and the first failure's message is the
/// one left in *error.  The primitives (token, expect, num, and line
/// short of its length cap) record no message of their own: the caller
/// names the failure with check().
class RecordReader {
 public:
  RecordReader(std::istream& is, std::string* error)
      : is_(is), error_(error) {}

  bool ok() const { return ok_; }
  /// Keep `why` as the error unless an earlier one is kept.  False.
  bool fail(std::string_view why);
  bool check(bool cond, std::string_view why) { return cond || fail(why); }
  /// fail("bad <label> line").
  bool bad_line(std::string_view label);

  /// The next token, at most kMaxTokenLen + 1 characters of it (one
  /// past any legal token, so a length check still sees the overrun).
  bool token(std::string* out);
  /// The next token equals `word`.
  bool expect(std::string_view word);
  /// The next token as a strict decimal in [lo, hi].
  template <class T>
  bool num(T* out, std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
           std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t> v = 0;
    if (!value(&v) || v < lo || v > hi) return false;
    *out = static_cast<T>(v);
    return true;
  }
  /// The rest of the current line (the newline is consumed), trimmed
  /// of surrounding blanks and CR when `trim`.  False at end of stream
  /// with nothing read; `line too long` past kMaxLineLen.
  bool line(std::string* out, bool trim = false);

  /// A record's first token.  A clean end of stream fails with an
  /// empty error; a `file` has no clean end, so it reads on to
  /// version() and `bad header`.
  bool open(std::string* magic, bool file = false);
  /// The `v1` after a first token; `bad header` unless `known`.
  bool version(bool known);
  bool header(std::string_view magic, bool file = false) {
    return open(&tok_, file) && version(tok_ == magic);
  }
  /// A `key` token; `bad <label> line` otherwise (label defaults to
  /// the key, as in every helper below).
  bool key(std::string_view key, std::string_view label = {});
  /// A `key <number>` line with the number in [lo, hi].
  template <class T>
  bool scalar(std::string_view key, T* out,
              std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
              std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
              std::string_view label = {}) {
    return (expect(key) && num(out, lo, hi)) ||
           bad_line(label.empty() ? key : label);
  }
  /// A `key <token>` line, the token at most `cap` characters.
  bool text(std::string_view key, std::string* out,
            std::size_t cap = std::string::npos);
  /// A `key <no|yes>` line.
  bool choice(std::string_view key, std::string_view no, std::string_view yes,
              bool* out);
  /// A `key <count>` line with count <= cap; past the cap the error is
  /// `over` when given.
  bool count(std::string_view key, std::size_t cap, std::size_t* out,
             std::string_view over = {});
  /// A counted list of items, each parsed by item(T&) into a new
  /// element.  The reservation is bounded independently of the count:
  /// beyond it the vector grows only as items actually arrive.
  template <class T, class F>
  bool list(std::string_view key, std::size_t cap, std::vector<T>* out,
            F&& item, std::string_view over = {}) {
    std::size_t n = 0;
    if (!count(key, cap, &n, over)) return false;
    out->reserve(std::min<std::size_t>(n, 1u << 16));
    for (std::size_t i = 0; i < n && ok_; ++i) item(out->emplace_back());
    return ok_;
  }
  /// A counted list of vertex ids of S_n (`sequence count out of range`
  /// past n!).  The ids are read digit by digit off the stream buffer:
  /// `truncated sequence` at end of stream, on a non-digit or past
  /// 2^64 - 1, `vertex id out of range: N` at N >= n!, and `bad vertex
  /// id '<token>'` on a signed token (`>>` would wrap `-1` into range)
  /// or on a zero-padded digit run of kMaxTokenLen + 1 (those
  /// characters are quoted).  No id is read past kMaxTokenLen + 1
  /// characters, nor past the digit that overflows.
  bool ids(std::string_view key, int n, std::vector<VertexId>* out);
  /// Optional `key ...` lines, any order, each at most once, up to the
  /// `stop` token.  read(k, word) parses the value of keys[k]; false
  /// there is `bad <key> line`.  An unknown or repeated word comes as
  /// k == keys.size(): read() may fail with its own message, and false
  /// without one is `missing <stop> line`, as is the end of stream.
  template <class F>
  bool optionals(std::initializer_list<std::string_view> keys, F&& read,
                 std::string_view stop = "end") {
    std::uint32_t seen = 0;
    while (ok_) {
      if (!token(&tok_)) return missing(stop);
      if (tok_ == stop) return true;
      std::size_t k = 0;
      while (k < keys.size() && (keys.begin()[k] != tok_ || ((seen >> k) & 1u)))
        ++k;
      seen |= 1u << k;
      const std::string word = tok_;
      if (!read(k, word)) return k < keys.size() ? bad_line(word)
                                                 : missing(stop);
    }
    return false;
  }
  /// The `end` terminator.
  bool end();

  /// The parsed record, or nullopt once any call has failed.
  template <class T>
  std::optional<T> finish(T&& record) {
    if (!ok_) return std::nullopt;
    return std::optional<T>(std::forward<T>(record));
  }

 private:
  bool value(std::uint64_t* out);
  bool value(std::int64_t* out);
  bool missing(std::string_view what);

  std::istream& is_;
  std::string* error_;
  bool ok_ = true;
  std::string tok_;  // scratch token, reused across calls
};

/// Writing half of the grammar: the constructor writes the header,
/// line() one `key value...` line, ids() a counted vertex-id list and
/// end() the terminator.  Nothing here reaches the fd: the stream's
/// buffer collects the record (FdOutBuf holds 64 KiB) and the caller's
/// flush sends it.  The id lists dominate every large record, so ids()
/// formats a whole 16-id line itself and inserts it once.
class RecordWriter {
 public:
  RecordWriter(std::ostream& out, std::string_view magic) : os(out) {
    os << magic << " v1\n";
  }
  template <class T, class... U>
  RecordWriter& line(std::string_view key, const T& value,
                     const U&... more) {
    os << key << ' ' << value;
    ((os << ' ' << more), ...);
    os << '\n';
    return *this;
  }
  RecordWriter& ids(std::string_view key, const std::vector<VertexId>& ids);
  /// Writes `end`; true while the stream is good.
  bool end();
  bool ok() const { return static_cast<bool>(os); }

  std::ostream& os;
};

// --- embedding files -------------------------------------------------
//
// A ring embedding is an artefact worth keeping: the runtime system
// computes it once per fault event and distributes it to every node.

struct EmbeddingFile {
  int n = 0;
  bool is_ring = true;  // false: open path
  FaultSet faults;
  std::vector<VertexId> sequence;
};

/// Serialize to a stream.  Returns false on stream failure.
bool write_embedding(std::ostream& os, const EmbeddingFile& e);

/// Parse; returns nullopt (with a short reason in *error if non-null)
/// on malformed input.
std::optional<EmbeddingFile> read_embedding(std::istream& is,
                                            std::string* error = nullptr);

// --- service requests and responses ----------------------------------

/// What a parsed request asks for: an embedding, one of the bare
/// command lines (`STATS`, `PING`, `FAIL <config>`, `HEALTH`, `TRACE`,
/// `SLOW`, `MEMBERS`, `LEAVE`), a replication seed record, or a
/// membership gossip message.
enum class RequestKind {
  kEmbed,
  kStats,
  kPing,
  kFail,
  kHealth,
  kSeed,
  kTrace,
  kSlow,
  kGossip,
  kMembers,
  kLeave
};

struct GossipMessage;  // defined with the membership records below

struct ServiceRequest {
  RequestKind kind = RequestKind::kEmbed;
  /// Caller-chosen correlation id, echoed on the response.
  std::uint64_t id = 0;
  int n = 0;
  FaultSet faults{};
  /// Ask the service to run the independent verifier on the response
  /// ring before sending it (hits are additionally verified when the
  /// daemon runs with --verify-on-hit).
  bool verify = false;
  /// Completion budget in milliseconds, measured from admission; 0
  /// means no deadline (no line on the wire).  A request past its
  /// budget is shed from the queue (or its in-flight embedding
  /// cooperatively cancelled) and answered `status timeout`.
  std::int64_t deadline_ms = 0;
  /// Accounting principal for quotas, fair scheduling, and per-tenant
  /// metrics (one token, at most kMaxTenantLen chars).  Empty on the
  /// wire means "the default tenant" -- the service buckets such
  /// requests into `default` rather than letting them bypass quotas.
  /// `status throttled` reports a tenant whose token bucket is
  /// exhausted; like `rejected` it may be retried after a backoff.
  std::string tenant{};
  /// Distributed-tracing context (the optional `trace` line).  A
  /// nonzero trace_id asks the receiver to record its spans under that
  /// trace, rooting them at parent_span_id (0 = root): the proxy stamps
  /// one per forwarded request so a shard's `svc.request` span parents
  /// under the proxy's `proxy.forward` attempt span.  0/0 means "no
  /// propagated context" and writes no line; a `trace 0 ...` line is a
  /// framing error, so the sentinel stays unambiguous.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Payload of a `FAIL <config>` command (kind == kFail only).
  std::string fail_config{};
  /// Canonical class key of a seed record (kind == kSeed only; n above
  /// is the seed's dimension and seed_ring its canonical ring): the
  /// proxy's read-through replication push, which lets a replica shard
  /// warm its cache without recomputing (EmbedService::seed_cache).
  std::string seed_key{};
  std::vector<VertexId> seed_ring{};
  /// Parsed gossip message (kind == kGossip only).  Held by pointer so
  /// the common embed path does not pay for the vectors inside, and so
  /// ServiceRequest stays cheaply copyable.
  std::shared_ptr<GossipMessage> gossip{};
};

/// Longest canonical-class key accepted in a seed record.  Canonical
/// keys are short (one char per dimension plus hex fault bits); the
/// longest legal token of the whole grammar.
inline constexpr std::size_t kMaxSeedKeyLen = kMaxTokenLen;

/// Longest tenant name accepted on the wire; longer names are a
/// framing error (tenant names become metric names -- unbounded ones
/// would let a client grow the registry without limit).
inline constexpr std::size_t kMaxTenantLen = 64;

enum class ServiceStatus { kOk, kError, kRejected, kTimeout, kThrottled };

/// The wire token of a status (`status <name>` in a response record).
const char* status_name(ServiceStatus s);

struct ServiceResponse {
  std::uint64_t id = 0;
  ServiceStatus status = ServiceStatus::kError;
  /// Whether the canonical embedding came out of the result cache.
  bool cache_hit = false;
  /// Whether the service verified the ring before responding.
  bool verified = false;
  /// The healthy ring in the caller's frame (ok responses only).  Its
  /// ids are bounded by kMaxN! on the wire; the caller, which knows
  /// the request, checks them against n!.
  std::vector<VertexId> ring{};
  /// Failure reason (non-ok responses only; single line).
  std::string reason{};
};

bool write_request(std::ostream& os, const ServiceRequest& r);
bool write_response(std::ostream& os, const ServiceResponse& r);

/// Parse one record (a bare command counts as one).
std::optional<ServiceRequest> read_request(std::istream& is,
                                           std::string* error = nullptr);
std::optional<ServiceResponse> read_response(std::istream& is,
                                             std::string* error = nullptr);

/// Frame `body` (any text, normally Prometheus exposition) as a
/// starring-stats v1 record.  A missing trailing newline is supplied.
bool write_stats(std::ostream& os, const std::string& body);

std::optional<std::string> read_stats(std::istream& is,
                                      std::string* error = nullptr);

// --- cluster health probe --------------------------------------------

/// A shard's answer to HEALTH.  shard/epoch let the proxy detect a
/// process serving under the wrong identity or an out-of-date shard
/// map; the cache numbers feed cluster-level hit-rate accounting
/// without a full STATS scrape.  starring-proxy answers too, as shard
/// -1 (a router, not a shard) at its shard map's epoch.  uptime_ms
/// (wall ms since the trace epoch) and inflight (requests admitted but
/// not yet answered) are optional lines, so older records still parse.
struct HealthInfo {
  int shard_id = -1;
  std::uint64_t epoch = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t uptime_ms = 0;
  std::uint64_t inflight = 0;
};

bool write_health(std::ostream& os, const HealthInfo& h);

std::optional<HealthInfo> read_health(std::istream& is,
                                      std::string* error = nullptr);

// --- remote trace drain ----------------------------------------------

/// A process's span flight recorder, drained but not cleared (TRACE is
/// a read, not a reset).  `process` names the row the spans land on in
/// a merged Perfetto file (`proxy`, `shard-0`, ...).  `epoch_ns` is the
/// process's trace epoch in raw CLOCK_MONOTONIC nanoseconds: processes
/// of one boot share that clock, so the merger rebases each dump by
/// (epoch_ns - min epoch_ns) onto one timeline.  `dropped` is the
/// ring-overflow total at drain time, so a truncated dump is
/// detectable.  An empty process or span name is written as `-`.
struct TraceDump {
  std::string process;
  std::uint64_t epoch_ns = 0;
  std::uint64_t dropped = 0;
  std::vector<obs::trace::SpanRecord> spans;
};

/// Longest process label / span name token accepted on the wire.
inline constexpr std::size_t kMaxTraceTokenLen = 64;
/// Most spans accepted in one trace record (64 rings of the max
/// per-thread capacity; far above anything real, small enough that a
/// garbage count cannot drive an unbounded parse loop).
inline constexpr std::size_t kMaxTraceSpans = std::size_t{1} << 26;

bool write_trace(std::ostream& os, const TraceDump& d);

std::optional<TraceDump> read_trace(std::istream& is,
                                    std::string* error = nullptr);

/// Render several per-process trace dumps as one Chrome/Perfetto
/// trace_event document: a process_name metadata row per dump (pid =
/// dump index) and every span as an "X" event with its timestamps
/// rebased onto the earliest dump's epoch.  Returns false on stream
/// failure.
bool write_merged_chrome_trace(std::ostream& os,
                               const std::vector<TraceDump>& dumps);

// --- cluster membership gossip ---------------------------------------
//
// The membership layer (cluster/membership.hpp) speaks SWIM over the
// request stream.  A member is identified by its listen endpoint
// ("HOST:PORT"); shard_id is an attribute (-1 marks an observer such as
// the proxy, which gossips but carries no keys), and incarnation is the
// member's self-asserted version number -- the refutation mechanism: a
// member that learns it is suspected re-announces itself alive with a
// higher incarnation, and receivers order conflicting claims by
// (incarnation, state precedence).  An incarnation of UINT64_MAX is
// refused on the wire, so a refutation (incarnation + 1) cannot wrap.
//
// A gossip record's `from` is the sender's own member record (state
// `left` on a leave announcement, `alive` otherwise); `updates`
// piggybacks recently changed member records, the dissemination half
// of SWIM.  A ping is answered with an ack whose updates piggyback the
// receiver's view (including a refutation of any suspicion the ping
// just delivered about it).  A ping-req asks the receiver to probe
// `target` on the sender's behalf and answer ack or nack.  A join is
// answered with a membership snapshot: the answering member's map
// epoch, and the cluster's replication and vnodes, which a joiner
// adopts so every member builds identical rings from identical member
// sets.

enum class MemberWireState { kAlive, kSuspect, kDead, kLeft };

/// One token per state on the wire; parse_member_state is the inverse.
const char* member_state_name(MemberWireState s);
std::optional<MemberWireState> parse_member_state(std::string_view token);

struct MemberRecord {
  std::string addr;  // "HOST:PORT", the member's identity
  int shard_id = -1;  // -1: an observer (proxy) -- gossips, owns no keys
  std::uint64_t incarnation = 0;
  MemberWireState state = MemberWireState::kAlive;
};

struct GossipMessage {
  enum class Kind { kPing, kPingReq, kAck, kNack, kJoin, kLeave };
  Kind kind = Kind::kPing;
  MemberRecord from;
  std::string target;  // ping-req only: the member to probe
  std::vector<MemberRecord> updates;  // piggybacked deltas
};

struct MembershipRecord {
  std::uint64_t epoch = 0;
  int replication = 2;
  int vnodes = 128;
  std::vector<MemberRecord> members;
};

/// Longest member address token accepted on the wire.
inline constexpr std::size_t kMaxMemberAddrLen = 128;
/// Most member records accepted in one gossip or membership frame --
/// matches the shard-map parser's deployment-size cap.
inline constexpr std::size_t kMaxMemberRecords = 4096;

bool write_gossip(std::ostream& os, const GossipMessage& m);
bool write_membership(std::ostream& os, const MembershipRecord& m);

std::optional<GossipMessage> read_gossip(std::istream& is,
                                         std::string* error = nullptr);
std::optional<MembershipRecord> read_membership(std::istream& is,
                                                std::string* error = nullptr);

}  // namespace starring
