// Plain-text serialization of embeddings.
//
// A ring embedding is an artefact worth keeping: the runtime system
// computes it once per fault event and distributes it to every node.
// The format is line-oriented and versioned:
//
//   starring-embedding v1
//   n <dim>
//   kind <ring|path>
//   vertex_faults <count>
//   <one permutation per line, 1-based digits, e.g. 2134567>
//   edge_faults <count>
//   <two permutations per line>
//   sequence <length>
//   <vertex ids (Lehmer ranks), whitespace-separated, any wrapping>
//
// read_embedding() validates structure and value ranges; semantic
// validation (is it really a healthy ring?) stays with core/verify.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "perm/permutation.hpp"

namespace starring {

// --- strict numeric tokens -------------------------------------------

/// Strict decimal u64: all digits, no sign, no overflow.  Wire fields
/// such as the trace line parse with this rather than `>>`, so an
/// oversized or negative id is a framing error instead of a silent
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

// --- Service line protocol -------------------------------------------
//
// The embedding service (src/service) speaks a versioned line protocol
// over stdio or TCP, one record per request/response, reusing the
// EmbeddingFile conventions (1-based permutation literals, whitespace-
// separated vertex ids).  Records are terminated by an `end` line so a
// stream of them is self-framing:
//
//   starring-request v1          starring-response v1
//   id <u64>                     id <u64>
//   n <dim>                      status <ok|error|rejected|
//   vertex_faults <count>                timeout|throttled>
//   <one permutation per line>   [reason <one line>]        (non-ok)
//   edge_faults <count>          [cache <hit|miss>]         (ok)
//   <two permutations per line>  [verified <0|1>]           (ok)
//   verify <0|1>                 [ring <length>]            (ok)
//   [tenant <name>]              [<vertex ids ...>]         (ok)
//   [deadline_ms <ms>]           end
//   [trace <tid> <psid>]
//   end
//
// The deadline_ms, tenant, and trace lines are optional, accepted in
// any order (readers written against the original v1 grammar never
// emitted them).  A positive deadline_ms gives the request a completion budget
// measured from admission; a request still queued or in flight past
// its budget is answered `status timeout`.  The tenant line names the
// accounting principal for per-tenant quotas, fair scheduling, and
// svc.tenant.* metrics (one token, at most 64 chars); requests without
// one are bucketed into the `default` tenant — omitting the line never
// bypasses quotas.  `status throttled` reports a tenant whose token
// bucket is exhausted; like `rejected` it carries no ring and the
// request may be retried after a backoff.
//
// The trace line carries the distributed-tracing context: a nonzero
// trace id and the parent span id the receiver's root span should link
// under (0 = root of the trace).  The proxy stamps one per forwarded
// request so a shard's `svc.request` span parents under the proxy's
// `proxy.forward` attempt span; clients can originate ids themselves
// (starring-cli --trace).  A `trace 0 ...` line is a framing error —
// trace id 0 is the "no trace" sentinel and must stay unambiguous.
//
// Out-of-band commands ride the same request stream as bare lines,
// answered inline (ahead of any still-pending embedding responses):
//
//   STATS          live metrics snapshot, answered with a self-framing
//                  stats record carrying Prometheus text exposition:
//                      starring-stats v1
//                      lines <count>
//                      <count body lines, verbatim promtext>
//                      end
//   PING           liveness probe, answered with the single line `PONG`
//   FAIL <config>  arm/disarm fault-injection sites (util/failpoint.hpp
//                  grammar; `FAIL clear` disarms all), answered with
//                  `FAIL ok` or `FAIL bad <reason>` on one line
//   HEALTH         shard identity + cache probe (the starring-proxy
//                  health poller), answered with a self-framing
//                  starring-health v1 record (see HealthInfo below)
//   TRACE          drain the process's span flight recorder, answered
//                  with a self-framing starring-trace v1 record (see
//                  TraceDump below); an empty record when tracing is
//                  disabled
//   SLOW           the proxy's slow-request flight recorder, answered
//                  with a self-framing starring-stats v1 record whose
//                  body is one text report per retained slow request
//                  (shards answer an empty report)
//   MEMBERS        the process's live membership view, answered with a
//                  self-framing starring-membership v1 record (see
//                  MembershipRecord below); processes without a
//                  membership agent answer an empty record (epoch 0)
//   LEAVE          graceful departure: answered `LEAVE ok` on one
//                  line, then the process announces its leave to the
//                  cluster, drains, and exits cleanly — peers remove
//                  it from the ring without suspicion or breakers
//
// One more record type rides the request stream: `starring-seed v1`,
// the proxy's read-through replication push.  It carries a canonical
// class key and its canonical ring so a replica shard can warm its
// cache without recomputing (EmbedService::seed_cache):
//
//   starring-seed v1
//   n <dim>
//   key <canonical class key, one token>
//   ring <length>
//   <vertex ids ...>
//   end
//
// answered with the single line `SEED ok` or `SEED bad <reason>`.
//
// Finally, `starring-gossip v1` records (the membership layer's SWIM
// probes — see the membership section below) also ride the request
// stream, answered with a gossip ack/nack record, or with a
// starring-membership v1 snapshot for `kind join`.

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
  /// means no deadline.  A request past its budget is shed from the
  /// queue (or its in-flight embedding cooperatively cancelled) and
  /// answered `status timeout`.
  std::int64_t deadline_ms = 0;
  /// Accounting principal for quotas, fair scheduling, and per-tenant
  /// metrics.  Empty on the wire means "the default tenant" — the
  /// service buckets such requests into `default` rather than letting
  /// them bypass quotas.
  std::string tenant{};
  /// Distributed-tracing context (the optional `trace` line).  A
  /// nonzero trace_id asks the receiver to record its spans under that
  /// trace, rooting them at parent_span_id (0 = root).  0/0 means "no
  /// propagated context" — the receiver mints its own ids.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Payload of a `FAIL <config>` command (kind == kFail only).
  std::string fail_config{};
  /// Canonical class key of a seed record (kind == kSeed only; n above
  /// is the seed's dimension and seed_ring its canonical ring).
  std::string seed_key{};
  std::vector<VertexId> seed_ring{};
  /// Parsed gossip message (kind == kGossip only).  Held by pointer so
  /// the common embed path does not pay for the vectors inside, and so
  /// ServiceRequest stays cheaply copyable.
  std::shared_ptr<GossipMessage> gossip{};
};

/// Longest canonical-class key accepted in a seed record.  Canonical
/// keys are short (one char per dimension plus hex fault bits); the cap
/// just stops a garbage frame from growing an unbounded token.
inline constexpr std::size_t kMaxSeedKeyLen = 256;

/// Longest tenant name accepted on the wire; longer tokens are a
/// framing error (tenant names become metric names — unbounded ones
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
  /// The healthy ring in the caller's frame (ok responses only).
  std::vector<VertexId> ring{};
  /// Failure reason (non-ok responses only; single line).
  std::string reason{};
};

bool write_request(std::ostream& os, const ServiceRequest& r);
bool write_response(std::ostream& os, const ServiceResponse& r);

/// Parse one record.  Clean end-of-stream before the header yields
/// nullopt with *error set to "" — that is how a daemon distinguishes
/// an orderly shutdown from a framing error (non-empty *error).
std::optional<ServiceRequest> read_request(std::istream& is,
                                           std::string* error = nullptr);
std::optional<ServiceResponse> read_response(std::istream& is,
                                             std::string* error = nullptr);

/// Frame `body` (any text, normally Prometheus exposition) as a
/// starring-stats v1 record.  A missing trailing newline is supplied.
bool write_stats(std::ostream& os, const std::string& body);

/// Parse one stats record; same clean-EOF vs malformed contract as
/// read_request.
std::optional<std::string> read_stats(std::istream& is,
                                      std::string* error = nullptr);

// --- cluster health probe --------------------------------------------
//
// A shard answers the bare `HEALTH` line with:
//
//   starring-health v1
//   shard <id>
//   epoch <u64>
//   cache_entries <u64>
//   cache_hits <u64>
//   cache_misses <u64>
//   end
//
// shard/epoch let the proxy detect a process serving under the wrong
// identity or an out-of-date shard map; the cache numbers feed
// cluster-level hit-rate accounting without a full STATS scrape.
// starring-proxy answers HEALTH as well, reporting shard -1 (it is a
// router, not a shard) and its shard map's epoch.

// Two optional trailing lines (any order, accepted but not required,
// so PR 8 readers still parse a PR 9 record and vice versa) extend the
// probe with liveness texture:
//
//   uptime_ms <u64>     wall ms since the process's trace epoch
//   inflight <u64>      embedding requests admitted but not yet
//                       answered (queue + in flight)

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

/// Parse one health record; same clean-EOF vs malformed contract as
/// read_request.
std::optional<HealthInfo> read_health(std::istream& is,
                                      std::string* error = nullptr);

// --- remote trace drain ----------------------------------------------
//
// A process answers the bare `TRACE` line with its span flight
// recorder, drained but not cleared (TRACE is a read, not a reset):
//
//   starring-trace v1
//   process <label, one token>
//   epoch_ns <u64>
//   dropped <u64>
//   spans <count>
//   <trace> <span> <parent> <start_ns> <dur_ns> <tid> <name>   x count
//   end
//
// `process` names the row the span lands on in a merged Perfetto file
// (`proxy`, `shard-0`, ...).  `epoch_ns` is the process's trace epoch
// as raw CLOCK_MONOTONIC nanoseconds — processes of one boot share
// that clock, so the merger rebases each dump by (epoch_ns - min
// epoch_ns) to put every process on one timeline.  `dropped` is the
// ring-overflow total at drain time (trace.dropped_spans), so a
// truncated dump is detectable.  A span name is one token (recorder
// names are dot-separated identifiers); an empty name is written as
// the `-` placeholder.

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

/// Parse one trace record; same clean-EOF vs malformed contract as
/// read_request.
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
// same request stream every other record rides.  A member is
// identified by its listen endpoint ("HOST:PORT"); shard_id is an
// attribute (-1 marks an observer such as the proxy, which gossips but
// carries no keys), and incarnation is the member's self-asserted
// version number — the refutation mechanism: a member that learns it
// is suspected re-announces itself alive with a higher incarnation,
// and receivers order conflicting claims by (incarnation, state
// precedence).
//
//   starring-gossip v1
//   kind <ping|ping-req|ack|nack|join|leave>
//   from <host:port> <shard-id> <incarnation> <state>
//   [target <host:port>]                        (ping-req only)
//   updates <count>
//   update <host:port> <shard-id> <incarnation> <state>   x count
//   end
//
// `from` is the sender's own member record (state `left` on a leave
// announcement, `alive` otherwise); `updates` piggybacks recently
// changed member records, the dissemination half of SWIM.  A ping is
// answered with an ack (whose updates piggyback the receiver's view —
// including, crucially, a refutation of any suspicion the ping just
// delivered about the receiver).  A ping-req asks the receiver to
// probe `target` on the sender's behalf and answer ack (target
// responded) or nack.  A join is answered with a full membership
// snapshot instead:
//
//   starring-membership v1
//   epoch <u64>
//   replication <int>
//   vnodes <int>
//   members <count>
//   member <host:port> <shard-id> <incarnation> <state>   x count
//   end
//
// epoch is the answering member's current map epoch; replication and
// vnodes are the cluster's map parameters, which a joiner adopts so
// every member builds identical rings from identical member sets.

enum class MemberWireState { kAlive, kSuspect, kDead, kLeft };

/// One token per state on the wire; parse_member_state is the inverse.
const char* member_state_name(MemberWireState s);
std::optional<MemberWireState> parse_member_state(std::string_view token);

struct MemberRecord {
  std::string addr;  // "HOST:PORT", the member's identity
  int shard_id = -1;  // -1: an observer (proxy) — gossips, owns no keys
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

/// Longest member address token accepted on the wire (a loopback
/// "HOST:PORT" is far shorter; the cap stops a garbage frame from
/// growing an unbounded token).
inline constexpr std::size_t kMaxMemberAddrLen = 128;
/// Most member records accepted in one gossip or membership frame —
/// matches the shard-map parser's deployment-size cap.
inline constexpr std::size_t kMaxMemberRecords = 4096;

bool write_gossip(std::ostream& os, const GossipMessage& m);
bool write_membership(std::ostream& os, const MembershipRecord& m);

/// Parse one record; same clean-EOF vs malformed contract as
/// read_request.
std::optional<GossipMessage> read_gossip(std::istream& is,
                                         std::string* error = nullptr);
std::optional<MembershipRecord> read_membership(std::istream& is,
                                                std::string* error = nullptr);

}  // namespace starring
