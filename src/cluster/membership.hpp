// Dynamic cluster membership: SWIM-style failure detection feeding an
// epoch-versioned ShardMap.
//
// The paper's fault model — rings that survive up to n-3 vertex
// faults — is only as good as the cluster's ability to notice faults.
// Before this layer, membership was a static file: a dead shard stayed
// in every map until an operator restarted the world (DESIGN.md §13's
// old non-guarantees).  This layer makes membership a live protocol:
//
//   * Failure detection is SWIM: every probe interval a member pings
//     one peer (round-robin over a shuffled order, so detection time
//     is bounded); a failed direct ping falls back to k indirect
//     ping-req probes through other peers before the target is
//     suspected.  A suspect that stays silent past the suspicion
//     timeout is declared dead.
//   * Refutation is by incarnation number: a member that learns it is
//     suspected re-announces itself alive with a higher incarnation,
//     which overrides the suspicion everywhere.  Conflicting claims
//     about one member are ordered by (incarnation, state precedence)
//     with precedence alive < suspect < left < dead at equal
//     incarnation — the classic SWIM merge.
//   * Dissemination is piggybacked: every gossip message carries
//     recently changed member records, each retransmitted a bounded
//     number of times.  There is no separate broadcast channel.
//
// Members are identified by their listen endpoint ("HOST:PORT");
// shard_id is an attribute.  Observers (the proxy, shard_id -1)
// participate fully in detection and dissemination but contribute no
// ring points.
//
// The map contract: map() returns an immutable snapshot
// (shared_ptr<const ShardMap>) rebuilt via ShardMap::with()/without()
// on each *confirmed* membership change — join/rejoin, death, leave.
// Each such change bumps the epoch.  Suspicion deliberately does NOT
// change the map: a suspect is probably alive (that is the point of
// the refutation window), so traffic keeps flowing and the router's
// circuit breakers own the short-term data-path reaction.
//
// Two classes split the concerns:
//   MembershipTable  pure state machine — injected time, no sockets,
//                    no threads, unit-testable in isolation.
//   MembershipAgent  the runtime: wraps a table in a mutex, runs the
//                    prober thread, dials peers over util/net, serves
//                    inbound gossip, and publishes counters, liveness
//                    gauges, and membership-transition trace spans.
//
// What is NOT provided (see DESIGN.md §13): linearizable agreement on
// the map.  Two members can briefly hold different epochs for the same
// member set, or the same epoch for different sets; convergence is
// eventual, conflicts resolve last-writer-wins by incarnation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_map.hpp"
#include "util/io.hpp"

namespace starring::cluster {

struct MembershipOptions {
  /// One direct probe is launched per interval (SWIM's protocol
  /// period).  Detection latency scales with interval * member count.
  int probe_interval_ms = 250;
  /// Budget for one probe round-trip (connect + ping + ack).
  int probe_timeout_ms = 400;
  /// Indirect ping-req fanout after a failed direct probe.
  int indirect_probes = 2;
  /// How long a suspect may stay silent before it is declared dead.
  /// This is the refutation window — too short and a GC pause becomes
  /// a death, too long and real failures linger in the ring.
  int suspicion_timeout_ms = 1500;
  /// Retransmit budget per queued membership update (SWIM suggests
  /// O(log n) transmissions; a small constant is plenty at our scale).
  int piggyback_transmits = 8;
  /// Map parameters applied to every rebuilt ShardMap.  replication is
  /// the *target* R: maps are clamped to the live shard count and
  /// re-raised toward R as members return.
  int replication = 2;
  int vnodes = 128;
};

/// One observed membership transition — the unit the agent turns into
/// counters, liveness gauges, trace spans, and map-change callbacks.
struct MembershipEvent {
  enum class Kind {
    kJoin,     // new member entered the table alive
    kAlive,    // existing member refuted suspicion / returned from dead
    kSuspect,  // probe failures, refutation window open
    kDead,     // suspicion timeout expired
    kLeft,     // graceful departure
    kRefute,   // *we* were suspected and bumped our incarnation
  };
  Kind kind = Kind::kJoin;
  MemberRecord member;
  /// Map epoch after the event; 0 when the event did not change the
  /// map (observer churn, suspicion, refutation).
  std::uint64_t map_epoch = 0;
};

const char* membership_event_name(MembershipEvent::Kind k);

/// Pure SWIM state machine.  All mutation takes an explicit `now`; the
/// table never reads a clock, opens a socket, or spawns a thread, so
/// tests drive arbitrary schedules deterministically.  Not thread-safe
/// — the agent serializes access.
class MembershipTable {
 public:
  using Clock = std::chrono::steady_clock;

  MembershipTable(MemberRecord self, MembershipOptions opts);

  /// Adopt the cluster's map parameters (from a static map file or a
  /// join snapshot) before/while bootstrapping.
  void set_map_params(int replication, int vnodes);

  /// Install an initial member set (static map file or --bootstrap).
  /// Self is recognized by address and not duplicated.  `epoch` seeds
  /// the first map build.
  void bootstrap(std::vector<MemberRecord> members, std::uint64_t epoch,
                 Clock::time_point now);

  /// Adopt a join snapshot: merge every member, and fast-forward the
  /// local epoch/map parameters to the snapshot's (a joiner must build
  /// the same ring the cluster already agreed on).
  void absorb(const MembershipRecord& snap, Clock::time_point now);

  /// Merge one piggybacked update (the SWIM dissemination input).
  void apply(const MemberRecord& update, Clock::time_point now);

  /// Probe verdicts from the agent's prober.
  void probe_failed(const std::string& addr, Clock::time_point now);
  void probe_succeeded(const std::string& addr, Clock::time_point now);

  /// Expire suspicion windows: suspects silent past the timeout are
  /// declared dead.  Called once per protocol period.
  void tick(Clock::time_point now);

  /// Graceful departure: self transitions to left and the update is
  /// queued for dissemination.  The agent also pushes it synchronously
  /// to every peer (leave must not depend on piggyback luck).
  void mark_self_left();

  const MemberRecord& self() const { return self_; }
  bool self_left() const { return self_.state == MemberWireState::kLeft; }
  std::uint64_t epoch() const { return map_->epoch(); }
  const MembershipOptions& options() const { return opts_; }

  /// Immutable placement snapshot; never null (an empty map routes
  /// nothing).  Rebuilt — never mutated — on membership changes.
  std::shared_ptr<const ShardMap> map() const { return map_; }

  /// Full view for join answers and the MEMBERS command.
  MembershipRecord snapshot() const;

  /// Probe-eligible peers (alive or suspect, excluding self).
  std::vector<std::string> probe_targets() const;

  /// Current record for a member, nullptr if unknown.  Excludes self.
  const MemberRecord* find(const std::string& addr) const;

  /// Drain up to `max` piggyback updates (each decrements its
  /// retransmit budget; exhausted entries are dropped).
  std::vector<MemberRecord> piggyback(std::size_t max);

  /// Transitions recorded since the last take; the agent turns these
  /// into observability and map-change callbacks.
  std::vector<MembershipEvent> take_events();

 private:
  struct Entry {
    MemberRecord rec;
    Clock::time_point suspect_since{};
  };
  struct Outgoing {
    MemberRecord rec;
    int transmits_left = 0;
  };

  /// True when `upd` should override `cur` under SWIM merge rules.
  static bool overrides(const MemberRecord& cur, const MemberRecord& upd);
  void apply_about_self(const MemberRecord& update);
  /// Record a transition (map_epoch tagged when the map was rebuilt).
  void note(MembershipEvent::Kind kind, const MemberRecord& rec,
            bool map_changed);
  void rebuild_map_with(const MemberRecord& rec);
  void rebuild_map_without(const MemberRecord& rec);
  /// Rebuild from scratch (bootstrap/absorb) at the given epoch.
  void full_rebuild(std::uint64_t epoch);
  void queue_update(const MemberRecord& rec);

  MemberRecord self_;
  MembershipOptions opts_;
  std::vector<Entry> members_;  // sorted by addr; excludes self
  std::deque<Outgoing> outbox_;
  std::vector<MembershipEvent> events_;
  std::shared_ptr<const ShardMap> map_;
  /// absorb() merges many members at once; incremental rebuilds are
  /// suppressed and one full rebuild lands at the snapshot's epoch.
  bool in_bulk_ = false;
};

/// The runtime half: owns a MembershipTable behind a mutex, runs the
/// SWIM prober thread, dials peers over util/net, answers inbound
/// gossip, and publishes cluster.membership.* counters, per-shard
/// liveness gauges (cluster.shard.<id>.alive), the cluster.map_epoch
/// gauge, and member.<transition> trace spans.
///
/// Failpoints: `gossip.probe` suppresses outbound probe rounds (the
/// silent-sender half of a partition), `gossip.ack` is evaluated by
/// the server loop's command table after handle() (the dropped-ack
/// half: the reply is dropped and the connection closed) — both used
/// by the chaos gossip-partition scenario.  `cluster.handoff`
/// lives in the proxy's seeder, not here.
class MembershipAgent {
 public:
  /// What Agent::handle() wants written back to the gossip peer:
  /// exactly one of `ack` or `snapshot` is set (snapshot answers a
  /// join), unless the server-side failpoint asked to drop the reply.
  struct Reply {
    std::optional<GossipMessage> ack;
    std::optional<MembershipRecord> snapshot;
  };

  using MapCallback = std::function<void(
      std::shared_ptr<const ShardMap>, const MembershipEvent&)>;
  using Clock = MembershipTable::Clock;

  MembershipAgent(MemberRecord self, MembershipOptions opts);
  ~MembershipAgent();
  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  /// Exactly one bootstrap call before start().  bootstrap_from_map
  /// seeds from a static shard-map file (back-compatible path);
  /// bootstrap_single starts a brand-new cluster with self as the only
  /// member; join() dials an existing member and adopts its snapshot
  /// (retrying `attempts` times — the seed may still be binding).
  void bootstrap_from_map(const ShardMap& map);
  void bootstrap_single();
  bool join(const std::string& seed_addr, int attempts = 8);

  /// Called (outside the agent lock) after every map-changing event.
  /// Register before start().
  void on_map_change(MapCallback cb);

  void start();
  void stop();

  /// Graceful departure: announces leave to every live peer
  /// synchronously, marks self left, and stops probing.  Idempotent.
  void leave();

  /// Serve one inbound gossip message (the daemon's request loop calls
  /// this for RequestKind::kGossip).  Merges the sender's record and
  /// piggybacked updates, then builds the reply.  For ping-req this
  /// dials the target synchronously.
  Reply handle(const GossipMessage& in);

  std::shared_ptr<const ShardMap> map() const;
  std::uint64_t epoch() const;
  MembershipRecord membership() const;
  MemberRecord self() const;

 private:
  void prober_loop();
  /// One protocol period: direct probe, indirect fallback, verdict.
  void probe_round();
  /// Dial `addr`, send `msg`, parse one gossip reply.  nullopt on
  /// connect/write/read failure or timeout.
  std::optional<GossipMessage> exchange(const std::string& addr,
                                        const GossipMessage& msg);
  GossipMessage make_message(GossipMessage::Kind kind);
  /// Apply a peer's reply (its self record + piggybacked updates).
  void merge_reply(const GossipMessage& reply);
  /// Publish counters/gauges/spans for pending table events and fire
  /// the map callback.  Call with mu_ held; callbacks run unlocked.
  void flush_events_locked(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  MembershipTable table_;
  MapCallback map_cb_;
  std::thread prober_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> left_{false};
  std::size_t rr_cursor_ = 0;  // round-robin position over targets
};

/// Build and bootstrap the agent of a process listening on
/// 127.0.0.1:`port` under identity `shard_id` (-1: an observer such as
/// the proxy).  The source is `map` when non-null (self's address is
/// the map's entry for shard_id when it lists one), else a join through
/// `join_addr` when non-empty, else a brand-new single-member cluster.
/// Null when the join fails.  The caller registers its map callback,
/// then calls start().
std::unique_ptr<MembershipAgent> bootstrap_agent(
    int shard_id, int port, const MembershipOptions& opts,
    const ShardMap* map, const std::string& join_addr);

}  // namespace starring::cluster
