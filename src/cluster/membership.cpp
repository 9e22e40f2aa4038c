#include "cluster/membership.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"

namespace starring::cluster {

namespace {

/// Most piggybacked updates per outbound message.  Dissemination is
/// eventual; a small bound keeps gossip frames tiny even mid-churn.
constexpr std::size_t kMaxPiggyback = 16;

bool is_live(MemberWireState s) {
  return s == MemberWireState::kAlive || s == MemberWireState::kSuspect;
}

/// SWIM state precedence at equal incarnation.  A claim only loses to
/// a *stronger* claim: alive < suspect < left < dead.  dead outranks
/// left so a crash observed during a graceful departure stays a crash.
int state_rank(MemberWireState s) {
  switch (s) {
    case MemberWireState::kAlive:
      return 0;
    case MemberWireState::kSuspect:
      return 1;
    case MemberWireState::kLeft:
      return 2;
    case MemberWireState::kDead:
      return 3;
  }
  return 0;
}

}  // namespace

const char* membership_event_name(MembershipEvent::Kind k) {
  switch (k) {
    case MembershipEvent::Kind::kJoin:
      return "join";
    case MembershipEvent::Kind::kAlive:
      return "alive";
    case MembershipEvent::Kind::kSuspect:
      return "suspect";
    case MembershipEvent::Kind::kDead:
      return "dead";
    case MembershipEvent::Kind::kLeft:
      return "left";
    case MembershipEvent::Kind::kRefute:
      return "refute";
  }
  return "join";
}

// --- MembershipTable --------------------------------------------------

MembershipTable::MembershipTable(MemberRecord self, MembershipOptions opts)
    : self_(std::move(self)), opts_(opts) {
  self_.state = MemberWireState::kAlive;
  if (self_.incarnation == 0) self_.incarnation = 1;
  full_rebuild(1);
}

bool MembershipTable::overrides(const MemberRecord& cur,
                                const MemberRecord& upd) {
  if (upd.incarnation != cur.incarnation)
    return upd.incarnation > cur.incarnation;
  return state_rank(upd.state) > state_rank(cur.state);
}

void MembershipTable::set_map_params(int replication, int vnodes) {
  opts_.replication = std::max(1, replication);
  opts_.vnodes = std::max(1, vnodes);
}

void MembershipTable::bootstrap(std::vector<MemberRecord> members,
                                std::uint64_t epoch, Clock::time_point) {
  members_.clear();
  for (MemberRecord& m : members) {
    if (m.addr == self_.addr) {
      // The bootstrap source may know our shard id (static map file);
      // our incarnation stays our own.
      if (m.shard_id >= 0) self_.shard_id = m.shard_id;
      continue;
    }
    m.state = MemberWireState::kAlive;
    if (m.incarnation == 0) m.incarnation = 1;
    Entry e;
    e.rec = std::move(m);
    members_.push_back(std::move(e));
  }
  std::sort(members_.begin(), members_.end(),
            [](const Entry& a, const Entry& b) {
              return a.rec.addr < b.rec.addr;
            });
  full_rebuild(epoch);
}

void MembershipTable::absorb(const MembershipRecord& snap,
                             Clock::time_point now) {
  set_map_params(snap.replication, snap.vnodes);
  // Bulk merge: per-member epoch bumps would leave the joiner's epoch
  // out of step with the cluster's, so rebuilds are suppressed and the
  // map is built once at the snapshot's epoch.
  in_bulk_ = true;
  for (const MemberRecord& m : snap.members) apply(m, now);
  in_bulk_ = false;
  full_rebuild(std::max(snap.epoch, map_->epoch()));
}

void MembershipTable::apply_about_self(const MemberRecord& update) {
  if (self_left()) return;  // departing: no claim is worth refuting
  if (update.incarnation < self_.incarnation) return;
  if (update.state == MemberWireState::kAlive) {
    // An echo of ourselves, possibly fresher than our own counter
    // (e.g. after a fast restart); fast-forward so our next claim wins.
    self_.incarnation = std::max(self_.incarnation, update.incarnation);
    return;
  }
  // Someone believes we are suspect/dead/left.  We are demonstrably
  // processing messages, so refute: outbid the claim and re-announce.
  self_.incarnation = update.incarnation + 1;
  queue_update(self_);
  note(MembershipEvent::Kind::kRefute, self_, false);
}

void MembershipTable::apply(const MemberRecord& update,
                            Clock::time_point now) {
  if (update.addr == self_.addr) {
    apply_about_self(update);
    return;
  }
  auto it = std::lower_bound(members_.begin(), members_.end(), update.addr,
                             [](const Entry& e, const std::string& addr) {
                               return e.rec.addr < addr;
                             });
  if (it == members_.end() || it->rec.addr != update.addr) {
    // First sighting.  Dead/left tombstones are stored too — they
    // outrank any stale alive claim that arrives later.
    Entry e;
    e.rec = update;
    if (update.state == MemberWireState::kSuspect) e.suspect_since = now;
    it = members_.insert(it, std::move(e));
    queue_update(update);
    const bool live = is_live(update.state);
    const bool map_rel = update.shard_id >= 0 && live;
    if (map_rel && !in_bulk_) rebuild_map_with(it->rec);
    if (live) {
      note(MembershipEvent::Kind::kJoin, it->rec, map_rel && !in_bulk_);
    } else {
      note(update.state == MemberWireState::kDead
               ? MembershipEvent::Kind::kDead
               : MembershipEvent::Kind::kLeft,
           it->rec, false);
    }
    return;
  }
  Entry& e = *it;
  if (!overrides(e.rec, update)) return;
  const MemberWireState old_state = e.rec.state;
  const bool was_live = is_live(old_state);
  const bool now_live = is_live(update.state);
  e.rec.incarnation = update.incarnation;
  e.rec.state = update.state;
  if (update.shard_id >= 0) e.rec.shard_id = update.shard_id;
  if (update.state == MemberWireState::kSuspect &&
      old_state != MemberWireState::kSuspect)
    e.suspect_since = now;
  queue_update(e.rec);
  bool map_changed = false;
  if (e.rec.shard_id >= 0 && !in_bulk_) {
    if (now_live && !was_live) {
      rebuild_map_with(e.rec);
      map_changed = true;
    } else if (!now_live && was_live) {
      rebuild_map_without(e.rec);
      map_changed = true;
    }
  }
  if (update.state != old_state) {
    MembershipEvent::Kind kind = MembershipEvent::Kind::kAlive;
    switch (update.state) {
      case MemberWireState::kAlive:
        kind = MembershipEvent::Kind::kAlive;
        break;
      case MemberWireState::kSuspect:
        kind = MembershipEvent::Kind::kSuspect;
        break;
      case MemberWireState::kDead:
        kind = MembershipEvent::Kind::kDead;
        break;
      case MemberWireState::kLeft:
        kind = MembershipEvent::Kind::kLeft;
        break;
    }
    note(kind, e.rec, map_changed);
  }
}

void MembershipTable::probe_failed(const std::string& addr,
                                   Clock::time_point now) {
  for (Entry& e : members_) {
    if (e.rec.addr != addr) continue;
    if (e.rec.state != MemberWireState::kAlive) return;
    // Suspicion keeps the member's own incarnation: only the member
    // itself can outbid it (the refutation), everyone else just
    // relays.
    e.rec.state = MemberWireState::kSuspect;
    e.suspect_since = now;
    queue_update(e.rec);
    note(MembershipEvent::Kind::kSuspect, e.rec, false);
    return;
  }
}

void MembershipTable::probe_succeeded(const std::string&,
                                      Clock::time_point) {
  // Deliberately no state change: a suspect only returns to alive via
  // its own refutation (higher incarnation), which the probe's ack
  // piggybacks — the prober forces the suspicion update into the ping
  // so the target always learns it is suspected.
}

void MembershipTable::tick(Clock::time_point now) {
  const auto window = std::chrono::milliseconds(opts_.suspicion_timeout_ms);
  for (Entry& e : members_) {
    if (e.rec.state != MemberWireState::kSuspect) continue;
    if (now - e.suspect_since < window) continue;
    e.rec.state = MemberWireState::kDead;
    queue_update(e.rec);
    bool map_changed = false;
    if (e.rec.shard_id >= 0 && !in_bulk_) {
      rebuild_map_without(e.rec);
      map_changed = true;
    }
    note(MembershipEvent::Kind::kDead, e.rec, map_changed);
  }
}

void MembershipTable::mark_self_left() {
  if (self_left()) return;
  self_.state = MemberWireState::kLeft;
  queue_update(self_);
  bool map_changed = false;
  if (self_.shard_id >= 0) {
    rebuild_map_without(self_);
    map_changed = true;
  }
  note(MembershipEvent::Kind::kLeft, self_, map_changed);
}

MembershipRecord MembershipTable::snapshot() const {
  MembershipRecord rec;
  rec.epoch = map_->epoch();
  rec.replication = opts_.replication;
  rec.vnodes = opts_.vnodes;
  rec.members.reserve(members_.size() + 1);
  rec.members.push_back(self_);
  for (const Entry& e : members_) rec.members.push_back(e.rec);
  return rec;
}

std::vector<std::string> MembershipTable::probe_targets() const {
  std::vector<std::string> out;
  for (const Entry& e : members_)
    if (is_live(e.rec.state)) out.push_back(e.rec.addr);
  return out;
}

const MemberRecord* MembershipTable::find(const std::string& addr) const {
  for (const Entry& e : members_)
    if (e.rec.addr == addr) return &e.rec;
  return nullptr;
}

std::vector<MemberRecord> MembershipTable::piggyback(std::size_t max) {
  std::vector<MemberRecord> out;
  const std::size_t n = std::min(max, outbox_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Outgoing o = outbox_.front();
    outbox_.pop_front();
    out.push_back(o.rec);
    if (--o.transmits_left > 0) outbox_.push_back(std::move(o));
  }
  return out;
}

std::vector<MembershipEvent> MembershipTable::take_events() {
  std::vector<MembershipEvent> out;
  out.swap(events_);
  return out;
}

void MembershipTable::note(MembershipEvent::Kind kind,
                           const MemberRecord& rec, bool map_changed) {
  events_.push_back({kind, rec, map_changed ? map_->epoch() : 0});
}

void MembershipTable::queue_update(const MemberRecord& rec) {
  // Fresh news about a member supersedes whatever of it was still in
  // flight, with a reset retransmit budget.
  for (Outgoing& o : outbox_) {
    if (o.rec.addr == rec.addr) {
      o.rec = rec;
      o.transmits_left = opts_.piggyback_transmits;
      return;
    }
  }
  outbox_.push_back({rec, opts_.piggyback_transmits});
}

void MembershipTable::rebuild_map_with(const MemberRecord& rec) {
  const auto ep = net::parse_endpoint(rec.addr);
  if (!ep) return;
  ShardMap next = map_->with({rec.shard_id, *ep});
  next.set_replication(opts_.replication);
  map_ = std::make_shared<const ShardMap>(std::move(next));
}

void MembershipTable::rebuild_map_without(const MemberRecord& rec) {
  ShardMap next = map_->without(rec.shard_id);
  next.set_replication(opts_.replication);
  map_ = std::make_shared<const ShardMap>(std::move(next));
}

void MembershipTable::full_rebuild(std::uint64_t epoch) {
  std::vector<ShardInfo> shards;
  auto add = [&shards](const MemberRecord& rec) {
    if (rec.shard_id < 0 || !is_live(rec.state)) return;
    for (const ShardInfo& s : shards)
      if (s.id == rec.shard_id) return;  // first sighting owns the id
    const auto ep = net::parse_endpoint(rec.addr);
    if (ep) shards.push_back({rec.shard_id, *ep});
  };
  add(self_);
  for (const Entry& e : members_) add(e.rec);
  map_ = std::make_shared<const ShardMap>(
      ShardMap::make(std::move(shards), epoch, opts_.replication,
                     opts_.vnodes));
}

// --- MembershipAgent --------------------------------------------------

MembershipAgent::MembershipAgent(MemberRecord self, MembershipOptions opts)
    : table_(std::move(self), opts) {}

MembershipAgent::~MembershipAgent() { stop(); }

void MembershipAgent::bootstrap_from_map(const ShardMap& map) {
  std::vector<MemberRecord> members;
  members.reserve(map.shards().size());
  for (const ShardInfo& s : map.shards()) {
    MemberRecord m;
    m.addr = net::to_string(s.endpoint);
    m.shard_id = s.id;
    m.incarnation = 1;
    members.push_back(std::move(m));
  }
  std::unique_lock<std::mutex> lock(mu_);
  table_.set_map_params(map.replication(), map.vnodes());
  table_.bootstrap(std::move(members), map.epoch(), Clock::now());
  flush_events_locked(lock);
}

void MembershipAgent::bootstrap_single() {
  std::unique_lock<std::mutex> lock(mu_);
  table_.bootstrap({}, 1, Clock::now());
  flush_events_locked(lock);
}

bool MembershipAgent::join(const std::string& seed_addr, int attempts) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const auto ep = net::parse_endpoint(seed_addr);
    if (!ep) return false;
    const int timeout_ms = table_.options().probe_timeout_ms * 4;
    net::ClientConn conn(*ep, timeout_ms, timeout_ms);
    if (!conn.ok()) continue;
    const GossipMessage msg = make_message(GossipMessage::Kind::kJoin);
    if (!write_gossip(conn.out, msg) || !conn.out.flush()) continue;
    auto snap = read_membership(conn.in);
    if (!snap) continue;
    std::unique_lock<std::mutex> lock(mu_);
    table_.absorb(*snap, Clock::now());
    flush_events_locked(lock);
    obs::counter("cluster.membership.joined_via_seed").add();
    return true;
  }
  return false;
}

std::unique_ptr<MembershipAgent> bootstrap_agent(
    int shard_id, int port, const MembershipOptions& opts,
    const ShardMap* map, const std::string& join_addr) {
  MemberRecord self;
  self.shard_id = shard_id;
  self.incarnation = 1;
  const ShardInfo* listed = map != nullptr ? map->find(shard_id) : nullptr;
  self.addr = listed != nullptr ? net::to_string(listed->endpoint)
                                : "127.0.0.1:" + std::to_string(port);
  auto agent = std::make_unique<MembershipAgent>(self, opts);
  if (map != nullptr)
    agent->bootstrap_from_map(*map);
  else if (join_addr.empty())
    agent->bootstrap_single();
  else if (!agent->join(join_addr))
    return nullptr;
  return agent;
}

void MembershipAgent::on_map_change(MapCallback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  map_cb_ = std::move(cb);
}

void MembershipAgent::start() {
  if (prober_.joinable()) return;
  stop_.store(false);
  prober_ = std::thread([this] { prober_loop(); });
}

void MembershipAgent::stop() {
  stop_.store(true);
  if (prober_.joinable()) prober_.join();
}

void MembershipAgent::leave() {
  if (left_.exchange(true)) return;
  std::vector<std::string> targets;
  GossipMessage msg;
  {
    std::unique_lock<std::mutex> lock(mu_);
    targets = table_.probe_targets();
    table_.mark_self_left();
    msg = make_message(GossipMessage::Kind::kLeave);
    flush_events_locked(lock);
  }
  // Push the departure synchronously to every live peer: a leave must
  // not depend on piggyback luck, or the leaver dies before the news
  // spreads and peers burn a suspicion window on it.
  for (const std::string& t : targets) (void)exchange(t, msg);
  stop_.store(true);
}

MembershipAgent::Reply MembershipAgent::handle(const GossipMessage& in) {
  Reply reply;
  std::string pingreq_target;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto now = Clock::now();
    // The sender's own record is evidence: alive for most kinds, its
    // stated (left) record on a leave announcement.
    MemberRecord from = in.from;
    if (in.kind != GossipMessage::Kind::kLeave)
      from.state = MemberWireState::kAlive;
    table_.apply(from, now);
    for (const MemberRecord& u : in.updates) table_.apply(u, now);
    flush_events_locked(lock);
    if (in.kind == GossipMessage::Kind::kJoin) {
      reply.snapshot = table_.snapshot();
      obs::counter("cluster.membership.joins_served").add();
      return reply;
    }
    if (in.kind == GossipMessage::Kind::kPingReq) {
      pingreq_target = in.target;
    } else {
      GossipMessage ack = make_message(GossipMessage::Kind::kAck);
      // If we believe the *sender* is dead or left, tell it so
      // directly: its piggybacked obituary may long since have
      // exhausted its retransmit budget, and without this echo a
      // falsely-buried member can never learn it must refute.
      if (const MemberRecord* cur = table_.find(in.from.addr)) {
        if (!is_live(cur->state)) ack.updates.push_back(*cur);
      }
      reply.ack = std::move(ack);
    }
  }
  if (!pingreq_target.empty()) {
    // Probe on the requester's behalf, outside the lock (it dials).
    GossipMessage probe;
    {
      std::lock_guard<std::mutex> lock(mu_);
      probe = make_message(GossipMessage::Kind::kPing);
    }
    obs::counter("cluster.membership.indirect_probes_served").add();
    auto got = exchange(pingreq_target, probe);
    std::unique_lock<std::mutex> lock(mu_);
    if (got) {
      merge_reply(*got);
      flush_events_locked(lock);
      GossipMessage ack = make_message(GossipMessage::Kind::kAck);
      // Carry fresh first-hand evidence about the target.
      ack.updates.push_back(got->from);
      reply.ack = std::move(ack);
    } else {
      reply.ack = make_message(GossipMessage::Kind::kNack);
    }
  }
  return reply;
}

std::shared_ptr<const ShardMap> MembershipAgent::map() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.map();
}

std::uint64_t MembershipAgent::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.epoch();
}

MembershipRecord MembershipAgent::membership() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.snapshot();
}

MemberRecord MembershipAgent::self() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.self();
}

GossipMessage MembershipAgent::make_message(GossipMessage::Kind kind) {
  GossipMessage msg;
  msg.kind = kind;
  msg.from = table_.self();
  msg.updates = table_.piggyback(kMaxPiggyback);
  return msg;
}

void MembershipAgent::merge_reply(const GossipMessage& reply) {
  const auto now = Clock::now();
  MemberRecord from = reply.from;
  if (from.state != MemberWireState::kLeft)
    from.state = MemberWireState::kAlive;
  table_.apply(from, now);
  for (const MemberRecord& u : reply.updates) table_.apply(u, now);
}

std::optional<GossipMessage> MembershipAgent::exchange(
    const std::string& addr, const GossipMessage& msg) {
  const auto ep = net::parse_endpoint(addr);
  if (!ep) return std::nullopt;
  const int timeout_ms = table_.options().probe_timeout_ms;
  net::ClientConn conn(*ep, timeout_ms, timeout_ms);
  if (!conn.ok() || !write_gossip(conn.out, msg) || !conn.out.flush())
    return std::nullopt;
  return read_gossip(conn.in);
}

void MembershipAgent::probe_round() {
  // Chaos site: the silent-sender half of a gossip partition — the
  // round simply does not happen, so no suspicion verdict is recorded
  // either (a silent member, not a observed-dead one).
  if (FAILPOINT("gossip.probe")) {
    obs::counter("cluster.membership.probes_suppressed").add();
    return;
  }
  std::string target;
  GossipMessage ping;
  {
    std::unique_lock<std::mutex> lock(mu_);
    table_.tick(Clock::now());
    flush_events_locked(lock);
    auto targets = table_.probe_targets();
    if (targets.empty()) return;
    rr_cursor_ %= targets.size();
    target = targets[rr_cursor_++];
    ping = make_message(GossipMessage::Kind::kPing);
    // Force the suspicion through: a suspect must always learn it is
    // suspected from the very probe that reaches it, or the piggyback
    // budget could expire before it ever refutes.
    if (const MemberRecord* cur = table_.find(target)) {
      if (cur->state == MemberWireState::kSuspect)
        ping.updates.push_back(*cur);
    }
  }
  obs::counter("cluster.membership.probes").add();
  bool ok = false;
  if (auto reply = exchange(target, ping)) {
    std::unique_lock<std::mutex> lock(mu_);
    merge_reply(*reply);
    flush_events_locked(lock);
    ok = true;
  }
  if (!ok) {
    obs::counter("cluster.membership.probe_failures").add();
    // Indirect fallback: ask up to k other members to probe the
    // target for us — our path to it may be the broken part.
    std::vector<std::string> helpers;
    GossipMessage req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (const std::string& t : table_.probe_targets())
        if (t != target) helpers.push_back(t);
      req = make_message(GossipMessage::Kind::kPingReq);
      req.target = target;
    }
    const int want = table_.options().indirect_probes;
    int sent = 0;
    for (const std::string& h : helpers) {
      if (sent >= want) break;
      ++sent;
      obs::counter("cluster.membership.indirect_probes").add();
      auto reply = exchange(h, req);
      if (reply && reply->kind == GossipMessage::Kind::kAck) {
        std::unique_lock<std::mutex> lock(mu_);
        merge_reply(*reply);
        flush_events_locked(lock);
        obs::counter("cluster.membership.indirect_acks").add();
        ok = true;
        break;
      }
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  const auto now = Clock::now();
  if (ok)
    table_.probe_succeeded(target, now);
  else
    table_.probe_failed(target, now);
  table_.tick(now);
  flush_events_locked(lock);
}

void MembershipAgent::prober_loop() {
  const auto interval =
      std::chrono::milliseconds(table_.options().probe_interval_ms);
  auto next = Clock::now() + interval;
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Clock::now() < next) continue;
    next = Clock::now() + interval;
    if (stop_.load() || left_.load()) break;
    probe_round();
  }
}

void MembershipAgent::flush_events_locked(
    std::unique_lock<std::mutex>& lock) {
  auto events = table_.take_events();
  if (events.empty()) return;
  auto map = table_.map();
  obs::counter("cluster.map_epoch").set(
      static_cast<std::int64_t>(map->epoch()));
  for (const MembershipEvent& e : events) {
    const char* name = membership_event_name(e.kind);
    switch (e.kind) {
      case MembershipEvent::Kind::kJoin:
        obs::counter("cluster.membership.joins").add();
        break;
      case MembershipEvent::Kind::kAlive:
        obs::counter("cluster.membership.revivals").add();
        break;
      case MembershipEvent::Kind::kSuspect:
        obs::counter("cluster.membership.suspects").add();
        break;
      case MembershipEvent::Kind::kDead:
        obs::counter("cluster.membership.deaths").add();
        break;
      case MembershipEvent::Kind::kLeft:
        obs::counter("cluster.membership.leaves").add();
        break;
      case MembershipEvent::Kind::kRefute:
        obs::counter("cluster.membership.refutes").add();
        break;
    }
    if (e.member.shard_id >= 0 &&
        e.kind != MembershipEvent::Kind::kRefute) {
      const bool live = e.kind == MembershipEvent::Kind::kJoin ||
                        e.kind == MembershipEvent::Kind::kAlive ||
                        e.kind == MembershipEvent::Kind::kSuspect;
      obs::counter("cluster.shard." + std::to_string(e.member.shard_id) +
                   ".alive")
          .set(live ? 1 : 0);
    }
    if (obs::trace::enabled()) {
      // Zero-length marker span: membership transitions land on the
      // merged timeline next to the requests they explain.
      const auto t = std::chrono::steady_clock::now();
      obs::trace::emit(std::string("member.") + name,
                       obs::trace::new_trace_id(),
                       obs::trace::new_span_id(), 0, t, t);
    }
  }
  if (!map_cb_) return;
  // Map-change callbacks run unlocked: the proxy's handler swaps the
  // router map and enqueues seed handoffs, which must not re-enter the
  // agent under its own lock.
  MapCallback cb = map_cb_;
  std::vector<MembershipEvent> map_events;
  for (const MembershipEvent& e : events)
    if (e.map_epoch != 0) map_events.push_back(e);
  if (map_events.empty()) return;
  lock.unlock();
  for (const MembershipEvent& e : map_events) cb(map, e);
  lock.lock();
}

}  // namespace starring::cluster
