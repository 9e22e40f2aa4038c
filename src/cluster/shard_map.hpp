// Static cluster membership + consistent-hash placement.
//
// A shard map is a small text file shared by every process in a
// deployment (shards, proxy, tooling):
//
//   starring-shard-map v1
//   epoch 1
//   replication 2
//   vnodes 128
//   shards 3
//   shard 0 127.0.0.1:47181
//   shard 1 127.0.0.1:47182
//   shard 2 127.0.0.1:47183
//   end
//
// epoch/replication/vnodes are optional (defaults 1/2/128), each at
// most once, and must precede the shards section; the record grammar
// and its reader are util/io's (RecordReader).  Shard ids are arbitrary distinct
// non-negative integers — placement hashes the *id*, not the position
// in the file, so two maps listing the same shards in different order
// place every key identically.
//
// Placement is a consistent-hash ring: every shard contributes
// `vnodes` points at place_hash("shard-<id>#<k>"), a key's owner is
// the first point clockwise of place_hash(key), and its replica set is the
// next replication-1 *distinct* shards clockwise.  Because vnode
// points depend only on the shard's own id, removing a shard moves
// exactly the keys it owned (its points vanish; everyone else's stay
// put) — the minimal-disruption property the tests pin down.
//
// A map file is one of two ways a map comes to exist.  Originally the
// file was the *only* way ("deliberately static", restart to change
// anything); since the membership layer (cluster/membership.hpp) maps
// are also built programmatically — make() at bootstrap, then
// with()/without() per confirmed join/leave/death, each bumping the
// epoch.  The file remains the static-bootstrap and tooling format
// (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/net.hpp"

namespace starring::cluster {

/// FNV-1a, 64-bit.  Chosen over a fancier hash because placement only
/// needs determinism across processes and decent vnode dispersion —
/// and a 10-line function with published test vectors is auditable.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// MurmurHash3's 64-bit finalizer.  FNV-1a disperses short, similar
/// strings ("shard-3#17", "n=5;fv=...") mostly in its low bits, but
/// ring order compares full 64-bit values — dominated by the high
/// bits, where FNV barely avalanches, so raw FNV points cluster and
/// shard load skews 2x regardless of vnode count.  Finalizing fixes
/// the avalanche; placement hashes are mix64(fnv1a64(...)).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// The hash every placement decision uses (ring points and keys).
constexpr std::uint64_t place_hash(std::string_view s) {
  return mix64(fnv1a64(s));
}

struct ShardInfo {
  int id = -1;
  net::Endpoint endpoint;
};

class ShardMap {
 public:
  /// Parse a shard-map record from a stream.  nullopt with a short
  /// reason in *error on malformed input (bad header, duplicate ids,
  /// replication outside [1, shard count], ...).
  static std::optional<ShardMap> parse(std::istream& is,
                                       std::string* error = nullptr);
  static std::optional<ShardMap> load(const std::string& path,
                                      std::string* error = nullptr);

  /// Build a map programmatically (the membership layer's bootstrap
  /// path).  Unlike parse(), an *empty* shard list is allowed — a
  /// cluster an observer joined before any shard did routes nothing
  /// until a shard arrives.  replication is clamped to [1, max(count,
  /// 1)], vnodes to the parser's cap; duplicate ids are the caller's
  /// responsibility (the membership table keys members by endpoint and
  /// resolves id conflicts before building).
  static ShardMap make(std::vector<ShardInfo> shards, std::uint64_t epoch,
                       int replication, int vnodes);

  std::uint64_t epoch() const { return epoch_; }
  int replication() const { return replication_; }
  int vnodes() const { return vnodes_; }
  const std::vector<ShardInfo>& shards() const { return shards_; }
  const ShardInfo* find(int shard_id) const;

  /// Owner shard id for a canonical-class key.
  int owner(std::string_view key) const;

  /// The key's owner followed by its replication-1 replicas: the next
  /// distinct shards clockwise on the ring.  Size = min(replication,
  /// shard count); entries are distinct by construction.
  std::vector<int> replicas(std::string_view key) const;

  /// Every shard reachable for the key, nearest-first: replicas() then
  /// the remaining shards in clockwise ring order.  A proxy walks this
  /// list last-resort — any shard can *compute* any class, non-replicas
  /// just will not have it cached.
  std::vector<int> all_candidates(std::string_view key) const;

  /// Membership-change simulation: the same map minus one shard
  /// (replication clamped to the surviving count).  Used by the
  /// disruption tests and by operators previewing a shrink.
  ShardMap without(int shard_id) const;

  /// Membership-change simulation, growth direction: the same map plus
  /// one shard (epoch bumped).  An existing id has its endpoint
  /// replaced in place — a shard rejoining on a new port keeps every
  /// key where it was, because placement hashes only the id.
  ShardMap with(const ShardInfo& s) const;

  /// Set the *target* R and re-clamp the effective replication to
  /// [1, shard count].  The target survives with()/without() churn, so
  /// a cluster that shrank below R heals back to full replication as
  /// members return — no external bookkeeping required.
  void set_replication(int target);

  /// Round-trippable text form (same grammar parse() accepts).
  std::string to_text() const;

 private:
  struct RingPoint {
    std::uint64_t hash = 0;
    int shard_id = -1;
  };

  void build_ring();
  /// Index into ring_ of the first point clockwise of the key's hash.
  std::size_t ring_start(std::string_view key) const;

  std::uint64_t epoch_ = 1;
  int replication_ = 2;  // effective: clamped to the shard count
  int target_replication_ = 2;  // configured R, survives churn
  int vnodes_ = 128;
  std::vector<ShardInfo> shards_;
  std::vector<RingPoint> ring_;  // sorted by (hash, shard_id)
};

}  // namespace starring::cluster
