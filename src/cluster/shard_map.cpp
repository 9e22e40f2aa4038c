#include "cluster/shard_map.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>

#include "util/io.hpp"

namespace starring::cluster {

namespace {

// A deployment is a handful of processes; the cap only guards the
// parser against a garbage count line.
constexpr int kMaxShards = 1024;
constexpr int kMaxVnodes = 4096;

}  // namespace

std::optional<ShardMap> ShardMap::parse(std::istream& is,
                                        std::string* error) {
  RecordReader c(is, error);
  ShardMap m;
  std::size_t count = 0;
  c.header("starring-shard-map", /*file=*/true);
  c.optionals(
      {"epoch", "replication", "vnodes"},
      [&](std::size_t k, const std::string& word) {
        switch (k) {
          case 0: return c.num(&m.epoch_);
          case 1: return c.num(&m.replication_, 1);
          case 2: return c.num(&m.vnodes_, 1, kMaxVnodes);
        }
        return c.fail("unknown line '" + word + "'");
      },
      "shards");
  c.check(c.num(&count, 1, kMaxShards), "bad shards count");
  for (std::size_t i = 0; i < count && c.key("shard"); ++i) {
    int id = -1;
    std::string ep;
    c.check(c.num(&id, 0) && c.token(&ep), "bad shard line");
    const auto endpoint = net::parse_endpoint(ep);
    if (!endpoint)
      c.fail("bad endpoint '" + ep + "'");
    else if (m.find(id) != nullptr)
      c.fail("duplicate shard id " + std::to_string(id));
    else
      m.shards_.push_back({id, *endpoint});
  }
  c.end();
  c.check(m.replication_ <= static_cast<int>(m.shards_.size()),
          "replication exceeds shard count");
  m.target_replication_ = m.replication_;
  if (c.ok()) m.build_ring();
  return c.finish(std::move(m));
}

ShardMap ShardMap::make(std::vector<ShardInfo> shards, std::uint64_t epoch,
                        int replication, int vnodes) {
  ShardMap m;
  m.epoch_ = epoch;
  m.vnodes_ = std::clamp(vnodes, 1, kMaxVnodes);
  m.shards_ = std::move(shards);
  m.set_replication(replication);
  m.build_ring();
  return m;
}

std::optional<ShardMap> ShardMap::load(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in && error != nullptr) *error = "cannot open " + path;
  return in ? parse(in, error) : std::nullopt;
}

const ShardInfo* ShardMap::find(int shard_id) const {
  for (const ShardInfo& s : shards_)
    if (s.id == shard_id) return &s;
  return nullptr;
}

void ShardMap::build_ring() {
  ring_.clear();
  ring_.reserve(shards_.size() * static_cast<std::size_t>(vnodes_));
  for (const ShardInfo& s : shards_) {
    for (int k = 0; k < vnodes_; ++k) {
      // The point depends only on the shard's own id: removing a shard
      // deletes exactly its points, leaving every other key in place.
      const std::string label =
          "shard-" + std::to_string(s.id) + "#" + std::to_string(k);
      ring_.push_back({place_hash(label), s.id});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              // shard_id tie-break: identical hash points place
              // deterministically regardless of file order.
              return a.hash != b.hash ? a.hash < b.hash
                                      : a.shard_id < b.shard_id;
            });
}

std::size_t ShardMap::ring_start(std::string_view key) const {
  const std::uint64_t h = place_hash(key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, std::uint64_t v) { return p.hash < v; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

int ShardMap::owner(std::string_view key) const {
  if (ring_.empty()) return -1;
  return ring_[ring_start(key)].shard_id;
}

std::vector<int> ShardMap::replicas(std::string_view key) const {
  std::vector<int> out;
  if (ring_.empty()) return out;
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(replication_), shards_.size());
  const std::size_t start = ring_start(key);
  for (std::size_t i = 0; i < ring_.size() && out.size() < want; ++i) {
    const int id = ring_[(start + i) % ring_.size()].shard_id;
    if (std::find(out.begin(), out.end(), id) == out.end())
      out.push_back(id);
  }
  return out;
}

std::vector<int> ShardMap::all_candidates(std::string_view key) const {
  std::vector<int> out;
  if (ring_.empty()) return out;
  const std::size_t start = ring_start(key);
  for (std::size_t i = 0; i < ring_.size() && out.size() < shards_.size();
       ++i) {
    const int id = ring_[(start + i) % ring_.size()].shard_id;
    if (std::find(out.begin(), out.end(), id) == out.end())
      out.push_back(id);
  }
  return out;
}

ShardMap ShardMap::without(int shard_id) const {
  ShardMap m;
  m.epoch_ = epoch_ + 1;  // a shrink is a membership change
  m.vnodes_ = vnodes_;
  for (const ShardInfo& s : shards_)
    if (s.id != shard_id) m.shards_.push_back(s);
  m.set_replication(target_replication_);
  m.build_ring();
  return m;
}

ShardMap ShardMap::with(const ShardInfo& s) const {
  ShardMap m;
  m.epoch_ = epoch_ + 1;  // growth is a membership change too
  m.vnodes_ = vnodes_;
  m.shards_ = shards_;
  bool replaced = false;
  for (ShardInfo& prev : m.shards_) {
    if (prev.id == s.id) {
      prev.endpoint = s.endpoint;  // rejoin at a new address
      replaced = true;
      break;
    }
  }
  if (!replaced) m.shards_.push_back(s);
  // Growth heals replication toward the configured target: a cluster
  // that shrank below R regains replicas as members return.
  m.set_replication(target_replication_);
  m.build_ring();
  return m;
}

void ShardMap::set_replication(int target) {
  target_replication_ = std::max(1, target);
  replication_ =
      std::min(target_replication_, static_cast<int>(shards_.size()));
  if (replication_ < 1) replication_ = 1;
}

std::string ShardMap::to_text() const {
  std::ostringstream os;
  RecordWriter w(os, "starring-shard-map");
  w.line("epoch", epoch_)
      .line("replication", replication_)
      .line("vnodes", vnodes_)
      .line("shards", shards_.size());
  for (const ShardInfo& s : shards_)
    w.line("shard", s.id, net::to_string(s.endpoint));
  w.end();
  return os.str();
}

}  // namespace starring::cluster
