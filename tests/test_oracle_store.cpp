// Robustness tests for the on-disk oracle snapshot
// (core/oracle_store.hpp): a clean round trip is bit-exact, and every
// way a file can lie — truncation, flipped payload bytes, wrong
// version, wrong magic, out-of-bounds section table — is rejected
// cleanly (nullopt + oracle.snapshot_rejected) so the daemon falls
// back to cold recomputation instead of crashing or loading garbage.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/block_oracle.hpp"
#include "core/oracle_store.hpp"
#include "obs/metrics.hpp"

namespace starring {
namespace {

class OracleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "oracle_snapshot_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

std::int64_t rejected_count() {
  return obs::counter("oracle.snapshot_rejected").value();
}

OracleSnapshot sample_snapshot() {
  OracleSnapshot snap;
  for (int i = 0; i < 40; ++i) {
    BlockOracle::MemoEntry e;
    e.key = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
    e.val.len = static_cast<std::int8_t>(i % 25 - 1);  // includes -1
    for (int j = 0; j < BlockOracle::kBlockSize; ++j)
      e.val.v[static_cast<std::size_t>(j)] =
          static_cast<std::int8_t>((i + j) % 24);
    snap.memo.push_back(e);
  }
  snap.rings.push_back({7, "g-canonical-key", {0, 1, 2, 3, 4, 5039}});
  snap.rings.push_back({9, "", {}});  // empty key and ring are legal
  std::vector<VertexId> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<VertexId>(i * 7919);
  snap.rings.push_back({9, "big", std::move(big)});
  return snap;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(OracleStoreTest, RoundTripIsBitExact) {
  const OracleSnapshot snap = sample_snapshot();
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, snap, &err)) << err;

  const std::int64_t before = rejected_count();
  const auto loaded = load_oracle_snapshot(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(rejected_count(), before);

  ASSERT_EQ(loaded->memo.size(), snap.memo.size());
  for (std::size_t i = 0; i < snap.memo.size(); ++i) {
    EXPECT_EQ(loaded->memo[i].key, snap.memo[i].key);
    EXPECT_EQ(loaded->memo[i].val.len, snap.memo[i].val.len);
    EXPECT_EQ(loaded->memo[i].val.v, snap.memo[i].val.v);
  }
  ASSERT_EQ(loaded->rings.size(), snap.rings.size());
  for (std::size_t i = 0; i < snap.rings.size(); ++i) {
    EXPECT_EQ(loaded->rings[i].n, snap.rings[i].n);
    EXPECT_EQ(loaded->rings[i].key, snap.rings[i].key);
    EXPECT_EQ(loaded->rings[i].ring, snap.rings[i].ring);
  }
}

TEST_F(OracleStoreTest, MissingFileIsRejected) {
  const std::int64_t before = rejected_count();
  std::string err;
  EXPECT_FALSE(load_oracle_snapshot(path_, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(OracleStoreTest, TruncationAnywhereIsRejected) {
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, sample_snapshot(), &err)) << err;
  const std::string full = slurp(path_);
  ASSERT_GT(full.size(), 64u);
  // Every prefix class: inside the magic, inside the header, inside the
  // section table, inside each payload, one byte short of complete.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{15}, std::size_t{23},
        std::size_t{30}, std::size_t{60}, full.size() / 2,
        full.size() - 1}) {
    const std::int64_t before = rejected_count();
    dump(path_, full.substr(0, cut));
    EXPECT_FALSE(load_oracle_snapshot(path_).has_value())
        << "cut at " << cut;
    EXPECT_EQ(rejected_count(), before + 1) << "cut at " << cut;
  }
}

TEST_F(OracleStoreTest, CorruptPayloadFailsChecksum) {
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, sample_snapshot(), &err)) << err;
  std::string bytes = slurp(path_);
  // Flip one bit in the middle of the checksummed region.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  dump(path_, bytes);
  const std::int64_t before = rejected_count();
  EXPECT_FALSE(load_oracle_snapshot(path_, &err).has_value());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(OracleStoreTest, VersionMismatchIsRejected) {
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, sample_snapshot(), &err)) << err;
  std::string bytes = slurp(path_);
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);  // version u32 LSB
  dump(path_, bytes);
  const std::int64_t before = rejected_count();
  EXPECT_FALSE(load_oracle_snapshot(path_, &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(OracleStoreTest, BadMagicIsRejected) {
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, sample_snapshot(), &err)) << err;
  std::string bytes = slurp(path_);
  bytes[0] = 'X';
  dump(path_, bytes);
  const std::int64_t before = rejected_count();
  EXPECT_FALSE(load_oracle_snapshot(path_, &err).has_value());
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(OracleStoreTest, LyingSectionCountIsRejectedNotOverread) {
  // A section table that claims more records than the payload holds
  // must be caught by the bounds-checked cursor.  The count lives in
  // the checksummed region, so recompute the checksum to get past that
  // check and exercise the structural validation itself.
  OracleSnapshot snap;
  snap.rings.push_back({7, "k", {1, 2, 3}});
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, snap, &err)) << err;
  std::string bytes = slurp(path_);
  // Section table entry 1 (rings) count field: header 24 + entry size
  // 24 + offset 16 within the entry.
  const std::size_t count_at = 24 + 24 + 16;
  bytes[count_at] = 9;  // claims 9 rings; payload holds 1
  // Recompute the 4-lane word-folded FNV-1a over [24, EOF) and patch
  // the stored checksum (same scheme as the store: four lanes over
  // 32-byte blocks, asymmetric fold, then remaining words and tail
  // bytes sequentially).
  constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto word_at = [&](std::size_t at) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b)
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               bytes[at + static_cast<std::size_t>(b)]))
           << (8 * b);
    return w;
  };
  std::uint64_t lane[4] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  std::size_t i = 24;
  for (; i + 32 <= bytes.size(); i += 32)
    for (int l = 0; l < 4; ++l) {
      lane[l] ^= word_at(i + static_cast<std::size_t>(l) * 8);
      lane[l] *= kPrime;
    }
  std::uint64_t h = lane[0];
  for (int l = 1; l < 4; ++l) h = (h * kPrime) ^ lane[l];
  for (; i + 8 <= bytes.size(); i += 8) {
    h ^= word_at(i);
    h *= kPrime;
  }
  for (; i < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= kPrime;
  }
  for (int i = 0; i < 8; ++i)
    bytes[16 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xFF);
  dump(path_, bytes);
  const std::int64_t before = rejected_count();
  EXPECT_FALSE(load_oracle_snapshot(path_, &err).has_value());
  EXPECT_NE(err.find("rings"), std::string::npos) << err;
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(OracleStoreTest, MemoRoundTripsThroughOracle) {
  // prewarm -> export -> file -> load -> import into a cleared cache
  // must reproduce the published fault-free plane and identical query
  // answers.
  BlockOracle::prewarm_fault_free();
  OracleSnapshot snap;
  snap.memo = BlockOracle::export_memo();
  ASSERT_GE(snap.memo.size(),
            static_cast<std::size_t>(BlockOracle::kBlockSize) *
                (BlockOracle::kBlockSize - 1));
  std::string err;
  ASSERT_TRUE(write_oracle_snapshot(path_, snap, &err)) << err;

  BlockOracle ref;
  std::vector<BlockOracle::PathVal> want(24 * 24);
  for (int from = 0; from < 24; ++from)
    for (int to = 0; to < 24; ++to)
      if (from != to)
        ref.find_path_into(from, to, 0, 24,
                           &want[static_cast<std::size_t>(from) * 24 +
                                 static_cast<std::size_t>(to)]);

  BlockOracle::clear_cache();
  ASSERT_EQ(BlockOracle::fault_free_plane(), nullptr);
  const auto loaded = load_oracle_snapshot(path_, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  BlockOracle::import_memo(loaded->memo);
  ASSERT_NE(BlockOracle::fault_free_plane(), nullptr);

  BlockOracle oracle;
  for (int from = 0; from < 24; ++from)
    for (int to = 0; to < 24; ++to) {
      if (from == to) continue;
      BlockOracle::PathVal got;
      oracle.find_path_into(from, to, 0, 24, &got);
      const BlockOracle::PathVal& w =
          want[static_cast<std::size_t>(from) * 24 +
               static_cast<std::size_t>(to)];
      ASSERT_EQ(got.len, w.len) << from << "->" << to;
      ASSERT_EQ(got.v, w.v) << from << "->" << to;
    }
  EXPECT_EQ(oracle.cache_misses(), 0u);
}

}  // namespace
}  // namespace starring
