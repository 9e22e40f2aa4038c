#include "core/oracle_store.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define STARRING_HAVE_MMAP 1
#endif

#include "obs/metrics.hpp"

namespace starring {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'R', 'O', 'R', 'C', 'L', '1'};
constexpr std::size_t kHeaderSize = 24;      // magic + version + count + checksum
constexpr std::size_t kSectionEntrySize = 24;
constexpr std::uint32_t kSectionMemo = 1;
constexpr std::uint32_t kSectionRings = 2;
constexpr std::size_t kMemoRecordSize = 33;  // u64 key + i8 len + 24 path bytes

// Serialization is explicit little-endian byte shuffling, so the format
// is identical across hosts regardless of native endianness.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_word(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  } else {
    return get_u64(p);
  }
}

std::uint64_t fnv1a64(const unsigned char* data, std::size_t size) {
  // FNV-1a mixing constants, run as four independent lanes over 8-byte
  // little-endian words (word i of each 32-byte block feeds lane i),
  // folded together asymmetrically, then remaining words and tail
  // bytes sequentially.  The checksum covers tens of megabytes of ring
  // payload at daemon startup; a serial FNV is latency-bound on its
  // multiply chain and would cost more than the parse it protects —
  // four lanes hide that latency and leave the pass memory-bound.
  constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lane[4] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32)
    for (int l = 0; l < 4; ++l) {
      lane[l] ^= load_word(data + i + static_cast<std::size_t>(l) * 8);
      lane[l] *= kPrime;
    }
  std::uint64_t h = lane[0];
  for (int l = 1; l < 4; ++l) h = (h * kPrime) ^ lane[l];
  for (; i + 8 <= size; i += 8) {
    h ^= load_word(data + i);
    h *= kPrime;
  }
  for (; i < size; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

void set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

/// Read-only view of the snapshot file: an mmap when available, a
/// heap copy otherwise.  Loading goes through this one abstraction so
/// the validation code is identical on both paths.
class FileView {
 public:
  FileView() = default;
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;

  ~FileView() {
#ifdef STARRING_HAVE_MMAP
    if (mapped_ != nullptr) ::munmap(mapped_, size_);
#endif
  }

  bool open(const std::string& path, std::string* error) {
#ifdef STARRING_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (m != MAP_FAILED) {
          mapped_ = m;
          size_ = static_cast<std::size_t>(st.st_size);
          return true;
        }
      } else {
        ::close(fd);
      }
      // fstat/mmap failure (or empty file): fall through to the
      // buffered read, which produces the same rejection diagnostics.
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      set_error(error, "cannot open snapshot: " + path);
      return false;
    }
    buffer_.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    if (in.bad()) {
      set_error(error, "read error on snapshot: " + path);
      return false;
    }
    return true;
  }

  const unsigned char* data() const {
    if (mapped_ != nullptr) return static_cast<const unsigned char*>(mapped_);
    return reinterpret_cast<const unsigned char*>(buffer_.data());
  }
  std::size_t size() const {
    return mapped_ != nullptr ? size_ : buffer_.size();
  }

 private:
  void* mapped_ = nullptr;
  std::size_t size_ = 0;
  std::string buffer_;
};

std::optional<OracleSnapshot> reject(std::string* error, std::string msg) {
  obs::counter("oracle.snapshot_rejected").add();
  set_error(error, std::move(msg));
  return std::nullopt;
}

/// Bounds-checked cursor over one section payload.  Every read checks
/// remaining bytes first, so a lying section table can only produce a
/// clean rejection, never an out-of-bounds access.
struct Cursor {
  const unsigned char* p;
  std::size_t left;

  bool take(std::size_t n, const unsigned char** out) {
    if (left < n) return false;
    *out = p;
    p += n;
    left -= n;
    return true;
  }
};

bool parse_memo_section(Cursor cur, std::uint64_t count,
                        std::vector<BlockOracle::MemoEntry>* memo) {
  if (cur.left / kMemoRecordSize < count) return false;
  memo->reserve(memo->size() + static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* rec = nullptr;
    if (!cur.take(kMemoRecordSize, &rec)) return false;
    BlockOracle::MemoEntry e;
    e.key = get_u64(rec);
    e.val.len = static_cast<std::int8_t>(rec[8]);
    if (e.val.len < -1 || e.val.len > BlockOracle::kBlockSize) return false;
    for (int j = 0; j < BlockOracle::kBlockSize; ++j)
      e.val.v[static_cast<std::size_t>(j)] =
          static_cast<std::int8_t>(rec[9 + j]);
    memo->push_back(e);
  }
  return true;
}

bool parse_rings_section(Cursor cur, std::uint64_t count,
                         std::vector<OracleSnapshot::CanonicalRing>* rings) {
  rings->reserve(rings->size() + static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* hdr = nullptr;
    if (!cur.take(16, &hdr)) return false;
    const std::uint32_t n = get_u32(hdr);
    const std::uint32_t key_len = get_u32(hdr + 4);
    const std::uint64_t ring_len = get_u64(hdr + 8);
    // Sanity caps: n beyond kMaxN or a ring longer than 16! cannot be a
    // legitimate record and would otherwise drive a giant allocation.
    if (n < 3 || n > 16) return false;
    if (key_len > 4096) return false;
    if (ring_len > (1ULL << 45)) return false;
    const unsigned char* key_bytes = nullptr;
    const unsigned char* ring_bytes = nullptr;
    if (!cur.take(key_len, &key_bytes)) return false;
    if (cur.left / 8 < ring_len) return false;
    if (!cur.take(static_cast<std::size_t>(ring_len) * 8, &ring_bytes))
      return false;
    OracleSnapshot::CanonicalRing r;
    r.n = static_cast<int>(n);
    r.key.assign(reinterpret_cast<const char*>(key_bytes), key_len);
    r.ring.resize(static_cast<std::size_t>(ring_len));
    if constexpr (std::endian::native == std::endian::little) {
      // Rings dominate the snapshot (megabytes per n=9 instance); on LE
      // hosts the wire format IS the in-memory layout, so one memcpy
      // replaces millions of byte-shuffling iterations.  The cold-start
      // win CI asserts leans on this.  An empty ring's data() may be
      // null, which memcpy forbids even for zero bytes.
      if (ring_len != 0)
        std::memcpy(r.ring.data(), ring_bytes,
                    static_cast<std::size_t>(ring_len) * 8);
    } else {
      for (std::uint64_t j = 0; j < ring_len; ++j)
        r.ring[static_cast<std::size_t>(j)] = get_u64(ring_bytes + j * 8);
    }
    rings->push_back(std::move(r));
  }
  return true;
}

}  // namespace

bool write_oracle_snapshot(const std::string& path, const OracleSnapshot& snap,
                           std::string* error) {
  // Build payload sections first so the section table can carry final
  // absolute offsets.
  std::string memo_payload;
  memo_payload.reserve(snap.memo.size() * kMemoRecordSize);
  for (const BlockOracle::MemoEntry& e : snap.memo) {
    put_u64(memo_payload, e.key);
    memo_payload.push_back(static_cast<char>(e.val.len));
    for (int j = 0; j < BlockOracle::kBlockSize; ++j)
      memo_payload.push_back(
          static_cast<char>(e.val.v[static_cast<std::size_t>(j)]));
  }

  std::string rings_payload;
  for (const OracleSnapshot::CanonicalRing& r : snap.rings) {
    put_u32(rings_payload, static_cast<std::uint32_t>(r.n));
    put_u32(rings_payload, static_cast<std::uint32_t>(r.key.size()));
    put_u64(rings_payload, static_cast<std::uint64_t>(r.ring.size()));
    rings_payload.append(r.key);
    if constexpr (std::endian::native == std::endian::little) {
      rings_payload.append(reinterpret_cast<const char*>(r.ring.data()),
                           r.ring.size() * 8);
    } else {
      for (const VertexId v : r.ring) put_u64(rings_payload, v);
    }
  }

  const std::uint32_t section_count = 2;
  const std::size_t table_size = section_count * kSectionEntrySize;
  const std::uint64_t memo_off = kHeaderSize + table_size;
  const std::uint64_t rings_off = memo_off + memo_payload.size();

  // Everything the checksum covers: section table + payloads.
  std::string body;
  body.reserve(table_size + memo_payload.size() + rings_payload.size());
  put_u32(body, kSectionMemo);
  put_u32(body, 0);  // reserved
  put_u64(body, memo_off);
  put_u64(body, static_cast<std::uint64_t>(snap.memo.size()));
  put_u32(body, kSectionRings);
  put_u32(body, 0);  // reserved
  put_u64(body, rings_off);
  put_u64(body, static_cast<std::uint64_t>(snap.rings.size()));
  body += memo_payload;
  body += rings_payload;

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u32(header, kSnapshotVersion);
  put_u32(header, section_count);
  put_u64(header,
          fnv1a64(reinterpret_cast<const unsigned char*>(body.data()),
                  body.size()));

  // Temp sibling + rename: readers either see the old snapshot or the
  // complete new one, never a torn write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      set_error(error, "cannot open for write: " + tmp);
      return false;
    }
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      set_error(error, "write failed: " + tmp);
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename failed: " + std::string(std::strerror(errno)));
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<OracleSnapshot> load_oracle_snapshot(const std::string& path,
                                                   std::string* error) {
  FileView file;
  std::string open_err;
  if (!file.open(path, &open_err)) return reject(error, std::move(open_err));

  const unsigned char* data = file.data();
  const std::size_t size = file.size();
  if (size < kHeaderSize) return reject(error, "snapshot truncated: header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    return reject(error, "snapshot magic mismatch");
  const std::uint32_t version = get_u32(data + 8);
  if (version != kSnapshotVersion)
    return reject(error,
                  "snapshot version mismatch: " + std::to_string(version));
  const std::uint32_t section_count = get_u32(data + 12);
  const std::uint64_t stored_sum = get_u64(data + 16);
  const std::uint64_t computed_sum =
      fnv1a64(data + kHeaderSize, size - kHeaderSize);
  if (stored_sum != computed_sum)
    return reject(error, "snapshot checksum mismatch");
  if (section_count > 1024)
    return reject(error, "snapshot section count implausible");
  const std::size_t table_size =
      static_cast<std::size_t>(section_count) * kSectionEntrySize;
  if (size - kHeaderSize < table_size)
    return reject(error, "snapshot truncated: section table");

  OracleSnapshot snap;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const unsigned char* entry = data + kHeaderSize + s * kSectionEntrySize;
    const std::uint32_t type = get_u32(entry);
    const std::uint64_t offset = get_u64(entry + 8);
    const std::uint64_t count = get_u64(entry + 16);
    if (offset > size)
      return reject(error, "snapshot section offset out of bounds");
    const Cursor cur{data + offset, size - static_cast<std::size_t>(offset)};
    switch (type) {
      case kSectionMemo:
        if (!parse_memo_section(cur, count, &snap.memo))
          return reject(error, "snapshot memo section malformed");
        break;
      case kSectionRings:
        if (!parse_rings_section(cur, count, &snap.rings))
          return reject(error, "snapshot rings section malformed");
        break;
      default:
        break;  // unknown section from a newer writer: skip
    }
  }
  return snap;
}

}  // namespace starring
