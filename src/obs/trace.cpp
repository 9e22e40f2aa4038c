#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace starring::obs::trace {

namespace detail {

namespace {
bool env_enabled() {
  const char* v = std::getenv("STARRING_TRACE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Fixed per-record name capacity; longer names are truncated.  Three
// 64-bit words in the packed cell layout below.
constexpr std::size_t kNameCap = 24;
// Packed record: trace, span, parent, start_ns, dur_ns, tid, name[3].
constexpr int kWords = 9;

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 64;  // floor: even a tiny override keeps some history
  while (p < v && p < (std::size_t{1} << 20)) p <<= 1;
  return p;
}

std::size_t env_capacity() {
  const char* v = std::getenv("STARRING_TRACE_BUFFER");
  if (v == nullptr || *v == '\0') return 4096;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed <= 0) return 4096;
  return round_pow2(static_cast<std::size_t>(parsed));
}

/// Anchor for exported timestamps.  Captured during static
/// initialization, before main() — lazily anchoring at the first
/// record would make timestamps captured earlier (a request admitted
/// before its first span completes) come out negative.
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::chrono::steady_clock::time_point process_epoch() { return g_epoch; }

/// One flight-recorder cell, a tiny seqlock: `seq` is bumped to odd
/// before the payload words are overwritten and back to even after, so
/// a concurrent drain can detect (and drop) a record it caught
/// mid-overwrite.  Every field is an atomic accessed with explicit
/// ordering — no mutex on the write path, and no non-atomic access for
/// TSan to flag.  A drain racing the writer can in principle still
/// observe a torn-but-even cell (the payload stores are relaxed); the
/// worst case is one garbage span in a dump, never corruption of live
/// state, which is the standard flight-recorder trade.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> w[kWords];
};

/// Per-thread ring.  Single writer (the owning thread), any number of
/// concurrent drain readers.
class ThreadRing {
 public:
  ThreadRing(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), mask_(capacity - 1),
        cells_(std::make_unique<Cell[]>(capacity)),
        drops_(&obs::counter("trace.dropped_spans")) {}

  std::uint32_t tid() const { return tid_; }
  std::size_t capacity() const { return mask_ + 1; }

  void push(std::uint64_t trace_id, std::uint64_t span_id,
            std::uint64_t parent_id, std::int64_t start_ns,
            std::int64_t dur_ns, const char* name) {
    const std::uint64_t idx = head_.load(std::memory_order_relaxed);
    if (idx > mask_) drops_->add(1);  // overwriting an undrained cell
    Cell& c = cells_[idx & mask_];
    // acq_rel RMW: the payload stores below cannot be hoisted above the
    // odd (dirty) mark.
    c.seq.fetch_add(1, std::memory_order_acq_rel);
    c.w[0].store(trace_id, std::memory_order_relaxed);
    c.w[1].store(span_id, std::memory_order_relaxed);
    c.w[2].store(parent_id, std::memory_order_relaxed);
    c.w[3].store(static_cast<std::uint64_t>(start_ns),
                 std::memory_order_relaxed);
    c.w[4].store(static_cast<std::uint64_t>(dur_ns),
                 std::memory_order_relaxed);
    c.w[5].store(tid_, std::memory_order_relaxed);
    std::uint64_t packed[3] = {0, 0, 0};
    std::memcpy(packed, name, std::min(std::strlen(name), kNameCap));
    for (int i = 0; i < 3; ++i)
      c.w[6 + i].store(packed[i], std::memory_order_relaxed);
    c.seq.fetch_add(1, std::memory_order_release);  // publish (even)
    head_.store(idx + 1, std::memory_order_release);
  }

  /// Copy out every stable record, oldest first.
  void drain_into(std::vector<SpanRecord>* out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, mask_ + 1);
    for (std::uint64_t idx = head - count; idx < head; ++idx) {
      const Cell& c = cells_[idx & mask_];
      const std::uint64_t s1 = c.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;  // being overwritten right now
      std::uint64_t w[kWords];
      for (int i = 0; i < kWords; ++i)
        w[i] = c.w[i].load(std::memory_order_acquire);
      if (c.seq.load(std::memory_order_acquire) != s1) continue;  // torn
      SpanRecord rec;
      rec.trace_id = w[0];
      rec.span_id = w[1];
      rec.parent_id = w[2];
      rec.start_ns = static_cast<std::int64_t>(w[3]);
      rec.dur_ns = static_cast<std::int64_t>(w[4]);
      rec.tid = static_cast<std::uint32_t>(w[5]);
      char name[kNameCap + 1] = {};
      std::memcpy(name, &w[6], kNameCap);
      rec.name = name;
      out->push_back(std::move(rec));
    }
  }

  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return head > mask_ + 1 ? head - (mask_ + 1) : 0;
  }

  void reset() { head_.store(0, std::memory_order_relaxed); }

 private:
  const std::uint32_t tid_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  obs::Counter* drops_;
  std::atomic<std::uint64_t> head_{0};
};

struct Recorder {
  std::mutex mu;  // ring registration and drain iteration only
  std::vector<std::unique_ptr<ThreadRing>> rings;
};

Recorder& recorder() {
  // Leaked singleton, like the counter registry: rings are referenced
  // from thread-locals in threads that may outlive static destruction.
  static Recorder* r = new Recorder;
  return *r;
}

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_id_base{1};  // (namespace << 48) + 1

thread_local ThreadRing* t_ring = nullptr;
thread_local Context t_current{};

ThreadRing& local_ring() {
  if (t_ring == nullptr) {
    Recorder& r = recorder();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.rings.push_back(std::make_unique<ThreadRing>(
        static_cast<std::uint32_t>(r.rings.size()), ring_capacity()));
    t_ring = r.rings.back().get();
  }
  return *t_ring;
}

std::int64_t rel_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - process_epoch())
      .count();
}

}  // namespace

std::size_t ring_capacity() {
  static const std::size_t cap = round_pow2(env_capacity());
  return cap;
}

Context current() { return t_current; }

std::uint64_t new_trace_id() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t new_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

void set_id_namespace(std::uint32_t ns) {
  const std::uint64_t base = (static_cast<std::uint64_t>(ns) << 48) + 1;
  g_id_base.store(base, std::memory_order_relaxed);
  g_next_trace.store(base, std::memory_order_relaxed);
  g_next_span.store(base, std::memory_order_relaxed);
}

std::uint64_t epoch_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          process_epoch().time_since_epoch())
          .count());
}

void emit(std::string_view name, std::uint64_t trace_id,
          std::uint64_t span_id, std::uint64_t parent_id,
          std::chrono::steady_clock::time_point t0,
          std::chrono::steady_clock::time_point t1) {
  if (!enabled() || trace_id == 0) return;
  char buf[kNameCap + 1] = {};
  std::memcpy(buf, name.data(), std::min(name.size(), kNameCap));
  const std::int64_t start = rel_ns(t0);
  const std::int64_t dur = std::max<std::int64_t>(0, rel_ns(t1) - start);
  local_ring().push(trace_id, span_id, parent_id, start, dur, buf);
}

ContextGuard::ContextGuard(Context ctx) : prev_(t_current) {
  t_current = ctx;
}

ContextGuard::~ContextGuard() { t_current = prev_; }

std::vector<SpanRecord> collect() {
  std::vector<SpanRecord> out;
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) ring->drain_into(&out);
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.span_id < b.span_id;
            });
  return out;
}

void clear() {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) ring->reset();
  const std::uint64_t base = g_id_base.load(std::memory_order_relaxed);
  g_next_trace.store(base, std::memory_order_relaxed);
  g_next_span.store(base, std::memory_order_relaxed);
}

RecorderStats stats() {
  RecorderStats s;
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    s.recorded += ring->recorded();
    s.dropped += ring->dropped();
  }
  return s;
}

}  // namespace starring::obs::trace

namespace starring::obs {

void Scope::begin_span(std::string_view name, trace::Context parent) {
  armed_ = true;
  ctx_.trace_id = parent.valid() ? parent.trace_id : trace::new_trace_id();
  ctx_.span_id = trace::new_span_id();
  parent_span_ = parent.valid() ? parent.span_id : 0;
  std::memcpy(name_, name.data(), std::min(name.size(), sizeof(name_) - 1));
  prev_ = trace::t_current;
  trace::t_current = ctx_;
}

void Scope::end_span(std::chrono::steady_clock::time_point t1) {
  trace::t_current = prev_;
  // Record even if tracing was switched off mid-span: the ids were
  // allocated and children may already reference this span.
  const std::int64_t start = trace::rel_ns(t0_);
  trace::local_ring().push(ctx_.trace_id, ctx_.span_id, parent_span_, start,
                           std::max<std::int64_t>(0, trace::rel_ns(t1) - start),
                           name_);
}

}  // namespace starring::obs

namespace starring::obs::trace {

bool write_chrome_trace(std::ostream& os) {
  const std::vector<SpanRecord> records = collect();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : records) {
    if (!first) os << ",";
    first = false;
    const std::string_view name = r.name;
    const std::string_view cat = name.substr(0, name.find('.'));
    os << "\n{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
       << json_escape(cat) << "\",\"ph\":\"X\",\"ts\":"
       << json_number(static_cast<double>(r.start_ns) / 1000.0)
       << ",\"dur\":" << json_number(static_cast<double>(r.dur_ns) / 1000.0)
       << ",\"pid\":1,\"tid\":" << r.tid << ",\"args\":{\"trace\":"
       << r.trace_id << ",\"span\":" << r.span_id << ",\"parent\":"
       << r.parent_id << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  return write_chrome_trace(os);
}

}  // namespace starring::obs::trace
