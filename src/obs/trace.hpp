// Request-scoped tracing and flight recorder.
//
// Where obs/metrics.hpp answers "how much, in aggregate", this layer
// answers "where did THIS request spend its time": lightweight spans
// with trace/span ids and parent links, recorded on completion into a
// fixed-capacity per-thread ring buffer (a "flight recorder") that
// overwrites its oldest entries instead of growing — a live starringd
// always holds the last N spans per thread, ready to dump.
//
// Design constraints, in order (matching the metrics layer):
//   1. Disabled cost ~ zero.  The runtime switch is OFF by default
//      (STARRING_TRACE=1 flips it at startup); a span op behind it is
//      one relaxed atomic load and a branch.
//   2. Lock-free recording.  Each thread owns its ring; a span write is
//      a handful of relaxed atomic stores plus two sequence-word
//      updates (a per-cell seqlock), never a mutex.  Drains from other
//      threads validate the sequence word and drop the (rare) cell
//      caught mid-overwrite rather than block the writer.
//   3. No dependencies beyond the standard library.
//
// Span model:
//   * A Context is (trace_id, span_id).  Every span belongs to one
//     trace (one service request, one batch, one bench iteration) and
//     has at most one parent span.
//   * obs::Scope (obs/scope.hpp) opens a span as a child of the
//     thread's current context and installs itself as current, so
//     nested scopes chain automatically; destruction records the
//     completed span.
//   * ContextGuard installs an explicit context (cross-thread
//     propagation: the thread pool adopts the submitting thread's
//     context for every worker of a region; the service adopts the
//     per-request root inside batch stages).
//   * emit() records a span with explicit timestamps for intervals
//     that no single scope witnesses (queue wait: admitted on the
//     caller thread, drained on the scheduler thread).
//
// Exporter: write_chrome_trace() renders every surviving record as a
// Chrome/Perfetto trace_event "X" (complete) event — load the file in
// chrome://tracing or ui.perfetto.dev.  Timestamps are microseconds
// relative to a process-start epoch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace starring::obs::trace {

/// Identity of an in-progress span: the trace it belongs to and its own
/// span id (the id children use as their parent link).  trace_id 0
/// means "no active trace" — the invalid/empty context.
struct Context {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// A completed span as drained from the flight recorder.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root of its trace
  std::int64_t start_ns = 0;    // relative to the process trace epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  // small per-thread index, stable per ring
  std::string name;
};

/// Recorder totals (monotonic since process start).
struct RecorderStats {
  std::uint64_t recorded = 0;  // spans written into some ring
  std::uint64_t dropped = 0;   // spans overwritten before a drain saw them
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime switch.  Defaults to off unless the environment sets
/// STARRING_TRACE=1; starringd flips it on under --trace-out.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Per-thread ring capacity in spans (power of two).  Fixed for the
/// process lifetime; STARRING_TRACE_BUFFER overrides the default 4096
/// at startup.
std::size_t ring_capacity();

/// The calling thread's current span context (invalid when no span is
/// open on this thread).
Context current();

/// Fresh ids.  A trace id identifies one logical request end-to-end;
/// span ids are unique across all traces of the process.
std::uint64_t new_trace_id();
std::uint64_t new_span_id();

/// Seed the id generators at (ns << 48) + 1 so ids minted by different
/// processes of one cluster never collide in a merged trace file (shard
/// k uses namespace k+1, the proxy keeps the default 0).  Call once at
/// startup, before any span is recorded.
void set_id_namespace(std::uint32_t ns);

/// The process trace epoch (the zero point of SpanRecord::start_ns) as
/// raw steady-clock nanoseconds.  On Linux the steady clock is
/// CLOCK_MONOTONIC, which all processes of one boot share, so a merger
/// can rebase per-process spans onto a common timeline by offsetting
/// each dump by (its epoch_ns - min epoch_ns across dumps).
std::uint64_t epoch_ns();

/// Record a completed span with explicit endpoints — for intervals
/// measured across threads (queue wait) or reconstructed after the
/// fact (the per-request root).  No-op while disabled; a t1 before t0
/// records a zero-length span.
void emit(std::string_view name, std::uint64_t trace_id,
          std::uint64_t span_id, std::uint64_t parent_id,
          std::chrono::steady_clock::time_point t0,
          std::chrono::steady_clock::time_point t1);

/// Install `ctx` as the calling thread's current context for one scope
/// (restores the previous context on destruction).  Used by the thread
/// pool to propagate the submitting thread's context into workers and
/// by the service to parent per-request work inside a batch.
class ContextGuard {
 public:
  explicit ContextGuard(Context ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Context prev_;
};

/// Copy every stable record out of every thread's ring, sorted by
/// start time.  Cells caught mid-overwrite are skipped.  Safe to call
/// concurrently with recording.
std::vector<SpanRecord> collect();

/// Reset every ring and the id generators (test isolation; not safe
/// against concurrent recording, like obs::reset()).
void clear();

RecorderStats stats();

/// Render the flight recorder as Chrome trace_event JSON ("X" events,
/// microsecond timestamps).  Always writes a well-formed document —
/// empty when tracing is disabled.  Returns false on
/// stream failure.
bool write_chrome_trace(std::ostream& os);

/// write_chrome_trace to `path` (truncating).  Returns false on I/O
/// failure.
bool write_chrome_trace_file(const std::string& path);

}  // namespace starring::obs::trace
