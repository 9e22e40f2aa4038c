// obs::Scope, the one RAII instrument: a named scope that feeds both
// obs sinks, each under its own runtime switch.
//
//   const obs::Scope scope("chain_emit");
//
//   * Metrics on (obs::enabled()): the enclosed wall time (steady
//     clock) is added to the counter phase.<name>_ns, with every '.' of
//     the name written '_' (svc.batch -> phase.svc_batch_ns).  The
//     counter is interned on first use; see obs::phase_counter.
//   * Tracing on (obs::trace::enabled()): the scope is the span `name`
//     (at most 24 characters are kept), a child of the thread's current
//     context or of an explicit parent, and the thread's current
//     context for its extent, so nested scopes chain automatically.
//
// Each switch is read once, at entry.  With both off the constructor is
// one relaxed load and a branch per switch, the clock is never read and
// the destructor records nothing.  Intervals that no single scope
// witnesses (queue wait, failover markers) use obs::trace::emit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace starring::obs {

class Scope {
 public:
  explicit Scope(std::string_view name) : Scope(name, nullptr) {}
  /// A scope whose span adopts `parent` (a wire or cross-thread
  /// context) instead of the thread's current one; an invalid parent
  /// roots a fresh trace.
  Scope(std::string_view name, trace::Context parent) : Scope(name, &parent) {}
  ~Scope() {
    if (phase_ == nullptr && !armed_) return;
    const auto t1 = std::chrono::steady_clock::now();
    if (armed_) end_span(t1);
    if (phase_ != nullptr)
      phase_->add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_)
              .count());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This scope's span context, handed to other threads or the wire as
  /// their parent.  Invalid when tracing was off at construction.
  trace::Context context() const { return armed_ ? ctx_ : trace::Context{}; }

 private:
  /// `parent` null: the thread's current context, read only when
  /// tracing is on.
  Scope(std::string_view name, const trace::Context* parent) {
    if (enabled()) phase_ = &phase_counter(name);
    if (trace::enabled())
      begin_span(name, parent != nullptr ? *parent : trace::current());
    if (phase_ != nullptr || armed_) t0_ = std::chrono::steady_clock::now();
  }
  void begin_span(std::string_view name, trace::Context parent);
  void end_span(std::chrono::steady_clock::time_point t1);

  Counter* phase_ = nullptr;
  bool armed_ = false;  // a span is open
  trace::Context ctx_{};
  trace::Context prev_{};  // thread-current context to restore
  std::uint64_t parent_span_ = 0;
  char name_[25] = {};  // span name capacity (24) + NUL
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace starring::obs
