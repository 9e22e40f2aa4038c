#include "obs/metrics.hpp"

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

namespace starring::obs {

namespace detail {

namespace {
bool env_enabled() {
  const char* v = std::getenv("STARRING_METRICS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

struct Registry {
  std::mutex mu;
  // std::map: stable iteration order for snapshot(); unique_ptr keeps
  // Counter addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
};

Registry& registry() {
  // Leaked singleton: counters referenced from function-local statics
  // in other TUs must outlive every destructor.
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

namespace {

// Interned phase counters: an open-addressed table of leaked entries.
// A slot is written once, under g_phase_mu, and read lock-free after.
struct PhaseEntry {
  std::string name;  // the Scope name, before the phase.<>_ns rewrite
  Counter* counter;
};
constexpr std::size_t kPhaseSlots = 256;
std::atomic<const PhaseEntry*> g_phase_slots[kPhaseSlots];
std::mutex g_phase_mu;

std::string phase_counter_name(std::string_view name) {
  std::string out = "phase.";
  for (const char ch : name) out += ch == '.' ? '_' : ch;
  return out + "_ns";
}

}  // namespace

Counter& phase_counter(std::string_view name) {
  const std::size_t h = std::hash<std::string_view>{}(name);
  for (std::size_t i = 0; i < kPhaseSlots; ++i) {
    auto& slot = g_phase_slots[(h + i) % kPhaseSlots];
    const PhaseEntry* e = slot.load(std::memory_order_acquire);
    if (e == nullptr) {
      // First sight of `name` on this probe path: claim the slot under
      // the lock, unless another thread filled it meanwhile.
      const std::lock_guard<std::mutex> lock(g_phase_mu);
      e = slot.load(std::memory_order_relaxed);
      if (e == nullptr) {
        e = new PhaseEntry{std::string(name),
                           &counter(phase_counter_name(name))};
        slot.store(e, std::memory_order_release);
      }
    }
    if (e->name == name) return *e->counter;
  }
  return counter(phase_counter_name(name));  // table full
}

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot out;
  out.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    out.emplace_back(name, c->value());
  return out;
}

Snapshot snapshot_delta(const Snapshot& before) {
  const Snapshot now = snapshot();
  // The baseline is looked up by name, not merged positionally: an
  // earlier implementation walked `before` with a monotone cursor,
  // which silently mis-attributed values whenever the baseline was not
  // sorted exactly like the live registry — e.g. a filtered snapshot,
  // or a previous delta reused as the next baseline while counters kept
  // registering in between.  A map lookup is insensitive to baseline
  // order and trivially includes counters first registered after the
  // baseline (absent name -> prev 0).
  std::map<std::string_view, std::int64_t> prev_by_name;
  for (const auto& [name, value] : before) prev_by_name[name] = value;
  Snapshot out;
  for (const auto& [name, value] : now) {
    const auto it = prev_by_name.find(name);
    const std::int64_t prev = it == prev_by_name.end() ? 0 : it->second;
    if (value != prev) out.emplace_back(name, value - prev);
  }
  return out;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters)
    c->value_.store(0, std::memory_order_relaxed);
}

}  // namespace starring::obs
