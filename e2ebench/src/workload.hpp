// Deterministic, socket-free pieces of the end-to-end benchmark: the
// seeded request generator and arrival schedule (over loadgen's
// ZipfSampler and ArrivalClock), percentile and bisection arithmetic, the
// /proc readers, and the JSON writer.  Everything here is a pure function
// of its arguments so the benchmark's own tests can check it without a
// daemon.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "loadgen/loadgen.hpp"
#include "util/io.hpp"

namespace e2e {

// --- randomness ---------------------------------------------------------

/// splitmix64: small, fast, and identical on every platform, so a seed
/// names the same request stream everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t s_;
};

/// Mix several words into one seed (order matters).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);

starring::Perm random_perm(Rng& rng, int n);

/// `count` distinct faulty vertices of S_n.
starring::FaultSet random_vertex_faults(Rng& rng, int n, int count);

/// Add one faulty edge of S_n touching no faulty vertex.
void add_random_edge_fault(Rng& rng, int n, starring::FaultSet& faults);

// --- the request mix ----------------------------------------------------

/// A traffic mix.  A *class* is a fault pattern up to relabeling: every
/// request of a class is a fresh random relabeling of the class's fault
/// set, so it canonicalizes to the same cache key while its ring (in
/// the caller's frame) differs from every other request's.
struct Mix {
  int nmin = 5;
  int nmax = 7;
  /// Requests of the largest n per request of each smaller n.
  int nmax_weight = 1;
  /// Cacheable classes per dimension, drawn zipf(zipf_s); 0 = none.
  std::size_t classes_per_n = 32;
  /// 0 draws the classes uniformly.
  double zipf_s = 1.1;
  /// Share of requests that are a brand-new fault set (the cache scan).
  /// S_5 has only ~60 two-fault classes, so an n=5 scan may repeat one.
  double scan_frac = 0.2;
  /// Share of requests with one edge fault (and one vertex fault fewer,
  /// keeping |Fv| + |Fe| = n - 3, the paper's guarantee regime).
  double edge_frac = 0.1;
  double verify_frac = 0.1;
  /// Share of requests whose ring the client re-verifies after the run
  /// (the first request of every class is always re-verified).
  double check_frac = 0.25;
};

struct Generated {
  starring::ServiceRequest req;
  /// n! - 2|Fv|, Theorem 1's ring length.
  std::uint64_t expect_len = 0;
  /// Stable class identity (dimension, class index, edge variant);
  /// scans get a unique id each.
  std::uint64_t class_id = 0;
  /// Keep the ring for the independent verifier after the run.
  bool check_ring = false;
};

/// The seeded request stream of one workload phase.  The same (mix,
/// seed, tag) always yields the same requests in the same order; ids
/// start at first_id.
class RequestStream {
 public:
  RequestStream(const Mix& mix, std::uint64_t seed, std::uint64_t tag,
                std::uint64_t first_id = 1);
  Generated next();

  /// The fault set of class `c` (vertex-only or edge variant) at n.
  static starring::FaultSet class_faults(std::uint64_t seed, int n,
                                         std::size_t c, bool edge);

 private:
  Mix mix_;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t next_id_;
  std::uint64_t scans_ = 0;
  std::uint64_t verify_phase_ = 0;
  std::array<std::uint64_t, 16> per_n_count_{};
  std::vector<int> n_block_;
  starring::loadgen::ZipfSampler zipf_;
  std::vector<std::uint64_t> seen_classes_;
};

/// embed-cold's stream: fresh fault sets, every fourth at n=10 (|Fv|=7)
/// and the rest at n=9 (|Fv|=6).
struct ColdInstance {
  int n = 0;
  starring::FaultSet faults;
};
ColdInstance cold_instance(std::uint64_t seed, std::uint64_t index);

/// Wire bytes of a request (write_request), for the determinism test
/// and for pre-serializing a phase before its timed window.
std::string wire_bytes(const starring::ServiceRequest& req);

// --- arrival schedule ----------------------------------------------------

/// round(rate * secs) Poisson arrival offsets (seconds, increasing, in
/// [0, secs)): the first arrivals of a loadgen::ArrivalClock, scaled so
/// that the next one would land at `secs`.  Given their count, Poisson
/// arrivals in a window are uniform order statistics, which is what the
/// scaling yields; a phase then offers exactly its rate instead of a
/// draw around it (±10%, one standard deviation, in a two-second probe
/// at 55 req/s).
std::vector<double> poisson_arrivals(double rate, double secs, std::uint64_t seed);

// --- statistics ------------------------------------------------------------

/// Linear-interpolation percentile (q in [0,1]) of unsorted samples;
/// 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// The median, over `blocks` contiguous slices of [0, count) of nearly
/// equal size, of `stat(begin, end)` taken on each slice.  Run-ordered
/// samples summarized this way ignore a slow stretch of the run (another
/// guest's burst on a shared host) as long as it covers fewer than half
/// of the slices, where a percentile over all samples moves with it.
template <class Stat>
double block_median(std::size_t count, std::size_t blocks, Stat&& stat) {
  blocks = std::max<std::size_t>(1, std::min(blocks, count));
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b)
    per_block.push_back(stat(count * b / blocks, count * (b + 1) / blocks));
  return percentile(std::move(per_block), 0.5);
}

/// Geometric bisection over offered rate: a fixed number of probes
/// between lo (assumed to pass) and hi (assumed to fail); each probe
/// halves the log-range, so after k probes hi/lo = (hi0/lo0)^(2^-k).
class RateBisection {
 public:
  RateBisection(double lo, double hi) : lo_(lo), hi_(hi) {}
  double next_rate() const;
  void record(bool pass);
  /// The highest rate known to pass.
  double result() const { return lo_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

/// Probes the bisection needs so that hi/lo ends below `resolution`.
int probes_for_resolution(double lo, double hi, double resolution);

// --- /proc readers ----------------------------------------------------------

struct ProcSample {
  double utime_s = 0;
  double stime_s = 0;
  std::uint64_t syscw = 0;
  std::uint64_t vm_hwm_kb = 0;
};

/// Parsers over the file contents (testable on fixed text).  nullopt on
/// text that does not have the expected shape.
std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_proc_stat_times(
    const std::string& stat_text);  // (utime, stime) in clock ticks
std::optional<std::uint64_t> parse_proc_field(const std::string& text,
                                              const std::string& key);

/// Read /proc/<pid>/{stat,io,status}; nullopt once the process is gone.
std::optional<ProcSample> read_proc(pid_t pid);

/// after - before, field by field (peak RSS is taken from `after`).
ProcSample proc_delta(const ProcSample& before, const ProcSample& after);

// --- output -----------------------------------------------------------------

/// A flat JSON object writer (string keys; numbers, strings, nested
/// raw JSON), enough for the result line and the report line.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_quote(const std::string& s);

}  // namespace e2e
