#include "workload.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perm/factorial.hpp"

namespace e2e {

using starring::FaultSet;
using starring::Perm;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(bound)) %
         bound;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng r(a);
  std::uint64_t h = r.next();
  r = Rng(h ^ b);
  h = r.next();
  r = Rng(h ^ c);
  return r.next();
}

Perm random_perm(Rng& rng, int n) {
  std::array<int, 16> sym{};
  for (int i = 0; i < n; ++i) sym[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(sym[static_cast<std::size_t>(i)],
              sym[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  return Perm::of(std::span<const int>(sym.data(), static_cast<std::size_t>(n)));
}

namespace {

std::vector<Perm> distinct_perms(Rng& rng, int n, int count) {
  std::vector<Perm> out;
  while (static_cast<int>(out.size()) < count) {
    const Perm p = random_perm(rng, n);
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

FaultSet faults_from(Rng& rng, int n, bool edge) {
  // |Fv| + |Fe| = n - 3 either way: the paper's guarantee regime, so
  // every request of the mix must succeed.
  const std::vector<Perm> vs = distinct_perms(rng, n, edge ? n - 4 : n - 3);
  FaultSet f;
  for (const Perm& p : vs) f.add_vertex(p);
  if (edge) add_random_edge_fault(rng, n, f);
  return f;
}

}  // namespace

FaultSet random_vertex_faults(Rng& rng, int n, int count) {
  FaultSet f;
  for (const Perm& p : distinct_perms(rng, n, count)) f.add_vertex(p);
  return f;
}

void add_random_edge_fault(Rng& rng, int n, FaultSet& faults) {
  while (true) {
    const Perm u = random_perm(rng, n);
    const Perm v =
        u.star_move(1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1))));
    if (faults.vertex_faulty(u) || faults.vertex_faulty(v) ||
        faults.edge_faulty(u, v))
      continue;
    faults.add_edge(u, v);
    return;
  }
}

RequestStream::RequestStream(const Mix& mix, std::uint64_t seed,
                             std::uint64_t tag, std::uint64_t first_id)
    : mix_(mix), seed_(seed), rng_(mix_seed(seed, tag, 0x5EED)),
      next_id_(first_id), zipf_(mix.classes_per_n, mix.zipf_s) {
  verify_phase_ = rng_.next();
}

FaultSet RequestStream::class_faults(std::uint64_t seed, int n, std::size_t c,
                                     bool edge) {
  Rng r(mix_seed(seed, static_cast<std::uint64_t>(n) * 1000003 + c,
                 edge ? 0xED6E : 0xC1A5));
  return faults_from(r, n, edge);
}

Generated RequestStream::next() {
  Generated g;
  g.req.id = next_id_++;
  const bool scan =
      mix_.classes_per_n == 0 || rng_.uniform() < mix_.scan_frac;
  const bool edge = rng_.uniform() < mix_.edge_frac;
  // Dimensions come in shuffled blocks holding each n once, so every
  // run has the same n shares.  Latency differs ~20x between n=6 and
  // n=7, and with independent draws the median hops between them.
  if (n_block_.empty()) {
    for (int d = mix_.nmin; d <= mix_.nmax; ++d)
      for (int w = 0; w < (d == mix_.nmax ? mix_.nmax_weight : 1); ++w) n_block_.push_back(d);
    for (std::size_t i = n_block_.size() - 1; i > 0; --i)
      std::swap(n_block_[i], n_block_[rng_.below(i + 1)]);
  }
  const int n = n_block_.back();
  n_block_.pop_back();
  FaultSet base;
  if (scan) {
    Rng r(mix_seed(seed_, 0x5CA9, scans_++));
    base = faults_from(r, n, edge);
    g.class_id = (std::uint64_t{1} << 63) | scans_;
  } else {
    const std::size_t cls = zipf_.sample(rng_.uniform());
    base = class_faults(seed_, n, cls, edge);
    g.class_id = (static_cast<std::uint64_t>(n) << 40) | (cls << 1) |
                 (edge ? 1u : 0u);
  }
  g.req.n = n;
  g.req.faults = base.relabeled(random_perm(rng_, n));
  // Every k-th request of each dimension is verify-flagged (k =
  // 1/verify_frac, seeded phase), so the verified sample holds the
  // mix's dimension shares exactly and its median does not hop between
  // dimensions from seed to seed.
  if (mix_.verify_frac > 0) {
    const auto stride = static_cast<std::uint64_t>(std::lround(1.0 / mix_.verify_frac));
    g.req.verify = (per_n_count_[static_cast<std::size_t>(n)]++ + verify_phase_) % stride == 0;
  }
  g.expect_len = starring::factorial(n) -
                 2 * static_cast<std::uint64_t>(g.req.faults.num_vertex_faults());
  const bool first = std::find(seen_classes_.begin(), seen_classes_.end(),
                               g.class_id) == seen_classes_.end();
  if (first) seen_classes_.push_back(g.class_id);
  g.check_ring = rng_.uniform() < mix_.check_frac || first;
  return g;
}

ColdInstance cold_instance(std::uint64_t seed, std::uint64_t index) {
  ColdInstance c;
  c.n = index % 4 == 3 ? 10 : 9;
  Rng r(mix_seed(seed, 0xC01D, index));
  c.faults = random_vertex_faults(r, c.n, c.n - 3);
  return c;
}

std::string wire_bytes(const starring::ServiceRequest& req) {
  std::ostringstream os;
  starring::write_request(os, req);
  return os.str();
}

std::vector<double> poisson_arrivals(double rate, double secs, std::uint64_t seed) {
  starring::loadgen::TenantSpec spec;
  spec.rate = rate;
  starring::loadgen::ArrivalClock clock(spec, seed);
  const auto count = static_cast<std::size_t>(std::max(0L, std::lround(rate * secs)));
  std::vector<double> out;
  for (std::size_t i = 0; i <= count; ++i)
    out.push_back(std::chrono::duration<double>(clock.next()).count());
  const double scale = secs / out.back();
  out.pop_back();
  for (double& t : out) t *= scale;
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double RateBisection::next_rate() const { return std::sqrt(lo_ * hi_); }

void RateBisection::record(bool pass) {
  const double mid = next_rate();
  (pass ? lo_ : hi_) = mid;
}

int probes_for_resolution(double lo, double hi, double resolution) {
  int k = 0;
  for (double ratio = hi / lo; ratio >= resolution; ratio = std::sqrt(ratio))
    ++k;
  return k;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_proc_stat_times(
    const std::string& stat_text) {
  // The command name (field 2) is parenthesized and may hold spaces;
  // fields after the last ')' start at field 3 (state).  utime and
  // stime are fields 14 and 15.
  const std::size_t close = stat_text.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream is(stat_text.substr(close + 1));
  std::string tok;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int field = 3; field <= 15; ++field) {
    if (!(is >> tok)) return std::nullopt;
    if (field == 14 || field == 15) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
      if (end == tok.c_str() || *end != '\0') return std::nullopt;
      (field == 14 ? utime : stime) = v;
    }
  }
  return std::make_pair(utime, stime);
}

std::optional<std::uint64_t> parse_proc_field(const std::string& text,
                                              const std::string& key) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() <= key.size() || line.compare(0, key.size(), key) != 0 ||
        line[key.size()] != ':')
      continue;
    const char* p = line.c_str() + key.size() + 1;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

namespace {

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

std::optional<ProcSample> read_proc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/";
  const auto stat = slurp(dir + "stat");
  const auto io = slurp(dir + "io");
  const auto status = slurp(dir + "status");
  if (!stat || !io || !status) return std::nullopt;
  const auto times = parse_proc_stat_times(*stat);
  const auto syscw = parse_proc_field(*io, "syscw");
  const auto hwm = parse_proc_field(*status, "VmHWM");
  if (!times || !syscw || !hwm) return std::nullopt;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  ProcSample s;
  s.utime_s = static_cast<double>(times->first) / tick;
  s.stime_s = static_cast<double>(times->second) / tick;
  s.syscw = *syscw;
  s.vm_hwm_kb = *hwm;
  return s;
}

ProcSample proc_delta(const ProcSample& before, const ProcSample& after) {
  ProcSample d;
  d.utime_s = after.utime_s - before.utime_s;
  d.stime_s = after.stime_s - before.stime_s;
  d.syscw = after.syscw - before.syscw;
  d.vm_hwm_kb = after.vm_hwm_kb;
  return d;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_quote(v));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace e2e
