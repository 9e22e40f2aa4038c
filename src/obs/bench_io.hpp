// BENCH_*.json artifact support.
//
// Every bench binary records one machine-readable artifact so the
// performance trajectory of the repo is a set of files a script can
// diff, not a pile of stdout tables.  Schema (all keys always present):
//
//   {
//     "bench":    "<name>",              // e.g. "theorem1"
//     "n":        <int>,                 // largest star-graph dimension run
//     "faults":   <int>,                 // largest fault count run
//     "wall_ms":  <double>,             // whole-process bench wall time
//     "counters": { "<name>": <number>, ... },  // obs counter values
//     "git_rev":  "<short-rev|unknown>"
//   }
//
// Extra keys may appear in future versions; readers must ignore them.
// The file is written to $STARRING_BENCH_DIR (default: the working
// directory) as BENCH_<name>.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace starring::obs {

/// Short git revision baked in at configure time ("unknown" outside a
/// git checkout).
std::string git_rev();

struct BenchArtifact {
  std::string bench;
  std::int64_t n = 0;
  std::int64_t faults = 0;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  std::string git_rev;
};

/// Serialize to the schema above.
std::string bench_artifact_json(const BenchArtifact& a);

/// Check that `json` parses and satisfies the schema (key presence and
/// types).  The test suite runs this over freshly written artifacts.
bool validate_bench_artifact_json(std::string_view json,
                                  std::string* error = nullptr);

/// Write dir/BENCH_<bench>.json; returns false on I/O failure.
bool write_bench_artifact(const BenchArtifact& a, const std::string& dir,
                          std::string* path_out = nullptr);

/// RAII artifact recorder for bench mains.  Construction enables the
/// metrics layer; destruction merges the obs counter snapshot, the
/// whole-process wall time, and the recorded n / fault extents into a
/// BenchArtifact and writes it.  The pipeline publishes
/// "embed.max_n" / "embed.max_faults" gauges itself, so benches that
/// drive the embedder need no explicit note_* calls.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string bench);
  ~BenchRecorder();
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  /// Record the largest dimension / fault count this bench exercises
  /// (kept as a running max).
  void note_n(std::int64_t n);
  void note_faults(std::int64_t faults);

  /// Attach an extra scalar to the artifact's counters map.
  void add_counter(const std::string& name, double value);

  /// Attach `<area>.cache_hit_rate`, derived from the `<area>.cache_hits`
  /// and `<area>.cache_misses` counters (0 before any lookup) — the
  /// serving daemons' headline cache figure.
  void add_hit_rate(const std::string& area);

  /// Where the artifact will land.
  const std::string& path() const { return path_; }

 private:
  std::string bench_;
  std::string dir_;
  std::string path_;
  std::int64_t n_ = 0;
  std::int64_t faults_ = 0;
  std::vector<std::pair<std::string, double>> extra_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace starring::obs
