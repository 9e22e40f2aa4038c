#include "obs/bench_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

#ifndef STARRING_GIT_REV
#define STARRING_GIT_REV "unknown"
#endif

namespace starring::obs {

std::string git_rev() { return STARRING_GIT_REV; }

std::string bench_artifact_json(const BenchArtifact& a) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + json_escape(a.bench) + "\",\n";
  out += "  \"n\": " + std::to_string(a.n) + ",\n";
  out += "  \"faults\": " + std::to_string(a.faults) + ",\n";
  out += "  \"wall_ms\": " + json_number(a.wall_ms) + ",\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(a.counters[i].first) +
           "\": " + json_number(a.counters[i].second);
  }
  out += a.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"git_rev\": \"" + json_escape(a.git_rev) + "\"\n";
  out += "}\n";
  return out;
}

bool validate_bench_artifact_json(std::string_view json, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const auto doc = json_parse(json, error);
  if (!doc) return false;
  if (!doc->is_object()) return fail("artifact is not a JSON object");
  const struct {
    const char* key;
    JsonValue::Kind kind;
  } required[] = {
      {"bench", JsonValue::Kind::kString},
      {"n", JsonValue::Kind::kNumber},
      {"faults", JsonValue::Kind::kNumber},
      {"wall_ms", JsonValue::Kind::kNumber},
      {"counters", JsonValue::Kind::kObject},
      {"git_rev", JsonValue::Kind::kString},
  };
  for (const auto& req : required) {
    const JsonValue* v = doc->find(req.key);
    if (v == nullptr) return fail(std::string("missing key: ") + req.key);
    if (v->kind != req.kind)
      return fail(std::string("wrong type for key: ") + req.key);
  }
  for (const auto& [name, v] : doc->find("counters")->object)
    if (!v.is_number())
      return fail("non-numeric counter: " + name);
  if (doc->find("bench")->string.empty()) return fail("empty bench name");
  return true;
}

bool write_bench_artifact(const BenchArtifact& a, const std::string& dir,
                          std::string* path_out) {
  const std::string path =
      (dir.empty() ? std::string(".") : dir) + "/BENCH_" + a.bench + ".json";
  if (path_out != nullptr) *path_out = path;
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << bench_artifact_json(a);
  return static_cast<bool>(os);
}

BenchRecorder::BenchRecorder(std::string bench)
    : bench_(std::move(bench)), t0_(std::chrono::steady_clock::now()) {
  const char* dir = std::getenv("STARRING_BENCH_DIR");
  dir_ = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  path_ = dir_ + "/BENCH_" + bench_ + ".json";
  set_enabled(true);
}

void BenchRecorder::note_n(std::int64_t n) { n_ = std::max(n_, n); }

void BenchRecorder::note_faults(std::int64_t faults) {
  faults_ = std::max(faults_, faults);
}

void BenchRecorder::add_counter(const std::string& name, double value) {
  extra_.emplace_back(name, value);
}

void BenchRecorder::add_hit_rate(const std::string& area) {
  const auto hits = static_cast<double>(counter(area + ".cache_hits").value());
  const auto misses =
      static_cast<double>(counter(area + ".cache_misses").value());
  add_counter(area + ".cache_hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

BenchRecorder::~BenchRecorder() {
  BenchArtifact a;
  a.bench = bench_;
  a.git_rev = git_rev();
  a.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0_)
                  .count();
  a.n = n_;
  a.faults = faults_;
  for (const auto& [name, value] : snapshot()) {
    if (name == "embed.max_n") a.n = std::max(a.n, value);
    if (name == "embed.max_faults") a.faults = std::max(a.faults, value);
    a.counters.emplace_back(name, static_cast<double>(value));
  }
  a.counters.insert(a.counters.end(), extra_.begin(), extra_.end());
  std::string path;
  if (!write_bench_artifact(a, dir_, &path))
    std::fprintf(stderr, "obs: failed to write %s\n", path.c_str());
  else
    std::fprintf(stderr, "obs: wrote %s\n", path.c_str());
}

}  // namespace starring::obs
