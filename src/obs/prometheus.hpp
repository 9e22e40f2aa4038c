// Prometheus text-exposition (version 0.0.4) rendering of the counter
// registry, plus a tiny parser for the rendered histograms so the CLI
// can compute quantiles from a STATS reply without a metrics library.
//
// Rendering rules:
//   * Every counter becomes `starring_<name>` with non-alphanumeric
//     characters mangled to '_' (svc.cache.hits ->
//     starring_svc_cache_hits), typed `counter` except for gauge-style
//     maxima (embed.max_n, *.threads, pool.workers), typed `gauge`.
//   * A LatencyHistogram family (<p>.le_100us .. <p>.gt_1s, <p>.count,
//     <p>.total_us — see obs/metrics.hpp) folds into one native
//     Prometheus histogram `starring_<p>_seconds` with cumulative
//     `_bucket{le="..."}` samples in seconds, `_sum`, and `_count`;
//     the member counters are dropped from the scalar section.
//
// Everything here is pure over a Snapshot: an empty snapshot renders a
// document with no samples (still grammatically valid).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace starring::obs {

/// Render `snap` as Prometheus text exposition.  Deterministic: families
/// appear in sorted-name order.
std::string render_prometheus(const Snapshot& snap);

/// render_prometheus(snapshot()) — the live registry.
std::string render_prometheus();

/// One parsed histogram family: cumulative (upper_bound_seconds, count)
/// pairs with the +Inf bucket last, plus _sum/_count.
struct HistogramSample {
  std::vector<std::pair<double, std::int64_t>> buckets;
  std::int64_t count = 0;
  double sum_seconds = 0.0;
};

/// Extract histogram `metric` (the full mangled family name, e.g.
/// "starring_svc_latency_seconds") from a text-exposition document.
/// Returns nullopt when the family is absent or has no +Inf bucket.
std::optional<HistogramSample> parse_histogram(std::string_view prom_text,
                                               std::string_view metric);

/// Prometheus-style histogram_quantile: linear interpolation inside the
/// bucket holding the q-th sample (q in [0,1]).  The +Inf bucket clamps
/// to the largest finite upper bound.  Returns 0 for an empty sample.
double histogram_quantile(const HistogramSample& h, double q);

}  // namespace starring::obs
