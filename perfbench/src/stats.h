#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// Sample statistics used by every workload: percentiles that are only
/// reported when the sample supports them, per-kind medians, and the
/// fixed-rate ladder search behind `serve.max_qps`.

#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double MsSince(Clock::time_point t0) { return Ms(Clock::now() - t0); }

/// Fewest samples that must lie above a reported percentile.
inline constexpr size_t kMinBeyond = 10;

/// Linear-interpolated percentile, q in [0, 1], of \p samples (any order).
/// Empty input yields 0.
double Percentile(std::vector<double> samples, double q);

/// Samples that lie above the q-th percentile: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The q-th percentile, or nullopt when fewer than kMinBeyond samples lie
/// above it.
std::optional<double> HonestPercentile(const std::vector<double>& samples,
                                       double q);

/// The highest of p99/p95/p90/p75/p50 that HonestPercentile supports.
struct Tail {
  double q = 0;
  double value = 0;
};
std::optional<Tail> HighestHonestTail(const std::vector<double>& samples);

double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);
/// Geometric mean of positive values (non-positive values are skipped).
double GeoMean(const std::vector<double>& values);

/// Latency samples grouped by query kind (LQ1, DQ5-like template, ...).
using KindSamples = std::map<std::string, std::vector<double>>;

/// Geometric mean over kinds of each kind's median: every kind weighs the
/// same however many samples it has, and the figure stays steady on a
/// multi-modal mix where a pooled median would jump between kinds.
double GeoMeanOfKindMedians(const KindSamples& by_kind);

/// One step of a fixed-rate ladder: the offered rate, the latency at the
/// limit percentile, and whether the step kept up (its backlog drained
/// within the limit and every request succeeded).
struct RateStep {
  double rate = 0;
  double tail_ms = 0;
  bool kept_up = false;
};

/// The highest offered rate that met \p tail_limit_ms and kept up, such
/// that every lower step met it too. 0 when the lowest step failed.
double MaxPassingRate(std::vector<RateStep> steps, double tail_limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
