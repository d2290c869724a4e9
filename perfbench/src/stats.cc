#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double q) {
  const auto at = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

std::optional<double> HonestPercentile(const std::vector<double>& samples,
                                       double q) {
  if (SamplesBeyond(samples.size(), q) < kMinBeyond) return std::nullopt;
  return Percentile(samples, q);
}

std::optional<Tail> HighestHonestTail(const std::vector<double>& samples) {
  for (double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (auto v = HonestPercentile(samples, q)) return Tail{q, *v};
  }
  return std::nullopt;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  size_t n = 0;
  for (double v : values) {
    if (v <= 0) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

double GeoMeanOfKindMedians(const KindSamples& by_kind) {
  std::vector<double> medians;
  for (const auto& [kind, samples] : by_kind) {
    if (!samples.empty()) medians.push_back(Median(samples));
  }
  return GeoMean(medians);
}

double MaxPassingRate(std::vector<RateStep> steps, double tail_limit_ms) {
  std::sort(steps.begin(), steps.end(),
            [](const RateStep& a, const RateStep& b) { return a.rate < b.rate; });
  double best = 0;
  for (const auto& s : steps) {
    if (!s.kept_up || s.tail_ms > tail_limit_ms) break;
    best = s.rate;
  }
  return best;
}

}  // namespace perfbench
