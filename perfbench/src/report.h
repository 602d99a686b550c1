#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

/// One named measurement in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Median of `samples` (mean of the two middle values for even counts);
/// nullopt when empty.
std::optional<double> Median(std::vector<double> samples);

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`, reported only when at
/// least `min_beyond` samples lie strictly above its rank — the rule that a
/// tail percentile needs ten samples beyond it to mean anything. nullopt
/// otherwise (including an empty input).
std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     size_t min_beyond = 10);

/// One timed request: when it completed and how long it took.
struct Sample {
  int64_t done_ns = 0;
  double value = 0;
};

/// The values of `samples`, in the order given.
std::vector<double> Values(const std::vector<Sample>& samples);

/// Percentile robust to a burst of outside interference: `samples` are
/// split, in completion order, into consecutive windows of at least
/// `window` samples; the result is the median over windows of each
/// window's TailPercentile(q). nullopt when there are fewer than `window`
/// samples or a window has fewer than ten samples beyond its percentile.
std::optional<double> WindowedPercentile(std::vector<Sample> samples,
                                         double q, size_t window);

/// Completions per second, robust the same way: [start_ns, end_ns) is cut
/// into whole windows of `window_ns` (a partial last one is dropped). A
/// window's rate is (k - 1) / (last - first) over its k completions, which,
/// unlike k / window_ns, is not rounded to whole requests; the median over
/// windows is returned. nullopt when not even one window fits or a window
/// has fewer than two completions.
std::optional<double> WindowedRate(const std::vector<int64_t>& done_ns,
                                   int64_t start_ns, int64_t end_ns,
                                   int64_t window_ns);

/// `q`-quantile of a fixed-bucket obs::Histogram from per-bucket counts
/// (overflow bucket last), interpolated linearly inside the bucket the rank
/// falls in; the overflow bucket reports the last finite bound. nullopt
/// when every count is zero.
std::optional<double> HistogramQuantile(
    const std::array<uint64_t, scisparql::obs::Histogram::kBuckets>& counts,
    double q);

/// Metric names: 1-64 characters of letters, digits, '_', '.' and '-',
/// starting with a letter or a digit.
bool ValidMetricName(std::string_view name);

/// Units: 1-16 characters of letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(std::string_view unit);

/// The one-line JSON result object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
///    {"value": .., "unit": ..}, ...}}
/// Values keep every digit (shortest round-trip form). Fails on an invalid
/// or duplicate name, an invalid unit, or a non-finite value.
scisparql::Result<std::string> RenderResult(
    bool correct, uint64_t attempted, uint64_t failed,
    const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
