#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

namespace perfbench {

using scisparql::Result;
using scisparql::Status;

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lo + hi) / 2;
}

std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     size_t min_beyond) {
  if (samples.empty() || q <= 0 || q >= 1) return std::nullopt;
  size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.value);
  return out;
}

std::optional<double> WindowedPercentile(std::vector<Sample> samples,
                                         double q, size_t window) {
  if (window == 0 || samples.size() < window) return std::nullopt;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.done_ns < b.done_ns;
                   });
  const size_t n = samples.size();
  const size_t windows = n / window;
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    // Boundaries at w*n/windows spread the remainder over the windows.
    std::vector<Sample> part(samples.begin() + static_cast<long>(w * n / windows),
                             samples.begin() +
                                 static_cast<long>((w + 1) * n / windows));
    std::optional<double> t = TailPercentile(Values(part), q);
    if (!t.has_value()) return std::nullopt;
    tails.push_back(*t);
  }
  return Median(std::move(tails));
}

std::optional<double> WindowedRate(const std::vector<int64_t>& done_ns,
                                   int64_t start_ns, int64_t end_ns,
                                   int64_t window_ns) {
  if (window_ns <= 0 || end_ns - start_ns < window_ns) return std::nullopt;
  struct Window {
    uint64_t k = 0;
    int64_t first = 0;
    int64_t last = 0;
  };
  std::vector<Window> windows(
      static_cast<size_t>((end_ns - start_ns) / window_ns));
  for (int64_t t : done_ns) {
    if (t < start_ns) continue;
    size_t w = static_cast<size_t>((t - start_ns) / window_ns);
    if (w >= windows.size()) continue;
    Window& win = windows[w];
    win.first = win.k == 0 ? t : std::min(win.first, t);
    win.last = win.k == 0 ? t : std::max(win.last, t);
    ++win.k;
  }
  std::vector<double> rates;
  for (const Window& w : windows) {
    if (w.k < 2 || w.last == w.first) return std::nullopt;
    rates.push_back(static_cast<double>(w.k - 1) * 1e9 /
                    static_cast<double>(w.last - w.first));
  }
  return Median(std::move(rates));
}

std::optional<double> HistogramQuantile(
    const std::array<uint64_t, scisparql::obs::Histogram::kBuckets>& counts,
    double q) {
  const auto& bounds = scisparql::obs::Histogram::kBounds;
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return std::nullopt;
  double target = q * static_cast<double>(total);
  uint64_t below = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(below + counts[b]) >= target) {
      if (b == bounds.size()) return static_cast<double>(bounds.back());
      double lo = b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
      double hi = static_cast<double>(bounds[b]);
      double frac = (target - static_cast<double>(below)) /
                    static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    below += counts[b];
  }
  return static_cast<double>(bounds.back());
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

bool AllOf(std::string_view s, std::string_view extra) {
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return IsAlnum(c) || extra.find(c) != std::string_view::npos;
  });
}

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  return !name.empty() && name.size() <= 64 && IsAlnum(name[0]) &&
         AllOf(name, "_.-");
}

bool ValidUnit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

Result<std::string> RenderResult(bool correct, uint64_t attempted,
                                 uint64_t failed,
                                 const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!ValidMetricName(m.name)) {
      return Status::InvalidArgument("bad metric name: " + m.name);
    }
    if (!seen.insert(m.name).second) {
      return Status::InvalidArgument("duplicate metric: " + m.name);
    }
    if (!ValidUnit(m.unit)) {
      return Status::InvalidArgument("bad unit for " + m.name + ": " + m.unit);
    }
    if (!std::isfinite(m.value)) {
      return Status::InvalidArgument("non-finite value for " + m.name);
    }
    if (!first) out += ", ";
    first = false;
    // Names and units are restricted to characters that need no escaping.
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
