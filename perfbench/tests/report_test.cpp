// Self-test of the benchmark's reporting rules: the tail-percentile rule,
// the windowed percentile and rate, the metric-name and unit charsets, and
// the JSON result line.

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "report.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  // 1000 samples: nearest rank 990, ten samples (991..1000) beyond it.
  auto p99 = TailPercentile(Iota(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  // 999 samples leave only nine beyond the 99th percentile.
  EXPECT_FALSE(TailPercentile(Iota(999), 0.99).has_value());
  // The median of a small sample is fine.
  EXPECT_EQ(TailPercentile(Iota(21), 0.5), 11.0);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(TailPercentile, OrderIndependent) {
  std::vector<double> v = Iota(2000);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(TailPercentile(v, 0.99), TailPercentile(reversed, 0.99));
  EXPECT_EQ(*TailPercentile(v, 0.99), 1980.0);
}

std::vector<Sample> Timed(const std::vector<double>& values) {
  std::vector<Sample> out;
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back({static_cast<int64_t>(i), values[i]});
  }
  return out;
}

TEST(WindowedPercentile, MedianOverWindows) {
  // Three windows of 1000 samples, each 1..1000: every window's p99 is 990.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (double x : Iota(1000)) v.push_back(x);
  }
  EXPECT_EQ(WindowedPercentile(Timed(v), 0.99, 1000), 990.0);
  // A burst of 30 slow samples inside one window moves only that window.
  for (int i = 0; i < 30; ++i) v[static_cast<size_t>(1200 + i)] = 1e6;
  EXPECT_EQ(WindowedPercentile(Timed(v), 0.99, 1000), 990.0);
  EXPECT_GT(*TailPercentile(v, 0.99), 990.0);
}

TEST(WindowedPercentile, OrdersByCompletionAndNeedsAFullWindow) {
  EXPECT_FALSE(WindowedPercentile(Timed(Iota(999)), 0.99, 1000));
  // 2500 samples form two windows of 1250; completion order, not input
  // order, decides which samples share a window.
  std::vector<Sample> s = Timed(Iota(2500));
  std::reverse(s.begin(), s.end());
  auto p = WindowedPercentile(s, 0.99, 1000);
  ASSERT_TRUE(p.has_value());
  // Windows hold 1..1250 and 1251..2500; their p99s are 1238 and 2488.
  EXPECT_EQ(*p, (1238.0 + 2488.0) / 2);
  // A window too small for ten samples beyond its percentile fails.
  EXPECT_FALSE(WindowedPercentile(Timed(Iota(500)), 0.99, 500));
}

TEST(WindowedPercentile, MedianOfWindowMedians) {
  // Windows 1..1000 and 1001..2000: nearest-rank medians 500 and 1500.
  EXPECT_EQ(WindowedPercentile(Timed(Iota(2000)), 0.5, 1000), 1000.0);
}

TEST(WindowedRate, MedianOverWholeWindows) {
  const int64_t s = 1'000'000'000;  // one second in ns
  // Completions every 10, 2 and 5 ms in seconds 0, 1 and 2 of the window
  // grid that starts at 1 s; a faster partial window [3 s, 3.5 s) that is
  // dropped; and some before the start.
  std::vector<int64_t> done;
  auto every = [&](int64_t from, int64_t step_ms) {
    for (int64_t t = from; t < from + s; t += step_ms * 1'000'000) {
      done.push_back(t);
    }
  };
  every(s, 10);
  every(2 * s, 2);
  every(3 * s, 5);
  every(4 * s, 1);
  every(0, 1);
  auto rate = WindowedRate(done, s, 4 * s + s / 2, s);
  ASSERT_TRUE(rate.has_value());
  EXPECT_DOUBLE_EQ(*rate, 200.0);
  // The rate is not rounded to whole completions per window.
  EXPECT_DOUBLE_EQ(*WindowedRate({s, s + 3 * s / 10, s + 7 * s / 10}, s,
                                 2 * s, s),
                   2 / 0.7);
  // Too short, or a window with fewer than two completions.
  EXPECT_FALSE(WindowedRate(done, s, s + s / 2, s).has_value());
  EXPECT_FALSE(WindowedRate({s}, s, 2 * s, s).has_value());
}

TEST(HistogramQuantile, InterpolatesInsideBucket) {
  std::array<uint64_t, scisparql::obs::Histogram::kBuckets> counts{};
  EXPECT_FALSE(HistogramQuantile(counts, 0.5).has_value());
  counts[1] = 100;  // all samples in (10, 100] us
  EXPECT_DOUBLE_EQ(*HistogramQuantile(counts, 0.5), 55.0);
  EXPECT_DOUBLE_EQ(*HistogramQuantile(counts, 1.0), 100.0);
  counts.back() = 1000;  // overflow bucket reports the last finite bound
  EXPECT_DOUBLE_EQ(*HistogramQuantile(counts, 0.99),
                   static_cast<double>(
                       scisparql::obs::Histogram::kBounds.back()));
}

TEST(Names, MetricCharset) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("storage.wal_fsyncs_per_commit"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Names, UnitCharset) {
  EXPECT_TRUE(ValidUnit("ms"));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("B/triple"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("m s"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'u')));
}

TEST(RenderResult, ExactShape) {
  auto line = RenderResult(true, 1000, 0,
                           {{"latency_ms", 1.2034, "ms"},
                            {"setup_s", 0.8127, "s"}});
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
}

TEST(RenderResult, KeepsEveryDigit) {
  auto line = RenderResult(false, 3, 1, {{"x", 0.1 + 0.2, "s"}});
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"value\": 0.30000000000000004"), std::string::npos);
  EXPECT_NE(line->find("\"correct\": false"), std::string::npos);
}

TEST(RenderResult, RejectsBadInput) {
  EXPECT_FALSE(RenderResult(true, 1, 0, {{"bad name", 1, "s"}}).ok());
  EXPECT_FALSE(RenderResult(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}).ok());
  EXPECT_FALSE(RenderResult(true, 1, 0, {{"a", 1, "bad unit"}}).ok());
  EXPECT_FALSE(
      RenderResult(true, 1, 0,
                   {{"a", std::numeric_limits<double>::quiet_NaN(), "s"}})
          .ok());
  EXPECT_FALSE(
      RenderResult(true, 1, 0,
                   {{"a", std::numeric_limits<double>::infinity(), "s"}})
          .ok());
}

}  // namespace
}  // namespace perfbench
