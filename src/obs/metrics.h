#ifndef SCISPARQL_OBS_METRICS_H_
#define SCISPARQL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scisparql {
namespace obs {

/// Process-wide observability kill switch. All metric mutations check it
/// with one relaxed load, so a deployment that wants zero bookkeeping can
/// turn the whole layer off; the overhead benchmark compares against this
/// path to bound the cost of leaving it on.
bool Enabled();
void SetEnabled(bool on);

/// Number of atomic shards per metric. Writers pick a shard from a
/// thread-local index, so concurrent statements update disjoint cache
/// lines; readers merge all shards. 16 comfortably covers the scheduler's
/// default number of execution slots without making reads expensive.
constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards).
size_t ShardIndex();

namespace internal {
/// One cache line per shard so concurrent writers don't false-share.
struct alignas(64) Shard {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on a
/// per-thread shard. Value() merges the shards; it can race with writers,
/// so it is monotonic but only eventually exact — the right contract for
/// an exposition endpoint.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::Shard, kMetricShards> shards_;
};

/// Instantaneous value (queue depth, live connections). A gauge is
/// last-writer-wins for Set and sharded for Add/Sub; exposition reads the
/// signed sum.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (!Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(int64_t n) { Add(-n); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram over microseconds, with the classic
/// Prometheus cumulative-bucket exposition. Buckets are powers of ten from
/// 10us to 10s plus +Inf; fixed bounds keep Observe() allocation-free and
/// the shards mergeable without locks.
class Histogram {
 public:
  /// Upper bounds (inclusive, in microseconds) of the finite buckets.
  static constexpr std::array<uint64_t, 7> kBounds = {
      10, 100, 1000, 10000, 100000, 1000000, 10000000};
  static constexpr size_t kBuckets = kBounds.size() + 1;  // + overflow

  void Observe(uint64_t micros) {
    if (!Enabled()) return;
    size_t b = 0;
    while (b < kBounds.size() && micros > kBounds[b]) ++b;
    internal::Shard* shard = &shards_[ShardIndex() * kBuckets];
    shard[b].value.fetch_add(1, std::memory_order_relaxed);
    sum_[ShardIndex()].value.fetch_add(micros, std::memory_order_relaxed);
  }

  /// Merged per-bucket counts (non-cumulative), overflow bucket last.
  std::array<uint64_t, kBuckets> BucketCounts() const {
    std::array<uint64_t, kBuckets> out{};
    for (size_t s = 0; s < kMetricShards; ++s) {
      for (size_t b = 0; b < kBuckets; ++b) {
        out[b] += shards_[s * kBuckets + b].value.load(
            std::memory_order_relaxed);
      }
    }
    return out;
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (uint64_t c : BucketCounts()) total += c;
    return total;
  }

  uint64_t SumMicros() const {
    uint64_t total = 0;
    for (const auto& s : sum_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<internal::Shard, kMetricShards * kBuckets> shards_;
  std::array<internal::Shard, kMetricShards> sum_;
};

/// Registry of named metrics with Prometheus-style text exposition.
///
/// Naming scheme: `ssdm_<subsystem>_<what>[_total]`, with an optional
/// label set baked into the instrument (e.g. family "ssdm_query_micros",
/// labels `class="read"`). Registration takes a mutex (it happens once per
/// metric, at first use); the returned handle is valid for the registry's
/// lifetime and all mutations on it are lock-free. Hot paths cache the
/// handle in a static or member pointer.
class MetricsRegistry {
 public:
  /// Returns the metric registered under (family, labels), creating it on
  /// first use. `help` is kept from the first registration.
  Counter& GetCounter(const std::string& family, const std::string& labels,
                      const std::string& help);
  Gauge& GetGauge(const std::string& family, const std::string& labels,
                  const std::string& help);
  Histogram& GetHistogram(const std::string& family, const std::string& labels,
                          const std::string& help);

  /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE` per
  /// family followed by one sample line per instrument; histograms expand
  /// into cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
  std::string RenderPrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string family;
    std::string labels;  // rendered inner label list, e.g. `class="read"`
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(const std::string& family, const std::string& labels,
                  const std::string& help, Kind kind);

  mutable std::mutex mu_;
  /// Keyed by family, then labels: keeps families contiguous so the
  /// exposition emits HELP/TYPE once per family.
  std::map<std::string, std::map<std::string, std::unique_ptr<Entry>>>
      entries_;
};

/// The process-default registry every subsystem records into.
MetricsRegistry& DefaultMetrics();

}  // namespace obs
}  // namespace scisparql

#endif  // SCISPARQL_OBS_METRICS_H_
