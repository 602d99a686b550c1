#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// One timed interval at a layer boundary.
struct Span {
  const char* name = "";  ///< static string, e.g. "storage.fetch"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< enclosing span on the same thread; 0 = root
  uint64_t request = 0;  ///< request the span served; 0 = unknown
};

/// Process-wide in-memory span store. Recording is off until enabled; spans
/// are kept in memory (bounded, later ones dropped and counted) and written
/// out once, at exit, as JSON lines.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span);

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  scisparql::Status WriteJsonLines(const std::string& path) const;

  /// Request id that spans recorded on threads without their own request
  /// context (the server's workers) are attributed to. Only set while a
  /// single client drives the engine, where it is unambiguous.
  void set_solo_request(uint64_t id) {
    solo_request_.store(id, std::memory_order_release);
  }
  uint64_t solo_request() const {
    return solo_request_.load(std::memory_order_acquire);
  }

 private:
  static constexpr size_t kCapacity = 200000;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> solo_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Marks the calling thread as serving request `id` for its lifetime.
class RequestScope {
 public:
  explicit RequestScope(uint64_t id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

/// Times a scope. When the recorder is enabled the interval is recorded as
/// a span, nested under the thread's enclosing ScopedSpan; the duration is
/// available either way.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Nanoseconds since construction.
  int64_t ElapsedNs() const { return NowNs() - span_.start_ns; }

 private:
  Span span_;
  bool recording_;
  uint64_t saved_parent_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
