#ifndef SCISPARQL_OBS_TRACE_H_
#define SCISPARQL_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scisparql {
namespace obs {

/// One node of a query's trace tree: a named phase or operator with wall
/// and thread-CPU time plus free-form attributes (rows in/out, estimated
/// cardinality, ...). Spans are owned by their parent; the tree is built
/// by one thread (the one executing the query) and read after the
/// query finishes, so no synchronization is needed.
struct TraceSpan {
  std::string name;
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::unique_ptr<TraceSpan>> children;

  void SetAttr(std::string key, std::string value) {
    attrs.emplace_back(std::move(key), std::move(value));
  }
  void SetAttr(std::string key, int64_t value) {
    attrs.emplace_back(std::move(key), std::to_string(value));
  }
};

/// Per-query structured trace: the span tree covering
/// parse -> translate/optimize -> execute -> serialize, populated by the
/// engine and the executor's profiling hooks when a trace sink is attached
/// to a QueryRequest. With no sink attached nothing in the hot paths runs
/// beyond a null-pointer test.
class QueryTrace {
 public:
  QueryTrace();

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  TraceSpan* root() { return root_.get(); }
  const TraceSpan* root() const { return root_.get(); }

  /// Appends a child span under `parent` (nullptr = root).
  TraceSpan* AddChild(TraceSpan* parent, std::string name);

  /// The span executor hooks attach operator details under (defaults to
  /// the root; the engine points it at the "execute" phase span).
  TraceSpan* attach_point() { return attach_ != nullptr ? attach_ : root(); }
  void set_attach_point(TraceSpan* span) { attach_ = span; }

  /// Indented text rendering of the tree:
  ///   query  wall=1.23ms cpu=1.10ms
  ///     execute  wall=1.01ms cpu=0.99ms
  ///       scan ?a <p> ?b  (est 100, in 1, out 42)
  std::string Render() const;

  /// A trace produced on a remote server arrives pre-rendered; adopting it
  /// makes Render() return the server-side tree so RemoteSession offers
  /// the same surface as the embedded Session.
  void AdoptRendered(std::string rendered) { rendered_ = std::move(rendered); }

 private:
  std::unique_ptr<TraceSpan> root_;
  TraceSpan* attach_ = nullptr;
  std::string rendered_;
};

/// RAII phase timer: records wall and thread-CPU time into a span when it
/// goes out of scope (or Stop() is called). Null-span safe, so call sites
/// don't need to branch on whether tracing is on.
class SpanTimer {
 public:
  explicit SpanTimer(TraceSpan* span);
  ~SpanTimer() { Stop(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void Stop();

 private:
  TraceSpan* span_;
  std::chrono::steady_clock::time_point wall_start_;
  uint64_t cpu_start_ns_ = 0;
};

/// Current thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID);
/// 0 when unavailable.
uint64_t ThreadCpuNanos();

}  // namespace obs
}  // namespace scisparql

#endif  // SCISPARQL_OBS_TRACE_H_
