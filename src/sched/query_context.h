#ifndef SCISPARQL_SCHED_QUERY_CONTEXT_H_
#define SCISPARQL_SCHED_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "common/status.h"

namespace scisparql {
namespace sched {

/// Concurrency class of a statement, decided before execution so the
/// scheduler can pick the right engine lock: read statements (SELECT, ASK,
/// CONSTRUCT, DESCRIBE) run in parallel under a shared lock; write
/// statements (INSERT/DELETE data and pattern updates) also run under the
/// shared lock — they append into per-graph differential indexes and
/// group-commit their WAL batches, so several writers make progress
/// concurrently; exclusive statements (LOAD, CLEAR, DEFINE FUNCTION,
/// PREPARE, CHECKPOINT, anything unrecognized) mutate engine or dataset
/// structure and take the lock exclusively.
enum class StatementClass { kRead, kWrite, kExclusive };

/// Per-query execution context threaded from the scheduler (or any direct
/// caller) through ExecOptions into the executor's hot loops: a wall-clock
/// deadline and a cooperative cancellation flag. Both are observed at the
/// engine's iteration points (BGP join loop, property-path closure,
/// aggregate and MAP/CONDENSE loops), so a timed-out or disconnected query
/// stops mid-flight instead of running to completion.
///
/// The context is passive: whoever owns the query sets `cancel`; the
/// executor only reads it. A default-constructed context never expires and
/// is never cancelled, which keeps the uncontexted call paths free.
struct QueryContext {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; `Clock::time_point::max()` means none.
  Clock::time_point deadline = Clock::time_point::max();

  /// Shared so another thread can flip it while the query runs (a
  /// server's disconnect watcher, or its Stop). Null means not
  /// cancellable.
  std::shared_ptr<std::atomic<bool>> cancel;

  /// True when the statement runs with the engine held exclusively (no
  /// concurrent readers or writers). Direct callers own the engine, so the
  /// default is true; the scheduler clears it for write-class statements
  /// admitted under the shared lock, and the engine answers with the
  /// FailedPrecondition retry sentinel (SSDM::NeedsExclusiveRetry) when
  /// such a statement turns out to need exclusivity after parsing — e.g.
  /// it would create a named graph — so the scheduler re-runs it under
  /// the exclusive lock.
  bool exclusive = true;

  /// A deadline `timeout` from now. A timeout too large for the clock to
  /// represent (a client may send any u64 of milliseconds) saturates to no
  /// deadline instead of overflowing into one already past.
  static QueryContext WithTimeout(std::chrono::milliseconds timeout) {
    QueryContext ctx;
    Clock::time_point now = Clock::now();
    if (timeout < std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::time_point::max() - now)) {
      ctx.deadline = now + timeout;
    }
    return ctx;
  }

  bool has_deadline() const { return deadline != Clock::time_point::max(); }

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  bool expired() const {
    return has_deadline() && Clock::now() >= deadline;
  }

  /// The check the executor's loops run (amortized): Cancelled beats
  /// DeadlineExceeded so an explicit cancel reports as such even after the
  /// deadline has also passed.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (expired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

}  // namespace sched
}  // namespace scisparql

#endif  // SCISPARQL_SCHED_QUERY_CONTEXT_H_
