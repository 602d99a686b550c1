#ifndef SCISPARQL_SCHED_SCHEDULER_H_
#define SCISPARQL_SCHED_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "engine/ssdm.h"
#include "sched/engine_lock.h"
#include "sched/query_context.h"

namespace scisparql {
namespace sched {

/// Tuning knobs for the query scheduler.
struct SchedulerOptions {
  /// Execution slots: how many statements run inside the engine at once
  /// (clamped to >= 1). Execute runs its statement on the calling thread
  /// once that thread holds a slot; the scheduler starts no thread per
  /// slot.
  int workers = 4;

  /// Wait-list bound: statements admitted while this many are already
  /// waiting for a slot are rejected with Unavailable instead of queueing
  /// unboundedly (backpressure toward the clients).
  size_t queue_capacity = 64;

  /// Deadline applied to queries submitted without one; zero = none.
  std::chrono::milliseconds default_timeout{0};

  /// How often the background compactor wakes to check the differential
  /// indexes.
  std::chrono::milliseconds compact_interval{10};

  /// Pending delta operations (across all graphs) above which the
  /// compactor takes the exclusive lock and folds them into the base
  /// indexes.
  size_t compact_threshold = 512;
};

/// Scheduler counters, exposed through the STATS protocol verb and the
/// SsdmServer accessors. Latency sums are wall-clock execution time (lock
/// wait included — that *is* the latency a client observes) per class.
struct SchedulerStats {
  uint64_t admitted = 0;    ///< Accepted for execution.
  uint64_t rejected = 0;    ///< Turned away at admission (wait list full).
  uint64_t completed = 0;   ///< Executed and returned OK.
  uint64_t failed = 0;      ///< Executed and returned a non-OK status.
  uint64_t timed_out = 0;   ///< Ended with DeadlineExceeded (incl. in queue).
  uint64_t cancelled = 0;   ///< Ended with Cancelled.
  uint64_t reads = 0;       ///< Statements run under the shared lock.
  uint64_t writes = 0;      ///< Write/exclusive-class statements run.
  uint64_t escalated = 0;   ///< Shared-lock writes re-run exclusively
                            ///< (needed to create a named graph etc.).
  uint64_t compactions = 0;  ///< Background delta folds into the base
                             ///< indexes.
  uint64_t cache_fast_path = 0;  ///< Reads served from the result cache
                                 ///< before admission, holding no slot.
  uint64_t read_micros = 0;   ///< Sum of read execution latencies (us).
  uint64_t write_micros = 0;  ///< Sum of write execution latencies (us).
  size_t queue_depth = 0;       ///< Statements waiting for a slot now.
  size_t queue_high_water = 0;  ///< Longest the wait list has been.

  /// "admitted=12 rejected=0 ..." — the STATS verb payload.
  std::string ToString() const;
};

/// Concurrent query scheduler for an SSDM engine: `workers` execution
/// slots behind a bounded FIFO wait list, a three-class concurrency model
/// over the engine, per-query deadlines and cooperative cancellation.
///
/// A statement runs on the thread that holds its slot: Execute runs it on
/// the caller's own thread, so a server's connection thread reads a
/// request, executes it and writes the reply with no hand-off. A freed
/// slot goes straight to the head of the wait list. The only thread the
/// scheduler owns is the compactor.
///
/// Reads run in parallel under the shared lock. Write-class statements
/// (INSERT/DELETE updates) ALSO run under the shared lock: while the
/// scheduler is attached the engine is in concurrent-write mode, so
/// updates append into per-graph differential indexes and group-commit
/// their WAL batches — several writers make progress per fsync. A write
/// that turns out to need engine exclusivity (it would create a named
/// graph) is re-run under the exclusive lock (SchedulerStats::escalated).
/// Exclusive-class statements (LOAD, CLEAR, DEFINE, PREPARE, CHECKPOINT)
/// take the lock exclusively. A background compactor folds accumulated
/// deltas into the base indexes under brief exclusive sections. The lock
/// prefers writers (EngineLock), so those sections get in while the slots
/// hold the shared side back to back.
///
/// All statement execution routed through the scheduler is serialized
/// against the engine correctly; callers must not mutate the engine
/// directly while the scheduler is running.
class QueryScheduler {
 public:
  /// `engine` must outlive the scheduler. The compactor starts
  /// immediately.
  explicit QueryScheduler(SSDM* engine, SchedulerOptions options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Stops accepting work, fails waiting statements with Unavailable,
  /// joins the compactor and waits until no slot is held. Idempotent.
  void Stop();

  /// Admits and runs one statement on the calling thread. Classifies the
  /// statement, converts the request's timeout into an absolute deadline
  /// *at admission* (so the wait for a slot counts against it), applies
  /// the default deadline when the request has none, and takes a free slot
  /// or a place on the wait list; the caller blocks there until a slot is
  /// handed to it. Returns Unavailable at once when the wait list is full,
  /// and when the scheduler is stopped (also for a caller still waiting).
  ///
  /// Fast path: when the engine's result cache holds a still-valid outcome
  /// for an untraced read, it is returned before admission and the request
  /// never takes a slot (counted in SchedulerStats::cache_fast_path). The
  /// probe uses try_lock_shared, so it never blocks the caller behind a
  /// writer — contention simply falls back to normal admission.
  Result<QueryOutcome> Execute(QueryRequest req);

  /// Runs `fn` on the caller's thread holding the engine lock exclusively,
  /// bypassing admission and classification. This is the hook for internal
  /// engine maintenance that is not a client statement — a replication
  /// applier mutating the dataset between the reads this scheduler serves.
  /// Client writes must keep going through Execute: this path
  /// ignores the slots, the wait-list bound, deadlines, and the
  /// rejects_writes() admission check (a replica rejects client writers
  /// but must still apply its stream).
  Status ExecuteExclusive(const std::function<Status(SSDM*)>& fn);

  SchedulerStats stats() const;
  const SchedulerOptions& options() const { return options_; }

 private:
  /// An admitted statement; it lives on the Execute caller's stack.
  struct Task {
    enum class Slot { kWaiting, kGranted, kRefused };

    QueryRequest req;
    QueryContext ctx;
    StatementClass cls = StatementClass::kRead;
    std::chrono::steady_clock::time_point admitted;
    /// Slot hand-off, guarded by mu_. A caller on the wait list blocks on
    /// `granted` until the slot is handed over or the scheduler stops
    /// (kRefused).
    Slot slot = Slot::kWaiting;
    std::condition_variable granted;
  };

  /// The result-cache fast path: true when `req` (a read of class `cls`)
  /// was answered before admission, with the answer (or the stopped
  /// scheduler's refusal) in *out.
  bool ServeFromCache(const QueryRequest& req, StatementClass cls,
                      Result<QueryOutcome>* out);
  /// Fills `task` from the request: class, context and deadline.
  void Prepare(QueryRequest req, StatementClass cls, Task* task) const;
  /// Rejects, grants a free slot, or appends to the wait list and waits
  /// there until the task holds a slot.
  Status Admit(Task* task);
  /// Runs a task that holds a slot, records it and frees the slot.
  Result<QueryOutcome> RunGranted(const Task& task);
  Result<QueryOutcome> RunTask(const Task& task);
  /// Stats and metrics for a finished task, and the slot's release — to
  /// the head waiter when there is one.
  void Finish(const Task& task, const Status& status,
              std::chrono::microseconds elapsed);
  void CompactorLoop();

  SSDM* engine_;
  const SchedulerOptions options_;

  /// Gate over the engine: shared for kRead and kWrite (delta admission),
  /// exclusive for kExclusive, escalated writes and compaction.
  EngineLock engine_mu_;

  mutable std::mutex mu_;  // guards everything below but the compactor
  std::condition_variable idle_cv_;     // Stop: busy_ fell to 0
  std::condition_variable compact_cv_;
  int busy_ = 0;                        // slots held
  std::deque<Task*> waiters_;           // FIFO wait list
  bool running_ = false;
  SchedulerStats stats_;
  std::thread compactor_;
};

}  // namespace sched
}  // namespace scisparql

#endif  // SCISPARQL_SCHED_SCHEDULER_H_
