#include "sched/scheduler.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace scisparql {
namespace sched {

namespace {

/// Scheduler metrics, registered once and shared by every scheduler in the
/// process (handles are stable; all mutations are sharded atomics).
struct SchedMetrics {
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& timed_out;
  obs::Counter& cancelled;
  obs::Counter& escalated;
  obs::Counter& compactions;
  obs::Gauge& queue_depth;
  obs::Histogram& wait_micros;
  obs::Histogram& read_micros;
  obs::Histogram& write_micros;
};

SchedMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  static SchedMetrics* m = new SchedMetrics{
      reg.GetCounter("ssdm_sched_admitted_total", "",
                     "Statements admitted for execution."),
      reg.GetCounter("ssdm_sched_rejected_total", "",
                     "Statements rejected at admission (wait list full "
                     "or scheduler stopped)."),
      reg.GetCounter("ssdm_sched_completed_total", "",
                     "Scheduled statements that finished OK."),
      reg.GetCounter("ssdm_sched_failed_total", "",
                     "Scheduled statements that finished with an error."),
      reg.GetCounter("ssdm_sched_timeout_total", "",
                     "Scheduled statements that exceeded their deadline."),
      reg.GetCounter("ssdm_sched_cancelled_total", "",
                     "Scheduled statements cancelled by their owner."),
      reg.GetCounter("ssdm_sched_escalated_total", "",
                     "Shared-lock write statements re-run under the "
                     "exclusive lock."),
      reg.GetCounter("ssdm_sched_compactions_total", "",
                     "Background folds of differential indexes into the "
                     "base indexes."),
      reg.GetGauge("ssdm_sched_queue_depth", "",
                   "Statements waiting for an execution slot right now."),
      reg.GetHistogram("ssdm_sched_wait_micros", "",
                       "Time from admission to holding an execution slot, "
                       "in microseconds."),
      reg.GetHistogram("ssdm_query_micros", "class=\"read\"",
                       "End-to-end execution latency of scheduled "
                       "statements, in microseconds, by concurrency class."),
      reg.GetHistogram("ssdm_query_micros", "class=\"write\"",
                       "End-to-end execution latency of scheduled "
                       "statements, in microseconds, by concurrency class."),
  };
  return *m;
}

/// Structured prepared calls have no text to classify; they always run a
/// PREPARE'd query body, so they are reads.
StatementClass ClassOf(const QueryRequest& req) {
  return req.prepared.has_value() ? StatementClass::kRead
                                  : SSDM::ClassifyStatement(req.text);
}

}  // namespace

std::string SchedulerStats::ToString() const {
  std::ostringstream out;
  out << "admitted=" << admitted << " rejected=" << rejected
      << " completed=" << completed << " failed=" << failed
      << " timed_out=" << timed_out << " cancelled=" << cancelled
      << " reads=" << reads << " writes=" << writes
      << " escalated=" << escalated << " compactions=" << compactions
      << " cache_fast_path=" << cache_fast_path
      << " read_micros=" << read_micros << " write_micros=" << write_micros
      << " queue_depth=" << queue_depth
      << " queue_high_water=" << queue_high_water;
  return out.str();
}

QueryScheduler::QueryScheduler(SSDM* engine, SchedulerOptions options)
    : engine_(engine), options_([&options]() {
        if (options.workers < 1) options.workers = 1;
        if (options.queue_capacity < 1) options.queue_capacity = 1;
        return options;
      }()) {
  running_ = true;
  // While the scheduler is attached, updates go through the differential
  // write path so statements can run them under the shared lock.
  engine_->BeginConcurrentWrites();
  compactor_ = std::thread([this]() { CompactorLoop(); });
}

QueryScheduler::~QueryScheduler() { Stop(); }

void QueryScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    // Waiting callers return Unavailable on their own threads.
    for (Task* t : waiters_) {
      t->slot = Task::Slot::kRefused;
      t->granted.notify_one();
    }
    waiters_.clear();
    stats_.queue_depth = 0;
    Metrics().queue_depth.Set(0);
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  {
    // Callers still running hold their slots; the engine leaves
    // concurrent-write mode only once every statement is out of it.
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this]() { return busy_ == 0; });
  }
  // No statement and no compactor is left, so the engine is held
  // exclusively by this thread in effect; the final release folds
  // remaining deltas and returns the graphs to base mode.
  engine_->EndConcurrentWrites();
}

bool QueryScheduler::ServeFromCache(const QueryRequest& req,
                                    StatementClass cls,
                                    Result<QueryOutcome>* out) {
  // An untraced read whose outcome is still valid in the engine's result
  // cache is served without a slot. The shared-lock probe is non-blocking
  // — if a writer holds or awaits the engine, the request just takes the
  // normal admission path — and it is released before any slot is taken,
  // so no thread ever holds the shared side twice.
  if (req.trace_sink != nullptr || cls != StatementClass::kRead ||
      !engine_mu_.try_lock_shared()) {
    return false;
  }
  QueryOutcome hit;
  bool served = engine_->TryCachedResult(req, &hit);
  engine_mu_.unlock_shared();
  if (!served) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      ++stats_.rejected;
      Metrics().rejected.Add();
      *out = Status::Unavailable("scheduler stopped");
      return true;
    }
    ++stats_.cache_fast_path;
  }
  *out = std::move(hit);
  return true;
}

Result<QueryOutcome> QueryScheduler::Execute(QueryRequest req) {
  StatementClass cls = ClassOf(req);
  Result<QueryOutcome> cached = Status::OK();
  if (ServeFromCache(req, cls, &cached)) return cached;
  Task task;
  Prepare(std::move(req), cls, &task);
  SCISPARQL_RETURN_NOT_OK(Admit(&task));
  return RunGranted(task);
}

void QueryScheduler::Prepare(QueryRequest req, StatementClass cls,
                             Task* task) const {
  if (req.timeout.count() > 0) {
    task->ctx = QueryContext::WithTimeout(req.timeout);
  } else if (options_.default_timeout.count() > 0) {
    task->ctx = QueryContext::WithTimeout(options_.default_timeout);
  }
  task->ctx.cancel = req.cancel;
  task->cls = cls;
  task->req = std::move(req);
  task->admitted = std::chrono::steady_clock::now();
}

Status QueryScheduler::Admit(Task* task) {
  // Degraded or replica-mode engines reject writers at admission so they
  // don't occupy the wait list (reads keep flowing under the shared lock).
  // The engine re-checks at execution for writes already waiting when the
  // flip happened.
  bool reject_write =
      task->cls != StatementClass::kRead && engine_->rejects_writes();
  std::unique_lock<std::mutex> lock(mu_);
  Status refused;
  if (reject_write) {
    refused = Status::Unavailable(engine_->write_reject_reason());
  } else if (!running_) {
    refused = Status::Unavailable("scheduler stopped");
  } else if (busy_ >= options_.workers &&
             waiters_.size() >= options_.queue_capacity) {
    refused = Status::Unavailable("server overloaded: admission queue full");
  }
  if (!refused.ok()) {
    ++stats_.rejected;
    Metrics().rejected.Add();
    return refused;
  }
  ++stats_.admitted;
  Metrics().admitted.Add();
  if (busy_ < options_.workers && waiters_.empty()) {
    ++busy_;
    return Status::OK();
  }
  waiters_.push_back(task);
  stats_.queue_depth = waiters_.size();
  stats_.queue_high_water = std::max(stats_.queue_high_water,
                                     stats_.queue_depth);
  Metrics().queue_depth.Set(static_cast<int64_t>(waiters_.size()));
  task->granted.wait(lock, [task]() {
    return task->slot != Task::Slot::kWaiting;
  });
  if (task->slot == Task::Slot::kRefused) {
    return Status::Unavailable("scheduler stopped");
  }
  return Status::OK();
}

Status QueryScheduler::ExecuteExclusive(
    const std::function<Status(SSDM*)>& fn) {
  std::unique_lock<EngineLock> lock(engine_mu_);
  return fn(engine_);
}

Result<QueryOutcome> QueryScheduler::RunGranted(const Task& task) {
  auto start = std::chrono::steady_clock::now();
  Metrics().wait_micros.Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                            task.admitted)
          .count()));
  Result<QueryOutcome> result = RunTask(task);
  Finish(task, result.status(),
         std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start));
  return result;
}

Result<QueryOutcome> QueryScheduler::RunTask(const Task& task) {
  // A query that spent its whole deadline waiting for a slot fails
  // without touching the engine (and without taking the shared lock).
  Status preflight = task.ctx.Check();
  if (!preflight.ok()) return preflight;

  if (task.cls == StatementClass::kRead) {
    std::shared_lock<EngineLock> lock(engine_mu_);
    return engine_->Execute(task.req, &task.ctx);
  }
  if (task.cls == StatementClass::kWrite) {
    // Differential write path: run under the shared lock with the
    // exclusivity bit cleared; the engine appends into per-graph deltas
    // and group-commits the WAL batch alongside concurrent writers.
    {
      std::shared_lock<EngineLock> lock(engine_mu_);
      QueryContext shared_ctx = task.ctx;
      shared_ctx.exclusive = false;
      Result<QueryOutcome> r = engine_->Execute(task.req, &shared_ctx);
      if (r.ok() || !SSDM::NeedsExclusiveRetry(r.status())) return r;
    }
    // The statement needs engine exclusivity after all (e.g. it creates a
    // named graph): fall through and re-run under the exclusive lock.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.escalated;
    }
    Metrics().escalated.Add();
  }
  std::unique_lock<EngineLock> lock(engine_mu_);
  return engine_->Execute(task.req, &task.ctx);
}

void QueryScheduler::CompactorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    compact_cv_.wait_for(lock, options_.compact_interval);
    if (!running_) break;
    lock.unlock();
    // The probe walks the dataset's graph map, which a replica resync
    // (snapshot re-base) replaces wholesale under the exclusive lock —
    // so even the cheap read needs the shared lock.
    size_t pending = 0;
    {
      std::shared_lock<EngineLock> engine_lock(engine_mu_);
      pending = engine_->PendingDeltaOps();
    }
    size_t folded = 0;
    if (pending >= options_.compact_threshold) {
      std::unique_lock<EngineLock> engine_lock(engine_mu_);
      folded = engine_->FoldDeltas();
    }
    lock.lock();
    if (folded > 0) {
      ++stats_.compactions;
      Metrics().compactions.Add();
    }
  }
}

void QueryScheduler::Finish(const Task& task, const Status& status,
                            std::chrono::microseconds elapsed) {
  uint64_t micros = static_cast<uint64_t>(elapsed.count());
  if (task.cls == StatementClass::kRead) {
    Metrics().read_micros.Observe(micros);
  } else {
    Metrics().write_micros.Observe(micros);
  }
  if (status.ok()) {
    Metrics().completed.Add();
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    Metrics().timed_out.Add();
  } else if (status.code() == StatusCode::kCancelled) {
    Metrics().cancelled.Add();
  } else {
    Metrics().failed.Add();
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (task.cls == StatementClass::kRead) {
    ++stats_.reads;
    stats_.read_micros += micros;
  } else {
    ++stats_.writes;
    stats_.write_micros += micros;
  }
  if (status.ok()) {
    ++stats_.completed;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.timed_out;
  } else if (status.code() == StatusCode::kCancelled) {
    ++stats_.cancelled;
  } else {
    ++stats_.failed;
  }
  // The slot passes straight to the head waiter, if any.
  if (!waiters_.empty()) {
    Task* next = waiters_.front();
    waiters_.pop_front();
    stats_.queue_depth = waiters_.size();
    Metrics().queue_depth.Set(static_cast<int64_t>(waiters_.size()));
    next->slot = Task::Slot::kGranted;
    next->granted.notify_one();
  } else if (--busy_ == 0 && !running_) {
    idle_cv_.notify_all();
  }
}

SchedulerStats QueryScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sched
}  // namespace scisparql
