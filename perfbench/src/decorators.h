#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/asei.h"
#include "storage/vfs.h"

namespace perfbench {

/// Cumulative counters of a TimedStorage. Snapshot with TimedStorage::
/// counters() and subtract two snapshots to measure a window.
struct StorageCounters {
  uint64_t fetch_calls = 0;  ///< FetchChunks/FetchIntervals/AggregateWhole
  uint64_t chunks = 0;       ///< chunks delivered to the engine
  uint64_t bytes = 0;        ///< chunk payload bytes delivered
  uint64_t fetch_ns = 0;     ///< wall time inside the back-end's fetch calls

  StorageCounters operator-(const StorageCounters& o) const {
    return {fetch_calls - o.fetch_calls, chunks - o.chunks, bytes - o.bytes,
            fetch_ns - o.fetch_ns};
  }
};

/// ArrayStorage decorator around a real back-end: forwards every call and
/// counts and times the fetch path (one "storage.fetch" span per call when
/// span recording is on). Takes the wrapped back-end's name, so the engine
/// attaches it in the back-end's place.
class TimedStorage : public scisparql::ArrayStorage {
 public:
  explicit TimedStorage(std::shared_ptr<scisparql::ArrayStorage> base)
      : base_(std::move(base)) {}

  std::string name() const override { return base_->name(); }
  bool SupportsAggregatePushdown() const override {
    return base_->SupportsAggregatePushdown();
  }
  scisparql::Result<scisparql::ArrayId> Store(
      const scisparql::NumericArray& array, int64_t chunk_elems) override {
    return base_->Store(array, chunk_elems);
  }
  scisparql::Result<scisparql::StoredArrayMeta> GetMeta(
      scisparql::ArrayId id) const override {
    return base_->GetMeta(id);
  }
  scisparql::Status FetchChunks(
      scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  scisparql::Status FetchIntervals(
      scisparql::ArrayId id,
      std::span<const scisparql::relstore::Interval> intervals,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  scisparql::Result<double> AggregateWhole(scisparql::ArrayId id,
                                           scisparql::AggOp op) override;
  scisparql::Status Remove(scisparql::ArrayId id) override {
    return base_->Remove(id);
  }

  StorageCounters counters() const;

 private:
  /// Wraps `cb` so delivered chunks are counted, and times `fetch`.
  template <typename Fetch>
  scisparql::Status Timed(
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb,
      Fetch&& fetch);

  std::shared_ptr<scisparql::ArrayStorage> base_;
  std::atomic<uint64_t> fetch_calls_{0};
  std::atomic<uint64_t> chunks_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fetch_ns_{0};
};

/// The benchmark's flush policy plus a timing decorator, passed to
/// SSDM::Open. File I/O goes to the POSIX VFS, but every durability point —
/// a file Sync and the directory sync that makes a Rename durable — costs a
/// fixed kSyncLatency, spent yielding the CPU, instead of a device flush.
/// A real fsync on a shared disk varies by orders of magnitude from run to
/// run; a fixed latency keeps group commit with something to coalesce
/// while the figures stay repeatable. Each sync is a "storage.fsync" span.
class BenchVfs : public scisparql::storage::Vfs {
 public:
  static constexpr std::chrono::microseconds kSyncLatency{1000};

  BenchVfs() : base_(scisparql::storage::DefaultVfs()) {}

  scisparql::Result<std::unique_ptr<scisparql::storage::VfsFile>> Open(
      const std::string& path, OpenMode mode) override;
  scisparql::Status Rename(const std::string& from,
                           const std::string& to) override;
  scisparql::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  scisparql::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  scisparql::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }

  /// The simulated device flush: waits kSyncLatency.
  void Sync();

 private:
  scisparql::storage::Vfs* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
