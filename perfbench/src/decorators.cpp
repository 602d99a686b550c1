#include "decorators.h"

#include <cstdio>
#include <thread>

#include "spans.h"

namespace perfbench {

using scisparql::Result;
using scisparql::Status;

template <typename Fetch>
Status TimedStorage::Timed(
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb,
    Fetch&& fetch) {
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  auto counting = [&](uint64_t chunk, const uint8_t* data, size_t len) {
    ++chunks;
    bytes += len;
    cb(chunk, data, len);
  };
  ScopedSpan span("storage.fetch");
  Status st = fetch(counting);
  fetch_ns_.fetch_add(static_cast<uint64_t>(span.ElapsedNs()),
                      std::memory_order_relaxed);
  fetch_calls_.fetch_add(1, std::memory_order_relaxed);
  chunks_.fetch_add(chunks, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return st;
}

Status TimedStorage::FetchChunks(
    scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  return Timed(cb, [&](const auto& counting) {
    return base_->FetchChunks(id, chunk_ids, counting);
  });
}

Status TimedStorage::FetchIntervals(
    scisparql::ArrayId id,
    std::span<const scisparql::relstore::Interval> intervals,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  return Timed(cb, [&](const auto& counting) {
    return base_->FetchIntervals(id, intervals, counting);
  });
}

Result<double> TimedStorage::AggregateWhole(scisparql::ArrayId id,
                                            scisparql::AggOp op) {
  ScopedSpan span("storage.aggregate");
  Result<double> r = base_->AggregateWhole(id, op);
  fetch_ns_.fetch_add(static_cast<uint64_t>(span.ElapsedNs()),
                      std::memory_order_relaxed);
  fetch_calls_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

StorageCounters TimedStorage::counters() const {
  return {fetch_calls_.load(std::memory_order_relaxed),
          chunks_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed),
          fetch_ns_.load(std::memory_order_relaxed)};
}

namespace {

/// A file whose Sync is the owning BenchVfs's simulated flush.
class BenchFile : public scisparql::storage::VfsFile {
 public:
  BenchFile(std::unique_ptr<scisparql::storage::VfsFile> base, BenchVfs* vfs)
      : base_(std::move(base)), vfs_(vfs) {}
  Result<size_t> ReadAt(uint64_t off, void* buf, size_t n) override {
    return base_->ReadAt(off, buf, n);
  }
  Status WriteAt(uint64_t off, const void* buf, size_t n) override {
    return base_->WriteAt(off, buf, n);
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    vfs_->Sync();
    return Status::OK();
  }

 private:
  std::unique_ptr<scisparql::storage::VfsFile> base_;
  BenchVfs* vfs_;
};

}  // namespace

Result<std::unique_ptr<scisparql::storage::VfsFile>> BenchVfs::Open(
    const std::string& path, OpenMode mode) {
  auto f = base_->Open(path, mode);
  if (!f.ok()) return f.status();
  return std::unique_ptr<scisparql::storage::VfsFile>(
      new BenchFile(std::move(*f), this));
}

Status BenchVfs::Rename(const std::string& from, const std::string& to) {
  // The POSIX VFS would fsync the directory here; the simulated flush
  // stands in for it.
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError("rename " + from + " -> " + to + " failed");
  }
  Sync();
  return Status::OK();
}

void BenchVfs::Sync() {
  ScopedSpan span("storage.fsync");
  // Yield rather than sleep: a sleeping virtual CPU halts, and its wake-up
  // can come several milliseconds late when the host is busy.
  const int64_t until =
      NowNs() + std::chrono::nanoseconds(kSyncLatency).count();
  while (NowNs() < until) std::this_thread::yield();
}

}  // namespace perfbench
