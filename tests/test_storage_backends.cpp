#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "storage/fault_fs.h"
#include "storage/file_backend.h"
#include "storage/memory_backend.h"
#include "storage/relational_backend.h"
#include "storage/snapshot.h"

namespace scisparql {
namespace {

/// Factory fixture: the same ASEI contract tests run against every
/// back-end (memory, file, relational).
class BackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string kind = GetParam();
    if (kind == "memory") {
      storage_ = std::make_shared<MemoryArrayStorage>();
    } else if (kind == "file") {
      dir_ = ::testing::TempDir() + "/asei_file_test";
      (void)::system(("mkdir -p " + dir_).c_str());
      storage_ = std::make_shared<FileArrayStorage>(dir_);
    } else {
      db_ = *relstore::Database::Open("");
      storage_ = std::shared_ptr<RelationalArrayStorage>(
          std::move(*RelationalArrayStorage::Attach(db_.get())));
    }
  }

  NumericArray TestArray(int64_t n) {
    NumericArray a = NumericArray::Zeros(ElementType::kDouble, {n});
    for (int64_t i = 0; i < n; ++i) a.SetDoubleAt(i, i * 0.5);
    return a;
  }

  std::string dir_;
  std::unique_ptr<relstore::Database> db_;
  std::shared_ptr<ArrayStorage> storage_;
};

TEST_P(BackendTest, StoreAndGetMeta) {
  NumericArray a = NumericArray::Zeros(ElementType::kInt64, {10, 20});
  ArrayId id = *storage_->Store(a, 64);
  StoredArrayMeta meta = *storage_->GetMeta(id);
  EXPECT_EQ(meta.etype, ElementType::kInt64);
  EXPECT_EQ(meta.shape, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(meta.chunk_elems, 64);
  EXPECT_EQ(meta.NumElements(), 200);
  EXPECT_EQ(meta.NumChunks(), 4);  // ceil(200/64)
}

TEST_P(BackendTest, GetMetaMissingArray) {
  EXPECT_EQ(storage_->GetMeta(777).status().code(), StatusCode::kNotFound);
}

TEST_P(BackendTest, FetchChunksRoundTrip) {
  NumericArray a = TestArray(100);
  ArrayId id = *storage_->Store(a, 16);  // 7 chunks, last partial
  std::map<uint64_t, std::vector<uint8_t>> got;
  std::vector<uint64_t> ids = {0, 3, 6};
  ASSERT_TRUE(storage_
                  ->FetchChunks(id, ids,
                                [&](uint64_t cid, const uint8_t* b, size_t n) {
                                  got[cid].assign(b, b + n);
                                })
                  .ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].size(), 16u * 8);
  EXPECT_EQ(got[6].size(), 4u * 8);  // 100 - 6*16 = 4 elements
  double v;
  std::memcpy(&v, got[3].data(), 8);
  EXPECT_DOUBLE_EQ(v, 48 * 0.5);  // first element of chunk 3
}

TEST_P(BackendTest, FetchIntervalsMatchesFetchChunks) {
  NumericArray a = TestArray(256);
  ArrayId id = *storage_->Store(a, 16);
  std::vector<relstore::Interval> intervals = {{1, 1, 3},  // chunks 1,2,3
                                               {8, 2, 3}};  // chunks 8,10,12
  std::map<uint64_t, std::vector<uint8_t>> via_interval;
  ASSERT_TRUE(storage_
                  ->FetchIntervals(id, intervals,
                                   [&](uint64_t cid, const uint8_t* b,
                                       size_t n) {
                                     via_interval[cid].assign(b, b + n);
                                   })
                  .ok());
  std::vector<uint64_t> expanded = relstore::ExpandIntervals(intervals);
  std::map<uint64_t, std::vector<uint8_t>> via_chunks;
  ASSERT_TRUE(storage_
                  ->FetchChunks(id, expanded,
                                [&](uint64_t cid, const uint8_t* b, size_t n) {
                                  via_chunks[cid].assign(b, b + n);
                                })
                  .ok());
  EXPECT_EQ(via_interval, via_chunks);
}

TEST_P(BackendTest, AggregatePushdown) {
  NumericArray a = TestArray(1000);  // sum = 0.5 * (0+..+999) = 249750
  ArrayId id = *storage_->Store(a, 128);
  ASSERT_TRUE(storage_->SupportsAggregatePushdown());
  EXPECT_DOUBLE_EQ(*storage_->AggregateWhole(id, AggOp::kSum), 249750.0);
  EXPECT_DOUBLE_EQ(*storage_->AggregateWhole(id, AggOp::kMin), 0.0);
  EXPECT_DOUBLE_EQ(*storage_->AggregateWhole(id, AggOp::kMax), 499.5);
  EXPECT_DOUBLE_EQ(*storage_->AggregateWhole(id, AggOp::kAvg), 249.75);
  EXPECT_DOUBLE_EQ(*storage_->AggregateWhole(id, AggOp::kCount), 1000.0);
}

TEST_P(BackendTest, IntegerArraysPreserved) {
  NumericArray a = NumericArray::Zeros(ElementType::kInt64, {50});
  for (int64_t i = 0; i < 50; ++i) a.SetIntAt(i, i * i);
  ArrayId id = *storage_->Store(a, 8);
  StoredArrayMeta meta = *storage_->GetMeta(id);
  EXPECT_EQ(meta.etype, ElementType::kInt64);
  std::vector<uint64_t> ids = {2};
  int64_t first = -1;
  ASSERT_TRUE(storage_
                  ->FetchChunks(id, ids,
                                [&](uint64_t, const uint8_t* b, size_t) {
                                  std::memcpy(&first, b, 8);
                                })
                  .ok());
  EXPECT_EQ(first, 16 * 16);  // element 16
}

TEST_P(BackendTest, MultipleArraysIndependent) {
  ArrayId id1 = *storage_->Store(TestArray(10), 4);
  ArrayId id2 = *storage_->Store(TestArray(20), 4);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(storage_->GetMeta(id1)->NumElements(), 10);
  EXPECT_EQ(storage_->GetMeta(id2)->NumElements(), 20);
}

TEST_P(BackendTest, StatsAccumulate) {
  ArrayId id = *storage_->Store(TestArray(64), 16);
  storage_->ResetStats();
  std::vector<uint64_t> ids = {0, 1, 2, 3};
  ASSERT_TRUE(storage_
                  ->FetchChunks(id, ids,
                                [](uint64_t, const uint8_t*, size_t) {})
                  .ok());
  EXPECT_EQ(storage_->stats().chunks_fetched, 4u);
  EXPECT_EQ(storage_->stats().bytes_fetched, 64u * 8);
  EXPECT_GE(storage_->stats().queries, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values("memory", "file", "relational"));

TEST(FileBackend, LinkExistingFile) {
  std::string dir = ::testing::TempDir() + "/asei_link_test";
  (void)::system(("mkdir -p " + dir).c_str());
  FileArrayStorage writer(dir);
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {8});
  for (int64_t i = 0; i < 8; ++i) a.SetDoubleAt(i, i);
  ArrayId original = *writer.Store(a, 4);

  // A second storage instance links the container file directly
  // (the mediator scenario).
  FileArrayStorage reader(dir + "/elsewhere");
  ArrayId linked = *reader.LinkExisting(dir + "/arr_" +
                                        std::to_string(original) + ".ssa");
  StoredArrayMeta meta = *reader.GetMeta(linked);
  EXPECT_EQ(meta.NumElements(), 8);
  EXPECT_DOUBLE_EQ(*reader.AggregateWhole(linked, AggOp::kSum), 28.0);
}

TEST(FileBackend, RemoveDeletesFile) {
  std::string dir = ::testing::TempDir() + "/asei_remove_test";
  (void)::system(("mkdir -p " + dir).c_str());
  FileArrayStorage storage(dir);
  ArrayId id = *storage.Store(NumericArray::Zeros(ElementType::kDouble, {4}),
                              4);
  ASSERT_TRUE(storage.Remove(id).ok());
  EXPECT_FALSE(storage.GetMeta(id).ok());
}

TEST(MemoryBackend, RemoveArray) {
  MemoryArrayStorage storage;
  ArrayId id =
      *storage.Store(NumericArray::Zeros(ElementType::kDouble, {4}), 4);
  EXPECT_EQ(storage.array_count(), 1u);
  ASSERT_TRUE(storage.Remove(id).ok());
  EXPECT_EQ(storage.array_count(), 0u);
  EXPECT_FALSE(storage.Remove(id).ok());
}

TEST(RelationalBackend, RemoveArrayDeletesChunks) {
  auto db = *relstore::Database::Open("");
  auto storage = *RelationalArrayStorage::Attach(db.get());
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {100});
  ArrayId id = *storage->Store(a, 16);
  ASSERT_TRUE(storage->Remove(id).ok());
  EXPECT_FALSE(storage->GetMeta(id).ok());
}

TEST(RelationalBackend, StrategyAffectsQueryCount) {
  auto db = *relstore::Database::Open("");
  auto storage = *RelationalArrayStorage::Attach(db.get());
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {1024});
  ArrayId id = *storage->Store(a, 16);  // 64 chunks
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 64; i += 2) ids.push_back(i);

  storage->set_strategy(relstore::SelectStrategy::kPerKey);
  ASSERT_TRUE(storage
                  ->FetchChunks(id, ids,
                                [](uint64_t, const uint8_t*, size_t) {})
                  .ok());
  EXPECT_EQ(storage->last_select_stats().queries, ids.size());

  storage->set_strategy(relstore::SelectStrategy::kInList);
  ASSERT_TRUE(storage
                  ->FetchChunks(id, ids,
                                [](uint64_t, const uint8_t*, size_t) {})
                  .ok());
  EXPECT_EQ(storage->last_select_stats().queries, 1u);

  storage->set_strategy(relstore::SelectStrategy::kInterval);
  ASSERT_TRUE(storage
                  ->FetchChunks(id, ids,
                                [](uint64_t, const uint8_t*, size_t) {})
                  .ok());
  EXPECT_EQ(storage->last_select_stats().queries, 1u);  // one stride-2 run
}

// ---------------------------------------------------------------------------
// Fault injection: the file back-end reports I/O failures instead of
// silently persisting a truncated container.
// ---------------------------------------------------------------------------

class FileBackendFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/asei_fault_test";
    (void)::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
  }
  NumericArray TestArray(int64_t n) {
    NumericArray a = NumericArray::Zeros(ElementType::kDouble, {n});
    for (int64_t i = 0; i < n; ++i) a.SetDoubleAt(i, i * 0.5);
    return a;
  }
  std::string dir_;
};

TEST_F(FileBackendFaultTest, ShortHeaderWriteSurfacesAsError) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  FileArrayStorage fs(dir_, &faulty);
  // Op 0 is the header write; persist only 4 of its bytes.
  faulty.ScheduleFault(0, storage::FaultKind::kShortWrite, 4);
  EXPECT_FALSE(fs.Store(TestArray(32), 16).ok());
  EXPECT_EQ(faulty.faults_fired(), 1u);
}

TEST_F(FileBackendFaultTest, EnospcOnBodyWriteSurfacesAsError) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  FileArrayStorage fs(dir_, &faulty);
  // Op 1 is the element-body write.
  faulty.ScheduleFault(1, storage::FaultKind::kEnospc);
  EXPECT_FALSE(fs.Store(TestArray(32), 16).ok());
}

TEST_F(FileBackendFaultTest, StoreSucceedsAndReadsBackWithoutFaults) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  FileArrayStorage fs(dir_, &faulty);
  ArrayId id = *fs.Store(TestArray(32), 16);
  StoredArrayMeta meta = *fs.GetMeta(id);
  EXPECT_EQ(meta.NumElements(), 32);
}

// ---------------------------------------------------------------------------
// Snapshot file format.
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripAndCorruptionDetection) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = ::testing::TempDir() + "/snap_format_test";
  (void)::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  std::string path = dir + "/" + storage::SnapshotFileName(1);

  std::vector<storage::SnapshotSection> sections;
  sections.push_back({"", "<http://x/a> <http://x/p> 1 .\n"});
  sections.push_back({"http://x/g", "<http://x/b> <http://x/q> 2 .\n"});
  storage::SnapshotFooter footer;
  footer.wal_lsn = 42;
  footer.graphs.push_back({"", 1, 1});
  footer.graphs.push_back({"http://x/g", 1, 1});
  ASSERT_TRUE(storage::WriteSnapshot(vfs, path, sections, footer).ok());

  auto contents = *storage::ReadSnapshot(vfs, path);
  ASSERT_EQ(contents.sections.size(), 2u);
  EXPECT_EQ(contents.sections[1].graph_iri, "http://x/g");
  EXPECT_EQ(contents.footer.wal_lsn, 42u);
  ASSERT_EQ(contents.footer.graphs.size(), 2u);

  // Any flipped byte must fail a CRC — section or footer alike.
  auto f = *vfs->Open(path, storage::Vfs::OpenMode::kReadWrite);
  uint64_t size = *f->Size();
  for (uint64_t off : {size / 3, size / 2, size - 2}) {
    char b;
    ASSERT_EQ(*f->ReadAt(off, &b, 1), 1u);
    char flipped = static_cast<char>(b ^ 0x40);
    ASSERT_TRUE(f->WriteAt(off, &flipped, 1).ok());
    EXPECT_FALSE(storage::ReadSnapshot(vfs, path).ok()) << "offset " << off;
    ASSERT_TRUE(f->WriteAt(off, &b, 1).ok());  // restore for the next probe
  }
  EXPECT_TRUE(storage::ReadSnapshot(vfs, path).ok());
}

}  // namespace
}  // namespace scisparql
