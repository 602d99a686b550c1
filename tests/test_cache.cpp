#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "client/server.h"
#include "client/session.h"
#include "engine/ssdm.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "query_helpers.h"

namespace scisparql {
namespace cache {
namespace {

using namespace std::chrono_literals;

constexpr char kSelectScores[] =
    "PREFIX ex: <http://example.org/> "
    "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY ?v";

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:score 10 . ex:b ex:score 20 . ex:c ex:score 30 .
)")
                    .ok());
  }

  uint64_t ObsCount(const std::string& layer, const std::string& event) {
    return obs::DefaultMetrics()
        .GetCounter("ssdm_cache_" + layer + "_" + event + "_total", "", "")
        .Value();
  }

  SSDM db_;
};

TEST_F(CacheTest, PlanCacheHitAfterMiss) {
  CacheCounters before = db_.cache().counters();
  ASSERT_TRUE(Query(db_, kSelectScores).ok());
  CacheCounters after_first = db_.cache().counters();
  EXPECT_EQ(after_first.plan_misses, before.plan_misses + 1);
  EXPECT_EQ(after_first.plan_hits, before.plan_hits);

  auto r = Query(db_, kSelectScores);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  CacheCounters after_second = db_.cache().counters();
  EXPECT_EQ(after_second.plan_hits, after_first.plan_hits + 1);
  EXPECT_EQ(after_second.plan_misses, after_first.plan_misses);
}

TEST_F(CacheTest, PlanCacheNormalizesWhitespaceAndComments) {
  ASSERT_TRUE(Query(db_, kSelectScores).ok());
  CacheCounters before = db_.cache().counters();
  auto r = Query(db_, 
      "PREFIX ex: <http://example.org/>\n"
      "# a comment\n"
      "SELECT   ?s ?v\nWHERE { ?s ex:score ?v }   ORDER BY ?v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(db_.cache().counters().plan_hits, before.plan_hits + 1);
}

TEST(PlanCacheBound, OneEntryMakesRoomAtTheBound) {
  // A client issuing more distinct texts than the bound loses one cached
  // plan per extra text, not the whole cache.
  QueryCache cache;
  const size_t n = QueryCache::kMaxPlans + 1;
  auto key = [](size_t i) { return "text " + std::to_string(i); };
  for (size_t i = 0; i < n; ++i) cache.StorePlan(key(i), {});
  EXPECT_EQ(cache.plan_entries(), QueryCache::kMaxPlans);
  size_t hits = 0;
  QueryCache::CachedPlan plan;
  for (size_t i = 0; i < n; ++i) hits += cache.LookupPlan(key(i), &plan);
  EXPECT_EQ(hits, n - 1);
  // The text stored last is always among the survivors.
  EXPECT_TRUE(cache.LookupPlan(key(n - 1), &plan));
}

TEST_F(CacheTest, ResultCacheHitThenInsertInvalidatesBothLayers) {
  db_.EnableResultCache();
  uint64_t obs_hits = ObsCount("result", "hits");
  uint64_t obs_misses = ObsCount("result", "misses");
  uint64_t obs_inval = ObsCount("result", "invalidations");

  auto cold = Query(db_, kSelectScores);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->rows.size(), 3u);
  EXPECT_EQ(ObsCount("result", "misses"), obs_misses + 1);
  EXPECT_EQ(db_.cache().result_entries(), 1u);

  auto warm = Query(db_, kSelectScores);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->rows.size(), 3u);
  EXPECT_EQ(warm->rows, cold->rows);
  EXPECT_EQ(ObsCount("result", "hits"), obs_hits + 1);

  // A write into the referenced graph must observably invalidate the
  // cached outcome — the counter moves with the INSERT, not the next read.
  CacheCounters pre_write = db_.cache().counters();
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "INSERT DATA { ex:d ex:score 40 }")
                  .ok());
  CacheCounters post_write = db_.cache().counters();
  EXPECT_GT(post_write.result_invalidations, pre_write.result_invalidations);
  EXPECT_GT(ObsCount("result", "invalidations"), obs_inval);
  EXPECT_EQ(db_.cache().result_entries(), 0u);

  // The next read misses and sees the new triple.
  auto fresh = Query(db_, kSelectScores);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 4u);
  EXPECT_EQ(ObsCount("result", "misses"), obs_misses + 2);
}

TEST_F(CacheTest, DeleteInvalidatesCachedResult) {
  db_.EnableResultCache();
  ASSERT_TRUE(Query(db_, kSelectScores).ok());
  ASSERT_EQ(db_.cache().result_entries(), 1u);
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "DELETE WHERE { ex:a ex:score ?v }")
                  .ok());
  EXPECT_EQ(db_.cache().result_entries(), 0u);
  auto r = Query(db_, kSelectScores);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(CacheTest, ClearAllBumpsEpochAndDropsResults) {
  db_.EnableResultCache();
  ASSERT_TRUE(Query(db_, kSelectScores).ok());
  ASSERT_GT(db_.cache().plan_entries(), 0u);
  ASSERT_GT(db_.cache().result_entries(), 0u);
  uint64_t epoch = db_.cache().epoch();
  CacheCounters before = db_.cache().counters();
  ASSERT_TRUE(scisparql::Run(db_, "CLEAR ALL").ok());
  EXPECT_GT(db_.cache().epoch(), epoch);
  EXPECT_EQ(db_.cache().result_entries(), 0u);
  // Parsed ASTs are data-independent and survive the epoch bump; re-running
  // the query is a plan hit but must recompute the (now empty) answer.
  auto r = Query(db_, kSelectScores);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_EQ(db_.cache().counters().plan_hits, before.plan_hits + 1);
}

TEST_F(CacheTest, LoadSnapshotBumpsEpoch) {
  std::string path = std::string(::testing::TempDir()) + "/cache_epoch.ssd";
  ASSERT_TRUE(db_.SaveSnapshot(path).ok());
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "INSERT DATA { ex:d ex:score 40 }")
                  .ok());
  db_.EnableResultCache();
  auto with_insert = Query(db_, kSelectScores);
  ASSERT_TRUE(with_insert.ok());
  ASSERT_EQ(with_insert->rows.size(), 4u);
  uint64_t epoch = db_.cache().epoch();

  // Restoring the pre-INSERT snapshot destroys the graph objects; the
  // cached 4-row outcome must not survive into the restored dataset.
  ASSERT_TRUE(db_.LoadSnapshot(path).ok());
  EXPECT_GT(db_.cache().epoch(), epoch);
  EXPECT_EQ(db_.cache().result_entries(), 0u);
  auto restored = Query(db_, kSelectScores);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows.size(), 3u);
}

TEST_F(CacheTest, EvictionUnderByteBudget) {
  db_.EnableResultCache(/*budget_bytes=*/4096);
  uint64_t obs_evict = ObsCount("result", "evictions");
  // Distinct ~1 KiB constant results: the fifth cannot fit alongside the
  // first four, so the least recently used entries are evicted.
  std::string big(1024, 'x');
  for (int i = 0; i < 6; ++i) {
    std::string q = "SELECT (CONCAT(\"" + std::to_string(i) + "\", \"" + big +
                    "\") AS ?x) WHERE { }";
    ASSERT_TRUE(Query(db_, q).ok());
  }
  EXPECT_GT(db_.cache().counters().result_evictions, 0u);
  EXPECT_GT(ObsCount("result", "evictions"), obs_evict);
  EXPECT_LE(db_.cache().result_bytes(), 4096u);
  EXPECT_LT(db_.cache().result_entries(), 6u);
}

TEST_F(CacheTest, EntryBytesChargeDictionaryResidentStrings) {
  // Two one-row outcomes differing only in lexical payload size: the byte
  // estimate must grow with the string bytes the terms pin (whether held
  // inline or interned in the graph dictionary), not just sizeof(Term).
  std::string long_name(2000, 'n');
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> INSERT DATA { "
                      "ex:short ex:name \"tiny\" . "
                      "ex:long ex:name \"" +
                      long_name + "\" }")
                  .ok());
  db_.EnableResultCache();
  ASSERT_TRUE(Query(db_, "PREFIX ex: <http://example.org/> SELECT ?n WHERE "
                        "{ ex:short ex:name ?n }")
                  .ok());
  size_t small_bytes = db_.cache().result_bytes();
  ASSERT_GT(small_bytes, 0u);
  ASSERT_TRUE(Query(db_, "PREFIX ex: <http://example.org/> SELECT ?n WHERE "
                        "{ ex:long ex:name ?n }")
                  .ok());
  EXPECT_GE(db_.cache().result_bytes(), small_bytes + long_name.size());
}

TEST_F(CacheTest, GraphResidentStringsDriveEvictionAtBudget) {
  // Each result row carries a ~1 KiB string fetched from the graph (so the
  // bytes live in the term dictionary, not in query-text constants). With
  // a 4 KiB budget the six distinct results cannot all stay resident; the
  // budget must notice the string payloads and evict.
  std::string stmt = "PREFIX ex: <http://example.org/> INSERT DATA {";
  for (int i = 0; i < 6; ++i) {
    stmt += " ex:doc" + std::to_string(i) + " ex:body \"" +
            std::string(1024, static_cast<char>('a' + i)) + "\" .";
  }
  stmt += " }";
  ASSERT_TRUE(scisparql::Run(db_, stmt).ok());
  db_.EnableResultCache(/*budget_bytes=*/4096);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Query(db_, "PREFIX ex: <http://example.org/> SELECT ?b WHERE "
                          "{ ex:doc" +
                          std::to_string(i) + " ex:body ?b }")
                    .ok());
  }
  EXPECT_GT(db_.cache().counters().result_evictions, 0u);
  EXPECT_LE(db_.cache().result_bytes(), 4096u);
  EXPECT_LT(db_.cache().result_entries(), 6u);
}

TEST_F(CacheTest, OversizedResultIsNotCached) {
  db_.EnableResultCache(/*budget_bytes=*/128);
  std::string big(1024, 'y');
  ASSERT_TRUE(Query(db_, "SELECT (\"" + big + "\" AS ?x) WHERE { }").ok());
  EXPECT_EQ(db_.cache().result_entries(), 0u);
  EXPECT_EQ(db_.cache().result_bytes(), 0u);
}

TEST_F(CacheTest, NonDeterministicQueriesAreNotCached) {
  db_.EnableResultCache();
  ASSERT_TRUE(Query(db_, "SELECT (RAND() AS ?r) WHERE { }").ok());
  ASSERT_TRUE(Query(db_, "SELECT (RAND() AS ?r) WHERE { }").ok());
  EXPECT_EQ(db_.cache().result_entries(), 0u);
  ASSERT_TRUE(Query(db_, "SELECT (NOW() AS ?t) WHERE { }").ok());
  EXPECT_EQ(db_.cache().result_entries(), 0u);
}

TEST_F(CacheTest, PrepareExecuteTextForm) {
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "PREPARE above(?min) AS "
                      "SELECT ?s WHERE { ?s ex:score ?v . "
                      "FILTER(?v > ?min) } ORDER BY ?s")
                  .ok());
  auto names = db_.cache().PreparedNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "above");

  auto r = Query(db_, "EXECUTE above(15)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0], Term::Iri("http://example.org/b"));
  EXPECT_EQ(r->rows[1][0], Term::Iri("http://example.org/c"));

  // Different argument, different answer — parameters are real bindings.
  auto r2 = Query(db_, "EXECUTE above(25)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 1u);

  // Arity and name errors.
  EXPECT_FALSE(Query(db_, "EXECUTE above(1, 2)").ok());
  EXPECT_FALSE(Query(db_, "EXECUTE nosuch(1)").ok());

  // EXECUTE classifies as a read so the scheduler can run it under the
  // shared engine lock.
  EXPECT_EQ(SSDM::ClassifyStatement("EXECUTE above(15)"),
            sched::StatementClass::kRead);
}

TEST_F(CacheTest, PreparedResultsHitUnderPreparedKey) {
  db_.EnableResultCache();
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "PREPARE above(?min) AS "
                      "SELECT ?s WHERE { ?s ex:score ?v . FILTER(?v > ?min) }")
                  .ok());
  CacheCounters before = db_.cache().counters();
  ASSERT_TRUE(Query(db_, "EXECUTE above(15)").ok());
  ASSERT_TRUE(Query(db_, "EXECUTE above(15)").ok());
  CacheCounters after = db_.cache().counters();
  EXPECT_EQ(after.result_hits, before.result_hits + 1);
  // A different argument is a different key.
  ASSERT_TRUE(Query(db_, "EXECUTE above(25)").ok());
  EXPECT_EQ(db_.cache().counters().result_hits, before.result_hits + 1);
}

TEST_F(CacheTest, RePrepareInvalidatesOldCachedResults) {
  db_.EnableResultCache();
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "PREPARE q(?min) AS "
                      "SELECT ?s WHERE { ?s ex:score ?v . FILTER(?v > ?min) }")
                  .ok());
  auto first = Query(db_, "EXECUTE q(5)");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows.size(), 3u);

  // Re-PREPARE under the same name with a different body: the old cached
  // outcome must not be served (the result key carries the generation).
  ASSERT_TRUE(scisparql::Run(db_, "PREFIX ex: <http://example.org/> "
                      "PREPARE q(?min) AS "
                      "SELECT ?s WHERE { ?s ex:score ?v . FILTER(?v < ?min) }")
                  .ok());
  auto second = Query(db_, "EXECUTE q(5)");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows.size(), 0u);
}

TEST_F(CacheTest, SessionPreparedApi) {
  client::Session session(&db_);
  ASSERT_TRUE(session
                  .Prepare("by_score", {"v"},
                           "PREFIX ex: <http://example.org/> "
                           "SELECT ?s WHERE { ?s ex:score ?v }")
                  .ok());
  auto out = session.ExecutePrepared("by_score", {Term::Integer(20)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->kind(), QueryOutcome::Kind::kRows);
  ASSERT_EQ(out->rows().rows.size(), 1u);
  EXPECT_EQ(out->rows().rows[0][0], Term::Iri("http://example.org/b"));

  auto bad = session.ExecutePrepared("by_score", {});
  EXPECT_FALSE(bad.ok());
}

TEST_F(CacheTest, SchedulerServesCachedReadsOnFastPath) {
  db_.EnableResultCache();
  ASSERT_TRUE(Query(db_, kSelectScores).ok());  // populate

  sched::QueryScheduler sched(&db_);
  Result<QueryOutcome> out = Status::OK();
  std::thread reader([&] { out = sched.Execute(kSelectScores); });
  reader.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->kind(), QueryOutcome::Kind::kRows);
  EXPECT_EQ(out->rows().rows.size(), 3u);
  EXPECT_GE(sched.stats().cache_fast_path, 1u);
}

TEST_F(CacheTest, RemotePreparedRoundTrip) {
  client::SsdmServer server(&db_);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  auto session = *client::RemoteSession::Connect("127.0.0.1", *port);
  ASSERT_TRUE(session
                  .Prepare("above", {"min"},
                           "PREFIX ex: <http://example.org/> "
                           "SELECT ?s WHERE { ?s ex:score ?v . "
                           "FILTER(?v > ?min) } ORDER BY ?s")
                  .ok());
  auto out = session.ExecutePrepared("above", {Term::Integer(15)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->kind(), QueryOutcome::Kind::kRows);
  ASSERT_EQ(out->rows().rows.size(), 2u);
  EXPECT_EQ(out->rows().rows[0][0], Term::Iri("http://example.org/b"));

  // Arity mismatch is reported across the wire, not silently mis-bound.
  auto bad = session.ExecutePrepared("above", {});
  EXPECT_FALSE(bad.ok());
  // So is a name that was never prepared.
  auto missing = session.ExecutePrepared("nosuch", {Term::Integer(1)});
  EXPECT_FALSE(missing.ok());

  server.Stop();
}

// Concurrency stress for TSan: scheduler readers hitting the result cache
// while a writer invalidates it. Exercises the fast-path probe under the
// shared engine lock racing sweeps under the exclusive lock.
TEST_F(CacheTest, ConcurrentReadsRaceWriterStress) {
  db_.EnableResultCache();
  sched::QueryScheduler sched(&db_);

  constexpr int kReaders = 3;
  constexpr int kReadsEach = 25;
  constexpr int kWrites = 10;

  // Reads must always succeed; writes only have to leave the engine
  // consistent.
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsEach; ++i) {
        if (!sched.Execute(kSelectScores).ok()) read_errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      std::ostringstream stmt;
      stmt << "PREFIX ex: <http://example.org/> INSERT DATA { ex:w" << i
           << " ex:other " << i << " }";
      (void)sched.Execute(stmt.str());
      std::this_thread::sleep_for(1ms);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(read_errors.load(), 0);

  auto r = Query(db_, kSelectScores);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
}

}  // namespace
}  // namespace cache
}  // namespace scisparql
