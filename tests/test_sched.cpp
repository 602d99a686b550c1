#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/session.h"
#include "engine/ssdm.h"
#include "sched/query_context.h"
#include "sched/scheduler.h"

namespace scisparql {
namespace sched {
namespace {

using namespace std::chrono_literals;

class SchedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:val 1 . ex:b ex:val 2 . ex:c ex:val 3 . ex:d ex:val 4 .
)")
                    .ok());
  }

  /// Adds `n` extra ex:val triples so per-solution interrupt checks (which
  /// are amortized) actually fire.
  void LoadManyRows(int n) {
    std::ostringstream ttl;
    ttl << "@prefix ex: <http://example.org/> .\n";
    for (int i = 0; i < n; ++i) {
      ttl << "ex:row" << i << " ex:val " << i << " .\n";
    }
    ASSERT_TRUE(db_.LoadTurtleString(ttl.str()).ok());
  }

  /// Registers ex:nap(?x): sleeps `ms` per call, returns its argument.
  /// Models a blocking external-storage / foreign-computation call.
  void RegisterNap(int ms) {
    db_.RegisterForeign(
        "http://example.org/nap",
        [ms](std::span<const Term> args) -> Result<Term> {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          return args[0];
        },
        1);
  }

  SSDM db_;
};

TEST_F(SchedTest, ClassifyStatement) {
  using SC = StatementClass;
  EXPECT_EQ(SSDM::ClassifyStatement("SELECT * WHERE { ?s ?p ?o }"),
            SC::kRead);
  EXPECT_EQ(SSDM::ClassifyStatement("  ask { ?s ?p ?o }"), SC::kRead);
  EXPECT_EQ(SSDM::ClassifyStatement("CONSTRUCT { ?s ?p ?o } WHERE {}"),
            SC::kRead);
  EXPECT_EQ(SSDM::ClassifyStatement("DESCRIBE <http://x>"), SC::kRead);
  EXPECT_EQ(SSDM::ClassifyStatement("INSERT DATA { <a> <b> 1 }"),
            SC::kWrite);
  EXPECT_EQ(SSDM::ClassifyStatement("DELETE WHERE { ?s ?p ?o }"),
            SC::kWrite);
  // Statements that mutate engine or dataset structure take the lock
  // exclusively.
  EXPECT_EQ(SSDM::ClassifyStatement("LOAD <file.ttl>"), SC::kExclusive);
  EXPECT_EQ(SSDM::ClassifyStatement("DEFINE FUNCTION ex:f(?x) AS SELECT ?x"),
            SC::kExclusive);
  EXPECT_EQ(SSDM::ClassifyStatement("CLEAR ALL"), SC::kExclusive);
  EXPECT_EQ(SSDM::ClassifyStatement("CHECKPOINT"), SC::kExclusive);
  EXPECT_EQ(SSDM::ClassifyStatement(
                "WITH <http://g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }"),
            SC::kWrite);
  // Prolog, comments and odd casing must not confuse the classifier.
  EXPECT_EQ(SSDM::ClassifyStatement(
                "# a comment mentioning INSERT\n"
                "PREFIX select: <http://example.org/>\n"
                "BASE <http://base/>\n"
                "sElEcT ?s WHERE { ?s ?p ?o }"),
            SC::kRead);
  EXPECT_EQ(SSDM::ClassifyStatement(
                "PREFIX ex: <http://example.org/> INSERT DATA { ex:a ex:b 1 }"),
            SC::kWrite);
  // Garbage / empty statements are conservatively treated as exclusive.
  EXPECT_EQ(SSDM::ClassifyStatement(""), SC::kExclusive);
  EXPECT_EQ(SSDM::ClassifyStatement("42"), SC::kExclusive);
}

TEST_F(SchedTest, ExecutesReadsAndWrites) {
  SchedulerOptions options;
  options.workers = 2;
  QueryScheduler sched(&db_, options);

  auto rows = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?s WHERE { ?s ex:val ?v } ORDER BY ?v");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows().rows.size(), 4u);

  auto update = sched.Execute(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:e ex:val 5 }");
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  auto ask = sched.Execute(
      "PREFIX ex: <http://example.org/> ASK { ex:e ex:val 5 }");
  ASSERT_TRUE(ask.ok());
  EXPECT_TRUE(ask->ask());

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_NE(stats.ToString().find("admitted=3"), std::string::npos);
  EXPECT_NE(stats.ToString().find("rejected=0"), std::string::npos);
}

TEST_F(SchedTest, ReadsRunInParallelUnderSharedLock) {
  // Two queries each block in a foreign function until BOTH have entered
  // it. With one worker (or an exclusive lock) this would deadlock until
  // the barrier times out; with two workers and a shared read lock both
  // queries are inside the engine simultaneously and release each other.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  db_.RegisterForeign(
      "http://example.org/barrier",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        if (!cv.wait_for(lock, 5s, [&] { return arrived >= 2; })) {
          return Status::Internal("barrier timeout: reads did not overlap");
        }
        return args[0];
      },
      1);

  SchedulerOptions options;
  options.workers = 2;
  QueryScheduler sched(&db_, options);
  const std::string q =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:barrier(1) AS ?x) WHERE { }";
  auto f1 = std::async(std::launch::async, [&] { return sched.Execute(q); });
  auto f2 = std::async(std::launch::async, [&] { return sched.Execute(q); });
  auto r1 = f1.get();
  auto r2 = f2.get();
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST_F(SchedTest, FullQueueRejectsWithUnavailable) {
  // One worker, queue of one. A gated query occupies the worker, a second
  // waits in the queue, and the third must be rejected cleanly.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  db_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        return args[0];
      },
      1);

  SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  QueryScheduler sched(&db_, options);
  const std::string slow =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }";

  Status s1, s2;
  std::thread t1([&] { s1 = sched.Execute(slow).status(); });
  {  // Wait until the worker is actually busy inside the gate.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return entered; }));
  }
  std::thread t2([&] { s2 = sched.Execute(slow).status(); });
  while (sched.stats().queue_depth < 1) std::this_thread::sleep_for(1ms);

  Status overloaded = sched.Execute(slow).status();
  EXPECT_EQ(overloaded.code(), StatusCode::kUnavailable);
  EXPECT_NE(overloaded.message().find("overloaded"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  t1.join();
  t2.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(s2.ok()) << s2.ToString();

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SchedTest, DeadlineExceededMidQuery) {
  // 300 result rows, 1 ms of simulated external latency each: far beyond
  // the 25 ms budget. The executor's per-solution interrupt checks must
  // stop the query early with DeadlineExceeded — and release the shared
  // lock so a subsequent write still goes through.
  LoadManyRows(300);
  RegisterNap(1);
  QueryScheduler sched(&db_);

  QueryRequest req(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
  req.timeout = 25ms;
  auto start = std::chrono::steady_clock::now();
  auto r = sched.Execute(std::move(req));
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, 3s);  // stopped early, not after all 300+ naps

  auto write = sched.Execute(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:after ex:val 99 }");
  EXPECT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_GE(sched.stats().timed_out, 1u);
}

TEST_F(SchedTest, DeadlineExceededOnPathologicalPropertyPath) {
  // knows+ over a dense ring: the transitive closure touches every node
  // from every origin (~360k visits) without ever re-entering the BGP
  // loop, so the valve inside the closure expansion must catch the
  // deadline.
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  constexpr int kNodes = 600;
  for (int i = 0; i < kNodes; ++i) {
    ttl << "ex:n" << i << " ex:knows ex:n" << (i + 1) % kNodes << " .\n";
    ttl << "ex:n" << i << " ex:knows ex:n" << (i + 13) % kNodes << " .\n";
  }
  ASSERT_TRUE(db_.LoadTurtleString(ttl.str()).ok());

  QueryScheduler sched(&db_);
  QueryRequest req(
      "PREFIX ex: <http://example.org/> "
      "SELECT (COUNT(*) AS ?n) WHERE { ?x ex:knows+ ?y }");
  req.timeout = 2ms;
  auto start = std::chrono::steady_clock::now();
  auto r = sched.Execute(std::move(req));
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, 2s);
  // Lock released: the same query without a deadline still completes.
  auto full = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "SELECT (COUNT(*) AS ?n) WHERE { ex:n0 ex:knows+ ?y }");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->rows().rows[0][0], Term::Integer(kNodes));
}

TEST_F(SchedTest, ExpiredBeforeDequeueNeverTouchesEngine) {
  // One worker held inside a gated read; a write with a tiny timeout
  // expires while still queued and must never touch the engine.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  db_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait_for(lock, 5s, [&] { return release; });
        return args[0];
      },
      1);
  SchedulerOptions options;
  options.workers = 1;
  QueryScheduler sched(&db_, options);
  Status gated;
  std::thread reader([&] {
    gated = sched
                .Execute("PREFIX ex: <http://example.org/> "
                         "SELECT (ex:gate(1) AS ?x) WHERE { }")
                .status();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return entered; }));
  }
  QueryRequest req(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:z ex:val 0 }");
  req.timeout = 1ms;
  Status expired;
  std::thread writer(
      [&] { expired = sched.Execute(std::move(req)).status(); });
  while (sched.stats().queue_depth < 1) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(20ms);  // let the queued write's deadline pass
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  reader.join();
  writer.join();
  EXPECT_TRUE(gated.ok()) << gated.ToString();
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  // The write was dropped before execution.
  auto ask = sched.Execute(
      "PREFIX ex: <http://example.org/> ASK { ex:z ex:val 0 }");
  ASSERT_TRUE(ask.ok());
  EXPECT_FALSE(ask->ask());
  EXPECT_EQ(sched.stats().timed_out, 1u);
}

TEST_F(SchedTest, DefaultTimeoutApplied) {
  LoadManyRows(300);
  RegisterNap(1);
  SchedulerOptions options;
  options.default_timeout = 25ms;
  QueryScheduler sched(&db_, options);
  auto r = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SchedTest, CooperativeCancellation) {
  LoadManyRows(500);
  RegisterNap(2);
  QueryScheduler sched(&db_);
  auto cancel = std::make_shared<std::atomic<bool>>(false);

  auto future = std::async(std::launch::async, [&] {
    QueryRequest req(
        "PREFIX ex: <http://example.org/> "
        "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
    req.cancel = cancel;
    return sched.Execute(std::move(req));
  });
  std::this_thread::sleep_for(50ms);
  cancel->store(true);
  auto r = future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
  EXPECT_EQ(sched.stats().cancelled, 1u);
}

TEST_F(SchedTest, WritersSerializedAgainstReaders) {
  // Invariant: every ex:item has exactly one ex:state triple. A writer
  // flips all states in single atomic statements while readers count; a
  // reader overlapping a half-applied update would observe != 100.
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 100; ++i) {
    ttl << "ex:item" << i << " ex:state \"a\" .\n";
  }
  ASSERT_TRUE(db_.LoadTurtleString(ttl.str()).ok());

  SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  QueryScheduler sched(&db_, options);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_counts{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto r = sched.Execute(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:state ?st }");
        if (!r.ok()) continue;  // overload is acceptable, torn state is not
        if (r->rows().rows[0][0] != Term::Integer(100)) ++bad_counts;
      }
    });
  }

  const char* flip[2] = {
      "PREFIX ex: <http://example.org/> "
      "DELETE { ?s ex:state \"a\" } INSERT { ?s ex:state \"b\" } "
      "WHERE { ?s ex:state \"a\" }",
      "PREFIX ex: <http://example.org/> "
      "DELETE { ?s ex:state \"b\" } INSERT { ?s ex:state \"a\" } "
      "WHERE { ?s ex:state \"b\" }"};
  for (int i = 0; i < 20; ++i) {
    auto w = sched.Execute(flip[i % 2]);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
  }
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_counts.load(), 0);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.writes, 20u);
  EXPECT_GE(stats.reads, 1u);
}

TEST_F(SchedTest, StopFailsQueuedWorkCleanly) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  db_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait_for(lock, 5s, [&] { return release; });
        return args[0];
      },
      1);
  SchedulerOptions options;
  options.workers = 1;
  auto sched = std::make_unique<QueryScheduler>(&db_, options);
  const std::string slow =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }";
  std::thread running([&] { (void)sched->Execute(slow); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return entered; }));
  }
  Status queued;
  std::thread waiting([&] { queued = sched->Execute(slow).status(); });
  while (sched->stats().queue_depth < 1) std::this_thread::sleep_for(1ms);
  std::thread stopper([&] {
    std::this_thread::sleep_for(50ms);
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  sched->Stop();  // must fail the still-queued statement, not hang
  stopper.join();
  running.join();
  waiting.join();
  EXPECT_EQ(queued.code(), StatusCode::kUnavailable);

  // Executing after Stop is a clean rejection.
  Status after = sched->Execute(slow).status();
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
}

TEST_F(SchedTest, SessionQueryTimeout) {
  // The embedded (non-server) path: Session::set_query_timeout threads a
  // deadline into the executor the same way the scheduler does.
  LoadManyRows(300);
  RegisterNap(1);
  client::Session session(&db_);
  session.set_query_timeout(25ms);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SchedTest, ReadOnlyEngineRejectsWritesKeepsReads) {
  SchedulerOptions options;
  options.workers = 1;
  QueryScheduler sched(&db_, options);
  db_.EnterReadOnly("media failure (test)");

  // Writers bounce at admission with the degradation reason...
  auto update = sched.Execute(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:z ex:val 9 }");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(update.status().message().find("read-only"), std::string::npos);

  // ...while reads keep being served.
  auto rows = sched.Execute(
      "PREFIX ex: <http://example.org/> SELECT ?v WHERE { ex:a ex:val ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows().rows.size(), 1u);
  EXPECT_GE(sched.stats().rejected, 1u);
}

TEST_F(SchedTest, Sp2bShapesAgreeAcrossThreadsWhileAWriterCommits) {
  // The eight SP2Bench read shapes on a small DBLP-shaped graph, from four
  // reader threads under the scheduler while a writer commits batches the
  // queries do not select (a journal no query names), so every scan merges
  // a pending delta. Every answer must equal the single-threaded one.
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int j = 0; j < 4; ++j) {
    ttl << "ex:journal_" << j << " ex:title \"Journal " << j << "\" .\n";
  }
  for (int a = 0; a < 120; ++a) {
    ttl << "ex:article_" << a << " a ex:Article ; ex:title \"Article " << a
        << "\" ; ex:issued " << 1990 + a % 7 << " ; ex:journal ex:journal_"
        << a % 4 << " ; ex:creator ex:person_" << a % 37 << ", ex:person_"
        << (a * 7) % 37;
    if (a % 3 != 0) ttl << " ; ex:month " << 1 + a % 12;
    ttl << " .\n";
  }
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 20; ++i) {
      ttl << "ex:paper_" << k << "_" << i << " ex:partOf ex:proc_" << k
          << " .\n";
    }
  }
  for (int p = 0; p < 37; ++p) {
    ttl << "ex:person_" << p << " ex:name \"Person " << p << "\" .\n";
  }
  ASSERT_TRUE(db_.LoadTurtleString(ttl.str()).ok());

  std::vector<std::string> queries;
  for (int j = 0; j < 4; ++j) {
    const std::string pre = "PREFIX ex: <http://example.org/> ";
    const std::string jn = "ex:journal_" + std::to_string(j);
    queries.push_back(pre + "SELECT ?a ?t ?y WHERE { ?a a ex:Article ; "
                      "ex:journal " + jn + " ; ex:title ?t ; ex:issued ?y } "
                      "ORDER BY DESC(?y) ?t LIMIT 10");
    queries.push_back(pre + "SELECT ?a ?n WHERE { ?jn ex:title \"Journal " +
                      std::to_string(j) + "\" . ?a ex:journal ?jn . "
                      "?a ex:creator ?p . ?p ex:name ?n }");
    queries.push_back(pre + "SELECT ?a ?m WHERE { ?a ex:journal " + jn +
                      " . OPTIONAL { ?a ex:month ?m } }");
    queries.push_back(pre + "SELECT ?a WHERE { ?a ex:journal " + jn +
                      " . OPTIONAL { ?a ex:month ?m } FILTER (!bound(?m)) }");
    queries.push_back(pre + "SELECT ?x WHERE { { ?x ex:journal " + jn +
                      " } UNION { ?x ex:partOf ex:proc_" +
                      std::to_string(j % 2) + " } }");
    queries.push_back(pre + "SELECT DISTINCT ?p WHERE { ?a ex:journal " + jn +
                      " ; ex:creator ?p }");
    queries.push_back(pre + "ASK { ?a ex:journal " + jn +
                      " ; ex:creator ex:person_" + std::to_string(j * 5) +
                      " }");
    queries.push_back(pre + "SELECT ?y (COUNT(?a) AS ?n) WHERE { ?a "
                      "ex:journal " + jn + " ; ex:issued ?y } GROUP BY ?y");
  }
  auto render = [](const QueryOutcome& out) {
    if (out.kind() == QueryOutcome::Kind::kAsk) {
      return std::string(out.ask() ? "true" : "false");
    }
    std::vector<std::string> rows;
    for (const auto& row : out.rows().rows) {
      std::string r;
      for (const Term& t : row) r += t.ToString() + " ";
      rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end());
    std::string all;
    for (const std::string& r : rows) all += r + "\n";
    return all;
  };
  std::vector<std::string> want;
  for (const std::string& q : queries) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    want.push_back(render(*r));
  }

  SchedulerOptions options;
  options.workers = 4;
  QueryScheduler sched(&db_, options);
  std::atomic<bool> readers_done{false};
  std::atomic<int> commits{0};
  std::thread writer([&] {
    for (int i = 0; !readers_done.load(); ++i, ++commits) {
      const std::string noise =
          "ex:noise_" + std::to_string(i % 8) +
          " ex:journal ex:journal_9 ; ex:creator ex:person_1 ; "
          "ex:month 4 ; ex:issued 1991";
      const std::string verb = i % 16 < 8 ? "INSERT" : "DELETE";
      auto r = sched.Execute("PREFIX ex: <http://example.org/> " + verb +
                             " DATA { " + noise + " }");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (commits.load() < 2) std::this_thread::yield();
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const size_t at = (q + static_cast<size_t>(t) * 5) % queries.size();
          auto r = sched.Execute(queries[at]);
          if (!r.ok() || render(*r) != want[at]) ++mismatches;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  readers_done = true;
  writer.join();
  sched.Stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(commits.load(), 2);
}

TEST_F(SchedTest, ExecuteRunsOnTheCallersThread) {
  std::thread::id ran_on;
  db_.RegisterForeign(
      "http://example.org/where",
      [&](std::span<const Term> args) -> Result<Term> {
        ran_on = std::this_thread::get_id();
        return args[0];
      },
      1);
  QueryScheduler sched(&db_);
  auto r = sched.Execute(
      "PREFIX ex: <http://example.org/> SELECT (ex:where(1) AS ?x) WHERE { }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST_F(SchedTest, AtMostWorkersStatementsInsideTheEngine) {
  // Six callers, two slots: each statement stays inside the engine for
  // 50 ms, and no more than two are ever inside at once.
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  db_.RegisterForeign(
      "http://example.org/occupy",
      [&](std::span<const Term> args) -> Result<Term> {
        int now = ++inside;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(50ms);
        --inside;
        return args[0];
      },
      1);
  SchedulerOptions options;
  options.workers = 2;
  QueryScheduler sched(&db_, options);
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 6; ++i) {
    callers.emplace_back([&] {
      auto r = sched.Execute(
          "PREFIX ex: <http://example.org/> "
          "SELECT (ex:occupy(1) AS ?x) WHERE { }");
      if (r.ok()) ++ok;
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ok.load(), 6);
  EXPECT_EQ(peak.load(), 2);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SchedTest, ExclusiveGetsInWhileReadsRunBackToBack) {
  // Four threads keep the shared side of the engine lock held almost
  // without a gap. The lock prefers writers, so an exclusive section still
  // gets in promptly every time.
  LoadManyRows(2000);
  QueryScheduler sched(&db_);
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto r = sched.Execute(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:val ?v }");
        if (r.ok()) ++reads;
      }
    });
  }
  while (reads.load() < 20) std::this_thread::sleep_for(1ms);
  for (int i = 0; i < 20; ++i) {
    auto start = std::chrono::steady_clock::now();
    Status st = sched.ExecuteExclusive([](SSDM*) { return Status::OK(); });
    auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(st.ok());
    EXPECT_LT(waited, 500ms) << "exclusive request " << i;
    std::this_thread::sleep_for(2ms);
  }
  stop = true;
  for (auto& t : readers) t.join();
}

TEST_F(SchedTest, CacheProbeReleasesTheSharedLockBeforeRunning) {
  // With the result cache on, every read first probes it under a
  // try_lock_shared. The probe must let go before the statement takes the
  // shared side again: the lock prefers writers, so a thread holding it
  // twice deadlocks as soon as an exclusive request queues between the two
  // takes. Misses (a new text each time) while exclusive requests arrive
  // back to back make that interleaving likely.
  LoadManyRows(200);
  db_.EnableResultCache();
  QueryScheduler sched(&db_);
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  auto work = std::async(std::launch::async, [&] {
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (int i = 0; !stop.load(); ++i) {
          auto r = sched.Execute(
              "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:val "
              "?v FILTER(?v > " +
              std::to_string(t * 1000000 + i) + ") }");
          if (r.ok()) ++reads;
        }
      });
    }
    int exclusive = 0;
    for (auto until = std::chrono::steady_clock::now() + 1s;
         std::chrono::steady_clock::now() < until; ++exclusive) {
      sched.ExecuteExclusive([](SSDM*) { return Status::OK(); });
    }
    stop = true;
    for (auto& t : readers) t.join();
    return exclusive;
  });
  if (work.wait_for(30s) != std::future_status::ready) {
    // Deadlocked threads cannot be joined; end the run with a message.
    std::fprintf(stderr, "deadlock: reads and exclusive sections stuck\n");
    std::abort();
  }
  EXPECT_GT(work.get(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace sched
}  // namespace scisparql
