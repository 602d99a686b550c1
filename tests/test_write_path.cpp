// Mixed reader/writer tests for the concurrent write path: differential
// index snapshot semantics at the Graph layer, escalation and compaction
// through the scheduler, and group commit at the WAL layer. This is the
// suite CI runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/durability.h"
#include "engine/ssdm.h"
#include "query_helpers.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/write_batch.h"
#include "sched/scheduler.h"

namespace scisparql {
namespace {

using namespace std::chrono_literals;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  (void)::system(("rm -rf " + dir).c_str());
  return dir;
}

Term I(const std::string& local) {
  return Term::Iri("http://example.org/" + local);
}

std::multiset<std::string> Snapshot(const Graph& g, uint64_t epoch) {
  std::multiset<std::string> out;
  g.MatchAt(epoch, Term(), Term(), Term(), [&](const Triple& t) {
    out.insert(t.s.ToString() + " " + t.p.ToString() + " " + t.o.ToString());
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Graph-level snapshot semantics.
// ---------------------------------------------------------------------------

TEST(WritePath, SnapshotEpochFreezesReadsWhileLaterBatchesCommit) {
  Graph g;
  g.Add(I("a"), I("p"), Term::Integer(1));
  g.SetConcurrentWrites(true);

  uint64_t epoch = g.SnapshotEpoch();
  std::multiset<std::string> before = Snapshot(g, epoch);

  WriteBatch b;
  b.Add(I("b"), I("p"), Term::Integer(2));
  b.RemoveAll(Triple{I("a"), I("p"), Term::Integer(1)});
  g.Apply(std::move(b));

  // The old epoch still sees exactly the pre-batch contents...
  EXPECT_EQ(Snapshot(g, epoch), before);
  // ...while the current epoch sees the whole batch.
  std::multiset<std::string> after = Snapshot(g, g.SnapshotEpoch());
  EXPECT_EQ(after.size(), 1u);
  EXPECT_NE(after.begin()->find("/b"), std::string::npos);
}

TEST(WritePath, ReadersNeverObserveAPartialBatch) {
  // Writer commits batches that remove one marker triple and add another;
  // the invariant "exactly one marker" can only break if a reader sees a
  // batch prefix.
  Graph g;
  g.SetConcurrentWrites(true);
  g.Add(I("m0"), I("marker"), Term::Integer(0));

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int markers = 0;
        g.Match(Term(), I("marker"), Term(), [&](const Triple&) {
          ++markers;
          return true;
        });
        if (markers != 1) ++torn;
      }
    });
  }
  for (int i = 1; i <= 200; ++i) {
    WriteBatch b;
    b.RemoveAll(
        Triple{I("m" + std::to_string(i - 1)), I("marker"),
               Term::Integer(i - 1)});
    b.Add(I("m" + std::to_string(i)), I("marker"), Term::Integer(i));
    g.Apply(std::move(b));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_TRUE(
      g.Contains(I("m200"), I("marker"), Term::Integer(200)));
}

TEST(WritePath, DeleteThenInsertInOneBatchNetsOneCopy) {
  Graph g;
  g.Add(I("s"), I("p"), Term::Integer(7));
  g.SetConcurrentWrites(true);

  // The DELETE/INSERT WHERE compilation shape: remove the copy, re-add it.
  WriteBatch b;
  b.RemoveAll(Triple{I("s"), I("p"), Term::Integer(7)});
  b.Add(I("s"), I("p"), Term::Integer(7));
  g.Apply(std::move(b));

  size_t copies = 0;
  g.Match(I("s"), I("p"), Term::Integer(7), [&](const Triple&) {
    ++copies;
    return true;
  });
  EXPECT_EQ(copies, 1u);
  EXPECT_EQ(g.size(), 1u);

  // And folding the delta must preserve exactly that.
  g.FoldDelta();
  EXPECT_FALSE(g.HasDelta());
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.Contains(I("s"), I("p"), Term::Integer(7)));
}

TEST(WritePath, MatchAgreesWithReferenceScanAcrossDeltaStates) {
  // Drive one graph through base-only, delta-pending, and folded states
  // and compare every pattern shape against a naive reference scan.
  Graph g;
  for (int i = 0; i < 8; ++i) {
    g.Add(I("s" + std::to_string(i % 3)), I("p" + std::to_string(i % 2)),
          Term::Integer(i));
  }
  g.SetConcurrentWrites(true);
  WriteBatch b;
  b.RemoveAll(Triple{I("s0"), I("p0"), Term::Integer(0)});
  b.Add(I("s9"), I("p0"), Term::Integer(99));
  b.Add(I("s0"), I("p1"), Term::Integer(100));
  g.Apply(std::move(b));

  auto check = [&](const char* stage) {
    std::vector<Triple> all;
    g.ForEach([&](const Triple& t) { all.push_back(t); });
    const Term pats_s[] = {Term(), I("s0"), I("s9"), I("missing")};
    const Term pats_p[] = {Term(), I("p0"), I("p1")};
    const Term pats_o[] = {Term(), Term::Integer(99), Term::Integer(1)};
    for (const Term& s : pats_s) {
      for (const Term& p : pats_p) {
        for (const Term& o : pats_o) {
          std::multiset<std::string> expect;
          for (const Triple& t : all) {
            if (!s.IsUndef() && !(t.s == s)) continue;
            if (!p.IsUndef() && !(t.p == p)) continue;
            if (!o.IsUndef() && !(t.o == o)) continue;
            expect.insert(t.s.ToString() + t.p.ToString() + t.o.ToString());
          }
          std::multiset<std::string> got;
          g.Match(s, p, o, [&](const Triple& t) {
            got.insert(t.s.ToString() + t.p.ToString() + t.o.ToString());
            return true;
          });
          EXPECT_EQ(got, expect)
              << stage << " pattern (" << s.ToString() << " " << p.ToString()
              << " " << o.ToString() << ")";
        }
      }
    }
  };
  ASSERT_TRUE(g.HasDelta());
  check("delta-pending");
  g.FoldDelta();
  check("folded");
}

// ---------------------------------------------------------------------------
// Delta-aware ID-space scans: the fast path must survive pending deltas.
// ---------------------------------------------------------------------------

/// ID-join vs scan-and-bind equivalence across every delta state, for star
/// and chain BGPs (the sweep the ID path must win without regressing
/// correctness). Runs under TSan in CI like the rest of this file.
TEST(WritePath, IdJoinMatchesScanAndBindAcrossDeltaStates) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 24; ++i) {
    ttl << "ex:s" << i << " ex:p ex:o" << (i % 6) << " .\n";
    ttl << "ex:s" << i << " ex:q " << (i % 4) << " .\n";
    ttl << "ex:o" << (i % 6) << " ex:r ex:t" << (i % 3) << " .\n";
  }
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());
  db.dataset().SetConcurrentWrites(true);

  const std::vector<std::string> queries = {
      // Star join.
      "PREFIX ex: <http://example.org/> "
      "SELECT ?s ?o ?v WHERE { ?s ex:p ?o . ?s ex:q ?v }",
      // Chain join.
      "PREFIX ex: <http://example.org/> "
      "SELECT ?s ?t WHERE { ?s ex:p ?o . ?o ex:r ?t }",
      // Star with a base-resident constant.
      "PREFIX ex: <http://example.org/> "
      "SELECT ?s ?o WHERE { ?s ex:p ?o . ?s ex:q 2 }",
      // Star with a constant that only ever exists in the delta.
      "PREFIX ex: <http://example.org/> "
      "SELECT ?s ?o WHERE { ?s ex:p ?o . ?s ex:q 7 }",
  };
  auto row_key = [](const std::vector<Term>& row) {
    std::string k;
    for (const Term& t : row) k += t.ToString() + "\x1f";
    return k;
  };
  auto check_all = [&](const char* stage) {
    for (const std::string& q : queries) {
      db.exec_options().use_id_joins = true;
      auto a = Query(db, q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      db.exec_options().use_id_joins = false;
      auto b = Query(db, q);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      db.exec_options().use_id_joins = true;
      std::multiset<std::string> id_rows, scan_rows;
      for (const auto& r : a->rows) id_rows.insert(row_key(r));
      for (const auto& r : b->rows) scan_rows.insert(row_key(r));
      EXPECT_EQ(id_rows, scan_rows) << stage << ": " << q;
    }
  };

  auto& g = db.dataset().default_graph();
  ASSERT_FALSE(g.HasDelta());
  check_all("empty delta");

  // Pending inserts, including terms the base has never seen (7, ex:onew).
  ASSERT_TRUE(scisparql::Run(db,
                  "PREFIX ex: <http://example.org/> INSERT DATA { "
                  "ex:n1 ex:p ex:o2 . ex:n1 ex:q 7 . ex:n2 ex:p ex:onew . "
                  "ex:onew ex:r ex:t9 . ex:n2 ex:q 2 }")
                  .ok());
  ASSERT_TRUE(g.HasDelta());
  check_all("pending inserts");

  // Pending tombstones over base rows.
  ASSERT_TRUE(scisparql::Run(db,
                  "PREFIX ex: <http://example.org/> DELETE DATA { "
                  "ex:s0 ex:p ex:o0 . ex:s1 ex:q 1 }")
                  .ok());
  check_all("pending tombstones");

  // Mixed: tombstone a delta-inserted row, re-insert a tombstoned base row
  // twice (multiplicity through a cleared cell).
  ASSERT_TRUE(
      scisparql::Run(
          db,
          "PREFIX ex: <http://example.org/> DELETE DATA { ex:n1 ex:p ex:o2 }")
          .ok());
  ASSERT_TRUE(scisparql::Run(db,
                  "PREFIX ex: <http://example.org/> INSERT DATA { "
                  "ex:s0 ex:p ex:o0 . ex:s0 ex:p ex:o0 }")
                  .ok());
  ASSERT_TRUE(g.HasDelta());
  check_all("mixed");

  // Post-compaction: the fold retires the delta runs with the cells.
  db.dataset().FoldDeltas();
  ASSERT_FALSE(g.HasDelta());
  check_all("post-compaction");
}

/// Readers running multi-pattern BGPs through the ID path race four writers
/// committing deltas (satellite: the epoch captured at BGP entry must bound
/// every scan — a batch landing between constant lowering and
/// EnsureIdIndexes must not leak post-snapshot rows). The flip statements
/// keep the per-snapshot invariant COUNT == 60 detectable if a scan ever
/// mixes epochs; the churn writers grow the dictionary concurrently so TSan
/// sees interning race materialization.
TEST(WritePath, IdJoinReadersHoldFastPathWhileWritersCommit) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 60; ++i) {
    ttl << "ex:item" << i << " ex:state \"a\" .\n";
    ttl << "ex:item" << i << " ex:kind ex:widget .\n";
  }
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());

  sched::SchedulerOptions options;
  options.workers = 6;
  options.queue_capacity = 1024;
  options.compact_interval = 1h;  // keep the delta pending for the whole run
  options.compact_threshold = 1;
  sched::QueryScheduler sched(&db, options);

  const std::string count_q =
      "PREFIX ex: <http://example.org/> "
      "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:state ?st . "
      "?s ex:kind ex:widget }";

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = sched.Execute(count_q);
        if (!res.ok()) continue;  // overload is fine, torn state is not
        if (res->rows().rows[0][0] != Term::Integer(60)) ++bad;
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
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 12; ++i) {
        // Two writers flip states; two insert brand-new terms so the
        // dictionary grows under the readers' feet.
        std::string q =
            (w < 2) ? flip[w % 2]
                    : "PREFIX ex: <http://example.org/> INSERT DATA { ex:w" +
                          std::to_string(w) + " ex:tick " +
                          std::to_string(w * 1000 + i) + " }";
        auto r = sched.Execute(q);
        if (!r.ok()) --i;  // queue-full: retry
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);

  // The whole run executed against a pending delta (the compactor never
  // fired), and the plan must still be the ID path with delta-merged scans
  // — not the old whole-query fallback to term scans.
  ASSERT_GT(db.PendingDeltaOps(), 0u);
  auto out = db.Execute("EXPLAIN ANALYZE " + count_q);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->info().find("index-scan("), std::string::npos) << out->info();
  EXPECT_NE(out->info().find("+delta"), std::string::npos) << out->info();
}

/// Property-path readers under concurrent writers: the ring's edge
/// ex:n5 -> ex:n6 is swapped, one whole batch at a time, for the detour
/// ex:n5 -> ex:m -> ex:n7 and back, so from ex:n0 exactly one of ex:n6
/// and ex:m is reachable at every snapshot. Seeing neither or both means a
/// closure mixed epochs or crossed a tombstoned base edge.
TEST(WritePath, PathReadersSeeWholeBatchesWhileWritersCommit) {
  SSDM db;
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 40; ++i) {
    ttl << "ex:n" << i << " ex:next ex:n" << (i + 1) % 40 << " .\n";
  }
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());

  sched::SchedulerOptions options;
  options.workers = 6;
  options.queue_capacity = 1024;
  options.compact_interval = 1h;  // keep the delta pending for the whole run
  options.compact_threshold = 1;
  sched::QueryScheduler sched(&db, options);

  const std::string prefix = "PREFIX ex: <http://example.org/> ";
  const std::string reach_q =
      prefix + "SELECT ?y WHERE { ex:n0 ex:next+ ?y "
               "FILTER (?y = ex:n6 || ?y = ex:m) }";
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = sched.Execute(reach_q);
        if (!res.ok()) continue;  // overload is fine, torn state is not
        if (res->rows().rows.size() != 1) ++bad;
      }
    });
  }

  const std::string swap[2] = {
      prefix + "DELETE { ex:n5 ex:next ex:n6 } "
               "INSERT { ex:n5 ex:next ex:m . ex:m ex:next ex:n7 } "
               "WHERE { ex:n5 ex:next ex:n6 }",
      prefix + "DELETE { ex:n5 ex:next ex:m . ex:m ex:next ex:n7 } "
               "INSERT { ex:n5 ex:next ex:n6 } "
               "WHERE { ex:n5 ex:next ex:m }"};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 15; ++i) {
        // Two writers swap the edge; one grows the dictionary.
        std::string q = w < 2 ? swap[w]
                              : prefix + "INSERT DATA { ex:t ex:tick " +
                                    std::to_string(i) + " }";
        auto r = sched.Execute(q);
        if (!r.ok()) --i;  // queue-full: retry
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  ASSERT_GT(db.PendingDeltaOps(), 0u);
}

/// A path over two unbound ends reads the node universe of its snapshot.
/// Each of its pairs runs a second such path, which pins a later snapshot
/// whenever a writer has committed in between. The writer keeps exactly
/// one ex:tick literal in the graph, so the outer path, both of whose
/// branches range over its own snapshot's nodes, binds ?x to exactly one
/// literal. Two mean a branch read the inner path's newer universe.
TEST(WritePath, PathUniverseHoldsItsSnapshotWhileWritersCommit) {
  SSDM db;
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n"
      << "ex:w ex:tick 0 . ex:r0 ex:r ex:r1 .\n";
  for (int i = 0; i < 60; ++i) ttl << "ex:n" << i << " ex:s ex:n" << i << " .\n";
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());

  sched::SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  options.compact_interval = 1h;  // keep the delta pending for the whole run
  options.compact_threshold = 1;
  sched::QueryScheduler sched(&db, options);

  const std::string prefix = "PREFIX ex: <http://example.org/> ";
  const std::string q = prefix +
                        "SELECT DISTINCT ?x WHERE { ?x (ex:p*|ex:q*) ?y . "
                        "?a ex:r* ?b }";
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = sched.Execute(q);
        if (!res.ok()) continue;  // overload is fine, torn state is not
        int literals = 0;
        for (const auto& row : res->rows().rows) {
          if (row[0].IsLiteral()) ++literals;
        }
        if (literals != 1) ++bad;
        ++answered;
      }
    });
  }
  std::thread writer([&] {
    for (int i = 1; i <= 200; ++i) {
      std::string w = prefix + "DELETE { ex:w ex:tick ?v } INSERT { ex:w "
                      "ex:tick " + std::to_string(i) +
                      " } WHERE { ex:w ex:tick ?v }";
      if (!sched.Execute(w).ok()) --i;  // queue-full: retry
    }
  });
  writer.join();
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(answered.load(), 0);
}

/// Raw dictionary torture: writers intern overlapping and disjoint terms
/// while readers resolve ids lock-free; every published id must round-trip.
TEST(WritePath, DictionaryServesReadersWhileWritersIntern) {
  TermDictionary d;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&d, w] {
      for (int i = 0; i < 4000; ++i) {
        d.Intern(Term::Integer(i));  // contended: both writers race these
        d.Intern(Term::String("w" + std::to_string(w) + "-" +
                              std::to_string(i)));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&d, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        size_t n = d.size();
        if (n == 0) continue;
        // term() is lock-free; any id below size() must already be
        // published and must round-trip through Find.
        const Term& t = d.term(static_cast<uint32_t>(n - 1));
        auto id = d.Find(t);
        if (!id.has_value() || *id >= d.size()) std::abort();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(d.size(), 4000u + 2u * 4000u);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(d.Find(Term::Integer(i)).has_value()) << i;
  }
}

// ---------------------------------------------------------------------------
// Engine + scheduler: mixed readers and writers, escalation, compaction.
// ---------------------------------------------------------------------------

TEST(WritePath, MixedReadersAndWritersKeepAtomicStatementInvariant) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 60; ++i) {
    ttl << "ex:item" << i << " ex:state \"a\" .\n";
  }
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());

  sched::SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  options.compact_interval = 2ms;  // make compaction race the scans
  options.compact_threshold = 32;
  sched::QueryScheduler sched(&db, options);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = sched.Execute(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:state ?st }");
        if (!res.ok()) continue;  // overload is fine, torn state is not
        if (res->rows().rows[0][0] != Term::Integer(60)) ++bad;
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
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 15; ++i) {
        auto r = sched.Execute(flip[w % 2]);
        if (!r.ok()) --i;  // queue-full: retry
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  auto count = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:state ?st }");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows().rows[0][0], Term::Integer(60));
}

TEST(WritePath, CompactorFoldsDeltasWhileSchedulerRuns) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  sched::SchedulerOptions options;
  options.workers = 2;
  options.compact_interval = 1ms;
  options.compact_threshold = 8;
  uint64_t compactions = 0;
  {
    sched::QueryScheduler sched(&db, options);
    for (int i = 0; i < 64; ++i) {
      auto r = sched.Execute(
          "PREFIX ex: <http://example.org/> INSERT DATA { ex:s" +
          std::to_string(i) + " ex:p " + std::to_string(i) + " }");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    // Wait for the compactor to catch up rather than sleeping blind.
    auto deadline = std::chrono::steady_clock::now() + 5s;
    while (db.PendingDeltaOps() >= options.compact_threshold &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(2ms);
    }
    EXPECT_LT(db.PendingDeltaOps(), options.compact_threshold);
    compactions = sched.stats().compactions;
    EXPECT_GE(compactions, 1u);
    sched.Stop();
  }
  // Stop() ends concurrent-write mode and folds the remainder.
  EXPECT_EQ(db.PendingDeltaOps(), 0u);
  auto rows = Query(db,
                    "PREFIX ex: <http://example.org/> "
                    "SELECT ?s WHERE { ?s ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 64u);
}

TEST(WritePath, GraphCreatingWriteEscalatesToExclusive) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  sched::QueryScheduler sched(&db);
  // The named graph does not exist: the shared-lock attempt must bounce
  // with FailedPrecondition internally and re-run exclusively.
  auto r = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "WITH <http://example.org/g> INSERT { ex:a ex:p 1 } WHERE { }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(sched.stats().escalated, 1u);
  // Second write to the now-existing graph stays on the shared path.
  uint64_t escalated = sched.stats().escalated;
  auto r2 = sched.Execute(
      "PREFIX ex: <http://example.org/> "
      "WITH <http://example.org/g> INSERT { ex:b ex:p 2 } WHERE { }");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(sched.stats().escalated, escalated);
}

// ---------------------------------------------------------------------------
// Durable engine: group commit and recovery.
// ---------------------------------------------------------------------------

TEST(WritePath, GroupCommitFsyncsSubLinearInCommittedBatches) {
  std::string dir = FreshDir("wp_group_commit");
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.Open(dir).ok());

  sched::SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  sched::QueryScheduler sched(&db, options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 40;
  std::vector<std::thread> writers;
  std::atomic<int> committed{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto r = sched.Execute(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:w" +
            std::to_string(w) + "_" + std::to_string(i) + " ex:p 1 }");
        if (r.ok()) {
          ++committed;
          EXPECT_GT(std::get<QueryOutcome::UpdateCount>(r->value).lsn, 0u)
              << "durable update must ack a commit LSN";
        } else {
          --i;  // queue-full: retry
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(committed.load(), kWriters * kPerWriter);

  storage::WalWriter* wal = db.durability()->wal();
  ASSERT_NE(wal, nullptr);
  EXPECT_GE(wal->appends(), static_cast<uint64_t>(kWriters * kPerWriter));
  // The whole point of group commit: far fewer fsyncs than batches. With
  // 4 concurrent writers the leader coalesces followers, so even a
  // conservative bound (80%) would only fail if commits never coalesced.
  EXPECT_LT(wal->fsyncs(), wal->appends());
}

TEST(WritePath, ConcurrentWritesSurviveReopen) {
  std::string dir = FreshDir("wp_reopen");
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 25;
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.Open(dir).ok());
    sched::SchedulerOptions options;
    options.workers = 4;
    options.queue_capacity = 1024;
    sched::QueryScheduler sched(&db, options);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          auto r = sched.Execute(
              "PREFIX ex: <http://example.org/> INSERT DATA { ex:w" +
              std::to_string(w) + "_" + std::to_string(i) + " ex:val " +
              std::to_string(i) + " }");
          if (!r.ok()) --i;
        }
      });
    }
    for (auto& t : writers) t.join();
    sched.Stop();
  }
  SSDM reopened;
  reopened.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(reopened.Open(dir).ok());
  auto rows = Query(reopened,
                    "PREFIX ex: <http://example.org/> "
                    "SELECT ?s WHERE { ?s ex:val ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(),
            static_cast<size_t>(kWriters * kPerWriter));
}

}  // namespace
}  // namespace scisparql
