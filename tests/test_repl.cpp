// Replication subsystem end-to-end tests, all in-process over real
// sockets: a durable primary behind an SsdmServer, replica engines driven
// by ReplicaApplier, and client routing through ReplicaRouter.
// Covers: continuous apply + convergence, replica LSN reporting, write
// rejection, result-cache invalidation on apply, snapshot bootstrap after
// WAL truncation, durable-replica restart catch-up from its own store,
// and the router's read-your-writes / fallback behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/server.h"
#include "query_helpers.h"
#include "repl/replica.h"
#include "repl/router.h"
#include "repl/wire.h"
#include "sched/scheduler.h"

namespace scisparql {
namespace {

using std::chrono::milliseconds;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  (void)::system(("rm -rf " + dir).c_str());
  return dir;
}

constexpr const char* kPrefix = "PREFIX ex: <http://example.org/> ";

/// One engine + server, optionally durable, optionally replicating.
struct Node {
  SSDM engine;
  std::unique_ptr<client::SsdmServer> server;
  std::unique_ptr<repl::ReplicaApplier> applier;
  int port = 0;

  Status StartPrimary(const std::string& dir) {
    engine.prefixes().Set("ex", "http://example.org/");
    if (!dir.empty()) {
      Status st = engine.Open(dir);
      if (!st.ok()) return st;
    }
    server = std::make_unique<client::SsdmServer>(&engine);
    auto bound = server->Start(0);
    if (!bound.ok()) return bound.status();
    port = *bound;
    return Status::OK();
  }

  Status StartReplica(int primary_port, const std::string& id,
                      const std::string& dir = "", int poll_ms = 10) {
    engine.prefixes().Set("ex", "http://example.org/");
    if (!dir.empty()) {
      Status st = engine.Open(dir);
      if (!st.ok()) return st;
    }
    server = std::make_unique<client::SsdmServer>(&engine);
    auto bound = server->Start(0);
    if (!bound.ok()) return bound.status();
    port = *bound;
    repl::ReplicaApplier::Options opts;
    opts.replica_id = id;
    opts.primary_port = primary_port;
    opts.poll_interval = milliseconds(poll_ms);
    applier = std::make_unique<repl::ReplicaApplier>(&engine, opts);
    return applier->Start(server->scheduler());
  }

  void Stop() {
    if (applier != nullptr) applier->Stop();
    if (server != nullptr) server->Stop();
  }

  ~Node() { Stop(); }
};

bool WaitCaughtUp(Node* replica, uint64_t lsn, int timeout_ms = 10000) {
  return replica->applier->WaitForLsn(lsn, milliseconds(timeout_ms));
}

TEST(Replication, ReplicasConvergeAndServeReads) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_conv_p")).ok());
  Node r1, r2;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
  ASSERT_TRUE(r2.StartReplica(primary.port, "r2").ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s" +
                         std::to_string(i) + " ex:p " + std::to_string(i) +
                         " }")
                    .ok());
  }
  uint64_t target = primary.engine.last_lsn();
  ASSERT_GT(target, 0u);
  ASSERT_TRUE(WaitCaughtUp(&r1, target));
  ASSERT_TRUE(WaitCaughtUp(&r2, target));
  EXPECT_EQ(r1.engine.last_lsn(), target);
  EXPECT_EQ(r2.engine.last_lsn(), target);

  // Both replicas serve the full dataset through their own servers.
  for (Node* n : {&r1, &r2}) {
    auto session = *client::RemoteSession::Connect("127.0.0.1", n->port);
    auto rows = session.Query(std::string(kPrefix) +
                              "SELECT ?s WHERE { ?s ex:p ?v }");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 20u);
  }

  // The wire probe reports role and LSN.
  auto session = *client::RemoteSession::Connect("127.0.0.1", r1.port);
  auto probe = repl::ProbeLsn(&session);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->replica);
  EXPECT_EQ(probe->lsn, target);

  // REPL statements answer through the normal execute path.
  auto lsn = r1.engine.Execute("REPL LSN");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(std::stoull(lsn->info()), target);
  auto status = r1.engine.Execute("REPL STATUS");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->info().find("role=replica"), std::string::npos);
}

/// `SELECT ?s ?o WHERE { ?s ex:v ?o }` rows, rendered, in subject order.
std::vector<std::string> ValueRows(const sparql::QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) {
    out.push_back(row[0].ToString() + " " + row[1].ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

constexpr const char* kValueQuery =
    "PREFIX ex: <http://example.org/> SELECT ?s ?o WHERE { ?s ex:v ?o }";

TEST(Replication, NumericFormsReadBackAsTheFirstStoredForm) {
  // 2 and 2.0 are one value: the graph stores the first form interned for
  // it, and every path that rebuilds the graph — checkpoint + reopen, a
  // delta fold with compaction, a WAL-shipping replica — reads it back.
  const std::vector<std::string> both_as_int = {
      "<http://example.org/a> 2", "<http://example.org/b> 2"};
  auto run = [](SSDM& db, const std::string& update) {
    return scisparql::Run(db, std::string(kPrefix) + update);
  };
  const std::string dir = FreshDir("repl_forms_p");
  {
    Node primary;
    ASSERT_TRUE(primary.StartPrimary(dir).ok());
    Node r1;
    ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
    ASSERT_TRUE(run(primary.engine, "INSERT DATA { ex:a ex:v 2 }").ok());
    ASSERT_TRUE(run(primary.engine, "INSERT DATA { ex:b ex:v 2.0 }").ok());
    auto live = Query(primary.engine, kValueQuery);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(ValueRows(*live), both_as_int) << "live";

    ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));
    auto session = *client::RemoteSession::Connect("127.0.0.1", r1.port);
    auto replica = session.Query(kValueQuery);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    EXPECT_EQ(ValueRows(*replica), both_as_int) << "replica";

    ASSERT_TRUE(primary.engine.Checkpoint().ok());
  }
  {
    SSDM reopened;
    ASSERT_TRUE(reopened.Open(dir).ok());
    auto rows = Query(reopened, kValueQuery);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(ValueRows(*rows), both_as_int) << "checkpoint + reopen";
    // Deleting in the other form removes b's triple.
    ASSERT_TRUE(run(reopened, "DELETE DATA { ex:b ex:v 2 }").ok());
    rows = Query(reopened, kValueQuery);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(ValueRows(*rows),
              std::vector<std::string>{"<http://example.org/a> 2"});
  }
  {
    // Concurrent writes: the pair lands in the delta, and enough filler
    // churn that the fold compacts the table (rebuilding the dictionary).
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    db.dataset().SetConcurrentWrites(true);
    ASSERT_TRUE(run(db, "INSERT DATA { ex:a ex:v 2 }").ok());
    ASSERT_TRUE(run(db, "INSERT DATA { ex:b ex:v 2.0 }").ok());
    std::string filler;
    for (int i = 0; i < 1100; ++i) {
      filler += "ex:f" + std::to_string(i) + " ex:w " + std::to_string(i) +
                " . ";
    }
    ASSERT_TRUE(run(db, "INSERT DATA { " + filler + "}").ok());
    ASSERT_GT(db.FoldDeltas(), 0u);
    ASSERT_TRUE(run(db, "DELETE DATA { " + filler + "}").ok());
    ASSERT_GT(db.FoldDeltas(), 0u);
    const Graph& g = db.dataset().default_graph();
    EXPECT_EQ(g.id_table().size(), g.size()) << "fold did not compact";
    auto rows = Query(db, kValueQuery);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(ValueRows(*rows), both_as_int) << "fold + compaction";
    ASSERT_TRUE(run(db, "DELETE DATA { ex:b ex:v 2 }").ok());
    rows = Query(db, kValueQuery);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(ValueRows(*rows),
              std::vector<std::string>{"<http://example.org/a> 2"});
  }
}

TEST(Replication, ReplicaRejectsWritesWithPointerToPrimary) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_rej_p")).ok());
  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());

  // Direct engine write, and a write through the replica's server — both
  // must bounce with Unavailable naming the primary, and stick nothing.
  Status direct =
      scisparql::Run(r1.engine, std::string(kPrefix) + "INSERT DATA { ex:x ex:p 1 }");
  EXPECT_EQ(direct.code(), StatusCode::kUnavailable);
  EXPECT_NE(direct.message().find("primary"), std::string::npos);

  auto session = *client::RemoteSession::Connect("127.0.0.1", r1.port);
  Status remote =
      session.Run(std::string(kPrefix) + "INSERT DATA { ex:x ex:p 1 }")
          .status();
  EXPECT_EQ(remote.code(), StatusCode::kUnavailable);

  auto ask = r1.engine.Execute(std::string(kPrefix) + "ASK { ex:x ex:p 1 }");
  ASSERT_TRUE(ask.ok());
  EXPECT_FALSE(ask->ask());

  // CHECKPOINT is a primary-side operation too.
  EXPECT_EQ(r1.engine.Checkpoint().status().code(), StatusCode::kUnavailable);
}

TEST(Replication, ApplyInvalidatesReplicaResultCache) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_cache_p")).ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:a ex:p 1 }")
          .ok());
  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));

  r1.engine.EnableResultCache();
  const std::string q =
      std::string(kPrefix) + "SELECT ?s WHERE { ?s ex:p ?v }";
  auto cold = r1.engine.Execute(q);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->rows().rows.size(), 1u);
  auto warm = r1.engine.Execute(q);  // now cached
  ASSERT_TRUE(warm.ok());

  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:b ex:p 2 }")
          .ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));

  // The applied batch must have swept the cached result — a stale hit
  // here would freeze the replica's reads at bootstrap time.
  auto fresh = r1.engine.Execute(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows().rows.size(), 2u);
}

TEST(Replication, LateJoinerBootstrapsFromSnapshotAfterTruncation) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_boot_p")).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s" +
                         std::to_string(i) + " ex:p " + std::to_string(i) +
                         " }")
                    .ok());
  }
  // Two checkpoints: the first retains the whole WAL as its corruption
  // fallback; the second truncates everything the first snapshot covers.
  // After that a replica starting from LSN 0 can no longer stream history
  // and must take the snapshot path.
  ASSERT_TRUE(primary.engine.Checkpoint().ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:extra ex:q 1 }")
          .ok());
  ASSERT_TRUE(primary.engine.Checkpoint().ok());

  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));
  EXPECT_EQ(r1.applier->bootstraps(), 1u);

  auto rows = r1.engine.Execute(std::string(kPrefix) +
                                "SELECT ?s WHERE { ?s ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows().rows.size(), 10u);

  // The stream continues past the bootstrap point.
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:z ex:p 99 }")
          .ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));
  auto ask = r1.engine.Execute(std::string(kPrefix) + "ASK { ex:z ex:p 99 }");
  ASSERT_TRUE(ask.ok());
  EXPECT_TRUE(ask->ask());
}

TEST(Replication, DurableReplicaRestartsAndCatchesUpFromItsOwnStore) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_restart_p")).ok());
  std::string rdir = FreshDir("repl_restart_r");
  uint64_t lsn_at_stop = 0;
  {
    Node r1;
    ASSERT_TRUE(r1.StartReplica(primary.port, "r1", rdir).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s" +
                           std::to_string(i) + " ex:p " + std::to_string(i) +
                           " }")
                      .ok());
    }
    ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));
    lsn_at_stop = r1.engine.last_lsn();
    r1.Stop();  // "kill" the replica mid-stream
  }

  // The primary keeps writing while the replica is down.
  for (int i = 8; i < 16; ++i) {
    ASSERT_TRUE(scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s" +
                         std::to_string(i) + " ex:p " + std::to_string(i) +
                         " }")
                    .ok());
  }

  // Restart from the replica's own directory: local recovery must land at
  // the last applied LSN, and the stream resumes from there — no snapshot
  // bootstrap needed because the primary's WAL still reaches back.
  Node r2;
  ASSERT_TRUE(r2.StartReplica(primary.port, "r1", rdir).ok());
  EXPECT_GE(r2.engine.last_lsn(), lsn_at_stop);
  ASSERT_TRUE(WaitCaughtUp(&r2, primary.engine.last_lsn()));
  EXPECT_EQ(r2.applier->bootstraps(), 0u);

  auto rows = r2.engine.Execute(std::string(kPrefix) +
                                "SELECT ?s WHERE { ?s ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows().rows.size(), 16u);
}

// ---------------------------------------------------------------------------
// Router behavior.
// ---------------------------------------------------------------------------

TEST(Replication, RouterSendsWritesToPrimaryAndReadsToReplicas) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_route_p")).ok());
  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());

  auto router = repl::ReplicaRouter::Connect(
      {"127.0.0.1", primary.port}, {{"127.0.0.1", r1.port}});
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  for (int i = 0; i < 10; ++i) {
    auto w = router->Run(std::string(kPrefix) + "INSERT DATA { ex:s" +
                         std::to_string(i) + " ex:p " + std::to_string(i) +
                         " }");
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    EXPECT_GT(router->last_write_lsn(), 0u);
    // Read-your-writes: the immediately following read must see the
    // write, whether a replica caught up in time or the primary answered.
    auto rows = router->Query(std::string(kPrefix) + "SELECT ?v WHERE { ex:s" +
                              std::to_string(i) + " ex:p ?v }");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
    EXPECT_EQ(rows->rows[0][0], Term::Integer(i));
  }
  EXPECT_EQ(router->stats().writes, 10u);
  EXPECT_EQ(router->stats().primary_reads + router->stats().replica_reads,
            10u);
}

TEST(Replication, RouterFallsBackToPrimaryWhenReplicaCannotReachLsn) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_stale_p")).ok());

  // A "replica" that reports LSNs but never applies: an engine put in
  // replica mode by hand, with no applier attached. Its LSN stays 0, so
  // any positive min-LSN read must skip it.
  Node stuck;
  stuck.engine.prefixes().Set("ex", "http://example.org/");
  stuck.engine.EnterReplicaMode("nowhere:0");
  stuck.server = std::make_unique<client::SsdmServer>(&stuck.engine);
  auto bound = stuck.server->Start(0);
  ASSERT_TRUE(bound.ok());
  stuck.port = *bound;

  repl::ReplicaRouter::RouterOptions opts;
  opts.staleness_wait = milliseconds(100);
  auto router = repl::ReplicaRouter::Connect(
      {"127.0.0.1", primary.port}, {{"127.0.0.1", stuck.port}}, opts);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  ASSERT_TRUE(
      router->Run(std::string(kPrefix) + "INSERT DATA { ex:a ex:p 1 }").ok());
  ASSERT_GT(router->last_write_lsn(), 0u);

  auto rows = router->Query(std::string(kPrefix) +
                            "SELECT ?v WHERE { ex:a ex:p ?v }");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);  // never pre-update state
  EXPECT_GT(router->stats().stale_skips, 0u);
  EXPECT_EQ(router->stats().primary_reads, 1u);
  EXPECT_EQ(router->stats().replica_reads, 0u);
}

TEST(Replication, RouterRoutesAroundDeadReplica) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_dead_p")).ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:a ex:p 1 }")
          .ok());
  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));

  repl::ReplicaRouter::RouterOptions opts;
  opts.read_your_writes = false;  // plain round-robin for this test
  auto router = repl::ReplicaRouter::Connect(
      {"127.0.0.1", primary.port},
      {{"127.0.0.1", r1.port}, {"127.0.0.1", 1}},  // port 1: nothing there
      opts);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Every read lands somewhere alive; the dead endpoint is quarantined
  // after its first failure instead of failing queries.
  for (int i = 0; i < 6; ++i) {
    auto rows = router->Query(std::string(kPrefix) +
                              "SELECT ?v WHERE { ex:a ex:p ?v }");
    ASSERT_TRUE(rows.ok()) << i << ": " << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 1u);
  }
  EXPECT_EQ(router->stats().replica_reads, 6u);
}

TEST(Replication, ReplicaRebasesMidStreamAfterTruncation) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_rebase_p")).ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s0 ex:p 0 }")
          .ok());

  // Slow poll: once caught up the applier sleeps ~1.5s, giving the
  // primary a window to write AND truncate its WAL so the replica's next
  // fetch — on the SAME established session, not a fresh connect — is
  // answered OutOfRange and must re-base mid-stream.
  std::string rdir = FreshDir("repl_rebase_r");
  Node r1;
  ASSERT_TRUE(
      r1.StartReplica(primary.port, "r1", rdir, /*poll_ms=*/1500).ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));
  EXPECT_EQ(r1.applier->bootstraps(), 0u);
  // Let the applier reach its inter-poll sleep before racing it.
  std::this_thread::sleep_for(milliseconds(100));

  for (int i = 1; i <= 9; ++i) {
    ASSERT_TRUE(scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:s" +
                         std::to_string(i) + " ex:p " + std::to_string(i) +
                         " }")
                    .ok());
  }
  // Same truncation idiom as the late-joiner test: the second checkpoint
  // drops every WAL segment the first snapshot covers, so the replica's
  // resume LSN is no longer streamable.
  ASSERT_TRUE(primary.engine.Checkpoint().ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:extra ex:q 1 }")
          .ok());
  ASSERT_TRUE(primary.engine.Checkpoint().ok());

  uint64_t target = primary.engine.last_lsn();
  ASSERT_TRUE(WaitCaughtUp(&r1, target, 20000));
  EXPECT_EQ(r1.applier->bootstraps(), 1u);
  auto rows = r1.engine.Execute(std::string(kPrefix) +
                                "SELECT ?s WHERE { ?s ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows().rows.size(), 10u);

  uint64_t lsn_at_stop = r1.engine.last_lsn();
  r1.Stop();

  // The primary keeps writing while the re-based replica is down.
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:z ex:p 99 }")
          .ok());

  // Durable-replica restart AFTER a mid-stream re-base: local recovery
  // lands on the bootstrap snapshot, and the stream resumes by LSN with
  // no second bootstrap.
  Node r2;
  ASSERT_TRUE(r2.StartReplica(primary.port, "r1", rdir).ok());
  EXPECT_GE(r2.engine.last_lsn(), lsn_at_stop);
  ASSERT_TRUE(WaitCaughtUp(&r2, primary.engine.last_lsn()));
  EXPECT_EQ(r2.applier->bootstraps(), 0u);
  rows = r2.engine.Execute(std::string(kPrefix) +
                           "SELECT ?s WHERE { ?s ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows().rows.size(), 11u);
}

TEST(Replication, ReplicaDiesAndRejoinsMidRotation) {
  Node primary;
  ASSERT_TRUE(primary.StartPrimary(FreshDir("repl_rejoin_p")).ok());
  ASSERT_TRUE(
      scisparql::Run(primary.engine, std::string(kPrefix) + "INSERT DATA { ex:a ex:p 1 }")
          .ok());
  Node r1;
  ASSERT_TRUE(r1.StartReplica(primary.port, "r1").ok());
  ASSERT_TRUE(WaitCaughtUp(&r1, primary.engine.last_lsn()));

  repl::ReplicaRouter::RouterOptions opts;
  opts.read_your_writes = false;
  opts.health_backoff = milliseconds(200);
  auto router = repl::ReplicaRouter::Connect(
      {"127.0.0.1", primary.port}, {{"127.0.0.1", r1.port}}, opts);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const std::string q =
      std::string(kPrefix) + "SELECT ?v WHERE { ex:a ex:p ?v }";
  auto read_ok = [&]() {
    auto rows = router->Query(q);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 1u);
  };

  read_ok();
  EXPECT_EQ(router->stats().replica_reads, 1u);
  EXPECT_EQ(router->stats().quarantined, 0u);

  // Kill the replica mid-rotation: the next read fails over to the
  // primary and the endpoint is quarantined (strikes -> 1, 200ms).
  r1.applier->Stop();
  r1.server->Stop();
  read_ok();
  EXPECT_GE(router->stats().failovers, 1u);
  EXPECT_EQ(router->stats().quarantined, 1u);

  // A failed redial after the quarantine expires escalates the backoff
  // (strikes -> 2, 400ms) — the replica is still down.
  std::this_thread::sleep_for(milliseconds(250));
  read_ok();
  EXPECT_EQ(router->stats().quarantined, 1u);

  // Rejoin on the SAME port (SO_REUSEADDR): a fresh server over the same
  // engine. After the escalated window passes, the redial succeeds, the
  // strike count resets, and the endpoint is back in rotation.
  r1.server = std::make_unique<client::SsdmServer>(&r1.engine);
  auto rebound = r1.server->Start(r1.port);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  ASSERT_EQ(*rebound, r1.port);
  std::this_thread::sleep_for(milliseconds(450));
  uint64_t replica_reads_before = router->stats().replica_reads;
  read_ok();
  EXPECT_GT(router->stats().replica_reads, replica_reads_before);
  EXPECT_EQ(router->stats().quarantined, 0u);

  // Strike reset is observable in the timing: a second death quarantines
  // for the BASE window again (200ms, not the escalated 800ms).
  r1.server->Stop();
  read_ok();  // quarantines again
  EXPECT_EQ(router->stats().quarantined, 1u);
  r1.server = std::make_unique<client::SsdmServer>(&r1.engine);
  rebound = r1.server->Start(r1.port);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  std::this_thread::sleep_for(milliseconds(250));
  replica_reads_before = router->stats().replica_reads;
  read_ok();
  EXPECT_GT(router->stats().replica_reads, replica_reads_before);
  EXPECT_EQ(router->stats().quarantined, 0u);
}

}  // namespace
}  // namespace scisparql
