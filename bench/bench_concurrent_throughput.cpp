// Concurrent-scheduler throughput: queries/sec of the sched::QueryScheduler
// at 1, 2, 4 and 8 execution slots over a mixed read workload.
//
// The workload models the SSDM mediator scenario (Section 5.1 / Chapter 6):
// part of each client's query mix is pure in-memory SPARQL (joins,
// aggregates over the RDF graph), and part fetches array data through a
// *foreign* call whose latency is dominated by the external array store
// (modeled here as a fixed blocking wait, like a file-system or network
// round-trip). Reads run under the scheduler's shared lock, so several
// slots overlap those waits — which is exactly where the concurrency
// pays off, including on a single-core host. Pure-CPU throughput is
// reported separately for transparency: on one core it cannot exceed 1x.
//
// Output: a table plus machine-readable JSON lines ("RESULT {...}").
//
// --replicas N switches to the replication read-scaling mode: one durable
// primary plus 1..N WAL-streaming replicas, 16 ReplicaRouter clients
// fanning reads across the replicas while a writer drives updates through
// the primary. Reports aggregate read qps per replica count and the
// replica lag observed under write load, and writes BENCH_repl.json.
// --smoke shrinks the run and asserts the scaling/convergence gates.

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "client/server.h"
#include "engine/durability.h"
#include "engine/ssdm.h"
#include "repl/replica.h"
#include "repl/router.h"
#include "sched/scheduler.h"
#include "storage/vfs.h"
#include "storage/wal.h"

namespace scisparql {
namespace {

using bench::Fmt;
using bench::Json;
using bench::Table;
using bench::Timer;

constexpr int kPeople = 400;
constexpr int kClients = 8;
constexpr int kQueriesPerRun = 240;
constexpr int kFetchLatencyMs = 4;

void BuildGraph(SSDM* db) {
  Graph& g = db->dataset().default_graph();
  const std::string ns = "http://example.org/";
  Term knows = Term::Iri(ns + "knows");
  Term age = Term::Iri(ns + "age");
  for (int i = 0; i < kPeople; ++i) {
    Term p = Term::Iri(ns + "p" + std::to_string(i));
    g.Add(p, age, Term::Integer(20 + i % 60));
    g.Add(p, knows, Term::Iri(ns + "p" + std::to_string((i + 1) % kPeople)));
    g.Add(p, knows, Term::Iri(ns + "p" + std::to_string((i + 7) % kPeople)));
  }
  // The "external array store": a foreign function whose cost is I/O wait,
  // not CPU. Each call blocks like a chunk fetch from a back-end DBMS.
  db->RegisterForeign(
      "http://example.org/fetch",
      [](std::span<const Term> args) -> Result<Term> {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kFetchLatencyMs));
        return args[0];
      },
      1, /*cost=*/100.0);
}

std::vector<std::string> MixedWorkload() {
  const std::string prolog = "PREFIX ex: <http://example.org/> ";
  std::vector<std::string> mix = {
      // I/O-bound: metadata lookup + simulated array-chunk fetch.
      prolog + "SELECT (ex:fetch(?a) AS ?v) WHERE { ex:p1 ex:age ?a }",
      // CPU-bound: two-hop join.
      prolog + "SELECT (COUNT(*) AS ?n) WHERE "
               "{ ?x ex:knows ?y . ?y ex:knows ?z }",
      // I/O-bound again (different subject, defeats any caching).
      prolog + "SELECT (ex:fetch(?a) AS ?v) WHERE { ex:p2 ex:age ?a }",
      // CPU-bound: aggregate with a filter.
      prolog + "SELECT (AVG(?a) AS ?m) WHERE "
               "{ ?x ex:age ?a FILTER(?a > 40) }",
  };
  return mix;
}

/// Closed loop: kClients threads issue `total` queries round-robin from
/// `mix` through the scheduler. Returns wall-clock qps.
double RunWorkload(SSDM* db, int workers, const std::vector<std::string>& mix,
                   int total, int* errors) {
  sched::SchedulerOptions options;
  options.workers = workers;
  options.queue_capacity = 1024;
  sched::QueryScheduler sched(db, options);

  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        auto r = sched.Execute(mix[i % mix.size()]);
        if (!r.ok()) ++failed;
      }
    });
  }
  for (auto& t : clients) t.join();
  double elapsed_ms = timer.ElapsedMs();
  *errors = failed.load();
  return total / (elapsed_ms / 1000.0);
}

// ---------------------------------------------------------------------------
// Write-path group-commit mode (--mixed).
// ---------------------------------------------------------------------------

/// VfsFile wrapper that makes Sync() cost a fixed wall-clock latency, like
/// a real disk's flush. Without this, an in-page-cache fsync is so cheap
/// that group commit has nothing to coalesce and the bench measures noise.
class SlowSyncFile : public storage::VfsFile {
 public:
  SlowSyncFile(std::unique_ptr<storage::VfsFile> base,
               std::chrono::microseconds delay)
      : base_(std::move(base)), delay_(delay) {}
  Result<size_t> ReadAt(uint64_t off, void* buf, size_t n) override {
    return base_->ReadAt(off, buf, n);
  }
  Status WriteAt(uint64_t off, const void* buf, size_t n) override {
    return base_->WriteAt(off, buf, n);
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    std::this_thread::sleep_for(delay_);
    return base_->Sync();
  }

 private:
  std::unique_ptr<storage::VfsFile> base_;
  std::chrono::microseconds delay_;
};

class SlowSyncVfs : public storage::Vfs {
 public:
  SlowSyncVfs(storage::Vfs* base, std::chrono::microseconds delay)
      : base_(base), delay_(delay) {}
  Result<std::unique_ptr<storage::VfsFile>> Open(const std::string& path,
                                                 OpenMode mode) override {
    auto f = base_->Open(path, mode);
    if (!f.ok()) return f.status();
    return std::unique_ptr<storage::VfsFile>(
        new SlowSyncFile(std::move(*f), delay_));
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  bool Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  storage::Vfs* base_;
  std::chrono::microseconds delay_;
};

struct WriteRunResult {
  int writers = 0;
  double update_qps = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t appends = 0;
  uint64_t escalated = 0;
  int errors = 0;
};

/// One measurement: `writers` client threads drive single-triple INSERTs
/// through the scheduler of a durable engine (fsyncs cost ~1.5 ms via
/// SlowSyncVfs) while two readers count triples continuously — the mixed
/// workload the differential index + group commit were built for.
WriteRunResult RunWriteWorkload(int writers, int total_updates) {
  WriteRunResult out;
  out.writers = writers;

  static SlowSyncVfs vfs(storage::DefaultVfs(),
                         std::chrono::microseconds(1500));
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  std::string dir =
      bench::TempDir("write_bench_w" + std::to_string(writers));
  Status open = db.Open(dir, &vfs);
  if (!open.ok()) {
    std::fprintf(stderr, "open failed: %s\n", open.ToString().c_str());
    out.errors = total_updates;
    return out;
  }

  sched::SchedulerOptions options;
  options.workers = writers + 2;  // writers plus the readers
  options.queue_capacity = 1024;
  sched::QueryScheduler sched(&db, options);

  storage::WalWriter* wal = db.durability()->wal();
  uint64_t fsyncs0 = wal->fsyncs();
  uint64_t appends0 = wal->appends();

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load(std::memory_order_acquire)) {
        (void)sched.Execute(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:val ?v }");
      }
    });
  }

  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  std::atomic<uint64_t> commits{0};
  Timer timer;
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&] {
      for (int i = next.fetch_add(1); i < total_updates;
           i = next.fetch_add(1)) {
        auto r = sched.Execute(
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:u" +
            std::to_string(i) + " ex:val " + std::to_string(i) + " }");
        if (r.ok()) {
          commits.fetch_add(1);
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double elapsed_ms = timer.ElapsedMs();
  stop_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  out.update_qps = total_updates / (elapsed_ms / 1000.0);
  out.commits = commits.load();
  out.fsyncs = wal->fsyncs() - fsyncs0;
  out.appends = wal->appends() - appends0;
  out.escalated = sched.stats().escalated;
  out.errors = failed.load();
  sched.Stop();
  return out;
}

// ---------------------------------------------------------------------------
// Read-during-write measurement (part of --mixed): delta-aware ID scans.
// ---------------------------------------------------------------------------

constexpr int kReadBenchEntities = 3000;

struct ReadDuringWriteResult {
  double qps = 0;
  int errors = 0;
  size_t pending_delta = 0;
};

/// Read qps of a two-pattern star BGP through the scheduler while
/// `writers` threads commit a sustained insert/delete stream (0: the
/// engine is quiescent). `analyze_out` (may be null) receives EXPLAIN
/// ANALYZE of the read query captured while a delta is pending.
ReadDuringWriteResult RunReadsUnderWrites(SSDM* db, int writers,
                                          int total_reads,
                                          std::string* analyze_out) {
  ReadDuringWriteResult out;

  sched::SchedulerOptions options;
  options.workers = 8;
  options.queue_capacity = 1024;
  // Production compaction cadence: the delta is pending essentially all
  // the time under this write rate, but stays bounded, so the reads
  // measure merging a production-sized delta rather than one that grows
  // with the length of the run.
  options.compact_interval = std::chrono::milliseconds(10);
  options.compact_threshold = 512;
  sched::QueryScheduler sched(db, options);

  const std::string prolog = "PREFIX ex: <http://example.org/> ";
  const std::string read_q =
      prolog +
      "SELECT (COUNT(*) AS ?n) WHERE { ?x ex:knows ?y . ?x ex:age ?a }";

  // Churn on the same predicates the reads scan, so every scan genuinely
  // merges delta rows — but over a bounded subject set (insert/delete
  // pairs), so compaction folds a constant-size base instead of an
  // ever-growing one.
  auto churn_triples = [](int w, int k) {
    std::string s = "ex:w" + std::to_string(w) + "_" + std::to_string(k % 16);
    return s + " ex:age " + std::to_string(20 + k % 60) + " . " + s +
           " ex:knows ex:e" + std::to_string(k % kReadBenchEntities);
  };
  auto churn_insert = [&](int w, int k) {
    return prolog + "INSERT DATA { " + churn_triples(w, k) + " }";
  };
  auto churn_delete = [&](int w, int k) {
    return prolog + "DELETE DATA { " + churn_triples(w, k) + " }";
  };
  // Prime a pending delta so even the first read sees one.
  if (writers > 0) (void)sched.Execute(churn_insert(99, 0));

  std::atomic<bool> stop_writers{false};
  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      for (int k = 0; !stop_writers.load(std::memory_order_acquire); ++k) {
        (void)sched.Execute(churn_insert(w, k));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        if (stop_writers.load(std::memory_order_acquire)) break;
        (void)sched.Execute(churn_delete(w, k));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  Timer timer;
  std::vector<std::thread> readers;
  for (int c = 0; c < 4; ++c) {
    readers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < total_reads;
           i = next.fetch_add(1)) {
        auto r = sched.Execute(read_q);
        if (!r.ok()) ++failed;
      }
    });
  }
  for (auto& t : readers) t.join();
  double elapsed_ms = timer.ElapsedMs();
  stop_writers.store(true, std::memory_order_release);
  for (auto& t : writer_threads) t.join();

  out.pending_delta = db->PendingDeltaOps();
  if (analyze_out != nullptr) {
    // Re-arm a small pending delta (below the compact threshold, so the
    // compactor leaves it alone) and capture the plan with the scheduler
    // otherwise idle: the scans must still merge the delta runs.
    (void)sched.Execute(churn_insert(99, 1));
    auto a = db->Execute("EXPLAIN ANALYZE " + read_q);
    *analyze_out = a.ok() ? a->info() : a.status().ToString();
  }
  out.qps = total_reads / (elapsed_ms / 1000.0);
  out.errors = failed.load();
  sched.Stop();
  return out;
}

/// Lowest accepted ratio of read qps under 4 writers to read qps on the
/// same engine with the writers stopped and the delta folded. On a 4-vCPU
/// guest (RelWithDebInfo) 15 lone runs read 0.65-0.94 and 12 runs inside
/// `ctest -j4` read 0.63-0.81 when each side was one 60-read window; the
/// floor sits a quarter below the lowest.
constexpr double kReadUnderWritesFloor = 0.45;

/// Alternating windows per side: loaded, quiescent, loaded, ... so a slow
/// stretch of the host lands on both sides rather than on one.
constexpr int kReadWindows = 4;

/// Builds the read-bench engine, measures ID-join reads in alternating
/// windows under 4 writers and quiescent with the delta folded,
/// prints/gates the ratio of the two sides' pooled qps and appends to
/// `runs_json`. Returns non-zero if a gate failed.
int RunReadDuringWriteBench(bool smoke, std::string* runs_json) {
  const int window_reads = smoke ? 80 : 300;
  const int total_reads = kReadWindows * window_reads;  // per side

  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  Graph& g = db.dataset().default_graph();
  const std::string ns = "http://example.org/";
  Term knows = Term::Iri(ns + "knows");
  Term age = Term::Iri(ns + "age");
  for (int i = 0; i < kReadBenchEntities; ++i) {
    Term p = Term::Iri(ns + "e" + std::to_string(i));
    g.Add(p, age, Term::Integer(20 + i % 60));
    g.Add(p, knows,
          Term::Iri(ns + "e" + std::to_string((i + 1) % kReadBenchEntities)));
    g.Add(p, knows,
          Term::Iri(ns + "e" + std::to_string((i + 7) % kReadBenchEntities)));
  }

  std::printf("\nread-during-write workload: %d two-pattern star reads "
              "per side in %d alternating windows, 4 reader threads, with 4 "
              "writer threads and a pending delta, then quiescent with the "
              "delta folded\n",
              total_reads, kReadWindows);

  std::string plan;
  ReadDuringWriteResult loaded, quiet;
  double loaded_s = 0, quiet_s = 0;
  for (int w = 0; w < kReadWindows; ++w) {
    ReadDuringWriteResult l = RunReadsUnderWrites(
        &db, /*writers=*/4, window_reads, w == 0 ? &plan : nullptr);
    db.FoldDeltas();
    ReadDuringWriteResult q =
        RunReadsUnderWrites(&db, /*writers=*/0, window_reads, nullptr);
    loaded_s += window_reads / l.qps;
    quiet_s += window_reads / q.qps;
    loaded.errors += l.errors;
    quiet.errors += q.errors;
    loaded.pending_delta = std::max(loaded.pending_delta, l.pending_delta);
    quiet.pending_delta = std::max(quiet.pending_delta, q.pending_delta);
  }
  loaded.qps = total_reads / loaded_s;
  quiet.qps = total_reads / quiet_s;

  double ratio = quiet.qps > 0 ? loaded.qps / quiet.qps : 0;
  bool plan_kept_id_path = plan.find("index-scan(") != std::string::npos &&
                           plan.find("+delta") != std::string::npos;
  std::printf("  under 4 writers:   %8.1f qps (%zu delta ops pending)\n",
              loaded.qps, loaded.pending_delta);
  std::printf("  quiescent:         %8.1f qps (%zu delta ops pending)\n",
              quiet.qps, quiet.pending_delta);
  std::printf("  ratio: %.2fx; plan under writes: %s\n", ratio,
              plan_kept_id_path ? "ID path with +delta scans" : plan.c_str());

  std::string line =
      Json()
          .Str("bench", "read_during_write")
          .Int("reads", total_reads)
          .Num("under_writes_qps", loaded.qps)
          .Num("quiescent_qps", quiet.qps)
          .Num("ratio_to_quiescent", ratio)
          .Num("floor", kReadUnderWritesFloor)
          .Int("under_writes_pending_delta", (long long)loaded.pending_delta)
          .Int("plan_kept_id_path", plan_kept_id_path ? 1 : 0)
          .Int("errors", loaded.errors + quiet.errors)
          .Build();
  std::printf("RESULT %s\n", line.c_str());
  if (!runs_json->empty()) *runs_json += ", ";
  *runs_json += line;

  int rc = 0;
  if (loaded.errors + quiet.errors > 0) {
    std::fprintf(stderr, "FAIL: %d reads failed\n",
                 loaded.errors + quiet.errors);
    rc = 1;
  }
  if (!plan_kept_id_path) {
    std::fprintf(stderr,
                 "FAIL: reads regressed off the ID-join path while a delta "
                 "was pending; EXPLAIN ANALYZE said:\n%s\n",
                 plan.c_str());
    rc = 1;
  }
  if (ratio < kReadUnderWritesFloor) {
    std::fprintf(stderr,
                 "FAIL: reads under 4 writers ran at only %.2fx of quiescent "
                 "reads (want >= %.2fx)\n",
                 ratio, kReadUnderWritesFloor);
    rc = 1;
  } else {
    std::printf("gate: reads under sustained writes at %.2fx of quiescent "
                "reads (floor %.2fx)\n",
                ratio, kReadUnderWritesFloor);
  }
  return rc;
}

int RunWriteBench(bool smoke) {
  const int total_updates = smoke ? 300 : 1200;

  std::printf("mixed write workload: %d single-triple updates per run, "
              "2 background readers, ~1.5 ms simulated fsync latency\n\n",
              total_updates);

  std::vector<WriteRunResult> results;
  Table table({"writers", "update qps", "speedup", "commits", "fsyncs",
               "fsyncs/commit"});
  double base_qps = 0;
  std::string runs_json;
  for (int writers : {1, 2, 4}) {
    WriteRunResult r = RunWriteWorkload(writers, total_updates);
    if (writers == 1) base_qps = r.update_qps;
    results.push_back(r);
    double per_commit =
        r.commits > 0 ? static_cast<double>(r.fsyncs) / r.commits : 0;
    table.AddRow({std::to_string(writers), Fmt(r.update_qps, 1),
                  Fmt(r.update_qps / base_qps, 2) + "x",
                  std::to_string(r.commits), std::to_string(r.fsyncs),
                  Fmt(per_commit, 2)});
    std::string line = Json()
                           .Str("bench", "concurrent_write_throughput")
                           .Int("writers", writers)
                           .Int("updates", total_updates)
                           .Num("update_qps", r.update_qps)
                           .Num("speedup_vs_1", r.update_qps / base_qps)
                           .Int("commits", (long long)r.commits)
                           .Int("wal_fsyncs", (long long)r.fsyncs)
                           .Int("wal_appends", (long long)r.appends)
                           .Num("fsyncs_per_commit", per_commit)
                           .Int("escalated", (long long)r.escalated)
                           .Int("errors", r.errors)
                           .Build();
    std::printf("RESULT %s\n", line.c_str());
    if (!runs_json.empty()) runs_json += ", ";
    runs_json += line;
  }
  std::printf("\n");
  table.Print();

  // Read side of the mixed load: the delta-aware ID-scan gate. Its RESULT
  // line joins the runs array so BENCH_write.json trends both directions.
  int read_rc = RunReadDuringWriteBench(smoke, &runs_json);

  std::ofstream json_out("BENCH_write.json");
  json_out << "{\"bench\": \"concurrent_write_throughput\", "
           << "\"updates_per_run\": " << total_updates
           << ", \"runs\": [" << runs_json << "]}\n";
  json_out.close();
  std::printf("wrote BENCH_write.json\n");

  int rc = read_rc;
  for (const WriteRunResult& r : results) {
    if (r.errors > 0) {
      std::fprintf(stderr, "FAIL: %d updates failed at %d writers\n",
                   r.errors, r.writers);
      rc = 1;
    }
  }
  // Gates. Group commit must (a) scale update throughput: with fsync
  // latency dominating, 4 coalescing writers clear 2x a single writer;
  // (b) keep fsyncs sub-linear in commits under concurrency.
  const WriteRunResult& four = results.back();
  double scale = four.update_qps / results.front().update_qps;
  if (scale < 2.0) {
    std::fprintf(stderr,
                 "FAIL: update qps scaled only %.2fx from 1 to 4 writers "
                 "(want >= 2x)\n",
                 scale);
    rc = 1;
  } else {
    std::printf("gate: update qps scaled %.2fx from 1 to 4 writers\n",
                scale);
  }
  if (four.commits > 0 && four.fsyncs >= four.commits) {
    std::fprintf(stderr,
                 "FAIL: %llu fsyncs for %llu commits at 4 writers — group "
                 "commit is not coalescing\n",
                 (unsigned long long)four.fsyncs,
                 (unsigned long long)four.commits);
    rc = 1;
  } else {
    std::printf("gate: %.2f fsyncs per commit at 4 writers\n",
                four.commits > 0
                    ? static_cast<double>(four.fsyncs) / four.commits
                    : 0.0);
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Replication read-scaling mode (--replicas N).
// ---------------------------------------------------------------------------

constexpr int kReplClients = 16;

const char kNs[] = "http://example.org/";

/// The simulated array-store fetch, registered on every engine that may
/// serve reads (foreign functions are engine-local and do not replicate).
void RegisterFetch(SSDM* db) {
  db->RegisterForeign(
      std::string(kNs) + "fetch",
      [](std::span<const Term> args) -> Result<Term> {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kFetchLatencyMs));
        return args[0];
      },
      1, /*cost=*/100.0);
}

/// One replica: memory engine + server + WAL applier off the primary.
struct ReplNode {
  SSDM engine;
  std::unique_ptr<client::SsdmServer> server;
  std::unique_ptr<repl::ReplicaApplier> applier;
  int port = 0;

  Status Start(int primary_port, const std::string& id) {
    engine.prefixes().Set("ex", kNs);
    RegisterFetch(&engine);
    client::SsdmServer::Options opts;
    opts.sched.workers = 4;
    opts.sched.queue_capacity = 256;
    server = std::make_unique<client::SsdmServer>(&engine, opts);
    auto bound = server->Start(0);
    if (!bound.ok()) return bound.status();
    port = *bound;
    repl::ReplicaApplier::Options aopts;
    aopts.replica_id = id;
    aopts.primary_port = primary_port;
    aopts.poll_interval = std::chrono::milliseconds(5);
    applier = std::make_unique<repl::ReplicaApplier>(&engine, aopts);
    return applier->Start(server->scheduler());
  }

  void Stop() {
    if (applier != nullptr) applier->Stop();
    if (server != nullptr) server->Stop();
  }
  ~ReplNode() { Stop(); }
};

/// Read-mostly workload for the routers: array fetches dominate (the
/// mediator's bread and butter), one CPU-bound aggregate keeps the mix
/// honest. All read-class, so the router fans them across replicas.
std::vector<std::string> ReplicaReadMix() {
  const std::string prolog = "PREFIX ex: <http://example.org/> ";
  return {
      prolog + "SELECT (ex:fetch(?a) AS ?v) WHERE { ex:p1 ex:age ?a }",
      prolog + "SELECT (ex:fetch(?a) AS ?v) WHERE { ex:p2 ex:age ?a }",
      prolog + "SELECT (ex:fetch(?a) AS ?v) WHERE { ex:p3 ex:age ?a }",
      prolog + "SELECT (AVG(?a) AS ?m) WHERE "
               "{ ?x ex:age ?a FILTER(?a > 40) }",
  };
}

struct ReplRunResult {
  int replicas = 0;
  double read_qps = 0;
  int errors = 0;
  uint64_t replica_reads = 0;
  uint64_t primary_reads = 0;
  uint64_t writes = 0;
  double write_qps = 0;
  uint64_t max_lag = 0;   ///< Peak LSN lag sampled during the read run.
  bool converged = false; ///< All replicas reached the final write LSN.
};

/// One measurement: n fresh replicas stream from the primary, 16 router
/// clients issue `total_reads` reads while a writer keeps updating the
/// primary; lag is sampled throughout and convergence checked at the end.
ReplRunResult RunReplicaWorkload(int primary_port, int n, int total_reads,
                                 std::atomic<uint64_t>* write_seq) {
  ReplRunResult out;
  out.replicas = n;

  std::vector<std::unique_ptr<ReplNode>> nodes;
  std::vector<repl::ReplicaRouter::Endpoint> replica_eps;
  for (int i = 0; i < n; ++i) {
    auto node = std::make_unique<ReplNode>();
    Status st = node->Start(primary_port, "bench-r" + std::to_string(i + 1));
    if (!st.ok()) {
      std::fprintf(stderr, "replica start failed: %s\n", st.ToString().c_str());
      out.errors = total_reads;
      return out;
    }
    replica_eps.push_back({"127.0.0.1", node->port});
    nodes.push_back(std::move(node));
  }
  repl::ReplicaRouter::Endpoint primary_ep{"127.0.0.1", primary_port};

  // Let the fresh replicas absorb the seed data before the clock starts.
  auto warm = client::RemoteSession::Connect("127.0.0.1", primary_port);
  if (!warm.ok()) {
    out.errors = total_reads;
    return out;
  }
  auto probe = repl::ProbeLsn(&*warm);
  uint64_t seed_lsn = probe.ok() ? probe->lsn : 0;
  for (auto& node : nodes) {
    node->applier->WaitForLsn(seed_lsn, std::chrono::seconds(20));
  }

  std::atomic<bool> stop_writer{false};
  std::atomic<bool> stop_sampler{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> last_write_lsn{0};
  std::atomic<uint64_t> max_lag{0};

  // Writer: a steady update stream through the primary, ~1 write/ms.
  std::thread writer([&] {
    auto router = repl::ReplicaRouter::Connect(primary_ep, {});
    if (!router.ok()) return;
    const std::string prolog = "PREFIX ex: <http://example.org/> ";
    while (!stop_writer.load()) {
      uint64_t i = write_seq->fetch_add(1);
      auto r = router->Run(prolog + "INSERT DATA { ex:w" + std::to_string(i) +
                           " ex:wval " + std::to_string(i) + " }");
      if (r.ok()) {
        writes.fetch_add(1);
        last_write_lsn.store(router->last_write_lsn());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Lag sampler: peak (primary LSN − replica applied LSN) across replicas.
  std::thread sampler([&] {
    while (!stop_sampler.load()) {
      uint64_t lag = 0;
      for (auto& node : nodes) lag = std::max(lag, node->applier->lag());
      uint64_t prev = max_lag.load();
      while (lag > prev && !max_lag.compare_exchange_weak(prev, lag)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::vector<std::string> mix = ReplicaReadMix();
  std::atomic<int> next{0};
  std::atomic<int> failed{0};
  std::atomic<uint64_t> replica_reads{0};
  std::atomic<uint64_t> primary_reads{0};

  Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kReplClients; ++c) {
    clients.emplace_back([&] {
      auto router = repl::ReplicaRouter::Connect(primary_ep, replica_eps);
      if (!router.ok()) {
        failed.fetch_add(total_reads / kReplClients);
        return;
      }
      for (int i = next.fetch_add(1); i < total_reads;
           i = next.fetch_add(1)) {
        auto r = router->Query(mix[i % mix.size()]);
        if (!r.ok()) failed.fetch_add(1);
      }
      replica_reads.fetch_add(router->stats().replica_reads);
      primary_reads.fetch_add(router->stats().primary_reads);
    });
  }
  for (auto& t : clients) t.join();
  double elapsed_ms = timer.ElapsedMs();
  double write_elapsed_ms = elapsed_ms;

  stop_writer.store(true);
  writer.join();
  stop_sampler.store(true);
  sampler.join();

  // Convergence: every replica must reach the last acked write.
  uint64_t target = last_write_lsn.load();
  out.converged = true;
  for (auto& node : nodes) {
    if (!node->applier->WaitForLsn(target, std::chrono::seconds(20))) {
      out.converged = false;
    }
  }

  out.read_qps = total_reads / (elapsed_ms / 1000.0);
  out.errors = failed.load();
  out.replica_reads = replica_reads.load();
  out.primary_reads = primary_reads.load();
  out.writes = writes.load();
  out.write_qps = out.writes / (write_elapsed_ms / 1000.0);
  out.max_lag = max_lag.load();
  return out;
}

int RunReplicationBench(int max_replicas, bool smoke) {
  const int total_reads = smoke ? 480 : 1500;

  // Durable primary, seeded through the statement path so the seed data
  // lands in the WAL and ships to the replicas.
  SSDM primary;
  primary.prefixes().Set("ex", kNs);
  RegisterFetch(&primary);
  std::string dir = bench::TempDir("repl_primary");
  Status open = primary.Open(dir);
  if (!open.ok()) {
    std::fprintf(stderr, "primary open failed: %s\n", open.ToString().c_str());
    return 1;
  }
  const std::string prolog = "PREFIX ex: <http://example.org/> ";
  for (int base = 0; base < kPeople; base += 50) {
    std::ostringstream stmt;
    stmt << prolog << "INSERT DATA {";
    for (int i = base; i < base + 50 && i < kPeople; ++i) {
      stmt << " ex:p" << i << " ex:age " << (20 + i % 60) << " .";
      stmt << " ex:p" << i << " ex:knows ex:p" << ((i + 1) % kPeople) << " .";
    }
    stmt << " }";
    Status st = primary.Execute(stmt.str()).status();
    if (!st.ok()) {
      std::fprintf(stderr, "seed failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  client::SsdmServer::Options sopts;
  sopts.sched.workers = 4;
  sopts.sched.queue_capacity = 256;
  client::SsdmServer server(&primary, sopts);
  auto bound = server.Start(0);
  if (!bound.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }

  std::printf("replication read scaling: %d reads per run, %d router "
              "clients, %d ms simulated array-store latency per fetch, "
              "writer at ~1 update/ms\n\n",
              total_reads, kReplClients, kFetchLatencyMs);

  std::atomic<uint64_t> write_seq{0};
  std::vector<ReplRunResult> results;
  Table table({"replicas", "read qps", "speedup", "replica reads",
               "writes", "max lag"});
  double base_qps = 0;
  std::string runs_json;
  for (int n = 1; n <= max_replicas; ++n) {
    ReplRunResult r = RunReplicaWorkload(*bound, n, total_reads, &write_seq);
    if (n == 1) base_qps = r.read_qps;
    results.push_back(r);
    table.AddRow({std::to_string(n), Fmt(r.read_qps, 1),
                  Fmt(r.read_qps / base_qps, 2) + "x",
                  std::to_string(r.replica_reads), std::to_string(r.writes),
                  std::to_string(r.max_lag)});
    std::string line = Json()
                           .Str("bench", "replication_read_scaling")
                           .Int("replicas", n)
                           .Int("reads", total_reads)
                           .Int("clients", kReplClients)
                           .Num("read_qps", r.read_qps)
                           .Num("speedup_vs_1", r.read_qps / base_qps)
                           .Int("replica_reads", (long long)r.replica_reads)
                           .Int("primary_reads", (long long)r.primary_reads)
                           .Int("writes", (long long)r.writes)
                           .Num("write_qps", r.write_qps)
                           .Int("max_lag_lsn", (long long)r.max_lag)
                           .Int("errors", r.errors)
                           .Int("converged", r.converged ? 1 : 0)
                           .Build();
    std::printf("RESULT %s\n", line.c_str());
    if (!runs_json.empty()) runs_json += ", ";
    runs_json += line;
  }
  std::printf("\n");
  table.Print();

  server.Stop();

  std::ofstream json_out("BENCH_repl.json");
  json_out << "{\"bench\": \"replication_read_scaling\", \"clients\": "
           << kReplClients << ", \"reads_per_run\": " << total_reads
           << ", \"fetch_latency_ms\": " << kFetchLatencyMs
           << ", \"runs\": [" << runs_json << "]}\n";
  json_out.close();
  std::printf("wrote BENCH_repl.json\n");

  int rc = 0;
  for (const ReplRunResult& r : results) {
    if (r.errors > 0) {
      std::fprintf(stderr, "FAIL: %d reads failed at %d replicas\n", r.errors,
                   r.replicas);
      rc = 1;
    }
    if (!r.converged) {
      std::fprintf(stderr, "FAIL: replicas did not converge at n=%d\n",
                   r.replicas);
      rc = 1;
    }
  }
  if (smoke && results.size() >= 3) {
    double scale = results[2].read_qps / results[0].read_qps;
    if (scale < 1.8) {
      std::fprintf(stderr,
                   "FAIL: read qps scaled only %.2fx from 1 to 3 replicas "
                   "(want >= 1.8x)\n",
                   scale);
      rc = 1;
    } else {
      std::printf("smoke: read qps scaled %.2fx from 1 to 3 replicas\n",
                  scale);
    }
  }
  return rc;
}

}  // namespace
}  // namespace scisparql

int main(int argc, char** argv) {
  using namespace scisparql;

  int replicas = 0;
  bool smoke = false;
  bool write_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--mixed") == 0) {
      write_mode = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--mixed] [--replicas N] [--smoke]\n"
                   "  (no flags)    scheduler slot-count scaling bench\n"
                   "  --mixed       concurrent write scaling (group commit "
                   "+ differential index), writes BENCH_write.json\n"
                   "  --replicas N  replication read scaling at 1..N "
                   "replicas, writes BENCH_repl.json\n"
                   "  --smoke       shorter run + scaling assertions\n",
                   argv[0]);
      return 2;
    }
  }
  if (write_mode) return RunWriteBench(smoke);
  if (replicas > 0) return RunReplicationBench(replicas, smoke);

  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  BuildGraph(&db);

  std::printf("mixed read workload: %d queries, %d client threads, "
              "%d ms simulated array-store latency per fetch\n\n",
              kQueriesPerRun, kClients, kFetchLatencyMs);

  std::vector<std::string> mixed = MixedWorkload();
  std::vector<std::string> cpu_only = {mixed[1], mixed[3]};

  Table table({"workers", "mixed qps", "speedup", "cpu-only qps"});
  double base_mixed = 0;
  for (int workers : {1, 2, 4, 8}) {
    int errors = 0;
    double qps = RunWorkload(&db, workers, mixed, kQueriesPerRun, &errors);
    int cpu_errors = 0;
    double cpu_qps =
        RunWorkload(&db, workers, cpu_only, kQueriesPerRun, &cpu_errors);
    if (errors + cpu_errors > 0) {
      std::fprintf(stderr, "worker=%d: %d queries failed\n", workers,
                   errors + cpu_errors);
      return 1;
    }
    if (workers == 1) base_mixed = qps;
    table.AddRow({std::to_string(workers), Fmt(qps, 1),
                  Fmt(qps / base_mixed, 2) + "x", Fmt(cpu_qps, 1)});
    std::printf("RESULT %s\n",
                Json()
                    .Str("bench", "concurrent_throughput")
                    .Int("workers", workers)
                    .Int("queries", kQueriesPerRun)
                    .Int("clients", kClients)
                    .Num("mixed_qps", qps)
                    .Num("speedup_vs_1", qps / base_mixed)
                    .Num("cpu_only_qps", cpu_qps)
                    .Build()
                    .c_str());
  }
  std::printf("\n");
  table.Print();
  return 0;
}
