#ifndef SCISPARQL_ENGINE_SSDM_H_
#define SCISPARQL_ENGINE_SSDM_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/query_cache.h"
#include "common/status.h"
#include "engine/query_api.h"
#include "opt/stats.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/functions.h"
#include "sparql/parser.h"
#include "storage/array_proxy.h"
#include "storage/asei.h"
#include "storage/vfs.h"

namespace scisparql {

namespace engine {
class DurabilityManager;
}  // namespace engine
namespace storage {
struct SnapshotSection;
}  // namespace storage

/// Scientific SPARQL Database Manager — the engine facade (Chapter 5).
/// Owns the RDF-with-Arrays dataset, the function registry, attached array
/// storage back-ends, session prefixes and execution options; parses and
/// executes SciSPARQL statements.
class SSDM {
 public:
  SSDM();
  ~SSDM();

  SSDM(const SSDM&) = delete;
  SSDM& operator=(const SSDM&) = delete;

  // --- Durable store (write-ahead log + checksummed snapshots). ---

  /// Opens (or creates) a durable store at directory `dir` and recovers
  /// the dataset from it: the newest CRC-valid snapshot is loaded (corrupt
  /// ones are skipped in favour of older ones), then the write-ahead log
  /// is replayed past the snapshot's LSN — committed batches only, so the
  /// dataset lands on an exact statement boundary; a torn tail from a
  /// crash mid-append is discarded cleanly. Afterwards every update
  /// statement routed through Execute() appends redo records to the WAL
  /// and fsyncs *before* the statement is acknowledged.
  ///
  /// Attach array storage back-ends before calling Open so WAL records
  /// that reference stored arrays can be resolved during replay. Loads via
  /// the direct LoadTurtle* API are NOT logged — use the LOAD statement,
  /// or run CHECKPOINT after a bulk load.
  ///
  /// `vfs` defaults to the real filesystem; tests pass a FaultyVfs.
  Status Open(const std::string& dir, storage::Vfs* vfs = nullptr);

  /// Writes a new checksummed snapshot (atomic temp-file + rename),
  /// truncates WAL segments it supersedes, and prunes all but the
  /// previous snapshot (kept as the corruption fallback). Also reachable
  /// as the `CHECKPOINT` statement, which the scheduler runs under the
  /// exclusive lock. Returns a one-line summary.
  Result<std::string> Checkpoint();

  /// True once a durable-media failure (failed WAL append/fsync) flipped
  /// the engine into read-only degradation: updates and CHECKPOINT return
  /// Unavailable while queries keep being served.
  bool read_only() const;

  /// Manually enters read-only mode (also used by tests and by the
  /// scheduler's degradation test).
  void EnterReadOnly(const std::string& reason);
  std::string read_only_reason() const;

  /// The durability subsystem, or nullptr when Open() was never called.
  engine::DurabilityManager* durability() { return durability_.get(); }

  // --- Replication (src/repl): a primary exports its redo stream through
  // the WAL shipper; a replica applies it via the methods below. ---

  /// Highest LSN whose effects are visible in this engine: the newest
  /// durable commit LSN on a primary, the newest streamed-and-applied LSN
  /// on a replica. Lock-free — heartbeats and lag gauges read it without
  /// touching the engine lock.
  uint64_t last_lsn() const;

  /// Puts the engine into replica apply mode: client updates and
  /// CHECKPOINT are rejected with Unavailable (like sticky read-only,
  /// naming `primary_desc` as where writes belong) while the streamed
  /// apply path below keeps mutating the dataset. Call after Open() when
  /// the replica keeps a durable store of its own — recovery then hands
  /// off from snapshot+WAL to the live stream at last_lsn().
  void EnterReplicaMode(const std::string& primary_desc);
  bool replica_mode() const {
    return replica_mode_.load(std::memory_order_acquire);
  }

  // --- Fencing term (replication generation number). ---

  /// Current fencing term. 1 on a fresh store; recovery restores the
  /// maximum of the snapshot footer's term and any kTermBump records in
  /// the WAL; replicas adopt terms carried by the stream and by wire
  /// replies. Monotonic for the lifetime of a store.
  uint64_t term() const { return term_.load(std::memory_order_acquire); }

  /// Raises the term to `t` if it is higher (CAS-max; lower terms are
  /// ignored). Safe from any thread.
  void AdoptTerm(uint64_t t);

  /// Replica -> primary hand-off. Requires replica mode and a writable
  /// store; the caller must hold the engine exclusively (ExecuteExclusive)
  /// with the applier already stopped, so the dataset is at the tip of
  /// everything received. Bumps the term to at least `new_term` (always
  /// past the current one), logs a kTermBump batch so the new term is
  /// durable and ships to followers, and exits replica mode. On a WAL
  /// append failure the engine stays a replica.
  Status Promote(uint64_t new_term);

  /// Primary -> replica hand-off after observing a higher term: adopts
  /// `new_term`, enters replica mode pointing at `primary_desc`. The
  /// caller must hold the engine exclusively and subsequently restart an
  /// applier with force_resync (the local WAL may hold unshipped writes
  /// that diverge from the new primary's timeline).
  void DemoteToReplica(uint64_t new_term, const std::string& primary_desc);

  /// Stable node identity used for deterministic election tie-breaks and
  /// reported in probe replies. Defaults to "node".
  const std::string& node_id() const { return node_id_; }
  void set_node_id(std::string id) { node_id_ = std::move(id); }

  /// True when client write statements must be rejected — read-only
  /// degradation or replica mode. The scheduler checks this at admission;
  /// `write_reject_reason` names the cause.
  bool rejects_writes() const { return read_only() || replica_mode(); }
  std::string write_reject_reason() const;

  /// Applies a shipped run of complete committed WAL batches (the frames
  /// of a storage::WalShipment) to the live dataset: records at or below
  /// last_lsn() are skipped (idempotent re-delivery), graph versions bump
  /// through the normal mutation path so the stats and plan/result caches
  /// invalidate exactly as they do for local updates. Durable replicas
  /// write the frames through to their own WAL so a restart resumes from
  /// the last applied LSN instead of re-streaming everything. The caller
  /// must hold the engine exclusively (the scheduler's ExecuteExclusive
  /// when the replica is serving reads).
  Status ApplyReplicationFrames(const std::string& frames);

  /// Full-resync hand-off for a replica that fell behind the primary's
  /// WAL retention: replaces the dataset with the shipped snapshot
  /// sections (graph IRI -> Turtle, "" = default graph) and restarts LSN
  /// tracking at `lsn`. A durable replica re-bases its local store —
  /// wipes the stale WAL, writes a checkpoint at `lsn` — so the next
  /// restart recovers to the new timeline.
  Status BootstrapFromReplication(
      const std::vector<std::pair<std::string, std::string>>& sections,
      uint64_t lsn);

  /// Replica-side checkpoint: the same snapshot + WAL-truncation sequence
  /// as Checkpoint(), but permitted in replica mode — the applier compacts
  /// the local store periodically so restart recovery replays a bounded
  /// stream suffix. Caller must hold the engine exclusively.
  Result<std::string> CheckpointAsReplica();

  // --- Data loading. ---

  /// Loads a Turtle document into the default graph (or a named graph),
  /// consolidating numeric RDF collections into arrays.
  Status LoadTurtleFile(const std::string& path,
                        const std::string& graph_iri = "");
  Status LoadTurtleString(const std::string& text,
                          const std::string& graph_iri = "");

  // --- Statement execution. ---

  /// The unified entry point: parses and executes one SciSPARQL statement
  /// of any form — query, update, DEFINE FUNCTION, or the introspection
  /// verbs EXPLAIN [ANALYZE] <query>, STATS and METRICS — honouring the
  /// request's option overrides, timeout/cancel flag and trace sink.
  ///
  /// When `ctx` is non-null it takes precedence over the request's
  /// timeout/cancel fields; the scheduler passes a context whose absolute
  /// deadline was computed at admission so queue wait counts against it.
  Result<QueryOutcome> Execute(const QueryRequest& req,
                               const sched::QueryContext* ctx = nullptr);

  /// Concurrency class of a statement, decided from its leading keyword
  /// (after the PREFIX/BASE prolog, comments and string/IRI tokens are
  /// skipped) without a full parse: query forms are reads; INSERT/DELETE
  /// updates are writes (they run under the scheduler's shared lock via
  /// the differential index); LOAD, CLEAR, DEFINE FUNCTION, PREPARE,
  /// CHECKPOINT and anything unrecognized classify as exclusive, the
  /// conservative choice for statements that mutate engine structure.
  static sched::StatementClass ClassifyStatement(const std::string& text);

  // --- Concurrent write mode (the scheduler drives this). ---

  /// Refcounted switch for the differential-index write path: while at
  /// least one holder is active, batch mutations append into per-graph
  /// deltas instead of the base indexes, so the scheduler can run
  /// write-class statements under its shared lock. The last EndConcurrent-
  /// Writes folds all pending deltas and returns graphs to base mode; the
  /// caller must hold the engine exclusively for that final call (the
  /// scheduler calls it from Stop once no execution slot is held).
  void BeginConcurrentWrites();
  void EndConcurrentWrites();

  /// Unfolded delta operations across all graphs — the compactor's
  /// trigger. Lock-free reads of per-graph atomic counters.
  size_t PendingDeltaOps() const;

  /// Folds every graph's pending delta into its base indexes. Caller must
  /// hold the engine exclusively; returns the operations folded.
  size_t FoldDeltas();

  /// True when `st` is the engine's escalation sentinel: a write-class
  /// statement admitted under the shared lock turned out to need the
  /// exclusive lock (it would create a named graph, or its prolog hid an
  /// exclusive form). The scheduler re-runs such statements exclusively.
  static bool NeedsExclusiveRetry(const Status& st);

  /// Query plan description (Section 5.4's translation, post-optimization):
  /// chosen BGP order with estimated vs. actual cardinalities per scan.
  /// Also reachable as the `EXPLAIN <query>` statement through Execute.
  Result<std::string> Explain(const std::string& text);

  /// Optimizer-statistics report for every graph with a collector (the
  /// `STATS` statement). Covers triple totals, per-predicate counts,
  /// distinct subject/object counts and index fan-out histograms.
  std::string StatsReport() const;

  /// ObjectLog-style domain-calculus rendering of a query — the
  /// intermediate form of the thesis's translation algorithm (§5.4.5).
  Result<std::string> Translate(const std::string& text);

  // --- Functions. ---

  sparql::FunctionRegistry& functions() { return registry_; }

  /// Registers a C++ foreign function callable from queries (Section 4.4).
  void RegisterForeign(const std::string& name,
                       std::function<Result<Term>(std::span<const Term>)> fn,
                       int arity = -1, double cost = 1.0);

  // --- Array storage back-ends (Chapter 6). ---

  /// Attaches a back-end under its name(); replaces a previous one.
  void AttachStorage(std::shared_ptr<ArrayStorage> storage);
  std::shared_ptr<ArrayStorage> FindStorage(const std::string& name) const;

  /// Stores an array in the named back-end and returns an array term:
  /// a lazy proxy for external back-ends.
  Result<Term> StoreArray(const NumericArray& array,
                          const std::string& storage_name,
                          int64_t chunk_elems = 8192);

  /// Opens a proxy term for an already-stored array (mediator scenario).
  Result<Term> OpenStoredArray(const std::string& storage_name, ArrayId id);

  // --- Memory snapshots (Section 2.2.3: the in-memory store "can be
  // dumped to disk and loaded back to survive server restarts"). ---

  /// Writes the whole dataset (default + named graphs) to a snapshot file.
  /// Array proxies are materialized into the snapshot; defined functions
  /// are not part of the dataset and are not saved. Folds pending deltas
  /// first (the snapshot encoder walks the base indexes), hence non-const.
  Status SaveSnapshot(const std::string& path);

  /// Replaces the dataset with a snapshot's content. Destroys the named
  /// graph objects of the old dataset, so it bumps the query cache's epoch
  /// (emptying both the plan and result layers); CLEAR ALL and DropAll-style
  /// replacements do the same.
  Status LoadSnapshot(const std::string& path);

  // --- Caching & prepared statements. ---

  /// The engine's two-layer query cache (plan cache + opt-in result cache)
  /// and prepared-statement registry. Exposed for tests, the shell and the
  /// scheduler's fast path.
  cache::QueryCache& cache() { return cache_; }
  const cache::QueryCache& cache() const { return cache_; }

  /// Turns the opt-in result cache on with the given LRU byte budget
  /// (materialized array payloads count against it).
  void EnableResultCache(size_t budget_bytes = 8u << 20);
  void DisableResultCache();

  /// Scheduler fast path: serves `req` straight from the result cache when
  /// a still-valid entry exists, without parsing or planning. Never counts
  /// a miss (the full Execute path will), so speculative probes don't skew
  /// the counters. Returns false for traced requests — a trace needs the
  /// real execution.
  bool TryCachedResult(const QueryRequest& req, QueryOutcome* out);

  // --- Configuration and state. ---

  Dataset& dataset() { return dataset_; }
  const Dataset& dataset() const { return dataset_; }
  PrefixMap& prefixes() { return prefixes_; }
  sparql::ExecOptions& exec_options() { return exec_options_; }
  const opt::StatsRegistry& stats() const { return stats_; }

 private:
  /// Ensures the graph has a statistics collector (attaching rebuilds from
  /// current content if one is created).
  void EnsureStats(Graph* graph);

  /// Shared Form dispatch for direct queries and prepared EXECUTE.
  Result<QueryOutcome> RunQueryForm(const ast::SelectQuery& q,
                                    sparql::Executor& exec,
                                    obs::TraceSpan* exec_span);

  /// Runs a prepared statement with `args` bound to its parameters,
  /// consulting/feeding the result cache under the prepared key
  /// (name + generation + rendered args).
  Result<QueryOutcome> RunPrepared(const std::string& name,
                                   const std::vector<Term>& args,
                                   const sparql::ExecOptions& base_options,
                                   const sched::QueryContext* ctx,
                                   obs::QueryTrace* trace);

  /// Cache key for a statement text: normalized query text plus a
  /// fingerprint of the session prefix table (the same text parses
  /// differently under different prefixes).
  std::string CacheKeyFor(const std::string& text) const;

  /// Builds a Dataset from the sections of a snapshot file: one dictionary
  /// section per graph (storage/dict_section.h); a section in any other
  /// form fails the build.
  Status BuildDatasetFromSections(
      const std::vector<storage::SnapshotSection>& sections, Dataset* out);

  /// Swaps `fresh` in for the current dataset: clears statistics first
  /// (collectors reference dying graphs), epoch-bumps both cache layers,
  /// re-attaches collectors to the new graphs.
  void InstallDataset(Dataset fresh);

  /// The checkpoint sequence shared by Checkpoint() and
  /// CheckpointAsReplica(), after their mode guards.
  Result<std::string> CheckpointLocked();

  /// The REPL introspection statement family (REPL LSN / STATUS /
  /// SNAPSHOT), classified as reads so replicas serve them under the
  /// shared lock.
  Result<QueryOutcome> ExecuteReplStatement(const std::string& verb);

  Dataset dataset_;
  // Declared after dataset_ so collectors detach from still-live graphs on
  // destruction.
  opt::StatsRegistry stats_;
  PrefixMap prefixes_;
  sparql::FunctionRegistry registry_;
  sparql::ExecOptions exec_options_;
  std::map<std::string, std::shared_ptr<ArrayStorage>> storages_;
  cache::QueryCache cache_;
  std::unique_ptr<engine::DurabilityManager> durability_;

  /// Read-only degradation for engines without a durable store (the
  /// durability manager tracks its own flag when Open() was called).
  std::atomic<bool> soft_read_only_{false};
  std::string soft_read_only_reason_;

  /// Replica apply mode: highest streamed LSN applied so far, and where
  /// client writes should go instead.
  std::atomic<bool> replica_mode_{false};
  std::atomic<uint64_t> applied_lsn_{0};
  std::string replica_primary_;

  /// Replication fencing term and node identity (see term()/Promote()).
  std::atomic<uint64_t> term_{1};
  std::string node_id_ = "node";

  /// BeginConcurrentWrites nesting depth; the dataset's concurrent-writes
  /// flag is on exactly while this is positive.
  std::atomic<int> concurrent_refs_{0};
};

}  // namespace scisparql

#endif  // SCISPARQL_ENGINE_SSDM_H_
