#ifndef SCISPARQL_RDF_GRAPH_H_
#define SCISPARQL_RDF_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/id_index.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/write_batch.h"

namespace scisparql {

/// Observer of graph mutations. The statistics collector (src/opt/)
/// registers one per graph so per-predicate counters stay exact without
/// rescanning the triple table after every update. Notifications fire for
/// *logical* mutations only: internal housekeeping (delta folding,
/// tombstone compaction) is invisible to listeners. Under concurrent
/// writes, callbacks are serialized by the graph's delta mutex but may
/// arrive from any writer thread — listeners must synchronize their own
/// state against their readers.
class GraphListener {
 public:
  virtual ~GraphListener() = default;
  virtual void OnAdd(const Triple& t) = 0;
  virtual void OnRemove(const Triple& t) = 0;
  virtual void OnClear() = 0;
  /// The observed graph is being destroyed (e.g. DROP GRAPH / CLEAR ALL).
  /// The listener must drop its pointer to the graph; default is a no-op
  /// for listeners whose lifetime is tied to the graph's.
  virtual void OnGraphDestroyed() {}
};

/// In-memory RDF-with-Arrays graph: a dictionary-encoded triple table with
/// sorted SPO/POS/OSP permutation indexes (the access paths the SciSPARQL
/// executor probes during BGP evaluation, Section 5.4) plus an in-memory
/// differential index for concurrent writers.
///
/// Two write modes:
///  - Base mode (default): Apply mutates the triple table directly. This
///    is the bulk-load/recovery path and requires external exclusivity.
///  - Concurrent mode (SetConcurrentWrites(true)): Apply appends into a
///    small mutex-guarded delta of inserts/tombstones keyed to version()
///    epochs; the base table and its permutations stay immutable, so any
///    number of readers can scan while writers commit. Readers merge the
///    delta on scan with batch-atomic snapshot semantics. FoldDelta —
///    called by the engine's background compactor under the exclusive
///    lock — folds the delta into the base table and permutations.
class Graph {
 public:
  Graph();
  ~Graph();

  // Graphs own a potentially large triple table; moves are fine, copies
  // must be requested explicitly via Clone(). Moving transfers the
  // listener registration: the moved-from graph no longer notifies it.
  // (Spelled out rather than defaulted so the moved-from graph gets a
  // fresh ID-index cache instead of a null one.)
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&& o) noexcept;
  Graph& operator=(Graph&& o) noexcept;

  Graph Clone() const;

  /// Outcome of applying one WriteBatch: triples actually inserted and
  /// copies removed (a RemoveAll of an absent triple removes zero; an Add
  /// of a triple already present counts zero — see Apply).
  struct ApplyResult {
    int64_t added = 0;
    int64_t removed = 0;
  };

  /// Applies a batch of mutations atomically with respect to readers: no
  /// Match/ForEach ever observes a proper prefix of the batch. The only
  /// mutation entry point — Add/Remove are shims over one-element batches.
  ///
  /// RDF graphs are sets of triples: an Add whose triple is already live
  /// (or was added earlier in the same batch) is skipped — it mutates
  /// nothing, counts nothing, and fires no listener, so the WAL and the
  /// replication stream never carry the duplicate. This is what makes
  /// ground INSERT DATA idempotent end to end: a client that re-sends an
  /// un-acked write after a failover cannot double-insert. In concurrent
  /// mode the presence check runs under the delta mutex, closing the race
  /// between two writers inserting the same triple.
  ///
  /// `observer`, when non-null, receives the same per-copy OnAdd/OnRemove
  /// callbacks as the registered listener (the WAL capture hook); it is
  /// scoped to this call, so concurrent writers can each bring their own
  /// without racing on SetListener.
  ApplyResult Apply(WriteBatch&& batch, GraphListener* observer = nullptr);

  /// Deprecated shim: one-element batch insert. Prefer building a
  /// WriteBatch and calling Apply once per logical statement.
  void Add(Triple t) {
    WriteBatch b;
    b.Add(std::move(t));
    Apply(std::move(b));
  }
  void Add(Term s, Term p, Term o) {
    Add(Triple{std::move(s), std::move(p), std::move(o)});
  }

  /// Deprecated shim: one-element batch removing all triples equal to
  /// `t`; returns how many were removed.
  size_t Remove(const Triple& t) {
    WriteBatch b;
    b.RemoveAll(t);
    return static_cast<size_t>(Apply(std::move(b)).removed);
  }

  /// Number of live triples (base plus unfolded delta).
  size_t size() const {
    return static_cast<size_t>(live_count_.load(std::memory_order_acquire));
  }
  bool empty() const { return size() == 0; }
  void Clear();

  // --- Concurrent write mode & the differential index. ---

  /// Switches between base-mode writes (direct table mutation, requires
  /// external exclusivity) and concurrent-mode writes (delta admission
  /// under the graph's internal mutex). Call under exclusivity.
  void SetConcurrentWrites(bool on) {
    concurrent_.store(on, std::memory_order_release);
  }
  bool concurrent_writes() const {
    return concurrent_.load(std::memory_order_acquire);
  }

  /// Number of unfolded delta operations (lock-free approximation for the
  /// compactor's trigger check).
  size_t delta_ops() const {
    return delta_ops_.load(std::memory_order_acquire);
  }
  bool HasDelta() const { return delta_ops() > 0; }

  /// Folds the differential index into the base table and permutations.
  /// Requires external exclusivity (no concurrent readers or writers).
  /// Logically invisible: fires no listener callbacks and leaves
  /// version() untouched — readers see the same triples before and after.
  /// Returns the number of delta operations folded.
  size_t FoldDelta();

  /// The current epoch: Match results at this snapshot stay frozen even
  /// as later batches commit. Pass to MatchAt.
  uint64_t SnapshotEpoch() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Calls `cb` for every triple matching the pattern; Undef terms act as
  /// wildcards. Returning false from `cb` stops the scan early. The
  /// Triple reference is valid only for the duration of the callback.
  void Match(const Term& s, const Term& p, const Term& o,
             const std::function<bool(const Triple&)>& cb) const;

  /// Match as of a snapshot epoch: delta batches committed after
  /// `snapshot` are invisible. (Base-table content is always included —
  /// the fold only runs once no reader can still hold an older epoch.)
  void MatchAt(uint64_t snapshot, const Term& s, const Term& p, const Term& o,
               const std::function<bool(const Triple&)>& cb) const;

  std::vector<Triple> MatchAll(const Term& s, const Term& p,
                               const Term& o) const;

  /// True if at least one matching triple exists.
  bool Contains(const Term& s, const Term& p, const Term& o) const;

  /// Cardinality estimate for a pattern where each position is either a
  /// known constant or unknown (nullopt). Used by the optimizer; exact
  /// prefix-range counts for dictionary-resolvable constants, adjusted by
  /// the unfolded delta.
  int64_t EstimateMatches(const std::optional<Term>& s,
                          const std::optional<Term>& p,
                          const std::optional<Term>& o) const;

  /// Visits every live triple (base plus delta).
  void ForEach(const std::function<void(const Triple&)>& cb) const;

  /// Fresh blank node label unique within this graph ("b1", "b2", ...).
  std::string FreshBlankLabel();

  /// Registers (or clears, with nullptr) the single mutation listener.
  /// The listener is not owned; destruction of the graph notifies it via
  /// OnGraphDestroyed. Note that moving a Graph carries its listener
  /// along; code that keys listeners by graph address (the stats registry)
  /// re-attaches after moves.
  void SetListener(GraphListener* listener) { listener_.ptr = listener; }
  GraphListener* listener() const { return listener_.ptr; }

  /// Monotonic logical-mutation counter: bumps on every applied operation
  /// but not on internal housekeeping (delta folds, compaction). Doubles
  /// as the snapshot epoch for the differential index: every operation of
  /// a batch carries the epoch at which it committed.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  // --- Dictionary-encoded view (ID space). ---

  /// Term dictionary: every term is interned at insertion — base-table
  /// terms by AddBase, delta-admitted terms at Apply time under the delta
  /// mutex — so query constants resolve through the dictionary even while
  /// a delta is unfolded.
  const TermDictionary& dict() const { return dict_; }

  /// The base triple table as dictionary IDs, parallel to the Term table
  /// (tombstoned rows included; pair with ForEachId for live rows only).
  const std::vector<IdTriple>& id_table() const { return id_triples_; }

  /// Visits every live *base* triple as dictionary IDs, in table order.
  /// Callers that need the unfolded delta too must merge in
  /// SnapshotDeltaIds (the ID-join path does exactly that; snapshot
  /// encoding folds first, so it never has to).
  void ForEachId(const std::function<void(const IdTriple&)>& cb) const;

  /// Resolves the pending delta at `snapshot` into per-permutation sorted
  /// runs of ID tuples — the executor merges these with the base
  /// permutations so ID-space scans observe exactly the triples MatchAt
  /// would at the same epoch. `out` is cleared first and left empty when
  /// no delta operation with epoch <= snapshot exists. Thread-safe against
  /// concurrent writers; the returned IDs are published (safe for
  /// dict().term()) because Apply interns before exposing an epoch.
  void SnapshotDeltaIds(uint64_t snapshot, DeltaIdRuns* out) const;

  /// Sorted SPO/POS/OSP permutation indexes over the live *base* ID
  /// tuples, built lazily and cached until the next base-table change
  /// (including compaction, which renumbers IDs). Thread-safe for
  /// concurrent readers; concurrent-mode writers never touch the base
  /// table, so the returned reference stays valid until the next fold or
  /// base-mode mutation, which run under the engine's exclusive lock.
  const IdIndexes& EnsureIdIndexes() const;

  /// The cached permutation indexes if they are already built and fresh,
  /// else nullptr — lets the planner consult aggregated distinct counts
  /// without paying the build on graphs that never reach the ID-join path.
  const IdIndexes* PeekIdIndexes() const;

 private:
  /// Listener pointer that nulls out when moved from, so a moved-from
  /// graph cannot fire callbacks for a listener it no longer owns.
  struct ListenerRef {
    GraphListener* ptr = nullptr;
    ListenerRef() = default;
    ListenerRef(ListenerRef&& o) noexcept : ptr(o.ptr) { o.ptr = nullptr; }
    ListenerRef& operator=(ListenerRef&& o) noexcept {
      ptr = o.ptr;
      o.ptr = nullptr;
      return *this;
    }
  };

  /// Lazily built permutation indexes plus their freshness stamp. Held
  /// behind a unique_ptr so the mutex does not pin the (move-only) graph.
  struct IdIndexCache {
    std::mutex mu;
    std::atomic<uint64_t> built_stamp{~0ull};
    IdIndexes idx;
  };

  /// One differential-index operation: the epoch (version value) at which
  /// it committed, and whether it inserts one copy or tombstones all
  /// copies present at that epoch.
  struct DeltaOp {
    uint64_t epoch;
    bool is_add;
  };

  /// Per-triple delta cell: the ops touching one triple, in commit order.
  struct DeltaCell {
    std::vector<DeltaOp> ops;
  };

  /// One delta cell mirrored into the ID space: the triple's dictionary
  /// IDs (interned at Apply time) plus a stable pointer to its cell, whose
  /// op list snapshots resolve against. unordered_map never invalidates
  /// value addresses, so the pointer survives rehashing.
  struct DeltaRunEntry {
    IdTriple ids;
    const DeltaCell* cell = nullptr;
  };

  /// The differential index. Keyed by Triple::operator== — the same
  /// equality Remove and Match use — with each key in its stored form.
  /// Guarded by `mu`; writers hold it for the whole batch (batch
  /// atomicity), readers only long enough to copy the matching cells out.
  /// The runs mirror `cells` sorted per permutation key order (one entry
  /// per distinct triple), kept in step by Apply so SnapshotDeltaIds can
  /// emit merge-ready runs without sorting on the read path.
  using DeltaCells = std::unordered_map<Triple, DeltaCell, TripleHash>;
  struct DeltaState {
    mutable std::mutex mu;
    DeltaCells cells;
    std::vector<DeltaRunEntry> run_spo;
    std::vector<DeltaRunEntry> run_pos;
    std::vector<DeltaRunEntry> run_osp;
  };

  /// A delta cell resolved at a snapshot: whether the base copies are
  /// tombstoned, and how many delta-inserted copies are live.
  struct ResolvedCell {
    Triple t;
    size_t adds = 0;
    bool cleared = false;
  };

  void AddBase(Triple t, GraphListener* observer);
  size_t RemoveBase(const Triple& t, GraphListener* observer);
  ApplyResult ApplyBase(WriteBatch&& batch, GraphListener* observer);
  ApplyResult ApplyDelta(WriteBatch&& batch, GraphListener* observer);

  /// Replaces each numeric component of `t` with the dictionary's form of
  /// its value (the first form interned), so every read path — base
  /// rows, delta cells, ID materialization — returns one lexical form.
  void UseDictForms(Triple* t, const IdTriple& ids) const;

  /// The delta cell for `t` (key: the stored form of the triple),
  /// creating it on first touch — which interns the triple's terms and
  /// splices the cell into the sorted ID runs. Caller holds the delta
  /// mutex.
  DeltaCells::value_type& DeltaCellFor(const Triple& t);

  /// Copies of `t` live in the base table.
  size_t BaseMultiplicity(const Triple& t) const;

  /// Whether a copy of `t` is live in the base table. O(1) via the
  /// live-row hash set (same rules as ScanBase's constant resolution);
  /// a triple holding an array falls back to a filtered table scan —
  /// never an index rebuild. This is what keeps Apply's set-semantics
  /// precheck cheap for the one-triple-per-batch paths (Graph::Add,
  /// per-statement INSERT).
  bool BaseContains(const Triple& t) const;

  /// Resolves every delta cell matching the pattern at `snapshot` into
  /// `out`; returns true if any matched cell tombstones base copies.
  bool SnapshotDelta(uint64_t snapshot, const Term& s, const Term& p,
                     const Term& o, std::vector<ResolvedCell>* out) const;

  /// Scans base-table triples matching the pattern (permutation prefix
  /// range, or a filtered table scan for all-wildcard patterns and array
  /// constants). Returns false if the callback stopped the scan.
  bool ScanBase(const Term& s, const Term& p, const Term& o,
                const std::function<bool(const Triple&)>& cb) const;

  void MaybeCompact();

  std::vector<Triple> triples_;
  std::vector<bool> dead_;
  std::atomic<int64_t> live_count_{0};
  size_t dead_count_ = 0;
  std::atomic<uint64_t> blank_counter_{0};
  std::atomic<uint64_t> version_{0};
  ListenerRef listener_;

  struct IdTripleHash {
    size_t operator()(const IdTriple& t) const {
      uint64_t h = (static_cast<uint64_t>(t.s) << 32) | t.p;
      h = (h ^ (static_cast<uint64_t>(t.o) + 0x9e3779b97f4a7c15ull)) *
          0xff51afd7ed558ccdull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };

  TermDictionary dict_;
  std::vector<IdTriple> id_triples_;  // parallel to triples_/dead_
  /// ID tuples of the *live* base rows — the O(1) presence probe behind
  /// BaseContains. Maintained wherever base rows flip liveness (AddBase,
  /// RemoveBase, fold tombstones/appends, Clear); compaction rebuilds it
  /// through Clear + AddBase like every other row structure.
  std::unordered_set<IdTriple, IdTripleHash> live_set_;
  /// Bumps on *every* base-table rewrite — base-mode mutations, delta
  /// folds and compaction alike (the latter two renumber dictionary IDs
  /// even though version() stands still), so the ID-index cache can
  /// detect staleness.
  uint64_t table_stamp_ = 0;
  std::unique_ptr<IdIndexCache> id_cache_;

  std::atomic<bool> concurrent_{false};
  std::atomic<size_t> delta_ops_{0};
  std::unique_ptr<DeltaState> delta_;
};

/// Adds to the process-wide triple-scan counters (ssdm_rdf_scans_total,
/// ssdm_rdf_scan_rows_total) that Graph::Match feeds — for scans that read
/// the ID permutations directly.
void RecordTripleScans(uint64_t scans, uint64_t rows);

/// An RDF dataset: one default graph plus named graphs, addressed by the
/// GRAPH clause and FROM / FROM NAMED (Section 3.3.4).
class Dataset {
 public:
  Graph& default_graph() { return default_graph_; }
  const Graph& default_graph() const { return default_graph_; }

  /// Returns the named graph, creating it when absent. Creation mutates
  /// the graph map: under concurrent writers it must run exclusively (the
  /// scheduler escalates statements that need it).
  Graph& GetOrCreateNamed(const std::string& iri);
  /// Returns the named graph or nullptr.
  const Graph* FindNamed(const std::string& iri) const;
  Graph* FindNamed(const std::string& iri);

  bool DropNamed(const std::string& iri);

  const std::map<std::string, Graph>& named_graphs() const {
    return named_;
  }
  std::map<std::string, Graph>& named_graphs() { return named_; }

  /// Propagates the write mode to the default graph and every named
  /// graph, present and future.
  void SetConcurrentWrites(bool on);
  bool concurrent_writes() const { return concurrent_writes_; }

  /// Total unfolded delta ops across all graphs (compactor trigger).
  size_t PendingDeltaOps() const;

  /// Folds every graph's differential index; requires exclusivity.
  /// Returns total ops folded.
  size_t FoldDeltas();

 private:
  Graph default_graph_;
  std::map<std::string, Graph> named_;
  bool concurrent_writes_ = false;
};

}  // namespace scisparql

#endif  // SCISPARQL_RDF_GRAPH_H_
