#ifndef SCISPARQL_CACHE_QUERY_CACHE_H_
#define SCISPARQL_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/plan_memo.h"
#include "common/status.h"
#include "engine/query_api.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/functions.h"

namespace scisparql {
namespace cache {

/// Per-instance cache counters, snapshotted for tests and the shell. The
/// same events are mirrored into the process-wide obs registry under
/// ssdm_cache_* families.
struct CacheCounters {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_invalidations = 0;  ///< memoized BGP orders dropped
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_invalidations = 0;
  uint64_t result_evictions = 0;

  std::string ToString() const;
};

/// A PREPARE'd statement: named, with positional ?parameters and a parsed
/// body shared by every EXECUTE. `generation` distinguishes re-PREPAREs of
/// the same name in result-cache keys, and `memo` carries the body's BGP
/// join orders across executions.
struct PreparedStatement {
  std::string name;
  std::vector<std::string> params;
  std::shared_ptr<const ast::SelectQuery> body;
  uint64_t generation = 1;
  std::shared_ptr<PlanMemo> memo;
};

/// What a query's result depends on, for invalidation. Graph dependencies
/// are recorded by IRI ("" = the default graph) with the version() observed
/// at execution time — never by pointer, so a dropped graph cannot dangle.
struct ResultDeps {
  /// Sentinel version for "this named graph did not exist"; the entry stays
  /// valid only while the graph remains absent.
  static constexpr uint64_t kAbsentGraph = ~0ull;

  std::vector<std::pair<std::string, uint64_t>> graphs;
  /// True when the query's reach cannot be pinned to specific graphs
  /// (variable GRAPH clause, SciSPARQL-defined function calls): all graph
  /// versions are recorded and the named-graph count must not change.
  bool whole_dataset = false;
  size_t named_count = 0;
  /// FunctionRegistry::generation() at execution, or 0 when the query
  /// calls no registry function (then redefinitions don't invalidate it).
  uint64_t registry_generation = 0;
};

/// Static cacheability analysis of a query body (AST walk).
struct CacheAnalysis {
  /// False when the query calls a foreign/unknown or non-deterministic
  /// function (RAND, NOW, UUID, ...) — its outcome must not be cached.
  bool cacheable = true;
  bool whole_dataset = false;
  /// Constant graph IRIs referenced via GRAPH / FROM / FROM NAMED.
  std::set<std::string> graphs;
  /// True when a SciSPARQL-defined function (parameterized view) is
  /// called: the result then also depends on the registry generation.
  bool uses_registry = false;
};

CacheAnalysis AnalyzeQuery(const ast::SelectQuery& q,
                           const sparql::FunctionRegistry* registry);

/// Builds ResultDeps for a query against the current dataset state from
/// its analysis (records versions of the referenced — or all — graphs).
ResultDeps DepsFor(const CacheAnalysis& analysis, const Dataset& dataset,
                   uint64_t registry_generation);

/// Two-layer query cache behind the QueryRequest/QueryOutcome API, plus
/// the prepared-statement registry.
///
///  - Plan cache: normalized statement text -> parsed AST + a PlanMemo of
///    optimized BGP orders. The AST is data-independent; the memo entries
///    are keyed with graph version() snapshots and revalidated on drift
///    (see PlanMemo).
///  - Result cache (opt-in): read-only SELECT/ASK outcomes under an LRU
///    byte budget that counts materialized array payloads. Entries are
///    validated against their ResultDeps on every lookup and swept eagerly
///    after updates, so an INSERT into a referenced graph observably
///    invalidates them.
///
/// An epoch bump (InvalidateAll — LoadSnapshot, CLEAR ALL) drops every
/// cached result and every memoized join order at once, covering the cases
/// where graph *objects* are destroyed rather than mutated. Parsed ASTs
/// are data-independent and survive the bump.
///
/// Thread-safe: lookups run concurrently under the scheduler's shared
/// engine lock; sweeps run under its exclusive lock but take the internal
/// mutex anyway.
class QueryCache {
 public:
  struct Config {
    bool plan_cache = true;
    /// The result cache is opt-in (SSDM::EnableResultCache).
    bool result_cache = false;
    size_t result_budget_bytes = 8u << 20;
  };

  struct CachedPlan {
    ast::Statement stmt;
    std::shared_ptr<PlanMemo> memo;
  };

  QueryCache() = default;
  explicit QueryCache(const Config& config) : config_(config) {}

  const Config& config() const { return config_; }
  void Configure(const Config& c);

  // --- Plan cache. ---

  /// Parsed statements kept at most; storing one more evicts one.
  static constexpr size_t kMaxPlans = 4096;

  bool LookupPlan(const std::string& key, CachedPlan* out);
  void StorePlan(const std::string& key, CachedPlan plan);

  // --- Result cache. ---

  /// Validates the entry's deps against the live dataset before serving
  /// it; a stale entry is dropped (counted as an invalidation) and the
  /// lookup misses. `count_miss` lets the scheduler's speculative fast
  /// path probe without inflating the miss counter.
  bool LookupResult(const std::string& key, const Dataset& dataset,
                    uint64_t registry_generation, QueryOutcome* out,
                    bool count_miss = true);

  void StoreResult(const std::string& key, const QueryOutcome& outcome,
                   ResultDeps deps);

  /// Eagerly drops result entries and memoized plans stale against the
  /// current dataset — called after every successful update so the obs
  /// invalidation counters move with the write, not the next read.
  void Sweep(const Dataset& dataset, uint64_t registry_generation);

  /// Epoch bump: drops all results and memoized orders (graph objects
  /// were destroyed, not just mutated — LoadSnapshot, CLEAR ALL). Parsed
  /// ASTs stay valid and are kept.
  void InvalidateAll();
  uint64_t epoch() const;

  // --- Prepared statements. ---

  Status DefinePrepared(const std::string& name,
                        std::vector<std::string> params,
                        std::shared_ptr<const ast::SelectQuery> body);
  std::shared_ptr<const PreparedStatement> FindPrepared(
      const std::string& name) const;
  std::vector<std::string> PreparedNames() const;

  // --- Introspection. ---

  CacheCounters counters() const;
  size_t result_bytes() const;
  size_t result_entries() const;
  size_t plan_entries() const;

  /// Approximate retained bytes of an outcome (terms + materialized array
  /// payloads); used for the LRU budget.
  static size_t EstimateOutcomeBytes(const QueryOutcome& outcome);

 private:
  struct ResultEntry {
    QueryOutcome outcome;
    ResultDeps deps;
    size_t bytes = 0;
    uint64_t epoch = 0;
    std::list<std::string>::iterator lru_pos;
  };

  bool DepsValid(const ResultDeps& deps, const Dataset& dataset,
                 uint64_t registry_generation) const;
  void EraseResultLocked(std::unordered_map<std::string, ResultEntry>::iterator
                             it);
  void UpdateGaugesLocked();

  mutable std::mutex mu_;
  Config config_;
  uint64_t epoch_ = 1;

  std::unordered_map<std::string, CachedPlan> plans_;

  std::unordered_map<std::string, ResultEntry> results_;
  std::list<std::string> lru_;  ///< front = most recently used
  size_t result_bytes_ = 0;

  std::map<std::string, std::shared_ptr<const PreparedStatement>> prepared_;

  CacheCounters counters_;
};

}  // namespace cache
}  // namespace scisparql

#endif  // SCISPARQL_CACHE_QUERY_CACHE_H_
