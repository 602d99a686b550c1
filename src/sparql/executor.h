#ifndef SCISPARQL_SPARQL_EXECUTOR_H_
#define SCISPARQL_SPARQL_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "cache/plan_memo.h"
#include "common/status.h"
#include "obs/trace.h"
#include "rdf/graph.h"
#include "sched/query_context.h"
#include "sparql/ast.h"
#include "sparql/eval.h"
#include "sparql/functions.h"
#include "storage/asei.h"

namespace scisparql {

namespace opt {
class StatsRegistry;
}  // namespace opt

namespace sparql {

/// A SELECT result: column names plus rows of terms (Undef = unbound).
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Term>> rows;

  /// Fixed-width text rendering for examples and debugging.
  std::string ToTable(size_t max_rows = 50) const;
};

/// Receiver of the physical mutations an Update() applies — the durability
/// layer's WAL capture hook. Callbacks fire synchronously, in application
/// order, for every logical mutation including indirect ones (collection
/// consolidation after INSERT DATA, triples added by LOAD), so replaying
/// the recorded stream against the pre-update dataset reproduces the
/// post-update dataset exactly without re-evaluating patterns.
class MutationSink {
 public:
  virtual ~MutationSink() = default;
  /// `graph_iri` is "" for the default graph.
  virtual void OnAdd(const std::string& graph_iri, const Triple& t) = 0;
  virtual void OnRemove(const std::string& graph_iri, const Triple& t) = 0;
  virtual void OnClear(const std::string& graph_iri) = 0;
  virtual void OnClearAll() = 0;
};

/// Execution options — the knobs the E8 ablation benchmark flips.
struct ExecOptions {
  /// Cost-based ordering of BGP triple patterns (Section 5.4's cost-based
  /// optimization): exhaustive DP for small BGPs, greedy beyond. Off =
  /// execute in parse order.
  bool optimize_join_order = true;

  /// Merge the FILTERs that directly follow a run of triple patterns into
  /// that BGP: their sargable conjuncts feed the cardinality estimator, and
  /// they run on each joined row as it leaves the BGP's ID join. Off = they
  /// run as separate steps after the BGP, and the estimator sees no hints.
  bool push_filters = true;

  /// Graph statistics registry feeding the join-order cost model
  /// (per-predicate counts, distinct-value counts, histograms). Not owned;
  /// may be null, in which case the optimizer falls back to raw
  /// index-bucket estimates with fixed join discounts.
  const opt::StatsRegistry* stats = nullptr;

  /// APR configuration threaded into array proxies created during
  /// execution.
  AprConfig apr;

  /// Safety valve for property-path closure evaluation: the edge visits
  /// one closure may make. A closure that reaches it stops without error
  /// (its results are truncated) and bumps
  /// ssdm_exec_path_budget_exhausted_total.
  int64_t max_path_visits = 1000000;

  /// Deadline / cancellation context for this execution (not owned; may be
  /// null). Observed cooperatively in the executor's hot loops, so a
  /// timed-out or cancelled query returns DeadlineExceeded / Cancelled
  /// mid-flight instead of running to completion.
  const sched::QueryContext* query = nullptr;

  /// Trace sink (not owned; may be null). Non-null turns on profiling: the
  /// executor records per-scan input/output cardinalities and optimizer
  /// time, and appends operator spans under trace->attach_point() when the
  /// query finishes. Null keeps the hot loops at one branch.
  obs::QueryTrace* trace = nullptr;

  /// Memo of optimized BGP join orders for this statement (not owned; may
  /// be null). The engine's plan cache hands the same memo to every
  /// execution of a cached statement, so the Selinger enumeration runs
  /// once per (BGP signature, graph version) instead of once per query.
  cache::PlanMemo* plan_memo = nullptr;

  /// Mutation capture for Update() (not owned; may be null). The engine
  /// installs its WAL collector here per update statement; queries never
  /// touch it.
  MutationSink* mutations = nullptr;
};

/// Evaluates SciSPARQL queries and updates against a Dataset. The executor
/// implements the operational semantics of Section 5.4.2: graph-pattern
/// elements evaluate left to right with sideways information passing;
/// within a basic graph pattern the optimizer is free to reorder joins.
class Executor {
 public:
  Executor(Dataset* dataset, FunctionRegistry* registry,
           ExecOptions options = ExecOptions());

  Result<QueryResult> Select(const ast::SelectQuery& q);
  Result<bool> Ask(const ast::SelectQuery& q);
  Result<Graph> Construct(const ast::SelectQuery& q);
  /// DESCRIBE: concise bounded description (subject triples plus
  /// transitive blank-node expansion) of the target resources.
  Result<Graph> Describe(const ast::SelectQuery& q);
  /// Executes an update / LOAD / CLEAR operation; returns the number of
  /// triples touched (inserted + deleted).
  Result<int64_t> Update(const ast::UpdateOp& op);

  /// Text description of the executed plan (BGP order, pushed filters).
  Result<std::string> Explain(const ast::SelectQuery& q);

  /// Runs the body of a SciSPARQL-defined function with arguments bound to
  /// its parameters; returns the bag of first-projection values.
  Result<std::vector<Term>> CallDefined(const ast::FunctionDef& def,
                                        const std::vector<Term>& args);

  const ExecOptions& options() const { return options_; }
  ExecOptions& options() { return options_; }

 private:
  friend class ExecImpl;

  Dataset* dataset_;
  FunctionRegistry* registry_;
  ExecOptions options_;
};

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_EXECUTOR_H_
