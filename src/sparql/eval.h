#ifndef SCISPARQL_SPARQL_EVAL_H_
#define SCISPARQL_SPARQL_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"
#include "sched/query_context.h"
#include "sparql/ast.h"
#include "sparql/functions.h"

namespace scisparql {
namespace sparql {

/// Per-query expression-evaluation counters, recorded by the evaluator's
/// element-wise loops (MAP / CONDENSE) when a query is profiled. Written by
/// the single thread evaluating the query.
struct EvalCounters {
  /// Function applications performed element-wise over arrays.
  int64_t elem_calls = 0;
};

/// Environment for expression evaluation. The executor fills the hooks so
/// the evaluator can run EXISTS sub-patterns and SciSPARQL-defined
/// functions without depending on the executor's headers.
struct EvalContext {
  /// Looks a variable up in place in the current solution: the bound
  /// value, or null when unbound (or when `lookup` is unset). `lookup_env`
  /// is passed back to it.
  const Term* (*lookup)(const void* env, const std::string& name) = nullptr;
  const void* lookup_env = nullptr;

  /// Evaluates an EXISTS pattern against the current solution.
  std::function<Result<bool>(const ast::GraphPattern&)> eval_exists;

  /// Calls a SciSPARQL-defined function (parameterized view); returns the
  /// bag of values of its first projection (DAPLEX semantics). Scalar
  /// expression contexts use the first element.
  std::function<Result<std::vector<Term>>(const ast::FunctionDef&,
                                          const std::vector<Term>&)>
      call_defined;

  const FunctionRegistry* registry = nullptr;

  /// Pre-computed values for aggregate sub-expressions (grouped queries),
  /// keyed by AST node identity.
  const std::map<const ast::Expr*, Term>* agg_values = nullptr;

  /// Deadline/cancellation context of the enclosing query (may be null).
  /// Observed in the element-wise loops (MAP / CONDENSE), which can call a
  /// SciSPARQL-defined function per array element.
  const sched::QueryContext* query = nullptr;

  /// Profiling counters (may be null = off). The hot loops pay one branch
  /// when off, mirroring the cancellation checkpoints.
  EvalCounters* eval_stats = nullptr;
};

/// Evaluates a SciSPARQL expression. Returns a non-OK Status for SPARQL
/// evaluation *errors* (type errors, unbound variables); FILTER treats
/// those as false, BIND as unbound.
Result<Term> EvalExpr(const ast::Expr& expr, const EvalContext& ctx);

/// SPARQL effective boolean value of a term (error for terms that have no
/// EBV, e.g. IRIs).
Result<bool> EffectiveBooleanValue(const Term& t);

/// Compares two terms with SPARQL operator semantics (`<' etc.); error for
/// incomparable operand kinds. Returns -1/0/1.
Result<int> CompareTerms(const Term& a, const Term& b);

/// Materializes the array behind a term (error for non-arrays).
Result<NumericArray> TermToArray(const Term& t);

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_EVAL_H_
