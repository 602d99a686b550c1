#ifndef SCISPARQL_OPT_PLANNER_H_
#define SCISPARQL_OPT_PLANNER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "opt/stats.h"
#include "rdf/graph.h"
#include "rdf/term.h"

namespace scisparql {
namespace opt {

/// Comparison shape of a FILTER conjunct usable for selectivity: ?v op c.
enum class RangeOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// A sargable FILTER fragment: variable compared against a numeric
/// constant. The caller (executor) extracts these from the FILTERs pushed
/// into a BGP; the estimator folds them into pattern cardinalities.
struct FilterHint {
  std::string var;
  RangeOp op = RangeOp::kEq;
  double bound = 0;
};

/// One triple pattern, abstracted for estimation: each position is either
/// a resolved constant (already-bound variables are resolved by the
/// caller) or a variable name.
struct PatternDesc {
  std::optional<Term> s, p, o;          // constants
  std::string s_var, p_var, o_var;      // variable names ("" = constant)
  bool is_path = false;                 // complex property path

  std::vector<std::string> Vars() const;
};

/// Cardinality estimator over one graph. With statistics it combines the
/// graph's exact index-bucket sizes (constant positions) with
/// distinct-value counts (join-variable positions) and per-predicate value
/// histograms (range FILTERs); without statistics it degrades to the
/// index-bucket + fixed-discount heuristic.
class CardinalityEstimator {
 public:
  CardinalityEstimator(const Graph* graph, const GraphStats* stats)
      : graph_(graph), stats_(stats) {}

  /// Estimated matches of `d` given that variables in `bound` will already
  /// be bound (to unknown values) when the pattern executes.
  int64_t Estimate(const PatternDesc& d, const std::set<std::string>& bound,
                   const std::vector<FilterHint>& hints = {}) const;

  /// Selectivity in (0, 1] of `hint` applied to the object of predicate
  /// `p`, from the predicate's value histogram; 1.0 when unknown.
  double HintSelectivity(const Term& p, const FilterHint& hint) const;

  bool has_stats() const { return stats_ != nullptr; }

 private:
  const Graph* graph_;
  const GraphStats* stats_;  // may be null
};

/// One step of a BGP plan: which input pattern runs at this position, its
/// estimated per-scan cardinality, and the estimated cumulative number of
/// rows after joining it (what EXPLAIN compares against actual counts).
struct PlannedStep {
  size_t input_index = 0;
  int64_t estimate = 0;
  int64_t cumulative = 0;
};

struct BgpPlan {
  std::vector<PlannedStep> steps;
  bool reordered = false;   // order differs from the textual one
  double cost = 0;          // sum of estimated intermediate result sizes
};

/// Physical operator executing one step of an ID-space BGP pipeline: the
/// first pattern is always an index scan over the best-fitting permutation;
/// every later pattern either probes its permutation once per left key
/// (bind join) or joins the accumulated intermediate result with its own
/// index scan via merge or hash.
enum class PhysicalOp {
  kIndexScan,
  kMergeJoin,
  kHashJoin,
  kBindJoin,
};

const char* PhysicalOpName(PhysicalOp op);

/// Exact sizes one join step is chosen from; each costs at most a binary
/// search over a permutation or one pass over the materialized left side.
struct JoinInputs {
  /// Both inputs arrive sorted on the single shared join variable.
  bool merge_possible = false;
  /// The pattern shares a variable with the left side, so its
  /// permutation can be probed with the left side's values.
  bool bind_possible = false;
  double left_rows = 0;
  /// Probes a bind join would run: runs of equal probe keys in left-side
  /// order (consecutive equal keys share one probe).
  double left_keys = 0;
  /// Length of the pattern's constant prefix range (PrefixScan::raw_rows).
  double right_rows = 0;
};

/// Cost of one bind-join probe (two binary searches over a permutation,
/// plus the delta run's) in units of one range row scanned and
/// merge-joined. DESIGN.md ("ID-join executor") records its calibration.
constexpr double kBindProbeCost = 20.0;

/// Cost rule for one join step over the ID space. A bind join wins when
/// its probes cost less than reading the pattern's whole range:
/// left_keys * kBindProbeCost < right_rows. Otherwise, when both inputs
/// arrive sorted on the shared variable — the permutation indexes provide
/// sort order for free and no sort operator exists — a merge join (one
/// interleaved pass, no build table); else a hash join, building on the
/// smaller input. `*build_left` reports which side that is.
PhysicalOp ChoosePhysicalJoin(const JoinInputs& in, bool* build_left);

/// Join-order enumeration over the conjuncts of a basic graph pattern:
/// exhaustive dynamic programming (Selinger-style over subsets, cost = sum
/// of intermediate cardinalities) for BGPs up to `dp_limit` patterns,
/// greedy smallest-estimate-first beyond that. `hints` are sargable
/// FILTER fragments pushed into this BGP, matched to patterns by
/// variable name inside the estimator.
BgpPlan PlanBgp(const std::vector<PatternDesc>& patterns,
                const std::vector<FilterHint>& hints,
                const CardinalityEstimator& est, size_t dp_limit = 6);

}  // namespace opt
}  // namespace scisparql

#endif  // SCISPARQL_OPT_PLANNER_H_
