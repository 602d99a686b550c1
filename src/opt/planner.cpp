#include "opt/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace scisparql {
namespace opt {

namespace {

constexpr double kMaxCard = 1e15;
constexpr double kMinSelectivity = 1e-4;

int64_t ClampCard(double c) {
  c = std::clamp(c, 1.0, kMaxCard);
  return static_cast<int64_t>(c);
}

}  // namespace

const char* PhysicalOpName(PhysicalOp op) {
  switch (op) {
    case PhysicalOp::kIndexScan:
      return "index-scan";
    case PhysicalOp::kMergeJoin:
      return "merge-join";
    case PhysicalOp::kHashJoin:
      return "hash-join";
    case PhysicalOp::kBindJoin:
      return "bind-join";
  }
  return "?";
}

PhysicalOp ChoosePhysicalJoin(const JoinInputs& in, bool* build_left) {
  if (build_left != nullptr) *build_left = in.left_rows <= in.right_rows;
  if (in.bind_possible && in.left_keys * kBindProbeCost < in.right_rows) {
    return PhysicalOp::kBindJoin;
  }
  if (in.merge_possible) return PhysicalOp::kMergeJoin;
  return PhysicalOp::kHashJoin;
}

std::vector<std::string> PatternDesc::Vars() const {
  std::vector<std::string> out;
  if (!s_var.empty()) out.push_back(s_var);
  if (!p_var.empty()) out.push_back(p_var);
  if (!o_var.empty()) out.push_back(o_var);
  return out;
}

double CardinalityEstimator::HintSelectivity(const Term& p,
                                             const FilterHint& hint) const {
  if (stats_ == nullptr) return 1.0;
  double numeric_fraction = 1.0;
  std::optional<EquiDepthHistogram> hist =
      stats_->ObjectValueHistogram(p, &numeric_fraction);
  if (!hist.has_value()) return 1.0;
  double sel;
  switch (hint.op) {
    case RangeOp::kLt:
    case RangeOp::kLe:
      sel = hist->FractionLeq(hint.bound);
      break;
    case RangeOp::kGt:
    case RangeOp::kGe:
      sel = 1.0 - hist->FractionLeq(hint.bound);
      break;
    case RangeOp::kEq:
      sel = 1.0 / static_cast<double>(
                      std::max<int64_t>(1, stats_->DistinctObjects(p)));
      break;
    case RangeOp::kNe:
      sel = 1.0;
      break;
    default:
      sel = 1.0;
      break;
  }
  // A non-numeric object makes the comparison an error, which a FILTER
  // maps to false, so only the numeric fraction can survive at all.
  sel *= numeric_fraction;
  return std::clamp(sel, kMinSelectivity, 1.0);
}

int64_t CardinalityEstimator::Estimate(
    const PatternDesc& d, const std::set<std::string>& bound,
    const std::vector<FilterHint>& hints) const {
  auto later = [&bound](const std::string& var) {
    return !var.empty() && bound.count(var) > 0;
  };

  if (d.is_path) {
    // Complex property paths have no per-edge statistics; keep the
    // endpoint heuristic: bound endpoints make closures dramatically
    // cheaper than free-floating ones.
    int64_t base = static_cast<int64_t>(graph_->size()) + 1;
    if (d.s.has_value() || d.o.has_value()) return base / 10 + 1;
    if (later(d.s_var) || later(d.o_var)) return base / 2 + 1;
    return base;
  }

  bool s_later = later(d.s_var);
  bool p_later = later(d.p_var);
  bool o_later = later(d.o_var);

  // Constant positions resolve to exact index-bucket sizes.
  int64_t base = graph_->EstimateMatches(d.s, d.p, d.o) + 1;

  if (stats_ == nullptr) {
    // Without the statistics registry, fall back to the aggregated counts
    // of the ID-space permutation indexes when they happen to be built
    // (PeekIdIndexes never forces a build): total / distinct is the exact
    // mean bucket size per position, a far better join-variable discount
    // than the fixed one below.
    const IdIndexes* idx = graph_->PeekIdIndexes();
    if (idx != nullptr && !idx->spo.empty()) {
      // The permutations cover only the folded base table; pending delta
      // operations are extra rows the ID-join path will merge in, so fold
      // them into the total to keep the mean bucket sizes honest under
      // sustained writes.
      double n =
          static_cast<double>(idx->spo.size() + graph_->delta_ops());
      double est = static_cast<double>(base);
      auto discount = [&](size_t distinct) {
        double avg = n / static_cast<double>(std::max<size_t>(1, distinct));
        est = std::max(1.0, est * (avg / n));
      };
      if (s_later) discount(idx->distinct_s);
      if (p_later) discount(idx->distinct_p);
      if (o_later) discount(idx->distinct_o);
      return ClampCard(est);
    }
    // Fallback heuristic (the pre-statistics behavior): each join
    // variable quarters the estimate.
    int later_count = (s_later ? 1 : 0) + (p_later ? 1 : 0) + (o_later ? 1 : 0);
    int64_t est = base;
    for (int i = 0; i < later_count; ++i) est = est / 4 + 1;
    return est;
  }

  double est = static_cast<double>(base);
  if (d.p.has_value()) {
    // Known predicate: distinct-value counts give the expected fan-out of
    // a join variable (count / distinct ~ mean index-bucket size).
    double ds = static_cast<double>(
        std::max<int64_t>(1, stats_->DistinctSubjects(*d.p)));
    double dobj = static_cast<double>(
        std::max<int64_t>(1, stats_->DistinctObjects(*d.p)));
    if (d.s.has_value() && !d.o.has_value() && o_later) {
      est = std::max(1.0, est / dobj);
    } else if (d.o.has_value() && !d.s.has_value() && s_later) {
      est = std::max(1.0, est / ds);
    } else if (!d.s.has_value() && !d.o.has_value()) {
      if (s_later) est = std::max(1.0, est / ds);
      if (o_later) est = std::max(1.0, est / dobj);
    }
    // Sargable FILTERs on a free object variable shrink the scan by the
    // histogram selectivity.
    if (!d.o_var.empty() && !o_later) {
      for (const FilterHint& h : hints) {
        if (h.var == d.o_var) est *= HintSelectivity(*d.p, h);
      }
    }
  } else {
    // Variable predicate: discount by global distinct counts.
    if (p_later) {
      est = std::max(
          1.0, est / static_cast<double>(
                         std::max<int64_t>(1, stats_->num_predicates())));
    }
    if (s_later && !d.s.has_value()) {
      est = std::max(
          1.0, est / static_cast<double>(
                         std::max<int64_t>(1, stats_->DistinctSubjects())));
    }
    if (o_later && !d.o.has_value()) {
      est = std::max(
          1.0, est / static_cast<double>(
                         std::max<int64_t>(1, stats_->DistinctObjects())));
    }
  }
  return ClampCard(est);
}

namespace {

struct DpEntry {
  double cost = std::numeric_limits<double>::infinity();
  double card = 1.0;
  int last = -1;
  uint32_t prev = 0;
};

BgpPlan FinishPlan(const std::vector<PatternDesc>& patterns,
                   const std::vector<FilterHint>& hints,
                   const CardinalityEstimator& est,
                   std::vector<size_t> order) {
  BgpPlan plan;
  std::set<std::string> bound;
  double card = 1.0;
  double cost = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const PatternDesc& d = patterns[order[k]];
    int64_t step = est.Estimate(d, bound, hints);
    card = std::min(kMaxCard, card * static_cast<double>(step));
    cost += card;
    PlannedStep ps;
    ps.input_index = order[k];
    ps.estimate = step;
    ps.cumulative = ClampCard(card);
    plan.steps.push_back(ps);
    if (order[k] != k) plan.reordered = true;
    for (const std::string& v : d.Vars()) bound.insert(v);
  }
  plan.cost = cost;
  return plan;
}

}  // namespace

BgpPlan PlanBgp(const std::vector<PatternDesc>& patterns,
                const std::vector<FilterHint>& hints,
                const CardinalityEstimator& est, size_t dp_limit) {
  const size_t n = patterns.size();
  std::vector<size_t> order;
  if (n <= 1) {
    order.resize(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    return FinishPlan(patterns, hints, est, std::move(order));
  }

  if (n <= dp_limit && n <= 16) {
    // Exhaustive DP over subsets: dp[mask] is the cheapest way to join
    // exactly the patterns in `mask`, with cost = sum of intermediate
    // result sizes (the C_out cost model).
    const uint32_t full = (1u << n) - 1;
    std::vector<DpEntry> dp(full + 1);
    dp[0].cost = 0.0;
    dp[0].card = 1.0;
    std::vector<std::set<std::string>> mask_vars(full + 1);
    for (uint32_t mask = 0; mask <= full; ++mask) {
      if (std::isinf(dp[mask].cost)) continue;
      if (mask != 0) {
        // Vars of this mask: extend from the predecessor (already built).
        mask_vars[mask] = mask_vars[dp[mask].prev];
        for (const std::string& v :
             patterns[static_cast<size_t>(dp[mask].last)].Vars()) {
          mask_vars[mask].insert(v);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) continue;
        uint32_t next = mask | (1u << i);
        int64_t step = est.Estimate(patterns[i], mask_vars[mask], hints);
        double card =
            std::min(kMaxCard, dp[mask].card * static_cast<double>(step));
        double cost = dp[mask].cost + card;
        if (cost < dp[next].cost) {
          dp[next].cost = cost;
          dp[next].card = card;
          dp[next].last = static_cast<int>(i);
          dp[next].prev = mask;
        }
      }
    }
    order.resize(n);
    uint32_t mask = full;
    for (size_t k = n; k-- > 0;) {
      order[k] = static_cast<size_t>(dp[mask].last);
      mask = dp[mask].prev;
    }
    return FinishPlan(patterns, hints, est, std::move(order));
  }

  // Greedy: repeatedly take the cheapest remaining pattern, preferring
  // patterns connected to the already-bound variables (avoids accidental
  // cartesian products that the estimate alone might rank well).
  std::vector<bool> used(n, false);
  std::set<std::string> bound;
  for (size_t k = 0; k < n; ++k) {
    size_t best = n;
    int64_t best_est = 0;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      // A pattern with no variables is always "connected" (pure check).
      bool connected = bound.empty() || patterns[i].Vars().empty();
      for (const std::string& v : patterns[i].Vars()) {
        if (bound.count(v) > 0) {
          connected = true;
          break;
        }
      }
      int64_t e = est.Estimate(patterns[i], bound, hints);
      if (best == n || (connected && !best_connected) ||
          (connected == best_connected && e < best_est)) {
        best = i;
        best_est = e;
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const std::string& v : patterns[best].Vars()) bound.insert(v);
  }
  return FinishPlan(patterns, hints, est, std::move(order));
}

}  // namespace opt
}  // namespace scisparql
