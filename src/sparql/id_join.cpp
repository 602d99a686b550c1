#include "sparql/id_join.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "rdf/graph.h"

namespace scisparql {
namespace sparql {

ScanTally::~ScanTally() { RecordTripleScans(scans, rows); }

PrefixScan::PrefixScan(const IdIndexes& idx, const DeltaIdRuns* delta,
                       Perm perm, const std::array<uint32_t, 3>& key,
                       int n_fixed)
    : base_(idx.perm(perm)), perm_(perm) {
  std::tie(lo_, hi_) = PrefixRange(base_, perm, key, n_fixed);
  if (delta != nullptr && !delta->empty()) {
    delta_ = &delta->run(perm);
    std::tie(dlo_, dhi_) = DeltaPrefixRange(*delta_, perm, key, n_fixed);
  }
}

namespace {

/// An accumulated intermediate relation over slot columns. `sorted_slot`
/// is a slot whose column is known non-decreasing across rows (-1 when no
/// such guarantee holds) — the property that enables merge joins.
struct Relation {
  std::vector<int> slots;      // column c carries slot slots[c]
  std::vector<uint32_t> data;  // row-major, stride slots.size()
  size_t rows = 0;
  int sorted_slot = -1;

  size_t width() const { return slots.size(); }
  uint32_t at(size_t r, size_t c) const { return data[r * slots.size() + c]; }
};

/// Index-scan shape of one pattern: the permutation whose sort order turns
/// the constant positions into a contiguous prefix, the output columns
/// (variable components in key order, deduplicated), and any repeated-slot
/// equality constraints filtered during the scan.
struct ScanPlan {
  Perm perm = Perm::kSpo;
  std::array<uint32_t, 3> key{0, 0, 0};
  int n_fixed = 0;
  std::vector<int> out_comp;  // component (0=s,1=p,2=o) per output column
  std::vector<int> out_slot;  // slot per output column
  std::vector<std::pair<int, int>> eq;  // components that must match
};

ScanPlan PlanScan(const IdPattern& pat) {
  const IdSlot* pos[3] = {&pat.s, &pat.p, &pat.o};
  bool cs = !pat.s.is_var, cp = !pat.p.is_var, co = !pat.o.is_var;
  ScanPlan sp;
  if (cs && cp && co) {
    sp.perm = Perm::kSpo;
    sp.key = {pat.s.const_id, pat.p.const_id, pat.o.const_id};
    sp.n_fixed = 3;
  } else if (cs && cp) {
    sp.perm = Perm::kSpo;
    sp.key = {pat.s.const_id, pat.p.const_id, 0};
    sp.n_fixed = 2;
  } else if (cp && co) {
    sp.perm = Perm::kPos;
    sp.key = {pat.p.const_id, pat.o.const_id, 0};
    sp.n_fixed = 2;
  } else if (cs && co) {
    sp.perm = Perm::kOsp;
    sp.key = {pat.o.const_id, pat.s.const_id, 0};
    sp.n_fixed = 2;
  } else if (cs) {
    sp.perm = Perm::kSpo;
    sp.key = {pat.s.const_id, 0, 0};
    sp.n_fixed = 1;
  } else if (cp) {
    sp.perm = Perm::kPos;
    sp.key = {pat.p.const_id, 0, 0};
    sp.n_fixed = 1;
  } else if (co) {
    sp.perm = Perm::kOsp;
    sp.key = {pat.o.const_id, 0, 0};
    sp.n_fixed = 1;
  } else {
    sp.perm = Perm::kSpo;
    sp.n_fixed = 0;
  }
  // Variable components in permutation key order; the constants are a key
  // prefix by construction, so these are key positions n_fixed..2. The
  // scan's rows come out sorted by the first of them.
  static const int kKeyComp[3][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
  for (int kpos = sp.n_fixed; kpos < 3; ++kpos) {
    int comp = kKeyComp[static_cast<int>(sp.perm)][kpos];
    int slot = pos[comp]->slot;
    bool dup = false;
    for (size_t c = 0; c < sp.out_slot.size(); ++c) {
      if (sp.out_slot[c] == slot) {
        sp.eq.emplace_back(sp.out_comp[c], comp);
        dup = true;
        break;
      }
    }
    if (!dup) {
      sp.out_comp.push_back(comp);
      sp.out_slot.push_back(slot);
    }
  }
  return sp;
}

/// Materializes the pattern's prefix range, merged with the matching
/// delta run when one is pending. `*scanned` is the raw range length of
/// both runs (before repeated-slot filtering) — what EXPLAIN reports as
/// the scan's input cardinality. Sets *delta_hit when the delta run
/// contributed to (or suppressed rows from) the range.
void RunScan(const IdIndexes& idx, const DeltaIdRuns* delta,
             const ScanPlan& sp, Relation* rel, size_t* scanned,
             bool* delta_hit) {
  PrefixScan scan(idx, delta, sp.perm, sp.key, sp.n_fixed);
  *scanned = scan.raw_rows();
  *delta_hit = scan.delta_hit();
  rel->slots = sp.out_slot;
  rel->sorted_slot = sp.out_slot.empty() ? -1 : sp.out_slot[0];
  rel->data.reserve(*scanned * sp.out_comp.size());
  ScanTally tally;
  scan.ForEach(&tally, [&](const IdTriple& t) {
    const uint32_t c3[3] = {t.s, t.p, t.o};
    for (const auto& [a, b] : sp.eq) {
      if (c3[a] != c3[b]) return true;
    }
    for (int comp : sp.out_comp) rel->data.push_back(c3[comp]);
    ++rel->rows;
    return true;
  });
}

constexpr uint32_t kInterruptStride = 0x1FFF;

/// Merge join on the single shared slot; both inputs arrive sorted on it.
/// Equal-key runs emit their cross product, preserving duplicates.
Status MergeJoin(const Relation& left, size_t lcol, const Relation& right,
                 const std::function<Status()>& interrupt, size_t max_rows,
                 Relation* out, bool* overflow) {
  const size_t lw = left.width(), rw = right.width();
  uint32_t tick = 0;
  size_t i = 0, j = 0;
  while (i < left.rows && j < right.rows) {
    if (interrupt != nullptr && (++tick & kInterruptStride) == 0) {
      SCISPARQL_RETURN_NOT_OK(interrupt());
    }
    uint32_t a = left.at(i, lcol);
    uint32_t b = right.at(j, 0);
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      size_t i2 = i, j2 = j;
      while (i2 < left.rows && left.at(i2, lcol) == a) ++i2;
      while (j2 < right.rows && right.at(j2, 0) == a) ++j2;
      if (out->rows + (i2 - i) * (j2 - j) > max_rows) {
        *overflow = true;
        return Status::OK();
      }
      for (size_t ii = i; ii < i2; ++ii) {
        for (size_t jj = j; jj < j2; ++jj) {
          for (size_t c = 0; c < lw; ++c) out->data.push_back(left.at(ii, c));
          for (size_t c = 1; c < rw; ++c) {
            out->data.push_back(right.at(jj, c));
          }
          ++out->rows;
        }
      }
      i = i2;
      j = j2;
    }
  }
  return Status::OK();
}

/// Hash join (or, with no join pairs, a cross product). Builds a key →
/// row-index table over the build side, probes with the other side in
/// order, so the output inherits the probe side's sort column. Keys pack
/// up to two join values exactly; any further pairs are verified per
/// candidate, so collisions cannot produce false matches.
Status HashJoin(const Relation& left, const Relation& right,
                const std::vector<std::pair<size_t, size_t>>& pairs,
                bool build_left, const std::function<Status()>& interrupt,
                size_t max_rows, const std::vector<size_t>& r_new_cols,
                Relation* out, bool* overflow) {
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  auto build_col = [&](size_t pair_idx) {
    return build_left ? pairs[pair_idx].first : pairs[pair_idx].second;
  };
  auto probe_col = [&](size_t pair_idx) {
    return build_left ? pairs[pair_idx].second : pairs[pair_idx].first;
  };
  auto key_of = [&](const Relation& rel, size_t r,
                    const std::function<size_t(size_t)>& col) -> uint64_t {
    uint64_t k = 0;
    const size_t n = std::min<size_t>(2, pairs.size());
    for (size_t x = 0; x < n; ++x) {
      k = (k << 32) | rel.at(r, col(x));
    }
    return k;
  };

  std::unordered_map<uint64_t, std::vector<uint32_t>> table;
  table.reserve(build.rows);
  for (size_t r = 0; r < build.rows; ++r) {
    table[key_of(build, r, build_col)].push_back(static_cast<uint32_t>(r));
  }

  const size_t lw = left.width();
  uint32_t tick = 0;
  static const std::vector<uint32_t> kEmpty;
  for (size_t pr = 0; pr < probe.rows; ++pr) {
    if (interrupt != nullptr && (++tick & kInterruptStride) == 0) {
      SCISPARQL_RETURN_NOT_OK(interrupt());
    }
    const std::vector<uint32_t>* bucket = &kEmpty;
    if (pairs.empty()) {
      // Cross product: every build row matches.
      auto it = table.find(0);
      if (it != table.end()) bucket = &it->second;
    } else {
      auto it = table.find(key_of(probe, pr, probe_col));
      if (it != table.end()) bucket = &it->second;
    }
    for (uint32_t br : *bucket) {
      bool match = true;
      for (size_t x = 2; x < pairs.size(); ++x) {
        if (build.at(br, build_col(x)) != probe.at(pr, probe_col(x))) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      if (out->rows + 1 > max_rows) {
        *overflow = true;
        return Status::OK();
      }
      const size_t lr = build_left ? br : pr;
      const size_t rr = build_left ? pr : br;
      for (size_t c = 0; c < lw; ++c) out->data.push_back(left.at(lr, c));
      for (size_t c : r_new_cols) out->data.push_back(right.at(rr, c));
      ++out->rows;
    }
  }
  return Status::OK();
}

}  // namespace

Status ExecuteIdJoin(const IdIndexes& idx, const DeltaIdRuns* delta,
                     const std::vector<IdPattern>& patterns, size_t max_rows,
                     const std::function<Status()>& interrupt,
                     IdJoinResult* out, bool* overflow) {
  *overflow = false;
  Relation acc;
  bool first = true;
  for (const IdPattern& pat : patterns) {
    if (interrupt != nullptr) SCISPARQL_RETURN_NOT_OK(interrupt());
    ScanPlan sp = PlanScan(pat);
    Relation scan;
    IdJoinStep step;
    step.perm = sp.perm;
    RunScan(idx, delta, sp, &scan, &step.scan_rows, &step.delta);

    if (first) {
      step.op = opt::PhysicalOp::kIndexScan;
      if (scan.rows > max_rows) {
        *overflow = true;
        return Status::OK();
      }
      acc = std::move(scan);
      first = false;
      step.out_rows = acc.rows;
      out->steps.push_back(step);
      continue;
    }

    // Columns of the scan already present in the accumulated relation
    // become join keys; the rest are appended as new output columns.
    std::vector<std::pair<size_t, size_t>> pairs;  // (acc col, scan col)
    std::vector<size_t> new_cols;
    for (size_t rc = 0; rc < scan.slots.size(); ++rc) {
      bool shared = false;
      for (size_t lc = 0; lc < acc.slots.size(); ++lc) {
        if (acc.slots[lc] == scan.slots[rc]) {
          pairs.emplace_back(lc, rc);
          shared = true;
          break;
        }
      }
      if (!shared) new_cols.push_back(rc);
    }

    // Merge needs one shared slot with both sides sorted on it; the scan
    // side is sorted by its column 0, so that column must be the key.
    bool merge_possible = pairs.size() == 1 && pairs[0].second == 0 &&
                          acc.sorted_slot >= 0 &&
                          acc.sorted_slot == scan.slots[0];
    bool build_left = false;
    step.op = opt::ChoosePhysicalJoin(merge_possible,
                                      static_cast<double>(acc.rows),
                                      static_cast<double>(scan.rows),
                                      &build_left);
    step.build_left = build_left;

    Relation joined;
    joined.slots = acc.slots;
    for (size_t c : new_cols) joined.slots.push_back(scan.slots[c]);
    if (step.op == opt::PhysicalOp::kMergeJoin) {
      step.join_slot = scan.slots[0];
      joined.sorted_slot = step.join_slot;
      SCISPARQL_RETURN_NOT_OK(MergeJoin(acc, pairs[0].first, scan, interrupt,
                                        max_rows, &joined, overflow));
    } else {
      // Probe side streams in order, so its sort column survives the join.
      joined.sorted_slot = build_left ? scan.sorted_slot : acc.sorted_slot;
      SCISPARQL_RETURN_NOT_OK(HashJoin(acc, scan, pairs, build_left,
                                       interrupt, max_rows, new_cols, &joined,
                                       overflow));
    }
    if (*overflow) return Status::OK();
    acc = std::move(joined);
    step.out_rows = acc.rows;
    out->steps.push_back(step);
  }
  out->slots = std::move(acc.slots);
  out->data = std::move(acc.data);
  out->rows = acc.rows;
  return Status::OK();
}

}  // namespace sparql
}  // namespace scisparql
