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
  const uint32_t* row(size_t r) const {
    return data.data() + r * slots.size();
  }
};

/// Component (0=s, 1=p, 2=o) at each key position of each permutation.
constexpr int kKeyComp[3][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}};

int KeyComp(Perm perm, int kpos) {
  return kKeyComp[static_cast<int>(perm)][kpos];
}

/// The permutation whose sort order turns the fixed components
/// (`fixed[c]` for c = s, p, o) into a contiguous key prefix, and that
/// prefix's length.
std::pair<Perm, int> PrefixPerm(const bool fixed[3]) {
  const bool s = fixed[0], p = fixed[1], o = fixed[2];
  if (s && p && o) return {Perm::kSpo, 3};
  if (s && p) return {Perm::kSpo, 2};
  if (p && o) return {Perm::kPos, 2};
  if (s && o) return {Perm::kOsp, 2};
  if (s) return {Perm::kSpo, 1};
  if (p) return {Perm::kPos, 1};
  if (o) return {Perm::kOsp, 1};
  return {Perm::kSpo, 0};
}

/// Index-scan shape of one pattern over its constants: the permutation
/// whose sort order turns the constant positions into a contiguous prefix,
/// the output columns (variable components in key order, deduplicated),
/// and any repeated-slot equality constraints filtered during the scan.
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
  const bool fixed[3] = {!pat.s.is_var, !pat.p.is_var, !pat.o.is_var};
  ScanPlan sp;
  std::tie(sp.perm, sp.n_fixed) = PrefixPerm(fixed);
  for (int kpos = 0; kpos < sp.n_fixed; ++kpos) {
    sp.key[kpos] = pos[KeyComp(sp.perm, kpos)]->const_id;
  }
  // Variable components in permutation key order; the constants are a key
  // prefix by construction, so these are key positions n_fixed..2. The
  // scan's rows come out sorted by the first of them.
  for (int kpos = sp.n_fixed; kpos < 3; ++kpos) {
    int comp = KeyComp(sp.perm, kpos);
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

bool PassesEq(const ScanPlan& sp, const uint32_t c3[3]) {
  for (const auto& [a, b] : sp.eq) {
    if (c3[a] != c3[b]) return false;
  }
  return true;
}

/// Materializes the pattern's prefix range, merged with the matching
/// delta run when one is pending.
void RunScan(const PrefixScan& scan, const ScanPlan& sp, ScanTally* tally,
             Relation* rel) {
  rel->slots = sp.out_slot;
  rel->sorted_slot = sp.out_slot.empty() ? -1 : sp.out_slot[0];
  rel->data.reserve(scan.raw_rows() * sp.out_comp.size());
  scan.ForEach(tally, [&](const IdTriple& t) {
    const uint32_t c3[3] = {t.s, t.p, t.o};
    if (!PassesEq(sp, c3)) return true;
    for (int comp : sp.out_comp) rel->data.push_back(c3[comp]);
    ++rel->rows;
    return true;
  });
}

/// How one pattern joins the columns the left side already carries.
struct StepShape {
  ScanPlan scan;  // the pattern's constant-prefix scan
  std::vector<std::pair<size_t, size_t>> pairs;  // (left col, scan col)
  std::vector<size_t> new_cols;  // scan columns appended to the output
};

StepShape ShapeStep(const IdPattern& pat, const std::vector<int>& left_slots) {
  StepShape sh;
  sh.scan = PlanScan(pat);
  for (size_t rc = 0; rc < sh.scan.out_slot.size(); ++rc) {
    auto it = std::find(left_slots.begin(), left_slots.end(),
                        sh.scan.out_slot[rc]);
    if (it != left_slots.end()) {
      sh.pairs.emplace_back(static_cast<size_t>(it - left_slots.begin()), rc);
    } else {
      sh.new_cols.push_back(rc);
    }
  }
  return sh;
}

constexpr uint32_t kInterruptStride = 0x1FFF;

/// One bind-join step: the pattern's permutation probed once per left key.
/// The key folds the pattern's constants with the left row's values of
/// the shared slots, so every shared position — repeated ones included —
/// is fixed, and the probe's rows differ only in the appended columns.
class BindProbe {
 public:
  BindProbe(const IdPattern& pat, const StepShape& sh, IdJoinStep* step)
      : eq_(sh.scan), step_(step) {
    const IdSlot* pos[3] = {&pat.s, &pat.p, &pat.o};
    bool fixed[3];
    size_t col_of[3] = {0, 0, 0};
    for (int c = 0; c < 3; ++c) {
      fixed[c] = !pos[c]->is_var;
      for (const auto& [lc, rc] : sh.pairs) {
        if (pos[c]->is_var && pos[c]->slot == sh.scan.out_slot[rc]) {
          fixed[c] = true;
          col_of[c] = lc;
        }
      }
    }
    std::tie(perm_, n_fixed_) = PrefixPerm(fixed);
    step_->op = opt::PhysicalOp::kBindJoin;
    step_->perm = perm_;
    for (int kpos = 0; kpos < n_fixed_; ++kpos) {
      const IdSlot& at = *pos[KeyComp(perm_, kpos)];
      if (!at.is_var) {
        key_[kpos] = at.const_id;
        continue;
      }
      key_cols_.emplace_back(kpos, col_of[KeyComp(perm_, kpos)]);
      if (std::find(step_->on.begin(), step_->on.end(), at.slot) ==
          step_->on.end()) {
        step_->on.push_back(at.slot);
      }
    }
    for (size_t rc : sh.new_cols) new_comps_.push_back(sh.scan.out_comp[rc]);
  }

  size_t width() const { return new_comps_.size(); }

  /// Calls `fn(const uint32_t* cols)` with the appended columns of each
  /// match of `left`'s key until it returns false; returns false if `fn`
  /// stopped. A probe that ran to completion is kept for the next call
  /// with the same key.
  template <typename Fn>
  bool ForEachMatch(const IdIndexes& idx, const DeltaIdRuns* delta,
                    const uint32_t* left, ScanTally* tally, Fn&& fn) {
    std::array<uint32_t, 3> key = key_;
    for (const auto& [kpos, col] : key_cols_) key[kpos] = left[col];
    const size_t w = new_comps_.size();
    if (cached_ && key == cached_key_) {
      for (size_t m = 0; m < cached_matches_; ++m) {
        ++step_->out_rows;
        if (!fn(cache_.data() + m * w)) return false;
      }
      return true;
    }
    PrefixScan scan(idx, delta, perm_, key, n_fixed_);
    step_->scan_rows += scan.raw_rows();
    step_->delta = step_->delta || scan.delta_hit();
    cached_ = false;
    cached_key_ = key;
    cached_matches_ = 0;
    cache_.clear();
    uint32_t cols[3];
    bool done = scan.ForEach(tally, [&](const IdTriple& t) {
      const uint32_t c3[3] = {t.s, t.p, t.o};
      if (!PassesEq(eq_, c3)) return true;
      for (size_t c = 0; c < w; ++c) cols[c] = c3[new_comps_[c]];
      cache_.insert(cache_.end(), cols, cols + w);
      ++cached_matches_;
      ++step_->out_rows;
      return fn(static_cast<const uint32_t*>(cols));
    });
    cached_ = done;
    return done;
  }

 private:
  Perm perm_ = Perm::kSpo;
  int n_fixed_ = 0;
  std::array<uint32_t, 3> key_{0, 0, 0};
  std::vector<std::pair<int, size_t>> key_cols_;  // key position <- left col
  std::vector<int> new_comps_;  // component read per appended column
  const ScanPlan& eq_;          // repeated-slot equalities
  IdJoinStep* step_;
  // The last completed probe: its key, its match count and the matches'
  // appended columns (none when the pattern binds nothing new).
  bool cached_ = false;
  std::array<uint32_t, 3> cached_key_{0, 0, 0};
  size_t cached_matches_ = 0;
  std::vector<uint32_t> cache_;
};

/// Probes a bind join would run over `left`: runs of equal key tuples in
/// row order, since consecutive equal keys share one probe.
size_t CountProbeKeys(const Relation& left,
                      const std::vector<std::pair<size_t, size_t>>& pairs) {
  size_t keys = 0;
  for (size_t r = 0; r < left.rows; ++r) {
    bool same = r > 0;
    for (size_t x = 0; same && x < pairs.size(); ++x) {
      same = left.at(r, pairs[x].first) == left.at(r - 1, pairs[x].first);
    }
    if (!same) ++keys;
  }
  return keys;
}

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
  // Join columns on each side, in pair order.
  std::vector<size_t> build_cols, probe_cols;
  for (const auto& [lc, rc] : pairs) {
    build_cols.push_back(build_left ? lc : rc);
    probe_cols.push_back(build_left ? rc : lc);
  }
  const size_t n_key = std::min<size_t>(2, pairs.size());
  auto key_of = [n_key](const Relation& rel, size_t r,
                        const std::vector<size_t>& cols) -> uint64_t {
    uint64_t k = 0;
    for (size_t x = 0; x < n_key; ++x) k = (k << 32) | rel.at(r, cols[x]);
    return k;
  };

  std::unordered_map<uint64_t, std::vector<uint32_t>> table;
  table.reserve(build.rows);
  for (size_t r = 0; r < build.rows; ++r) {
    table[key_of(build, r, build_cols)].push_back(static_cast<uint32_t>(r));
  }

  const size_t lw = left.width();
  uint32_t tick = 0;
  static const std::vector<uint32_t> kEmpty;
  for (size_t pr = 0; pr < probe.rows; ++pr) {
    if (interrupt != nullptr && (++tick & kInterruptStride) == 0) {
      SCISPARQL_RETURN_NOT_OK(interrupt());
    }
    // With no join pairs every key is 0: a cross product.
    auto it = table.find(key_of(probe, pr, probe_cols));
    const std::vector<uint32_t>& bucket =
        it == table.end() ? kEmpty : it->second;
    for (uint32_t br : bucket) {
      bool match = true;
      for (size_t x = 2; x < pairs.size(); ++x) {
        if (build.at(br, build_cols[x]) != probe.at(pr, probe_cols[x])) {
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

/// Runs bind-join steps depth-first from each row of `left`: every row
/// that passes the last probe goes to `sink`, in left order, so the
/// output keeps the left side's sort order. Stops early when the sink
/// returns false.
class BindRunner {
 public:
  BindRunner(const IdIndexes& idx, const DeltaIdRuns* delta,
             std::vector<BindProbe>* probes,
             const std::function<Status()>& interrupt, const IdRowSink& sink,
             ScanTally* tally)
      : idx_(idx),
        delta_(delta),
        probes_(*probes),
        interrupt_(interrupt),
        sink_(sink),
        tally_(tally) {}

  Status Run(const Relation& left) {
    size_t width = left.width();
    for (const BindProbe& p : probes_) width += p.width();
    row_.resize(width);
    for (size_t r = 0; r < left.rows; ++r) {
      std::copy(left.row(r), left.row(r) + left.width(), row_.begin());
      if (!Level(0, left.width())) break;
    }
    return status_;
  }

 private:
  bool Level(size_t level, size_t width) {
    if (level == probes_.size()) return sink_(row_.data());
    if (interrupt_ != nullptr && (++tick_ & kInterruptStride) == 0) {
      status_ = interrupt_();
      if (!status_.ok()) return false;
    }
    BindProbe& probe = probes_[level];
    const size_t w = probe.width();
    return probe.ForEachMatch(idx_, delta_, row_.data(), tally_,
                              [&](const uint32_t* cols) {
                                std::copy(cols, cols + w,
                                          row_.begin() + width);
                                return Level(level + 1, width + w);
                              });
  }

  const IdIndexes& idx_;
  const DeltaIdRuns* delta_;
  std::vector<BindProbe>& probes_;
  const std::function<Status()>& interrupt_;
  const IdRowSink& sink_;
  ScanTally* tally_;
  std::vector<uint32_t> row_;
  uint32_t tick_ = 0;
  Status status_ = Status::OK();
};

}  // namespace

Status ExecuteIdJoin(const IdIndexes& idx, const DeltaIdRuns* delta,
                     const std::vector<IdPattern>& patterns, size_t max_rows,
                     const std::function<Status()>& interrupt,
                     const IdRowSink& emit, IdJoinResult* out,
                     bool* overflow) {
  *overflow = false;
  const size_t n = patterns.size();
  if (n == 0) return Status::OK();
  // Every step's shape, against the columns accumulated before it; the
  // output layout is fixed up front, whichever operators run.
  std::vector<StepShape> shapes;
  shapes.reserve(n);
  out->slots.clear();
  for (const IdPattern& pat : patterns) {
    shapes.push_back(ShapeStep(pat, out->slots));
    const StepShape& sh = shapes.back();
    for (size_t rc : sh.new_cols) out->slots.push_back(sh.scan.out_slot[rc]);
  }
  out->steps.assign(n, IdJoinStep{});
  // Range sizes cost a binary search each and decide the operators; a
  // step's range is materialized only if it is scanned.
  std::vector<PrefixScan> ranges;
  ranges.reserve(n);
  for (const StepShape& sh : shapes) {
    ranges.emplace_back(idx, delta, sh.scan.perm, sh.scan.key,
                        sh.scan.n_fixed);
  }
  auto choose = [&](size_t i, const Relation& left, double left_keys,
                    bool* build_left) {
    const StepShape& sh = shapes[i];
    opt::JoinInputs in;
    // Merge needs one shared slot with both sides sorted on it; the scan
    // side is sorted by its column 0, so that column must be the key.
    in.merge_possible = sh.pairs.size() == 1 && sh.pairs[0].second == 0 &&
                        left.sorted_slot >= 0 &&
                        left.sorted_slot == sh.scan.out_slot[0];
    in.bind_possible = !sh.pairs.empty();
    in.left_rows = static_cast<double>(left.rows);
    in.left_keys = left_keys;
    in.right_rows = static_cast<double>(ranges[i].raw_rows());
    return opt::ChoosePhysicalJoin(in, build_left);
  };

  ScanTally tally;
  Relation acc;
  {
    IdJoinStep& step = out->steps[0];
    step.perm = shapes[0].scan.perm;
    step.scan_rows = ranges[0].raw_rows();
    step.delta = ranges[0].delta_hit();
    RunScan(ranges[0], shapes[0].scan, &tally, &acc);
    if (acc.rows > max_rows) {
      *overflow = true;
      return Status::OK();
    }
    step.out_rows = acc.rows;
  }

  size_t i = 1;
  for (; i < n; ++i) {
    if (interrupt != nullptr) SCISPARQL_RETURN_NOT_OK(interrupt());
    const StepShape& sh = shapes[i];
    IdJoinStep& step = out->steps[i];
    bool build_left = false;
    step.op = choose(i, acc, static_cast<double>(CountProbeKeys(acc, sh.pairs)),
                     &build_left);
    if (step.op == opt::PhysicalOp::kBindJoin) {
      // Stream from here when every later step would also bind-join with
      // the accumulated rows as its probe count; otherwise materialize
      // this step, so the next one is chosen from its exact size.
      bool stream = true;
      for (size_t j = i + 1; j < n && stream; ++j) {
        stream = choose(j, acc, static_cast<double>(acc.rows), nullptr) ==
                 opt::PhysicalOp::kBindJoin;
      }
      if (stream) break;
      std::vector<BindProbe> probe;
      probe.emplace_back(patterns[i], sh, &step);
      Relation joined;
      joined.slots = acc.slots;
      for (size_t c : sh.new_cols) joined.slots.push_back(sh.scan.out_slot[c]);
      joined.sorted_slot = acc.sorted_slot;
      const size_t width = joined.width();
      IdRowSink append = [&](const uint32_t* row) {
        if (joined.rows + 1 > max_rows) {
          *overflow = true;
          return false;
        }
        joined.data.insert(joined.data.end(), row, row + width);
        ++joined.rows;
        return true;
      };
      SCISPARQL_RETURN_NOT_OK(
          BindRunner(idx, delta, &probe, interrupt, append, &tally).Run(acc));
      if (*overflow) return Status::OK();
      acc = std::move(joined);
      continue;
    }

    Relation scan;
    step.perm = sh.scan.perm;
    step.scan_rows = ranges[i].raw_rows();
    step.delta = ranges[i].delta_hit();
    step.build_left = build_left;
    RunScan(ranges[i], sh.scan, &tally, &scan);

    Relation joined;
    joined.slots = acc.slots;
    for (size_t c : sh.new_cols) joined.slots.push_back(scan.slots[c]);
    if (step.op == opt::PhysicalOp::kMergeJoin) {
      step.on = {scan.slots[0]};
      joined.sorted_slot = scan.slots[0];
      SCISPARQL_RETURN_NOT_OK(MergeJoin(acc, sh.pairs[0].first, scan,
                                        interrupt, max_rows, &joined,
                                        overflow));
    } else {
      // Probe side streams in order, so its sort column survives the join.
      joined.sorted_slot = build_left ? scan.sorted_slot : acc.sorted_slot;
      SCISPARQL_RETURN_NOT_OK(HashJoin(acc, scan, sh.pairs, build_left,
                                       interrupt, max_rows, sh.new_cols,
                                       &joined, overflow));
    }
    if (*overflow) return Status::OK();
    acc = std::move(joined);
    step.out_rows = acc.rows;
  }

  // Steps i..n-1 are bind joins run depth-first from each accumulated row
  // (none when the last step materialized).
  std::vector<BindProbe> tail;
  tail.reserve(n - i);
  for (size_t j = i; j < n; ++j) {
    tail.emplace_back(patterns[j], shapes[j], &out->steps[j]);
  }
  return BindRunner(idx, delta, &tail, interrupt, emit, &tally).Run(acc);
}

}  // namespace sparql
}  // namespace scisparql
