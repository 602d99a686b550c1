#include "sparql/id_join.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "rdf/graph.h"
#include "sparql/path_eval.h"

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

/// Up to three elements held inline, one per triple position, so that
/// shaping a step allocates nothing: a one-pattern BGP, such as an
/// OPTIONAL arm, runs once per outer row.
template <typename T>
class Small3 {
 public:
  void push_back(const T& x) { v_[n_++] = x; }
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const T& operator[](size_t i) const { return v_[i]; }
  const T* begin() const { return v_.data(); }
  const T* end() const { return v_.data() + n_; }

 private:
  std::array<T, 3> v_{};
  size_t n_ = 0;
};

using ColPairs = Small3<std::pair<size_t, size_t>>;

/// An accumulated intermediate relation over slot columns. `sorted_slot`
/// is a slot whose column is known non-decreasing across rows (-1 when no
/// such guarantee holds) — the property that enables merge joins. The
/// default relation is the join's unit: one row of no columns.
struct Relation {
  std::vector<int> slots;      // column c carries slot slots[c]
  std::vector<uint32_t> data;  // row-major, stride slots.size()
  size_t rows = 1;
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
/// A path's predicate position counts as a constant, so its output
/// columns are its open ends.
struct ScanPlan {
  Perm perm = Perm::kSpo;
  std::array<uint32_t, 3> key{0, 0, 0};
  int n_fixed = 0;
  Small3<int> out_comp;  // component (0=s,1=p,2=o) per output column
  Small3<int> out_slot;  // slot per output column
  Small3<std::pair<int, int>> eq;  // components that must match
};

ScanPlan PlanScan(const IdPattern& pat) {
  const IdSlot* pos[3] = {&pat.s, &pat.p, &pat.o};
  const bool fixed[3] = {!pat.s.is_var, pat.path != nullptr || !pat.p.is_var,
                         !pat.o.is_var};
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
        sp.eq.push_back({sp.out_comp[c], comp});
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
Relation RunScan(const PrefixScan& scan, const ScanPlan& sp, ScanTally* tally) {
  Relation rel;
  rel.rows = 0;
  rel.slots.assign(sp.out_slot.begin(), sp.out_slot.end());
  rel.sorted_slot = sp.out_slot.empty() ? -1 : sp.out_slot[0];
  rel.data.reserve(scan.raw_rows() * sp.out_comp.size());
  scan.ForEach(tally, [&](const IdTriple& t) {
    const uint32_t c3[3] = {t.s, t.p, t.o};
    if (!PassesEq(sp, c3)) return true;
    for (int comp : sp.out_comp) rel.data.push_back(c3[comp]);
    ++rel.rows;
    return true;
  });
  return rel;
}

/// How one pattern joins the columns the left side already carries.
struct StepShape {
  ScanPlan scan;             // the pattern's constant-prefix scan
  ColPairs pairs;            // (left col, scan col)
  Small3<size_t> new_cols;   // scan columns appended to the output
};

/// `left` holds the `n_left` slots the left side carries.
StepShape ShapeStep(const IdPattern& pat, const int* left, size_t n_left) {
  StepShape sh;
  sh.scan = PlanScan(pat);
  for (size_t rc = 0; rc < sh.scan.out_slot.size(); ++rc) {
    const int* it = std::find(left, left + n_left, sh.scan.out_slot[rc]);
    if (it != left + n_left) {
      sh.pairs.push_back({static_cast<size_t>(it - left), rc});
    } else {
      sh.new_cols.push_back(rc);
    }
  }
  return sh;
}

constexpr uint32_t kInterruptStride = 0x1FFF;

/// One step run once per left row: a probe of the pattern's permutation
/// (a bind join, or with no shared slot an index scan of the constant
/// prefix), or a path evaluation. The key folds the pattern's constants
/// with the left row's values of the shared slots, so every shared
/// position — repeated ones included — is fixed, and the matches differ
/// only in the appended columns. A path's key is (start, -, end), an
/// open end being PathEvaluator::kAny.
class ProbeStep {
 public:
  ProbeStep(const IdPattern& pat, const StepShape& sh, IdJoinStep* step)
      : path_(pat.path), eq_(sh.scan), step_(step) {
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
    *step_ = IdJoinStep{};
    // Key positions: permutation key order for a probe, the component
    // itself for a path.
    auto fix = [&](int kpos, int c) {
      if (!pos[c]->is_var) {
        key_[kpos] = pos[c]->const_id;
        return;
      }
      key_cols_.push_back({kpos, col_of[c]});
      if (std::find(step_->on.begin(), step_->on.end(), pos[c]->slot) ==
          step_->on.end()) {
        step_->on.push_back(pos[c]->slot);
      }
    };
    if (path_ != nullptr) {
      step_->op = opt::PhysicalOp::kPath;
      for (int c : {0, 2}) {
        key_[c] = PathEvaluator::kAny;
        if (fixed[c]) fix(c, c);
      }
    } else {
      std::tie(perm_, n_fixed_) = PrefixPerm(fixed);
      step_->op = sh.pairs.empty() ? opt::PhysicalOp::kIndexScan
                                   : opt::PhysicalOp::kBindJoin;
      step_->perm = perm_;
      for (int kpos = 0; kpos < n_fixed_; ++kpos) {
        fix(kpos, KeyComp(perm_, kpos));
      }
    }
    for (size_t rc : sh.new_cols) new_comps_.push_back(sh.scan.out_comp[rc]);
  }

  size_t width() const { return new_comps_.size(); }

  /// Whether a completed probe is kept for the next call with the same key
  /// (pointless for a step run from a single left row).
  void set_reuse(bool reuse) { reuse_ = reuse; }

  /// Calls `fn(const uint32_t* cols)` with the appended columns of each
  /// match of `left`'s key until it returns false; returns false if `fn`
  /// stopped or a path evaluation failed (its error goes to *status).
  template <typename Fn>
  bool ForEachMatch(const IdIndexes& idx, const DeltaIdRuns* delta,
                    const uint32_t* left, ScanTally* tally, Status* status,
                    Fn&& fn) {
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
    cached_ = false;
    cached_key_ = key;
    cached_matches_ = 0;
    cache_.clear();
    uint32_t cols[3];
    auto take = [&](const uint32_t c3[3]) {
      if (!PassesEq(eq_, c3)) return true;
      for (size_t c = 0; c < w; ++c) cols[c] = c3[new_comps_[c]];
      if (reuse_) cache_.insert(cache_.end(), cols, cols + w);
      ++cached_matches_;
      ++step_->out_rows;
      return fn(static_cast<const uint32_t*>(cols));
    };
    bool done = true;
    if (path_ == nullptr) {
      PrefixScan scan(idx, delta, perm_, key, n_fixed_);
      step_->scan_rows += scan.raw_rows();
      step_->delta = step_->delta || scan.delta_hit();
      done = scan.ForEach(tally, [&](const IdTriple& t) {
        const uint32_t c3[3] = {t.s, t.p, t.o};
        return take(c3);
      });
    } else {
      step_->delta = delta != nullptr && !delta->empty();
      auto pair = [&](uint32_t s, uint32_t o) {
        ++step_->scan_rows;
        const uint32_t c3[3] = {s, 0, o};
        done = take(c3);
        return done;
      };
      Status st = path_->Eval(key[0], key[2], std::ref(pair));
      if (!st.ok()) {
        *status = std::move(st);
        return false;
      }
    }
    cached_ = done && reuse_;
    return done;
  }

 private:
  PathEvaluator* path_;
  Perm perm_ = Perm::kSpo;
  int n_fixed_ = 0;
  std::array<uint32_t, 3> key_{0, 0, 0};
  Small3<std::pair<int, size_t>> key_cols_;  // key position <- left col
  Small3<int> new_comps_;       // component read per appended column
  const ScanPlan& eq_;          // repeated-slot equalities
  IdJoinStep* step_;
  bool reuse_ = true;
  // The last completed probe: its key, its match count and the matches'
  // appended columns (none when the pattern binds nothing new).
  bool cached_ = false;
  std::array<uint32_t, 3> cached_key_{0, 0, 0};
  size_t cached_matches_ = 0;
  std::vector<uint32_t> cache_;
};

/// Probes a bind join would run over `left`: runs of equal key tuples in
/// row order, since consecutive equal keys share one probe.
size_t CountProbeKeys(const Relation& left, const ColPairs& pairs) {
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
/// Equal-key runs emit their cross product, preserving duplicates, as
/// `emit(left row, right row)` calls until one returns false.
template <typename Emit>
Status MergeJoin(const Relation& left, size_t lcol, const Relation& right,
                 const std::function<Status()>& interrupt, Emit&& emit) {
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
      for (size_t ii = i; ii < i2; ++ii) {
        for (size_t jj = j; jj < j2; ++jj) {
          if (!emit(ii, jj)) return Status::OK();
        }
      }
      i = i2;
      j = j2;
    }
  }
  return Status::OK();
}

/// Hash join (or, with no join pairs, a cross product). Builds a flat
/// chained table over the build side — a bucket head per power-of-two
/// slot and a next link per build row, no per-key allocation — and probes
/// with the other side in order, so the output inherits the probe side's
/// sort column. Keys pack up to two join values exactly; any further pairs
/// are verified per candidate, so collisions cannot produce false matches.
/// A probe meets its matches in build-row order. Matches go to
/// `emit(left row, right row)` until it returns false.
template <typename Emit>
Status HashJoin(const Relation& left, const Relation& right,
                const ColPairs& pairs, bool build_left,
                const std::function<Status()>& interrupt, Emit&& emit) {
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  // Join columns on each side, in pair order.
  Small3<size_t> build_cols, probe_cols;
  for (const auto& [lc, rc] : pairs) {
    build_cols.push_back(build_left ? lc : rc);
    probe_cols.push_back(build_left ? rc : lc);
  }
  const size_t n_key = std::min<size_t>(2, pairs.size());
  auto key_of = [n_key](const Relation& rel, size_t r,
                        const Small3<size_t>& cols) -> uint64_t {
    uint64_t k = 0;
    for (size_t x = 0; x < n_key; ++x) k = (k << 32) | rel.at(r, cols[x]);
    return k;
  };

  constexpr uint32_t kEnd = 0xFFFFFFFFu;
  int bits = 4;
  while ((size_t{1} << bits) < build.rows) ++bits;
  const int shift = 64 - bits;
  auto bucket = [shift](uint64_t k) {
    return static_cast<size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift);
  };
  std::vector<uint64_t> keys(build.rows);
  std::vector<uint32_t> head(size_t{1} << bits, kEnd);
  std::vector<uint32_t> next(build.rows);
  // Linked back to front, so each chain runs in build-row order.
  for (size_t r = build.rows; r-- > 0;) {
    keys[r] = key_of(build, r, build_cols);
    uint32_t& h = head[bucket(keys[r])];
    next[r] = h;
    h = static_cast<uint32_t>(r);
  }

  uint32_t tick = 0;
  for (size_t pr = 0; pr < probe.rows; ++pr) {
    if (interrupt != nullptr && (++tick & kInterruptStride) == 0) {
      SCISPARQL_RETURN_NOT_OK(interrupt());
    }
    // With no join pairs every key is 0: a cross product.
    const uint64_t k = key_of(probe, pr, probe_cols);
    for (uint32_t br = head[bucket(k)]; br != kEnd; br = next[br]) {
      if (keys[br] != k) continue;
      bool match = true;
      for (size_t x = 2; x < pairs.size(); ++x) {
        if (build.at(br, build_cols[x]) != probe.at(pr, probe_cols[x])) {
          match = false;
          break;
        }
      }
      if (match && !emit(build_left ? br : pr, build_left ? pr : br)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

/// Runs steps depth-first from each row of `left`: every row that passes
/// the last step goes to `sink`, in left order, so the output keeps the
/// left side's sort order. Stops early when the sink returns false.
class StepRunner {
 public:
  StepRunner(const IdIndexes& idx, const DeltaIdRuns* delta,
             std::vector<ProbeStep>* steps,
             const std::function<Status()>& interrupt, const IdRowSink& sink,
             ScanTally* tally, std::vector<uint32_t>* row)
      : idx_(idx),
        delta_(delta),
        steps_(*steps),
        interrupt_(interrupt),
        sink_(sink),
        tally_(tally),
        row_(*row) {}

  Status Run(const Relation& left) {
    size_t width = left.width();
    for (const ProbeStep& p : steps_) width += p.width();
    row_.resize(width);
    if (!steps_.empty()) steps_[0].set_reuse(left.rows > 1);
    for (size_t r = 0; r < left.rows; ++r) {
      std::copy(left.row(r), left.row(r) + left.width(), row_.begin());
      if (!Level(0, left.width())) break;
    }
    return status_;
  }

 private:
  bool Level(size_t level, size_t width) {
    if (level == steps_.size()) return sink_(row_.data());
    if (interrupt_ != nullptr && (++tick_ & kInterruptStride) == 0) {
      status_ = interrupt_();
      if (!status_.ok()) return false;
    }
    ProbeStep& step = steps_[level];
    const size_t w = step.width();
    return step.ForEachMatch(idx_, delta_, row_.data(), tally_, &status_,
                             [&](const uint32_t* cols) {
                               std::copy(cols, cols + w,
                                         row_.begin() + width);
                               return Level(level + 1, width + w);
                             });
  }

  const IdIndexes& idx_;
  const DeltaIdRuns* delta_;
  std::vector<ProbeStep>& steps_;
  const std::function<Status()>& interrupt_;
  const IdRowSink& sink_;
  ScanTally* tally_;
  std::vector<uint32_t>& row_;
  uint32_t tick_ = 0;
  Status status_ = Status::OK();
};

}  // namespace

/// What a run keeps for the next one: the step shapes, the probe steps
/// and the streamed row, so a repeated run allocates only for the
/// relations it materializes.
struct IdJoin::Scratch {
  std::vector<StepShape> shapes;
  std::vector<ProbeStep> probes;
  std::vector<uint32_t> row;
};

IdJoin::IdJoin(std::vector<IdPattern> patterns)
    : patterns_(std::move(patterns)), scratch_(std::make_unique<Scratch>()) {
  for (const IdPattern& pat : patterns_) {
    const StepShape sh = ShapeStep(pat, slots_.data(), slots_.size());
    for (size_t rc : sh.new_cols) slots_.push_back(sh.scan.out_slot[rc]);
  }
  scratch_->shapes.reserve(patterns_.size());
  scratch_->probes.reserve(patterns_.size());
}

IdJoin::~IdJoin() = default;

Status IdJoin::Run(const IdIndexes& idx, const DeltaIdRuns* delta,
                   size_t max_rows, const std::function<Status()>& interrupt,
                   const IdRowSink& emit) {
  const std::vector<IdPattern>& patterns = patterns_;
  const size_t n = patterns.size();
  // Every step's shape, against the columns accumulated before it; the
  // output layout was fixed at construction, whichever operators run.
  std::vector<StepShape>& shapes = scratch_->shapes;
  shapes.clear();
  size_t n_left = 0;
  for (const IdPattern& pat : patterns) {
    shapes.push_back(ShapeStep(pat, slots_.data(), n_left));
    n_left += shapes.back().new_cols.size();
  }
  steps_.assign(n, IdJoinStep{});

  ScanTally tally;
  Relation acc;
  // Runs steps first..last-1 depth-first from every accumulated row.
  auto run = [&](size_t first, size_t last, const IdRowSink& sink) {
    std::vector<ProbeStep>& steps = scratch_->probes;
    steps.clear();
    for (size_t j = first; j < last; ++j) {
      steps.emplace_back(patterns[j], shapes[j], &steps_[j]);
    }
    return StepRunner(idx, delta, &steps, interrupt, sink, &tally,
                      &scratch_->row)
        .Run(acc);
  };
  if (n < 2) return run(0, n, emit);

  // Range sizes cost a binary search each and decide the operators; a
  // step's range is materialized only if it is scanned.
  auto range_of = [&](size_t j) {
    const ScanPlan& sp = shapes[j].scan;
    return PrefixScan(idx, delta, sp.perm, sp.key, sp.n_fixed);
  };
  auto choose = [&](size_t j, const Relation& left, double left_keys,
                    bool* build_left) {
    if (patterns[j].path != nullptr) return opt::PhysicalOp::kPath;
    const StepShape& sh = shapes[j];
    opt::JoinInputs in;
    // Merge needs one shared slot with both sides sorted on it; the scan
    // side is sorted by its column 0, so that column must be the key.
    in.merge_possible = sh.pairs.size() == 1 && sh.pairs[0].second == 0 &&
                        left.sorted_slot >= 0 &&
                        left.sorted_slot == sh.scan.out_slot[0];
    in.bind_possible = !sh.pairs.empty();
    in.left_rows = static_cast<double>(left.rows);
    in.left_keys = left_keys;
    in.right_rows = static_cast<double>(range_of(j).raw_rows());
    return opt::ChoosePhysicalJoin(in, build_left);
  };
  auto per_row = [](opt::PhysicalOp op) {
    return op == opt::PhysicalOp::kBindJoin || op == opt::PhysicalOp::kPath;
  };

  size_t i = 0;
  if (patterns[0].path == nullptr) {
    // The first scan is materialized, so the next step is chosen from its
    // exact size — unless it alone passes the cap.
    const PrefixScan scan = range_of(0);
    if (scan.raw_rows() > max_rows) return run(0, n, emit);
    IdJoinStep& step = steps_[0];
    step.perm = shapes[0].scan.perm;
    step.scan_rows = scan.raw_rows();
    step.delta = scan.delta_hit();
    acc = RunScan(scan, shapes[0].scan, &tally);
    step.out_rows = acc.rows;
    i = 1;
  }

  for (; i < n; ++i) {
    if (interrupt != nullptr) SCISPARQL_RETURN_NOT_OK(interrupt());
    const StepShape& sh = shapes[i];
    IdJoinStep& step = steps_[i];
    bool build_left = false;
    const double keys = patterns[i].path != nullptr
                            ? 0.0
                            : static_cast<double>(CountProbeKeys(acc, sh.pairs));
    const opt::PhysicalOp op = choose(i, acc, keys, &build_left);
    Relation joined;
    joined.rows = 0;
    joined.slots = acc.slots;
    for (size_t c : sh.new_cols) joined.slots.push_back(sh.scan.out_slot[c]);
    bool capped = false;
    auto room = [&] {  // whether `joined` takes another row
      capped = joined.rows == max_rows;
      return !capped;
    };
    if (per_row(op)) {
      // Stream from here when every later step would also run per left
      // row, with the accumulated rows as its probe count; otherwise
      // materialize this step, so the next one is chosen from its exact
      // size.
      bool stream = true;
      for (size_t j = i + 1; j < n && stream; ++j) {
        stream = per_row(
            choose(j, acc, static_cast<double>(acc.rows), nullptr));
      }
      if (stream) break;
      joined.sorted_slot = acc.sorted_slot;
      const size_t width = joined.width();
      SCISPARQL_RETURN_NOT_OK(run(i, i + 1, [&](const uint32_t* row) {
        if (!room()) return false;
        joined.data.insert(joined.data.end(), row, row + width);
        ++joined.rows;
        return true;
      }));
    } else {
      const PrefixScan range = range_of(i);
      step.op = op;
      step.perm = sh.scan.perm;
      step.scan_rows = range.raw_rows();
      step.delta = range.delta_hit();
      step.build_left = build_left;
      const Relation scan = RunScan(range, sh.scan, &tally);
      auto append = [&](size_t lr, size_t rr) {
        if (!room()) return false;
        joined.data.insert(joined.data.end(), acc.row(lr),
                           acc.row(lr) + acc.width());
        for (size_t c : sh.new_cols) joined.data.push_back(scan.at(rr, c));
        ++joined.rows;
        return true;
      };
      if (op == opt::PhysicalOp::kMergeJoin) {
        step.on = {scan.slots[0]};
        joined.sorted_slot = scan.slots[0];
        SCISPARQL_RETURN_NOT_OK(
            MergeJoin(acc, sh.pairs[0].first, scan, interrupt, append));
      } else {
        // Probe side streams in order, so its sort column survives.
        joined.sorted_slot = build_left ? scan.sorted_slot : acc.sorted_slot;
        SCISPARQL_RETURN_NOT_OK(
            HashJoin(acc, scan, sh.pairs, build_left, interrupt, append));
      }
      step.out_rows = joined.rows;
    }
    // Past the cap, this step and every later one stream from the rows
    // accumulated so far instead.
    if (capped) break;
    acc = std::move(joined);
  }
  return run(i, n, emit);
}

}  // namespace sparql
}  // namespace scisparql
