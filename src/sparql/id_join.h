#ifndef SCISPARQL_SPARQL_ID_JOIN_H_
#define SCISPARQL_SPARQL_ID_JOIN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "opt/planner.h"
#include "rdf/id_index.h"

namespace scisparql {
namespace sparql {

/// Scan and row counts of ID-space prefix scans, added to the process-wide
/// triple-scan counters (ssdm_rdf_scans_total, ssdm_rdf_scan_rows_total)
/// once, when the tally goes out of scope — so the per-row cost is a
/// local increment.
struct ScanTally {
  uint64_t scans = 0;
  uint64_t rows = 0;

  ScanTally() = default;
  ScanTally(const ScanTally&) = delete;
  ScanTally& operator=(const ScanTally&) = delete;
  ~ScanTally();
};

/// One prefix-range scan over the live triples at a snapshot: the base
/// permutation's range whose first `n_fixed` key components equal `key`,
/// merged with the matching range of the pending delta run (`delta` may
/// be null or empty). Both the ID join and the property-path evaluator
/// read through it, so this is the one base/delta merge in the executor.
///
/// The merge runs in permutation key order. A permutation key is a
/// bijective rearrangement of the triple's components, so equal keys mean
/// equal ID tuples — and, the dictionary being value-canonical, equal
/// triples (a delta cell holding an array adopts the base copy's array
/// IDs) — which makes tombstone suppression exact: a cleared delta entry
/// swallows precisely the base copies of its own triple, and the output
/// stays sorted.
class PrefixScan {
 public:
  PrefixScan(const IdIndexes& idx, const DeltaIdRuns* delta, Perm perm,
             const std::array<uint32_t, 3>& key, int n_fixed);

  /// Length of both runs' ranges, before tombstones suppress anything —
  /// what EXPLAIN reports as a scan's input cardinality.
  size_t raw_rows() const { return (hi_ - lo_) + (dhi_ - dlo_); }
  /// Whether the delta run contributed to (or suppressed rows from) the
  /// range.
  bool delta_hit() const { return dhi_ > dlo_; }

  /// Calls `fn(const IdTriple&)` for each live triple in key order until
  /// it returns false; returns false if `fn` stopped the scan. Counts one
  /// scan and every delivered row into `tally`.
  template <typename Fn>
  bool ForEach(ScanTally* tally, Fn&& fn) const;

 private:
  const std::vector<IdTriple>& base_;
  const std::vector<DeltaIdEntry>* delta_ = nullptr;
  Perm perm_;
  size_t lo_ = 0, hi_ = 0, dlo_ = 0, dhi_ = 0;
};

template <typename Fn>
bool PrefixScan::ForEach(ScanTally* tally, Fn&& fn) const {
  ++tally->scans;
  uint64_t rows = 0;
  bool more = true;
  if (dlo_ == dhi_) {
    for (size_t i = lo_; more && i < hi_; ++i) {
      ++rows;
      more = fn(base_[i]);
    }
    tally->rows += rows;
    return more;
  }
  auto visit = [&](const IdTriple& t) {
    ++rows;
    more = fn(t);
  };
  const std::vector<DeltaIdEntry>& d = *delta_;
  size_t bi = lo_, di = dlo_;
  while (more && (bi < hi_ || di < dhi_)) {
    if (di >= dhi_) {
      visit(base_[bi++]);
      continue;
    }
    const DeltaIdEntry& e = d[di];
    if (bi < hi_) {
      const std::array<uint32_t, 3> bk = PermKey(perm_, base_[bi]);
      const std::array<uint32_t, 3> dk = PermKey(perm_, e.t);
      if (bk < dk) {
        visit(base_[bi++]);
        continue;
      }
      // Same triple: the tombstone (if any) suppresses every base copy —
      // duplicates of one key are contiguous — then the delta's surviving
      // inserts follow.
      for (; more && bi < hi_ && base_[bi] == e.t; ++bi) {
        if (!e.cleared) visit(base_[bi]);
      }
    }
    ++di;
    for (uint32_t c = 0; more && c < e.adds; ++c) visit(e.t);
  }
  tally->rows += rows;
  return more;
}

class PathEvaluator;

/// One position of a triple pattern lowered to the ID space: either a
/// dictionary-resolved constant (the term itself, or a variable already
/// bound by an enclosing pattern) or an output slot. Slots are the BGP's
/// distinct unbound variables, numbered densely from 0 by the caller.
struct IdSlot {
  bool is_var = false;
  uint32_t const_id = 0;  // when !is_var
  int slot = -1;          // when is_var
};

/// A lowered triple pattern, or a property path from `s` to `o` when
/// `path` is set (its `p` is then ignored). A path's constant end may be
/// an ID past the dictionary, standing for a term no triple holds.
struct IdPattern {
  IdSlot s, p, o;
  PathEvaluator* path = nullptr;  // not owned
};

/// What one pipeline step did, for EXPLAIN / tracing: the permutation its
/// index scan (or its probes) used, how it was joined into the accumulated
/// result, and the input / output cardinalities.
struct IdJoinStep {
  opt::PhysicalOp op = opt::PhysicalOp::kIndexScan;
  Perm perm = Perm::kSpo;   // permutation the step's scan or probes read
  std::vector<int> on;      // merge key slot, or the left slots a bind
                            // join's probes or a path's ends take
  bool build_left = false;  // hash build side (kHashJoin only)
  bool delta = false;       // a scan or probe merged a pending delta run
  size_t scan_rows = 0;     // rows in the scanned range; for a bind join,
                            // the summed length of the ranges it probed;
                            // for a path, the pairs it produced
  size_t out_rows = 0;      // rows that left this step
};

/// Receives each finished join row (`slots.size()` IDs); returning false
/// stops the join.
using IdRowSink = std::function<bool(const uint32_t* row)>;

/// Row cap the executor gives IdJoin::Run for materialized steps.
constexpr size_t kIdJoinMaxRows = size_t{8} << 20;

/// A BGP lowered to ID patterns, evaluated entirely over the sorted
/// ID-tuple permutation indexes. Patterns execute in the given (planner)
/// order, each one step of the pipeline. The first triple pattern is a
/// prefix-range index scan over its constants; each later one joins the
/// accumulated relation by the operator opt::ChoosePhysicalJoin picks from
/// exact sizes:
///   - bind join: for each left row, one PrefixScan keyed by the pattern's
///     constants plus the left row's values of the shared slots (SPO for
///     (s,p[,o]), POS for (p,o), OSP for (o,s)); consecutive left rows
///     with the same key reuse the previous probe, and the left side's
///     sort order survives;
///   - merge join, when both sides arrive sorted on their single shared
///     slot;
///   - hash join over the full prefix range otherwise, building the
///     smaller side.
/// A path step calls PathEvaluator::Eval once per left row, each end a
/// constant ID, the left row's value of a shared slot, or kAny.
/// Duplicates are preserved (multiset semantics); a pattern sharing no
/// slot degenerates to a cross product.
///
/// Operators are chosen step by step against the materialized left side.
/// When a bind join or path step is chosen and every later step would be
/// one too, with that left side's row count as its probe count, the
/// remaining steps stream: they run depth-first, one left row at a time,
/// and every finished row goes straight to `emit`; a false from `emit`
/// stops the join (ASK, LIMIT). A one-pattern BGP streams its scan the
/// same way. Otherwise the step's output is materialized and the next
/// step is chosen from its exact size.
///
/// No materialized relation passes `max_rows` rows: a step whose output
/// would streams instead, with every later step, from the rows already
/// accumulated (from the unit row when it is the first scan). The answer
/// does not depend on `max_rows`.
///
/// `delta` (may be null) is the graph's pending differential index
/// resolved at the query's snapshot epoch (Graph::SnapshotDeltaIds); path
/// evaluators must read the same snapshot. When non-empty, every scan and
/// probe is a PrefixScan two-run merge, whose output stays sorted, so
/// merge-join eligibility survives concurrent writes. `interrupt` (may be
/// null) is polled between operators and inside long loops; its error,
/// or a path evaluator's, aborts the join.
///
/// A join is lowered once and may run many times, as the executor runs an
/// OPTIONAL arm once per outer row. The layout (`slots`) is fixed at
/// construction from which positions are slots; between runs
/// the caller may change the constant IDs (`patterns()`), never which
/// positions are slots. A run keeps its step shapes, probe steps and row
/// buffer for the next, so a run that materializes no relation — any
/// one-pattern BGP — allocates nothing. Not reentrant: one run at a time.
class IdJoin {
 public:
  explicit IdJoin(std::vector<IdPattern> patterns);
  ~IdJoin();
  IdJoin(const IdJoin&) = delete;
  IdJoin& operator=(const IdJoin&) = delete;

  std::vector<IdPattern>& patterns() { return patterns_; }
  /// Column c of every emitted row holds the ID bound to slot `slots()[c]`.
  const std::vector<int>& slots() const { return slots_; }
  /// The last run's per-step profile.
  const std::vector<IdJoinStep>& steps() const { return steps_; }

  Status Run(const IdIndexes& idx, const DeltaIdRuns* delta, size_t max_rows,
             const std::function<Status()>& interrupt, const IdRowSink& emit);

 private:
  struct Scratch;
  std::vector<IdPattern> patterns_;
  std::vector<int> slots_;
  std::vector<IdJoinStep> steps_;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_ID_JOIN_H_
