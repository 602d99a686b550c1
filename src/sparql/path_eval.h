#ifndef SCISPARQL_SPARQL_PATH_EVAL_H_
#define SCISPARQL_SPARQL_PATH_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/id_index.h"
#include "sparql/ast.h"
#include "sparql/id_join.h"

namespace scisparql {

class Graph;

namespace sparql {

/// Dense bitset over dictionary IDs that remembers which words it has
/// set, so a reset costs the words touched since the last one rather
/// than the whole ID range. It grows to the highest ID inserted.
class IdBitset {
 public:
  /// Sets `id`'s bit; returns whether it was clear.
  bool Insert(uint32_t id) {
    const size_t w = id >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((words_[w] & bit) != 0) return false;
    if (words_[w] == 0) touched_.push_back(static_cast<uint32_t>(w));
    words_[w] |= bit;
    return true;
  }

  /// Clears every bit set since the last reset.
  void Reset() {
    for (uint32_t w : touched_) words_[w] = 0;
    touched_.clear();
  }

  /// The set IDs in ascending order.
  std::vector<uint32_t> Ids() const;

 private:
  std::vector<uint64_t> words_;
  std::vector<uint32_t> touched_;
};

/// Query-scoped scratch shared by every path evaluation of one query: the
/// node universe of one (graph, snapshot), kept across path patterns. A
/// nested pattern on another graph or at a later snapshot replaces it;
/// each evaluator keeps its own reference to the one it read.
struct PathScratch {
  std::shared_ptr<const std::vector<uint32_t>> universe;
  const Graph* universe_graph = nullptr;
  uint64_t universe_epoch = 0;
};

/// Evaluates one SPARQL 1.1 property path over dictionary IDs, reading
/// the graph's base permutations merged with its pending delta at one
/// snapshot (PrefixScan), which the caller pins. A link is an SPO (s,p)
/// or POS (p,o) prefix probe; a negated set is an SPO or OSP prefix scan
/// that skips the excluded predicates; closures are breadth-first
/// searches over the same probes with a dense visited bitset.
///
/// Endpoint IDs may lie past the dictionary (the caller's stand-ins for
/// terms no triple holds, numbered from a dictionary size read after the
/// evaluator was built): no probe finds them, but zero-length paths still
/// connect them to themselves.
class PathEvaluator {
 public:
  /// An unbound endpoint.
  static constexpr uint32_t kAny = TermDictionary::kNoId;
  /// Receives one (start, end) pair; returns false to stop evaluation.
  using PairFn = std::function<bool(uint32_t, uint32_t)>;

  /// `delta` holds `graph`'s pending delta runs at epoch `snapshot` (may
  /// be null). `max_visits` caps the edge visits of one closure; a
  /// closure that reaches it stops without error. `interrupt` (may be
  /// empty) is polled once per closure edge visit.
  PathEvaluator(const ast::Path& path, const Graph& graph, uint64_t snapshot,
                const DeltaIdRuns* delta, int64_t max_visits,
                std::function<Status()> interrupt, PathScratch* scratch);

  /// Calls `cb` for every pair the path connects from `start` to `end`
  /// (either may be kAny). An end naming a stored array stands for every
  /// value-equal array among the nodes, as an array does in a BGP. Returns
  /// the interrupt's error, if any.
  Status Eval(uint32_t start, uint32_t end, const PairFn& cb);

  /// The distinct subject and object IDs live at the snapshot, ascending.
  /// Taken from the scratch when it holds this (graph, snapshot)'s, and
  /// kept for the evaluator's lifetime.
  const std::vector<uint32_t>& Universe();

 private:
  /// A path's IRIs resolved to IDs: a link's predicate (kAny when absent
  /// from the dictionary, so no edge carries it), or a negated set's
  /// excluded predicates.
  struct Preds {
    uint32_t link = kAny;
    std::vector<uint32_t> forward;
    std::vector<uint32_t> inverse;
  };

  void Resolve(const ast::Path& path);
  /// The array `id` names, or null (kAny, stand-ins and other terms).
  const Term* ArrayAt(uint32_t id) const;
  Status EvalNode(const ast::Path& path, uint32_t start, uint32_t end,
                  const PairFn& cb);
  /// Edges start -p-> end for any p not in `excluded`; returns false if
  /// `cb` stopped.
  bool NegatedScan(uint32_t start, uint32_t end,
                   const std::vector<uint32_t>& excluded, bool inverse,
                   const PairFn& cb);
  /// Breadth-first closure of `step` from `origin` (walking edges
  /// backwards when `inverse`), reporting (origin, reached) pairs.
  Status Closure(const ast::Path& step, uint32_t origin, uint32_t end,
                 bool include_zero, bool inverse, const PairFn& cb);

  const ast::Path& root_;
  const Graph& graph_;
  uint64_t snapshot_;
  const IdIndexes& idx_;
  const DeltaIdRuns* delta_;
  const TermDictionary& dict_;
  size_t id_limit_;  // dictionary size at construction: stand-ins lie past
  int64_t max_visits_;
  std::function<Status()> interrupt_;
  PathScratch* scratch_;
  std::unordered_map<const ast::Path*, Preds> preds_;
  std::shared_ptr<const std::vector<uint32_t>> universe_;
  ScanTally tally_;
};

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_PATH_EVAL_H_
