#include "sparql/path_eval.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "rdf/graph.h"

namespace scisparql {
namespace sparql {

namespace {

using K = ast::Path::Kind;

obs::Counter& PathBudgetExhausted() {
  static obs::Counter& c = obs::DefaultMetrics().GetCounter(
      "ssdm_exec_path_budget_exhausted_total", "",
      "Property-path closures stopped early by the max_path_visits edge-"
      "visit budget (their results are truncated).");
  return c;
}

/// Closure scratch for one nesting depth: a closure's callback runs the
/// rest of the query, which can reach another closure (as can a closure's
/// own step) before the outer one finishes.
struct ClosureLevel {
  IdBitset visited;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;
};

/// This thread's closure levels, indexed by nesting depth. They outlive
/// the query so that a visited bitset, once grown to the dictionary's
/// range, is not zero-filled again by every query; each closure clears
/// only the words its predecessor at that depth touched.
struct ClosureStack {
  std::vector<std::unique_ptr<ClosureLevel>> levels;
  size_t depth = 0;
};

ClosureStack& ThreadClosureStack() {
  static thread_local ClosureStack stack;
  return stack;
}

}  // namespace

std::vector<uint32_t> IdBitset::Ids() const {
  std::vector<uint32_t> out;
  for (size_t w = 0; w < words_.size(); ++w) {
    for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
    }
  }
  return out;
}

PathEvaluator::PathEvaluator(const ast::Path& path, const Graph& graph,
                             uint64_t snapshot, const DeltaIdRuns* delta,
                             int64_t max_visits,
                             std::function<Status()> interrupt,
                             PathScratch* scratch)
    : root_(path),
      graph_(graph),
      snapshot_(snapshot),
      idx_(graph.EnsureIdIndexes()),
      delta_(delta != nullptr && !delta->empty() ? delta : nullptr),
      dict_(graph.dict()),
      id_limit_(dict_.size()),
      max_visits_(max_visits),
      interrupt_(std::move(interrupt)),
      scratch_(scratch) {
  Resolve(path);
}

void PathEvaluator::Resolve(const ast::Path& path) {
  auto find = [&](const std::string& iri) {
    return dict_.Find(Term::Iri(iri)).value_or(kAny);
  };
  if (path.kind == K::kLink) {
    preds_[&path].link = find(path.iri);
  } else if (path.kind == K::kNegatedSet) {
    Preds& pr = preds_[&path];
    for (const std::string& iri : path.negated) pr.forward.push_back(find(iri));
    for (const std::string& iri : path.negated_inverse) {
      pr.inverse.push_back(find(iri));
    }
  }
  if (path.a != nullptr) Resolve(*path.a);
  if (path.b != nullptr) Resolve(*path.b);
}

const std::vector<uint32_t>& PathEvaluator::Universe() {
  if (universe_ != nullptr) return *universe_;
  if (scratch_->universe != nullptr && scratch_->universe_graph == &graph_ &&
      scratch_->universe_epoch == snapshot_) {
    universe_ = scratch_->universe;
    return *universe_;
  }
  IdBitset seen;
  PrefixScan all(idx_, delta_, Perm::kSpo, {0, 0, 0}, 0);
  all.ForEach(&tally_, [&](const IdTriple& t) {
    seen.Insert(t.s);
    seen.Insert(t.o);
    return true;
  });
  universe_ = std::make_shared<const std::vector<uint32_t>>(seen.Ids());
  scratch_->universe = universe_;
  scratch_->universe_graph = &graph_;
  scratch_->universe_epoch = snapshot_;
  return *universe_;
}

const Term* PathEvaluator::ArrayAt(uint32_t id) const {
  if (id >= id_limit_) return nullptr;
  const Term& t = dict_.term(id);
  return t.IsArray() ? &t : nullptr;
}

Status PathEvaluator::Eval(uint32_t start, uint32_t end, const PairFn& cb) {
  const Term* arrays[2] = {ArrayAt(start), ArrayAt(end)};
  if (arrays[0] == nullptr && arrays[1] == nullptr) {
    return EvalNode(root_, start, end, cb);
  }
  std::vector<uint32_t> from[2] = {{start}, {end}};
  for (int e = 0; e < 2; ++e) {
    if (arrays[e] == nullptr) continue;
    from[e].clear();
    for (uint32_t n : Universe()) {
      if (dict_.term(n) == *arrays[e]) from[e].push_back(n);
    }
  }
  bool more = true;
  const PairFn relay = [&](uint32_t s, uint32_t o) { return more = cb(s, o); };
  for (uint32_t a : from[0]) {
    for (size_t b = 0; more && b < from[1].size(); ++b) {
      SCISPARQL_RETURN_NOT_OK(EvalNode(root_, a, from[1][b], relay));
    }
  }
  return Status::OK();
}

Status PathEvaluator::EvalNode(const ast::Path& path, uint32_t start,
                               uint32_t end, const PairFn& cb) {
  switch (path.kind) {
    case K::kLink: {
      const uint32_t p = preds_.at(&path).link;
      if (p == kAny) return Status::OK();
      if (start != kAny) {
        const int n_fixed = end != kAny ? 3 : 2;
        PrefixScan(idx_, delta_, Perm::kSpo, {start, p, end}, n_fixed)
            .ForEach(&tally_,
                     [&](const IdTriple& t) { return cb(t.s, t.o); });
      } else {
        const int n_fixed = end != kAny ? 2 : 1;
        PrefixScan(idx_, delta_, Perm::kPos, {p, end, 0}, n_fixed)
            .ForEach(&tally_,
                     [&](const IdTriple& t) { return cb(t.s, t.o); });
      }
      return Status::OK();
    }
    case K::kInverse:
      return EvalNode(*path.a, end, start,
                      [&cb](uint32_t s, uint32_t o) { return cb(o, s); });
    case K::kSequence: {
      Status status = Status::OK();
      bool more = true;
      if (start != kAny || end == kAny) {
        // Forward: a from start, then b to end.
        SCISPARQL_RETURN_NOT_OK(
            EvalNode(*path.a, start, kAny, [&](uint32_t s, uint32_t mid) {
              Status st =
                  EvalNode(*path.b, mid, end, [&](uint32_t, uint32_t o) {
                    more = cb(s, o);
                    return more;
                  });
              if (!st.ok()) {
                status = st;
                return false;
              }
              return more;
            }));
        return status;
      }
      // Backward: b to end, then a to the midpoint.
      SCISPARQL_RETURN_NOT_OK(
          EvalNode(*path.b, kAny, end, [&](uint32_t mid, uint32_t o) {
            Status st = EvalNode(*path.a, kAny, mid, [&](uint32_t s, uint32_t) {
              more = cb(s, o);
              return more;
            });
            if (!st.ok()) {
              status = st;
              return false;
            }
            return more;
          }));
      return status;
    }
    case K::kAlternative: {
      bool more = true;
      SCISPARQL_RETURN_NOT_OK(
          EvalNode(*path.a, start, end, [&](uint32_t s, uint32_t o) {
            more = cb(s, o);
            return more;
          }));
      if (!more) return Status::OK();
      return EvalNode(*path.b, start, end, cb);
    }
    case K::kZeroOrOne: {
      // Zero step: start == end (or, both unbound, every node with
      // itself); then one step, without repeating a pair.
      std::unordered_set<uint64_t> emitted;
      bool more = true;
      auto emit_once = [&](uint32_t s, uint32_t o) -> bool {
        if (!emitted.insert((uint64_t{s} << 32) | o).second) return true;
        more = cb(s, o);
        return more;
      };
      if (start != kAny && end != kAny) {
        if (start == end) emit_once(start, end);
      } else if (start != kAny || end != kAny) {
        const uint32_t n = start != kAny ? start : end;
        emit_once(n, n);
      } else {
        for (uint32_t n : Universe()) {
          if (!emit_once(n, n)) break;
        }
      }
      if (!more) return Status::OK();
      return EvalNode(*path.a, start, end, emit_once);
    }
    case K::kZeroOrMore:
    case K::kOneOrMore: {
      const bool include_zero = path.kind == K::kZeroOrMore;
      if (start != kAny) {
        return Closure(*path.a, start, end, include_zero, false, cb);
      }
      if (end != kAny) {
        // Walk the edges backwards from the bound end.
        return Closure(*path.a, end, kAny, include_zero, true,
                       [&cb](uint32_t o, uint32_t s) { return cb(s, o); });
      }
      bool more = true;
      for (uint32_t n : Universe()) {
        SCISPARQL_RETURN_NOT_OK(Closure(*path.a, n, kAny, include_zero, false,
                                        [&](uint32_t s, uint32_t o) {
                                          more = cb(s, o);
                                          return more;
                                        }));
        if (!more) break;
      }
      return Status::OK();
    }
    case K::kNegatedSet: {
      // !(p|^q) is !(p) | ^!(q): each half only when the set names it.
      const Preds& pr = preds_.at(&path);
      if (!path.negated.empty() &&
          !NegatedScan(start, end, pr.forward, false, cb)) {
        return Status::OK();
      }
      if (!path.negated_inverse.empty()) {
        NegatedScan(end, start, pr.inverse, true, cb);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown path kind");
}

bool PathEvaluator::NegatedScan(uint32_t start, uint32_t end,
                                const std::vector<uint32_t>& excluded,
                                bool inverse, const PairFn& cb) {
  Perm perm = Perm::kSpo;
  std::array<uint32_t, 3> key{0, 0, 0};
  int n_fixed = 0;
  if (end != kAny) {
    perm = Perm::kOsp;
    key = {end, start, 0};
    n_fixed = start != kAny ? 2 : 1;
  } else if (start != kAny) {
    key = {start, 0, 0};
    n_fixed = 1;
  }
  return PrefixScan(idx_, delta_, perm, key, n_fixed)
      .ForEach(&tally_, [&](const IdTriple& t) {
        if (std::find(excluded.begin(), excluded.end(), t.p) !=
                excluded.end() ||
            !dict_.term(t.p).IsIri()) {
          return true;
        }
        return inverse ? cb(t.o, t.s) : cb(t.s, t.o);
      });
}

Status PathEvaluator::Closure(const ast::Path& step, uint32_t origin,
                              uint32_t end, bool include_zero, bool inverse,
                              const PairFn& cb) {
  ClosureStack& stack = ThreadClosureStack();
  if (stack.depth == stack.levels.size()) {
    stack.levels.push_back(std::make_unique<ClosureLevel>());
  }
  ClosureLevel& lv = *stack.levels[stack.depth++];
  struct Pop {
    ClosureStack* s;
    ~Pop() { --s->depth; }
  } pop{&stack};
  lv.visited.Reset();
  lv.frontier.clear();
  lv.next.clear();

  // A single link (or inverse link) expands by one prefix probe per node:
  // SPO (node, p) walking forwards, POS (p, node) walking backwards.
  const ast::Path* link = nullptr;
  bool forward = !inverse;
  if (step.kind == K::kLink) {
    link = &step;
  } else if (step.kind == K::kInverse && step.a->kind == K::kLink) {
    link = step.a.get();
    forward = inverse;
  }
  const uint32_t pred = link != nullptr ? preds_.at(link).link : kAny;

  // The origin sits in `visited` from the start, so it is never expanded
  // twice; it is reported once — for the zero-length path, or when a
  // cycle leads back to it. With a bound end only that node is reported,
  // so the search stops once it has been.
  bool stop = false;
  bool origin_done = false;
  int64_t budget = max_visits_;
  Status interrupted = Status::OK();
  auto emit = [&](uint32_t node) {
    if (end != kAny) {
      if (node != end) return;
      stop = true;
    }
    if (!cb(origin, node)) stop = true;
  };
  auto visit = [&](uint32_t reached) -> bool {
    if (stop) return false;
    if (--budget <= 0) {
      PathBudgetExhausted().Add();
      stop = true;
      return false;
    }
    // A pathological closure can expand for a long time without ever
    // re-entering the BGP loop, so the deadline/cancel valve sits right
    // next to the visit budget.
    if (interrupt_) {
      Status alive = interrupt_();
      if (!alive.ok()) {
        interrupted = alive;
        stop = true;
        return false;
      }
    }
    if (reached == origin) {
      if (!origin_done) {
        origin_done = true;
        emit(origin);
      }
    } else if (lv.visited.Insert(reached)) {
      lv.next.push_back(reached);
      emit(reached);
    }
    return !stop;
  };

  lv.visited.Insert(origin);
  if (include_zero) {
    origin_done = true;
    emit(origin);
  }
  if (link != nullptr && pred == kAny) return Status::OK();  // no edges
  lv.frontier.push_back(origin);
  while (!stop && !lv.frontier.empty()) {
    for (uint32_t node : lv.frontier) {
      if (stop) break;
      if (link != nullptr) {
        PrefixScan(idx_, delta_, forward ? Perm::kSpo : Perm::kPos,
                   forward ? std::array<uint32_t, 3>{node, pred, 0}
                           : std::array<uint32_t, 3>{pred, node, 0},
                   2)
            .ForEach(&tally_, [&](const IdTriple& t) {
              return visit(forward ? t.o : t.s);
            });
      } else {
        SCISPARQL_RETURN_NOT_OK(EvalNode(
            step, inverse ? kAny : node, inverse ? node : kAny,
            [&](uint32_t s, uint32_t o) { return visit(inverse ? s : o); }));
      }
    }
    lv.frontier.swap(lv.next);
    lv.next.clear();
  }
  return interrupted;
}

}  // namespace sparql
}  // namespace scisparql
