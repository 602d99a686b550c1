#include "sparql/executor.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>

#include "loaders/turtle.h"
#include "opt/planner.h"
#include "sparql/id_join.h"
#include "sparql/order_key.h"
#include "sparql/path_eval.h"
#include "sparql/slot_row.h"

namespace scisparql {
namespace sparql {

namespace {

using ast::GraphPattern;
using ast::PatternElement;
using ast::SelectQuery;
using ast::TriplePattern;
using ast::VarOrTerm;

/// Extracts sargable conjuncts (?v op numeric-constant) from a FILTER
/// expression for the cardinality estimator. Walks through top-level ANDs;
/// anything non-sargable is simply skipped (it only loses a hint).
void ExtractFilterHints(const ast::Expr& e,
                        std::vector<opt::FilterHint>* out) {
  if (e.kind != ast::Expr::Kind::kBinary) return;
  if (e.bop == ast::BinaryOp::kAnd) {
    if (e.left) ExtractFilterHints(*e.left, out);
    if (e.right) ExtractFilterHints(*e.right, out);
    return;
  }
  opt::RangeOp op;
  switch (e.bop) {
    case ast::BinaryOp::kLt: op = opt::RangeOp::kLt; break;
    case ast::BinaryOp::kLe: op = opt::RangeOp::kLe; break;
    case ast::BinaryOp::kGt: op = opt::RangeOp::kGt; break;
    case ast::BinaryOp::kGe: op = opt::RangeOp::kGe; break;
    case ast::BinaryOp::kEq: op = opt::RangeOp::kEq; break;
    case ast::BinaryOp::kNe: op = opt::RangeOp::kNe; break;
    default: return;
  }
  auto flip = [](opt::RangeOp o) {
    switch (o) {
      case opt::RangeOp::kLt: return opt::RangeOp::kGt;
      case opt::RangeOp::kLe: return opt::RangeOp::kGe;
      case opt::RangeOp::kGt: return opt::RangeOp::kLt;
      case opt::RangeOp::kGe: return opt::RangeOp::kLe;
      default: return o;
    }
  };
  auto numeric_const = [](const ast::Expr* x) -> std::optional<double> {
    if (x == nullptr || x->kind != ast::Expr::Kind::kTerm) return std::nullopt;
    if (!x->term.IsNumeric()) return std::nullopt;
    Result<double> v = x->term.AsDouble();
    if (!v.ok()) return std::nullopt;
    return *v;
  };
  const ast::Expr* l = e.left.get();
  const ast::Expr* r = e.right.get();
  if (l != nullptr && l->kind == ast::Expr::Kind::kVar) {
    if (std::optional<double> c = numeric_const(r)) {
      out->push_back({l->var, op, *c});
    }
  } else if (r != nullptr && r->kind == ast::Expr::Kind::kVar) {
    if (std::optional<double> c = numeric_const(l)) {
      out->push_back({r->var, flip(op), *c});
    }
  }
}

/// Builds the plan-memo key for a resolved BGP: every pattern position
/// rendered as either its constant term or its variable name, plus the
/// filter hints that feed the cost model. (No position holds an array:
/// MakeDesc leaves those symbolic.)
std::string MemoSignature(const std::vector<opt::PatternDesc>& descs,
                          const std::vector<opt::FilterHint>& hints) {
  std::string sig;
  auto pos = [&sig](const std::optional<Term>& c, const std::string& var) {
    if (c.has_value()) {
      sig += c->ToString();
    } else {
      sig += '?';
      sig += var;
    }
    sig += '\x1f';
  };
  for (const opt::PatternDesc& d : descs) {
    pos(d.s, d.s_var);
    pos(d.p, d.p_var);
    pos(d.o, d.o_var);
    if (d.is_path) sig += '~';
    sig += '\x1e';
  }
  for (const opt::FilterHint& h : hints) {
    sig += h.var;
    sig += static_cast<char>('0' + static_cast<int>(h.op));
    sig += std::to_string(h.bound);
    sig += '\x1f';
  }
  return sig;
}

/// Continuation invoked for every solution; returns false to stop the
/// enumeration early (ASK, LIMIT, EXISTS).
using Cont = FnRef<Result<bool>()>;

/// One graph as a query reads it. Pinned at the query's first touch of the
/// graph, so every BGP, OPTIONAL arm and path of the query reads the one
/// snapshot: the pin comes *before* any dictionary or delta read — writers
/// intern a batch's terms and splice its delta cells before publishing its
/// epoch, so every batch with epoch <= snapshot is fully resolvable, and
/// every later batch is excluded by the epoch filter, even while writers
/// keep committing mid-query.
struct GraphCtx {
  const Graph* graph = nullptr;
  const TermDictionary* dict = nullptr;
  uint64_t snapshot = 0;
  DeltaIdRuns delta_runs;
  const DeltaIdRuns* delta = nullptr;  // null when no delta is pending
  const IdIndexes* idx = nullptr;
};

/// A BGP lowered to the ID space for one graph and one shape of the row it
/// starts from (which of its variables are already bound, and to arrays):
/// planned, its constants resolved and its paths built once, then run once
/// per incoming row with only the outer-bound IDs refilled.
struct Lowering {
  enum : uint8_t { kFree, kBound, kBoundArray };
  const GraphCtx* gc = nullptr;
  std::vector<uint8_t> state;  // per Bgp::var_slots
  bool busy = false;           // running: a nested run builds its own
  bool empty = false;          // holds a constant no triple holds
  std::vector<const TriplePattern*> order;
  std::unique_ptr<IdJoin> join;
  std::vector<std::unique_ptr<PathEvaluator>> paths;
  /// An outer-bound position: the ID it reads from row slot `slot`.
  struct Fill {
    uint32_t* id;
    int slot;
    bool path_end;
  };
  std::vector<Fill> fills;
  /// Per join column: the row slot it binds, or the array it must equal
  /// (a constant, or the value in row slot `array_slot`).
  struct Col {
    int slot = -1;
    const Term* array = nullptr;
    int array_slot = -1;
  };
  std::vector<Col> cols;
  std::vector<std::string> slot_names;  // per join slot; "" anonymous
  /// Stand-ins for path ends no triple holds, numbered from dict_limit.
  std::vector<const Term*> extras;
  size_t fixed_extras = 0;  // the constants' share of `extras`
  size_t dict_limit = 0;
};

/// A maximal run of triple patterns and the FILTERs pushed into it.
struct Bgp {
  std::vector<const TriplePattern*> patterns;  // textual order
  std::vector<const ast::Expr*> filters;
  std::vector<int> var_slots;  // its distinct variables' slots
  std::vector<std::unique_ptr<Lowering>> lowerings;
};

/// One step of a compiled group: a BGP, or any other element.
struct Step {
  const PatternElement* elem = nullptr;
  Bgp* bgp = nullptr;
};

/// An evaluated ORDER BY key. SPARQL's term order puts unbound lowest, but
/// an *erroring* key expression is not the same thing as an unbound
/// variable — conflating them makes `ORDER BY (1/?x)` interleave its
/// failures with genuinely unbound rows. Errors carry their own flag and
/// sort in a separate band.
struct OrderKeyVal {
  const Term* term = nullptr;  // null: unbound
  bool error = false;
};

const Term& UndefTerm() {
  static const Term* undef = new Term();
  return *undef;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecImpl: one query execution.
// ---------------------------------------------------------------------------

class ExecImpl {
 public:
  ExecImpl(Dataset* dataset, FunctionRegistry* registry,
           const ExecOptions& options)
      : dataset_(dataset),
        registry_(registry),
        options_(options),
        // A trace sink turns on the same per-scan profiling EXPLAIN uses,
        // so EXPLAIN ANALYZE and EXPLAIN report identical actual counts.
        profile_(options.trace != nullptr) {
    if (options_.query != nullptr) {
      interrupt_ = [this]() { return CheckInterrupt(); };
    }
    // One expression context for the whole query; variables are read
    // in place from the current row through its slot.
    ctx_.registry = registry_;
    ctx_.query = options_.query;
    ctx_.eval_stats = profile_ ? &eval_counters_ : nullptr;
    ctx_.lookup_env = this;
    ctx_.lookup = [](const void* env,
                     const std::string& name) -> const Term* {
      const ExecImpl* self = static_cast<const ExecImpl*>(env);
      const int s = self->frame_->Find(name);
      if (s < 0 || self->cur_row_ == nullptr) return nullptr;
      const Cell& c = self->cur_row_[s];
      return c.bound() ? &c.value() : nullptr;
    };
    ctx_.eval_exists = [this](const GraphPattern& gp) -> Result<bool> {
      std::vector<Cell> sub(frame_->width());
      if (cur_row_ != nullptr) std::copy_n(cur_row_, sub.size(), sub.begin());
      bool found = false;
      SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                                 EvalGroup(gp, sub.data(), [&found]() {
                                   found = true;
                                   return Result<bool>(false);  // enough
                                 }));
      (void)ok;
      return found;
    };
    ctx_.call_defined = [this](const ast::FunctionDef& def,
                               const std::vector<Term>& args) {
      return CallDefined(def, args);
    };
  }

  /// Evaluates `e` against `row` (which must be in the current frame).
  Result<Term> Eval(const ast::Expr& e, Cell* row) {
    Cell* saved = cur_row_;
    cur_row_ = row;
    Result<Term> v = EvalExpr(e, ctx_);
    cur_row_ = saved;
    return v;
  }

  /// A computed term owned by the query, for a cell to point at.
  const Term* Keep(Term t) {
    if (!arena_) arena_.emplace();
    arena_->push_back(std::move(t));
    return &arena_->back();
  }
  /// The arena's size and retained-row count, to release what a step kept
  /// for rows that all died before anything stored them.
  std::pair<size_t, uint64_t> Mark() const {
    return {arena_ ? arena_->size() : 0, retained_};
  }
  void Release(std::pair<size_t, uint64_t> mark) {
    if (arena_ && retained_ == mark.second) arena_->resize(mark.first);
  }

  OrderKeyVal EvalOrderKey(const ast::Expr& e, Cell* row) {
    if (e.kind == ast::Expr::Kind::kVar) {
      const int s = frame_->Find(e.var);
      // Genuinely unbound: lowest band, not an error.
      if (s < 0 || !row[s].bound()) return {};
      return {&row[s].value(), false};
    }
    Result<Term> v = Eval(e, row);
    if (!v.ok()) return {nullptr, true};
    return {Keep(std::move(*v)), false};
  }

  /// Projects one expression: a variable's cell as it is, anything else
  /// evaluated (a failing expression leaves the cell unbound, as an
  /// OPTIONAL that did not match would).
  Cell Project(const ast::Expr& e, Cell* row) {
    if (e.kind == ast::Expr::Kind::kVar) {
      const int s = frame_->Find(e.var);
      return s < 0 ? Cell() : row[s];
    }
    Result<Term> v = Eval(e, row);
    if (!v.ok() || v->IsUndef()) return Cell();
    return Cell::Of(Keep(std::move(*v)));
  }

  /// Cooperative deadline/cancellation check for the hot loops. The flag
  /// and clock reads are amortized over 64 calls so the common (uncontexted
  /// or healthy) path stays one predictable branch.
  Status CheckInterrupt() {
    if (options_.query == nullptr) return Status::OK();
    if ((++interrupt_tick_ & 0x3F) != 0) return Status::OK();
    return options_.query->Check();
  }

  // --- Pattern evaluation. ---

  /// A group compiled once per query: its elements in evaluation order,
  /// each maximal run of triple patterns (with the FILTERs directly
  /// following it) gathered into one BGP. SPARQL FILTERs scope over the
  /// *whole* group, so a FILTER whose variables can still be bound by a
  /// later element (typically an OPTIONAL) is deferred to just after the
  /// last such element instead of being evaluated where it appears
  /// textually (where the unbound variable would make it an error and
  /// reject every solution).
  const std::vector<Step>& Group(const GraphPattern& gp) {
    for (const auto& [pattern, steps] : groups_) {
      if (pattern == &gp) return *steps;
    }
    const auto& elems = gp.elements;
    std::vector<int> defer_after(elems.size(), -1);
    for (size_t f = 0; f < elems.size(); ++f) {
      if (elems[f].kind != PatternElement::Kind::kFilter) continue;
      std::set<std::string> fvars;
      CollectExprVars(*elems[f].expr, &fvars);
      for (size_t j = f + 1; j < elems.size(); ++j) {
        if (elems[j].kind == PatternElement::Kind::kFilter) continue;
        std::vector<std::string> evars;
        std::set<std::string> seen;
        CollectElementVars(elems[j], &evars, &seen);
        for (const std::string& v : evars) {
          if (fvars.count(v) > 0) {
            defer_after[f] = static_cast<int>(j);
            break;
          }
        }
      }
    }
    std::vector<const PatternElement*> view;
    view.reserve(elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i].kind == PatternElement::Kind::kFilter &&
          defer_after[i] >= 0) {
        continue;
      }
      view.push_back(&elems[i]);
      for (size_t f = 0; f < elems.size(); ++f) {
        if (defer_after[f] == static_cast<int>(i)) view.push_back(&elems[f]);
      }
    }
    std::vector<Step> steps;
    for (size_t i = 0; i < view.size();) {
      if (view[i]->kind != PatternElement::Kind::kTriple) {
        steps.push_back({view[i++], nullptr});
        continue;
      }
      Bgp& b = *bgps_.emplace_back(std::make_unique<Bgp>());
      for (; i < view.size(); ++i) {
        if (view[i]->kind == PatternElement::Kind::kTriple) {
          const TriplePattern& tp = view[i]->triple;
          b.patterns.push_back(&tp);
          for (const VarOrTerm* vt : {&tp.s, &tp.p, &tp.o}) {
            if (vt == &tp.p && tp.path != nullptr) continue;
            const int s = vt->is_var ? frame_->Find(vt->var) : -1;
            if (s >= 0 && std::find(b.var_slots.begin(), b.var_slots.end(),
                                    s) == b.var_slots.end()) {
              b.var_slots.push_back(s);
            }
          }
        } else if (options_.push_filters &&
                   view[i]->kind == PatternElement::Kind::kFilter) {
          b.filters.push_back(view[i]->expr.get());
        } else {
          break;
        }
      }
      steps.push_back({view[0], &b});
    }
    groups_.emplace_back(&gp,
                         std::make_unique<std::vector<Step>>(std::move(steps)));
    return *groups_.back().second;
  }

  Result<bool> EvalGroup(const GraphPattern& gp, Cell* row, Cont k) {
    return EvalSteps(Group(gp), 0, row, k);
  }

  Result<bool> EvalSteps(const std::vector<Step>& steps, size_t i, Cell* row,
                         Cont k) {
    SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
    if (i >= steps.size()) return k();
    auto next = [&]() { return EvalSteps(steps, i + 1, row, k); };
    if (steps[i].bgp != nullptr) return EvalBgp(*steps[i].bgp, row, next);

    const PatternElement& e = *steps[i].elem;
    switch (e.kind) {
      case PatternElement::Kind::kFilter: {
        SCISPARQL_ASSIGN_OR_RETURN(bool pass, EvalFilter(*e.expr, row));
        if (!pass) return true;
        return next();
      }
      case PatternElement::Kind::kBind:
        return EvalBind(e, row, next);
      case PatternElement::Kind::kOptional:
        return EvalOptional(e, row, next);
      case PatternElement::Kind::kUnion: {
        // Each branch extends the row in place and undoes what it bound,
        // so a variable bound by one branch is unbound in the next.
        for (const auto& branch : e.branches) {
          SCISPARQL_ASSIGN_OR_RETURN(bool more, EvalGroup(*branch, row, next));
          if (!more) return false;
        }
        return true;
      }
      case PatternElement::Kind::kGroup:
        return EvalGroup(*e.child, row, next);
      case PatternElement::Kind::kGraph:
        return EvalGraph(e, row, next);
      case PatternElement::Kind::kValues:
        return EvalValues(e, row, next);
      case PatternElement::Kind::kMinus:
        return EvalMinus(e, row, next);
      case PatternElement::Kind::kSubSelect:
        return EvalSubSelect(e, row, next);
      default:
        return Status::Internal("unexpected pattern element");
    }
  }

  Result<bool> EvalFilter(const ast::Expr& expr, Cell* row) {
    Result<Term> v = Eval(expr, row);
    if (!v.ok()) return false;  // evaluation error = filter rejects
    Result<bool> b = EffectiveBooleanValue(*v);
    if (!b.ok()) return false;
    return *b;
  }

  /// Binds `slot` to `t` for the continuation, then unbinds it and frees
  /// the term unless a stored row points at it.
  Result<bool> BindFor(Cell* row, int slot, Term t, Cont k) {
    const auto mark = Mark();
    row[slot] = Cell::Of(Keep(std::move(t)));
    Result<bool> r = k();
    row[slot] = Cell();
    Release(mark);
    return r;
  }

  Result<bool> EvalBind(const PatternElement& e, Cell* row, Cont k) {
    const int slot = frame_->Find(e.bind_var);
    if (row[slot].bound()) {
      return Status::InvalidArgument("BIND to already-bound variable ?" +
                                     e.bind_var);
    }

    // Variables bound to array subscripts (Section 4.1.2): when the BIND
    // expression is an array dereference whose index positions contain
    // *unbound* variables, the dereference acts as a generator — one
    // solution per element, with the index variables bound to the
    // (1-based) subscripts.
    if (e.expr->kind == ast::Expr::Kind::kSubscript) {
      SCISPARQL_ASSIGN_OR_RETURN(std::optional<bool> generated,
                                 EvalSubscriptGenerator(e, slot, row, k));
      if (generated.has_value()) return *generated;
    }

    // DAPLEX bag semantics for SciSPARQL-defined functions: a BIND whose
    // expression is a direct call of a parameterized view emits one
    // solution per element of the result bag (Section 4.2).
    if (e.expr->kind == ast::Expr::Kind::kCall && registry_ != nullptr) {
      const ast::FunctionDef* def = registry_->FindDefined(e.expr->fn);
      if (def != nullptr) {
        std::vector<Term> args;
        for (const auto& a : e.expr->args) {
          SCISPARQL_ASSIGN_OR_RETURN(Term t, Eval(*a, row));
          args.push_back(std::move(t));
        }
        SCISPARQL_ASSIGN_OR_RETURN(std::vector<Term> bag,
                                   CallDefined(*def, args));
        for (Term& value : bag) {
          SCISPARQL_ASSIGN_OR_RETURN(bool more,
                                     BindFor(row, slot, std::move(value), k));
          if (!more) return false;
        }
        return true;
      }
    }

    Result<Term> v = Eval(*e.expr, row);
    if (v.ok() && !v->IsUndef()) return BindFor(row, slot, std::move(*v), k);
    // Error: the variable stays unbound, the solution survives.
    return k();
  }

  /// Implements the subscript-generator form of BIND. Returns nullopt when
  /// the expression is an ordinary dereference (no unbound index vars) and
  /// the generic path should handle it; otherwise the continue/stop flag.
  Result<std::optional<bool>> EvalSubscriptGenerator(const PatternElement& e,
                                                     int slot, Cell* row,
                                                     Cont k) {
    const ast::Expr& deref = *e.expr;
    // The base array must be computable already.
    Result<Term> base = Eval(*deref.base, row);
    if (!base.ok() || !base->IsArray()) return std::optional<bool>();
    const auto& arr = base->array();
    const std::vector<int64_t>& shape = arr->shape();
    if (deref.subscripts.size() != shape.size()) return std::optional<bool>();

    // The enumerated dimensions (unbound index variables) and their
    // slots; every other dimension is evaluated by the normal rules.
    std::vector<std::pair<size_t, int>> enum_dims;
    for (size_t d = 0; d < deref.subscripts.size(); ++d) {
      const ast::SubscriptExpr& s = deref.subscripts[d];
      if (!s.is_range && s.index != nullptr &&
          s.index->kind == ast::Expr::Kind::kVar &&
          !IsInternalVar(s.index->var)) {
        const int v = frame_->Find(s.index->var);
        if (!row[v].bound()) enum_dims.emplace_back(d, v);
      }
    }
    if (enum_dims.empty()) return std::optional<bool>();

    // Iterate the Cartesian product of the enumerated dimensions; for each
    // combination bind the index variables (1-based) and evaluate the
    // dereference through the ordinary evaluator (so fixed dims, ranges
    // and bounds checks behave identically).
    std::vector<int64_t> idx(enum_dims.size(), 1);
    bool more = true;
    while (more) {
      const auto mark = Mark();
      for (size_t p = 0; p < enum_dims.size(); ++p) {
        row[enum_dims[p].second] = Cell::Of(Keep(Term::Integer(idx[p])));
      }
      Result<Term> v = Eval(deref, row);
      Result<bool> r = true;
      if (v.ok() && !v->IsUndef()) r = BindFor(row, slot, std::move(*v), k);
      for (const auto& [d, v_slot] : enum_dims) row[v_slot] = Cell();
      Release(mark);
      if (!r.ok()) return r.status();
      if (!*r) return std::optional<bool>(false);
      // Advance the multi-index (1-based, bounded by the shape).
      size_t p = 0;
      while (p < enum_dims.size() &&
             ++idx[p] > shape[enum_dims[p].first]) {
        idx[p] = 1;
        ++p;
      }
      if (p == enum_dims.size()) more = false;
    }
    return std::optional<bool>(true);
  }

  /// OPTIONAL, operationally (thesis 5.4.2): the arm runs once per outer
  /// row, seeded with it. A one-pattern arm is one lowered probe per row.
  Result<bool> EvalOptional(const PatternElement& e, Cell* row, Cont k) {
    bool any = false;
    SCISPARQL_ASSIGN_OR_RETURN(bool more,
                               EvalGroup(*e.child, row, [&]() {
                                 any = true;
                                 return k();
                               }));
    if (!more) return false;
    if (!any) return k();
    return true;
  }

  /// Runs `child` over `g`; the continuation, which evaluates the rest of
  /// the enclosing group, reads the enclosing graph again.
  Result<bool> WithGraph(const Graph* g, const GraphPattern& child, Cell* row,
                         Cont k) {
    const Graph* saved = cur_graph_;
    cur_graph_ = g;
    Result<bool> r = EvalGroup(child, row, [&]() {
      cur_graph_ = saved;
      Result<bool> more = k();
      cur_graph_ = g;
      return more;
    });
    cur_graph_ = saved;
    return r;
  }

  Result<bool> EvalGraph(const PatternElement& e, Cell* row, Cont k) {
    const GraphPattern& child = *e.child;
    if (!e.graph_name.is_var) {
      const Graph* g = dataset_->FindNamed(e.graph_name.term.iri());
      if (g == nullptr) return true;  // no such graph: no solutions
      return WithGraph(g, child, row, k);
    }
    const int slot = frame_->Find(e.graph_name.var);
    if (row[slot].bound()) {
      const Term& name = row[slot].value();
      if (!name.IsIri()) return true;
      const Graph* g = dataset_->FindNamed(name.iri());
      if (g == nullptr) return true;
      return WithGraph(g, child, row, k);
    }
    for (const auto& [iri, g] : dataset_->named_graphs()) {
      const Term& name =
          graph_names_.try_emplace(iri, Term::Iri(iri)).first->second;
      row[slot] = Cell::Of(&name);
      Result<bool> r = WithGraph(&g, child, row, k);
      row[slot] = Cell();
      if (!r.ok()) return r;
      if (!*r) return false;
    }
    return true;
  }

  /// Joins the row with each of `rows` (terms under `slots`, Undef
  /// unbound) compatible with it by SPARQL `=`, binding what it adds — how
  /// VALUES and sub-select results join the group.
  Result<bool> JoinTerms(const std::vector<int>& slots,
                         const std::vector<std::vector<Term>>& rows, Cell* row,
                         Cont k) {
    for (const auto& r : rows) {
      size_t set = 0;
      bool compatible = true;
      for (size_t c = 0; c < slots.size() && c < r.size() && compatible; ++c) {
        if (r[c].IsUndef()) continue;
        Cell& cell = row[slots[c]];
        if (cell.bound()) {
          compatible = cell.value() == r[c];
        } else {
          cell = Cell::Of(&r[c]);
          bound_here_.push_back(slots[c]);
          ++set;
        }
      }
      Result<bool> more = compatible ? k() : Result<bool>(true);
      for (; set > 0; --set) {
        row[bound_here_.back()] = Cell();
        bound_here_.pop_back();
      }
      if (!more.ok()) return more;
      if (!*more) return false;
    }
    return true;
  }

  std::vector<int> SlotsOf(const std::vector<std::string>& names) const {
    std::vector<int> out;
    for (const std::string& n : names) out.push_back(frame_->Find(n));
    return out;
  }

  Result<bool> EvalValues(const PatternElement& e, Cell* row, Cont k) {
    return JoinTerms(SlotsOf(e.values.vars), e.values.rows, row, k);
  }

  Result<bool> EvalMinus(const PatternElement& e, Cell* row, Cont k) {
    // MINUS: drop the current solution when some solution of the child
    // pattern is compatible with it and shares at least one variable.
    auto cache_it = minus_cache_.find(e.child.get());
    if (cache_it == minus_cache_.end()) {
      Rows solutions;
      solutions.width = frame_->width();
      std::vector<Cell> sub(solutions.width);
      SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                                 EvalGroup(*e.child, sub.data(), [&]() {
                                   solutions.Push(sub.data());
                                   ++retained_;
                                   return Result<bool>(true);
                                 }));
      (void)ok;
      cache_it =
          minus_cache_.emplace(e.child.get(), std::move(solutions)).first;
    }
    Rows& other = cache_it->second;
    for (size_t m = 0; m < other.size(); ++m) {
      const Cell* o = other.row(m);
      bool shares = false;
      bool compatible = true;
      for (size_t s = 0; s < other.width && compatible; ++s) {
        if (!o[s].bound() || !row[s].bound()) continue;
        shares = true;
        compatible = CellsEqual(row[s], o[s]);
      }
      if (shares && compatible) return true;  // dropped
    }
    return k();
  }

  Result<bool> EvalSubSelect(const PatternElement& e, Cell* row, Cont k) {
    // SPARQL subqueries evaluate bottom-up: the inner SELECT runs once
    // (against the dataset's default graph), then its projected rows join
    // with the outer solution on shared variable names.
    auto it = subselect_cache_.find(e.subquery.get());
    if (it == subselect_cache_.end()) {
      SCISPARQL_ASSIGN_OR_RETURN(QueryResult rows, Select(*e.subquery));
      it = subselect_cache_.emplace(e.subquery.get(), std::move(rows)).first;
    }
    return JoinTerms(SlotsOf(it->second.columns), it->second.rows, row, k);
  }

  // --- BGP evaluation with cost-based ordering (Section 5.4). ---

  /// The value `vt` holds in `row` (null when `row` is null or it is an
  /// unbound variable).
  const Term* ValueIn(const VarOrTerm& vt, const Cell* row) const {
    if (!vt.is_var) return &vt.term;
    const int s = frame_->Find(vt.var);
    if (row == nullptr || s < 0 || !row[s].bound()) return nullptr;
    return &row[s].value();
  }

  /// Abstracts a triple pattern for the cost model: variables already bound
  /// in `row` are resolved to constants, the rest stay symbolic so the
  /// estimator can discount them as join variables. An array (constant or
  /// bound) stays symbolic and anonymous: the ID join reads it as an
  /// unbound slot checked by value, over the whole range.
  opt::PatternDesc MakeDesc(const TriplePattern& tp, const Cell* row) const {
    opt::PatternDesc d;
    auto fill = [&](const VarOrTerm& vt, std::optional<Term>* c,
                    std::string* var) {
      const Term* value = ValueIn(vt, row);
      if (value == nullptr) {
        *var = vt.var;
      } else if (!value->IsArray()) {
        *c = *value;
      }
    };
    fill(tp.s, &d.s, &d.s_var);
    if (tp.path != nullptr) {
      d.is_path = true;
    } else {
      fill(tp.p, &d.p, &d.p_var);
    }
    fill(tp.o, &d.o, &d.o_var);
    return d;
  }

  /// A BGP's execution order plus per-step cumulative estimates (what
  /// EXPLAIN prints next to the actual counts).
  struct OrderedBgp {
    std::vector<const TriplePattern*> patterns;
    std::vector<int64_t> est;  // estimated cumulative rows after each step
    bool reordered = false;
  };

  /// Orders `bgp` for execution over `graph`, with the values `row` binds
  /// (may be null: nothing bound); `estimate` asks for the per-step
  /// estimates too (EXPLAIN and traces). A one-pattern BGP has nothing to
  /// order and skips the planner and its memo.
  OrderedBgp OrderBgp(const std::vector<const TriplePattern*>& bgp,
                      const std::vector<const ast::Expr*>& filters,
                      const Graph* graph, const Cell* row,
                      bool estimate) const {
    OrderedBgp out;
    if (bgp.size() == 1 && !estimate) {
      out.patterns = bgp;
      return out;
    }
    std::vector<opt::PatternDesc> descs;
    descs.reserve(bgp.size());
    for (const TriplePattern* tp : bgp) descs.push_back(MakeDesc(*tp, row));
    std::vector<opt::FilterHint> hints;
    for (const ast::Expr* f : filters) ExtractFilterHints(*f, &hints);
    const opt::GraphStats* stats =
        options_.stats == nullptr ? nullptr : options_.stats->Find(graph);
    opt::CardinalityEstimator estimator(graph, stats);

    if (!options_.optimize_join_order || bgp.size() == 1) {
      // Textual order; still estimate each step so EXPLAIN has numbers.
      std::set<std::string> bound;
      double card = 1.0;
      for (const TriplePattern* tp : bgp) {
        const opt::PatternDesc& d = descs[out.patterns.size()];
        int64_t step = estimator.Estimate(d, bound, hints);
        card = std::min(1e15, card * static_cast<double>(step));
        out.patterns.push_back(tp);
        out.est.push_back(static_cast<int64_t>(std::max(1.0, card)));
        for (const std::string& v : d.Vars()) bound.insert(v);
      }
      return out;
    }

    // Plan memo: the same resolved-pattern signature planned against the
    // same graph version reuses the prior join order; on version drift the
    // memo entry is dropped and the enumeration runs again.
    const bool memoizable = options_.plan_memo != nullptr && graph != nullptr;
    const std::string memo_sig =
        memoizable ? MemoSignature(descs, hints) : std::string();
    if (memoizable) {
      cache::PlanMemo::Entry hit;
      if (options_.plan_memo->Lookup(memo_sig, graph, graph->version(),
                                     &hit) &&
          hit.order.size() == bgp.size()) {
        for (size_t i = 0; i < hit.order.size(); ++i) {
          out.patterns.push_back(bgp[hit.order[i]]);
        }
        out.est = std::move(hit.est);
        out.reordered = hit.reordered;
        return out;
      }
    }

    opt::BgpPlan plan = opt::PlanBgp(descs, hints, estimator);
    for (const opt::PlannedStep& s : plan.steps) {
      out.patterns.push_back(bgp[s.input_index]);
      out.est.push_back(s.cumulative);
    }
    out.reordered = plan.reordered;
    if (memoizable) {
      cache::PlanMemo::Entry e;
      for (const opt::PlannedStep& s : plan.steps) {
        e.order.push_back(s.input_index);
      }
      e.est = out.est;
      e.reordered = out.reordered;
      e.graph = graph;
      e.graph_version = graph->version();
      options_.plan_memo->Insert(memo_sig, std::move(e));
    }
    return out;
  }

  /// The graph as this query reads it, pinned at first touch.
  const GraphCtx& Pin(const Graph* g) {
    for (const auto& gc : graph_ctxs_) {
      if (gc->graph == g) return *gc;
    }
    GraphCtx& gc = *graph_ctxs_.emplace_back(std::make_unique<GraphCtx>());
    gc.graph = g;
    gc.dict = &g->dict();
    gc.snapshot = g->SnapshotEpoch();
    g->SnapshotDeltaIds(gc.snapshot, &gc.delta_runs);
    gc.delta = gc.delta_runs.empty() ? nullptr : &gc.delta_runs;
    // A batch committing after the pin cannot leak post-snapshot rows into
    // a join: the base table and its permutations are immutable under the
    // shared lock (folds and base-mode writes require exclusivity, so the
    // epoch can only grow by delta commits), and every delta op carries
    // its batch's epoch, which the run resolution filtered.
    gc.idx = &g->EnsureIdIndexes();
    return gc;
  }

  /// How `row` starts `b`'s variables: free, bound, or bound to an array.
  uint8_t StateOf(const Cell& c) const {
    if (!c.bound()) return Lowering::kFree;
    return c.value().IsArray() ? Lowering::kBoundArray : Lowering::kBound;
  }

  Result<bool> EvalBgp(Bgp& b, Cell* row, Cont k) {
    const GraphCtx& gc = Pin(cur_graph_);
    for (const auto& l : b.lowerings) {
      if (l->gc != &gc || l->busy) continue;
      bool same = true;
      for (size_t v = 0; v < b.var_slots.size() && same; ++v) {
        same = l->state[v] == StateOf(row[b.var_slots[v]]);
      }
      if (same) return RunLowered(b, *l, row, k);
    }
    return RunLowered(b, Lower(b, gc, row), row, k);
  }

  /// Lowers `b` for rows shaped like `row`: orders the patterns, resolves
  /// the constants through the dictionary and gives the variables `row`
  /// leaves free dense join slots. The dictionary interns by
  /// Term::Identical, so a resolved ID stands for exactly the triples the
  /// constant matches. Arrays are the exception — they intern by object
  /// identity — so an array constant (or outer-bound array) becomes an
  /// anonymous slot whose bound term is checked by value after the join.
  Lowering& Lower(Bgp& b, const GraphCtx& gc, const Cell* row) {
    Lowering& l = *b.lowerings.emplace_back(std::make_unique<Lowering>());
    l.gc = &gc;
    for (int s : b.var_slots) l.state.push_back(StateOf(row[s]));
    std::chrono::steady_clock::time_point opt_start;
    if (profile_) opt_start = std::chrono::steady_clock::now();
    OrderedBgp ordered =
        OrderBgp(b.patterns, b.filters, gc.graph, row, profile_);
    if (profile_) {
      optimize_nanos_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - opt_start)
                             .count();
      // Remember the first plan chosen for this (textual) BGP so EXPLAIN
      // can render estimated vs. actual cardinalities side by side.
      plan_records_.emplace(b.patterns[0],
                            PlanRecord{ordered.patterns, ordered.est,
                                       ordered.reordered, {}});
    }
    l.order = std::move(ordered.patterns);

    // Join slot per free variable (or anonymous array slot), the row slot
    // it binds (-1: none) and the array it must equal.
    std::vector<Lowering::Col> slot_cols;
    struct At {
      size_t pat;
      int pos;  // 0 = s, 1 = p, 2 = o
    };
    std::vector<std::pair<At, int>> fills;             // position, row slot
    std::vector<std::pair<At, const Term*>> missing;   // path ends
    std::vector<IdPattern> pats(l.order.size());
    auto anonymous = [&](IdSlot* s, const Term* array, int array_slot) {
      s->is_var = true;
      s->slot = static_cast<int>(l.slot_names.size());
      l.slot_names.emplace_back();
      slot_cols.push_back({-1, array, array_slot});
    };
    for (size_t i = 0; i < l.order.size(); ++i) {
      const TriplePattern& tp = *l.order[i];
      IdSlot* pos[3] = {&pats[i].s, &pats[i].p, &pats[i].o};
      const VarOrTerm* vts[3] = {&tp.s, &tp.p, &tp.o};
      for (int c = 0; c < 3; ++c) {
        if (c == 1 && tp.path != nullptr) continue;
        const VarOrTerm& vt = *vts[c];
        IdSlot* s = pos[c];
        const int rs = vt.is_var ? frame_->Find(vt.var) : -1;
        if (vt.is_var && !row[rs].bound()) {
          auto it = std::find(l.slot_names.begin(), l.slot_names.end(), vt.var);
          s->is_var = true;
          s->slot = static_cast<int>(it - l.slot_names.begin());
          if (it == l.slot_names.end()) {
            l.slot_names.push_back(vt.var);
            slot_cols.push_back({rs, nullptr, -1});
          }
        } else if (vt.is_var) {
          if (row[rs].value().IsArray()) {
            anonymous(s, nullptr, rs);
          } else {
            fills.push_back({{i, c}, rs});
          }
        } else if (vt.term.IsArray()) {
          anonymous(s, &vt.term, -1);
        } else if (std::optional<uint32_t> id = gc.dict->Find(vt.term)) {
          s->const_id = *id;
        } else if (tp.path != nullptr) {
          // A path end no triple holds still connects to itself by a
          // zero-length path: it gets a stand-in ID past the dictionary.
          missing.push_back({{i, c}, &vt.term});
        } else {
          // A constant absent from the dictionary occurs in no triple at
          // the snapshot, so the pattern has no solutions.
          l.empty = true;
        }
      }
      if (tp.path != nullptr) {
        l.paths.push_back(std::make_unique<PathEvaluator>(
            *tp.path, *gc.graph, gc.snapshot, gc.delta,
            options_.max_path_visits, interrupt_, &path_scratch_));
        pats[i].path = l.paths.back().get();
      }
    }
    // Read after the Finds and the evaluators' construction, so every ID
    // they hold lies below it; the stand-ins are numbered from it.
    l.dict_limit = gc.dict->size();
    l.join = std::make_unique<IdJoin>(std::move(pats));
    auto id_at = [&](const At& a) {
      IdPattern& p = l.join->patterns()[a.pat];
      return &(a.pos == 0 ? p.s : a.pos == 1 ? p.p : p.o).const_id;
    };
    for (const auto& [at, term] : missing) *id_at(at) = StandIn(l, term);
    l.fixed_extras = l.extras.size();
    for (const auto& [at, slot] : fills) {
      l.fills.push_back({id_at(at), slot, l.order[at.pat]->path != nullptr});
    }
    for (int js : l.join->slots()) l.cols.push_back(slot_cols[js]);
    return l;
  }

  /// The stand-in ID of a term no triple holds, for a path end.
  uint32_t StandIn(Lowering& l, const Term* term) {
    size_t x = 0;
    while (x < l.extras.size() && !Term::Identical(*l.extras[x], *term)) ++x;
    if (x == l.extras.size()) l.extras.push_back(term);
    return static_cast<uint32_t>(l.dict_limit + x);
  }

  /// Runs a lowered BGP from `row`: refills the outer-bound IDs (an ID
  /// bound in this graph feeds the probe as it is; a computed term, or an
  /// ID of another graph's dictionary, is looked up by value), then binds
  /// each joined row's slots in place, checks the array residuals and the
  /// pushed filters, and continues. The slots it bound are unbound after.
  Result<bool> RunLowered(const Bgp& b, Lowering& l, Cell* row, Cont k) {
    if (l.empty) return true;
    const TermDictionary* dict = l.gc->dict;
    for (const Lowering::Fill& f : l.fills) {
      const Cell& c = row[f.slot];
      // An ID interned after the lowering read dict_limit names a term no
      // triple held at the pinned snapshot: a miss.
      std::optional<uint32_t> id;
      if (c.dict == dict) {
        id = c.id;
      } else {
        id = dict->Find(c.value());
        if (id.has_value() && *id >= l.dict_limit) id.reset();
      }
      if (id.has_value()) {
        *f.id = *id;
      } else if (f.path_end) {
        *f.id = StandIn(l, &c.value());
      } else {
        l.extras.resize(l.fixed_extras);
        return true;
      }
    }
    const size_t limit = l.dict_limit;
    bool keep_going = true;
    Status inner = Status::OK();
    auto sink = [&](const uint32_t* ids) -> bool {
      Status alive = CheckInterrupt();
      if (!alive.ok()) {
        inner = alive;
        return false;
      }
      bool pass = true;
      for (size_t c = 0; c < l.cols.size() && pass; ++c) {
        const Lowering::Col& col = l.cols[c];
        const uint32_t id = ids[c];
        if (col.slot >= 0) {
          row[col.slot] = id < limit ? Cell::Id(dict, id)
                                     : Cell::Of(l.extras[id - limit]);
        } else {
          const Term& t = id < limit ? dict->term(id) : *l.extras[id - limit];
          pass = t == (col.array != nullptr ? *col.array
                                            : row[col.array_slot].value());
        }
      }
      for (size_t f = 0; f < b.filters.size() && pass; ++f) {
        Result<bool> pb = EvalFilter(*b.filters[f], row);
        if (!pb.ok()) {
          inner = pb.status();
          return false;
        }
        pass = *pb;
      }
      if (!pass) return true;
      Result<bool> kr = k();
      if (!kr.ok()) {
        inner = kr.status();
        return false;
      }
      keep_going = *kr;
      return keep_going;
    };
    l.busy = true;
    // std::ref spares each run (an OPTIONAL arm's, once per outer row) the
    // std::function's allocation.
    Status js = l.join->Run(*l.gc->idx, l.gc->delta, kIdJoinMaxRows,
                            interrupt_, std::ref(sink));
    l.busy = false;
    for (const Lowering::Col& col : l.cols) {
      if (col.slot >= 0) row[col.slot] = Cell();
    }
    l.extras.resize(l.fixed_extras);
    if (!js.ok()) return Result<bool>(js);
    if (profile_) RecordIdJoinProfile(l, b.patterns);
    if (!inner.ok()) return Result<bool>(inner);
    return Result<bool>(keep_going);
  }

  /// Folds an ID-join run into the EXPLAIN / trace profile: per-pattern
  /// scan and output cardinalities, plus the physical-operator labels on
  /// the BGP's plan record (first run wins, matching plan capture).
  void RecordIdJoinProfile(const Lowering& l,
                           const std::vector<const TriplePattern*>& bgp) {
    const std::vector<IdJoinStep>& steps = l.join->steps();
    for (size_t i = 0; i < steps.size(); ++i) {
      scan_input_[l.order[i]] += static_cast<int64_t>(steps[i].scan_rows);
      scan_actual_[l.order[i]] += static_cast<int64_t>(steps[i].out_rows);
    }
    auto it = plan_records_.find(bgp[0]);
    if (it == plan_records_.end() || !it->second.phys.empty()) return;
    for (const IdJoinStep& s : steps) {
      std::string label =
          s.op == opt::PhysicalOp::kPath ? "" : PermName(s.perm);
      // Mark scans that merged a pending delta run, so EXPLAIN under
      // concurrent writes shows the ID path holding rather than falling
      // back to term scans.
      if (s.delta) label += "+delta";
      for (size_t x = 0; x < s.on.size(); ++x) {
        label += (x > 0 ? ", ?" : label.empty() ? "on ?" : " on ?") +
                 l.slot_names[static_cast<size_t>(s.on[x])];
      }
      if (s.op == opt::PhysicalOp::kHashJoin) {
        label += s.build_left ? ", build=left" : ", build=scan";
      }
      it->second.phys.push_back(std::string(opt::PhysicalOpName(s.op)) +
                                "(" + label + ")");
    }
  }

  // --- Query forms. ---

  /// Makes `q`'s frame current (built on first use) for the lifetime of
  /// the scope, with the default graph as the current graph.
  class FrameScope {
   public:
    FrameScope(ExecImpl* impl, const SelectQuery& q,
               const std::vector<std::string>* params = nullptr)
        : impl_(impl),
          frame_(impl->frame_),
          row_(impl->cur_row_),
          graph_(impl->cur_graph_) {
      std::unique_ptr<Frame>* found = nullptr;
      for (auto& [query, frame] : impl->frames_) {
        if (query == &q) found = &frame;
      }
      if (found == nullptr) {
        found = &impl->frames_.emplace_back(&q, std::make_unique<Frame>())
                     .second;
        Frame* f = found->get();
        if (params != nullptr) {
          for (const std::string& p : *params) f->Add(p);
        }
        f->AddPattern(q.where);
        for (const auto& p : q.projections) {
          f->Add(p.name);
          f->AddExpr(*p.expr);
        }
        for (const auto& g : q.group_by) f->AddExpr(*g);
        for (const auto& h : q.having) f->AddExpr(*h);
        for (const auto& o : q.order_by) f->AddExpr(*o.expr);
      }
      impl->frame_ = found->get();
      impl->cur_row_ = nullptr;
      impl->cur_graph_ = &impl->dataset_->default_graph();
    }
    ~FrameScope() {
      impl_->frame_ = frame_;
      impl_->cur_row_ = row_;
      impl_->cur_graph_ = graph_;
    }

   private:
    ExecImpl* impl_;
    const Frame* frame_;
    Cell* row_;
    const Graph* graph_;
  };

  /// Every solution of `q`'s WHERE in the current frame, from `initial`.
  Result<Rows> CollectSolutions(const SelectQuery& q,
                                std::vector<Cell> initial) {
    // FROM <g>: query the merge of the named graphs instead of the default,
    // built as one batch (set semantics drop a triple two graphs share).
    // The merge lives as long as the query: its rows hold its IDs.
    if (!q.from.empty()) {
      WriteBatch batch;
      for (const std::string& iri : q.from) {
        const Graph* g = dataset_->FindNamed(iri);
        if (g != nullptr) {
          g->ForEach([&batch](const Triple& t) { batch.Add(t); });
        }
      }
      Graph& merged = from_graphs_.emplace_back();
      merged.Apply(std::move(batch));
      cur_graph_ = &merged;
    }
    Rows out;
    out.width = frame_->width();
    initial.resize(out.width);
    Cell* row = initial.data();
    SCISPARQL_ASSIGN_OR_RETURN(bool ok, EvalGroup(q.where, row, [&]() {
                                 out.Push(row);
                                 ++retained_;
                                 return Result<bool>(true);
                               }));
    (void)ok;
    cur_graph_ = &dataset_->default_graph();
    return out;
  }

  /// Projections with expansion of SELECT *.
  std::vector<SelectQuery::Projection> EffectiveProjections(
      const SelectQuery& q) {
    if (!q.select_all) return q.projections;
    std::vector<std::string> vars;
    std::set<std::string> seen;
    CollectPatternVars(q.where, &vars, &seen);
    std::vector<SelectQuery::Projection> out;
    for (const std::string& v : vars) {
      out.push_back({ast::Expr::MakeVar(v), v});
    }
    return out;
  }

  bool HasAggregates(const SelectQuery& q,
                     const std::vector<SelectQuery::Projection>& projs) {
    if (!q.group_by.empty()) return true;
    std::vector<const ast::Expr*> aggs;
    for (const auto& p : projs) CollectAggNodes(*p.expr, &aggs);
    for (const auto& h : q.having) CollectAggNodes(*h, &aggs);
    return !aggs.empty();
  }

  Result<Term> EvalAggregate(const ast::Expr& agg, Rows& sols,
                             const uint32_t* members, size_t n) {
    static const Term* kOne = new Term(Term::Integer(1));
    std::vector<const Term*> values;
    std::list<Term> computed;
    auto less = [](const Term* a, const Term* b) {
      return Term::Compare(*a, *b) < 0;
    };
    std::set<const Term*, decltype(less)> distinct(less);
    const int var = agg.agg_arg != nullptr &&
                            agg.agg_arg->kind == ast::Expr::Kind::kVar
                        ? frame_->Find(agg.agg_arg->var)
                        : -1;
    for (size_t m = 0; m < n; ++m) {
      SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
      Cell* row = sols.row(members[m]);
      const Term* v = kOne;  // COUNT(*)
      if (var >= 0) {
        if (!row[var].bound()) continue;
        v = &row[var].value();
      } else if (agg.agg_arg != nullptr) {
        Result<Term> r = Eval(*agg.agg_arg, row);
        if (!r.ok() || r->IsUndef()) continue;  // errors are skipped
        v = &computed.emplace_back(std::move(*r));
      }
      if (agg.agg_distinct && !distinct.insert(v).second) continue;
      values.push_back(v);
    }
    switch (agg.agg) {
      case ast::AggFunc::kCount:
        return Term::Integer(static_cast<int64_t>(values.size()));
      case ast::AggFunc::kSum:
      case ast::AggFunc::kAvg: {
        double sum = 0;
        bool all_int = true;
        for (const Term* v : values) {
          SCISPARQL_ASSIGN_OR_RETURN(double d, v->AsDouble());
          if (v->kind() != Term::Kind::kInteger) all_int = false;
          sum += d;
        }
        if (agg.agg == ast::AggFunc::kSum) {
          if (all_int) return Term::Integer(static_cast<int64_t>(sum));
          return Term::Double(sum);
        }
        if (values.empty()) return Status::TypeError("AVG of empty group");
        return Term::Double(sum / static_cast<double>(values.size()));
      }
      case ast::AggFunc::kMin:
      case ast::AggFunc::kMax: {
        if (values.empty()) {
          return Status::TypeError("MIN/MAX of empty group");
        }
        const Term* best = values[0];
        for (size_t i = 1; i < values.size(); ++i) {
          int c = Term::Compare(*values[i], *best);
          if ((agg.agg == ast::AggFunc::kMin && c < 0) ||
              (agg.agg == ast::AggFunc::kMax && c > 0)) {
            best = values[i];
          }
        }
        return *best;
      }
      case ast::AggFunc::kGroupConcat: {
        std::string out;
        for (size_t i = 0; i < values.size(); ++i) {
          if (i > 0) out += agg.agg_sep;
          if (values[i]->kind() == Term::Kind::kString) {
            out += values[i]->lexical();
          } else {
            out += values[i]->ToString();
          }
        }
        return Term::String(std::move(out));
      }
      case ast::AggFunc::kSample:
        if (values.empty()) return Status::TypeError("SAMPLE of empty group");
        return *values[0];
    }
    return Status::Internal("unknown aggregate");
  }

  /// Runs a SELECT: solutions stay slot rows through grouping, ORDER BY,
  /// DISTINCT and the slice; only the surviving cells become terms.
  Result<QueryResult> Select(const SelectQuery& q,
                             const std::vector<std::string>* params = nullptr,
                             const std::vector<Term>* args = nullptr) {
    FrameScope scope(this, q, params);
    std::vector<Cell> initial(frame_->width());
    for (size_t i = 0; params != nullptr && i < params->size(); ++i) {
      initial[static_cast<size_t>(frame_->Find((*params)[i]))] =
          Cell::Of(&(*args)[i]);
    }
    SCISPARQL_ASSIGN_OR_RETURN(Rows solutions,
                               CollectSolutions(q, std::move(initial)));
    std::vector<SelectQuery::Projection> projs = EffectiveProjections(q);

    QueryResult result;
    for (const auto& p : projs) result.columns.push_back(p.name);

    // Output rows, flat: projected cells and ORDER BY keys.
    const size_t n_cols = projs.size();
    const size_t n_keys = q.order_by.size();
    std::vector<Cell> cells;
    std::vector<OrderKeyVal> keys;
    size_t n_rows = 0;
    auto emit = [&](Cell* row) {
      for (const auto& p : projs) cells.push_back(Project(*p.expr, row));
      for (const auto& o : q.order_by) {
        keys.push_back(EvalOrderKey(*o.expr, row));
      }
      ++n_rows;
    };

    if (HasAggregates(q, projs)) {
      SCISPARQL_RETURN_NOT_OK(Aggregate(q, projs, solutions, emit));
    } else {
      for (size_t i = 0; i < solutions.size(); ++i) {
        SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
        emit(solutions.row(i));
      }
    }
    std::vector<uint32_t> order(n_rows);
    for (size_t i = 0; i < n_rows; ++i) order[i] = static_cast<uint32_t>(i);

    // ORDER BY.
    if (n_keys > 0) {
      std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        for (size_t i = 0; i < n_keys; ++i) {
          const OrderKeyVal& ka = keys[a * n_keys + i];
          const OrderKeyVal& kb = keys[b * n_keys + i];
          // Error'd keys form their own band after every non-error key
          // (ahead of them under DESC, like any comparison); within the
          // band the stable sort preserves input order.
          int c = ka.error != kb.error
                      ? (ka.error ? 1 : -1)
                      : CompareOrderKeys(ka.term ? *ka.term : UndefTerm(),
                                         kb.term ? *kb.term : UndefTerm());
          if (c != 0) return q.order_by[i].ascending ? c < 0 : c > 0;
        }
        return false;
      });
    }

    // DISTINCT / REDUCED, by term identity over the projected cells.
    if (q.distinct || q.reduced) {
      RowGrouper seen(&dataset_->default_graph().dict(), n_cols);
      std::vector<uint32_t> unique;
      for (uint32_t r : order) {
        if (seen.Add(cells.data() + r * n_cols).second) unique.push_back(r);
      }
      order = std::move(unique);
    }

    // OFFSET / LIMIT, then the surviving cells become terms.
    size_t begin = std::min(static_cast<size_t>(std::max<int64_t>(q.offset, 0)),
                            order.size());
    size_t end = order.size();
    if (q.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(q.limit));
    }
    result.rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      std::vector<Term>& out = result.rows.emplace_back();
      out.reserve(n_cols);
      const Cell* c = cells.data() + order[i] * n_cols;
      for (size_t x = 0; x < n_cols; ++x) {
        out.push_back(c[x].bound() ? c[x].value() : Term());
      }
    }
    return result;
  }

  /// Groups `sols` by the GROUP BY keys (term identity, as DISTINCT) and
  /// emits each group that passes HAVING through its representative row —
  /// the first member, or an unbound row for the empty group — with the
  /// aggregates' values in the expression context. Groups come out in the
  /// term order of their keys.
  template <typename Emit>
  Status Aggregate(const SelectQuery& q,
                   const std::vector<SelectQuery::Projection>& projs,
                   Rows& sols, Emit&& emit) {
    const size_t n_keys = q.group_by.size();
    RowGrouper grouper(&dataset_->default_graph().dict(), n_keys);
    std::vector<uint32_t> group_of(sols.size());
    std::vector<Cell> key(n_keys);
    std::vector<Cell> group_keys;  // first member's key cells per group
    for (size_t i = 0; i < sols.size(); ++i) {
      for (size_t g = 0; g < n_keys; ++g) {
        key[g] = Project(*q.group_by[g], sols.row(i));
      }
      auto [g, fresh] = grouper.Add(key.data());
      if (fresh) group_keys.insert(group_keys.end(), key.begin(), key.end());
      group_of[i] = static_cast<uint32_t>(g);
    }
    // Members grouped contiguously, in solution order within a group.
    size_t n_groups = grouper.groups();
    std::vector<uint32_t> offsets(n_groups + 1, 0);
    for (uint32_t g : group_of) ++offsets[g + 1];
    for (size_t g = 0; g < n_groups; ++g) offsets[g + 1] += offsets[g];
    std::vector<uint32_t> members(sols.size());
    {
      std::vector<uint32_t> at(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < sols.size(); ++i) {
        members[at[group_of[i]]++] = static_cast<uint32_t>(i);
      }
    }
    if (n_groups == 0 && n_keys == 0) {
      n_groups = 1;  // single empty group: COUNT(*) = 0 etc.
      offsets.push_back(0);
    }
    std::vector<uint32_t> groups(n_groups);
    for (size_t g = 0; g < n_groups; ++g) groups[g] = static_cast<uint32_t>(g);
    std::stable_sort(groups.begin(), groups.end(), [&](uint32_t a, uint32_t b) {
      for (size_t x = 0; x < n_keys; ++x) {
        const Cell& ca = group_keys[a * n_keys + x];
        const Cell& cb = group_keys[b * n_keys + x];
        int c = Term::Compare(ca.bound() ? ca.value() : UndefTerm(),
                              cb.bound() ? cb.value() : UndefTerm());
        if (c != 0) return c < 0;
      }
      return false;
    });
    // Aggregate nodes used anywhere in the output.
    std::vector<const ast::Expr*> agg_nodes;
    for (const auto& p : projs) CollectAggNodes(*p.expr, &agg_nodes);
    for (const auto& h : q.having) CollectAggNodes(*h, &agg_nodes);
    for (const auto& o : q.order_by) CollectAggNodes(*o.expr, &agg_nodes);

    std::vector<Cell> empty_row(frame_->width());
    for (uint32_t g : groups) {
      const uint32_t* first = members.data() + offsets[g];
      const size_t n = offsets[g + 1] - offsets[g];
      std::map<const ast::Expr*, Term> agg_values;
      for (const ast::Expr* node : agg_nodes) {
        // A failing aggregate is left undefined.
        Result<Term> v = EvalAggregate(*node, sols, first, n);
        if (v.ok()) agg_values[node] = std::move(*v);
      }
      Cell* rep = n == 0 ? empty_row.data() : sols.row(first[0]);
      ctx_.agg_values = &agg_values;
      bool keep = true;
      for (const auto& h : q.having) {
        Result<Term> v = Eval(*h, rep);
        Result<bool> b =
            v.ok() ? EffectiveBooleanValue(*v) : Result<bool>(false);
        if (!b.ok() || !*b) {
          keep = false;
          break;
        }
      }
      if (keep) emit(rep);
      ctx_.agg_values = nullptr;
    }
    return Status::OK();
  }

  Result<bool> Ask(const SelectQuery& q) {
    FrameScope scope(this, q);
    std::vector<Cell> row(frame_->width());
    bool found = false;
    SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                               EvalGroup(q.where, row.data(), [&found]() {
                                 found = true;
                                 return Result<bool>(false);
                               }));
    (void)ok;
    return found;
  }

  /// The term `vt` takes in solution `row` (Undef: unbound).
  Term Instantiate(const VarOrTerm& vt, const Cell* row) const {
    const Term* v = ValueIn(vt, row);
    return v == nullptr ? Term() : *v;
  }

  Result<Graph> Construct(const SelectQuery& q) {
    FrameScope scope(this, q);
    SCISPARQL_ASSIGN_OR_RETURN(Rows solutions, CollectSolutions(q, {}));
    Graph out;
    int blank_round = 0;
    for (size_t r = 0; r < solutions.size(); ++r) {
      const Cell* sol = solutions.row(r);
      ++blank_round;
      std::map<std::string, Term> blank_map;
      bool ok = true;
      std::vector<Triple> staged;
      for (const TriplePattern& tp : q.construct_template) {
        auto instantiate = [&](const VarOrTerm& vt) -> Term {
          if (vt.is_var && IsInternalVar(vt.var)) {
            // Collection / blank-list scaffolding in the template:
            // fresh blank per solution.
            auto [it, inserted] = blank_map.emplace(
                vt.var,
                Term::Blank(vt.var + "_" + std::to_string(blank_round)));
            (void)inserted;
            return it->second;
          }
          if (!vt.is_var && vt.term.IsBlank()) {
            auto [it, inserted] = blank_map.emplace(
                vt.term.blank_label(),
                Term::Blank(vt.term.blank_label() + "_" +
                            std::to_string(blank_round)));
            (void)inserted;
            return it->second;
          }
          return Instantiate(vt, sol);
        };
        Triple t{instantiate(tp.s), instantiate(tp.p), instantiate(tp.o)};
        if (t.s.IsUndef() || t.p.IsUndef() || t.o.IsUndef() ||
            t.s.IsLiteral() || !(t.p.IsIri())) {
          ok = false;
          break;
        }
        staged.push_back(std::move(t));
      }
      if (!ok) continue;
      for (Triple& t : staged) out.Add(std::move(t));
    }
    return out;
  }

  Result<Graph> Describe(const SelectQuery& q) {
    FrameScope scope(this, q);
    // Collect the resources to describe.
    std::vector<Term> targets;
    auto add_target = [&targets](Term t) {
      for (const Term& existing : targets) {
        if (existing == t) return;
      }
      targets.push_back(std::move(t));
    };
    if (q.has_where) {
      SCISPARQL_ASSIGN_OR_RETURN(Rows solutions, CollectSolutions(q, {}));
      for (size_t r = 0; r < solutions.size(); ++r) {
        for (const VarOrTerm& target : q.describe_targets) {
          Term t = Instantiate(target, solutions.row(r));
          if (!t.IsUndef()) add_target(std::move(t));
        }
      }
    } else {
      for (const VarOrTerm& target : q.describe_targets) {
        if (!target.is_var) add_target(target.term);
      }
    }
    // Concise bounded description: all triples with the target as subject,
    // expanding blank-node objects transitively.
    const Graph& g = dataset_->default_graph();
    Graph out;
    std::unordered_set<Term, TermHash> described;
    std::vector<Term> frontier = targets;
    while (!frontier.empty()) {
      Term node = frontier.back();
      frontier.pop_back();
      if (!described.insert(node).second) continue;
      for (const Triple& t : g.MatchAll(node, Term(), Term())) {
        out.Add(t);
        if (t.o.IsBlank()) frontier.push_back(t.o);
      }
    }
    return out;
  }

  /// Forwards a graph's mutation callbacks to both the previously
  /// installed listener (the statistics collector) and a MutationSink,
  /// for the duration of one Update(). Capturing at the Graph level —
  /// rather than at the update-operation level — means indirect mutations
  /// (collection consolidation, LOAD) are recorded too.
  class CaptureListener : public GraphListener {
   public:
    CaptureListener(Graph* graph, std::string graph_iri, MutationSink* sink)
        : graph_(graph),
          graph_iri_(std::move(graph_iri)),
          sink_(sink),
          prev_(graph->listener()) {
      graph_->SetListener(this);
    }
    ~CaptureListener() override {
      if (graph_ != nullptr) graph_->SetListener(prev_);
    }
    void OnAdd(const Triple& t) override {
      if (prev_ != nullptr) prev_->OnAdd(t);
      sink_->OnAdd(graph_iri_, t);
    }
    void OnRemove(const Triple& t) override {
      if (prev_ != nullptr) prev_->OnRemove(t);
      sink_->OnRemove(graph_iri_, t);
    }
    void OnClear() override {
      if (prev_ != nullptr) prev_->OnClear();
      sink_->OnClear(graph_iri_);
    }
    void OnGraphDestroyed() override {
      if (prev_ != nullptr) prev_->OnGraphDestroyed();
      graph_ = nullptr;  // nothing to restore; the graph is gone
    }

   private:
    Graph* graph_;
    std::string graph_iri_;
    MutationSink* sink_;
    GraphListener* prev_;
  };

  /// Forwards Graph::Apply's per-copy callbacks to a MutationSink with the
  /// graph IRI attached — the batch path's WAL capture. Unlike
  /// CaptureListener it swaps no graph state, so several writers can apply
  /// batches to the same graph concurrently, each with its own observer.
  class SinkObserver : public GraphListener {
   public:
    SinkObserver(std::string graph_iri, MutationSink* sink)
        : graph_iri_(std::move(graph_iri)), sink_(sink) {}
    void OnAdd(const Triple& t) override { sink_->OnAdd(graph_iri_, t); }
    void OnRemove(const Triple& t) override {
      sink_->OnRemove(graph_iri_, t);
    }
    void OnClear() override {}
    void OnGraphDestroyed() override {}

   private:
    std::string graph_iri_;
    MutationSink* sink_;
  };

  /// Returns the number of triples touched: net size change for data
  /// blocks and LOAD, staged delete+insert volume for pattern updates,
  /// triples dropped for CLEAR.
  ///
  /// The data and pattern forms (INSERT DATA, DELETE DATA, DELETE WHERE,
  /// DELETE/INSERT) stage their mutations into one WriteBatch and commit
  /// it with a single Graph::Apply — atomic to concurrent readers and safe
  /// under the scheduler's shared lock. LOAD and CLEAR mutate graph and
  /// dataset structure directly; the scheduler classifies them exclusive.
  Result<int64_t> Update(const ast::UpdateOp& op) {
    using K = ast::UpdateOp::Kind;
    Graph* target = op.graph.empty() ? &dataset_->default_graph()
                                     : &dataset_->GetOrCreateNamed(op.graph);
    std::optional<SinkObserver> observe;
    if (options_.mutations != nullptr && op.kind != K::kClear &&
        op.kind != K::kLoad) {
      observe.emplace(op.graph, options_.mutations);
    }
    GraphListener* observer = observe ? &*observe : nullptr;
    switch (op.kind) {
      case K::kInsertData: {
        // Instantiate into a staging graph — blank labels still drawn from
        // the target so they stay unique there — consolidate numeric
        // collections exactly as Turtle loading does, then commit the
        // staged content as one batch.
        Graph staging;
        SCISPARQL_RETURN_NOT_OK(
            InstantiateInto(op.insert_template, &staging, true, target));
        SCISPARQL_ASSIGN_OR_RETURN(int n,
                                   loaders::ConsolidateCollections(&staging));
        (void)n;
        WriteBatch batch;
        batch.reserve(staging.size());
        staging.ForEach([&batch](const Triple& t) { batch.Add(t); });
        Graph::ApplyResult r = target->Apply(std::move(batch), observer);
        return r.added - r.removed;
      }
      case K::kDeleteData: {
        WriteBatch batch;
        batch.reserve(op.delete_template.size());
        for (const TriplePattern& tp : op.delete_template) {
          if (tp.s.is_var || tp.p.is_var || tp.o.is_var) {
            return Status::InvalidArgument("DELETE DATA must be ground");
          }
          batch.RemoveAll(Triple{tp.s.term, tp.p.term, tp.o.term});
        }
        return target->Apply(std::move(batch), observer).removed;
      }
      case K::kDeleteWhere:
      case K::kModify: {
        SelectQuery probe;
        probe.where = op.where;
        probe.select_all = true;
        FrameScope scope(this, probe);
        SCISPARQL_ASSIGN_OR_RETURN(Rows solutions,
                                   CollectSolutions(probe, {}));
        // Stage deletions and insertions, then apply as one batch (so an
        // update never observes its own effects, per SPARQL Update
        // semantics, and readers see either none or all of it).
        std::vector<Triple> to_delete;
        std::vector<Triple> to_insert;
        for (size_t r = 0; r < solutions.size(); ++r) {
          StageTemplate(op.delete_template, solutions.row(r), &to_delete);
          StageTemplate(op.insert_template, solutions.row(r), &to_insert);
        }
        WriteBatch batch;
        batch.reserve(to_delete.size() + to_insert.size());
        for (Triple& t : to_delete) batch.RemoveAll(std::move(t));
        for (Triple& t : to_insert) batch.Add(std::move(t));
        int64_t staged =
            static_cast<int64_t>(to_delete.size() + to_insert.size());
        target->Apply(std::move(batch), observer);
        return staged;
      }
      case K::kLoad: {
        // Exclusive-class: the loader mutates the target through many
        // small applies, so the listener-swap capture that also sees the
        // loader's indirect mutations is still the right hook here.
        std::optional<CaptureListener> capture;
        if (options_.mutations != nullptr) {
          capture.emplace(target, op.graph, options_.mutations);
        }
        int64_t before = static_cast<int64_t>(target->size());
        loaders::TurtleOptions topt;
        SCISPARQL_RETURN_NOT_OK(
            loaders::LoadTurtleFile(op.load_source, target, topt));
        return static_cast<int64_t>(target->size()) - before;
      }
      case K::kClear: {
        // CLEAR logs as one logical record (the per-triple stream would be
        // both huge and redundant).
        if (options_.mutations != nullptr) {
          if (op.clear_all) {
            options_.mutations->OnClearAll();
          } else {
            options_.mutations->OnClear(op.graph);
          }
        }
        if (op.clear_all) {
          int64_t dropped =
              static_cast<int64_t>(dataset_->default_graph().size());
          dataset_->default_graph().Clear();
          std::vector<std::string> names;
          for (const auto& [iri, g] : dataset_->named_graphs()) {
            dropped += static_cast<int64_t>(g.size());
            names.push_back(iri);
          }
          for (const std::string& iri : names) dataset_->DropNamed(iri);
          return dropped;
        }
        int64_t dropped = static_cast<int64_t>(target->size());
        target->Clear();
        return dropped;
      }
    }
    return Status::Internal("unknown update kind");
  }

  void StageTemplate(const std::vector<TriplePattern>& tmpl, const Cell* sol,
                     std::vector<Triple>* out) {
    for (const TriplePattern& tp : tmpl) {
      Triple t{Instantiate(tp.s, sol), Instantiate(tp.p, sol),
               Instantiate(tp.o, sol)};
      if (t.s.IsUndef() || t.p.IsUndef() || t.o.IsUndef()) continue;
      out->push_back(std::move(t));
    }
  }

  /// Instantiates a data block's template into `target`. Fresh blank
  /// labels are drawn from `blank_namer` when given (the batch update path
  /// instantiates into a staging graph but needs labels unique in the real
  /// target);
  /// FreshBlankLabel is atomic, so this is safe under the shared lock.
  Status InstantiateInto(const std::vector<TriplePattern>& tmpl,
                         Graph* target, bool fresh_blanks,
                         Graph* blank_namer = nullptr) {
    Graph* namer = blank_namer != nullptr ? blank_namer : target;
    std::map<std::string, Term> blank_map;
    for (const TriplePattern& tp : tmpl) {
      auto instantiate = [&](const VarOrTerm& vt) -> Result<Term> {
        if (vt.is_var) {
          // Parser-generated variables (from collections `(...)` and
          // blank-node lists `[...]` inside the data block) become fresh
          // blank nodes, like explicit blank labels do.
          if (IsInternalVar(vt.var)) {
            auto it = blank_map.find(vt.var);
            if (it == blank_map.end()) {
              it = blank_map
                       .emplace(vt.var,
                                Term::Blank(namer->FreshBlankLabel()))
                       .first;
            }
            return it->second;
          }
          return Status::InvalidArgument("unbound variable in data block");
        }
        if (fresh_blanks && vt.term.IsBlank()) {
          auto it = blank_map.find(vt.term.blank_label());
          if (it == blank_map.end()) {
            it = blank_map
                     .emplace(vt.term.blank_label(),
                              Term::Blank(namer->FreshBlankLabel()))
                     .first;
          }
          return it->second;
        }
        return vt.term;
      };
      SCISPARQL_ASSIGN_OR_RETURN(Term s, instantiate(tp.s));
      SCISPARQL_ASSIGN_OR_RETURN(Term p, instantiate(tp.p));
      SCISPARQL_ASSIGN_OR_RETURN(Term o, instantiate(tp.o));
      target->Add(std::move(s), std::move(p), std::move(o));
    }
    return Status::OK();
  }

  Result<std::vector<Term>> CallDefined(const ast::FunctionDef& def,
                                        const std::vector<Term>& args) {
    if (++call_depth_ > 64) {
      --call_depth_;
      return Status::InvalidArgument("function recursion too deep: " +
                                     def.name);
    }
    Result<QueryResult> result = Select(*def.body, &def.params, &args);
    --call_depth_;
    SCISPARQL_RETURN_NOT_OK(result.status());
    std::vector<Term> bag;
    for (const auto& row : result->rows) {
      if (!row.empty() && !row[0].IsUndef()) bag.push_back(row[0]);
    }
    return bag;
  }

  Result<std::string> Explain(const SelectQuery& q) {
    // EXPLAIN is analyze-style: run the query once with per-scan profiling
    // so the plan can report estimated *and* actual cardinalities.
    FrameScope scope(this, q);
    profile_ = true;
    Result<Rows> sols = CollectSolutions(q, {});
    profile_ = options_.trace != nullptr;
    std::ostringstream out;
    out << "plan for " << (q.form == SelectQuery::Form::kSelect ? "SELECT"
                           : q.form == SelectQuery::Form::kAsk ? "ASK"
                                                               : "CONSTRUCT")
        << ":\n";
    if (!sols.ok()) {
      out << "  (execution failed: " << sols.status().message() << ")\n";
    }
    ExplainGroup(q.where, 1, &out);
    if (!q.group_by.empty()) out << "  group-by (" << q.group_by.size() << " keys)\n";
    if (!q.order_by.empty()) out << "  order-by (" << q.order_by.size() << " keys)\n";
    if (q.distinct) out << "  distinct\n";
    if (q.limit >= 0) out << "  limit " << q.limit << "\n";
    if (sols.ok()) out << "  solutions: " << sols->size() << "\n";
    return out.str();
  }

  void ExplainGroup(const GraphPattern& gp, int depth, std::ostringstream* out) {
    std::string pad(static_cast<size_t>(depth) * 2, ' ');
    // Same steps the evaluator runs (group-scoped FILTERs moved past the
    // elements that bind their variables).
    for (const Step& step : Group(gp)) {
      if (step.bgp != nullptr) {
        const std::vector<const TriplePattern*>& bgp = step.bgp->patterns;
        // Prefer the plan recorded during the profiled run (it saw the
        // real graph and bindings); fall back to planning statically for
        // pattern runs that never executed.
        const PlanRecord* rec = nullptr;
        auto it = plan_records_.find(bgp[0]);
        if (it != plan_records_.end()) rec = &it->second;
        OrderedBgp planned;
        if (rec == nullptr) {
          planned = OrderBgp(bgp, step.bgp->filters,
                             &dataset_->default_graph(), nullptr, true);
        }
        const std::vector<const TriplePattern*>& order =
            rec != nullptr ? rec->order : planned.patterns;
        const std::vector<int64_t>& est = rec != nullptr ? rec->est
                                                         : planned.est;
        bool reordered = rec != nullptr ? rec->reordered : planned.reordered;
        *out << pad << "bgp ("
             << (options_.optimize_join_order ? "cost-ordered"
                                              : "parse-ordered")
             << (reordered ? ", reordered" : "") << "):\n";
        for (size_t s = 0; s < order.size(); ++s) {
          const TriplePattern* tp = order[s];
          int64_t actual = 0;
          auto ait = scan_actual_.find(tp);
          if (ait != scan_actual_.end()) actual = ait->second;
          *out << pad << "  scan " << tp->s.ToString() << " "
               << (tp->path ? std::string("<path>") : tp->p.ToString()) << " "
               << tp->o.ToString() << "  (est " << est[s] << ", actual "
               << actual << ")";
          if (rec != nullptr && s < rec->phys.size()) {
            *out << "  [" << rec->phys[s] << "]";
          }
          *out << "\n";
        }
        continue;
      }
      const PatternElement& e = *step.elem;
      switch (e.kind) {
        case PatternElement::Kind::kFilter:
          *out << pad << "filter\n";
          break;
        case PatternElement::Kind::kBind:
          *out << pad << "bind ?" << e.bind_var << "\n";
          break;
        case PatternElement::Kind::kOptional:
          *out << pad << "optional:\n";
          ExplainGroup(*e.child, depth + 1, out);
          break;
        case PatternElement::Kind::kUnion:
          *out << pad << "union (" << e.branches.size() << " branches):\n";
          for (const auto& b : e.branches) ExplainGroup(*b, depth + 1, out);
          break;
        case PatternElement::Kind::kGraph:
          *out << pad << "graph " << e.graph_name.ToString() << ":\n";
          ExplainGroup(*e.child, depth + 1, out);
          break;
        case PatternElement::Kind::kMinus:
          *out << pad << "minus:\n";
          ExplainGroup(*e.child, depth + 1, out);
          break;
        case PatternElement::Kind::kValues:
          *out << pad << "values (" << e.values.rows.size() << " rows)\n";
          break;
        case PatternElement::Kind::kGroup:
          *out << pad << "group:\n";
          ExplainGroup(*e.child, depth + 1, out);
          break;
        default:
          break;
      }
    }
  }

  /// Appends the profiled operator detail under the trace's attach point:
  /// one "bgp" span per executed BGP with a "scan" child per step (pattern
  /// text, estimated cardinality, rows in, rows out), an "optimize" span
  /// with the accumulated join-ordering time, and the expression-eval
  /// counters. Called by the facade after the query finishes.
  void EmitTrace() {
    obs::QueryTrace* trace = options_.trace;
    if (trace == nullptr) return;
    obs::TraceSpan* at = trace->attach_point();
    for (const auto& [first, rec] : plan_records_) {
      obs::TraceSpan* bgp = trace->AddChild(at, "bgp");
      if (rec.reordered) bgp->SetAttr("reordered", "yes");
      for (size_t s = 0; s < rec.order.size(); ++s) {
        const TriplePattern* tp = rec.order[s];
        obs::TraceSpan* scan = trace->AddChild(bgp, "scan");
        scan->SetAttr("pattern",
                      tp->s.ToString() + " " +
                          (tp->path ? std::string("<path>") : tp->p.ToString()) +
                          " " + tp->o.ToString());
        scan->SetAttr("est", rec.est[s]);
        if (s < rec.phys.size()) scan->SetAttr("phys", rec.phys[s]);
        auto in = scan_input_.find(tp);
        scan->SetAttr("in", in == scan_input_.end() ? 0 : in->second);
        auto out = scan_actual_.find(tp);
        scan->SetAttr("out", out == scan_actual_.end() ? 0 : out->second);
      }
    }
    if (optimize_nanos_ > 0) {
      obs::TraceSpan* opt = trace->AddChild(at, "optimize");
      opt->wall_ms = static_cast<double>(optimize_nanos_) / 1e6;
    }
    if (eval_counters_.elem_calls > 0) {
      at->SetAttr("eval_elem_calls", eval_counters_.elem_calls);
    }
  }

 private:
  /// Plan chosen for one textual BGP (keyed by its first triple pattern),
  /// captured during a profiled (EXPLAIN) run.
  struct PlanRecord {
    std::vector<const TriplePattern*> order;
    std::vector<int64_t> est;
    bool reordered = false;
    /// Physical-operator labels per step ("index-scan(SPO)",
    /// "merge-join(POS on ?x)", ...), filled by the BGP's first ID join.
    std::vector<std::string> phys;
  };

  Dataset* dataset_;
  FunctionRegistry* registry_;
  const ExecOptions& options_;
  uint32_t interrupt_tick_ = 0;
  int call_depth_ = 0;
  std::function<Status()> interrupt_;
  EvalContext ctx_;
  /// The current query's frame, the row expressions read and the graph
  /// BGPs read.
  const Frame* frame_ = nullptr;
  Cell* cur_row_ = nullptr;
  const Graph* cur_graph_ = nullptr;
  /// Frames, compiled groups (boxed: EvalSteps holds references into the
  /// steps across recursion) and their BGPs; a query has few of each.
  std::vector<std::pair<const SelectQuery*, std::unique_ptr<Frame>>> frames_;
  std::vector<std::pair<const GraphPattern*,
                        std::unique_ptr<std::vector<Step>>>>
      groups_;
  std::vector<std::unique_ptr<Bgp>> bgps_;
  std::vector<std::unique_ptr<GraphCtx>> graph_ctxs_;
  std::list<Graph> from_graphs_;
  /// Terms the query computed (BIND, projections, keys), and the count of
  /// rows stored so far, which decides whether a BIND may free its term.
  std::optional<std::deque<Term>> arena_;  // made on first use
  uint64_t retained_ = 0;
  std::vector<int> bound_here_;
  std::map<std::string, Term> graph_names_;
  std::map<const GraphPattern*, Rows> minus_cache_;
  std::map<const SelectQuery*, QueryResult> subselect_cache_;
  PathScratch path_scratch_;
  /// EXPLAIN / tracing profiling: per-scan candidate (in) and consistent
  /// (out) binding counts, recorded plans, optimizer time and eval-loop
  /// counters.
  bool profile_ = false;
  std::map<const TriplePattern*, int64_t> scan_actual_;
  std::map<const TriplePattern*, int64_t> scan_input_;
  std::map<const TriplePattern*, PlanRecord> plan_records_;
  int64_t optimize_nanos_ = 0;
  EvalCounters eval_counters_;
};

// ---------------------------------------------------------------------------
// Executor facade.
// ---------------------------------------------------------------------------

Executor::Executor(Dataset* dataset, FunctionRegistry* registry,
                   ExecOptions options)
    : dataset_(dataset), registry_(registry), options_(options) {}

Result<QueryResult> Executor::Select(const ast::SelectQuery& q) {
  ExecImpl impl(dataset_, registry_, options_);
  Result<QueryResult> r = impl.Select(q, {});
  impl.EmitTrace();
  return r;
}

Result<bool> Executor::Ask(const ast::SelectQuery& q) {
  ExecImpl impl(dataset_, registry_, options_);
  Result<bool> r = impl.Ask(q);
  impl.EmitTrace();
  return r;
}

Result<Graph> Executor::Construct(const ast::SelectQuery& q) {
  ExecImpl impl(dataset_, registry_, options_);
  Result<Graph> r = impl.Construct(q);
  impl.EmitTrace();
  return r;
}

Result<Graph> Executor::Describe(const ast::SelectQuery& q) {
  ExecImpl impl(dataset_, registry_, options_);
  Result<Graph> r = impl.Describe(q);
  impl.EmitTrace();
  return r;
}

Result<int64_t> Executor::Update(const ast::UpdateOp& op) {
  ExecImpl impl(dataset_, registry_, options_);
  return impl.Update(op);
}

Result<std::string> Executor::Explain(const ast::SelectQuery& q) {
  ExecImpl impl(dataset_, registry_, options_);
  return impl.Explain(q);
}

Result<std::vector<Term>> Executor::CallDefined(const ast::FunctionDef& def,
                                                const std::vector<Term>& args) {
  ExecImpl impl(dataset_, registry_, options_);
  return impl.CallDefined(def, args);
}

std::string QueryResult::ToTable(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      row.push_back(rows[r][c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], row[c].size());
    }
    cells.push_back(std::move(row));
  }
  std::ostringstream out;
  auto line = [&]() {
    for (size_t c = 0; c < columns.size(); ++c) {
      out << "+" << std::string(widths[c] + 2, '-');
    }
    out << "+\n";
  };
  line();
  for (size_t c = 0; c < columns.size(); ++c) {
    out << "| " << columns[c]
        << std::string(widths[c] - columns[c].size() + 1, ' ');
  }
  out << "|\n";
  line();
  for (const auto& row : cells) {
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string cell = c < row.size() ? row[c] : "";
      out << "| " << cell << std::string(widths[c] - cell.size() + 1, ' ');
    }
    out << "|\n";
  }
  line();
  if (rows.size() > shown) {
    out << "(" << rows.size() - shown << " more rows)\n";
  }
  return out.str();
}

}  // namespace sparql
}  // namespace scisparql
