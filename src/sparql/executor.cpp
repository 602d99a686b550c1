#include "sparql/executor.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>

#include "loaders/turtle.h"
#include "opt/planner.h"
#include "sparql/id_join.h"
#include "sparql/path_eval.h"

namespace scisparql {
namespace sparql {

namespace {

using ast::GraphPattern;
using ast::PatternElement;
using ast::SelectQuery;
using ast::TriplePattern;
using ast::VarOrTerm;

/// Current solution under construction. Vars absent from the map are
/// unbound. std::map keeps copies cheapish and iteration deterministic.
using Binding = std::map<std::string, Term>;

/// Continuation invoked for every solution; returns false to stop the
/// enumeration early (ASK, LIMIT, EXISTS).
using Cont = std::function<Result<bool>()>;

bool IsInternalVar(const std::string& name) {
  return !name.empty() && name[0] == '.';
}

void CollectPatternVars(const GraphPattern& gp, std::vector<std::string>* out,
                        std::set<std::string>* seen);

/// Collects the user-visible variables one pattern element can bind. Also
/// used to decide how far a group-scoped FILTER must be deferred.
void CollectElementVars(const PatternElement& e, std::vector<std::string>* out,
                        std::set<std::string>* seen) {
  auto add = [&](const std::string& v) {
    if (!IsInternalVar(v) && seen->insert(v).second) out->push_back(v);
  };
  auto add_vt = [&](const VarOrTerm& vt) {
    if (vt.is_var) add(vt.var);
  };
  switch (e.kind) {
    case PatternElement::Kind::kTriple:
      add_vt(e.triple.s);
      add_vt(e.triple.p);
      add_vt(e.triple.o);
      break;
    case PatternElement::Kind::kBind:
      add(e.bind_var);
      break;
    case PatternElement::Kind::kValues:
      for (const std::string& v : e.values.vars) add(v);
      break;
    case PatternElement::Kind::kGraph:
      add_vt(e.graph_name);
      if (e.child) CollectPatternVars(*e.child, out, seen);
      break;
    case PatternElement::Kind::kUnion:
      for (const auto& b : e.branches) CollectPatternVars(*b, out, seen);
      break;
    case PatternElement::Kind::kOptional:
    case PatternElement::Kind::kGroup:
      if (e.child) CollectPatternVars(*e.child, out, seen);
      break;
    case PatternElement::Kind::kSubSelect:
      if (e.subquery != nullptr) {
        for (const auto& p : e.subquery->projections) add(p.name);
      }
      break;
    default:
      break;
  }
}

/// Collects user-visible variables of a pattern in first-appearance order.
void CollectPatternVars(const GraphPattern& gp, std::vector<std::string>* out,
                        std::set<std::string>* seen) {
  for (const PatternElement& e : gp.elements) {
    CollectElementVars(e, out, seen);
  }
}

/// Variables mentioned by an expression.
void CollectExprVars(const ast::Expr& e, std::set<std::string>* out) {
  switch (e.kind) {
    case ast::Expr::Kind::kVar:
      out->insert(e.var);
      break;
    case ast::Expr::Kind::kBinary:
      CollectExprVars(*e.left, out);
      CollectExprVars(*e.right, out);
      break;
    case ast::Expr::Kind::kUnary:
      CollectExprVars(*e.left, out);
      break;
    case ast::Expr::Kind::kCall:
      for (const auto& a : e.args) CollectExprVars(*a, out);
      break;
    case ast::Expr::Kind::kAggregate:
      if (e.agg_arg) CollectExprVars(*e.agg_arg, out);
      break;
    case ast::Expr::Kind::kSubscript:
      CollectExprVars(*e.base, out);
      for (const auto& s : e.subscripts) {
        if (s.index) CollectExprVars(*s.index, out);
        if (s.lo) CollectExprVars(*s.lo, out);
        if (s.hi) CollectExprVars(*s.hi, out);
        if (s.stride) CollectExprVars(*s.stride, out);
      }
      break;
    case ast::Expr::Kind::kExists:
      // EXISTS correlates on every variable its pattern mentions; a pushed
      // filter must wait until those are bound (or proven never-bound).
      if (e.exists_pattern) {
        std::vector<std::string> vars;
        std::set<std::string> seen;
        CollectPatternVars(*e.exists_pattern, &vars, &seen);
        out->insert(vars.begin(), vars.end());
      }
      break;
    default:
      break;
  }
}

void CollectAggNodes(const ast::Expr& e,
                     std::vector<const ast::Expr*>* out) {
  if (e.kind == ast::Expr::Kind::kAggregate) {
    out->push_back(&e);
    return;  // aggregates do not nest
  }
  if (e.left) CollectAggNodes(*e.left, out);
  if (e.right) CollectAggNodes(*e.right, out);
  for (const auto& a : e.args) CollectAggNodes(*a, out);
  if (e.base) CollectAggNodes(*e.base, out);
}

/// Locale-independent parse of an XSD numeric lexical form: optional
/// sign, digits with at most one '.', optional exponent — the union of
/// the xsd:integer / xsd:decimal / xsd:double lexical spaces (minus
/// INF/NaN, which have no useful sort value). Deliberately rejects what
/// strtod would additionally accept: leading whitespace, hex ("0x10"),
/// "inf"/"nan", and locale decimal separators.
std::optional<double> ParseXsdNumericLexical(const std::string& lex) {
  const char* begin = lex.data();
  const char* end = begin + lex.size();
  const char* q = begin;
  if (q != end && (*q == '+' || *q == '-')) ++q;
  const char* int_start = q;
  while (q != end && *q >= '0' && *q <= '9') ++q;
  bool has_int_digits = q != int_start;
  bool has_frac_digits = false;
  if (q != end && *q == '.') {
    ++q;
    const char* frac_start = q;
    while (q != end && *q >= '0' && *q <= '9') ++q;
    has_frac_digits = q != frac_start;
  }
  if (!has_int_digits && !has_frac_digits) return std::nullopt;
  if (q != end && (*q == 'e' || *q == 'E')) {
    ++q;
    if (q != end && (*q == '+' || *q == '-')) ++q;
    const char* exp_start = q;
    while (q != end && *q >= '0' && *q <= '9') ++q;
    if (q == exp_start) return std::nullopt;
  }
  if (q != end) return std::nullopt;
  // from_chars does not accept a leading '+'; the validation above makes
  // any other partial consumption (e.g. the trailing '.' of "5.")
  // value-preserving.
  const char* from = *begin == '+' ? begin + 1 : begin;
  double v = 0;
  auto [ptr, ec] = std::from_chars(from, end, v);
  (void)ptr;
  if (ec != std::errc()) return std::nullopt;  // out-of-range exponent etc.
  return v;
}

/// Numeric sort key for ORDER BY: native numerics by value, plus typed
/// literals with an XSD numeric datatype whose lexical form fully parses
/// (Term::Compare alone would order e.g. xsd:decimal literals lexically
/// against xsd:integer values). Returns nullopt for everything else.
std::optional<double> NumericOrderKey(const Term& t) {
  if (t.IsNumeric()) {
    Result<double> v = t.AsDouble();
    if (v.ok()) return *v;
    return std::nullopt;
  }
  if (t.kind() != Term::Kind::kTypedLiteral) return std::nullopt;
  static const char kXsd[] = "http://www.w3.org/2001/XMLSchema#";
  const std::string& dt = t.datatype();
  if (dt.compare(0, sizeof(kXsd) - 1, kXsd) != 0) return std::nullopt;
  static const std::set<std::string> kNumericTypes = {
      "integer",          "decimal",         "double",
      "float",            "int",             "long",
      "short",            "byte",            "nonNegativeInteger",
      "nonPositiveInteger", "negativeInteger", "positiveInteger",
      "unsignedLong",     "unsignedInt",     "unsignedShort",
      "unsignedByte"};
  if (kNumericTypes.count(dt.substr(sizeof(kXsd) - 1)) == 0) {
    return std::nullopt;
  }
  const std::string& lex = t.lexical();
  if (lex.empty()) return std::nullopt;
  return ParseXsdNumericLexical(lex);
}

/// True for the literal kinds Term::Compare ranks together (between IRIs
/// and arrays in the term order).
bool IsLiteralBand(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kString:
    case Term::Kind::kInteger:
    case Term::Kind::kDouble:
    case Term::Kind::kBoolean:
    case Term::Kind::kTypedLiteral:
      return true;
    default:
      return false;
  }
}

/// Sub-rank inside the literal band: plain strings, then the numeric
/// group, then booleans, then typed literals without a numeric key. This
/// mirrors Term::Compare's kind order except that numeric-keyed typed
/// literals join the numeric group.
int LiteralSubRank(const Term& t, bool has_numeric_key) {
  if (has_numeric_key) return 1;
  switch (t.kind()) {
    case Term::Kind::kString:
      return 0;
    case Term::Kind::kBoolean:
      return 2;
    default:
      return 3;
  }
}

/// ORDER BY comparator: mixed numeric bindings (xsd:integer vs xsd:double
/// vs numeric typed literals) compare by value; everything else falls back
/// to the SPARQL term order. Literal-band terms are sub-ranked first so
/// the result is a strict weak order — comparing a numeric-keyed typed
/// literal by value against numerics but lexically against keyless typed
/// literals (while those compare to numerics by kind) would cycle, which
/// is undefined behavior under std::sort.
int CompareOrderKeys(const Term& a, const Term& b) {
  if (!IsLiteralBand(a) || !IsLiteralBand(b)) return Term::Compare(a, b);
  std::optional<double> na = NumericOrderKey(a);
  std::optional<double> nb = NumericOrderKey(b);
  int sa = LiteralSubRank(a, na.has_value());
  int sb = LiteralSubRank(b, nb.has_value());
  if (sa != sb) return sa < sb ? -1 : 1;
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*nb < *na) return 1;
  }
  // Equal numeric values (or a keyless subclass): the term order is a
  // deterministic tiebreak that keeps equal-value groups well-defined.
  return Term::Compare(a, b);
}

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
/// filter hints that feed the cost model. Returns false (no memoization)
/// when a resolved constant is an array — rendering one would materialize
/// the proxy, which costs more than planning.
bool MemoSignature(const std::vector<opt::PatternDesc>& descs,
                   const std::vector<opt::FilterHint>& hints,
                   std::string* out) {
  std::string sig;
  auto pos = [&sig](const std::optional<Term>& c, const std::string& var) {
    if (c.has_value()) {
      if (c->kind() == Term::Kind::kArray) return false;
      sig += c->ToString();
    } else {
      sig += '?';
      sig += var;
    }
    sig += '\x1f';
    return true;
  };
  for (const opt::PatternDesc& d : descs) {
    if (!pos(d.s, d.s_var) || !pos(d.p, d.p_var) || !pos(d.o, d.o_var)) {
      return false;
    }
    if (d.is_path) sig += '~';
    sig += '\x1e';
  }
  for (const opt::FilterHint& h : hints) {
    sig += h.var;
    sig += static_cast<char>('0' + static_cast<int>(h.op));
    sig += std::to_string(h.bound);
    sig += '\x1f';
  }
  *out = std::move(sig);
  return true;
}

/// Lexicographic row comparator on Term::Compare, for DISTINCT/dedup sets.
struct RowLess {
  bool operator()(const std::vector<Term>& a,
                  const std::vector<Term>& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = Term::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

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
        profile_(options.trace != nullptr) {}

  struct State {
    const Graph* graph;
    Binding binding;
  };

  /// One evaluated ORDER BY key. SPARQL's term order puts unbound lowest,
  /// but an *erroring* key expression is not the same thing as an unbound
  /// variable — conflating them makes `ORDER BY (1/?x)` interleave its
  /// failures with genuinely unbound rows. Errors carry their own flag and
  /// sort in a separate band.
  struct OrderKeyVal {
    Term term;
    bool error = false;
  };

  OrderKeyVal EvalOrderKey(const ast::Expr& e, State& st, EvalContext& ctx) {
    if (e.kind == ast::Expr::Kind::kVar &&
        st.binding.find(e.var) == st.binding.end()) {
      return {};  // genuinely unbound: lowest band, not an error
    }
    Result<Term> v = EvalExpr(e, ctx);
    if (!v.ok()) return {Term(), true};
    return {*v, false};
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

  /// Element order used for evaluation. SPARQL FILTERs scope over the
  /// *whole* group, so a FILTER whose variables can still be bound by a
  /// later element (typically an OPTIONAL) is deferred to just after the
  /// last such element instead of being evaluated where it appears
  /// textually (where the unbound variable would make it an error and
  /// reject every solution). Cached per pattern for the query's lifetime.
  const std::vector<const PatternElement*>& GroupView(const GraphPattern& gp) {
    auto cached = group_views_.find(&gp);
    if (cached != group_views_.end()) return cached->second;
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
    return group_views_.emplace(&gp, std::move(view)).first->second;
  }

  Result<bool> EvalGroup(const GraphPattern& gp, State& st, const Cont& k) {
    return EvalSteps(GroupView(gp), 0, st, k);
  }

  Result<bool> EvalSteps(const std::vector<const PatternElement*>& elems,
                         size_t i, State& st, const Cont& k) {
    SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
    if (i >= elems.size()) return k();

    // Gather a maximal run of triple patterns into one BGP, pulling in any
    // directly following FILTERs so they can be pushed into the join.
    if (elems[i]->kind == PatternElement::Kind::kTriple) {
      std::vector<const TriplePattern*> bgp;
      std::vector<const ast::Expr*> filters;
      size_t j = i;
      while (j < elems.size()) {
        if (elems[j]->kind == PatternElement::Kind::kTriple) {
          bgp.push_back(&elems[j]->triple);
          ++j;
        } else if (options_.push_filters &&
                   elems[j]->kind == PatternElement::Kind::kFilter) {
          filters.push_back(elems[j]->expr.get());
          ++j;
        } else {
          break;
        }
      }
      auto next = [this, &elems, j, &st, &k]() {
        return EvalSteps(elems, j, st, k);
      };
      return EvalBgp(bgp, filters, st, next);
    }

    const PatternElement& e = *elems[i];
    auto next = [this, &elems, i, &st, &k]() {
      return EvalSteps(elems, i + 1, st, k);
    };

    switch (e.kind) {
      case PatternElement::Kind::kFilter: {
        SCISPARQL_ASSIGN_OR_RETURN(bool pass, EvalFilter(*e.expr, st));
        if (!pass) return true;
        return next();
      }
      case PatternElement::Kind::kBind:
        return EvalBind(e, st, next);
      case PatternElement::Kind::kOptional:
        return EvalOptional(e, st, next);
      case PatternElement::Kind::kUnion: {
        for (const auto& branch : e.branches) {
          State sub{st.graph, st.binding};
          SCISPARQL_ASSIGN_OR_RETURN(
              bool more, EvalGroup(*branch, sub, [&]() -> Result<bool> {
                // Continue the outer steps with the branch's bindings.
                State merged{st.graph, sub.binding};
                std::swap(st.binding, merged.binding);
                auto restore = [&]() { std::swap(st.binding, merged.binding); };
                auto r = EvalSteps(elems, i + 1, st, k);
                restore();
                return r;
              }));
          if (!more) return false;
        }
        return true;
      }
      case PatternElement::Kind::kGroup: {
        return EvalGroup(*e.child, st, next);
      }
      case PatternElement::Kind::kGraph:
        return EvalGraph(e, st, next);
      case PatternElement::Kind::kValues:
        return EvalValues(e, st, next);
      case PatternElement::Kind::kMinus:
        return EvalMinus(e, st, next);
      case PatternElement::Kind::kSubSelect:
        return EvalSubSelect(e, st, next);
      default:
        return Status::Internal("unexpected pattern element");
    }
  }

  Result<bool> EvalFilter(const ast::Expr& expr, State& st) {
    EvalContext ctx = MakeCtx(st);
    Result<Term> v = EvalExpr(expr, ctx);
    if (!v.ok()) return false;  // evaluation error = filter rejects
    Result<bool> b = EffectiveBooleanValue(*v);
    if (!b.ok()) return false;
    return *b;
  }

  Result<bool> EvalBind(const PatternElement& e, State& st, const Cont& k) {
    if (st.binding.count(e.bind_var) > 0) {
      return Status::InvalidArgument("BIND to already-bound variable ?" +
                                     e.bind_var);
    }
    EvalContext ctx = MakeCtx(st);

    // Variables bound to array subscripts (Section 4.1.2): when the BIND
    // expression is an array dereference whose index positions contain
    // *unbound* variables, the dereference acts as a generator — one
    // solution per element, with the index variables bound to the
    // (1-based) subscripts.
    if (e.expr->kind == ast::Expr::Kind::kSubscript) {
      SCISPARQL_ASSIGN_OR_RETURN(std::optional<bool> generated,
                                 EvalSubscriptGenerator(e, st, ctx, k));
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
          SCISPARQL_ASSIGN_OR_RETURN(Term t, EvalExpr(*a, ctx));
          args.push_back(std::move(t));
        }
        SCISPARQL_ASSIGN_OR_RETURN(std::vector<Term> bag,
                                   CallDefined(*def, args));
        for (Term& value : bag) {
          st.binding[e.bind_var] = std::move(value);
          Result<bool> r = k();
          st.binding.erase(e.bind_var);
          if (!r.ok()) return r;
          if (!*r) return false;
        }
        return true;
      }
    }

    Result<Term> v = EvalExpr(*e.expr, ctx);
    if (v.ok() && !v->IsUndef()) {
      st.binding[e.bind_var] = std::move(*v);
      Result<bool> r = k();
      st.binding.erase(e.bind_var);
      return r;
    }
    // Error: the variable stays unbound, the solution survives.
    return k();
  }

  /// Implements the subscript-generator form of BIND. Returns nullopt when
  /// the expression is an ordinary dereference (no unbound index vars) and
  /// the generic path should handle it; otherwise the continue/stop flag.
  Result<std::optional<bool>> EvalSubscriptGenerator(const PatternElement& e,
                                                     State& st,
                                                     EvalContext& ctx,
                                                     const Cont& k) {
    const ast::Expr& deref = *e.expr;
    // The base array must be computable already.
    Result<Term> base = EvalExpr(*deref.base, ctx);
    if (!base.ok() || !base->IsArray()) return std::optional<bool>();
    const auto& arr = base->array();
    const std::vector<int64_t>& shape = arr->shape();
    if (deref.subscripts.size() != shape.size()) return std::optional<bool>();

    // Classify each dimension: enumerated (unbound index variable) or
    // fixed (anything else, evaluated by the normal rules).
    struct Dim {
      bool enumerated = false;
      std::string var;
    };
    std::vector<Dim> dims(shape.size());
    bool any_enumerated = false;
    for (size_t d = 0; d < deref.subscripts.size(); ++d) {
      const ast::SubscriptExpr& s = deref.subscripts[d];
      if (!s.is_range && s.index != nullptr &&
          s.index->kind == ast::Expr::Kind::kVar &&
          st.binding.count(s.index->var) == 0 &&
          !IsInternalVar(s.index->var)) {
        dims[d].enumerated = true;
        dims[d].var = s.index->var;
        any_enumerated = true;
      }
    }
    if (!any_enumerated) return std::optional<bool>();

    // Iterate the Cartesian product of the enumerated dimensions; for each
    // combination bind the index variables (1-based) and evaluate the
    // dereference through the ordinary evaluator (so fixed dims, ranges
    // and bounds checks behave identically).
    std::vector<size_t> enum_dims;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (dims[d].enumerated) enum_dims.push_back(d);
    }
    std::vector<int64_t> idx(enum_dims.size(), 1);
    bool more = true;
    while (more) {
      for (size_t p = 0; p < enum_dims.size(); ++p) {
        st.binding[dims[enum_dims[p]].var] = Term::Integer(idx[p]);
      }
      Result<Term> v = EvalExpr(deref, ctx);
      Result<bool> r = true;
      if (v.ok() && !v->IsUndef()) {
        st.binding[e.bind_var] = std::move(*v);
        r = k();
        st.binding.erase(e.bind_var);
      }
      for (size_t p = 0; p < enum_dims.size(); ++p) {
        st.binding.erase(dims[enum_dims[p]].var);
      }
      if (!r.ok()) return r.status();
      if (!*r) return std::optional<bool>(false);
      // Advance the multi-index (1-based, bounded by the shape).
      size_t p = 0;
      while (p < enum_dims.size() &&
             ++idx[p] > shape[enum_dims[p]]) {
        idx[p] = 1;
        ++p;
      }
      if (p == enum_dims.size()) more = false;
    }
    return std::optional<bool>(true);
  }

  Result<bool> EvalOptional(const PatternElement& e, State& st,
                            const Cont& k) {
    bool any = false;
    SCISPARQL_ASSIGN_OR_RETURN(
        bool more, EvalGroup(*e.child, st, [&]() -> Result<bool> {
          any = true;
          return k();
        }));
    if (!more) return false;
    if (!any) return k();
    return true;
  }

  Result<bool> EvalGraph(const PatternElement& e, State& st, const Cont& k) {
    const GraphPattern& child = *e.child;
    if (!e.graph_name.is_var) {
      const Graph* g = dataset_->FindNamed(e.graph_name.term.iri());
      if (g == nullptr) return true;  // no such graph: no solutions
      const Graph* saved = st.graph;
      st.graph = g;
      Result<bool> r = EvalGroup(child, st, k);
      st.graph = saved;
      return r;
    }
    const std::string& var = e.graph_name.var;
    auto it = st.binding.find(var);
    if (it != st.binding.end()) {
      if (!it->second.IsIri()) return true;
      const Graph* g = dataset_->FindNamed(it->second.iri());
      if (g == nullptr) return true;
      const Graph* saved = st.graph;
      st.graph = g;
      Result<bool> r = EvalGroup(child, st, k);
      st.graph = saved;
      return r;
    }
    for (const auto& [iri, g] : dataset_->named_graphs()) {
      st.binding[var] = Term::Iri(iri);
      const Graph* saved = st.graph;
      st.graph = &g;
      Result<bool> r = EvalGroup(child, st, k);
      st.graph = saved;
      st.binding.erase(var);
      if (!r.ok()) return r;
      if (!*r) return false;
    }
    return true;
  }

  Result<bool> EvalValues(const PatternElement& e, State& st, const Cont& k) {
    for (const auto& row : e.values.rows) {
      std::vector<std::string> bound_here;
      bool compatible = true;
      for (size_t c = 0; c < e.values.vars.size(); ++c) {
        const Term& v = row[c];
        if (v.IsUndef()) continue;
        auto it = st.binding.find(e.values.vars[c]);
        if (it != st.binding.end()) {
          if (!(it->second == v)) {
            compatible = false;
            break;
          }
        } else {
          st.binding[e.values.vars[c]] = v;
          bound_here.push_back(e.values.vars[c]);
        }
      }
      Result<bool> r = compatible ? k() : Result<bool>(true);
      for (const std::string& v : bound_here) st.binding.erase(v);
      if (!r.ok()) return r;
      if (!*r) return false;
    }
    return true;
  }

  Result<bool> EvalMinus(const PatternElement& e, State& st, const Cont& k) {
    // MINUS: drop the current solution when some solution of the child
    // pattern is compatible with it and shares at least one variable.
    auto cache_it = minus_cache_.find(e.child.get());
    if (cache_it == minus_cache_.end()) {
      std::vector<Binding> solutions;
      State sub{st.graph, Binding()};
      SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                                 EvalGroup(*e.child, sub, [&]() -> Result<bool> {
                                   solutions.push_back(sub.binding);
                                   return true;
                                 }));
      (void)ok;
      cache_it = minus_cache_.emplace(e.child.get(), std::move(solutions)).first;
    }
    for (const Binding& other : cache_it->second) {
      bool shares = false;
      bool compatible = true;
      for (const auto& [var, value] : other) {
        auto it = st.binding.find(var);
        if (it == st.binding.end()) continue;
        shares = true;
        if (!(it->second == value)) {
          compatible = false;
          break;
        }
      }
      if (shares && compatible) return true;  // dropped
    }
    return k();
  }

  Result<bool> EvalSubSelect(const PatternElement& e, State& st,
                             const Cont& k) {
    // SPARQL subqueries evaluate bottom-up: the inner SELECT runs once
    // (against the dataset's default graph), then its projected rows join
    // with the outer solution on shared variable names.
    auto it = subselect_cache_.find(e.subquery.get());
    if (it == subselect_cache_.end()) {
      SCISPARQL_ASSIGN_OR_RETURN(QueryResult rows,
                                 Select(*e.subquery, Binding()));
      it = subselect_cache_.emplace(e.subquery.get(), std::move(rows)).first;
    }
    const QueryResult& rows = it->second;
    for (const auto& row : rows.rows) {
      std::vector<std::string> bound_here;
      bool compatible = true;
      for (size_t c = 0; c < rows.columns.size() && c < row.size(); ++c) {
        if (row[c].IsUndef()) continue;
        auto found = st.binding.find(rows.columns[c]);
        if (found != st.binding.end()) {
          if (!(found->second == row[c])) {
            compatible = false;
            break;
          }
        } else {
          st.binding[rows.columns[c]] = row[c];
          bound_here.push_back(rows.columns[c]);
        }
      }
      Result<bool> r = compatible ? k() : Result<bool>(true);
      for (const std::string& v : bound_here) st.binding.erase(v);
      if (!r.ok()) return r;
      if (!*r) return false;
    }
    return true;
  }

  // --- BGP evaluation with cost-based ordering (Section 5.4). ---

  /// Abstracts a triple pattern for the cost model: variables already bound
  /// in the current solution are resolved to constants, the rest stay
  /// symbolic so the estimator can discount them as join variables.
  opt::PatternDesc MakeDesc(const TriplePattern& tp, const State& st) const {
    opt::PatternDesc d;
    auto fill = [&](const VarOrTerm& vt, std::optional<Term>* c,
                    std::string* var) {
      if (!vt.is_var) {
        *c = vt.term;
        return;
      }
      auto it = st.binding.find(vt.var);
      if (it != st.binding.end()) {
        *c = it->second;
      } else {
        *var = vt.var;
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

  OrderedBgp OrderBgp(const std::vector<const TriplePattern*>& bgp,
                      const std::vector<const ast::Expr*>& filters,
                      const State& st) const {
    std::vector<opt::PatternDesc> descs;
    descs.reserve(bgp.size());
    for (const TriplePattern* tp : bgp) descs.push_back(MakeDesc(*tp, st));
    std::vector<opt::FilterHint> hints;
    for (const ast::Expr* f : filters) ExtractFilterHints(*f, &hints);
    const opt::GraphStats* stats =
        options_.stats == nullptr ? nullptr : options_.stats->Find(st.graph);
    opt::CardinalityEstimator estimator(st.graph, stats);

    OrderedBgp out;
    if (!options_.optimize_join_order) {
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
    std::string memo_sig;
    bool memoizable = options_.plan_memo != nullptr && st.graph != nullptr &&
                      MemoSignature(descs, hints, &memo_sig);
    if (memoizable) {
      cache::PlanMemo::Entry hit;
      if (options_.plan_memo->Lookup(memo_sig, st.graph, st.graph->version(),
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
      e.graph = st.graph;
      e.graph_version = st.graph->version();
      options_.plan_memo->Insert(memo_sig, std::move(e));
    }
    return out;
  }

  Result<bool> EvalBgp(const std::vector<const TriplePattern*>& bgp,
                       const std::vector<const ast::Expr*>& filters,
                       State& st, const Cont& k) {
    std::chrono::steady_clock::time_point opt_start;
    if (profile_) opt_start = std::chrono::steady_clock::now();
    OrderedBgp ordered = OrderBgp(bgp, filters, st);
    if (profile_) {
      optimize_nanos_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - opt_start)
                             .count();
    }
    if (profile_ && !bgp.empty()) {
      // Remember the first plan chosen for this (textual) BGP so EXPLAIN
      // can render estimated vs. actual cardinalities side by side.
      plan_records_.emplace(bgp[0],
                            PlanRecord{ordered.patterns, ordered.est,
                                       ordered.reordered});
    }
    std::optional<Result<bool>> fast =
        TryEvalBgpIds(ordered, bgp, filters, st, k);
    if (fast.has_value()) return *fast;
    std::vector<bool> filter_done(filters.size(), false);
    return EvalBgpRec(ordered.patterns, filters, &filter_done, 0, st, k);
  }

  /// Attempts to evaluate the ordered BGP over the graph's dictionary-ID
  /// permutation indexes (merge / hash joins instead of nested
  /// scan-and-bind), merging any pending delta at a snapshot epoch
  /// captured on entry. Returns nullopt when the fast path does not apply
  /// — single pattern, property paths, or an intermediate result past the
  /// materialization cap — and the caller falls back to scan-and-bind.
  std::optional<Result<bool>> TryEvalBgpIds(
      const OrderedBgp& ordered, const std::vector<const TriplePattern*>& bgp,
      const std::vector<const ast::Expr*>& filters, State& st, const Cont& k) {
    if (!options_.use_id_joins || st.graph == nullptr) return std::nullopt;
    if (ordered.patterns.size() < 2) return std::nullopt;
    for (const TriplePattern* tp : ordered.patterns) {
      if (tp->path != nullptr) return std::nullopt;
    }
    const TermDictionary& dict = st.graph->dict();

    // Pin the read snapshot *before* touching the dictionary or the
    // delta: writers intern a batch's terms and splice its delta cells
    // under the delta mutex before publishing its epoch, so every batch
    // with epoch <= snapshot is fully resolvable below, and every later
    // batch is excluded by the epoch filter — exactly MatchAt(snapshot)
    // semantics, even while writers keep committing mid-query.
    const uint64_t snapshot = st.graph->SnapshotEpoch();
    DeltaIdRuns delta_runs;
    st.graph->SnapshotDeltaIds(snapshot, &delta_runs);

    // Lower the patterns to the ID space: constants and already-bound
    // variables resolve through the dictionary, unbound variables get
    // dense output slots. The dictionary interns by Term::Identical, so a
    // resolved ID stands for exactly the triples the constant matches.
    // Arrays are the exception — they intern by object identity — so an
    // array constant (or outer-bound array value) becomes an anonymous
    // slot whose bound term is checked by value after the join.
    std::vector<std::string> slot_vars;
    std::map<std::string, int> slot_of;
    std::map<int, Term> residual;  // anonymous slot -> array it must equal
    bool missing_const = false;
    auto lower = [&](const VarOrTerm& vt) -> IdSlot {
      IdSlot s;
      const Term* value = &vt.term;
      if (vt.is_var) {
        auto bound = st.binding.find(vt.var);
        if (bound == st.binding.end()) {
          auto [it, fresh] =
              slot_of.emplace(vt.var, static_cast<int>(slot_vars.size()));
          if (fresh) slot_vars.push_back(vt.var);
          s.is_var = true;
          s.slot = it->second;
          return s;
        }
        value = &bound->second;
      }
      if (value->IsArray()) {
        s.is_var = true;
        s.slot = static_cast<int>(slot_vars.size());
        slot_vars.emplace_back();
        residual.emplace(s.slot, *value);
        return s;
      }
      std::optional<uint32_t> id = dict.Find(*value);
      if (!id.has_value()) {
        missing_const = true;
        return s;
      }
      s.const_id = *id;
      return s;
    };
    std::vector<IdPattern> pats;
    pats.reserve(ordered.patterns.size());
    for (const TriplePattern* tp : ordered.patterns) {
      IdPattern p;
      p.s = lower(tp->s);
      p.p = lower(tp->p);
      p.o = lower(tp->o);
      pats.push_back(p);
    }
    if (missing_const) {
      // A constant absent from the dictionary occurs in no triple — delta
      // triples included, since Apply interns them before publishing
      // their epoch and our snapshot was captured before these Finds ran:
      // the BGP has zero solutions and evaluation simply continues.
      return Result<bool>(true);
    }

    const IdIndexes& idx = st.graph->EnsureIdIndexes();
    // A batch committing between the snapshot capture above and this
    // point cannot leak post-snapshot rows into the join: the base table
    // and its permutations are immutable under the shared lock (folds and
    // base-mode writes require exclusivity, so the epoch can only have
    // grown by delta commits), and every delta op carries its batch's
    // epoch, which the run resolution filtered against `snapshot`.
    assert(st.graph->SnapshotEpoch() >= snapshot);
    IdJoinResult res;
    bool overflow = false;
    std::function<Status()> interrupt;
    if (options_.query != nullptr) {
      interrupt = [this]() { return CheckInterrupt(); };
    }
    Status js = ExecuteIdJoin(idx, delta_runs.empty() ? nullptr : &delta_runs,
                              pats, options_.id_join_max_rows, interrupt,
                              &res, &overflow);
    if (!js.ok()) return Result<bool>(js);
    if (overflow) return std::nullopt;

    if (profile_) RecordIdJoinProfile(ordered, bgp, slot_vars, res);

    // Emit the solutions: bind the slot variables through pre-inserted
    // map cells (Binding is node-based, so the iterators survive whatever
    // the continuation does to other keys), check the array residuals,
    // then apply every pushed filter — the same end-of-BGP accept/reject
    // state scan-and-bind reaches, since EvalFilter maps evaluation
    // errors to rejection.
    const size_t stride = res.slots.size();
    std::vector<Binding::iterator> cells(stride);
    std::vector<const Term*> must_equal(stride, nullptr);
    for (size_t c = 0; c < stride; ++c) {
      auto r = residual.find(res.slots[c]);
      if (r != residual.end()) {
        must_equal[c] = &r->second;
      } else {
        cells[c] = st.binding
                       .emplace(slot_vars[static_cast<size_t>(res.slots[c])],
                                Term())
                       .first;
      }
    }
    bool keep_going = true;
    Status inner = Status::OK();
    for (size_t r = 0; r < res.rows && keep_going; ++r) {
      Status alive = CheckInterrupt();
      if (!alive.ok()) {
        inner = alive;
        break;
      }
      bool pass = true;
      for (size_t c = 0; c < stride && pass; ++c) {
        const Term& t = dict.term(res.data[r * stride + c]);
        if (must_equal[c] != nullptr) {
          pass = t == *must_equal[c];
        } else {
          cells[c]->second = t;
        }
      }
      for (size_t f = 0; f < filters.size() && pass; ++f) {
        Result<bool> pb = EvalFilter(*filters[f], st);
        if (!pb.ok()) {
          inner = pb.status();
          keep_going = false;
          pass = false;
          break;
        }
        pass = *pb;
      }
      if (!pass) continue;
      Result<bool> kr = k();
      if (!kr.ok()) {
        inner = kr.status();
        break;
      }
      if (!*kr) keep_going = false;
    }
    for (size_t c = 0; c < stride; ++c) {
      if (must_equal[c] == nullptr) st.binding.erase(cells[c]);
    }
    if (!inner.ok()) return Result<bool>(inner);
    return Result<bool>(keep_going);
  }

  /// Folds an ID-join run into the EXPLAIN / trace profile: per-pattern
  /// scan and output cardinalities, plus the physical-operator labels on
  /// the BGP's plan record (first run wins, matching plan capture).
  void RecordIdJoinProfile(const OrderedBgp& ordered,
                           const std::vector<const TriplePattern*>& bgp,
                           const std::vector<std::string>& slot_vars,
                           const IdJoinResult& res) {
    for (size_t i = 0; i < res.steps.size() && i < ordered.patterns.size();
         ++i) {
      scan_input_[ordered.patterns[i]] +=
          static_cast<int64_t>(res.steps[i].scan_rows);
      scan_actual_[ordered.patterns[i]] +=
          static_cast<int64_t>(res.steps[i].out_rows);
    }
    if (bgp.empty()) return;
    auto it = plan_records_.find(bgp[0]);
    if (it == plan_records_.end() || !it->second.phys.empty()) return;
    for (const IdJoinStep& s : res.steps) {
      std::string label = std::string(opt::PhysicalOpName(s.op)) + "(" +
                          PermName(s.perm);
      // Mark scans that merged a pending delta run, so EXPLAIN under
      // concurrent writes shows the ID path holding rather than falling
      // back to term scans.
      if (s.delta) label += "+delta";
      if (s.op == opt::PhysicalOp::kMergeJoin && s.join_slot >= 0) {
        label += " on ?" + slot_vars[static_cast<size_t>(s.join_slot)];
      } else if (s.op == opt::PhysicalOp::kHashJoin) {
        label += s.build_left ? ", build=left" : ", build=scan";
      }
      label += ")";
      it->second.phys.push_back(std::move(label));
    }
  }

  Result<bool> EvalBgpRec(const std::vector<const TriplePattern*>& patterns,
                          const std::vector<const ast::Expr*>& filters,
                          std::vector<bool>* filter_done, size_t i, State& st,
                          const Cont& k) {
    // The join loop re-enters here once per candidate binding per pattern,
    // which makes it the natural cancellation point for BGP evaluation.
    SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
    // Apply any pushed filter whose variables are now all bound.
    std::vector<size_t> applied_here;
    for (size_t f = 0; f < filters.size(); ++f) {
      if ((*filter_done)[f]) continue;
      std::set<std::string> vars;
      CollectExprVars(*filters[f], &vars);
      bool ready = true;
      for (const std::string& v : vars) {
        if (st.binding.count(v) == 0) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      (*filter_done)[f] = true;
      applied_here.push_back(f);
      SCISPARQL_ASSIGN_OR_RETURN(bool pass, EvalFilter(*filters[f], st));
      if (!pass) {
        for (size_t g : applied_here) (*filter_done)[g] = false;
        return true;
      }
    }
    auto undo_filters = [&]() {
      for (size_t g : applied_here) (*filter_done)[g] = false;
    };

    if (i >= patterns.size()) {
      // Remaining filters reference unbound vars: evaluate (will reject
      // solutions via error->false) to respect SPARQL semantics.
      for (size_t f = 0; f < filters.size(); ++f) {
        if ((*filter_done)[f]) continue;
        SCISPARQL_ASSIGN_OR_RETURN(bool pass, EvalFilter(*filters[f], st));
        if (!pass) {
          undo_filters();
          return true;
        }
      }
      Result<bool> r = k();
      undo_filters();
      return r;
    }

    const TriplePattern& tp = *patterns[i];
    Result<bool> result = true;

    if (tp.path != nullptr) {
      result = EvalPathPattern(tp, patterns, filters, filter_done, i, st, k);
      undo_filters();
      return result;
    }

    auto resolve = [&](const VarOrTerm& vt) -> Term {
      if (!vt.is_var) return vt.term;
      auto it = st.binding.find(vt.var);
      return it == st.binding.end() ? Term() : it->second;
    };
    Term s = resolve(tp.s);
    Term p = resolve(tp.p);
    Term o = resolve(tp.o);

    Status inner_status = Status::OK();
    bool keep_going = true;
    st.graph->Match(s, p, o, [&](const Triple& t) -> bool {
      if (profile_) ++scan_input_[patterns[i]];
      // Bind wildcard positions, checking repeated-variable consistency.
      std::vector<std::string> bound_here;
      auto bind_pos = [&](const VarOrTerm& vt, const Term& value) -> bool {
        if (!vt.is_var) return true;
        auto it = st.binding.find(vt.var);
        if (it != st.binding.end()) return it->second == value;
        st.binding[vt.var] = value;
        bound_here.push_back(vt.var);
        return true;
      };
      bool consistent = bind_pos(tp.s, t.s) && bind_pos(tp.p, t.p) &&
                        bind_pos(tp.o, t.o);
      if (consistent) {
        if (profile_) ++scan_actual_[patterns[i]];
        Result<bool> r =
            EvalBgpRec(patterns, filters, filter_done, i + 1, st, k);
        if (!r.ok()) {
          inner_status = r.status();
          keep_going = false;
        } else if (!*r) {
          keep_going = false;
        }
      }
      for (const std::string& v : bound_here) st.binding.erase(v);
      return keep_going;
    });
    undo_filters();
    SCISPARQL_RETURN_NOT_OK(inner_status);
    return keep_going;
  }

  /// Evaluates a property-path pattern over dictionary IDs (PathEvaluator)
  /// and binds its unbound endpoint variables — the only place a path's
  /// terms are materialized. Like TryEvalBgpIds, it pins the read snapshot
  /// before touching the dictionary or the delta, so every probe merges
  /// exactly the delta batches committed up to that epoch.
  ///
  /// Endpoints follow the BGP rule. A constant or bound value lowers
  /// through the dictionary, so a numeric end matches by exact value; a
  /// miss means no edge touches the node, though a zero-length path still
  /// connects it to itself (it gets a stand-in ID past the dictionary). An
  /// array end is an unbound end restricted by a residual Term::operator==
  /// check: it stands for the value-equal arrays among the graph's nodes.
  Result<bool> EvalPathPattern(
      const TriplePattern& tp,
      const std::vector<const TriplePattern*>& patterns,
      const std::vector<const ast::Expr*>& filters,
      std::vector<bool>* filter_done, size_t i, State& st, const Cont& k) {
    constexpr uint32_t kAny = PathEvaluator::kAny;
    const Graph& g = *st.graph;
    const TermDictionary& dict = g.dict();
    const uint64_t snapshot = g.SnapshotEpoch();
    DeltaIdRuns delta_runs;
    g.SnapshotDeltaIds(snapshot, &delta_runs);

    auto bound_value = [&](const VarOrTerm& vt) -> const Term* {
      if (!vt.is_var) return &vt.term;
      auto it = st.binding.find(vt.var);
      return it == st.binding.end() ? nullptr : &it->second;
    };
    const Term* ends[2] = {bound_value(tp.s), bound_value(tp.o)};
    std::optional<uint32_t> hits[2];
    for (int e = 0; e < 2; ++e) {
      if (ends[e] != nullptr && !ends[e]->IsArray()) {
        hits[e] = dict.Find(*ends[e]);
      }
    }
    // Read after the Finds, so every ID they returned lies below it; the
    // stand-ins for missed terms are numbered from it.
    const size_t dict_limit = dict.size();
    std::vector<Term> extras;
    uint32_t ids[2] = {kAny, kAny};
    for (int e = 0; e < 2; ++e) {
      if (ends[e] == nullptr || ends[e]->IsArray()) continue;
      if (hits[e].has_value()) {
        ids[e] = *hits[e];
      } else if (!extras.empty() && Term::Identical(extras[0], *ends[e])) {
        ids[e] = static_cast<uint32_t>(dict_limit);
      } else {
        ids[e] = static_cast<uint32_t>(dict_limit + extras.size());
        extras.push_back(*ends[e]);
      }
    }
    auto term_of = [&](uint32_t id) -> const Term& {
      return id < dict_limit ? dict.term(id) : extras[id - dict_limit];
    };

    std::function<Status()> interrupt;
    if (options_.query != nullptr) {
      interrupt = [this]() { return CheckInterrupt(); };
    }
    PathEvaluator eval(*tp.path, g, snapshot, &delta_runs,
                       options_.max_path_visits, std::move(interrupt),
                       &path_scratch_);

    std::vector<uint32_t> from[2] = {{ids[0]}, {ids[1]}};
    for (int e = 0; e < 2; ++e) {
      if (ends[e] == nullptr || !ends[e]->IsArray()) continue;
      from[e].clear();
      for (uint32_t n : eval.Universe()) {
        const Term& t = dict.term(n);
        if (t.IsArray() && t == *ends[e]) from[e].push_back(n);
      }
    }

    // Unbound endpoint variables bind through pre-inserted map cells
    // (Binding is node-based, so the iterators survive whatever the
    // continuation does to other keys).
    const bool s_free = tp.s.is_var && ends[0] == nullptr;
    const bool o_free = tp.o.is_var && ends[1] == nullptr;
    const bool same_var = s_free && o_free && tp.s.var == tp.o.var;
    const bool bind_o = o_free && !same_var;
    Binding::iterator s_cell, o_cell;
    if (s_free) s_cell = st.binding.emplace(tp.s.var, Term()).first;
    if (bind_o) o_cell = st.binding.emplace(tp.o.var, Term()).first;
    bool keep_going = true;
    Status inner_status = Status::OK();
    auto on_pair = [&](uint32_t sv, uint32_t ov) -> bool {
      if (profile_) ++scan_input_[patterns[i]];
      if (same_var && sv != ov) return true;
      if (s_free) s_cell->second = term_of(sv);
      if (bind_o) o_cell->second = term_of(ov);
      if (profile_) ++scan_actual_[patterns[i]];
      Result<bool> r = EvalBgpRec(patterns, filters, filter_done, i + 1, st, k);
      if (!r.ok()) {
        inner_status = r.status();
        keep_going = false;
      } else if (!*r) {
        keep_going = false;
      }
      return keep_going;
    };
    Status path_status = Status::OK();
    for (size_t a = 0; a < from[0].size() && keep_going && path_status.ok();
         ++a) {
      for (size_t b = 0; b < from[1].size() && keep_going && path_status.ok();
           ++b) {
        path_status = eval.Eval(from[0][a], from[1][b], on_pair);
      }
    }
    if (s_free) st.binding.erase(s_cell);
    if (bind_o) st.binding.erase(o_cell);
    SCISPARQL_RETURN_NOT_OK(path_status);
    SCISPARQL_RETURN_NOT_OK(inner_status);
    return keep_going;
  }

  // --- Expression context. ---

  EvalContext MakeCtx(State& st) {
    EvalContext ctx;
    ctx.registry = registry_;
    ctx.query = options_.query;
    ctx.eval_stats = profile_ ? &eval_counters_ : nullptr;
    ctx.lookup = [&st](const std::string& name) -> Term {
      auto it = st.binding.find(name);
      return it == st.binding.end() ? Term() : it->second;
    };
    ctx.eval_exists = [this, &st](const GraphPattern& gp) -> Result<bool> {
      bool found = false;
      State sub{st.graph, st.binding};
      SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                                 EvalGroup(gp, sub, [&found]() -> Result<bool> {
                                   found = true;
                                   return false;  // stop at first
                                 }));
      (void)ok;
      return found;
    };
    ctx.call_defined = [this](const ast::FunctionDef& def,
                              const std::vector<Term>& args) {
      return CallDefined(def, args);
    };
    return ctx;
  }

  // --- Query forms. ---

  Result<std::vector<Binding>> CollectSolutions(const SelectQuery& q,
                                                Binding initial) {
    const Graph* graph = &dataset_->default_graph();
    // FROM <g>: query the merge of the named graphs instead of the default.
    Graph merged;
    if (!q.from.empty()) {
      for (const std::string& iri : q.from) {
        const Graph* g = dataset_->FindNamed(iri);
        if (g != nullptr) {
          g->ForEach([&merged](const Triple& t) { merged.Add(t); });
        }
      }
      graph = &merged;
    }
    State st{graph, std::move(initial)};
    std::vector<Binding> out;
    SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                               EvalGroup(q.where, st, [&]() -> Result<bool> {
                                 out.push_back(st.binding);
                                 return true;
                               }));
    (void)ok;
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

  Result<Term> EvalAggregate(const ast::Expr& agg,
                             const std::vector<Binding>& rows,
                             const Graph* graph) {
    std::vector<Term> values;
    std::set<std::vector<Term>, RowLess> distinct;
    for (const Binding& row : rows) {
      SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
      if (agg.agg_arg == nullptr) {
        // COUNT(*).
        values.push_back(Term::Integer(1));
        continue;
      }
      State st{graph, row};
      EvalContext ctx = MakeCtx(st);
      Result<Term> v = EvalExpr(*agg.agg_arg, ctx);
      if (!v.ok() || v->IsUndef()) continue;  // errors are skipped
      if (agg.agg_distinct && !distinct.insert({*v}).second) continue;
      values.push_back(std::move(*v));
    }
    switch (agg.agg) {
      case ast::AggFunc::kCount:
        return Term::Integer(static_cast<int64_t>(values.size()));
      case ast::AggFunc::kSum:
      case ast::AggFunc::kAvg: {
        double sum = 0;
        bool all_int = true;
        for (const Term& v : values) {
          SCISPARQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
          if (v.kind() != Term::Kind::kInteger) all_int = false;
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
        Term best = values[0];
        for (size_t i = 1; i < values.size(); ++i) {
          int c = Term::Compare(values[i], best);
          if ((agg.agg == ast::AggFunc::kMin && c < 0) ||
              (agg.agg == ast::AggFunc::kMax && c > 0)) {
            best = values[i];
          }
        }
        return best;
      }
      case ast::AggFunc::kGroupConcat: {
        std::string out;
        for (size_t i = 0; i < values.size(); ++i) {
          if (i > 0) out += agg.agg_sep;
          if (values[i].kind() == Term::Kind::kString) {
            out += values[i].lexical();
          } else {
            out += values[i].ToString();
          }
        }
        return Term::String(std::move(out));
      }
      case ast::AggFunc::kSample:
        if (values.empty()) return Status::TypeError("SAMPLE of empty group");
        return values[0];
    }
    return Status::Internal("unknown aggregate");
  }

  Result<QueryResult> Select(const SelectQuery& q, Binding initial) {
    SCISPARQL_ASSIGN_OR_RETURN(std::vector<Binding> solutions,
                               CollectSolutions(q, std::move(initial)));
    std::vector<SelectQuery::Projection> projs = EffectiveProjections(q);
    const Graph* graph = &dataset_->default_graph();

    QueryResult result;
    for (const auto& p : projs) result.columns.push_back(p.name);

    struct OutRow {
      std::vector<Term> cells;
      std::vector<OrderKeyVal> order_keys;
    };
    std::vector<OutRow> rows;

    if (HasAggregates(q, projs)) {
      // Group solutions.
      std::map<std::vector<Term>, std::vector<Binding>, RowLess> groups;
      for (const Binding& sol : solutions) {
        std::vector<Term> key;
        State st{graph, sol};
        EvalContext ctx = MakeCtx(st);
        for (const auto& ge : q.group_by) {
          Result<Term> v = EvalExpr(*ge, ctx);
          key.push_back(v.ok() ? *v : Term());
        }
        groups[key].push_back(sol);
      }
      if (groups.empty() && q.group_by.empty()) {
        groups[{}] = {};  // single empty group: COUNT(*) = 0 etc.
      }
      // Aggregate nodes used anywhere in the output.
      std::vector<const ast::Expr*> agg_nodes;
      for (const auto& p : projs) CollectAggNodes(*p.expr, &agg_nodes);
      for (const auto& h : q.having) CollectAggNodes(*h, &agg_nodes);
      for (const auto& o : q.order_by) CollectAggNodes(*o.expr, &agg_nodes);

      for (const auto& [key, members] : groups) {
        std::map<const ast::Expr*, Term> agg_values;
        bool agg_error = false;
        for (const ast::Expr* node : agg_nodes) {
          Result<Term> v = EvalAggregate(*node, members, graph);
          if (v.ok()) {
            agg_values[node] = *v;
          } else {
            agg_error = true;  // leaves the aggregate undefined
          }
        }
        (void)agg_error;
        // Representative binding: first member, or group-key bindings.
        Binding rep = members.empty() ? Binding() : members.front();
        State st{graph, rep};
        EvalContext ctx = MakeCtx(st);
        ctx.agg_values = &agg_values;
        // HAVING.
        bool keep = true;
        for (const auto& h : q.having) {
          Result<Term> v = EvalExpr(*h, ctx);
          if (!v.ok()) {
            keep = false;
            break;
          }
          Result<bool> b = EffectiveBooleanValue(*v);
          if (!b.ok() || !*b) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        OutRow row;
        for (const auto& p : projs) {
          // A failing projection yields an unbound cell, same as an
          // OPTIONAL that did not match.
          Result<Term> v = EvalExpr(*p.expr, ctx);
          row.cells.push_back(v.ok() ? *v : Term());
        }
        for (const auto& o : q.order_by) {
          row.order_keys.push_back(EvalOrderKey(*o.expr, st, ctx));
        }
        rows.push_back(std::move(row));
      }
    } else {
      for (const Binding& sol : solutions) {
        SCISPARQL_RETURN_NOT_OK(CheckInterrupt());
        State st{graph, sol};
        EvalContext ctx = MakeCtx(st);
        OutRow row;
        for (const auto& p : projs) {
          Result<Term> v = EvalExpr(*p.expr, ctx);
          row.cells.push_back(v.ok() ? *v : Term());
        }
        for (const auto& o : q.order_by) {
          row.order_keys.push_back(EvalOrderKey(*o.expr, st, ctx));
        }
        rows.push_back(std::move(row));
      }
    }

    // ORDER BY.
    if (!q.order_by.empty()) {
      std::stable_sort(
          rows.begin(), rows.end(), [&q](const OutRow& a, const OutRow& b) {
            for (size_t i = 0; i < q.order_by.size(); ++i) {
              const OrderKeyVal& ka = a.order_keys[i];
              const OrderKeyVal& kb = b.order_keys[i];
              // Error'd keys form their own band after every non-error
              // key (ahead of them under DESC, like any comparison);
              // within the band the stable sort preserves input order.
              int c = ka.error != kb.error
                          ? (ka.error ? 1 : -1)
                          : CompareOrderKeys(ka.term, kb.term);
              if (c != 0) {
                return q.order_by[i].ascending ? c < 0 : c > 0;
              }
            }
            return false;
          });
    }

    // DISTINCT / REDUCED.
    if (q.distinct || q.reduced) {
      std::set<std::vector<Term>, RowLess> seen;
      std::vector<OutRow> unique;
      for (OutRow& row : rows) {
        if (seen.insert(row.cells).second) unique.push_back(std::move(row));
      }
      rows = std::move(unique);
    }

    // OFFSET / LIMIT.
    size_t begin = std::min(static_cast<size_t>(std::max<int64_t>(q.offset, 0)),
                            rows.size());
    size_t end = rows.size();
    if (q.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(q.limit));
    }
    for (size_t i = begin; i < end; ++i) {
      result.rows.push_back(std::move(rows[i].cells));
    }
    return result;
  }

  Result<bool> Ask(const SelectQuery& q) {
    const Graph* graph = &dataset_->default_graph();
    State st{graph, Binding()};
    bool found = false;
    SCISPARQL_ASSIGN_OR_RETURN(bool ok,
                               EvalGroup(q.where, st, [&found]() -> Result<bool> {
                                 found = true;
                                 return false;
                               }));
    (void)ok;
    return found;
  }

  Result<Graph> Construct(const SelectQuery& q) {
    SCISPARQL_ASSIGN_OR_RETURN(std::vector<Binding> solutions,
                               CollectSolutions(q, Binding()));
    Graph out;
    int blank_round = 0;
    for (const Binding& sol : solutions) {
      ++blank_round;
      std::map<std::string, Term> blank_map;
      bool ok = true;
      std::vector<Triple> staged;
      for (const TriplePattern& tp : q.construct_template) {
        auto instantiate = [&](const VarOrTerm& vt) -> Term {
          if (vt.is_var) {
            if (IsInternalVar(vt.var)) {
              // Collection / blank-list scaffolding in the template:
              // fresh blank per solution.
              auto [it, inserted] = blank_map.emplace(
                  vt.var, Term::Blank(vt.var + "_" +
                                      std::to_string(blank_round)));
              (void)inserted;
              return it->second;
            }
            auto it = sol.find(vt.var);
            return it == sol.end() ? Term() : it->second;
          }
          if (vt.term.IsBlank()) {
            auto [it, inserted] = blank_map.emplace(
                vt.term.blank_label(),
                Term::Blank(vt.term.blank_label() + "_" +
                            std::to_string(blank_round)));
            (void)inserted;
            return it->second;
          }
          return vt.term;
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
    // Collect the resources to describe.
    std::vector<Term> targets;
    auto add_target = [&targets](Term t) {
      for (const Term& existing : targets) {
        if (existing == t) return;
      }
      targets.push_back(std::move(t));
    };
    if (q.has_where) {
      SCISPARQL_ASSIGN_OR_RETURN(std::vector<Binding> solutions,
                                 CollectSolutions(q, Binding()));
      for (const Binding& sol : solutions) {
        for (const VarOrTerm& target : q.describe_targets) {
          if (target.is_var) {
            auto it = sol.find(target.var);
            if (it != sol.end()) add_target(it->second);
          } else {
            add_target(target.term);
          }
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
        Binding empty;
        SCISPARQL_RETURN_NOT_OK(InstantiateInto(op.insert_template, empty,
                                                &staging, true, target));
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
        SCISPARQL_ASSIGN_OR_RETURN(std::vector<Binding> solutions,
                                   CollectSolutions(probe, Binding()));
        // Stage deletions and insertions, then apply as one batch (so an
        // update never observes its own effects, per SPARQL Update
        // semantics, and readers see either none or all of it).
        std::vector<Triple> to_delete;
        std::vector<Triple> to_insert;
        for (const Binding& sol : solutions) {
          SCISPARQL_RETURN_NOT_OK(
              StageTemplate(op.delete_template, sol, &to_delete));
          SCISPARQL_RETURN_NOT_OK(
              StageTemplate(op.insert_template, sol, &to_insert));
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

  Status StageTemplate(const std::vector<TriplePattern>& tmpl,
                       const Binding& sol, std::vector<Triple>* out) {
    for (const TriplePattern& tp : tmpl) {
      auto instantiate = [&](const VarOrTerm& vt) -> Term {
        if (!vt.is_var) return vt.term;
        auto it = sol.find(vt.var);
        return it == sol.end() ? Term() : it->second;
      };
      Triple t{instantiate(tp.s), instantiate(tp.p), instantiate(tp.o)};
      if (t.s.IsUndef() || t.p.IsUndef() || t.o.IsUndef()) continue;
      out->push_back(std::move(t));
    }
    return Status::OK();
  }

  /// Instantiates a template into `target`. Fresh blank labels are drawn
  /// from `blank_namer` when given (the batch update path instantiates
  /// into a staging graph but needs labels unique in the real target);
  /// FreshBlankLabel is atomic, so this is safe under the shared lock.
  Status InstantiateInto(const std::vector<TriplePattern>& tmpl,
                         const Binding& sol, Graph* target, bool fresh_blanks,
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
          auto it = sol.find(vt.var);
          if (it == sol.end()) {
            return Status::InvalidArgument("unbound variable in data block");
          }
          return it->second;
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
    Binding initial;
    for (size_t i = 0; i < def.params.size(); ++i) {
      initial[def.params[i]] = args[i];
    }
    Result<QueryResult> result = Select(*def.body, std::move(initial));
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
    profile_ = true;
    Result<std::vector<Binding>> sols = CollectSolutions(q, Binding());
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
    State st{&dataset_->default_graph(), Binding()};
    size_t i = 0;
    // Same element order the evaluator uses (group-scoped FILTERs moved
    // past the elements that bind their variables).
    const std::vector<const PatternElement*>& elems = GroupView(gp);
    while (i < elems.size()) {
      if (elems[i]->kind == PatternElement::Kind::kTriple) {
        std::vector<const TriplePattern*> bgp;
        std::vector<const ast::Expr*> filters;
        size_t j = i;
        while (j < elems.size() &&
               (elems[j]->kind == PatternElement::Kind::kTriple ||
                (options_.push_filters &&
                 elems[j]->kind == PatternElement::Kind::kFilter))) {
          if (elems[j]->kind == PatternElement::Kind::kTriple) {
            bgp.push_back(&elems[j]->triple);
          } else {
            filters.push_back(elems[j]->expr.get());
          }
          ++j;
        }
        // Prefer the plan recorded during the profiled run (it saw the
        // real graph and bindings); fall back to planning statically for
        // pattern runs that never executed.
        const PlanRecord* rec = nullptr;
        auto it = plan_records_.find(bgp.empty() ? nullptr : bgp[0]);
        if (it != plan_records_.end()) rec = &it->second;
        OrderedBgp planned;
        if (rec == nullptr) planned = OrderBgp(bgp, filters, st);
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
        i = j;
        continue;
      }
      const PatternElement& e = *elems[i];
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
      ++i;
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
    /// Physical-operator labels per step when the ID-join path ran
    /// ("index-scan(SPO)", "merge-join(POS on ?x)", ...); empty when the
    /// BGP executed via scan-and-bind.
    std::vector<std::string> phys;
  };

  Dataset* dataset_;
  FunctionRegistry* registry_;
  const ExecOptions& options_;
  uint32_t interrupt_tick_ = 0;
  int call_depth_ = 0;
  std::map<const GraphPattern*, std::vector<Binding>> minus_cache_;
  std::map<const SelectQuery*, QueryResult> subselect_cache_;
  PathScratch path_scratch_;
  /// Evaluation-order views per group (node-stable map: EvalSteps holds
  /// references into the values across recursion).
  std::map<const GraphPattern*, std::vector<const PatternElement*>>
      group_views_;
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
