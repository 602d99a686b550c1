#include "oracle/oracle.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "engine/ssdm.h"
#include "sparql/eval.h"
#include "sparql/functions.h"
#include "sparql/parser.h"

namespace scisparql {
namespace oracle {
namespace {

using ast::GraphPattern;
using ast::PatternElement;
using ast::TriplePattern;
using ast::VarOrTerm;

/// Whether `a` and `b` are one BGP term under `sem`: a pattern constant
/// against a stored term, or two values of one variable. `within_bgp` says
/// both values were bound by the same BGP, where the array identity rule
/// applies; elsewhere arrays compare by value.
bool Same(const Term& a, const Term& b, Semantics sem, bool within_bgp) {
  if (a.IsArray() || b.IsArray()) {
    if (!a.IsArray() || !b.IsArray()) return false;
    if (within_bgp && sem.Has(Divergence::kArrayIdentityJoins)) {
      return a.array() == b.array();
    }
    return a == b;
  }
  if (a.IsNumeric() && b.IsNumeric()) {
    return SameValue(a, b) &&
           (sem.Has(Divergence::kExactValueNumerics) || a.kind() == b.kind());
  }
  return a == b;
}

// ---------------------------------------------------------------------------
// Property paths: fixed points over the graph's nodes.
// ---------------------------------------------------------------------------

/// The triples' nodes (subjects and objects) and their edges.
struct NodeGraph {
  struct Edge {
    int s;
    Term p;
    int o;
  };
  std::vector<Term> nodes;
  std::vector<Edge> edges;
};

/// The name of `t`'s node under `sem`: arrays by stored object; numerics
/// by exact value (SameValue), and by kind too unless `sem` adopts
/// exact-value numerics; every other term by its kind and text.
std::string NodeKey(const Term& t, Semantics sem) {
  char buf[64];
  if (t.IsArray()) {
    std::snprintf(buf, sizeof(buf), "a%p",
                  static_cast<const void*>(t.array().get()));
    return buf;
  }
  if (t.IsNumeric()) {
    std::string key = sem.Has(Divergence::kExactValueNumerics) ? "n"
                      : t.kind() == Term::Kind::kInteger      ? "i"
                                                               : "d";
    const std::string text = IntegerText(t);
    if (!text.empty()) return key + text;
    if (std::isnan(t.dbl())) return key + "nan";
    std::snprintf(buf, sizeof(buf), "%a", t.dbl());
    return key + buf;
  }
  return std::to_string(static_cast<int>(t.kind())) + t.ToString();
}

NodeGraph BuildNodeGraph(const Triples& triples, Semantics sem) {
  NodeGraph ng;
  std::map<std::string, int> index;
  auto id = [&](const Term& t) {
    const int next = static_cast<int>(ng.nodes.size());
    const int n = index.emplace(NodeKey(t, sem), next).first->second;
    if (n == next) ng.nodes.push_back(t);
    return n;
  };
  triples.Candidates(Term(), Term(), Term(), [&](const Triple& t) {
    const int s = id(t.s);
    ng.edges.push_back({s, t.p, id(t.o)});
  });
  return ng;
}

using Pairs = std::set<std::pair<int, int>>;

Pairs Compose(const Pairs& x, const Pairs& y) {
  Pairs out;
  for (const auto& [s, mid] : x) {
    for (auto it = y.lower_bound({mid, INT_MIN});
         it != y.end() && it->first == mid; ++it) {
      out.emplace(s, it->second);
    }
  }
  return out;
}

/// The pairs a path connects, from the SPARQL 1.1 path semantics: a link
/// is its set of edges, `^` the converse, `/` composition, `|` union, and
/// the closures least fixed points. Zero-length paths hold on every node.
Pairs PathPairs(const ast::Path& p, const NodeGraph& ng) {
  using K = ast::Path::Kind;
  auto identity = [&] {
    Pairs id;
    for (int n = 0; n < static_cast<int>(ng.nodes.size()); ++n) id.emplace(n, n);
    return id;
  };
  auto plus = [](const Pairs& step) {
    Pairs reach = step;
    for (;;) {
      Pairs more = reach;
      for (const auto& pr : Compose(reach, step)) more.insert(pr);
      if (more.size() == reach.size()) return reach;
      reach = std::move(more);
    }
  };
  auto named = [](const std::vector<std::string>& iris, const Term& pred) {
    return pred.IsIri() &&
           std::find(iris.begin(), iris.end(), pred.iri()) != iris.end();
  };
  Pairs out;
  switch (p.kind) {
    case K::kLink:
      for (const NodeGraph::Edge& e : ng.edges) {
        if (e.p.IsIri() && e.p.iri() == p.iri) out.emplace(e.s, e.o);
      }
      return out;
    case K::kInverse:
      for (const auto& [s, o] : PathPairs(*p.a, ng)) out.emplace(o, s);
      return out;
    case K::kSequence:
      return Compose(PathPairs(*p.a, ng), PathPairs(*p.b, ng));
    case K::kAlternative:
      out = PathPairs(*p.a, ng);
      for (const auto& pr : PathPairs(*p.b, ng)) out.insert(pr);
      return out;
    case K::kZeroOrOne:
      out = PathPairs(*p.a, ng);
      for (const auto& pr : identity()) out.insert(pr);
      return out;
    case K::kZeroOrMore:
      out = plus(PathPairs(*p.a, ng));
      for (const auto& pr : identity()) out.insert(pr);
      return out;
    case K::kOneOrMore:
      return plus(PathPairs(*p.a, ng));
    case K::kNegatedSet:
      // !(p|^q) is !(p) | ^!(q); each half only when the set names it.
      for (const NodeGraph::Edge& e : ng.edges) {
        if (!p.negated.empty() && !named(p.negated, e.p)) out.emplace(e.s, e.o);
        if (!p.negated_inverse.empty() && !named(p.negated_inverse, e.p)) {
          out.emplace(e.o, e.s);
        }
      }
      return out;
  }
  return out;
}

/// Whether the path admits a zero-length match.
bool Nullable(const ast::Path& p) {
  using K = ast::Path::Kind;
  switch (p.kind) {
    case K::kZeroOrOne:
    case K::kZeroOrMore:
      return true;
    case K::kInverse:
    case K::kOneOrMore:
      return Nullable(*p.a);
    case K::kSequence:
      return Nullable(*p.a) && Nullable(*p.b);
    case K::kAlternative:
      return Nullable(*p.a) || Nullable(*p.b);
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// The BGP leaf.
// ---------------------------------------------------------------------------

class BgpMatcher {
 public:
  BgpMatcher(const Triples& triples,
             const std::vector<const TriplePattern*>& patterns, Semantics sem,
             const Mapping& seed)
      : triples_(triples),
        patterns_(patterns),
        sem_(sem),
        seed_(seed),
        mu_(seed) {}

  std::vector<Mapping> Run() {
    Extend(0);
    return std::move(out_);
  }

 private:
  /// Binds `vt` to `value` or checks it against its binding; appends a
  /// variable it binds to `bound_here`.
  bool Bind(const VarOrTerm& vt, const Term& value,
            std::vector<std::string>* bound_here) {
    if (!vt.is_var) return Same(vt.term, value, sem_, false);
    auto it = mu_.find(vt.var);
    if (it != mu_.end()) {
      return Same(it->second, value, sem_, seed_.count(vt.var) == 0);
    }
    mu_.emplace(vt.var, value);
    bound_here->push_back(vt.var);
    return true;
  }

  const Term& Resolve(const VarOrTerm& vt) const {
    static const Term kUnbound;
    if (!vt.is_var) return vt.term;
    auto it = mu_.find(vt.var);
    return it == mu_.end() ? kUnbound : it->second;
  }

  void Extend(size_t i) {
    if (i == patterns_.size()) {
      out_.push_back(mu_);
      return;
    }
    const TriplePattern& tp = *patterns_[i];
    if (tp.path != nullptr) {
      ExtendPath(i);
      return;
    }
    // The candidates are a superset; Bind applies the oracle's identity.
    triples_.Candidates(Resolve(tp.s), Resolve(tp.p), Resolve(tp.o),
                        [&](const Triple& t) {
                          std::vector<std::string> bound_here;
                          if (Bind(tp.s, t.s, &bound_here) &&
                              Bind(tp.p, t.p, &bound_here) &&
                              Bind(tp.o, t.o, &bound_here)) {
                            Extend(i + 1);
                          }
                          for (const std::string& v : bound_here) {
                            mu_.erase(v);
                          }
                        });
  }

  /// A path pattern: its pairs over the graph's nodes, filtered by the
  /// bound ends. A bound end matches the nodes equal to it (arrays by
  /// value); one that matches none still reaches itself by the empty path,
  /// unless it is an array, which stands only for the stored arrays equal
  /// to it.
  void ExtendPath(size_t i) {
    const TriplePattern& tp = *patterns_[i];
    if (!nodes_.has_value()) nodes_ = BuildNodeGraph(triples_, sem_);
    auto cached = pairs_.find(i);
    if (cached == pairs_.end()) {
      cached = pairs_.emplace(i, PathPairs(*tp.path, *nodes_)).first;
    }
    const Term& s_val = Resolve(tp.s);
    const Term& o_val = Resolve(tp.o);
    auto matching = [&](const Term& v) {
      std::set<int> out;
      if (v.IsUndef()) return out;
      for (int n = 0; n < static_cast<int>(nodes_->nodes.size()); ++n) {
        if (Same(v, nodes_->nodes[static_cast<size_t>(n)], sem_, false)) {
          out.insert(n);
        }
      }
      return out;
    };
    const std::set<int> s_nodes = matching(s_val);
    const std::set<int> o_nodes = matching(o_val);
    const bool same_var =
        tp.s.is_var && tp.o.is_var && tp.s.var == tp.o.var;
    auto emit = [&](const Term& sv, const Term& ov) {
      std::vector<std::string> bound_here;
      if (tp.s.is_var && s_val.IsUndef()) {
        mu_.emplace(tp.s.var, sv);
        bound_here.push_back(tp.s.var);
      }
      if (tp.o.is_var && o_val.IsUndef() && !same_var) {
        mu_.emplace(tp.o.var, ov);
        bound_here.push_back(tp.o.var);
      }
      Extend(i + 1);
      for (const std::string& v : bound_here) mu_.erase(v);
    };
    for (const auto& [a, b] : cached->second) {
      if (!s_val.IsUndef() && s_nodes.count(a) == 0) continue;
      if (!o_val.IsUndef() && o_nodes.count(b) == 0) continue;
      if (same_var && a != b) continue;
      emit(nodes_->nodes[static_cast<size_t>(a)],
           nodes_->nodes[static_cast<size_t>(b)]);
    }
    if (!Nullable(*tp.path)) return;
    if (!s_val.IsUndef() && s_nodes.empty() && !s_val.IsArray()) {
      if (o_val.IsUndef() || Same(s_val, o_val, sem_, false)) {
        emit(s_val, s_val);
      }
    } else if (s_val.IsUndef() && !o_val.IsUndef() && o_nodes.empty() &&
               !o_val.IsArray()) {
      emit(o_val, o_val);
    }
  }

  const Triples& triples_;
  const std::vector<const TriplePattern*>& patterns_;
  Semantics sem_;
  const Mapping& seed_;
  Mapping mu_;
  std::vector<Mapping> out_;
  std::optional<NodeGraph> nodes_;
  std::map<size_t, Pairs> pairs_;
};

// ---------------------------------------------------------------------------
// The compositional evaluator.
// ---------------------------------------------------------------------------

Status Unimplemented(const std::string& what) {
  return Status::Unsupported("oracle: " + what + " is not implemented");
}

/// `aggregates`: whether the expression may hold aggregates (projections,
/// HAVING and ORDER BY may; an aggregate's argument may not).
Status CheckExpr(const ast::Expr& e, bool aggregates = false) {
  using K = ast::Expr::Kind;
  if (e.kind == K::kAggregate) {
    if (!aggregates || e.agg == ast::AggFunc::kGroupConcat) {
      return Unimplemented("this aggregate");
    }
    return e.agg_arg == nullptr ? Status::OK() : CheckExpr(*e.agg_arg);
  }
  if (e.kind == K::kExists) return Unimplemented("EXISTS");
  if (e.kind == K::kCall && !sparql::IsBuiltinFunction(e.fn)) {
    return Unimplemented("function " + e.fn);
  }
  for (const ast::Expr* c : {e.left.get(), e.right.get(), e.base.get()}) {
    if (c != nullptr) SCISPARQL_RETURN_NOT_OK(CheckExpr(*c, aggregates));
  }
  for (const auto& a : e.args) {
    SCISPARQL_RETURN_NOT_OK(CheckExpr(*a, aggregates));
  }
  for (const auto& s : e.subscripts) {
    for (const ast::Expr* c :
         {s.index.get(), s.lo.get(), s.hi.get(), s.stride.get()}) {
      if (c != nullptr) SCISPARQL_RETURN_NOT_OK(CheckExpr(*c));
    }
  }
  return Status::OK();
}

/// The aggregates of an expression, outermost first.
void CollectAggregates(const ast::Expr& e, std::vector<const ast::Expr*>* out) {
  if (e.kind == ast::Expr::Kind::kAggregate) {
    out->push_back(&e);
    return;
  }
  for (const ast::Expr* c : {e.left.get(), e.right.get(), e.base.get()}) {
    if (c != nullptr) CollectAggregates(*c, out);
  }
  for (const auto& a : e.args) CollectAggregates(*a, out);
}

Status CheckPattern(const GraphPattern& gp) {
  using K = PatternElement::Kind;
  for (const PatternElement& e : gp.elements) {
    switch (e.kind) {
      case K::kTriple:
        break;
      case K::kFilter:
      case K::kBind:
        SCISPARQL_RETURN_NOT_OK(CheckExpr(*e.expr));
        break;
      case K::kOptional:
      case K::kGroup:
      case K::kMinus:
        SCISPARQL_RETURN_NOT_OK(CheckPattern(*e.child));
        break;
      case K::kUnion:
        for (const auto& b : e.branches) {
          SCISPARQL_RETURN_NOT_OK(CheckPattern(*b));
        }
        break;
      default:
        return Unimplemented("GRAPH, VALUES or a sub-select");
    }
  }
  return Status::OK();
}

Status CheckQuery(const ast::SelectQuery& q) {
  using F = ast::SelectQuery::Form;
  if (q.form != F::kSelect && q.form != F::kAsk) {
    return Unimplemented("CONSTRUCT or DESCRIBE");
  }
  if (!q.from.empty() || !q.from_named.empty()) return Unimplemented("FROM");
  if (q.reduced) return Unimplemented("REDUCED");
  for (const auto& g : q.group_by) SCISPARQL_RETURN_NOT_OK(CheckExpr(*g));
  for (const auto& h : q.having) SCISPARQL_RETURN_NOT_OK(CheckExpr(*h, true));
  for (const auto& p : q.projections) {
    SCISPARQL_RETURN_NOT_OK(CheckExpr(*p.expr, true));
  }
  for (const auto& o : q.order_by) {
    SCISPARQL_RETURN_NOT_OK(CheckExpr(*o.expr, true));
  }
  return CheckPattern(q.where);
}

/// The user-visible variables of a pattern in first-appearance order (what
/// SELECT * projects).
void CollectVars(const GraphPattern& gp, std::vector<std::string>* out) {
  auto add = [out](const std::string& v) {
    if (!v.empty() && v[0] != '.' &&
        std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
  };
  for (const PatternElement& e : gp.elements) {
    switch (e.kind) {
      case PatternElement::Kind::kTriple:
        for (const VarOrTerm* vt : {&e.triple.s, &e.triple.p, &e.triple.o}) {
          if (vt->is_var) add(vt->var);
        }
        break;
      case PatternElement::Kind::kBind:
        add(e.bind_var);
        break;
      case PatternElement::Kind::kOptional:
      case PatternElement::Kind::kGroup:
        CollectVars(*e.child, out);
        break;
      case PatternElement::Kind::kUnion:
        for (const auto& b : e.branches) CollectVars(*b, out);
        break;
      default:
        break;
    }
  }
}

class Evaluator {
 public:
  Evaluator(const Triples& triples, Semantics sem)
      : triples_(triples), sem_(sem) {}

  /// The mappings of a group extending `seed` (the empty mapping unless
  /// operational evaluation passes one in), with its FILTERs applied.
  Result<std::vector<Mapping>> Group(const GraphPattern& gp,
                                     const Mapping& seed) {
    std::vector<Mapping> omega;
    std::vector<const ast::Expr*> filters;
    SCISPARQL_RETURN_NOT_OK(Unfiltered(gp, seed, &omega, &filters));
    std::vector<Mapping> out;
    for (Mapping& m : omega) {
      if (PassesAll(filters, m)) out.push_back(std::move(m));
    }
    return out;
  }

  /// `aggs` holds the group's aggregate values (grouped queries only).
  Result<Term> Eval(const ast::Expr& e, const Mapping& m,
                    const std::map<const ast::Expr*, Term>* aggs =
                        nullptr) const {
    sparql::EvalContext ctx;
    ctx.lookup_env = &m;
    ctx.lookup = [](const void* env, const std::string& name) -> const Term* {
      const Mapping& vars = *static_cast<const Mapping*>(env);
      auto it = vars.find(name);
      return it == vars.end() ? nullptr : &it->second;
    };
    ctx.agg_values = aggs;
    return sparql::EvalExpr(e, ctx);
  }

  /// One aggregate over a group (SPARQL 1.1, 18.5.1): the argument's
  /// values, errors and unbound skipped, DISTINCT by the oracle's
  /// identity. An aggregate with no value to give (AVG, MIN, MAX or SAMPLE
  /// of no values, SUM over a non-numeric) is an error, so the expression
  /// holding it is too. SAMPLE gives the first member's value.
  Result<Term> Aggregate(const ast::Expr& agg,
                         const std::vector<const Mapping*>& group) const {
    std::vector<Term> values;
    for (const Mapping* m : group) {
      if (agg.agg_arg == nullptr) {  // COUNT(*)
        values.push_back(Term::Integer(1));
        continue;
      }
      Result<Term> v = Eval(*agg.agg_arg, *m);
      if (!v.ok() || v->IsUndef()) continue;
      if (agg.agg_distinct &&
          std::any_of(values.begin(), values.end(), [&](const Term& x) {
            return Same(x, *v, sem_, false);
          })) {
        continue;
      }
      values.push_back(std::move(*v));
    }
    const int64_t n = static_cast<int64_t>(values.size());
    switch (agg.agg) {
      case ast::AggFunc::kCount:
        return Term::Integer(n);
      case ast::AggFunc::kSum:
      case ast::AggFunc::kAvg: {
        bool integers = true;
        int64_t isum = 0;
        double dsum = 0;
        for (const Term& v : values) {
          if (!v.IsNumeric()) return Status::TypeError("SUM of a non-number");
          if (v.kind() == Term::Kind::kInteger) {
            isum += v.integer();
            dsum += static_cast<double>(v.integer());
          } else {
            integers = false;
            dsum += v.dbl();
          }
        }
        if (agg.agg == ast::AggFunc::kSum) {
          return integers ? Term::Integer(isum) : Term::Double(dsum);
        }
        if (n == 0) return Status::TypeError("AVG of no values");
        return Term::Double(dsum / static_cast<double>(n));
      }
      case ast::AggFunc::kMin:
      case ast::AggFunc::kMax: {
        if (n == 0) return Status::TypeError("MIN/MAX of no values");
        const bool min = agg.agg == ast::AggFunc::kMin;
        return *std::min_element(
            values.begin(), values.end(), [min](const Term& a, const Term& b) {
              const int c = Term::Compare(a, b);
              return min ? c < 0 : c > 0;
            });
      }
      case ast::AggFunc::kSample:
        if (n == 0) return Status::TypeError("SAMPLE of no values");
        return values[0];
      default:
        return Unimplemented("this aggregate");
    }
  }

 private:
  /// FILTER: an evaluation error or a value without an effective boolean
  /// value rejects the mapping.
  bool PassesAll(const std::vector<const ast::Expr*>& filters,
                 const Mapping& m) const {
    for (const ast::Expr* f : filters) {
      Result<Term> v = Eval(*f, m);
      if (!v.ok()) return false;
      Result<bool> b = sparql::EffectiveBooleanValue(*v);
      if (!b.ok() || !*b) return false;
    }
    return true;
  }

  bool Compatible(const Mapping& a, const Mapping& b) const {
    for (const auto& [var, value] : b) {
      auto it = a.find(var);
      if (it != a.end() && !Same(it->second, value, sem_, false)) return false;
    }
    return true;
  }

  static Mapping Merge(const Mapping& a, const Mapping& b) {
    Mapping m = a;
    m.insert(b.begin(), b.end());
    return m;
  }

  std::vector<Mapping> Join(const std::vector<Mapping>& x,
                            const std::vector<Mapping>& y) const {
    std::vector<Mapping> out;
    for (const Mapping& a : x) {
      for (const Mapping& b : y) {
        if (Compatible(a, b)) out.push_back(Merge(a, b));
      }
    }
    return out;
  }

  bool Operational() const {
    return sem_.Has(Divergence::kOperationalOptional);
  }

  /// Runs `sub` once per mapping of `omega`, seeded with it (operational),
  /// or once from the empty mapping and joins (compositional).
  Result<std::vector<Mapping>> JoinWith(
      const std::vector<Mapping>& omega,
      const std::function<Result<std::vector<Mapping>>(const Mapping&)>& sub) {
    if (!Operational()) {
      SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> right, sub(Mapping()));
      return Join(omega, right);
    }
    std::vector<Mapping> out;
    for (const Mapping& m : omega) {
      SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> ext, sub(m));
      for (Mapping& e : ext) out.push_back(std::move(e));
    }
    return out;
  }

  /// The group's elements joined left to right, and its FILTERs, which
  /// scope over the whole group.
  Status Unfiltered(const GraphPattern& gp, const Mapping& seed,
                    std::vector<Mapping>* omega,
                    std::vector<const ast::Expr*>* filters) {
    using K = PatternElement::Kind;
    *omega = {seed};
    const auto& elems = gp.elements;
    for (size_t i = 0; i < elems.size();) {
      const PatternElement& e = elems[i];
      if (e.kind == K::kTriple) {
        std::vector<const TriplePattern*> bgp;
        for (; i < elems.size() && elems[i].kind == K::kTriple; ++i) {
          bgp.push_back(&elems[i].triple);
        }
        SCISPARQL_ASSIGN_OR_RETURN(
            *omega, JoinWith(*omega, [&](const Mapping& m) {
              return Result<std::vector<Mapping>>(
                  MatchBgp(triples_, bgp, sem_, m));
            }));
        continue;
      }
      ++i;
      switch (e.kind) {
        case K::kFilter:
          filters->push_back(e.expr.get());
          break;
        case K::kBind: {
          for (Mapping& m : *omega) {
            if (m.count(e.bind_var) > 0) {
              return Status::InvalidArgument("BIND to already-bound variable ?" +
                                             e.bind_var);
            }
            Result<Term> v = Eval(*e.expr, m);
            if (v.ok() && !v->IsUndef()) m.emplace(e.bind_var, std::move(*v));
          }
          break;
        }
        case K::kGroup: {
          SCISPARQL_ASSIGN_OR_RETURN(
              *omega, JoinWith(*omega, [&](const Mapping& m) {
                return Group(*e.child, m);
              }));
          break;
        }
        case K::kUnion: {
          SCISPARQL_ASSIGN_OR_RETURN(
              *omega,
              JoinWith(*omega,
                       [&](const Mapping& m) -> Result<std::vector<Mapping>> {
                         std::vector<Mapping> all;
                         for (const auto& b : e.branches) {
                           SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> r,
                                                      Group(*b, m));
                           for (Mapping& x : r) all.push_back(std::move(x));
                         }
                         return all;
                       }));
          break;
        }
        case K::kOptional:
          SCISPARQL_RETURN_NOT_OK(Optional(*e.child, omega));
          break;
        case K::kMinus: {
          // Evaluated on its own in either semantics; drops each mapping
          // that some right mapping shares a variable with and is
          // compatible with.
          SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> right,
                                     Group(*e.child, Mapping()));
          std::vector<Mapping> kept;
          for (Mapping& m : *omega) {
            const bool dropped =
                std::any_of(right.begin(), right.end(), [&](const Mapping& r) {
                  const bool shares = std::any_of(
                      r.begin(), r.end(),
                      [&](const auto& kv) { return m.count(kv.first) > 0; });
                  return shares && Compatible(m, r);
                });
            if (!dropped) kept.push_back(std::move(m));
          }
          *omega = std::move(kept);
          break;
        }
        default:
          return Unimplemented("this pattern element");
      }
    }
    return Status::OK();
  }

  /// OPTIONAL. Operational: the arm runs once per mapping, seeded with it,
  /// and a mapping it cannot extend survives alone. Compositional: LeftJoin
  /// with the arm's own FILTERs applied to the merged mappings.
  Status Optional(const GraphPattern& arm, std::vector<Mapping>* omega) {
    std::vector<Mapping> out;
    if (Operational()) {
      for (const Mapping& m : *omega) {
        SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> ext, Group(arm, m));
        if (ext.empty()) out.push_back(m);
        for (Mapping& x : ext) out.push_back(std::move(x));
      }
    } else {
      std::vector<Mapping> right;
      std::vector<const ast::Expr*> arm_filters;
      SCISPARQL_RETURN_NOT_OK(Unfiltered(arm, Mapping(), &right, &arm_filters));
      for (const Mapping& m : *omega) {
        bool extended = false;
        for (const Mapping& r : right) {
          if (!Compatible(m, r)) continue;
          Mapping merged = Merge(m, r);
          if (!PassesAll(arm_filters, merged)) continue;
          out.push_back(std::move(merged));
          extended = true;
        }
        if (!extended) out.push_back(m);
      }
    }
    *omega = std::move(out);
    return Status::OK();
  }

  const Triples& triples_;
  Semantics sem_;
};

}  // namespace

std::string IntegerText(const Term& t) {
  if (t.kind() == Term::Kind::kInteger) return std::to_string(t.integer());
  if (t.kind() != Term::Kind::kDouble) return "";
  const double d = t.dbl();
  if (!std::isfinite(d) || d != std::trunc(d)) return "";
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.0f", d == 0 ? 0.0 : d);
  return buf;
}

bool SameValue(const Term& a, const Term& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    if (a.kind() == Term::Kind::kDouble && b.kind() == Term::Kind::kDouble) {
      return a.dbl() == b.dbl() || (std::isnan(a.dbl()) && std::isnan(b.dbl()));
    }
    const std::string x = IntegerText(a);
    return !x.empty() && x == IntegerText(b);
  }
  return a == b;
}

void Triples::Candidates(const Term& s, const Term& p, const Term& o,
                         const std::function<void(const Triple&)>& fn) const {
  if (list_ != nullptr) {
    for (const Triple& t : *list_) fn(t);
    return;
  }
  auto key = [](const Term& t) { return t.IsIri() ? t : Term(); };
  graph_->Match(key(s), key(p), key(o), [&fn](const Triple& t) {
    fn(t);
    return true;
  });
}

std::vector<Mapping> MatchBgp(
    const Triples& triples,
    const std::vector<const ast::TriplePattern*>& patterns, Semantics sem,
    const Mapping& seed) {
  return BgpMatcher(triples, patterns, sem, seed).Run();
}

Result<Answer> Evaluate(const Triples& triples, const ast::SelectQuery& q,
                        Semantics sem) {
  SCISPARQL_RETURN_NOT_OK(CheckQuery(q));
  Evaluator ev(triples, sem);
  SCISPARQL_ASSIGN_OR_RETURN(std::vector<Mapping> solutions,
                             ev.Group(q.where, Mapping()));
  Answer answer;
  if (q.form == ast::SelectQuery::Form::kAsk) {
    answer.ask = !solutions.empty();
    return answer;
  }

  std::vector<std::pair<std::string, const ast::Expr*>> projections;
  std::vector<ast::ExprPtr> star;
  if (q.select_all) {
    std::vector<std::string> vars;
    CollectVars(q.where, &vars);
    for (const std::string& v : vars) {
      star.push_back(ast::Expr::MakeVar(v));
      projections.emplace_back(v, star.back().get());
    }
  } else {
    for (const auto& p : q.projections) {
      projections.emplace_back(p.name, p.expr.get());
    }
  }
  for (const auto& p : projections) answer.columns.push_back(p.first);

  // Grouping (SPARQL 1.1, 18.5): the solutions partitioned by the GROUP BY
  // keys under the oracle's identity (a key that fails to evaluate is
  // unbound), one group of all solutions when there are aggregates but no
  // GROUP BY. Each group answers through its aggregates and its keys: a
  // key that is a plain variable stays bound to the group's value.
  struct Item {
    Mapping m;
    std::map<const ast::Expr*, Term> aggs;
  };
  std::vector<Item> items;
  std::vector<const ast::Expr*> aggs;
  for (const auto& p : projections) CollectAggregates(*p.second, &aggs);
  for (const auto& h : q.having) CollectAggregates(*h, &aggs);
  for (const auto& o : q.order_by) CollectAggregates(*o.expr, &aggs);
  if (q.group_by.empty() && aggs.empty()) {
    for (Mapping& m : solutions) items.push_back({std::move(m), {}});
  } else {
    std::vector<std::vector<Term>> keys;
    std::vector<std::vector<const Mapping*>> groups;
    for (const Mapping& m : solutions) {
      std::vector<Term> key;
      for (const auto& g : q.group_by) {
        Result<Term> k = ev.Eval(*g, m);
        key.push_back(k.ok() ? *k : Term());
      }
      size_t at = 0;
      for (; at < keys.size(); ++at) {
        bool same = true;
        for (size_t x = 0; x < key.size() && same; ++x) {
          same = Same(keys[at][x], key[x], sem, false);
        }
        if (same) break;
      }
      if (at == keys.size()) {
        keys.push_back(key);
        groups.emplace_back();
      }
      groups[at].push_back(&m);
    }
    if (groups.empty() && q.group_by.empty()) {
      keys.emplace_back();
      groups.emplace_back();
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      Item item;
      for (size_t x = 0; x < q.group_by.size(); ++x) {
        const ast::Expr& k = *q.group_by[x];
        if (k.kind == ast::Expr::Kind::kVar && !keys[g][x].IsUndef()) {
          item.m[k.var] = keys[g][x];
        }
      }
      for (const ast::Expr* a : aggs) {
        Result<Term> v = ev.Aggregate(*a, groups[g]);
        if (v.ok()) item.aggs[a] = std::move(*v);
      }
      bool keep = true;
      for (const auto& h : q.having) {
        Result<Term> v = ev.Eval(*h, item.m, &item.aggs);
        Result<bool> b =
            v.ok() ? sparql::EffectiveBooleanValue(*v) : Result<bool>(false);
        keep = keep && b.ok() && *b;
      }
      if (keep) items.push_back(std::move(item));
    }
  }

  // ORDER BY (a key that fails to evaluate sorts as unbound, lowest), then
  // projection (a failing expression leaves its cell unbound), DISTINCT,
  // OFFSET and LIMIT.
  struct Row {
    std::vector<Term> keys;
    std::vector<Term> cells;
  };
  std::vector<Row> rows;
  for (const Item& item : items) {
    Row row;
    for (const auto& o : q.order_by) {
      Result<Term> k = ev.Eval(*o.expr, item.m, &item.aggs);
      row.keys.push_back(k.ok() ? *k : Term());
    }
    for (const auto& p : projections) {
      Result<Term> v = ev.Eval(*p.second, item.m, &item.aggs);
      row.cells.push_back(v.ok() ? *v : Term());
    }
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(), [&q](const Row& a, const Row& b) {
    for (size_t i = 0; i < q.order_by.size(); ++i) {
      const int c = Term::Compare(a.keys[i], b.keys[i]);
      if (c != 0) return q.order_by[i].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  if (q.distinct) {
    auto same_row = [sem](const Row& a, const Row& b) {
      for (size_t c = 0; c < a.cells.size(); ++c) {
        if (!Same(a.cells[c], b.cells[c], sem, false)) return false;
      }
      return true;
    };
    std::vector<Row> unique;
    for (Row& r : rows) {
      if (std::none_of(unique.begin(), unique.end(),
                       [&](const Row& u) { return same_row(u, r); })) {
        unique.push_back(std::move(r));
      }
    }
    rows = std::move(unique);
  }
  const size_t begin =
      std::min(static_cast<size_t>(std::max<int64_t>(q.offset, 0)), rows.size());
  size_t end = rows.size();
  if (q.limit >= 0) end = std::min(end, begin + static_cast<size_t>(q.limit));
  for (size_t i = begin; i < end; ++i) {
    answer.rows.push_back(std::move(rows[i].cells));
  }
  return answer;
}

Result<Answer> Evaluate(SSDM& db, const std::string& text, Semantics sem) {
  SCISPARQL_ASSIGN_OR_RETURN(std::shared_ptr<ast::SelectQuery> q,
                             sparql::ParseQuery(text, db.prefixes()));
  return Evaluate(db.dataset().default_graph(), *q, sem);
}

}  // namespace oracle
}  // namespace scisparql
