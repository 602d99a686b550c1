// Property test: the executor's BGP evaluation (with cost-based join
// ordering and sideways information passing) must agree with a brute-force
// reference evaluator on randomized graphs and patterns, with the
// optimizer both on and off. A second sweep mixes numeric forms (integers
// next to integral doubles, signed zeros, values around 2^53), query
// constants of the other numeric kind, array objects, and a pending delta
// next to the folded one. A third sweep checks property paths against a
// fixed-point oracle over the same identity rule.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "rdf/write_batch.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

using ast::TriplePattern;
using ast::VarOrTerm;

struct RandomCase {
  /// Mutations in order; the reference graph is their set-semantic result.
  std::vector<WriteBatch::Op> ops;
  std::vector<TriplePattern> patterns;
  std::vector<std::string> vars;  // in order of appearance
};

Term Node(int i) { return Term::Iri("http://n/" + std::to_string(i)); }
Term Pred(int i) { return Term::Iri("http://p/" + std::to_string(i)); }

void AddOp(RandomCase* rc, Term s, Term p, Term o) {
  rc->ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kAdd,
                                   Triple{std::move(s), std::move(p),
                                          std::move(o)}});
}

RandomCase MakeCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomCase rc;
  const int nodes = 8;
  const int preds = 3;
  const int triples = 25;
  for (int i = 0; i < triples; ++i) {
    AddOp(&rc, Node(rng() % nodes), Pred(rng() % preds),
          rng() % 3 == 0 ? Term::Integer(static_cast<int64_t>(rng() % 4))
                         : Node(rng() % nodes));
  }
  // 2-4 patterns over a small shared variable pool (join-heavy).
  int npatterns = 2 + rng() % 3;
  std::set<std::string> seen;
  auto pos = [&](bool allow_var) -> VarOrTerm {
    if (allow_var && rng() % 2 == 0) {
      std::string v = "v" + std::to_string(rng() % 3);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }
    return VarOrTerm::Const(Node(rng() % nodes));
  };
  for (int i = 0; i < npatterns; ++i) {
    TriplePattern tp;
    tp.s = pos(true);
    tp.p = rng() % 4 == 0 ? [&] {
      std::string v = "p" + std::to_string(rng() % 2);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }()
                          : VarOrTerm::Const(Pred(rng() % preds));
    tp.o = pos(true);
    rc.patterns.push_back(std::move(tp));
  }
  return rc;
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// Numerics whose forms collide under value identity, or nearly do: equal
/// values in both kinds, signed zeros, and the 2^53 neighbourhood where
/// widening an integer to double stops being exact.
std::vector<Term> NumericPool() {
  return {Term::Integer(0),          Term::Double(0.0),
          Term::Double(-0.0),        Term::Integer(2),
          Term::Double(2.0),         Term::Double(2.5),
          Term::Integer(kTwo53 - 1), Term::Double(kTwo53 - 1),
          Term::Integer(kTwo53),     Term::Double(kTwo53),
          Term::Integer(kTwo53 + 1), Term::Double(kTwo53 + 2)};
}

/// `t` in the other numeric kind (its nearest double, or its integer value
/// when integral); the value may differ past 2^53, which is the point.
Term OtherKind(const Term& t) {
  if (t.kind() == Term::Kind::kInteger) {
    return Term::Double(static_cast<double>(t.integer()));
  }
  const double d = t.dbl();
  if (d == std::trunc(d)) return Term::Integer(static_cast<int64_t>(d));
  return t;
}

Term NewArray(std::vector<int64_t> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Term::Array(ResidentArray::Make(
      NumericArray::FromInts({n}, std::move(values)).value()));
}

/// Mixed numeric forms and array objects as objects (two value-equal array
/// objects, one of them stored twice), query constants of the other
/// numeric kind, then removals spelled in another form of the stored
/// triple: numerics in the other kind, arrays as a fresh value-equal
/// object.
RandomCase MakeMixedCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomCase rc;
  const int nodes = 4;
  const int preds = 2;
  const int triples = 40;
  const std::vector<Term> numerics = NumericPool();
  const std::vector<Term> arrays = {NewArray({1, 2}), NewArray({1, 2}),
                                    NewArray({3})};
  for (int i = 0; i < triples; ++i) {
    const int pick = static_cast<int>(rng() % 20);
    Term o = pick < 12   ? numerics[rng() % numerics.size()]
             : pick < 16 ? arrays[rng() % arrays.size()]
                         : Node(rng() % nodes);
    AddOp(&rc, Node(rng() % nodes), Pred(rng() % preds), std::move(o));
  }
  for (int i = 0; i < 6; ++i) {
    Triple t = rc.ops[rng() % triples].t;
    if (t.o.IsNumeric() && Term::Identical(OtherKind(t.o), t.o)) {
      t.o = OtherKind(t.o);
    } else if (t.o.IsArray()) {
      t.o = Term::Array(ResidentArray::Make(*t.o.array()->Materialize()));
    }
    rc.ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kRemoveAll,
                                    std::move(t)});
  }
  // Subject variables (?s*) and value variables (?o*) in separate pools,
  // so most joins are on numeric or array values; a value variable in
  // subject position now and then chains through nodes.
  std::set<std::string> seen;
  auto var = [&](const std::string& name) {
    if (seen.insert(name).second) rc.vars.push_back(name);
    return VarOrTerm::Var(name);
  };
  const int npatterns = 2 + rng() % 3;
  for (int i = 0; i < npatterns; ++i) {
    TriplePattern tp;
    const int sp = static_cast<int>(rng() % 8);
    tp.s = sp < 6   ? var("s" + std::to_string(rng() % 2))
           : sp < 7 ? var("o" + std::to_string(rng() % 2))
                    : VarOrTerm::Const(Node(rng() % nodes));
    tp.p = rng() % 5 == 0 ? var("p0") : VarOrTerm::Const(Pred(rng() % preds));
    const int op = static_cast<int>(rng() % 10);
    tp.o = op < 6   ? var("o" + std::to_string(rng() % 2))
           : op < 9 ? VarOrTerm::Const(
                          OtherKind(numerics[rng() % numerics.size()]))
                    : VarOrTerm::Const(Node(rng() % nodes));
    rc.patterns.push_back(std::move(tp));
  }
  return rc;
}

/// Exact decimal rendering of a numeric's value when it is an integer
/// (printf prints integral doubles exactly), else "" for non-integers.
std::string IntegerText(const Term& t) {
  if (t.kind() == Term::Kind::kInteger) return std::to_string(t.integer());
  const double d = t.dbl();
  if (!std::isfinite(d) || d != std::trunc(d)) return "";
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.0f", d == 0 ? 0.0 : d);
  return buf;
}

/// BGP matching identity, written out independently of the engine:
/// numerics by exact mathematical value (never widening an integer to
/// double), arrays by stored object, everything else by operator==.
bool SameTerm(const Term& a, const Term& b) {
  if (a.IsArray() || b.IsArray()) {
    return a.IsArray() && b.IsArray() && a.array() == b.array();
  }
  if (a.IsNumeric() && b.IsNumeric()) {
    if (a.kind() == Term::Kind::kDouble && b.kind() == Term::Kind::kDouble) {
      return a.dbl() == b.dbl() || (std::isnan(a.dbl()) && std::isnan(b.dbl()));
    }
    const std::string x = IntegerText(a);
    return !x.empty() && x == IntegerText(b);
  }
  return a == b;
}

/// A row cell rendered so that identical terms render alike whatever
/// numeric form the engine returns.
std::string CellKey(const Term& t) {
  if (t.IsUndef()) return "UNDEF";
  if (t.IsNumeric()) {
    const std::string i = IntegerText(t);
    if (!i.empty()) return i;
  }
  return t.ToString();
}

/// The graph the ops leave behind under RDF set semantics: a triple
/// already present (numerics by value, arrays by elements) is not added
/// again, and a removal takes every copy.
std::vector<Triple> Content(const RandomCase& rc) {
  auto same = [](const Triple& a, const Triple& b) {
    auto eq = [](const Term& x, const Term& y) {
      return x.IsArray() && y.IsArray() ? x == y : SameTerm(x, y);
    };
    return eq(a.s, b.s) && eq(a.p, b.p) && eq(a.o, b.o);
  };
  std::vector<Triple> out;
  for (const WriteBatch::Op& op : rc.ops) {
    auto hit = [&](const Triple& t) { return same(t, op.t); };
    if (op.kind == WriteBatch::OpKind::kAdd) {
      if (std::none_of(out.begin(), out.end(), hit)) out.push_back(op.t);
    } else {
      out.erase(std::remove_if(out.begin(), out.end(), hit), out.end());
    }
  }
  return out;
}

/// Brute force: try every combination of triples for the patterns (one
/// pattern at a time, abandoning a combination at its first inconsistent
/// pattern) and keep consistent assignments.
std::set<std::vector<std::string>> Reference(const RandomCase& rc) {
  const std::vector<Triple> all = Content(rc);
  std::set<std::vector<std::string>> results;
  std::map<std::string, Term> binding;
  std::function<void(size_t)> extend = [&](size_t i) {
    if (i == rc.patterns.size()) {
      std::vector<std::string> row;
      for (const std::string& v : rc.vars) {
        auto it = binding.find(v);
        row.push_back(it == binding.end() ? "UNDEF" : CellKey(it->second));
      }
      results.insert(std::move(row));
      return;
    }
    const TriplePattern& tp = rc.patterns[i];
    for (const Triple& t : all) {
      std::vector<std::string> bound_here;
      bool ok = true;
      auto check = [&](const VarOrTerm& vt, const Term& value) {
        if (!ok) return;
        if (!vt.is_var) {
          ok = SameTerm(vt.term, value);
          return;
        }
        auto it = binding.find(vt.var);
        if (it == binding.end()) {
          binding.emplace(vt.var, value);
          bound_here.push_back(vt.var);
        } else {
          ok = SameTerm(it->second, value);
        }
      };
      check(tp.s, t.s);
      check(tp.p, t.p);
      check(tp.o, t.o);
      if (ok) extend(i + 1);
      for (const std::string& v : bound_here) binding.erase(v);
    }
  };
  extend(0);
  return results;
}

/// Renders the patterns as a SPARQL query over rc.vars.
std::string ToQuery(const RandomCase& rc) {
  std::string q = "SELECT";
  for (const std::string& v : rc.vars) q += " ?" + v;
  if (rc.vars.empty()) q += " *";
  q += " WHERE { ";
  for (const TriplePattern& tp : rc.patterns) {
    q += tp.s.ToString() + " " + tp.p.ToString() + " " + tp.o.ToString() +
         " . ";
  }
  q += "}";
  return q;
}

/// Applies ops[from, to) one batch each.
void ApplyOps(const RandomCase& rc, size_t from, size_t to, Graph* g) {
  for (size_t i = from; i < to; ++i) {
    WriteBatch b;
    WriteBatch::Op op = rc.ops[i];
    if (op.kind == WriteBatch::OpKind::kAdd) {
      b.Add(std::move(op.t));
    } else {
      b.RemoveAll(std::move(op.t));
    }
    g->Apply(std::move(b));
  }
}

/// Runs the case's query with the optimizer on and off, checking the
/// executor's row set against the reference's `expected`.
void ExpectMatches(SSDM& db, const RandomCase& rc,
                   const std::set<std::vector<std::string>>& expected,
                   const std::string& state) {
  std::string query = ToQuery(rc);
  for (bool optimize : {true, false}) {
    db.exec_options().optimize_join_order = optimize;
    auto r = Query(db, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
    // The executor returns a multiset; brute force distinct assignments of
    // triples can produce duplicate rows too. Compare as sets (DISTINCT
    // projections).
    std::set<std::vector<std::string>> got;
    for (const auto& row : r->rows) {
      std::vector<std::string> cells;
      for (const Term& t : row) cells.push_back(CellKey(t));
      got.insert(std::move(cells));
    }
    EXPECT_EQ(got, expected) << state << " optimizer=" << optimize
                             << "\nquery: " << query;
  }
}

class ReferenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceSweep, ExecutorMatchesBruteForce) {
  RandomCase rc = MakeCase(GetParam());
  SSDM db;
  ApplyOps(rc, 0, rc.ops.size(), &db.dataset().default_graph());
  ExpectMatches(db, rc, Reference(rc), "base");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceSweep,
                         ::testing::Range<uint64_t>(1, 26));

class ValueIdentitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueIdentitySweep, IdPathMatchesBruteForceFoldedAndPending) {
  RandomCase rc = MakeMixedCase(GetParam());
  const std::set<std::vector<std::string>> expected = Reference(rc);
  {
    SSDM db;
    ApplyOps(rc, 0, rc.ops.size(), &db.dataset().default_graph());
    ExpectMatches(db, rc, expected, "base");
  }
  // Half the adds in the base table, the rest plus every removal pending
  // in the delta; then the same graph after the fold.
  SSDM db;
  Graph& g = db.dataset().default_graph();
  ApplyOps(rc, 0, rc.ops.size() / 2, &g);
  db.dataset().SetConcurrentWrites(true);
  ApplyOps(rc, rc.ops.size() / 2, rc.ops.size(), &g);
  ASSERT_TRUE(g.HasDelta());
  ExpectMatches(db, rc, expected, "pending-delta");
  ASSERT_TRUE(g.HasDelta());
  db.dataset().FoldDeltas();
  ExpectMatches(db, rc, expected, "folded");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueIdentitySweep,
                         ::testing::Range<uint64_t>(1, 101));

// ---------------------------------------------------------------------------
// Property paths against a fixed-point oracle.
// ---------------------------------------------------------------------------

/// A property path, kept as a tree so the oracle can evaluate what the
/// query text says.
struct TestPath {
  enum class Op { kLink, kInverse, kSeq, kAlt, kZeroOrOne, kStar, kPlus, kNeg };
  Op op = Op::kLink;
  int pred = 0;                     // kLink
  std::vector<int> fwd, inv;        // kNeg: excluded forward / inverse preds
  std::shared_ptr<TestPath> a, b;   // operands
};
using TestPathPtr = std::shared_ptr<TestPath>;

TestPathPtr PLink(int p) {
  auto t = std::make_shared<TestPath>();
  t->pred = p;
  return t;
}
TestPathPtr POp(TestPath::Op op, TestPathPtr a, TestPathPtr b = nullptr) {
  auto t = std::make_shared<TestPath>();
  t->op = op;
  t->a = std::move(a);
  t->b = std::move(b);
  return t;
}
TestPathPtr PNeg(std::vector<int> fwd, std::vector<int> inv) {
  auto t = std::make_shared<TestPath>();
  t->op = TestPath::Op::kNeg;
  t->fwd = std::move(fwd);
  t->inv = std::move(inv);
  return t;
}

std::string PathText(const TestPath& p) {
  using Op = TestPath::Op;
  auto iri = [](int i) { return "<http://p/" + std::to_string(i) + ">"; };
  switch (p.op) {
    case Op::kLink:
      return iri(p.pred);
    case Op::kInverse:
      return "^(" + PathText(*p.a) + ")";
    case Op::kSeq:
      return "(" + PathText(*p.a) + "/" + PathText(*p.b) + ")";
    case Op::kAlt:
      return "(" + PathText(*p.a) + "|" + PathText(*p.b) + ")";
    case Op::kZeroOrOne:
      return "(" + PathText(*p.a) + ")?";
    case Op::kStar:
      return "(" + PathText(*p.a) + ")*";
    case Op::kPlus:
      return "(" + PathText(*p.a) + ")+";
    case Op::kNeg: {
      std::string out = "!(";
      bool first = true;
      for (int i : p.fwd) {
        out += (first ? "" : "|") + iri(i);
        first = false;
      }
      for (int i : p.inv) {
        out += (first ? "^" : "|^") + iri(i);
        first = false;
      }
      return out + ")";
    }
  }
  return "";
}

using NodePairs = std::set<std::pair<std::string, std::string>>;

NodePairs Compose(const NodePairs& x, const NodePairs& y) {
  NodePairs out;
  for (const auto& [s, mid] : x) {
    for (auto it = y.lower_bound({mid, ""}); it != y.end() && it->first == mid;
         ++it) {
      out.emplace(s, it->second);
    }
  }
  return out;
}

/// Every pair of nodes the path connects, written from the SPARQL 1.1
/// path semantics: links as a set of edges, `^` as the converse, `/` as
/// composition, `|` as union, closures as fixed points. `nodes` is where
/// zero-length paths hold: the graph's subjects and objects plus the
/// query's bound endpoints. Nodes are keyed by CellKey, so integral
/// doubles and integers of one value are one node.
NodePairs OracleEval(const TestPath& p, const std::vector<Triple>& graph,
                     const std::set<std::string>& nodes) {
  using Op = TestPath::Op;
  auto identity = [&] {
    NodePairs id;
    for (const std::string& n : nodes) id.emplace(n, n);
    return id;
  };
  auto plus = [&](const NodePairs& step) {
    NodePairs reach = step;
    for (;;) {
      NodePairs more = reach;
      for (const auto& pr : Compose(reach, step)) more.insert(pr);
      if (more.size() == reach.size()) return reach;
      reach = std::move(more);
    }
  };
  NodePairs out;
  switch (p.op) {
    case Op::kLink:
      for (const Triple& t : graph) {
        if (SameTerm(t.p, Pred(p.pred))) {
          out.emplace(CellKey(t.s), CellKey(t.o));
        }
      }
      return out;
    case Op::kInverse:
      for (const auto& [s, o] : OracleEval(*p.a, graph, nodes)) {
        out.emplace(o, s);
      }
      return out;
    case Op::kSeq:
      return Compose(OracleEval(*p.a, graph, nodes),
                     OracleEval(*p.b, graph, nodes));
    case Op::kAlt:
      out = OracleEval(*p.a, graph, nodes);
      for (const auto& pr : OracleEval(*p.b, graph, nodes)) out.insert(pr);
      return out;
    case Op::kZeroOrOne:
      out = OracleEval(*p.a, graph, nodes);
      for (const auto& pr : identity()) out.insert(pr);
      return out;
    case Op::kStar:
      out = plus(OracleEval(*p.a, graph, nodes));
      for (const auto& pr : identity()) out.insert(pr);
      return out;
    case Op::kPlus:
      return plus(OracleEval(*p.a, graph, nodes));
    case Op::kNeg: {
      // !(p|^q) is !(p) | ^!(q); each half only when the set names it.
      auto excluded = [](const std::vector<int>& preds, const Term& pred) {
        for (int i : preds) {
          if (SameTerm(Pred(i), pred)) return true;
        }
        return false;
      };
      for (const Triple& t : graph) {
        if (!p.fwd.empty() && !excluded(p.fwd, t.p)) {
          out.emplace(CellKey(t.s), CellKey(t.o));
        }
        if (!p.inv.empty() && !excluded(p.inv, t.p)) {
          out.emplace(CellKey(t.o), CellKey(t.s));
        }
      }
      return out;
    }
  }
  return out;
}

struct PathCase {
  std::vector<WriteBatch::Op> ops;
  size_t base_ops = 0;  // ops[0, base_ops) go to the base table
  struct Query {
    TestPathPtr path;
    VarOrTerm s, o;
  };
  std::vector<Query> queries;
};

/// A small graph over IRIs and numeric nodes (an integer and the
/// integral double of its value are one node, whichever form an edge
/// spells; 2^53+1 is not the double 2^53), with a ring, a self-loop and
/// random edges on two predicates.
/// The later half of the ops, among them the removal of a ring edge that
/// sits in the base table, is what stays pending in the delta. Queries
/// draw each endpoint bound or unbound; bound ends include numerics in
/// either form and terms no triple holds.
PathCase MakePathCase(uint64_t seed) {
  using Op = TestPath::Op;
  std::mt19937_64 rng(seed);
  PathCase pc;
  auto node = [&]() -> Term {
    switch (rng() % 8) {
      case 0:
        return rng() % 2 ? Term::Integer(2) : Term::Double(2.0);
      case 1:
        return rng() % 2 ? Term::Integer(3) : Term::Double(3.0);
      case 2:
        return Term::Integer(kTwo53 + 1);
      default:
        return Node(static_cast<int>(rng() % 5));
    }
  };
  auto add = [&](Term s, int p, Term o) {
    pc.ops.push_back(WriteBatch::Op{
        WriteBatch::OpKind::kAdd, Triple{std::move(s), Pred(p), std::move(o)}});
  };
  add(Node(0), 0, Node(1));
  add(Node(1), 0, Node(2));
  add(Node(2), 0, Term::Integer(2));
  add(Term::Double(2.0), 0, Term::Integer(kTwo53 + 1));
  add(Term::Integer(kTwo53 + 1), 0, Node(0));
  add(Node(3), static_cast<int>(rng() % 2), Node(3));
  for (int i = 0; i < 14; ++i) add(node(), static_cast<int>(rng() % 2), node());
  pc.base_ops = pc.ops.size() / 2;
  pc.ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kRemoveAll,
                                  Triple{Node(1), Pred(0), Node(2)}});
  for (int i = 0; i < 2; ++i) {
    Triple t = pc.ops[rng() % pc.ops.size()].t;
    if (t.s.IsNumeric()) t.s = OtherKind(t.s);
    if (t.o.IsNumeric()) t.o = OtherKind(t.o);
    pc.ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kRemoveAll,
                                    std::move(t)});
  }
  if (rng() % 2 == 0) add(node(), static_cast<int>(rng() % 2), node());

  auto end = [&](const std::string& var) -> VarOrTerm {
    switch (rng() % 6) {
      case 0:
      case 1:
      case 2:
        return VarOrTerm::Var(var);
      case 3:
        return VarOrTerm::Const(rng() % 2 ? Term::Integer(2)
                                          : Term::Double(2.0));
      case 4:
        switch (rng() % 4) {
          case 0:
            return VarOrTerm::Const(Term::Double(7.0));
          case 1:  // equal to the stored 2^53+1 only under promotion
            return VarOrTerm::Const(Term::Double(static_cast<double>(kTwo53)));
          default:
            return VarOrTerm::Const(Node(static_cast<int>(rng() % 6)));
        }
      default:
        return VarOrTerm::Const(Node(static_cast<int>(rng() % 3)));
    }
  };
  for (int q = 0; q < 8; ++q) {
    const int p = static_cast<int>(rng() % 2);
    const int r = static_cast<int>(rng() % 2);
    TestPathPtr path;
    switch (rng() % 11) {
      case 0: path = PLink(p); break;
      case 1: path = POp(Op::kInverse, PLink(p)); break;
      case 2: path = POp(Op::kSeq, PLink(p), PLink(r)); break;
      case 3:
        path = POp(Op::kAlt, PLink(p), POp(Op::kInverse, PLink(r)));
        break;
      case 4: path = POp(Op::kZeroOrOne, PLink(p)); break;
      case 5: path = POp(Op::kStar, PLink(p)); break;
      case 6: path = POp(Op::kPlus, PLink(p)); break;
      case 7: path = PNeg({p}, {r}); break;
      case 8: path = POp(Op::kPlus, POp(Op::kInverse, PLink(p))); break;
      case 9:
        path = POp(Op::kStar, POp(Op::kSeq, PLink(p),
                                  POp(Op::kZeroOrOne, PLink(r))));
        break;
      default: path = PNeg({}, {r}); break;
    }
    PathCase::Query query{path, end("s"), end("o")};
    if (rng() % 8 == 0) query.o = VarOrTerm::Var("s");
    pc.queries.push_back(std::move(query));
  }
  return pc;
}

/// Runs `query` and compares its rows, as a set of CellKey rows, with
/// `expected`.
void ExpectRowSet(SSDM& db, const std::string& query,
                  const std::set<std::vector<std::string>>& expected,
                  const std::string& state) {
  auto r = Query(db, query);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
  std::set<std::vector<std::string>> got;
  for (const auto& row : r->rows) {
    std::vector<std::string> cells;
    for (const Term& t : row) cells.push_back(CellKey(t));
    got.insert(std::move(cells));
  }
  EXPECT_EQ(got, expected) << state << "\n" << query;
}

/// The case's paths joined with a link on either side: `?s <path> ?o .
/// ?o p1 ?z`, whose pairs feed the pattern after them, and `?a p0 ?s .
/// ?s <path> ?o`, whose start the pattern before it binds. Expected rows
/// compose the oracle's pairs with the link's edges; the ends are
/// variables, so zero-length pairs hold on the graph's nodes.
void ExpectJoinedPathsMatch(SSDM& db, const PathCase& pc,
                            const std::vector<Triple>& graph,
                            const std::string& state) {
  std::set<std::string> nodes;
  NodePairs link[2];
  for (const Triple& t : graph) {
    nodes.insert(CellKey(t.s));
    nodes.insert(CellKey(t.o));
    for (int i = 0; i < 2; ++i) {
      if (SameTerm(t.p, Pred(i))) link[i].emplace(CellKey(t.s), CellKey(t.o));
    }
  }
  for (const PathCase::Query& q : pc.queries) {
    const NodePairs pairs = OracleEval(*q.path, graph, nodes);
    std::set<std::vector<std::string>> after, before;
    for (const auto& [s, o] : pairs) {
      for (auto it = link[1].lower_bound({o, ""});
           it != link[1].end() && it->first == o; ++it) {
        after.insert({s, o, it->second});
      }
    }
    for (const auto& [a, s] : link[0]) {
      for (auto it = pairs.lower_bound({s, ""});
           it != pairs.end() && it->first == s; ++it) {
        before.insert({a, s, it->second});
      }
    }
    const std::string path = PathText(*q.path);
    ExpectRowSet(db,
                 "SELECT ?s ?o ?z WHERE { ?s " + path +
                     " ?o . ?o <http://p/1> ?z }",
                 after, state);
    ExpectRowSet(db,
                 "SELECT ?a ?s ?o WHERE { ?a <http://p/0> ?s . ?s " + path +
                     " ?o }",
                 before, state);
  }
}

void ExpectPathsMatch(SSDM& db, const PathCase& pc, const std::string& state) {
  RandomCase content;
  content.ops = pc.ops;
  const std::vector<Triple> graph = Content(content);
  for (const PathCase::Query& q : pc.queries) {
    std::set<std::string> nodes;
    for (const Triple& t : graph) {
      nodes.insert(CellKey(t.s));
      nodes.insert(CellKey(t.o));
    }
    for (const VarOrTerm* e : {&q.s, &q.o}) {
      if (!e->is_var) nodes.insert(CellKey(e->term));
    }
    std::vector<std::string> vars;
    for (const VarOrTerm* e : {&q.s, &q.o}) {
      if (e->is_var &&
          std::find(vars.begin(), vars.end(), e->var) == vars.end()) {
        vars.push_back(e->var);
      }
    }
    std::set<std::vector<std::string>> expected;
    for (const auto& [s, o] : OracleEval(*q.path, graph, nodes)) {
      if (!q.s.is_var && s != CellKey(q.s.term)) continue;
      if (!q.o.is_var && o != CellKey(q.o.term)) continue;
      if (q.s.is_var && q.o.is_var && q.s.var == q.o.var && s != o) continue;
      std::vector<std::string> row;
      for (const std::string& v : vars) {
        row.push_back(v == "s" && q.s.is_var ? s : o);
      }
      expected.insert(std::move(row));
    }

    const std::string where = " WHERE { " + q.s.ToString() + " " +
                              PathText(*q.path) + " " + q.o.ToString() + " }";
    if (vars.empty()) {
      auto r = Ask(db, "ASK" + where);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\nASK" << where;
      EXPECT_EQ(*r, !expected.empty()) << state << "\nASK" << where;
      continue;
    }
    std::string query = "SELECT";
    for (const std::string& v : vars) query += " ?" + v;
    query += where;
    ExpectRowSet(db, query, expected, state);
  }
  ExpectJoinedPathsMatch(db, pc, graph, state);
}

class PathSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathSweep, IdPathsMatchFixedPointOracleBasePendingAndFolded) {
  const PathCase pc = MakePathCase(GetParam());
  RandomCase all;
  all.ops = pc.ops;
  {
    SSDM db;
    ApplyOps(all, 0, all.ops.size(), &db.dataset().default_graph());
    ExpectPathsMatch(db, pc, "base");
  }
  SSDM db;
  Graph& g = db.dataset().default_graph();
  ApplyOps(all, 0, pc.base_ops, &g);
  db.dataset().SetConcurrentWrites(true);
  ApplyOps(all, pc.base_ops, all.ops.size(), &g);
  ASSERT_TRUE(g.HasDelta());
  ExpectPathsMatch(db, pc, "pending-delta");
  db.dataset().FoldDeltas();
  ExpectPathsMatch(db, pc, "folded");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSweep, ::testing::Range<uint64_t>(1, 81));

}  // namespace
}  // namespace scisparql
