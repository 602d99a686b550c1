// Property test: the executor's BGP evaluation (with cost-based join
// ordering and sideways information passing) must agree with a brute-force
// reference on randomized graphs and patterns, with the optimizer both on
// and off. The reference is the oracle (tests/oracle/) reading a plain
// list of triples, built by an independent set-semantics model of the
// mutations, so it tries every triple for every pattern and matches by
// its own exact-value identity rule, not the engine's. A second sweep
// mixes numeric forms (integers next to integral doubles, signed zeros,
// values around 2^53), query constants of the other numeric kind, array
// objects, and a pending delta next to the folded one. A third sweep
// checks property paths against the oracle's fixed points over the same
// list.

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "oracle/oracle.h"
#include "oracle/random_bgp.h"
#include "rdf/write_batch.h"
#include "sparql/parser.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

using ast::TriplePattern;
using ast::VarOrTerm;
using oracle::AddOp;
using oracle::ApplyOps;
using oracle::Node;
using oracle::Pred;
using oracle::RandomCase;

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
    if (t.o.IsNumeric() && oracle::SameValue(OtherKind(t.o), t.o)) {
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

/// A row cell rendered so that identical terms render alike whatever
/// numeric form the engine returns.
std::string CellKey(const Term& t) {
  if (t.IsUndef()) return "UNDEF";
  if (t.IsNumeric()) {
    const std::string i = oracle::IntegerText(t);
    if (!i.empty()) return i;
  }
  return t.ToString();
}

/// The graph the ops leave behind under RDF set semantics: a triple
/// already present (numerics by value, arrays by elements) is not added
/// again, and a removal takes every copy.
std::vector<Triple> Content(const RandomCase& rc) {
  auto same = [](const Triple& a, const Triple& b) {
    return oracle::SameValue(a.s, b.s) && oracle::SameValue(a.p, b.p) &&
           oracle::SameValue(a.o, b.o);
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

/// Brute force over the triples the case's ops leave behind: every
/// combination of triples for the patterns, as the distinct assignments of
/// rc.vars in CellKey rows.
std::set<std::vector<std::string>> Reference(const RandomCase& rc) {
  const std::vector<Triple> all = Content(rc);
  std::vector<const TriplePattern*> patterns;
  for (const TriplePattern& tp : rc.patterns) patterns.push_back(&tp);
  std::set<std::vector<std::string>> results;
  for (const oracle::Mapping& m : oracle::MatchBgp(all, patterns)) {
    std::vector<std::string> row;
    for (const std::string& v : rc.vars) {
      auto it = m.find(v);
      row.push_back(it == m.end() ? "UNDEF" : CellKey(it->second));
    }
    results.insert(std::move(row));
  }
  return results;
}

/// Renders the patterns as a SPARQL query over rc.vars.
std::string ToQuery(const RandomCase& rc) {
  std::string q = "SELECT";
  for (const std::string& v : rc.vars) q += " ?" + v;
  if (rc.vars.empty()) q += " *";
  q += " WHERE { ";
  for (const TriplePattern& tp : rc.patterns) q += oracle::PatternText(tp);
  q += "}";
  return q;
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
    // The executor returns a multiset, and so does the brute force (one
    // mapping per combination of triples). Compare as sets (DISTINCT
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
  RandomCase rc = oracle::MakeRandomBgp(GetParam());
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
// Property paths against the oracle's fixed points.
// ---------------------------------------------------------------------------

struct PathCase {
  std::vector<WriteBatch::Op> ops;
  size_t base_ops = 0;  // ops[0, base_ops) go to the base table
  struct Query {
    std::string path;  // in query syntax
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
  auto link = [](int i) { return "<http://p/" + std::to_string(i) + ">"; };
  for (int q = 0; q < 8; ++q) {
    const std::string p = link(static_cast<int>(rng() % 2));
    const std::string r = link(static_cast<int>(rng() % 2));
    std::string path;
    switch (rng() % 11) {
      case 0: path = p; break;
      case 1: path = "^(" + p + ")"; break;
      case 2: path = "(" + p + "/" + r + ")"; break;
      case 3: path = "(" + p + "|^(" + r + "))"; break;
      case 4: path = "(" + p + ")?"; break;
      case 5: path = "(" + p + ")*"; break;
      case 6: path = "(" + p + ")+"; break;
      case 7: path = "!(" + p + "|^" + r + ")"; break;
      case 8: path = "(^(" + p + "))+"; break;
      case 9: path = "((" + p + "/(" + r + ")?))*"; break;
      default: path = "!(^" + r + ")"; break;
    }
    PathCase::Query query{path, end("s"), end("o")};
    if (rng() % 8 == 0) query.o = VarOrTerm::Var("s");
    pc.queries.push_back(std::move(query));
  }
  return pc;
}

/// Runs `query` on the engine and on the oracle over `ref`, and compares
/// their rows as sets of CellKey rows (or their ASK answers).
void ExpectOracleRows(SSDM& db, const std::vector<Triple>& ref,
                      const std::string& query, const std::string& state) {
  auto parsed = sparql::ParseQuery(query, db.prefixes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << query;
  auto want = oracle::Evaluate(ref, **parsed);
  ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n" << query;
  if ((*parsed)->form == ast::SelectQuery::Form::kAsk) {
    auto r = Ask(db, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
    EXPECT_EQ(*r, want->ask) << state << "\n" << query;
    return;
  }
  auto r = Query(db, query);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
  auto keys = [](const std::vector<std::vector<Term>>& rows) {
    std::set<std::vector<std::string>> out;
    for (const auto& row : rows) {
      std::vector<std::string> cells;
      for (const Term& t : row) cells.push_back(CellKey(t));
      out.insert(std::move(cells));
    }
    return out;
  };
  EXPECT_EQ(keys(r->rows), keys(want->rows)) << state << "\n" << query;
}

/// Each of the case's paths alone, then joined with a link on either side:
/// `?s <path> ?o . ?o p1 ?z`, whose pairs feed the pattern after them, and
/// `?a p0 ?s . ?s <path> ?o`, whose start the pattern before it binds.
void ExpectPathsMatch(SSDM& db, const PathCase& pc, const std::string& state) {
  RandomCase content;
  content.ops = pc.ops;
  const std::vector<Triple> ref = Content(content);
  for (const PathCase::Query& q : pc.queries) {
    std::vector<std::string> vars;
    for (const VarOrTerm* e : {&q.s, &q.o}) {
      if (e->is_var &&
          std::find(vars.begin(), vars.end(), e->var) == vars.end()) {
        vars.push_back(e->var);
      }
    }
    const std::string where =
        " WHERE { " + q.s.ToString() + " " + q.path + " " + q.o.ToString() + " }";
    std::string query = vars.empty() ? "ASK" : "SELECT";
    for (const std::string& v : vars) query += " ?" + v;
    ExpectOracleRows(db, ref, query + where, state);
    ExpectOracleRows(db, ref,
                     "SELECT ?s ?o ?z WHERE { ?s " + q.path +
                         " ?o . ?o <http://p/1> ?z }",
                     state);
    ExpectOracleRows(db, ref,
                     "SELECT ?a ?s ?o WHERE { ?a <http://p/0> ?s . ?s " +
                         q.path + " ?o }",
                     state);
  }
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
