// The oracle (tests/oracle/) against hand-computed answers on small graphs
// — OPTIONAL order cases, closed-world negation through OPTIONAL +
// !bound, UNION, MINUS, GROUP BY with aggregates and HAVING, ORDER BY DESC
// with OFFSET/LIMIT — and each named divergence class, asserted on the
// engine and on the oracle with and without the class. A randomized sweep
// then wraps random BGPs in OPTIONAL, UNION, FILTER, MINUS, DISTINCT and
// GROUP BY + COUNT and checks the engine against the oracle with every op
// in the base table, with half of them pending in the delta, and after
// the fold.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "oracle/oracle.h"
#include "oracle/random_bgp.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

using oracle::Divergence;
using oracle::Semantics;

/// Rows rendered one string each, in order.
std::vector<std::string> Ordered(const std::vector<std::vector<Term>>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string k;
    for (const Term& t : row) k += t.ToString() + " ";
    out.push_back(std::move(k));
  }
  return out;
}

/// Rows rendered one string each, sorted (a bag compares as a multiset).
std::vector<std::string> Bag(const std::vector<std::vector<Term>>& rows) {
  std::vector<std::string> out = Ordered(rows);
  std::sort(out.begin(), out.end());
  return out;
}

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override { db_.prefixes().Set("ex", "http://example.org/"); }

  void Load(const std::string& ttl) {
    ASSERT_TRUE(
        db_.LoadTurtleString("@prefix ex: <http://example.org/> .\n" + ttl)
            .ok());
  }

  std::vector<std::vector<Term>> Engine(const std::string& q) {
    auto r = Query(db_, q);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    return r.ok() ? r->rows : std::vector<std::vector<Term>>();
  }

  std::vector<std::vector<Term>> Oracle(const std::string& q,
                                        Semantics sem = Semantics::Engine()) {
    auto r = oracle::Evaluate(db_, q, sem);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    return r.ok() ? r->rows : std::vector<std::vector<Term>>();
  }

  /// Asserts the engine, the oracle (engine semantics) and `want` agree on
  /// `q`'s bag of rows.
  void ExpectBag(const std::string& q, std::vector<std::string> want) {
    std::sort(want.begin(), want.end());
    EXPECT_EQ(Bag(Engine(q)), want) << q;
    EXPECT_EQ(Bag(Oracle(q)), want) << q;
  }

  SSDM db_;
};

const char kO[] = "<http://example.org/o";  // IRIs render with the full name

// ---------------------------------------------------------------------------
// Hand-computed answers.
// ---------------------------------------------------------------------------

TEST_F(OracleTest, OptionalOrderDecidesWhichArmBindsASharedVariable) {
  // Two OPTIONALs bind ?v: the first one that matches wins, in either
  // semantics (the second arm's mapping is incompatible with it).
  Load("ex:s ex:a 0 ; ex:q 1 ; ex:r 2 .");
  ExpectBag(
      "SELECT ?v WHERE { ex:s ex:a ?a OPTIONAL { ex:s ex:q ?v } "
      "OPTIONAL { ex:s ex:r ?v } }",
      {"1 "});
  ExpectBag(
      "SELECT ?v WHERE { ex:s ex:a ?a OPTIONAL { ex:s ex:r ?v } "
      "OPTIONAL { ex:s ex:q ?v } }",
      {"2 "});
  EXPECT_EQ(Bag(Oracle("SELECT ?v WHERE { ex:s ex:a ?a OPTIONAL { ex:s ex:r "
                       "?v } OPTIONAL { ex:s ex:q ?v } }",
                       Semantics::W3C())),
            std::vector<std::string>{"2 "});
}

TEST_F(OracleTest, OptionalArmThatCannotExtendKeepsTheLeftMapping) {
  Load("ex:o1 ex:p 1 ; ex:q 2 .");
  ExpectBag(
      "SELECT ?x ?y WHERE { ex:o1 ex:p ?x OPTIONAL { ex:o1 ex:q ?y } "
      "OPTIONAL { ex:o1 ex:q ?x } }",
      {"1 2 "});
}

TEST_F(OracleTest, OptionalAndNotBoundIsClosedWorldNegation) {
  // SP²Bench Q6's shape: documents whose author published nothing in an
  // earlier year. Alice's 2001 paper has her 2000 paper before it.
  Load(
      "ex:d1 ex:creator ex:alice ; ex:year 2000 .\n"
      "ex:d2 ex:creator ex:alice ; ex:year 2001 .\n"
      "ex:d3 ex:creator ex:bob ; ex:year 2001 .\n");
  const std::string q =
      "SELECT ?doc WHERE { ?doc ex:creator ?a . ?doc ex:year ?y . "
      "OPTIONAL { ?d2 ex:creator ?a . ?d2 ex:year ?y2 FILTER (?y2 < ?y) } "
      "FILTER (!bound(?d2)) }";
  ExpectBag(q, {"<http://example.org/d1> ", "<http://example.org/d3> "});
  EXPECT_EQ(Bag(Oracle(q, Semantics::W3C())), Bag(Engine(q)));
}

TEST_F(OracleTest, UnionConcatenatesBranchesLeavingOthersUnbound) {
  Load("ex:o1 ex:p 1 . ex:o2 ex:q 2 . ex:o3 ex:p 3 ; ex:q 3 .");
  ExpectBag(
      "SELECT ?s ?x ?y WHERE { { ?s ex:p ?x } UNION { ?s ex:q ?y } }",
      {std::string(kO) + "1> 1 UNDEF ", std::string(kO) + "2> UNDEF 2 ",
       std::string(kO) + "3> 3 UNDEF ", std::string(kO) + "3> UNDEF 3 "});
  // A branch joined with the pattern before it.
  ExpectBag(
      "SELECT ?s ?v WHERE { ?s ex:p ?x { ?s ex:q ?v } UNION { ?s ex:p ?v } }",
      {std::string(kO) + "1> 1 ", std::string(kO) + "3> 3 ",
       std::string(kO) + "3> 3 "});
}

TEST_F(OracleTest, OrderByDescendingWithOffsetAndLimit) {
  Load("ex:a ex:v 10 . ex:b ex:v 40 . ex:c ex:v 30 . ex:d ex:v 20 .");
  const std::string q =
      "SELECT ?s ?v WHERE { ?s ex:v ?v } ORDER BY DESC(?v) OFFSET 1 LIMIT 2";
  const std::vector<std::string> want = {"<http://example.org/c> 30 ",
                                         "<http://example.org/d> 20 "};
  EXPECT_EQ(Ordered(Engine(q)), want);
  EXPECT_EQ(Ordered(Oracle(q)), want);
  EXPECT_EQ(Ordered(Oracle(q, Semantics::W3C())), want);
  // DISTINCT applies before the slice.
  const std::string d =
      "SELECT DISTINCT ?k WHERE { ?s ex:v ?v . BIND (?v > 15 AS ?k) } "
      "ORDER BY DESC(?k) LIMIT 1";
  EXPECT_EQ(Ordered(Engine(d)), std::vector<std::string>{"true "});
  EXPECT_EQ(Ordered(Oracle(d)), std::vector<std::string>{"true "});
}

TEST_F(OracleTest, AskIsTrueIffASolutionExists) {
  Load("ex:a ex:v 10 .");
  for (const auto& [q, want] :
       std::vector<std::pair<std::string, bool>>{
           {"ASK { ?s ex:v 10 }", true},
           {"ASK { ?s ex:v ?v FILTER (?v > 10) }", false}}) {
    auto engine = Ask(db_, q);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(*engine, want) << q;
    auto reference = oracle::Evaluate(db_, q);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->ask, want) << q;
  }
}

TEST_F(OracleTest, FormsOutsideItsAlgebraAreUnsupported) {
  Load("ex:a ex:v 10 .");
  for (const char* q : {
           "SELECT ?s WHERE { GRAPH ?g { ?s ex:v ?v } }",
           "SELECT ?s WHERE { VALUES ?s { ex:a } ?s ex:v ?v }",
           "SELECT (GROUP_CONCAT(?v) AS ?c) WHERE { ?s ex:v ?v }",
           "SELECT ?s WHERE { ?s ex:v ?v FILTER EXISTS { ?s ex:v 10 } }",
           "SELECT ?s WHERE { ?s ex:v ?v FILTER (ex:f(?v)) }",
           "SELECT ?s FROM ex:g WHERE { ?s ex:v ?v }",
           "CONSTRUCT { ?s ex:w ?v } WHERE { ?s ex:v ?v }",
       }) {
    auto r = oracle::Evaluate(db_, q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported) << q;
  }
}

TEST_F(OracleTest, MinusDropsOnlyCompatibleMappingsSharingAVariable) {
  Load("ex:o1 ex:p 1 ; ex:q 5 . ex:o2 ex:p 2 . ex:o3 ex:r 9 .");
  ExpectBag("SELECT ?s WHERE { ?s ex:p ?v MINUS { ?s ex:q ?w } }",
            {std::string(kO) + "2> "});
  // No shared variable: nothing is dropped.
  ExpectBag("SELECT ?s WHERE { ?s ex:p ?v MINUS { ?t ex:r ?u } }",
            {std::string(kO) + "1> ", std::string(kO) + "2> "});
  // Shared but incompatible: ?v is 1 or 2 on the left, 9 on the right.
  ExpectBag("SELECT ?s WHERE { ?s ex:p ?v MINUS { ?t ex:r ?v } }",
            {std::string(kO) + "1> ", std::string(kO) + "2> "});
}

TEST_F(OracleTest, GroupByAggregatesAndHaving) {
  Load("ex:o1 ex:g ex:x ; ex:v 1 . ex:o2 ex:g ex:x ; ex:v 3 . "
       "ex:o3 ex:g ex:y ; ex:v 10 . ex:o4 ex:g ex:y ; ex:v 10 . "
       "ex:o5 ex:g ex:z .");
  ExpectBag(
      "SELECT ?g (COUNT(?v) AS ?n) (SUM(?v) AS ?s) (MIN(?v) AS ?lo) "
      "(MAX(?v) AS ?hi) (COUNT(DISTINCT ?v) AS ?d) (COUNT(*) AS ?all) "
      "WHERE { ?o ex:g ?g OPTIONAL { ?o ex:v ?v } } GROUP BY ?g",
      {"<http://example.org/x> 2 4 1 3 2 2 ",
       "<http://example.org/y> 2 20 10 10 1 2 ",
       "<http://example.org/z> 0 0 UNDEF UNDEF 0 1 "});
  ExpectBag(
      "SELECT ?g (AVG(?v) AS ?a) WHERE { ?o ex:g ?g ; ex:v ?v } GROUP BY ?g",
      {"<http://example.org/x> " + Term::Double(2).ToString() + " ",
       "<http://example.org/y> " + Term::Double(10).ToString() + " "});
  // HAVING sees the aggregates; SAMPLE of a group whose values agree.
  ExpectBag(
      "SELECT ?g (SAMPLE(?v) AS ?one) WHERE { ?o ex:g ?g ; ex:v ?v } "
      "GROUP BY ?g HAVING (COUNT(*) > 1 && MIN(?v) = MAX(?v))",
      {"<http://example.org/y> 10 "});
  // Aggregates without GROUP BY: one group, even over no solutions.
  ExpectBag("SELECT (COUNT(*) AS ?n) WHERE { ?o ex:g ?g }", {"5 "});
  ExpectBag("SELECT (COUNT(*) AS ?n) WHERE { ?o ex:none ?g }", {"0 "});
}

// ---------------------------------------------------------------------------
// Named divergence classes: the engine agrees with the oracle that adopts
// each one, and differs as documented from the oracle that does not.
// ---------------------------------------------------------------------------

TEST_F(OracleTest, DivergenceOperationalOptional) {
  // Not well designed (Pérez–Arenas–Gutiérrez): the inner arm mentions ?x,
  // which only the outermost pattern binds. Compositionally the inner
  // LeftJoin binds ?x to 5, the outer join rejects that, and only ?x
  // survives; operationally the arm sees ?x = 1 and keeps ?y.
  Load("ex:o1 ex:p 1 ; ex:q 2 . ex:o3 ex:r 5 .");
  const std::string q =
      "SELECT ?x ?y ?t WHERE { ex:o1 ex:p ?x "
      "OPTIONAL { ex:o1 ex:q ?y OPTIONAL { ?t ex:r ?x } } }";
  ExpectBag(q, {"1 2 UNDEF "});
  EXPECT_EQ(Bag(Oracle(q, Semantics::Engine().Without(
                              Divergence::kOperationalOptional))),
            std::vector<std::string>{"1 UNDEF UNDEF "});
  // A FILTER in a nested group sees the bindings made before the group
  // operationally; compositionally ?x is unbound there and rejects all.
  const std::string f =
      "SELECT ?x WHERE { ex:o1 ex:p ?x { FILTER (?x = 1) } }";
  ExpectBag(f, {"1 "});
  EXPECT_TRUE(Oracle(f, Semantics::W3C()).empty());
}

TEST_F(OracleTest, DivergenceExactValueNumerics) {
  Load("ex:a ex:v 2 ; ex:w ex:b . ex:b ex:v 2.5 .");
  // A BGP constant matches a stored numeric by exact value across kinds;
  // W3C matches by RDF term, so xsd:double 2.0 is not the integer 2.
  const std::string q = "SELECT ?s WHERE { ?s ex:v 2.0 }";
  ExpectBag(q, {"<http://example.org/a> "});
  EXPECT_TRUE(Oracle(q, Semantics::Engine().Without(
                            Divergence::kExactValueNumerics))
                  .empty());
  // The same rule holds for a property path's end.
  const std::string path = "ASK { ex:a ex:v+ 2.0 }";
  auto engine = Ask(db_, path);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(*engine);
  auto same = oracle::Evaluate(db_, path);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->ask);
  auto w3c = oracle::Evaluate(db_, path, Semantics::W3C());
  ASSERT_TRUE(w3c.ok());
  EXPECT_FALSE(w3c->ask);
  // FILTER `=` promotes in both.
  ExpectBag("SELECT ?s WHERE { ?s ex:v ?v FILTER (?v = 2.0) }",
            {"<http://example.org/a> "});
}

Term IntArray(std::vector<int64_t> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Term::Array(ResidentArray::Make(
      NumericArray::FromInts({n}, std::move(values)).value()));
}

TEST_F(OracleTest, DivergenceArrayIdentityJoins) {
  Graph& g = db_.dataset().default_graph();
  const Term shared = IntArray({1, 2});
  g.Add(Term::Iri("http://example.org/a"), Term::Iri("http://example.org/arr"),
        shared);
  g.Add(Term::Iri("http://example.org/b"), Term::Iri("http://example.org/arr"),
        shared);
  g.Add(Term::Iri("http://example.org/c"), Term::Iri("http://example.org/copy"),
        IntArray({1, 2}));
  // ?v joins ex:arr and ex:copy: by stored object, the copy is no match.
  const std::string q = "SELECT ?s ?t WHERE { ?s ex:arr ?v . ?t ex:copy ?v }";
  ExpectBag(q, {});
  EXPECT_EQ(Bag(Oracle(q, Semantics::Engine().Without(
                              Divergence::kArrayIdentityJoins))),
            (std::vector<std::string>{
                "<http://example.org/a> <http://example.org/c> ",
                "<http://example.org/b> <http://example.org/c> "}));
  // Two patterns reading the one stored object join in both.
  ExpectBag("SELECT ?s ?t WHERE { ?s ex:arr ?v . ?t ex:arr ?v }",
            {"<http://example.org/a> <http://example.org/a> ",
             "<http://example.org/a> <http://example.org/b> ",
             "<http://example.org/b> <http://example.org/a> ",
             "<http://example.org/b> <http://example.org/b> "});
}

// ---------------------------------------------------------------------------
// Randomized sweep: random BGPs wrapped in OPTIONAL, UNION and FILTER.
// ---------------------------------------------------------------------------

/// The sweep's queries for one random case: its patterns split into an
/// OPTIONAL, a UNION and a MINUS, all of them under DISTINCT, grouped by a
/// variable and counted, under a FILTER over a variable, and closed-world
/// negation.
std::vector<std::string> WrappedQueries(const oracle::RandomCase& rc,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string select = "SELECT";
  for (const std::string& v : rc.vars) select += " ?" + v;
  if (rc.vars.empty()) select += " *";
  std::vector<std::string> parts;
  for (const auto& tp : rc.patterns) parts.push_back(oracle::PatternText(tp));
  std::string head = parts[0];
  std::string rest;
  for (size_t i = 1; i < parts.size(); ++i) rest += parts[i];
  std::string all = head + rest;
  const std::string var =
      rc.vars.empty() ? "none" : rc.vars[rng() % rc.vars.size()];
  const std::string node =
      "<http://n/" + std::to_string(rng() % 8) + ">";
  const std::string group =
      rc.vars.empty() ? "SELECT (COUNT(*) AS ?n) WHERE { " + all + "}"
                      : "SELECT ?" + var + " (COUNT(*) AS ?n) WHERE { " + all +
                            "} GROUP BY ?" + var;
  return {
      select + " WHERE { " + head + "OPTIONAL { " + rest + "} }",
      "SELECT DISTINCT" + select.substr(6) + " WHERE { " + all + "}",
      group,
      select + " WHERE { " + head + "MINUS { " + rest + "} }",
      select + " WHERE { { " + head + "} UNION { " + rest + "} }",
      select + " WHERE { " + all + "FILTER (!bound(?" + var + ") || ?" + var +
          " != " + node + ") }",
      select + " WHERE { " + head + "OPTIONAL { " + rest + "FILTER (?" + var +
          " != " + node + ") } FILTER (!bound(?" + var + ")) }",
  };
}

class WrappedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WrappedSweep, EngineMatchesOracleBasePendingAndFolded) {
  oracle::RandomCase rc = oracle::MakeRandomBgp(GetParam());
  // Removals of stored triples, left pending in the delta below.
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 3; ++i) {
    rc.ops.push_back(WriteBatch::Op{WriteBatch::OpKind::kRemoveAll,
                                    rc.ops[rng() % rc.ops.size()].t});
  }
  const std::vector<std::string> queries = WrappedQueries(rc, GetParam());
  auto check = [&](SSDM& db, const char* state) {
    for (const std::string& q : queries) {
      auto engine = Query(db, q);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString() << "\n" << q;
      auto reference = oracle::Evaluate(db, q);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString() << "\n" << q;
      EXPECT_EQ(Bag(engine->rows), Bag(reference->rows)) << state << "\n" << q;
    }
  };
  {
    SSDM db;
    oracle::ApplyOps(rc, 0, rc.ops.size(), &db.dataset().default_graph());
    check(db, "base");
  }
  SSDM db;
  Graph& g = db.dataset().default_graph();
  const size_t half = rc.ops.size() / 2;
  oracle::ApplyOps(rc, 0, half, &g);
  db.dataset().SetConcurrentWrites(true);
  oracle::ApplyOps(rc, half, rc.ops.size(), &g);
  ASSERT_TRUE(g.HasDelta());
  check(db, "pending-delta");
  db.dataset().FoldDeltas();
  check(db, "folded");
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrappedSweep,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace scisparql
