#include <cmath>
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

/// Engine pre-loaded with the thesis's running FOAF example (Chapter 3)
/// plus a small numeric block.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("foaf", "http://xmlns.com/foaf/0.1/");
    db_.prefixes().Set("ex", "http://example.org/");
    Status st = db_.LoadTurtleString(R"(
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/> .
_:a a foaf:Person ; foaf:name "Alice" ; foaf:knows _:b , _:d ;
    foaf:mbox <mailto:alice@example.org> .
_:b a foaf:Person ; foaf:name "Bob" ; foaf:knows _:a .
_:c a foaf:Person ; foaf:name "Cindy" .
_:d a foaf:Person ; foaf:name "Daniel" ; ex:email "dan@example.org" .
ex:m ex:data ((1 2) (3 4)) ; ex:label "matrix" .
ex:v1 ex:score 10 . ex:v2 ex:score 20 . ex:v3 ex:score 30 .
)");
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  std::vector<std::string> Column(const sparql::QueryResult& r, size_t col) {
    std::vector<std::string> out;
    for (const auto& row : r.rows) out.push_back(row[col].ToString());
    return out;
  }

  sparql::QueryResult Q(const std::string& text) {
    auto r = Query(db_, text);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
    return r.ok() ? *r : sparql::QueryResult{};
  }

  SSDM db_;
};

TEST_F(ExecutorTest, BasicGraphPattern) {
  auto r = Q("SELECT ?n WHERE { [] foaf:name \"Alice\" ; foaf:knows "
             "[ foaf:name ?n ] } ORDER BY ?n");
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"\"Bob\"", "\"Daniel\""}));
}

TEST_F(ExecutorTest, JoinOverSharedVariable) {
  auto r = Q("SELECT ?x ?y WHERE { ?x foaf:knows ?y . ?y foaf:knows ?x }");
  // Alice <-> Bob in both directions.
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, RepeatedVariableInPattern) {
  db_.dataset().default_graph().Add(Term::Iri("http://example.org/self"),
                                    Term::Iri("http://example.org/rel"),
                                    Term::Iri("http://example.org/self"));
  auto r = Q("SELECT ?x WHERE { ?x ex:rel ?x }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].iri(), "http://example.org/self");
}

TEST_F(ExecutorTest, OptionalBindsWhenPresent) {
  auto r = Q(R"(
SELECT ?name ?mbox WHERE {
  ?p foaf:name ?name .
  OPTIONAL { ?p foaf:mbox ?mbox }
} ORDER BY ?name)");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1].ToString(), "<mailto:alice@example.org>");  // Alice
  EXPECT_TRUE(r.rows[1][1].IsUndef());                               // Bob
}

TEST_F(ExecutorTest, UnionMergesAlternatives) {
  auto r = Q(R"(
SELECT ?name ?contact WHERE {
  ?p foaf:name ?name .
  { ?p foaf:mbox ?contact } UNION { ?p ex:email ?contact }
} ORDER BY ?name)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].lexical(), "Alice");
  EXPECT_EQ(r.rows[1][0].lexical(), "Daniel");
}

TEST_F(ExecutorTest, FilterComparison) {
  auto r = Q("SELECT ?v WHERE { ?s ex:score ?v FILTER (?v > 15) } ORDER BY ?v");
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"20", "30"}));
}

TEST_F(ExecutorTest, FilterErrorRejectsSolution) {
  // ?name is a string: ?name > 5 errors, so all solutions are dropped.
  auto r = Q("SELECT ?name WHERE { ?p foaf:name ?name FILTER (?name > 5) }");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, BindExtendsSolutions) {
  auto r = Q("SELECT ?d WHERE { ?s ex:score ?v BIND (?v * 2 AS ?d) } "
             "ORDER BY ?d");
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"20", "40", "60"}));
}

TEST_F(ExecutorTest, BindErrorLeavesUnbound) {
  auto r = Q("SELECT ?name ?d WHERE { ?p foaf:name ?name "
             "BIND (?name * 2 AS ?d) }");
  ASSERT_EQ(r.rows.size(), 4u);
  for (const auto& row : r.rows) EXPECT_TRUE(row[1].IsUndef());
}

TEST_F(ExecutorTest, ValuesJoins) {
  auto r = Q("SELECT ?s ?v WHERE { ?s ex:score ?v "
             "VALUES ?v { 10 30 } } ORDER BY ?v");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, MinusRemovesCompatible) {
  auto r = Q("SELECT ?p WHERE { ?p a foaf:Person "
             "MINUS { ?p foaf:mbox ?m } }");
  EXPECT_EQ(r.rows.size(), 3u);  // everyone but Alice
}

TEST_F(ExecutorTest, ExistsAndNotExists) {
  auto r = Q("SELECT ?name WHERE { ?p foaf:name ?name "
             "FILTER EXISTS { ?p foaf:knows [] } } ORDER BY ?name");
  EXPECT_EQ(Column(r, 0),
            (std::vector<std::string>{"\"Alice\"", "\"Bob\""}));
  auto r2 = Q("SELECT ?name WHERE { ?p foaf:name ?name "
              "FILTER NOT EXISTS { ?p foaf:knows [] } } ORDER BY ?name");
  EXPECT_EQ(Column(r2, 0),
            (std::vector<std::string>{"\"Cindy\"", "\"Daniel\""}));
}

TEST_F(ExecutorTest, PropertyPathAlternativeAndSequence) {
  auto r = Q("SELECT DISTINCT ?n WHERE { "
             "?a foaf:name \"Alice\" . ?a foaf:knows/foaf:name ?n } "
             "ORDER BY ?n");
  EXPECT_EQ(Column(r, 0),
            (std::vector<std::string>{"\"Bob\"", "\"Daniel\""}));
}

TEST_F(ExecutorTest, PropertyPathInverse) {
  auto r = Q("SELECT ?n WHERE { ?b foaf:name \"Bob\" . "
             "?b ^foaf:knows/foaf:name ?n }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].lexical(), "Alice");
}

TEST_F(ExecutorTest, PropertyPathClosure) {
  auto r = Q("SELECT DISTINCT ?n WHERE { "
             "?a foaf:name \"Alice\" . ?a foaf:knows+ ?x . "
             "?x foaf:name ?n } ORDER BY ?n");
  // Alice -> {Bob, Daniel}, Bob -> Alice: closure = {Alice, Bob, Daniel}.
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"\"Alice\"", "\"Bob\"",
                                                    "\"Daniel\""}));
}

TEST_F(ExecutorTest, PropertyPathZeroOrMoreIncludesSelf) {
  auto r = Q("SELECT DISTINCT ?x WHERE { "
             "?a foaf:name \"Cindy\" . ?a foaf:knows* ?x }");
  EXPECT_EQ(r.rows.size(), 1u);  // just Cindy herself
}

TEST_F(ExecutorTest, PropertyPathZeroOrOne) {
  auto r = Q("SELECT DISTINCT ?x WHERE { "
             "?a foaf:name \"Alice\" . ?a foaf:knows? ?x }");
  EXPECT_EQ(r.rows.size(), 3u);  // self + two direct
}

TEST_F(ExecutorTest, PathUniverseSurvivesNestedGraphPattern) {
  // Each pair of the outer path runs the GRAPH block, whose closure over
  // two unbound ends reads ex:g's node universe. The outer path's second
  // branch must still range over the default graph's nodes.
  ASSERT_TRUE(db_.LoadTurtleString("@prefix ex: <http://example.org/> .\n"
                                   "ex:p1 ex:p ex:p2 . ex:q1 ex:q ex:q2 .")
                  .ok());
  ASSERT_TRUE(db_.LoadTurtleString("@prefix ex: <http://example.org/> .\n"
                                   "ex:g1 ex:r ex:g2 . ex:g2 ex:r ex:g3 .",
                                   "http://example.org/g")
                  .ok());
  auto outer = Q("SELECT ?x ?y WHERE { ?x (ex:p*|ex:q*) ?y }");
  auto inner = Q("SELECT ?a ?b WHERE { GRAPH ex:g { ?a ex:r* ?b } }");
  ASSERT_EQ(inner.rows.size(), 6u);  // three zero-length pairs, three edges
  auto both = Q("SELECT ?x ?y ?a ?b WHERE { ?x (ex:p*|ex:q*) ?y . "
                "GRAPH ex:g { ?a ex:r* ?b } }");
  EXPECT_EQ(both.rows.size(), outer.rows.size() * inner.rows.size());
  // Every outer pair, once per inner pair.
  std::multiset<std::string> want, got;
  for (const auto& row : outer.rows) {
    for (size_t i = 0; i < inner.rows.size(); ++i) {
      want.insert(row[0].ToString() + " " + row[1].ToString());
    }
  }
  for (const auto& row : both.rows) {
    got.insert(row[0].ToString() + " " + row[1].ToString());
  }
  EXPECT_EQ(got, want);
}

TEST_F(ExecutorTest, NegatedPropertySet) {
  auto r = Q("SELECT ?o WHERE { ex:m !(ex:data) ?o }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].lexical(), "matrix");
}

TEST_F(ExecutorTest, VariablePredicate) {
  auto r = Q("SELECT DISTINCT ?p WHERE { [] foaf:name \"Alice\" . "
             "?s ?p \"Alice\" }");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(ExecutorTest, AggregatesWithGroupBy) {
  auto r = Q("SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?s) (AVG(?v) AS ?a) "
             "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?x ex:score ?v }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(3));
  EXPECT_EQ(r.rows[0][1], Term::Integer(60));
  EXPECT_EQ(r.rows[0][2], Term::Double(20));
  EXPECT_EQ(r.rows[0][3], Term::Integer(10));
  EXPECT_EQ(r.rows[0][4], Term::Integer(30));
}

TEST_F(ExecutorTest, CountEmptyGroupIsZero) {
  auto r = Q("SELECT (COUNT(*) AS ?n) WHERE { ?x ex:nothing ?v }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(0));
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:v4 ex:score 30 }").ok());
  auto r = Q("SELECT ?v (COUNT(*) AS ?n) WHERE { ?x ex:score ?v } "
             "GROUP BY ?v HAVING (COUNT(*) > 1) ");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(30));
  EXPECT_EQ(r.rows[0][1], Term::Integer(2));
}

TEST_F(ExecutorTest, GroupConcatAndSample) {
  auto r = Q("SELECT (GROUP_CONCAT(?n; SEPARATOR=\"|\") AS ?all) "
             "WHERE { ?p foaf:name ?n } ORDER BY ?all");
  ASSERT_EQ(r.rows.size(), 1u);
  // All four names joined (order follows solution order).
  EXPECT_EQ(std::count(r.rows[0][0].lexical().begin(),
                       r.rows[0][0].lexical().end(), '|'),
            3);
}

TEST_F(ExecutorTest, CountDistinct) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:v4 ex:score 30 }").ok());
  auto r = Q("SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?x ex:score ?v }");
  EXPECT_EQ(r.rows[0][0], Term::Integer(3));
}

TEST_F(ExecutorTest, OrderLimitOffset) {
  auto r = Q("SELECT ?v WHERE { ?x ex:score ?v } ORDER BY DESC(?v) "
             "LIMIT 2 OFFSET 1");
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"20", "10"}));
}

TEST_F(ExecutorTest, DistinctDeduplicates) {
  auto r = Q("SELECT DISTINCT ?t WHERE { ?x a ?t }");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(ExecutorTest, SelectStarColumns) {
  auto r = Q("SELECT * WHERE { ?s ex:score ?v }");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"s", "v"}));
}

TEST_F(ExecutorTest, AskQueries) {
  EXPECT_TRUE(*Ask(db_, "ASK { ?x foaf:name \"Alice\" }"));
  EXPECT_FALSE(*Ask(db_, "ASK { ?x foaf:name \"Nobody\" }"));
}

TEST_F(ExecutorTest, ConstructBuildsGraph) {
  Graph g = *Construct(db_, 
      "CONSTRUCT { ?y ex:knownBy ?x } WHERE { ?x foaf:knows ?y }");
  EXPECT_EQ(g.size(), 3u);
}

TEST_F(ExecutorTest, ConstructSkipsInvalidTriples) {
  // Unbound ?m (no matches inside OPTIONAL) must not produce triples.
  Graph g = *Construct(db_, 
      "CONSTRUCT { ?p ex:mail ?m } WHERE { ?p foaf:name ?n "
      "OPTIONAL { ?p foaf:mbox ?m } }");
  EXPECT_EQ(g.size(), 1u);  // only Alice has a mailbox
}

TEST_F(ExecutorTest, NamedGraphsViaGraphClause) {
  ASSERT_TRUE(db_.LoadTurtleString("@prefix ex: <http://example.org/> .\n"
                                   "ex:x ex:in ex:g1data .",
                                   "http://example.org/g1")
                  .ok());
  auto r = Q("SELECT ?g ?o WHERE { GRAPH ?g { ?s ex:in ?o } }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].iri(), "http://example.org/g1");
}

TEST_F(ExecutorTest, FromMergesNamedGraph) {
  ASSERT_TRUE(db_.LoadTurtleString("@prefix ex: <http://example.org/> .\n"
                                   "ex:y ex:score 99 .",
                                   "http://example.org/g2")
                  .ok());
  auto r = Q("SELECT ?v FROM ex:g2 WHERE { ?s ex:score ?v }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(99));
}

TEST_F(ExecutorTest, UpdateInsertDelete) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:new ex:score 40 }").ok());
  EXPECT_TRUE(*Ask(db_, "ASK { ex:new ex:score 40 }"));
  ASSERT_TRUE(scisparql::Run(db_, "DELETE DATA { ex:new ex:score 40 }").ok());
  EXPECT_FALSE(*Ask(db_, "ASK { ex:new ex:score 40 }"));
}

TEST_F(ExecutorTest, UpdateModify) {
  ASSERT_TRUE(scisparql::Run(db_, "DELETE { ?s ex:score ?v } "
                      "INSERT { ?s ex:points ?v } "
                      "WHERE { ?s ex:score ?v }")
                  .ok());
  EXPECT_FALSE(*Ask(db_, "ASK { ?s ex:score ?v }"));
  auto r = Q("SELECT (COUNT(*) AS ?n) WHERE { ?s ex:points ?v }");
  EXPECT_EQ(r.rows[0][0], Term::Integer(3));
}

TEST_F(ExecutorTest, UpdateDeleteWhere) {
  ASSERT_TRUE(scisparql::Run(db_, "DELETE WHERE { ?s ex:score ?v }").ok());
  EXPECT_FALSE(*Ask(db_, "ASK { ?s ex:score ?v }"));
}

TEST_F(ExecutorTest, ClearGraph) {
  ASSERT_TRUE(scisparql::Run(db_, "CLEAR DEFAULT").ok());
  EXPECT_TRUE(db_.dataset().default_graph().empty());
}

TEST_F(ExecutorTest, ArrayQueryOnGraphData) {
  auto r = Q("SELECT ?a[2, 1] (ASUM(?a) AS ?sum) WHERE { ex:m ex:data ?a }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(3));
  EXPECT_EQ(r.rows[0][1], Term::Double(10));
}

TEST_F(ExecutorTest, DefinedFunctionScalarCall) {
  ASSERT_TRUE(scisparql::Run(db_, "DEFINE FUNCTION ex:twice(?x) AS "
                      "SELECT (?x * 2 AS ?y) WHERE { }")
                  .ok());
  auto r = Q("SELECT (ex:twice(21) AS ?v) WHERE { }");
  EXPECT_EQ(r.rows[0][0], Term::Integer(42));
}

TEST_F(ExecutorTest, DefinedFunctionAsParameterizedView) {
  // A functional view over the graph (Section 4.2): scores above a
  // threshold. Called via BIND, it has DAPLEX bag semantics: one solution
  // per element.
  ASSERT_TRUE(scisparql::Run(db_, "DEFINE FUNCTION ex:bigScores(?min) AS "
                      "SELECT ?v WHERE { ?s ex:score ?v FILTER (?v > ?min) }")
                  .ok());
  auto r = Q("SELECT ?v WHERE { BIND (ex:bigScores(15) AS ?v) } ORDER BY ?v");
  EXPECT_EQ(Column(r, 0), (std::vector<std::string>{"20", "30"}));
}

TEST_F(ExecutorTest, DefinedFunctionComposition) {
  ASSERT_TRUE(scisparql::Run(db_, "DEFINE FUNCTION ex:inc(?x) AS "
                      "SELECT (?x + 1 AS ?y) WHERE { }")
                  .ok());
  ASSERT_TRUE(scisparql::Run(db_, "DEFINE FUNCTION ex:inc2(?x) AS "
                      "SELECT (ex:inc(ex:inc(?x)) AS ?y) WHERE { }")
                  .ok());
  auto r = Q("SELECT (ex:inc2(40) AS ?v) WHERE { }");
  EXPECT_EQ(r.rows[0][0], Term::Integer(42));
}

TEST_F(ExecutorTest, ForeignFunctionWithCost) {
  db_.RegisterForeign(
      "http://example.org/hypot",
      [](std::span<const Term> args) -> Result<Term> {
        SCISPARQL_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
        SCISPARQL_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
        return Term::Double(std::sqrt(a * a + b * b));
      },
      2, /*cost=*/5.0);
  auto r = Q("SELECT (ex:hypot(3, 4) AS ?h) WHERE { }");
  EXPECT_EQ(r.rows[0][0], Term::Double(5));
  EXPECT_EQ(db_.functions().FindForeign("http://example.org/hypot")->cost,
            5.0);
}

TEST_F(ExecutorTest, OptimizerAblationGivesSameResults) {
  const char* query =
      "SELECT ?n WHERE { ?p foaf:knows ?q . ?q foaf:name ?n . "
      "?p foaf:name \"Alice\" } ORDER BY ?n";
  auto optimized = Q(query);
  db_.exec_options().optimize_join_order = false;
  db_.exec_options().push_filters = false;
  auto naive = Q(query);
  EXPECT_EQ(Column(optimized, 0), Column(naive, 0));
}

TEST_F(ExecutorTest, ExplainShowsCostOrderedPlan) {
  std::string plan = *db_.Explain(
      "SELECT ?n WHERE { ?p foaf:knows ?q . ?p foaf:name \"Alice\" }");
  EXPECT_NE(plan.find("cost-ordered"), std::string::npos);
  // The selective name pattern must be scanned first.
  size_t name_pos = plan.find("\"Alice\"");
  size_t knows_pos = plan.find("foaf/0.1/knows");
  EXPECT_LT(name_pos, knows_pos);
}

TEST_F(ExecutorTest, NestedOptionalOrderSensitivity) {
  // The operational-semantics example family of Section 5.4.2: OPTIONAL
  // evaluated left-to-right with sideways information passing.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:o1 ex:p 1 . ex:o1 ex:q 2 }").ok());
  auto r = Q("SELECT ?x ?y WHERE { ex:o1 ex:p ?x "
             "OPTIONAL { ex:o1 ex:q ?y } OPTIONAL { ex:o1 ex:q ?x } }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(1));  // ?x stays 1
  EXPECT_EQ(r.rows[0][1], Term::Integer(2));
}

TEST_F(ExecutorTest, FilterOnVariableBoundOnlyInLaterOptional) {
  // ?v is bound by the OPTIONAL *after* the filter appears textually.
  // Group semantics: the filter applies to the whole group solution, so it
  // must see the OPTIONAL's binding (and not run early against unbound ?v).
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:v1 ex:bonus 25 }").ok());
  auto r = Q(R"(
SELECT ?s ?b WHERE {
  ?s ex:score ?v . FILTER(?b > 20)
  OPTIONAL { ?s ex:bonus ?b }
})");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].iri(), "http://example.org/v1");
  EXPECT_EQ(r.rows[0][1], Term::Integer(25));
}

TEST_F(ExecutorTest, FilterOnUnboundOptionalVarIsFalseNotError) {
  // When the OPTIONAL never binds ?b, the filter evaluates to an error,
  // which counts as false for that solution — the query must still
  // succeed (returning no rows), not abort.
  auto r = Q(R"(
SELECT ?s WHERE {
  ?s ex:score ?v . FILTER(?b > 20)
  OPTIONAL { ?s ex:missing ?b }
})");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, OrderByComparesMixedNumericTypesByValue) {
  // 9.5 as xsd:double must sort between the integers 2 and 30, not
  // lexically / by type.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m1 ex:metric 2 }").ok());
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m2 ex:metric 9.5 }").ok());
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m3 ex:metric 30 }").ok());
  ASSERT_TRUE(
      scisparql::Run(db_, "INSERT DATA { ex:m4 ex:metric "
              "\"12\"^^<http://www.w3.org/2001/XMLSchema#double> }")
          .ok());
  auto r = Q("SELECT ?s ?m WHERE { ?s ex:metric ?m } ORDER BY ?m");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].iri(), "http://example.org/m1");  // 2
  EXPECT_EQ(r.rows[1][0].iri(), "http://example.org/m2");  // 9.5
  EXPECT_EQ(r.rows[2][0].iri(), "http://example.org/m4");  // "12"^^double
  EXPECT_EQ(r.rows[3][0].iri(), "http://example.org/m3");  // 30
}

TEST_F(ExecutorTest, OrderByRejectsNonXsdNumericLexicalForms) {
  // xsd:long/xsd:float stay typed literals (the parser only folds
  // integer/decimal/double to native terms), so their lexical forms go
  // through the executor's numeric-sort-key parse. strtod would read
  // "0x10" as 16 and slot it between 9 and 20; XSD numeric syntax has no
  // hex, so the literal must fall back to term order after the numeric
  // group. A leading '+' *is* valid XSD syntax and must keep its key.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:h1 ex:metric 9 }").ok());
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:h2 ex:metric 20 }").ok());
  ASSERT_TRUE(
      scisparql::Run(db_, "INSERT DATA { ex:h3 ex:metric "
              "\"0x10\"^^<http://www.w3.org/2001/XMLSchema#long> }")
          .ok());
  ASSERT_TRUE(
      scisparql::Run(db_, "INSERT DATA { ex:h4 ex:metric "
              "\"12\"^^<http://www.w3.org/2001/XMLSchema#long> }")
          .ok());
  ASSERT_TRUE(
      scisparql::Run(db_, "INSERT DATA { ex:h5 ex:metric "
              "\"+12.5\"^^<http://www.w3.org/2001/XMLSchema#float> }")
          .ok());
  auto r = Q("SELECT ?s WHERE { ?s ex:metric ?m } ORDER BY ?m");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].iri(), "http://example.org/h1");  // 9
  EXPECT_EQ(r.rows[1][0].iri(), "http://example.org/h4");  // "12"^^long
  EXPECT_EQ(r.rows[2][0].iri(), "http://example.org/h5");  // "+12.5"^^float
  EXPECT_EQ(r.rows[3][0].iri(), "http://example.org/h2");  // 20
  EXPECT_EQ(r.rows[4][0].iri(), "http://example.org/h3");  // 0x10: term order
}

TEST_F(ExecutorTest, ArraySliceBadBoundsAreCleanErrors) {
  // ex:m ex:data is the 2x2 matrix from the fixture. Out-of-range bounds
  // and zero strides error out in the expression layer, which surfaces
  // here as an unbound projection (same contract as BIND errors) — never
  // as a garbage-shaped view. The error codes themselves are asserted in
  // test_eval.cpp.
  auto oob = Q("SELECT (?a[1:9, 1] AS ?x) WHERE { ex:m ex:data ?a }");
  ASSERT_EQ(oob.rows.size(), 1u);
  EXPECT_TRUE(oob.rows[0][0].IsUndef());

  auto zero = Q("SELECT (?a[1:2:0, 1] AS ?x) WHERE { ex:m ex:data ?a }");
  ASSERT_EQ(zero.rows.size(), 1u);
  EXPECT_TRUE(zero.rows[0][0].IsUndef());

  // In-range slice still works.
  auto ok = Q("SELECT (?a[1:2, 1] AS ?x) WHERE { ex:m ex:data ?a }");
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_FALSE(ok.rows[0][0].IsUndef());
}

// ---------------------------------------------------------------------------
// ORDER BY banding: unbound keys vs error keys are distinct sort bands.
// ---------------------------------------------------------------------------

/// Rows in three key classes: bound values, unbound (no ex:val at all),
/// and values that make the sort expression error (division by zero).
class OrderBandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(scisparql::Run(db_, R"(INSERT DATA {
      ex:r1 ex:val 4 . ex:r1 ex:tag "b4" .
      ex:r2 ex:val 0 . ex:r2 ex:tag "e1" .
      ex:r3 ex:tag "u1" .
      ex:r4 ex:val 2 . ex:r4 ex:tag "b2" .
      ex:r5 ex:tag "u2" .
      ex:r6 ex:val 0 . ex:r6 ex:tag "e2" .
    })")
                    .ok());
  }

  std::vector<std::string> Tags(const std::string& order) {
    auto r = Query(db_, 
        "PREFIX ex: <http://example.org/> SELECT ?t WHERE { ?s ex:tag ?t . "
        "OPTIONAL { ?s ex:val ?v } } ORDER BY " +
        order);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> tags;
    if (r.ok()) {
      for (const auto& row : r->rows) tags.push_back(row[0].lexical());
    }
    return tags;
  }

  SSDM db_;
};

TEST_F(OrderBandTest, BareUnboundVariableSortsInUnboundBandNotError) {
  // ?v unbound ranks lowest in the term order; 0-valued rows are plain
  // bound keys here, nothing errors.
  EXPECT_EQ(Tags("?v ?t"),
            (std::vector<std::string>{"u1", "u2", "e1", "e2", "b2", "b4"}));
  EXPECT_EQ(Tags("DESC(?v) ?t"),
            (std::vector<std::string>{"b4", "b2", "e1", "e2", "u1", "u2"}));
}

TEST_F(OrderBandTest, ErroredKeysSortInTheirOwnBandAfterValues) {
  // (10 / ?v) errors for ?v = 0 *and* for unbound ?v (the expression, not
  // the bare variable, fails to evaluate). Errors band after every
  // successfully computed key, ascending: b4 -> 10/4, b2 -> 10/2.
  EXPECT_EQ(Tags("(10 / ?v) ?t"),
            (std::vector<std::string>{"b4", "b2", "e1", "e2", "u1", "u2"}));
}

TEST_F(OrderBandTest, DescFlipsTheErrorBandToTheFront) {
  EXPECT_EQ(Tags("DESC(10 / ?v) ?t"),
            (std::vector<std::string>{"e1", "e2", "u1", "u2", "b2", "b4"}));
}

TEST_F(OrderBandTest, ErroredProjectionYieldsUnboundCell) {
  auto r = Query(db_, 
      "PREFIX ex: <http://example.org/> SELECT ?t (10 / ?v AS ?k) WHERE { "
      "?s ex:tag ?t . OPTIONAL { ?s ex:val ?v } } ORDER BY ?t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 6u);
  // b2/b4 compute; e1/e2 (divide by zero) and u1/u2 (unbound ?v) are
  // unbound cells, not dropped rows and not an aborted query.
  EXPECT_FALSE(r->rows[0][1].IsUndef());  // b2
  EXPECT_FALSE(r->rows[1][1].IsUndef());  // b4
  for (size_t i = 2; i < 6; ++i) EXPECT_TRUE(r->rows[i][1].IsUndef());
}

}  // namespace
}  // namespace scisparql
