// Dictionary / ID-tuple layer tests: term interning, permutation indexes,
// ID-join vs scan-and-bind equivalence, physical-operator reporting in
// EXPLAIN / EXPLAIN ANALYZE, the solution-modifier pipeline over both
// executors, dictionary-encoded WAL batches and snapshot sections.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bistab.h"
#include "engine/ssdm.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/id_index.h"
#include "storage/dict_section.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

Term I(const std::string& local) {
  return Term::Iri("http://example.org/" + local);
}

// ---------------------------------------------------------------------------
// TermDictionary.
// ---------------------------------------------------------------------------

TEST(Dictionary, InternIsExactIdentityAndRoundTrips) {
  TermDictionary d;
  uint32_t a = d.Intern(I("a"));
  uint32_t b = d.Intern(I("b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern(I("a")), a);  // same term, same ID
  EXPECT_EQ(d.term(a), I("a"));
  EXPECT_EQ(d.term(b), I("b"));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(*d.Find(I("a")), a);
  EXPECT_FALSE(d.Find(I("missing")).has_value());
}

TEST(Dictionary, IntegerAndIntegralDoubleShareOneId) {
  TermDictionary d;
  uint32_t two = d.Intern(Term::Integer(2));
  uint32_t two_and_half = d.Intern(Term::Double(2.5));
  EXPECT_NE(two, two_and_half);
  // 2 and 2.0 are one value: one ID, and the ID keeps the first form.
  EXPECT_EQ(d.Intern(Term::Double(2.0)), two);
  EXPECT_EQ(*d.Find(Term::Double(2.0)), two);
  EXPECT_EQ(d.term(two).kind(), Term::Kind::kInteger);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Dictionary, ValuesPastDoublePrecisionKeepDistinctIds) {
  // (double)(2^53+1) rounds to 2^53, but identity never widens an integer
  // to double: only an exactly equal integral double shares an ID.
  TermDictionary d;
  uint32_t big_double = d.Intern(Term::Double(9007199254740992.0));  // 2^53
  uint32_t big_int = d.Intern(Term::Integer(9007199254740993));      // +1
  EXPECT_NE(big_double, big_int);
  EXPECT_EQ(d.Intern(Term::Integer(9007199254740992)), big_double);
  EXPECT_FALSE(d.Find(Term::Integer(9007199254740994)).has_value());
  // Integral doubles past the int64 span equal no integer.
  d.Intern(Term::Integer(INT64_MAX));
  EXPECT_FALSE(d.Find(Term::Double(9223372036854775808.0)).has_value());
}

TEST(Dictionary, SignedZerosAndNaNsShareOneId) {
  TermDictionary d;
  uint32_t zero = d.Intern(Term::Double(-0.0));
  EXPECT_EQ(d.Intern(Term::Double(0.0)), zero);
  EXPECT_EQ(d.Intern(Term::Integer(0)), zero);
  uint32_t nan = d.Intern(Term::Double(std::nan("")));
  EXPECT_EQ(d.Intern(Term::Double(-std::nan("1"))), nan);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Dictionary, DistinctArrayObjectsGetDistinctIds) {
  TermDictionary d;
  Term a = Term::Array(
      ResidentArray::Make(NumericArray::Zeros(ElementType::kInt64, {2})));
  Term b = Term::Array(
      ResidentArray::Make(NumericArray::Zeros(ElementType::kInt64, {2})));
  ASSERT_TRUE(a == b);  // value-equal...
  uint32_t ia = d.Intern(a);
  EXPECT_NE(d.Intern(b), ia);  // ...but interned by object identity
  EXPECT_EQ(d.Intern(a), ia);
}

TEST(Dictionary, StringBytesTrackLexicalPayloads) {
  TermDictionary d;
  EXPECT_EQ(d.string_bytes(), 0u);
  d.Intern(Term::Integer(7));
  EXPECT_EQ(d.string_bytes(), 0u);
  d.Intern(Term::String("hello"));
  size_t after_string = d.string_bytes();
  EXPECT_GE(after_string, 5u);
  d.Intern(I("a-rather-long-iri-to-count"));
  EXPECT_GT(d.string_bytes(), after_string);
  d.Clear();
  EXPECT_EQ(d.string_bytes(), 0u);
  EXPECT_EQ(d.size(), 0u);
}

// ---------------------------------------------------------------------------
// Permutation indexes.
// ---------------------------------------------------------------------------

TEST(IdIndexes, PermutationsAreSortedAndCoverLiveRows) {
  Graph g;
  g.Add(I("s1"), I("p"), I("o1"));
  g.Add(I("s2"), I("p"), I("o2"));
  g.Add(I("s1"), I("q"), I("o2"));
  g.Add(I("s3"), I("p"), I("o1"));
  const IdIndexes& idx = g.EnsureIdIndexes();
  ASSERT_EQ(idx.spo.size(), 4u);
  ASSERT_EQ(idx.pos.size(), 4u);
  ASSERT_EQ(idx.osp.size(), 4u);
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    const auto& v = idx.perm(perm);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end(),
                               [perm](const IdTriple& a, const IdTriple& b) {
                                 return PermKey(perm, a) < PermKey(perm, b);
                               }))
        << PermName(perm);
  }
  EXPECT_EQ(idx.distinct_s, 3u);
  EXPECT_EQ(idx.distinct_p, 2u);
  EXPECT_EQ(idx.distinct_o, 2u);
  EXPECT_EQ(idx.distinct_sp, 4u);  // every (s,p) pair is unique here
}

TEST(IdIndexes, PrefixRangeSelectsMatchingRun) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.Add(I("s" + std::to_string(i)), I("p"), I("o"));
  g.Add(I("s0"), I("q"), I("x"));
  const IdIndexes& idx = g.EnsureIdIndexes();
  uint32_t p = *g.dict().Find(I("p"));
  auto [lo, hi] = PrefixRange(idx.pos, Perm::kPos, {p, 0, 0}, 1);
  EXPECT_EQ(hi - lo, 5u);
  for (size_t i = lo; i < hi; ++i) EXPECT_EQ(idx.pos[i].p, p);
  // Whole-table range.
  auto [alo, ahi] = PrefixRange(idx.spo, Perm::kSpo, {0, 0, 0}, 0);
  EXPECT_EQ(ahi - alo, g.size());
}

TEST(IdIndexes, RebuildAfterRemoveSkipsTombstones) {
  Graph g;
  g.Add(I("a"), I("p"), I("b"));
  g.Add(I("a"), I("p"), I("c"));
  EXPECT_EQ(g.EnsureIdIndexes().spo.size(), 2u);
  g.Remove(Triple{I("a"), I("p"), I("b")});
  const IdIndexes& idx = g.EnsureIdIndexes();
  ASSERT_EQ(idx.spo.size(), 1u);
  EXPECT_EQ(idx.spo[0].o, *g.dict().Find(I("c")));
}

// ---------------------------------------------------------------------------
// ID-join fast path vs scan-and-bind: identical results.
// ---------------------------------------------------------------------------

/// Engine with a small social-graph-shaped dataset exercised by every
/// equivalence query below, run through both executors.
class IdJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b , ex:c ; ex:age 30 ; ex:name "alice" .
ex:b ex:knows ex:c , ex:a ; ex:age 25 ; ex:name "bob" .
ex:c ex:knows ex:d ; ex:age 25 ; ex:name "cindy" .
ex:d ex:knows ex:a ; ex:age 40 ; ex:name "dan" .
ex:e ex:age 30 ; ex:name "eve" .
ex:loop ex:knows ex:loop .
)")
                    .ok());
  }

  /// Runs `q` with ID joins on and off and returns both row sets; asserts
  /// both succeed.
  void BothPaths(const std::string& q, std::vector<std::vector<Term>>* id_rows,
                 std::vector<std::vector<Term>>* scan_rows) {
    db_.exec_options().use_id_joins = true;
    auto r1 = Query(db_, q);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    *id_rows = r1->rows;
    db_.exec_options().use_id_joins = false;
    auto r2 = Query(db_, q);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    *scan_rows = r2->rows;
    db_.exec_options().use_id_joins = true;
  }

  /// Asserts both executors produce the same multiset of rows.
  void ExpectSameRows(const std::string& q) {
    std::vector<std::vector<Term>> id_rows, scan_rows;
    BothPaths(q, &id_rows, &scan_rows);
    auto key = [](const std::vector<Term>& row) {
      std::string k;
      for (const Term& t : row) k += t.ToString() + "\x1f";
      return k;
    };
    std::vector<std::string> a, b;
    for (const auto& r : id_rows) a.push_back(key(r));
    for (const auto& r : scan_rows) b.push_back(key(r));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << q;
  }

  /// Asserts both executors produce identical ordered rows.
  void ExpectSameOrderedRows(const std::string& q) {
    std::vector<std::vector<Term>> id_rows, scan_rows;
    BothPaths(q, &id_rows, &scan_rows);
    EXPECT_EQ(id_rows, scan_rows) << q;
  }

  SSDM db_;
};

TEST_F(IdJoinTest, StarChainAndCrossQueriesMatchScanAndBind) {
  // Subject star (hash joins).
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  // Chain (object of one pattern is subject of the next).
  ExpectSameRows(
      "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }");
  // Object-object join (merge join).
  ExpectSameRows(
      "SELECT ?x ?y WHERE { ?x ex:knows ?f . ?y ex:knows ?f }");
  // Cross product: no shared variables.
  ExpectSameRows("SELECT ?n ?m WHERE { ex:a ex:name ?n . ex:e ex:name ?m }");
  // Three-pattern mix with a constant object.
  ExpectSameRows(
      "SELECT ?s ?n WHERE { ?s ex:age 25 . ?s ex:name ?n . ?s ex:knows ?f }");
}

TEST_F(IdJoinTest, RepeatedVariablesAndMissingConstantsMatch) {
  // Repeated variable inside one pattern (self-loop).
  ExpectSameRows("SELECT ?x ?n WHERE { ?x ex:knows ?x . ?x ex:knows ?n }");
  // Constant absent from the data: zero solutions, not an error.
  ExpectSameRows(
      "SELECT ?s ?o WHERE { ?s ex:nothere ?o . ?o ex:knows ?x }");
}

TEST_F(IdJoinTest, FiltersApplyIdenticallyOnBothPaths) {
  ExpectSameRows(
      "SELECT ?s ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a . "
      "FILTER(?a > 24 && ?a < 31) }");
  // A filter that errors for some rows (division by zero semantics):
  // error rows are rejected on both paths.
  ExpectSameRows(
      "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:knows ?f . "
      "FILTER(10 / (?a - 25) > 0) }");
}

TEST_F(IdJoinTest, CrossKindNumericConstantsMatch) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m ex:score 10.0 . "
                      "ex:m ex:name \"mallory\" }")
                  .ok());
  // Integer literal 10 must match the stored double 10.0 on both paths
  // (the dictionary holds one ID per numeric value).
  ExpectSameRows("SELECT ?n WHERE { ?s ex:score 10 . ?s ex:name ?n }");
}

TEST_F(IdJoinTest, OverflowFallsBackToScanAndBind) {
  db_.exec_options().id_join_max_rows = 2;  // force mid-join overflow
  auto r = Query(db_, 
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 6u);
  db_.exec_options().id_join_max_rows = 8u << 20;
}

TEST_F(IdJoinTest, NumericAliasInDataDisablesFastPathSafely) {
  // 25.0 next to a stored 25 is one value: both executors must agree.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:z ex:age 25.0 . "
                      "ex:z ex:knows ex:a }")
                  .ok());
  ExpectSameRows("SELECT ?s WHERE { ?s ex:age 25 . ?s ex:knows ?f }");
}

TEST_F(IdJoinTest, IntegerConstantPastDoublePrecisionMatchesScanAndBind) {
  // Stored double 2^53; the query constant 2^53+1 widens to exactly that
  // double under FILTER `=`, but BGP matching is by exact value, so both
  // paths must agree that it matches nothing.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:big ex:score 9007199254740992.0 . "
                      "ex:big ex:name \"big\" }")
                  .ok());
  ExpectSameRows(
      "SELECT ?n WHERE { ?s ex:score 9007199254740993 . ?s ex:name ?n }");
  // The integer 2^53 is exactly the stored double: one value, one row.
  ExpectSameRows(
      "SELECT ?n WHERE { ?s ex:score 9007199254740992 . ?s ex:name ?n }");
}

TEST(IdJoinEdge, DoubleConstantPastPrecisionDoesNotMissStoredInteger) {
  // The mirror image: a huge integer stored, a double query constant equal
  // to it only under widening. BGP matching is by exact value, so the
  // constant matches nothing on either path; FILTER `=` keeps XPath
  // numeric promotion and still finds the row.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:huge ex:score 9007199254740993 . "
                      "ex:huge ex:name \"huge\" }")
                  .ok());
  for (bool id_joins : {true, false}) {
    db.exec_options().use_id_joins = id_joins;
    auto r = Query(db,
                   "SELECT ?n WHERE { ?s ex:score 9007199254740992.0 . "
                   "?s ex:name ?n }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 0u) << "use_id_joins=" << id_joins;
    auto f = Query(db,
                   "SELECT ?n WHERE { ?s ex:score ?v . ?s ex:name ?n . "
                   "FILTER (?v = 9007199254740992.0) }");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_EQ(f->rows.size(), 1u) << "use_id_joins=" << id_joins;
  }
}

TEST(IdJoinEdge, PathEndPastPrecisionMatchesByExactValueLikeALink) {
  // A property path's bound end lowers through the dictionary like a BGP
  // constant, so a closure matches it by exact value too: the double
  // 2^53 is not the stored integer 2^53+1 for a link, a `+` or a `*`.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(
      scisparql::Run(db, "INSERT DATA { ex:huge ex:score 9007199254740993 }")
          .ok());
  for (const char* path : {"ex:score", "ex:score+", "ex:score*"}) {
    auto r = Ask(db, std::string("ASK { ex:huge ") + path +
                         " 9007199254740992.0 }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(*r) << path;
    auto exact = Ask(db, std::string("ASK { ex:huge ") + path +
                             " 9007199254740993 }");
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_TRUE(*exact) << path;
  }
}

// ---------------------------------------------------------------------------
// Delta-aware ID-space scans: pending writes must not evict the fast path.
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, DeltaResidentConstantsResolveThroughIdPath) {
  db_.dataset().SetConcurrentWrites(true);
  // 33 and "fred" exist only in the unfolded delta: Apply interns them at
  // commit, so the ID path must find them instead of concluding "constant
  // missing from dictionary -> zero solutions".
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:f ex:age 33 . ex:f ex:knows ex:a . "
                      "ex:f ex:name \"fred\" }")
                  .ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  db_.exec_options().use_id_joins = true;
  auto r = Query(db_, "SELECT ?n WHERE { ?s ex:age 33 . ?s ex:name ?n }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Term::String("fred"));
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  // The equivalence checks above must have run against a still-pending
  // delta, not a folded one.
  EXPECT_TRUE(db_.dataset().default_graph().HasDelta());
}

TEST_F(IdJoinTest, DeltaTombstonesSuppressBaseRowsOnIdPath) {
  db_.dataset().SetConcurrentWrites(true);
  ASSERT_TRUE(scisparql::Run(db_, "DELETE DATA { ex:b ex:knows ex:c }").ok());
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:b ex:knows ex:e }").ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  ExpectSameRows("SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }");
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  EXPECT_TRUE(db_.dataset().default_graph().HasDelta());
}

TEST_F(IdJoinTest, ExplainShowsDeltaMergedScansWhileDeltaPending) {
  db_.dataset().SetConcurrentWrites(true);
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:f ex:age 27 . ex:f ex:knows ex:a }")
                  .ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  const std::string star =
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }";
  ASSERT_TRUE(Query(db_, star).ok());
  auto plan = db_.Explain(star);
  ASSERT_TRUE(plan.ok());
  // Still the ID path — and the scans advertise the merged delta run.
  EXPECT_NE(plan->find("index-scan("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("+delta"), std::string::npos) << *plan;
}

// ---------------------------------------------------------------------------
// Arrays on the ID path: identity IDs, value-checked constants.
// ---------------------------------------------------------------------------

Term IntArray(std::vector<int64_t> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Term::Array(ResidentArray::Make(
      NumericArray::FromInts({n}, std::move(values)).value()));
}

TEST(IdJoinArrays, BistabQ4TakesTheIdPath) {
  SSDM db;
  apps::BistabConfig cfg;
  cfg.parameter_cases = 3;
  cfg.realizations = 2;
  cfg.timesteps = 20;
  ASSERT_TRUE(apps::GenerateBistab(&db, cfg).ok());
  const std::string q4 = apps::BistabQ4(cfg.timesteps);
  auto id_rows = Query(db, q4);
  ASSERT_TRUE(id_rows.ok()) << id_rows.status().ToString();
  auto plan = db.Explain(q4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("index-scan("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("-join("), std::string::npos) << *plan;
  db.exec_options().use_id_joins = false;
  auto scan_rows = Query(db, q4);
  ASSERT_TRUE(scan_rows.ok()) << scan_rows.status().ToString();
  EXPECT_EQ(id_rows->rows, scan_rows->rows);
  EXPECT_EQ(id_rows->rows.size(), 3u);
}

/// ex:a and ex:d hold one array object, ex:c a distinct value-equal copy,
/// ex:b a different array.
class IdJoinArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    Graph& g = db_.dataset().default_graph();
    shared_ = IntArray({1, 2, 3});
    g.Add(I("a"), I("arr"), shared_);
    g.Add(I("b"), I("arr"), IntArray({4, 5}));
    g.Add(I("c"), I("copy"), IntArray({1, 2, 3}));
    g.Add(I("d"), I("copy"), shared_);
    for (const char* s : {"a", "b", "c", "d"}) {
      g.Add(I(s), I("name"), Term::String(s));
    }
  }

  std::multiset<std::string> Rows(const std::string& q, bool id_joins) {
    db_.exec_options().use_id_joins = id_joins;
    auto r = Query(db_, q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::multiset<std::string> out;
    if (!r.ok()) return out;
    for (const auto& row : r->rows) {
      std::string k;
      for (const Term& t : row) k += t.ToString() + " ";
      out.insert(k);
    }
    return out;
  }

  SSDM db_;
  Term shared_;
};

TEST_F(IdJoinArrayTest, OuterBoundArrayMatchesByValueOnBothPaths) {
  // The OPTIONAL's BGP sees ?v bound to ex:a's array: it lowers to a slot
  // plus a value check, so ex:c's equal copy matches as well as ex:d's
  // shared object — as scan-and-bind's value scan does.
  const std::string q =
      "SELECT ?s ?n WHERE { ?s ex:arr ?v . "
      "OPTIONAL { ?t ex:copy ?v . ?t ex:name ?n } }";
  std::multiset<std::string> id = Rows(q, true);
  EXPECT_EQ(id, Rows(q, false));
  EXPECT_EQ(id, (std::multiset<std::string>{
                    "<http://example.org/a> \"c\" ",
                    "<http://example.org/a> \"d\" ",
                    "<http://example.org/b> UNDEF "}));
}

TEST_F(IdJoinArrayTest, SharedArrayVariableJoinsByStoredIdentity) {
  // The named divergence: two patterns sharing an array variable join by
  // the stored object on the ID path (ex:d holds ex:a's object, ex:c only
  // an equal copy); scan-and-bind substitutes the value instead.
  const std::string q =
      "SELECT ?s ?t WHERE { ?s ex:arr ?v . ?t ex:copy ?v }";
  EXPECT_EQ(Rows(q, true),
            std::multiset<std::string>{
                "<http://example.org/a> <http://example.org/d> "});
  EXPECT_EQ(Rows(q, false).size(), 2u);
}

TEST_F(IdJoinArrayTest, PendingArrayTombstoneSuppressesItsBaseCopy) {
  // A removal spelled with a fresh value-equal array object must hide the
  // stored triple from the ID path while it is still in the delta.
  db_.dataset().SetConcurrentWrites(true);
  Graph& g = db_.dataset().default_graph();
  EXPECT_EQ(g.Remove(Triple{I("a"), I("arr"), IntArray({1, 2, 3})}), 1u);
  ASSERT_TRUE(g.HasDelta());
  const std::string q = "SELECT ?s ?n WHERE { ?s ex:arr ?v . ?s ex:name ?n }";
  std::multiset<std::string> id = Rows(q, true);
  EXPECT_EQ(id, Rows(q, false));
  EXPECT_EQ(id, (std::multiset<std::string>{
                    "<http://example.org/b> \"b\" "}));
}

TEST_F(IdJoinArrayTest, PathArrayEndMatchesValueEqualNodes) {
  // A path end bound to an array stands for the stored arrays equal to it
  // (the BGP residual rule): ex:c's copy and ex:d's shared object both
  // reach ex:a's value, ex:b's different array does not.
  const std::string q =
      "SELECT ?t WHERE { ex:a ex:arr ?v . ?t ex:copy+ ?v }";
  EXPECT_EQ(Rows(q, true), (std::multiset<std::string>{
                               "<http://example.org/c> ",
                               "<http://example.org/d> "}));
  const std::string inv = "SELECT ?t WHERE { ex:a ex:arr ?v . ?v ^ex:copy ?t }";
  EXPECT_EQ(Rows(inv, true), Rows(q, true));
}

// ---------------------------------------------------------------------------
// Physical operators in EXPLAIN / EXPLAIN ANALYZE.
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, ExplainShowsChosenPhysicalOperators) {
  const std::string star =
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }";
  ASSERT_TRUE(Query(db_, star).ok());
  auto plan = db_.Explain(star);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index-scan("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("hash-join("), std::string::npos) << *plan;

  const std::string obj =
      "SELECT ?x ?y WHERE { ?x ex:knows ?f . ?y ex:knows ?f }";
  ASSERT_TRUE(Query(db_, obj).ok());
  auto plan2 = db_.Explain(obj);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->find("merge-join("), std::string::npos) << *plan2;
}

TEST_F(IdJoinTest, ExplainAnalyzeCarriesPhysicalOperators) {
  auto out = db_.Execute(
      "EXPLAIN ANALYZE SELECT ?x ?y WHERE { ?x ex:knows ?f . "
      "?y ex:knows ?f }");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->info().find("merge-join("), std::string::npos) << out->info();
}

// ---------------------------------------------------------------------------
// Solution-modifier pipeline over both executors (satellite: ORDER BY /
// DISTINCT / OFFSET / LIMIT interplay must not depend on the join path).
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, OrderByProducesIdenticalRowsOnBothPaths) {
  // Total order (age, then name) — both executors must agree exactly.
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a ?n");
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY DESC(?a) ?n");
}

TEST_F(IdJoinTest, DistinctPreservesSortedOrderOnBothPaths) {
  ExpectSameOrderedRows(
      "SELECT DISTINCT ?a WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a");
}

TEST_F(IdJoinTest, OffsetPastEndAndLimitZeroOnBothPaths) {
  for (bool id_joins : {true, false}) {
    db_.exec_options().use_id_joins = id_joins;
    auto past = Query(db_, 
        "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } OFFSET 100");
    ASSERT_TRUE(past.ok());
    EXPECT_TRUE(past->rows.empty());
    auto zero = Query(db_, 
        "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } LIMIT 0");
    ASSERT_TRUE(zero.ok());
    EXPECT_TRUE(zero->rows.empty());
  }
  db_.exec_options().use_id_joins = true;
}

TEST_F(IdJoinTest, DistinctWithLimitOnBothPaths) {
  ExpectSameOrderedRows(
      "SELECT DISTINCT ?a WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a LIMIT 2");
}

// ---------------------------------------------------------------------------
// Dictionary-encoded WAL batches.
// ---------------------------------------------------------------------------

TEST(WalDictRefs, RepeatedTermsRoundTripThroughBatchRefs) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = ::testing::TempDir() + "/wal_dict_refs";
  (void)::system(("rm -rf " + dir).c_str());
  ASSERT_TRUE(vfs->CreateDir(dir).ok());
  auto wal = *storage::WalWriter::Create(vfs, dir, 1);

  // One batch whose terms repeat heavily (shared subject and predicate):
  // repeats are written as dictionary back-references, and must decode to
  // the identical triples.
  std::vector<storage::WalRecord> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({storage::WalRecord::Type::kAdd, 0, "",
                     Triple{I("subject"), I("predicate"),
                            I("o" + std::to_string(i % 4))}});
  }
  ASSERT_TRUE(wal->AppendBatch(batch).ok());
  // A second batch reusing the same terms: back-references are batch-
  // scoped, so this one re-emits them and decodes independently.
  std::vector<storage::WalRecord> batch2 = {
      {storage::WalRecord::Type::kRemove, 0, "",
       Triple{I("subject"), I("predicate"), I("o1")}}};
  ASSERT_TRUE(wal->AppendBatch(batch2).ok());

  auto resolve = [](const std::string&, uint64_t) -> Result<Term> {
    return Status::Internal("no proxies in this test");
  };
  Graph g;
  auto stats = *storage::ReplayWal(
      vfs, dir, 0, resolve, [&g](const storage::WalRecord& rec) -> Status {
        if (rec.type == storage::WalRecord::Type::kAdd) g.Add(rec.triple);
        if (rec.type == storage::WalRecord::Type::kRemove)
          g.Remove(rec.triple);
        return Status::OK();
      });
  EXPECT_EQ(stats.batches_applied, 2u);
  // 16 adds cover 4 distinct objects; the graph is a set, so the dups
  // collapse to 4 triples and the Remove drops the one o1 copy.
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.Contains(I("subject"), I("predicate"), I("o0")));
  EXPECT_FALSE(g.Contains(I("subject"), I("predicate"), I("o1")));

  // The repeated terms must actually have been compressed: the segment
  // should be far smaller than 16 verbatim triple encodings.
  auto names = *vfs->ListDir(dir);
  ASSERT_EQ(names.size(), 1u);
  auto f = *vfs->Open(dir + "/" + names[0], storage::Vfs::OpenMode::kRead);
  uint64_t size = *f->Size();
  size_t one_triple = 3 * (5 + I("subject").iri().size());
  EXPECT_LT(size, 17 * one_triple);
}

// ---------------------------------------------------------------------------
// Dictionary-encoded snapshot sections.
// ---------------------------------------------------------------------------

TEST(DictSection, RoundTripsTermsOnceAndSkipsTombstones) {
  Graph g;
  for (int i = 0; i < 50; ++i) {
    g.Add(I("s" + std::to_string(i % 5)), I("p"), Term::Integer(i));
    g.Add(I("s" + std::to_string(i % 5)), I("label"),
          Term::String("node" + std::to_string(i % 5)));
  }
  g.Remove(Triple{I("s0"), I("p"), Term::Integer(0)});

  auto body = storage::EncodeDictSection(g);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_TRUE(storage::IsDictSection(*body));

  Graph out;
  ASSERT_TRUE(storage::DecodeDictSection(*body, nullptr, &out).ok());
  EXPECT_EQ(out.size(), g.size());
  EXPECT_FALSE(out.Contains(I("s0"), I("p"), Term::Integer(0)));
  EXPECT_TRUE(out.Contains(I("s1"), I("p"), Term::Integer(1)));
  EXPECT_TRUE(
      out.Contains(I("s2"), I("label"), Term::String("node2")));
}

TEST(DictSection, TurtleBodiesAreNotMistakenForSections) {
  EXPECT_FALSE(storage::IsDictSection("@prefix ex: <http://e/> ."));
  EXPECT_FALSE(storage::IsDictSection(""));
  Graph g;
  EXPECT_EQ(
      storage::DecodeDictSection("not a section", nullptr, &g).code(),
      StatusCode::kInternal);
}

TEST(DictSection, CorruptBodiesFailCleanly) {
  Graph g;
  g.Add(I("a"), I("p"), I("b"));
  std::string body = *storage::EncodeDictSection(g);
  // Truncations anywhere must error, never crash or mis-decode.
  for (size_t cut = 1; cut < body.size(); cut += 3) {
    Graph out;
    std::string torn = body.substr(0, cut);
    if (!storage::IsDictSection(torn)) continue;
    EXPECT_FALSE(storage::DecodeDictSection(torn, nullptr, &out).ok());
  }
}

}  // namespace
}  // namespace scisparql
