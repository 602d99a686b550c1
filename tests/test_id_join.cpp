// Dictionary / ID-tuple layer tests: term interning, permutation indexes,
// the ID pipeline against the oracle (tests/oracle/) and its named
// divergence classes, physical-operator reporting in EXPLAIN / EXPLAIN
// ANALYZE, the solution-modifier pipeline, dictionary-encoded WAL batches
// and snapshot sections.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bistab.h"
#include "engine/ssdm.h"
#include "oracle/oracle.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/id_index.h"
#include "sparql/id_join.h"
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
// The ID pipeline against the oracle: identical results.
// ---------------------------------------------------------------------------

/// Rows rendered for comparison, in their order.
std::vector<std::string> RowKeys(const std::vector<std::vector<Term>>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string k;
    for (const Term& t : row) k += t.ToString() + "\x1f";
    out.push_back(std::move(k));
  }
  return out;
}

/// Engine with a small social-graph-shaped dataset exercised by every
/// equivalence query below, run through the engine and the oracle.
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

  /// Runs `q` on the engine and on the oracle (engine semantics) and
  /// returns both rows, rendered; asserts both succeed.
  void EngineAndOracle(const std::string& q, std::vector<std::string>* engine,
                       std::vector<std::string>* reference) {
    auto r1 = Query(db_, q);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    *engine = RowKeys(r1->rows);
    auto r2 = oracle::Evaluate(db_, q);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    *reference = RowKeys(r2->rows);
  }

  /// Asserts the engine and the oracle produce the same multiset of rows.
  void ExpectSameRows(const std::string& q) {
    std::vector<std::string> a, b;
    EngineAndOracle(q, &a, &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << q;
  }

  /// Asserts the engine and the oracle produce identical ordered rows.
  void ExpectSameOrderedRows(const std::string& q) {
    std::vector<std::string> a, b;
    EngineAndOracle(q, &a, &b);
    EXPECT_EQ(a, b) << q;
  }

  SSDM db_;
};

TEST_F(IdJoinTest, StarChainAndCrossQueriesMatchTheOracle) {
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

TEST_F(IdJoinTest, FiltersApplyAsInTheOracle) {
  ExpectSameRows(
      "SELECT ?s ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a . "
      "FILTER(?a > 24 && ?a < 31) }");
  // A filter that errors for some rows (division by zero semantics):
  // error rows are rejected by both.
  ExpectSameRows(
      "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:knows ?f . "
      "FILTER(10 / (?a - 25) > 0) }");
}

TEST_F(IdJoinTest, CrossKindNumericConstantsMatch) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m ex:score 10.0 . "
                      "ex:m ex:name \"mallory\" }")
                  .ok());
  // Integer literal 10 must match the stored double 10.0 (the dictionary
  // holds one ID per numeric value).
  const std::string q = "SELECT ?n WHERE { ?s ex:score 10 . ?s ex:name ?n }";
  ExpectSameRows(q);
  // The named divergence: W3C matches BGP terms by RDF term equality, so
  // an xsd:integer constant misses the stored xsd:double.
  auto w3c = oracle::Evaluate(db_, q,
                              oracle::Semantics::Engine().Without(
                                  oracle::Divergence::kExactValueNumerics));
  ASSERT_TRUE(w3c.ok()) << w3c.status().ToString();
  EXPECT_TRUE(w3c->rows.empty());
  auto engine = Query(db_, q);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->rows.size(), 1u);
}

/// An unbound slot of a hand-lowered pattern.
sparql::IdSlot VarSlot(int slot) {
  sparql::IdSlot s;
  s.is_var = true;
  s.slot = slot;
  return s;
}

/// A constant of a hand-lowered pattern, resolved through `g`'s dictionary.
sparql::IdSlot ConstSlot(const Graph& g, const Term& t) {
  sparql::IdSlot s;
  s.const_id = *g.dict().Find(t);
  return s;
}

/// Runs `pats` through an IdJoin over `g`'s permutations with a row cap
/// of `max_rows`; returns the rows in ascending order and the step profile
/// in *steps.
std::vector<std::vector<uint32_t>> IdJoinRows(
    const Graph& g, const std::vector<sparql::IdPattern>& pats,
    size_t max_rows, std::vector<sparql::IdJoinStep>* steps) {
  std::vector<std::vector<uint32_t>> rows;
  sparql::IdJoin join(pats);
  const size_t width = join.slots().size();
  Status s = join.Run(g.EnsureIdIndexes(), nullptr, max_rows, nullptr,
                      [&](const uint32_t* row) {
                        rows.emplace_back(row, row + width);
                        return true;
                      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  *steps = join.steps();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(IdJoinTest, JoinPastTheRowCapStreams) {
  const Graph& g = db_.dataset().default_graph();
  const sparql::IdSlot knows = ConstSlot(g, I("knows"));
  const sparql::IdSlot age = ConstSlot(g, I("age"));
  // ?s ex:knows ?f . ?s ex:age ?a: at a cap of 2 the first scan (7 rows)
  // is already past it, so the whole join streams from the start.
  const std::vector<sparql::IdPattern> star = {
      {VarSlot(0), knows, VarSlot(1)}, {VarSlot(0), age, VarSlot(2)}};
  std::vector<sparql::IdJoinStep> full, capped;
  const auto want = IdJoinRows(g, star, SIZE_MAX, &full);
  EXPECT_EQ(want.size(), 6u);
  for (size_t cap : {2u, 30u}) {
    EXPECT_EQ(IdJoinRows(g, star, cap, &capped), want) << cap;
  }
  IdJoinRows(g, star, 2, &capped);
  EXPECT_EQ(capped[0].op, opt::PhysicalOp::kIndexScan);
  EXPECT_EQ(capped[1].op, opt::PhysicalOp::kBindJoin);
  EXPECT_EQ(capped[1].out_rows, 6u);

  // ex:a ex:knows ?f . ?y ex:age ?v: the 2-row first scan fits, the
  // 10-row cross product does not, so its step streams as a scan of the
  // constant prefix per left row.
  const std::vector<sparql::IdPattern> cross = {
      {ConstSlot(g, I("a")), knows, VarSlot(0)},
      {VarSlot(1), age, VarSlot(2)}};
  const auto want_cross = IdJoinRows(g, cross, SIZE_MAX, &full);
  EXPECT_EQ(want_cross.size(), 10u);
  EXPECT_EQ(full[1].op, opt::PhysicalOp::kHashJoin);
  for (size_t cap : {2u, 30u}) {
    EXPECT_EQ(IdJoinRows(g, cross, cap, &capped), want_cross) << cap;
  }
  IdJoinRows(g, cross, 2, &capped);
  EXPECT_EQ(capped[1].op, opt::PhysicalOp::kIndexScan);
  EXPECT_EQ(capped[1].out_rows, 10u);
}

TEST_F(IdJoinTest, NumericAliasInDataDisablesFastPathSafely) {
  // 25.0 next to a stored 25 is one value: the engine and the oracle must
  // agree.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:z ex:age 25.0 . "
                      "ex:z ex:knows ex:a }")
                  .ok());
  ExpectSameRows("SELECT ?s WHERE { ?s ex:age 25 . ?s ex:knows ?f }");
}

TEST_F(IdJoinTest, IntegerConstantPastDoublePrecisionMatchesTheOracle) {
  // Stored double 2^53; the query constant 2^53+1 widens to exactly that
  // double under FILTER `=`, but BGP matching is by exact value, so the
  // engine and the oracle must agree that it matches nothing.
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
  // constant matches nothing in the engine or the oracle; FILTER `=` keeps
  // XPath numeric promotion and still finds the row.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:huge ex:score 9007199254740993 . "
                      "ex:huge ex:name \"huge\" }")
                  .ok());
  const std::string constant =
      "SELECT ?n WHERE { ?s ex:score 9007199254740992.0 . ?s ex:name ?n }";
  const std::string filter =
      "SELECT ?n WHERE { ?s ex:score ?v . ?s ex:name ?n . "
      "FILTER (?v = 9007199254740992.0) }";
  auto r = Query(db, constant);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 0u);
  auto f = Query(db, filter);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->rows.size(), 1u);
  auto oracle_r = oracle::Evaluate(db, constant);
  ASSERT_TRUE(oracle_r.ok()) << oracle_r.status().ToString();
  EXPECT_EQ(oracle_r->rows.size(), 0u);
  auto oracle_f = oracle::Evaluate(db, filter);
  ASSERT_TRUE(oracle_f.ok()) << oracle_f.status().ToString();
  EXPECT_EQ(oracle_f->rows.size(), 1u);
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
  ASSERT_EQ(id_rows->rows.size(), 3u);

  // Q4's ungrouped solutions (the BGP over the array subscripts and the
  // BIND), checked against the oracle row by row.
  const size_t where = q4.find("WHERE {");
  const size_t group = q4.find("} GROUP BY");
  ASSERT_NE(where, std::string::npos);
  ASSERT_NE(group, std::string::npos);
  const std::string solutions = q4.substr(0, q4.find("SELECT")) +
                                "SELECT ?task ?k1 ?high " +
                                q4.substr(where, group + 1 - where);
  auto engine = Query(db, solutions);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto ungrouped = oracle::Evaluate(db, solutions);
  ASSERT_TRUE(ungrouped.ok()) << ungrouped.status().ToString();
  std::vector<std::string> a = RowKeys(engine->rows);
  std::vector<std::string> b = RowKeys(ungrouped->rows);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // Q4 per ?k1 — the mean of ?high and the realization count — against
  // the oracle's grouping, in the engine's group order (the term order of
  // the keys).
  auto reference = oracle::Evaluate(db, q4);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::vector<Term>> grouped = reference->rows;
  std::sort(grouped.begin(), grouped.end(), [](const auto& x, const auto& y) {
    return Term::Compare(x[0], y[0]) < 0;
  });
  EXPECT_EQ(id_rows->rows, grouped);
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

  static std::multiset<std::string> Keys(
      const std::vector<std::vector<Term>>& rows) {
    std::multiset<std::string> out;
    for (const auto& row : rows) {
      std::string k;
      for (const Term& t : row) k += t.ToString() + " ";
      out.insert(k);
    }
    return out;
  }

  /// The engine's rows for `q`.
  std::multiset<std::string> Rows(const std::string& q) {
    auto r = Query(db_, q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Keys(r->rows) : std::multiset<std::string>();
  }

  /// The oracle's rows for `q` under `sem`.
  std::multiset<std::string> OracleRows(
      const std::string& q,
      oracle::Semantics sem = oracle::Semantics::Engine()) {
    auto r = oracle::Evaluate(db_, q, sem);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Keys(r->rows) : std::multiset<std::string>();
  }

  SSDM db_;
  Term shared_;
};

TEST_F(IdJoinArrayTest, OuterBoundArrayMatchesByValue) {
  // The OPTIONAL's BGP sees ?v bound to ex:a's array: it lowers to a slot
  // plus a value check, so ex:c's equal copy matches as well as ex:d's
  // shared object — as the oracle's value match does.
  const std::string q =
      "SELECT ?s ?n WHERE { ?s ex:arr ?v . "
      "OPTIONAL { ?t ex:copy ?v . ?t ex:name ?n } }";
  std::multiset<std::string> id = Rows(q);
  EXPECT_EQ(id, OracleRows(q));
  EXPECT_EQ(id, (std::multiset<std::string>{
                    "<http://example.org/a> \"c\" ",
                    "<http://example.org/a> \"d\" ",
                    "<http://example.org/b> UNDEF "}));
}

TEST_F(IdJoinArrayTest, SharedArrayVariableJoinsByStoredIdentity) {
  // The named divergence: two patterns sharing an array variable join by
  // the stored object on the ID path (ex:d holds ex:a's object, ex:c only
  // an equal copy); by SciSPARQL's array equality they join by value.
  const std::string q =
      "SELECT ?s ?t WHERE { ?s ex:arr ?v . ?t ex:copy ?v }";
  const std::multiset<std::string> engine = Rows(q);
  EXPECT_EQ(engine, std::multiset<std::string>{
                        "<http://example.org/a> <http://example.org/d> "});
  EXPECT_EQ(engine, OracleRows(q));
  EXPECT_EQ(OracleRows(q, oracle::Semantics::Engine().Without(
                              oracle::Divergence::kArrayIdentityJoins)),
            (std::multiset<std::string>{
                "<http://example.org/a> <http://example.org/c> ",
                "<http://example.org/a> <http://example.org/d> "}));
}

TEST_F(IdJoinArrayTest, PendingArrayTombstoneSuppressesItsBaseCopy) {
  // A removal spelled with a fresh value-equal array object must hide the
  // stored triple from the ID path while it is still in the delta.
  db_.dataset().SetConcurrentWrites(true);
  Graph& g = db_.dataset().default_graph();
  EXPECT_EQ(g.Remove(Triple{I("a"), I("arr"), IntArray({1, 2, 3})}), 1u);
  ASSERT_TRUE(g.HasDelta());
  const std::string q = "SELECT ?s ?n WHERE { ?s ex:arr ?v . ?s ex:name ?n }";
  std::multiset<std::string> id = Rows(q);
  EXPECT_EQ(id, OracleRows(q));
  EXPECT_EQ(id, (std::multiset<std::string>{
                    "<http://example.org/b> \"b\" "}));
}

TEST_F(IdJoinArrayTest, PathArrayEndMatchesValueEqualNodes) {
  // A path end bound to an array stands for the stored arrays equal to it
  // (the BGP residual rule): ex:c's copy and ex:d's shared object both
  // reach ex:a's value, ex:b's different array does not.
  const std::string q =
      "SELECT ?t WHERE { ex:a ex:arr ?v . ?t ex:copy+ ?v }";
  EXPECT_EQ(Rows(q), (std::multiset<std::string>{"<http://example.org/c> ",
                                                 "<http://example.org/d> "}));
  EXPECT_EQ(Rows(q), OracleRows(q));
  const std::string inv = "SELECT ?t WHERE { ex:a ex:arr ?v . ?v ^ex:copy ?t }";
  EXPECT_EQ(Rows(inv), Rows(q));
  EXPECT_EQ(OracleRows(inv), Rows(q));
}

// ---------------------------------------------------------------------------
// Bind joins: a selective left side probes a large right range by key.
// ---------------------------------------------------------------------------

/// 2,000 documents over 100 journals (20 each), two creators and a
/// reviewer per document, 150 named persons. The ranges of the document
/// predicates are far larger than the few keys one journal's documents
/// bind, so the steps after a journal's scan are bind joins.
class BindJoinTest : public IdJoinTest {
 protected:
  void SetUp() override {
    IdJoinTest::SetUp();
    std::string ttl = "@prefix ex: <http://example.org/> .\n";
    for (int i = 0; i < 2000; ++i) {
      const std::string d = "ex:d" + std::to_string(i);
      ttl += d + " ex:journal ex:j" + std::to_string(i % 100) +
             " ; ex:year " + std::to_string(1990 + i % 30) +
             " ; ex:creator ex:p" + std::to_string(i % 97) + " , ex:p" +
             std::to_string(97 + i % 53) + " ; ex:reviewer ex:p" +
             std::to_string(i % 3 == 0 ? i % 97 : i % 150) + " ; ex:cites " +
             (i % 5 == 0 ? d : "ex:d" + std::to_string((i + 1) % 2000)) +
             " .\n";
    }
    for (int k = 0; k < 150; ++k) {
      ttl += "ex:p" + std::to_string(k) + " ex:name \"person " +
             std::to_string(k) + "\" .\n";
    }
    for (int j = 0; j < 100; ++j) {
      ttl += "ex:j" + std::to_string(j) + " ex:title \"J " +
             std::to_string(j) + "\" .\n";
    }
    ASSERT_TRUE(db_.LoadTurtleString(ttl).ok());
  }

  /// Asserts that the engine agrees with the oracle on `q` and that the ID
  /// path ran it with a bind join whose label contains `label`.
  void ExpectBindJoin(const std::string& q,
                      const std::string& label = "bind-join(") {
    ExpectSameRows(q);
    auto plan = db_.Explain(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(label), std::string::npos) << *plan;
  }
};

const char kBindChain[] =
    "SELECT ?d ?p ?n WHERE { ?j ex:title \"J 3\" . ?d ex:journal ?j . "
    "?d ex:creator ?p . ?p ex:name ?n }";
const char kBindStar[] =
    "SELECT ?d ?y ?p WHERE { ?d ex:journal ex:j3 . ?d ex:year ?y . "
    "?d ex:creator ?p }";

TEST_F(BindJoinTest, ChainAndStarMatchTheOracle) {
  ExpectBindJoin(kBindChain, "bind-join(SPO on ?d)");
  ExpectBindJoin(kBindStar, "bind-join(SPO on ?d)");
  auto rows = Query(db_, kBindChain);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 40u);  // 20 documents, 2 creators each
  // A bind join keeps the left side's order, so a later step can still
  // merge, and solution modifiers see the same rows.
  ExpectSameOrderedRows(std::string(kBindStar) + " ORDER BY ?y ?d ?p");
  ExpectSameOrderedRows(std::string(kBindChain) + " ORDER BY ?n ?d LIMIT 7");
  // An all-constant pattern leaves a zero-width relation for the next
  // step to join.
  ExpectSameRows(
      "SELECT ?p WHERE { ex:d3 ex:journal ex:j3 . ex:d3 ex:creator ?p }");
}

TEST_F(BindJoinTest, MaterializedBindJoinFeedsALaterHashJoin) {
  // 150 names are too few to probe 40 creators one by one: the creator
  // bind join is materialized and the name step hash-joins it.
  const std::string q =
      "SELECT ?d ?n WHERE { ?d ex:journal ex:j3 . ?d ex:creator ?p . "
      "?p ex:name ?n }";
  ExpectBindJoin(q, "bind-join(SPO on ?d)");
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash-join("), std::string::npos) << *plan;
  // Past a row cap of 30 the 40-row creator step, and the name step after
  // it, stream from the 20 journal rows instead; past a cap of 2 the
  // journal scan streams too. The rows are the same.
  const Graph& g = db_.dataset().default_graph();
  const std::vector<sparql::IdPattern> pats = {
      {VarSlot(0), ConstSlot(g, I("journal")), ConstSlot(g, I("j3"))},
      {VarSlot(0), ConstSlot(g, I("creator")), VarSlot(1)},
      {VarSlot(1), ConstSlot(g, I("name")), VarSlot(2)}};
  std::vector<sparql::IdJoinStep> full, capped;
  const auto want = IdJoinRows(g, pats, SIZE_MAX, &full);
  EXPECT_EQ(want.size(), 40u);
  EXPECT_EQ(full[2].op, opt::PhysicalOp::kHashJoin);
  for (size_t cap : {2u, 30u}) {
    EXPECT_EQ(IdJoinRows(g, pats, cap, &capped), want) << cap;
    EXPECT_EQ(capped[1].op, opt::PhysicalOp::kBindJoin) << cap;
    EXPECT_EQ(capped[2].op, opt::PhysicalOp::kBindJoin) << cap;
  }
}

TEST_F(BindJoinTest, PendingDeltaInsideProbedRanges) {
  db_.dataset().SetConcurrentWrites(true);
  // ex:d63 is a journal-3 document: its tombstoned creator sits inside a
  // probed (s, p) range; ex:pnew and ex:dnew exist only in the delta.
  ASSERT_TRUE(scisparql::Run(db_, "DELETE DATA { ex:d63 ex:creator ex:p63 }")
                  .ok());
  ASSERT_TRUE(scisparql::Run(db_,
                             "INSERT DATA { ex:d63 ex:creator ex:pnew . "
                             "ex:pnew ex:name \"new\" . "
                             "ex:dnew ex:journal ex:j3 ; ex:year 2020 ; "
                             "ex:creator ex:p1 }")
                  .ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  ExpectBindJoin(kBindChain, "+delta on ?d)");
  ExpectBindJoin(kBindStar);
  auto rows = Query(db_, kBindChain);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 41u);  // -p63, +pnew, +dnew's creator
  EXPECT_TRUE(db_.dataset().default_graph().HasDelta());
}

TEST_F(BindJoinTest, RepeatedVariableInABoundStep) {
  // ?d is bound when ex:cites runs, so both of its positions are fixed:
  // the probe is one (s, p, o) key per document.
  ExpectBindJoin(
      "SELECT ?d ?y WHERE { ?d ex:journal ex:j5 . ?d ex:cites ?d . "
      "?d ex:year ?y }");
  // A repeated variable the probe leaves unbound is filtered as in a
  // scan: ?r binds the predicate, so the probe is a POS (p) range and
  // the two ?x positions must agree (400 self-citations of 2,000).
  ASSERT_TRUE(
      scisparql::Run(db_, "INSERT DATA { ex:marker ex:rel ex:cites }").ok());
  const std::string self =
      "SELECT ?x WHERE { ex:marker ex:rel ?r . ?x ?r ?x }";
  ExpectBindJoin(self, "bind-join(POS on ?r)");
  auto rows = Query(db_, self);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 400u);
  // Two creators per document, in textual order: the second row reuses
  // the first row's ex:cites probe, which binds nothing new.
  db_.exec_options().optimize_join_order = false;
  ExpectBindJoin(
      "SELECT ?d ?p WHERE { ?d ex:journal ex:j5 . ?d ex:creator ?p . "
      "?d ex:cites ?d }");
}

TEST_F(BindJoinTest, TwoSharedSlotsProbeTheFullTriple) {
  // The reviewer step has ?d and ?p bound: an (s, p, o) probe.
  ExpectBindJoin(
      "SELECT ?d ?p WHERE { ?d ex:journal ex:j3 . ?d ex:creator ?p . "
      "?d ex:reviewer ?p }",
      "on ?d, ?p)");
  auto rows = Query(db_,
                    "SELECT ?d ?p WHERE { ?d ex:journal ex:j3 . "
                    "?d ex:creator ?p . ?d ex:reviewer ?p }");
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows->rows.empty());
}

TEST_F(BindJoinTest, ArrayResidualSlotInABoundStep) {
  Graph& g = db_.dataset().default_graph();
  Term shared = IntArray({1, 2, 3});
  g.Add(I("probe"), I("arr"), shared);
  g.Add(I("d3"), I("data"), shared);                 // the same object
  g.Add(I("d103"), I("data"), IntArray({1, 2, 3}));  // an equal copy
  g.Add(I("d203"), I("data"), IntArray({4, 5}));     // a different value
  for (int i = 0; i < 1000; ++i) {
    g.Add(I("x" + std::to_string(i)), I("data"), IntArray({i, i}));
  }
  // ?v is an array bound outside the OPTIONAL: inside, it lowers to an
  // anonymous slot checked by value after the bind join. Textual order
  // keeps the journal first (the estimator takes the array constant for a
  // selective one), so the ex:data step is the bound one.
  db_.exec_options().optimize_join_order = false;
  const std::string q =
      "SELECT ?d WHERE { ex:probe ex:arr ?v . "
      "OPTIONAL { ?d ex:journal ex:j3 . ?d ex:data ?v } }";
  ExpectBindJoin(q);
  auto rows = Query(db_, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);  // ex:d3 and ex:d103
}

TEST_F(BindJoinTest, OuterBoundArrayIsEstimatedOverItsWholeRange) {
  // ArrayResidualSlotInABoundStep's data and query, cost-ordered: ?v is an
  // array, so the ID path reads the whole ex:data range for it (1,003
  // rows) and checks values after the join. The estimator must see that
  // range rather than a constant object, and keep the journal first.
  Graph& g = db_.dataset().default_graph();
  Term shared = IntArray({1, 2, 3});
  g.Add(I("probe"), I("arr"), shared);
  g.Add(I("d3"), I("data"), shared);
  g.Add(I("d103"), I("data"), IntArray({1, 2, 3}));
  g.Add(I("d203"), I("data"), IntArray({4, 5}));
  for (int i = 0; i < 1000; ++i) {
    g.Add(I("x" + std::to_string(i)), I("data"), IntArray({i, i}));
  }
  const std::string q =
      "SELECT ?d WHERE { ex:probe ex:arr ?v . "
      "OPTIONAL { ?d ex:journal ex:j3 . ?d ex:data ?v } }";
  ExpectBindJoin(q);
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const size_t arm = plan->find("optional:");
  ASSERT_NE(arm, std::string::npos) << *plan;
  const size_t first = plan->find("scan ", arm);
  ASSERT_NE(first, std::string::npos) << *plan;
  const std::string line = plan->substr(first, plan->find('\n', first) - first);
  EXPECT_NE(line.find("journal"), std::string::npos) << *plan;
  auto rows = Query(db_, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);  // ex:d3 and ex:d103
}

TEST_F(BindJoinTest, VariableBoundOutsideByOptional) {
  // ?j comes from the outer pattern, so the OPTIONAL's BGP sees it as a
  // constant and starts from the journal's small POS range.
  ExpectBindJoin(
      "SELECT ?j ?d ?n WHERE { ?j ex:title \"J 7\" . "
      "OPTIONAL { ?d ex:journal ?j . ?d ex:creator ?p . ?p ex:name ?n } }");
  ExpectBindJoin(
      "SELECT ?d ?p ?r WHERE { ?d ex:journal ex:j7 . ?d ex:creator ?p . "
      "OPTIONAL { ?d ex:reviewer ?r . ?r ex:name ?rn } }");
}

TEST_F(BindJoinTest, AskAndLimitStopEarlyWithTheSameAnswers) {
  const std::string yes_q =
      "ASK { ?d ex:journal ex:j3 . ?d ex:creator ?p . ?p ex:name ?n }";
  const std::string no_q = "ASK { ?d ex:journal ex:j3 . ?d ex:creator ex:a }";
  const std::string limited_q = std::string(kBindChain) + " LIMIT 3";
  auto yes = Ask(db_, yes_q);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = Ask(db_, no_q);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  auto limited = Query(db_, limited_q);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows.size(), 3u);
  auto oracle_yes = oracle::Evaluate(db_, yes_q);
  ASSERT_TRUE(oracle_yes.ok());
  EXPECT_TRUE(oracle_yes->ask);
  auto oracle_no = oracle::Evaluate(db_, no_q);
  ASSERT_TRUE(oracle_no.ok());
  EXPECT_FALSE(oracle_no->ask);
  auto oracle_limited = oracle::Evaluate(db_, limited_q);
  ASSERT_TRUE(oracle_limited.ok());
  EXPECT_EQ(oracle_limited->rows.size(), 3u);
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
// Solution-modifier pipeline: ORDER BY / DISTINCT / OFFSET / LIMIT over
// ID-join rows, against the oracle.
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, OrderByProducesTheOraclesRows) {
  // Total order (age, then name) — the engine and the oracle must agree
  // exactly.
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a ?n");
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY DESC(?a) ?n");
}

TEST_F(IdJoinTest, DistinctPreservesSortedOrder) {
  ExpectSameOrderedRows(
      "SELECT DISTINCT ?a WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a");
}

TEST_F(IdJoinTest, OffsetPastEndAndLimitZero) {
  for (const char* q :
       {"SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } OFFSET 100",
        "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } LIMIT 0"}) {
    auto engine = Query(db_, q);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(engine->rows.empty()) << q;
    auto reference = oracle::Evaluate(db_, q);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(reference->rows.empty()) << q;
  }
}

TEST_F(IdJoinTest, DistinctWithLimit) {
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
