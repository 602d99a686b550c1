#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "storage/memory_backend.h"
#include "storage/snapshot.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

TEST(Engine, ExecuteDispatchesAllForms) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());

  auto rows = db.Execute("SELECT ?v WHERE { ex:a ex:p ?v }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->kind(), QueryOutcome::Kind::kRows);

  auto ask = db.Execute("ASK { ex:a ex:p 1 }");
  ASSERT_TRUE(ask.ok());
  EXPECT_EQ(ask->kind(), QueryOutcome::Kind::kAsk);
  EXPECT_TRUE(ask->ask());

  auto graph = db.Execute("CONSTRUCT { ex:a ex:q ?v } WHERE { ex:a ex:p ?v }");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->kind(), QueryOutcome::Kind::kGraph);

  auto define = db.Execute(
      "DEFINE FUNCTION f(?x) AS SELECT (?x AS ?y) WHERE { }");
  ASSERT_TRUE(define.ok());
  EXPECT_EQ(define->kind(), QueryOutcome::Kind::kUpdateCount);
}

TEST(Engine, TypedAccessorsRejectWrongForms) {
  SSDM db;
  EXPECT_FALSE(Query(db, "ASK { ?s ?p ?o }").ok());
  EXPECT_FALSE(Ask(db, "SELECT ?s WHERE { ?s ?p ?o }").ok());
  EXPECT_FALSE(Construct(db, "ASK { ?s ?p ?o }").ok());
}

TEST(Engine, ParseErrorsSurface) {
  SSDM db;
  auto r = db.Execute("SELEKT ?x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(Engine, SessionPrefixesAvailableWithoutDeclaration) {
  SSDM db;
  db.prefixes().Set("zz", "http://zz/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { zz:a zz:p 1 }").ok());
  EXPECT_TRUE(*Ask(db, "ASK { zz:a zz:p 1 }"));
}

TEST(Engine, StoreArrayRequiresAttachedStorage) {
  SSDM db;
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {4});
  EXPECT_EQ(db.StoreArray(a, "memory").status().code(),
            StatusCode::kNotFound);
  db.AttachStorage(std::make_shared<MemoryArrayStorage>());
  EXPECT_TRUE(db.StoreArray(a, "memory").ok());
}

TEST(Engine, SnapshotRoundTrip) {
  std::string path = std::string(::testing::TempDir()) + "/snapshot.ssd";
  std::remove(path.c_str());
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:p 1 ; ex:label "one" ; ex:data ((1 2) (3 4)) .
)").ok());
    ASSERT_TRUE(db.LoadTurtleString(
                    "@prefix ex: <http://example.org/> .\nex:n ex:in 2 .",
                    "http://example.org/g1")
                    .ok());
    ASSERT_TRUE(db.SaveSnapshot(path).ok());
  }
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.LoadSnapshot(path).ok());
    EXPECT_EQ(db.dataset().default_graph().size(), 3u);
    EXPECT_TRUE(*Ask(db, "ASK { ex:a ex:label \"one\" }"));
    EXPECT_TRUE(
        *Ask(db, "ASK { GRAPH <http://example.org/g1> { ex:n ex:in 2 } }"));
    // The array survived (rewritten as a collection, re-consolidated).
    auto r = Query(db, "SELECT (ASUM(?a) AS ?s) WHERE { ex:a ex:data ?a }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0], Term::Double(10));
  }
  std::remove(path.c_str());
}

TEST(Engine, SnapshotMaterializesProxies) {
  std::string path = std::string(::testing::TempDir()) + "/snapshot2.ssd";
  std::remove(path.c_str());
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    db.AttachStorage(std::make_shared<MemoryArrayStorage>());
    NumericArray a = NumericArray::Zeros(ElementType::kInt64, {3});
    for (int64_t i = 0; i < 3; ++i) a.SetIntAt(i, i + 7);
    Term proxy = *db.StoreArray(a, "memory");
    db.dataset().default_graph().Add(Term::Iri("http://example.org/s"),
                                     Term::Iri("http://example.org/d"),
                                     proxy);
    ASSERT_TRUE(db.SaveSnapshot(path).ok());
  }
  {
    // No storage attached: the snapshot is self-contained.
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.LoadSnapshot(path).ok());
    auto r = Query(db, "SELECT ?a[2] WHERE { ex:s ex:d ?a }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0], Term::Integer(8));
  }
  std::remove(path.c_str());
}

TEST(Engine, SnapshotReplacesExistingData) {
  std::string path = std::string(::testing::TempDir()) + "/snapshot3.ssd";
  std::remove(path.c_str());
  SSDM source;
  source.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(source, "INSERT DATA { ex:x ex:p 1 }").ok());
  ASSERT_TRUE(source.SaveSnapshot(path).ok());

  SSDM target;
  target.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(target, "INSERT DATA { ex:old ex:junk 99 }").ok());
  ASSERT_TRUE(target.LoadSnapshot(path).ok());
  EXPECT_FALSE(*Ask(target, "ASK { ex:old ex:junk 99 }"));
  EXPECT_TRUE(*Ask(target, "ASK { ex:x ex:p 1 }"));
  std::remove(path.c_str());
}

TEST(Engine, LoadSnapshotMissingFileFails) {
  SSDM db;
  EXPECT_EQ(db.LoadSnapshot("/nonexistent.ssd").code(),
            StatusCode::kIoError);
}

TEST(Engine, LoadSnapshotRejectsPreDictionaryForms) {
  // Only SSNP files with dictionary sections load; the two older forms
  // fail and leave the dataset as it was.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:kept ex:p 1 }").ok());
  const std::string turtle =
      "<http://example.org/a> <http://example.org/p> 1 .\n";

  std::string plain = std::string(::testing::TempDir()) + "/plain.ssd";
  std::ofstream(plain) << turtle << "#%GRAPH http://example.org/g\n" << turtle;
  EXPECT_EQ(db.LoadSnapshot(plain).code(), StatusCode::kIoError);

  std::string ssnp = std::string(::testing::TempDir()) + "/turtle.ssnp";
  storage::SnapshotFooter footer;
  footer.graphs.push_back({"", 1, 1});
  ASSERT_TRUE(storage::WriteSnapshot(storage::DefaultVfs(), ssnp,
                                     {{"", turtle}}, footer)
                  .ok());
  EXPECT_FALSE(db.LoadSnapshot(ssnp).ok());

  EXPECT_TRUE(*Ask(db, "ASK { ex:kept ex:p 1 }"));
  EXPECT_FALSE(*Ask(db, "ASK { ex:a ex:p 1 }"));
  std::remove(plain.c_str());
  std::remove(ssnp.c_str());
}

}  // namespace
}  // namespace scisparql
