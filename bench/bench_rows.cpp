// Slot-row executor gate: the eight query shapes of the SP²Bench-style read
// mix (star + ORDER BY/LIMIT, chain, OPTIONAL, OPTIONAL + !bound, UNION,
// DISTINCT, ASK, GROUP BY + COUNT), run in process through the engine's
// statement entry point with a warm plan cache, over an SP²Bench-shaped
// DBLP graph this binary generates itself (40 journals of 200 articles,
// 130 proceedings of 60 papers, 6,000 persons; ~130k triples).
//
// Per shape it reports the median query time, the heap allocations per
// query and per result row — counted by this binary's own operator new, so
// no other gate is affected — and writes them to BENCH_rows.json. A ninth
// query, the OPTIONAL shape without its arm, isolates the arm's share: its
// allocations per outer row. A tenth, skewed_optional, is reported but not
// gated: its OPTIONAL arm is a two-pattern BGP whose outer-bound class
// selects 40, 8,000 or 7,800 subjects, so the join order that suits the
// first outer row does not suit the next.
//
// Gates (exit non-zero when broken):
//   - chain: at most 4 allocations per result row, under a quarter of the
//     18.2 the executor that bound rows into name-to-term maps made here;
//   - the one-pattern OPTIONAL arm: at most 2 allocations per outer row
//     (that executor: 12.5, a full BGP set-up per outer row).
//
// Usage: bench_rows [--smoke]   (smoke: 30 timed queries per shape, else 300)

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/ssdm.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* Allocate(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(al);
  const size_t rounded = (std::max<size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace scisparql {
namespace {

using bench::Fmt;
using bench::Json;
using bench::Table;
using bench::Timer;

constexpr int kJournals = 40;
constexpr int kArticles = 200;  // per journal
constexpr int kProcs = 130;
constexpr int kPapers = 60;  // per proceedings
constexpr int kPersons = 6000;

constexpr double kChainAllocsPerRowFloor = 4.0;
constexpr double kArmAllocsPerOuterRowFloor = 2.0;

/// splitmix64, so one seed always yields the same graph.
struct Rng {
  uint64_t s;
  int Below(int n) {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) % static_cast<uint64_t>(n));
  }
};

std::string S(int v) { return std::to_string(v); }

/// The DBLP-shaped Turtle document: journals and their articles (title,
/// year, pages, 1-4 creators, a month for about half, a seeAlso for a
/// third), proceedings and their papers, and persons with names.
std::string Sp2bTurtle() {
  Rng rng{20260101};
  std::string out =
      "@prefix bench: <http://localhost/vocabulary/bench/> .\n"
      "@prefix dblp: <http://localhost/publications/> .\n"
      "@prefix dc: <http://purl.org/dc/elements/1.1/> .\n"
      "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
      "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
      "@prefix swrc: <http://swrc.ontoware.org/ontology#> .\n"
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n";
  auto creators = [&](int i) {
    out += " ; dc:creator ";
    std::vector<int> who;
    while (static_cast<int>(who.size()) < 1 + i % 4) {
      int p = rng.Below(kPersons);
      if (std::find(who.begin(), who.end(), p) == who.end()) who.push_back(p);
    }
    for (size_t a = 0; a < who.size(); ++a) {
      out += (a > 0 ? ", dblp:person_" : "dblp:person_") + S(who[a]);
    }
  };
  for (int j = 0; j < kJournals; ++j) {
    out += "dblp:journal_" + S(j) + " a bench:Journal ; dc:title \"Journal " +
           S(j) + "\" ; dcterms:issued " + S(1940 + j % 20) + " .\n";
  }
  for (int a = 0; a < kJournals * kArticles; ++a) {
    out += "dblp:article_" + S(a) + " a bench:Article ; dc:title \"Article " +
           S(a) + "\" ; dcterms:issued " + S(1960 + rng.Below(50)) +
           " ; swrc:journal dblp:journal_" + S(a / kArticles) +
           " ; swrc:pages " + S(1 + rng.Below(400));
    creators(a);
    if (rng.Below(2) == 0) out += " ; swrc:month " + S(1 + rng.Below(12));
    if (rng.Below(3) == 0) {
      out += " ; rdfs:seeAlso <http://www.example.org/a" + S(a) + ">";
    }
    out += " .\n";
  }
  for (int k = 0; k < kProcs; ++k) {
    out += "dblp:proc_" + S(k) + " a bench:Proceedings ; dc:title \"Proc " +
           S(k) + "\" .\n";
    for (int i = 0; i < kPapers; ++i) {
      const int n = k * kPapers + i;
      out += "dblp:inproc_" + S(n) +
             " a bench:Inproceedings ; dc:title \"Paper " + S(n) +
             "\" ; dcterms:partOf dblp:proc_" + S(k);
      creators(n);
      out += " .\n";
    }
  }
  for (int p = 0; p < kPersons; ++p) {
    out += "dblp:person_" + S(p) + " a foaf:Person ; foaf:name \"Person " +
           S(p) + "\" .\n";
  }
  return out;
}

/// The shape's query for journal `j`.
std::string ShapeQuery(const std::string& shape, int j) {
  const std::string journal = "dblp:journal_" + S(j);
  if (shape == "star_order_limit") {
    return "SELECT ?a ?t ?y WHERE { ?a a bench:Article ; swrc:journal " +
           journal +
           " ; dc:title ?t ; dcterms:issued ?y } ORDER BY DESC(?y) ?t LIMIT 10";
  }
  if (shape == "chain") {
    return "SELECT ?a ?n WHERE { ?jn dc:title \"Journal " + S(j) +
           "\" . ?a swrc:journal ?jn . ?a dc:creator ?p . ?p foaf:name ?n }";
  }
  if (shape == "optional") {
    return "SELECT ?a ?m WHERE { ?a swrc:journal " + journal +
           " . OPTIONAL { ?a swrc:month ?m } }";
  }
  if (shape == "optional_outer") {  // the OPTIONAL shape without its arm
    return "SELECT ?a ?m WHERE { ?a swrc:journal " + journal + " }";
  }
  if (shape == "skewed_optional") {
    return "SELECT ?c ?x WHERE { VALUES ?c { bench:Journal bench:Article "
           "bench:Inproceedings } OPTIONAL { ?x a ?c . ?x dcterms:issued " +
           S(1960 + j % 50) + " } }";
  }
  if (shape == "filter_bound") {
    return "SELECT ?a WHERE { ?a swrc:journal " + journal +
           " . OPTIONAL { ?a swrc:month ?m } FILTER (!bound(?m)) }";
  }
  if (shape == "union") {
    return "SELECT ?x WHERE { { ?x swrc:journal " + journal +
           " } UNION { ?x dcterms:partOf dblp:proc_" + S((j * 7) % kProcs) +
           " } }";
  }
  if (shape == "distinct") {
    return "SELECT DISTINCT ?p WHERE { ?a swrc:journal " + journal +
           " ; dc:creator ?p }";
  }
  if (shape == "ask") {
    return "ASK { ?a swrc:journal " + journal + " ; dc:creator dblp:person_" +
           S((j * 131) % kPersons) + " }";
  }
  return "SELECT ?y (COUNT(?a) AS ?n) WHERE { ?a swrc:journal " + journal +
         " ; dcterms:issued ?y } GROUP BY ?y";
}

struct ShapeResult {
  std::string shape;
  double median_ms = 0;
  double allocs_per_query = 0;
  double rows_per_query = 0;
  double allocs_per_row() const {
    return rows_per_query > 0 ? allocs_per_query / rows_per_query : 0;
  }
};

int Run(bool smoke) {
  const int reps = smoke ? 30 : 300;
  SSDM db;
  for (const auto& [p, iri] : std::vector<std::pair<std::string, std::string>>{
           {"bench", "http://localhost/vocabulary/bench/"},
           {"dblp", "http://localhost/publications/"},
           {"dc", "http://purl.org/dc/elements/1.1/"},
           {"dcterms", "http://purl.org/dc/terms/"},
           {"foaf", "http://xmlns.com/foaf/0.1/"},
           {"swrc", "http://swrc.ontoware.org/ontology#"}}) {
    db.prefixes().Set(p, iri);
  }
  Status loaded = db.LoadTurtleString(Sp2bTurtle());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  const std::vector<std::string> shapes = {
      "star_order_limit", "chain", "optional", "filter_bound", "union",
      "distinct",         "ask",   "group_by", "optional_outer",
      "skewed_optional"};
  std::vector<ShapeResult> results;
  for (const std::string& shape : shapes) {
    // Warm the plan cache with every statement text the timed loop sends.
    for (int j = 0; j < kJournals; ++j) {
      if (!db.Execute(ShapeQuery(shape, j)).ok()) {
        std::fprintf(stderr, "FAIL: %s query failed\n", shape.c_str());
        return 1;
      }
    }
    std::vector<double> ms;
    uint64_t allocs = 0;
    uint64_t rows = 0;
    for (int i = 0; i < reps; ++i) {
      const std::string q = ShapeQuery(shape, i % kJournals);
      Timer t;
      const uint64_t before = g_allocs.load(std::memory_order_relaxed);
      Result<QueryOutcome> r = db.Execute(q);
      allocs += g_allocs.load(std::memory_order_relaxed) - before;
      ms.push_back(t.ElapsedMs());
      if (!r.ok()) return 1;
      if (const auto* rs = std::get_if<sparql::QueryResult>(&r->value)) {
        rows += rs->rows.size();
      } else {
        rows += 1;  // ASK: one answer
      }
    }
    std::sort(ms.begin(), ms.end());
    ShapeResult res;
    res.shape = shape;
    res.median_ms = ms[ms.size() / 2];
    res.allocs_per_query = static_cast<double>(allocs) / reps;
    res.rows_per_query = static_cast<double>(rows) / reps;
    results.push_back(res);
  }

  auto find = [&](const std::string& s) -> const ShapeResult& {
    for (const ShapeResult& r : results) {
      if (r.shape == s) return r;
    }
    return results.front();
  };
  const ShapeResult& chain = find("chain");
  const ShapeResult& opt = find("optional");
  const ShapeResult& outer = find("optional_outer");
  const double arm_per_outer_row =
      (opt.allocs_per_query - outer.allocs_per_query) / outer.rows_per_query;

  std::printf(
      "Slot-row executor: SP2Bench shapes in process (%d queries each)\n\n",
      reps);
  Table table(
      {"shape", "median ms", "allocs/query", "rows/query", "allocs/row"});
  std::string json = "{\"reps\": " + std::to_string(reps) + ", \"shapes\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    table.AddRow({r.shape, Fmt(r.median_ms, 3), Fmt(r.allocs_per_query, 1),
                  Fmt(r.rows_per_query, 1), Fmt(r.allocs_per_row(), 2)});
    if (i > 0) json += ", ";
    json += Json()
                .Str("shape", r.shape)
                .Num("median_ms", r.median_ms)
                .Num("allocs_per_query", r.allocs_per_query)
                .Num("rows_per_query", r.rows_per_query)
                .Num("allocs_per_row", r.allocs_per_row())
                .Build();
  }
  table.Print();
  std::printf("OPTIONAL arm: %.2f allocations per outer row\n",
              arm_per_outer_row);

  bool ok = true;
  if (chain.allocs_per_row() > kChainAllocsPerRowFloor) {
    std::fprintf(stderr,
                 "FAIL: chain makes %.2f allocations per row (> %.1f)\n",
                 chain.allocs_per_row(), kChainAllocsPerRowFloor);
    ok = false;
  }
  if (arm_per_outer_row > kArmAllocsPerOuterRowFloor) {
    std::fprintf(stderr,
                 "FAIL: the OPTIONAL arm makes %.2f allocations per outer row "
                 "(> %.1f)\n",
                 arm_per_outer_row, kArmAllocsPerOuterRowFloor);
    ok = false;
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "], \"arm_allocs_per_outer_row\": %.4f, "
                "\"chain_allocs_per_row_floor\": %.1f, "
                "\"arm_allocs_per_outer_row_floor\": %.1f, \"pass\": %s}\n",
                arm_per_outer_row, kChainAllocsPerRowFloor,
                kArmAllocsPerOuterRowFloor, ok ? "true" : "false");
  json += tail;
  std::ofstream("BENCH_rows.json") << json;
  std::printf("wrote BENCH_rows.json\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace scisparql

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return scisparql::Run(smoke);
}
