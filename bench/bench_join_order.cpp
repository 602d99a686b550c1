// Join-order benchmark: cost-based BGP ordering vs. forced textual order.
//
// Three workloads exercise the statistics-driven planner (src/opt/):
//   star  — patterns share a subject; the textual order starts with the
//           highest-fanout predicate, the planner must rotate the rare
//           predicate to the front.
//   chain — a 3-hop path whose only selective pattern (a constant object)
//           is textually last; the planner must start from it.
//   thesis — the Section 5.4.5 running example ("Alice" lookup via
//           foaf-style name/knows edges) with the constant pattern last.
//
// Each query runs through the ID-join pipeline with optimize_join_order on
// and off; the harness checks via EXPLAIN that the cost plan actually
// deviates from the textual order on the star and chain queries, and that
// the star query speeds up by at least 2x. Exits non-zero when either
// check fails, so the CI smoke run (`bench_join_order --smoke`, 20 timing
// iterations per order) doubles as a regression gate.
//
// `bench_join_order --dict-smoke` is the dictionary/ID-join gate: it
// builds SP²Bench-style star and chain workloads at 1M+ triples each and
// times each query on the ID-join pipeline against scan-and-bind — nested
// Graph::Match lookups, the oracle's BGP leaf (tests/oracle/) — over the
// same graph in the cost-based planner's order. It requires the star and
// chain joins to run at least 5x faster on the ID path, checks that both
// count the same solutions, checks via EXPLAIN that the star hash-joins, a
// selective chain bind-joins and an object-object join merge-joins, and
// writes BENCH_dict.json.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "engine/ssdm.h"
#include "oracle/oracle.h"
#include "sparql/parser.h"

namespace scisparql {
namespace {

using bench::Fmt;
using bench::Json;
using bench::Table;
using bench::Timer;

const char* kNs = "http://example.org/";

/// Star data: every subject carries `fan` wide-predicate triples, a tenth
/// of them a mid predicate, and a handful the rare predicate the planner
/// should lead with.
void BuildStar(Graph* g, int subjects, int fan) {
  Term wide = Term::Iri(std::string(kNs) + "wide");
  Term mid = Term::Iri(std::string(kNs) + "mid");
  Term rare = Term::Iri(std::string(kNs) + "rare");
  for (int i = 0; i < subjects; ++i) {
    Term s = Term::Iri(std::string(kNs) + "s" + std::to_string(i));
    for (int f = 0; f < fan; ++f) {
      g->Add(s, wide, Term::Integer(i * fan + f));
    }
    if (i % 10 == 0) g->Add(s, mid, Term::Integer(i));
    if (i % (subjects / 8 + 1) == 0) g->Add(s, rare, Term::Integer(i));
  }
}

/// Chain data: a ring of e1/e2 edges; exactly one node carries the target
/// name so the chain query's last textual pattern is the selective one.
void BuildChain(Graph* g, int nodes) {
  Term e1 = Term::Iri(std::string(kNs) + "e1");
  Term e2 = Term::Iri(std::string(kNs) + "e2");
  Term name = Term::Iri(std::string(kNs) + "name");
  for (int i = 0; i < nodes; ++i) {
    Term a = Term::Iri(std::string(kNs) + "c" + std::to_string(i));
    Term b = Term::Iri(std::string(kNs) + "c" + std::to_string((i + 1) % nodes));
    g->Add(a, e1, b);
    g->Add(a, e2, Term::Iri(std::string(kNs) + "c" +
                            std::to_string((i + 3) % nodes)));
    g->Add(a, name, Term::String("node" + std::to_string(i)));
  }
  g->Add(Term::Iri(std::string(kNs) + "c0"), name, Term::String("target"));
}

/// Thesis-example data: persons with names, knows edges, one "Alice".
void BuildThesis(Graph* g, int people) {
  Term name = Term::Iri(std::string(kNs) + "fname");
  Term knows = Term::Iri(std::string(kNs) + "knows");
  for (int i = 0; i < people; ++i) {
    Term p = Term::Iri(std::string(kNs) + "person" + std::to_string(i));
    g->Add(p, name, Term::String("p" + std::to_string(i)));
    g->Add(p, knows, Term::Iri(std::string(kNs) + "person" +
                               std::to_string((i + 1) % people)));
    g->Add(p, knows, Term::Iri(std::string(kNs) + "person" +
                               std::to_string((i * 13 + 5) % people)));
  }
  g->Add(Term::Iri(std::string(kNs) + "person42"), name,
         Term::String("Alice"));
}

double TimeQuery(SSDM* db, const std::string& q, int reps, size_t* rows) {
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    auto r = db->Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   r.status().ToString().c_str(), q.c_str());
      std::exit(1);
    }
    *rows = r->rows().rows.size();
  }
  return timer.ElapsedMs() / reps;
}

/// True when EXPLAIN (with optimization on) reports a plan that deviates
/// from the textual pattern order.
bool PlanReordered(SSDM* db, const std::string& q) {
  auto plan = db->Explain(q);
  if (!plan.ok()) {
    std::fprintf(stderr, "EXPLAIN failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return plan->find(", reordered") != std::string::npos;
}

// ---------------------------------------------------------------------------
// --dict-smoke: dictionary ID-join gate at SP²Bench scale.
// ---------------------------------------------------------------------------

/// SP²Bench-flavoured document star: three equally large predicate
/// extents (creator / issued / journal, each on `docs` subjects with long
/// IRIs — the dictionary's bread and butter) whose subject ranges overlap
/// on only `docs / 350` documents. No single pattern is selective, so
/// join ordering can't save scan-and-bind from probing an
/// entire extent; the join *output* is small. `3 * docs` triples.
void BuildSpbStar(Graph* g, int docs) {
  const std::string base = "http://localhost/publications/journal/doc";
  Term creator = Term::Iri("http://purl.org/dc/elements/1.1/creator");
  Term year = Term::Iri("http://purl.org/dc/terms/issued");
  Term journal = Term::Iri("http://swrc.ontoware.org/ontology#journal");
  const int overlap = docs / 350;
  for (int i = 0; i < docs; ++i) {
    // creator on docs [0, N); issued and journal on [N - overlap, 2N - overlap).
    Term d = Term::Iri(base + std::to_string(i));
    g->Add(d, creator,
           Term::Iri("http://localhost/persons/p" + std::to_string(i % 977)));
    Term d2 = Term::Iri(base + std::to_string(docs - overlap + i));
    g->Add(d2, year, Term::Integer(1940 + i % 70));
    g->Add(d2, journal, Term::Iri("http://localhost/publications/journal/j" +
                                  std::to_string(i % 211)));
  }
}

/// Citation-style chain: a ring of `cites` edges, plus an `extends` edge
/// from every paper — but most extends targets are dangling references
/// (papers outside the corpus) that cite nothing. Both hops of the chain
/// join are full-extent, the result is small. `2 * nodes` triples.
void BuildSpbChain(Graph* g, int nodes) {
  const std::string base = "http://localhost/publications/inproc/paper";
  Term cites = Term::Iri("http://purl.org/ontology/bibo/cites");
  Term extends = Term::Iri("http://localhost/vocabulary/bench#extends");
  const int overlap = nodes / 500;
  for (int i = 0; i < nodes; ++i) {
    Term a = Term::Iri(base + std::to_string(i));
    Term b = Term::Iri(base + std::to_string((i + 1) % nodes));
    g->Add(a, cites, b);
    bool real = (i % (nodes / overlap)) == 0;
    Term c = real ? Term::Iri(base + std::to_string((i * 31 + 7) % nodes))
                  : Term::Iri(base + "-dangling" + std::to_string(i));
    g->Add(a, extends, c);
  }
}

/// Times a `SELECT (COUNT(*) AS ?n)` query on the engine after one
/// warm-up run (which builds the ID indexes); *count gets its count.
double TimeIdQuery(SSDM* db, const std::string& q, int reps, int64_t* count) {
  size_t rows = 0;
  TimeQuery(db, q, 1, &rows);
  const double ms = TimeQuery(db, q, reps, &rows);
  auto r = db->Execute(q);
  *count = r.ok() && rows == 1 ? r->rows().rows[0][0].integer() : -1;
  return ms;
}

/// Times scan-and-bind (oracle::MatchBgp) over the BGP of `q`, whose WHERE
/// clause holds triple patterns only, in the order the engine runs it,
/// after one warm-up run; *count gets its solution count. The order is
/// read off the scan lines of the engine's EXPLAIN plan, so it is the
/// planner's own.
double TimeScanAndBind(SSDM* db, const std::string& q, int reps,
                       int64_t* count) {
  auto parsed = sparql::ParseQuery(q, db->prefixes());
  auto plan = db->Explain(q);
  if (!parsed.ok() || !plan.ok()) {
    std::fprintf(stderr, "parse or EXPLAIN failed: %s\n",
                 (parsed.ok() ? plan.status() : parsed.status())
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  std::vector<std::pair<size_t, const ast::TriplePattern*>> at;
  for (const ast::PatternElement& e : (*parsed)->where.elements) {
    const ast::TriplePattern& tp = e.triple;
    const std::string line = "scan " + tp.s.ToString() + " " +
                             tp.p.ToString() + " " + tp.o.ToString() + "  (";
    const size_t pos = plan->find(line);
    if (pos == std::string::npos) {
      std::fprintf(stderr, "EXPLAIN has no line \"%s\":\n%s\n", line.c_str(),
                   plan->c_str());
      std::exit(1);
    }
    at.emplace_back(pos, &tp);
  }
  std::sort(at.begin(), at.end());
  std::vector<const ast::TriplePattern*> ordered;
  for (const auto& step : at) ordered.push_back(step.second);
  const Graph& g = db->dataset().default_graph();
  *count = static_cast<int64_t>(oracle::MatchBgp(g, ordered).size());
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    *count = static_cast<int64_t>(oracle::MatchBgp(g, ordered).size());
  }
  return timer.ElapsedMs() / reps;
}

/// True when the executed plan's EXPLAIN output names `op` as a physical
/// operator on some scan line.
bool PlanShows(SSDM* db, const std::string& q, const char* op) {
  auto plan = db->Explain(q);
  if (!plan.ok()) {
    std::fprintf(stderr, "EXPLAIN failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return plan->find(op) != std::string::npos;
}

int RunDictSmoke(int reps) {
  struct DictResult {
    std::string name;
    double id_ms;
    double scan_ms;
    double speedup;
    int64_t rows;  // solutions counted
    size_t triples;
    bool gated;  // participates in the 5x floor
  };
  std::vector<DictResult> results;
  bool ok = true;
  // Times `q` both ways and records the result; both must count the same
  // solutions.
  auto measure = [&](SSDM* db, const char* name, const std::string& q,
                     bool gated) {
    int64_t id_count = 0;
    int64_t scan_count = 0;
    const double id_ms = TimeIdQuery(db, q, reps, &id_count);
    const double scan_ms = TimeScanAndBind(db, q, reps, &scan_count);
    if (id_count != scan_count) {
      std::fprintf(stderr,
                   "FAIL: %s counts %lld solutions on the ID path but %lld "
                   "by scan-and-bind\n",
                   name, static_cast<long long>(id_count),
                   static_cast<long long>(scan_count));
      ok = false;
    }
    results.push_back({name, id_ms, scan_ms, id_ms > 0 ? scan_ms / id_ms : 0.0,
                       id_count, db->dataset().default_graph().size(), gated});
  };

  // Workloads are built in separate scopes so peak memory stays at one
  // 1M+-triple graph at a time.
  {
    SSDM db;
    db.prefixes().Set("dc", "http://purl.org/dc/elements/1.1/");
    db.prefixes().Set("dcterms", "http://purl.org/dc/terms/");
    db.prefixes().Set("swrc", "http://swrc.ontoware.org/ontology#");
    Graph& g = db.dataset().default_graph();
    const int kDocs = 350000;  // 1.05M triples
    BuildSpbStar(&g, kDocs);
    const std::string q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?d dc:creator ?a . "
        "?d dcterms:issued ?y . ?d swrc:journal ?j }";
    measure(&db, "star", q, true);
    if (!PlanShows(&db, q, "hash-join")) {
      std::fprintf(stderr, "FAIL: star EXPLAIN does not show a hash join\n");
      return 1;
    }

    // Selective chain: one journal's ~1,660 documents probe the 350k-row
    // creator range by subject (a bind join) instead of scanning it — the
    // other side of the cost rule from the star's hash joins above.
    // Reported, not gated.
    const std::string sel_q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?d swrc:journal "
        "<http://localhost/publications/journal/j5> . ?d dc:creator ?a }";
    measure(&db, "selective", sel_q, false);
    if (!PlanShows(&db, sel_q, "bind-join")) {
      std::fprintf(stderr,
                   "FAIL: selective chain EXPLAIN does not show a bind join\n");
      return 1;
    }
  }
  {
    SSDM db;
    db.prefixes().Set("bibo", "http://purl.org/ontology/bibo/");
    db.prefixes().Set("bench", "http://localhost/vocabulary/bench#");
    Graph& g = db.dataset().default_graph();
    const int kNodes = 525000;  // 1.05M triples
    BuildSpbChain(&g, kNodes);
    const std::string chain_q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?a bibo:cites ?b . "
        "?b bench:extends ?c . ?c bibo:cites ?d }";
    measure(&db, "chain", chain_q, true);

    // Object-object join: both scans are sorted on the join column, so the
    // executor picks a merge join. Reported, not gated.
    const std::string merge_q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?a bibo:cites ?j . "
        "?b bench:extends ?j }";
    measure(&db, "merge", merge_q, false);
    if (!PlanShows(&db, merge_q, "merge-join")) {
      std::fprintf(stderr, "FAIL: EXPLAIN does not show a merge join\n");
      return 1;
    }
  }

  std::printf("Dictionary ID-join benchmark (%d reps)\n\n", reps);
  Table table({"workload", "triples", "rows", "scan ms", "id ms", "speedup"});
  std::string json = "{\"floor\": 5.0, \"workloads\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const DictResult& r = results[i];
    table.AddRow({r.name, std::to_string(r.triples), std::to_string(r.rows),
                  Fmt(r.scan_ms, 1), Fmt(r.id_ms, 1), Fmt(r.speedup, 2) + "x"});
    if (i > 0) json += ", ";
    json += Json()
                .Str("workload", r.name)
                .Int("triples", static_cast<long long>(r.triples))
                .Int("rows", static_cast<long long>(r.rows))
                .Num("scan_ms", r.scan_ms)
                .Num("id_ms", r.id_ms)
                .Num("speedup", r.speedup)
                .Int("gated", r.gated ? 1 : 0)
                .Build();
    if (r.gated && r.speedup < 5.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx below the 5x floor\n",
                   r.name.c_str(), r.speedup);
      ok = false;
    }
  }
  json += "], \"pass\": ";
  json += ok ? "true" : "false";
  json += "}\n";
  table.Print();
  std::ofstream json_out("BENCH_dict.json");
  json_out << json;
  json_out.close();
  std::printf("wrote BENCH_dict.json\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace scisparql

int main(int argc, char** argv) {
  using namespace scisparql;
  bool smoke = false;
  bool dict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--dict-smoke") == 0) dict = true;
  }
  if (dict) return RunDictSmoke(smoke ? 1 : 3);
  // One timed run per order is too noisy for the star's 2x floor on a query
  // this short (~0.05 ms in parse order on the ID path at smoke size): one
  // of ten such runs read 1.06x. Twenty per order average the noise out.
  const int reps = smoke ? 20 : 5;
  const int kSubjects = smoke ? 400 : 1500;
  const int kFan = 4;

  SSDM db;
  db.prefixes().Set("ex", kNs);
  Graph& g = db.dataset().default_graph();
  BuildStar(&g, kSubjects, kFan);
  BuildChain(&g, kSubjects);
  BuildThesis(&g, kSubjects);

  struct Workload {
    const char* label;
    std::string query;
    bool must_reorder;
  };
  const Workload workloads[] = {
      {"star", // wide first textually; rare must move to the front
       "SELECT ?s ?w ?r WHERE { ?s ex:wide ?w . ?s ex:mid ?m . "
       "?s ex:rare ?r }",
       true},
      {"chain", // selective constant-object pattern is textually last
       "SELECT ?a WHERE { ?a ex:e1 ?b . ?b ex:e2 ?c . "
       "?c ex:name \"target\" }",
       true},
      {"thesis", // Section 5.4.5 example, Alice lookup last
       "SELECT ?n WHERE { ?p ex:knows ?f . ?f ex:fname ?n . "
       "?p ex:fname \"Alice\" }",
       false},
  };

  std::printf("Join-order benchmark (%d subjects, %d reps%s)\n\n", kSubjects,
              reps, smoke ? ", smoke" : "");

  Table table({"workload", "order", "rows", "ms", "speedup"});
  bool ok = true;
  double star_speedup = 0.0;
  for (const Workload& w : workloads) {
    size_t rows_cost = 0;
    size_t rows_text = 0;
    db.exec_options().optimize_join_order = true;
    TimeQuery(&db, w.query, 1, &rows_cost);  // warm-up
    double cost_ms = TimeQuery(&db, w.query, reps, &rows_cost);
    bool reordered = PlanReordered(&db, w.query);
    db.exec_options().optimize_join_order = false;
    TimeQuery(&db, w.query, 1, &rows_text);  // warm-up
    double text_ms = TimeQuery(&db, w.query, reps, &rows_text);
    db.exec_options().optimize_join_order = true;

    double speedup = cost_ms > 0 ? text_ms / cost_ms : 0.0;
    table.AddRow({w.label, "cost", std::to_string(rows_cost), Fmt(cost_ms, 2),
                  Fmt(speedup, 2) + "x"});
    table.AddRow({w.label, "parse", std::to_string(rows_text), Fmt(text_ms, 2),
                  "1.00x"});
    std::printf("%s\n", Json()
                            .Str("workload", w.label)
                            .Num("cost_ms", cost_ms)
                            .Num("parse_ms", text_ms)
                            .Num("speedup", speedup)
                            .Int("rows", static_cast<long long>(rows_cost))
                            .Int("reordered", reordered ? 1 : 0)
                            .Build()
                            .c_str());
    if (rows_cost != rows_text) {
      std::fprintf(stderr, "FAIL: %s returns %zu rows cost-ordered but %zu "
                   "rows parse-ordered\n", w.label, rows_cost, rows_text);
      ok = false;
    }
    if (w.must_reorder && !reordered) {
      std::fprintf(stderr, "FAIL: %s plan did not deviate from textual order\n",
                   w.label);
      ok = false;
    }
    if (std::strcmp(w.label, "star") == 0) star_speedup = speedup;
  }
  std::printf("\n");
  table.Print();

  db.exec_options().optimize_join_order = true;
  std::printf("\nStar plan:\n%s\n", db.Explain(workloads[0].query)->c_str());

  if (star_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: star speedup %.2fx below the 2x floor\n",
                 star_speedup);
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
