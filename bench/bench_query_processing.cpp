// Experiment 8 (thesis Section 5.4): query-processing ablations.
//
// The translation pipeline's two optimizations — cost-based BGP join
// ordering and filter pushdown — are toggled over join queries against a
// synthetic social graph. Also reports property-path evaluation costs.
// The paper's shape: ordering dominates when the parse order starts with
// an unselective pattern. Pushdown matters where a filter can cut the
// intermediate result early; on the ID-join path a pushed FILTER only
// feeds the cardinality estimator and runs on each joined row as it
// leaves the join, so it changes the plan at most.
//
// Also measures the observability layer's cost on the same workload:
// metrics+tracing fully disabled (obs::SetEnabled(false)) vs. the default
// path (metrics on, no trace sink) vs. full per-query tracing. The smoke
// run (`--smoke`, used by CI) exits non-zero when the default path costs
// more than 5% over the disabled baseline, and writes the measurements to
// BENCH_obs.json.
//
// `--cache` switches to the caching benchmark instead: cold (result cache
// off, every query fully executed) vs. warm (result cache on, hits after a
// priming pass), plus text-form vs. prepared execution. With `--smoke` it
// gates on warm hits being at least 3x faster than cold execution and
// writes BENCH_cache.json.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "engine/ssdm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scisparql {
namespace {

using bench::Fmt;
using bench::Table;
using bench::Timer;

/// Synthetic social graph: `people` persons, ring of knows edges plus a
/// couple of hub nodes, ages, and one rare tag.
void BuildGraph(SSDM* db, int people) {
  Graph& g = db->dataset().default_graph();
  const std::string ns = "http://example.org/";
  Term knows = Term::Iri(ns + "knows");
  Term age = Term::Iri(ns + "age");
  Term name = Term::Iri(ns + "name");
  Term type = Term::Iri(vocab::kRdfType);
  Term person = Term::Iri(ns + "Person");
  for (int i = 0; i < people; ++i) {
    Term p = Term::Iri(ns + "p" + std::to_string(i));
    g.Add(p, type, person);
    g.Add(p, name, Term::String("person" + std::to_string(i)));
    g.Add(p, age, Term::Integer(20 + i % 60));
    g.Add(p, knows, Term::Iri(ns + "p" + std::to_string((i + 1) % people)));
    g.Add(p, knows, Term::Iri(ns + "p" + std::to_string((i + 7) % people)));
    if (i % (people / 4 + 1) == 0) {
      g.Add(p, Term::Iri(ns + "tag"), Term::String("rare"));
    }
  }
}

/// Mean ms of `reps` runs of `q`, after one untimed run: the first run of
/// a query builds the graph's ID indexes and fills the plan cache, which
/// would otherwise land on whichever configuration is timed first.
double TimeQuery(SSDM* db, const std::string& q, int reps, size_t* rows) {
  Timer timer;
  for (int i = -1; i < reps; ++i) {
    if (i == 0) timer.Reset();
    auto r = db->Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n%s\n", r.status().ToString().c_str(),
                   q.c_str());
      std::exit(1);
    }
    *rows = r->rows().rows.size();
  }
  return timer.ElapsedMs() / reps;
}

/// One pass over the thesis workload (three repetitions, so a pass is
/// large enough that timer noise stays well under the 5% gate); returns
/// wall ms. With `traced`, every query carries a trace sink.
double WorkloadPass(SSDM* db, const std::vector<std::string>& queries,
                    bool traced) {
  Timer timer;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& q : queries) {
      obs::QueryTrace trace;
      QueryRequest req;
      req.text = q;
      if (traced) req.trace_sink = &trace;
      auto r = db->Execute(req);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n%s\n", r.status().ToString().c_str(),
                     q.c_str());
        std::exit(1);
      }
    }
  }
  return timer.ElapsedMs();
}

/// Min-of-N interleaved measurement of the three observability
/// configurations, so drift hits all configurations equally.
struct ObsCosts {
  double off_ms = 0;     // obs::SetEnabled(false)
  double on_ms = 0;      // default path: metrics on, no trace sink
  double traced_ms = 0;  // full span tree per query
};

ObsCosts MeasureObsCosts(SSDM* db, const std::vector<std::string>& queries,
                         int passes) {
  ObsCosts best;
  best.off_ms = best.on_ms = best.traced_ms = 1e300;
  for (int p = 0; p < passes; ++p) {
    obs::SetEnabled(false);
    best.off_ms = std::min(best.off_ms, WorkloadPass(db, queries, false));
    obs::SetEnabled(true);
    best.on_ms = std::min(best.on_ms, WorkloadPass(db, queries, false));
    best.traced_ms = std::min(best.traced_ms, WorkloadPass(db, queries, true));
  }
  return best;
}

/// Caching ablation: the same read workload cold (result cache off) and
/// warm (result cache on, primed), plus text-form vs. prepared execution
/// of a parameterized query. Returns the process exit code.
int RunCacheBench(bool smoke, int people) {
  std::printf(
      "Caching benchmark: cold vs. warm reads over a %d-person graph\n\n",
      people);

  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  BuildGraph(&db, people);

  const std::vector<std::string> workload = {
      "SELECT ?n2 WHERE { ?a ex:knows ?b . ?b ex:knows ?c . "
      "?c ex:name ?n2 . ?a ex:tag \"rare\" }",
      "SELECT ?b WHERE { ?a ex:age ?age . ?a ex:knows ?b . "
      "?b ex:age ?age2 . FILTER (?age = 21) FILTER (?age2 > 25) }",
      "SELECT (COUNT(*) AS ?n) WHERE { ex:p0 ex:knows+ ?x }",
  };
  const int passes = smoke ? 5 : 11;

  // Interleaved min-of-N, so machine drift hits both configurations.
  double cold_ms = 1e300, warm_ms = 1e300;
  for (int p = 0; p < passes; ++p) {
    db.DisableResultCache();
    cold_ms = std::min(cold_ms, WorkloadPass(&db, workload, false));
    db.EnableResultCache();
    WorkloadPass(&db, workload, false);  // prime
    warm_ms = std::min(warm_ms, WorkloadPass(&db, workload, false));
  }
  double speedup = cold_ms / warm_ms;

  // Prepared execution of a parameterized query vs. re-submitting the
  // full text (both with the result cache off: this isolates the shared
  // parse + memoized join orders, not result reuse).
  db.DisableResultCache();
  const std::string text_query =
      "SELECT ?b WHERE { ?a ex:age ?age . ?a ex:knows ?b . "
      "FILTER (?age = 21) }";
  auto prep = db.Execute(
      "PREPARE by_age(?age0) AS SELECT ?b WHERE "
      "{ ?a ex:age ?age . ?a ex:knows ?b . FILTER (?age = ?age0) }");
  if (!prep.ok()) {
    std::fprintf(stderr, "%s\n", prep.status().ToString().c_str());
    return 1;
  }
  const int reps = smoke ? 30 : 100;
  size_t rows = 0;
  double text_ms = TimeQuery(&db, text_query, reps, &rows);
  double prepared_ms = TimeQuery(&db, "EXECUTE by_age(21)", reps, &rows);

  Table table({"configuration", "ms/pass"});
  table.AddRow({"cold (result cache off)", Fmt(cold_ms, 3)});
  table.AddRow({"warm (result cache hits)", Fmt(warm_ms, 3)});
  table.AddRow({"text re-submission (per query)", Fmt(text_ms, 3)});
  table.AddRow({"EXECUTE prepared (per query)", Fmt(prepared_ms, 3)});
  table.Print();

  const double kGateSpeedup = 3.0;
  bool gate_ok = speedup >= kGateSpeedup;
  std::printf("\nwarm-hit speedup: %.1fx (gate: >= %.1fx)\n", speedup,
              kGateSpeedup);

  auto counters = db.cache().counters();
  bench::Json json;
  json.Str("bench", "query_cache")
      .Int("people", people)
      .Int("passes", passes)
      .Num("cold_ms", cold_ms)
      .Num("warm_ms", warm_ms)
      .Num("speedup", speedup)
      .Num("text_ms", text_ms)
      .Num("prepared_ms", prepared_ms)
      .Int("result_hits", static_cast<int64_t>(counters.result_hits))
      .Int("result_misses", static_cast<int64_t>(counters.result_misses))
      .Num("gate_speedup", kGateSpeedup)
      .Int("gate_ok", gate_ok ? 1 : 0);
  std::ofstream out("BENCH_cache.json");
  out << json.Build() << "\n";
  out.close();
  std::printf("%s\n", json.Build().c_str());

  if (smoke && !gate_ok) {
    std::fprintf(stderr,
                 "FAIL: warm cache hits only %.1fx faster than cold "
                 "execution (gate %.1fx)\n",
                 speedup, kGateSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace scisparql

int main(int argc, char** argv) {
  using namespace scisparql;
  bool smoke = false;
  bool cache_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--cache") == 0) cache_mode = true;
  }
  if (cache_mode) {
    return RunCacheBench(smoke, smoke ? 600 : 2000);
  }
  const int kPeople = smoke ? 600 : 2000;
  std::printf(
      "Experiment 8 (Section 5.4): query-processing ablations over a "
      "%d-person graph\n\n",
      kPeople);

  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  BuildGraph(&db, kPeople);

  // The parse order puts the unselective patterns first; the optimizer
  // must rotate the rare-tag pattern to the front.
  const std::string join_query =
      "SELECT ?n2 WHERE { ?a ex:knows ?b . ?b ex:knows ?c . "
      "?c ex:name ?n2 . ?a ex:tag \"rare\" }";
  // Two single-variable filters: pushdown can apply ?age = 21 as soon as
  // ?age binds, long before the ?b side is expanded.
  const std::string filter_query =
      "SELECT ?b WHERE { ?a ex:age ?age . ?a ex:knows ?b . "
      "?b ex:age ?age2 . FILTER (?age = 21) FILTER (?age2 > 25) }";
  const std::string path_query =
      "SELECT (COUNT(*) AS ?n) WHERE { ex:p0 ex:knows+ ?x }";

  const int reps = smoke ? 1 : 3;
  Table table({"query", "join order", "filter pushdown", "rows", "ms"});
  size_t rows = 0;
  for (bool optimize : {true, false}) {
    for (bool push : {true, false}) {
      db.exec_options().optimize_join_order = optimize;
      db.exec_options().push_filters = push;
      double ms1 = TimeQuery(&db, join_query, reps, &rows);
      table.AddRow({"3-hop join + rare tag", optimize ? "cost" : "parse",
                    push ? "on" : "off", std::to_string(rows), Fmt(ms1, 2)});
      double ms2 = TimeQuery(&db, filter_query, reps, &rows);
      table.AddRow({"join + equality filter", optimize ? "cost" : "parse",
                    push ? "on" : "off", std::to_string(rows), Fmt(ms2, 2)});
    }
  }
  db.exec_options().optimize_join_order = true;
  db.exec_options().push_filters = true;
  double ms3 = TimeQuery(&db, path_query, reps, &rows);
  table.AddRow({"knows+ closure from hub", "cost", "on", std::to_string(rows),
                Fmt(ms3, 2)});
  table.Print();

  std::printf("\nPlan with optimization on:\n%s\n",
              db.Explain(join_query)->c_str());
  std::printf(
      "Expected shape: cost ordering beats parse order by a wide margin on\n"
      "the 3-hop join. Filter pushdown changes little: on the ID-join path a\n"
      "pushed FILTER feeds the estimator and runs on each joined row, as an\n"
      "unpushed one does right after the BGP.\n");

  // --- Observability overhead: disabled vs. default vs. traced --------
  const std::vector<std::string> workload = {join_query, filter_query,
                                             path_query};
  const double kGatePct = 5.0;
  // Noise floor: tiny absolute differences should not flip the gate.
  const double kEpsilonMs = 0.15;
  const int passes = smoke ? 7 : 15;

  ObsCosts costs;
  double overhead_pct = 0.0;
  bool gate_ok = false;
  // Min-of-N already rejects most scheduler noise; a couple of retries
  // absorb the rest on loaded CI machines.
  for (int attempt = 0; attempt < 3; ++attempt) {
    costs = MeasureObsCosts(&db, workload, passes);
    overhead_pct = (costs.on_ms - costs.off_ms) / costs.off_ms * 100.0;
    gate_ok = costs.on_ms <= costs.off_ms * (1.0 + kGatePct / 100.0) +
                                kEpsilonMs;
    if (gate_ok) break;
  }
  obs::SetEnabled(true);

  std::printf(
      "\nObservability overhead (thesis workload, min of %d passes):\n"
      "  obs disabled   %s ms\n"
      "  default path   %s ms  (%+.2f%%)\n"
      "  full tracing   %s ms  (%+.2f%%)\n",
      passes, Fmt(costs.off_ms, 3).c_str(), Fmt(costs.on_ms, 3).c_str(),
      overhead_pct, Fmt(costs.traced_ms, 3).c_str(),
      (costs.traced_ms - costs.off_ms) / costs.off_ms * 100.0);

  bench::Json json;
  json.Str("bench", "obs_overhead")
      .Int("people", kPeople)
      .Int("passes", passes)
      .Num("off_ms", costs.off_ms)
      .Num("on_ms", costs.on_ms)
      .Num("traced_ms", costs.traced_ms)
      .Num("overhead_pct", overhead_pct)
      .Num("gate_pct", kGatePct)
      .Int("gate_ok", gate_ok ? 1 : 0);
  std::ofstream out("BENCH_obs.json");
  out << json.Build() << "\n";
  out.close();
  std::printf("%s\n", json.Build().c_str());

  if (smoke && !gate_ok) {
    std::fprintf(stderr,
                 "FAIL: observability default path costs %.2f%% over the "
                 "disabled baseline (gate %.1f%%)\n",
                 overhead_pct, kGatePct);
    return 1;
  }
  return 0;
}
