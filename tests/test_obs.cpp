#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/server.h"
#include "client/session.h"
#include "engine/ssdm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"

namespace scisparql {
namespace obs {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Metrics registry primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterMergesShardsAcrossThreads) {
  Counter& c = DefaultMetrics().GetCounter("test_obs_counter_total", "",
                                           "test counter");
  uint64_t before = c.Value();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), before + kThreads * kAdds);
}

TEST(MetricsTest, GaugeSetAddSub) {
  Gauge& g = DefaultMetrics().GetGauge("test_obs_gauge", "", "test gauge");
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 12);
}

TEST(MetricsTest, HistogramBucketsCountAndSum) {
  Histogram& h = DefaultMetrics().GetHistogram("test_obs_hist_micros", "",
                                               "test histogram");
  uint64_t count_before = h.Count();
  uint64_t sum_before = h.SumMicros();
  auto buckets_before = h.BucketCounts();

  h.Observe(5);         // <= 10us bucket
  h.Observe(50);        // <= 100us bucket
  h.Observe(5000000);   // <= 10s bucket
  h.Observe(50000000);  // overflow bucket

  EXPECT_EQ(h.Count(), count_before + 4);
  EXPECT_EQ(h.SumMicros(), sum_before + 5 + 50 + 5000000 + 50000000);
  auto buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], buckets_before[0] + 1);
  EXPECT_EQ(buckets[1], buckets_before[1] + 1);
  EXPECT_EQ(buckets[6], buckets_before[6] + 1);
  EXPECT_EQ(buckets[Histogram::kBuckets - 1],
            buckets_before[Histogram::kBuckets - 1] + 1);
}

TEST(MetricsTest, KillSwitchDropsMutations) {
  Counter& c = DefaultMetrics().GetCounter("test_obs_killswitch_total", "",
                                           "test counter");
  uint64_t before = c.Value();
  ASSERT_TRUE(Enabled());
  SetEnabled(false);
  c.Add(100);
  SetEnabled(true);
  EXPECT_EQ(c.Value(), before);
  c.Add(1);
  EXPECT_EQ(c.Value(), before + 1);
}

TEST(MetricsTest, SameFamilyAndLabelsReturnsSameInstrument) {
  Counter& a = DefaultMetrics().GetCounter("test_obs_identity_total",
                                           "k=\"v\"", "help");
  Counter& b = DefaultMetrics().GetCounter("test_obs_identity_total",
                                           "k=\"v\"", "ignored");
  EXPECT_EQ(&a, &b);
  Counter& other = DefaultMetrics().GetCounter("test_obs_identity_total",
                                               "k=\"w\"", "help");
  EXPECT_NE(&a, &other);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Extracts the integer value of the first sample line named exactly
/// `name` (no labels). Returns -1 when absent.
int64_t SampleValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoll(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST(MetricsTest, PrometheusTextIsWellFormed) {
  // Touch at least one of each instrument kind so all sample shapes render.
  DefaultMetrics()
      .GetCounter("test_obs_expo_total", "", "expo counter")
      .Add(3);
  DefaultMetrics().GetGauge("test_obs_expo_gauge", "", "expo gauge").Set(-2);
  DefaultMetrics()
      .GetHistogram("test_obs_expo_micros", "", "expo histogram")
      .Observe(42);

  std::string text = DefaultMetrics().RenderPrometheusText();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  // Every line is a comment or a sample `name{labels} value`.
  std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?$)");
  std::regex help_re(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  std::regex type_re(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re)) << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0);

  // HELP/TYPE precede the family's samples.
  size_t type_pos = text.find("# TYPE test_obs_expo_total counter");
  size_t sample_pos = text.find("\ntest_obs_expo_total ");
  ASSERT_NE(type_pos, std::string::npos);
  ASSERT_NE(sample_pos, std::string::npos);
  EXPECT_LT(type_pos, sample_pos);

  EXPECT_EQ(SampleValue(text, "test_obs_expo_total"), 3);
  EXPECT_EQ(SampleValue(text, "test_obs_expo_gauge"), -2);
}

TEST(MetricsTest, PrometheusHistogramBucketsAreCumulative) {
  Histogram& h = DefaultMetrics().GetHistogram("test_obs_cum_micros", "",
                                               "cumulative check");
  h.Observe(1);
  h.Observe(500);
  h.Observe(99999999);  // overflow
  std::string text = DefaultMetrics().RenderPrometheusText();

  // Collect the bucket samples in order; they must be non-decreasing and
  // end with le="+Inf" equal to _count.
  std::istringstream in(text);
  std::string line;
  std::vector<int64_t> buckets;
  bool saw_inf = false;
  while (std::getline(in, line)) {
    if (line.rfind("test_obs_cum_micros_bucket{", 0) == 0) {
      buckets.push_back(std::stoll(line.substr(line.rfind(' ') + 1)));
      if (line.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
    }
  }
  ASSERT_TRUE(saw_inf);
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]);
  }
  EXPECT_EQ(buckets.back(), SampleValue(text, "test_obs_cum_micros_count"));
  EXPECT_GE(SampleValue(text, "test_obs_cum_micros_sum"),
            static_cast<int64_t>(1 + 500 + 99999999));
}

// ---------------------------------------------------------------------------
// Unified QueryRequest/QueryOutcome API
// ---------------------------------------------------------------------------

class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:val 1 . ex:a ex:tag ex:t1 .
ex:b ex:val 2 . ex:b ex:tag ex:t1 .
ex:c ex:val 3 . ex:c ex:tag ex:t2 .
ex:d ex:val 4 .
)")
                    .ok());
  }

  Result<QueryOutcome> Run(const std::string& text,
                           obs::QueryTrace* trace = nullptr) {
    QueryRequest req;
    req.text = text;
    req.trace_sink = trace;
    return db_.Execute(req);
  }

  SSDM db_;
};

TEST_F(ObsEngineTest, OutcomeKindsCoverAllStatementForms) {
  auto rows = Run("SELECT ?s WHERE { ?s ex:tag ex:t1 }");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->kind(), QueryOutcome::Kind::kRows);
  EXPECT_EQ(rows->rows().rows.size(), 2u);

  auto ask = Run("ASK { ex:a ex:tag ex:t1 }");
  ASSERT_TRUE(ask.ok());
  ASSERT_EQ(ask->kind(), QueryOutcome::Kind::kAsk);
  EXPECT_TRUE(ask->ask());

  auto graph = Run("CONSTRUCT { ?s ex:copy ?v } WHERE { ?s ex:val ?v }");
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->kind(), QueryOutcome::Kind::kGraph);
  EXPECT_EQ(graph->graph().size(), 4u);

  auto update = Run("INSERT DATA { ex:e ex:val 5 }");
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->kind(), QueryOutcome::Kind::kUpdateCount);
  EXPECT_EQ(update->update_count(), 1);

  auto stats = Run("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->kind(), QueryOutcome::Kind::kInfo);

  auto metrics = Run("METRICS");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->kind(), QueryOutcome::Kind::kInfo);
  EXPECT_NE(metrics->info().find("# TYPE"), std::string::npos);
}

TEST_F(ObsEngineTest, UpdateCountsTriplesTouched) {
  auto del = Run("DELETE WHERE { ex:c ex:val ?v }");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->update_count(), 1);

  auto modify = Run(
      "DELETE { ?s ex:tag ex:t1 } INSERT { ?s ex:tag ex:t3 } "
      "WHERE { ?s ex:tag ex:t1 }");
  ASSERT_TRUE(modify.ok());
  EXPECT_EQ(modify->update_count(), 4);  // 2 deleted + 2 inserted
}

TEST_F(ObsEngineTest, LegacyWrapperMatchesUnifiedOutcome) {
  auto legacy = db_.Execute("SELECT ?s WHERE { ?s ex:tag ex:t1 }");
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->kind(), QueryOutcome::Kind::kRows);
  EXPECT_EQ(legacy->rows().rows.size(), 2u);

  auto legacy_update = db_.Execute("INSERT DATA { ex:f ex:val 6 }");
  ASSERT_TRUE(legacy_update.ok());
  EXPECT_EQ(legacy_update->kind(), QueryOutcome::Kind::kUpdateCount);
}

TEST_F(ObsEngineTest, StatementCountersTrackKinds) {
  std::string before = Run("METRICS")->info();
  int64_t selects = SampleValue(before, "ssdm_statements_total{kind=\"select\"}");
  (void)Run("SELECT ?s WHERE { ?s ex:val ?v }");
  (void)Run("SELECT ?s WHERE { ?s ex:tag ex:t1 }");
  std::string after = Run("METRICS")->info();
  // SampleValue only matches bare names; parse the labeled line directly.
  auto labeled = [](const std::string& text, const std::string& prefix) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) == 0) {
        return std::stoll(line.substr(line.rfind(' ') + 1));
      }
    }
    return static_cast<long long>(-1);
  };
  int64_t before_n = labeled(before, "ssdm_statements_total{kind=\"select\"}");
  int64_t after_n = labeled(after, "ssdm_statements_total{kind=\"select\"}");
  (void)selects;
  if (before_n < 0) before_n = 0;
  EXPECT_EQ(after_n, before_n + 2);
}

// ---------------------------------------------------------------------------
// Tracing and EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// Extracts every integer following `key ` in `text` (e.g. key "actual"
/// matches "(est 4, actual 2)").
std::vector<int64_t> ExtractInts(const std::string& text,
                                 const std::string& key) {
  std::vector<int64_t> out;
  std::regex re("\\b" + key + " (\\d+)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back(std::stoll((*it)[1]));
  }
  return out;
}

TEST_F(ObsEngineTest, TraceRecordsSpanTreeWithScanCardinalities) {
  obs::QueryTrace trace;
  auto r = Run("SELECT ?s ?v WHERE { ?s ex:tag ex:t1 . ?s ex:val ?v }",
               &trace);
  ASSERT_TRUE(r.ok());
  std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("parse"), std::string::npos);
  EXPECT_NE(rendered.find("execute"), std::string::npos);
  EXPECT_NE(rendered.find("bgp"), std::string::npos);
  EXPECT_NE(rendered.find("scan"), std::string::npos);
  // Both scans report rows in/out; the join produced 2 result rows.
  std::vector<int64_t> outs = ExtractInts(rendered, "out");
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs.back(), 2);
  // rows-in >= rows-out at every step (candidates before the
  // consistency check can only shrink).
  std::vector<int64_t> ins = ExtractInts(rendered, "in");
  ASSERT_EQ(ins.size(), outs.size());
  for (size_t i = 0; i < ins.size(); ++i) EXPECT_GE(ins[i], outs[i]);
}

TEST_F(ObsEngineTest, ExplainAnalyzeActualsMatchProfiledExplain) {
  const std::string q =
      "SELECT ?s ?v WHERE { ?s ex:tag ex:t1 . ?s ex:val ?v }";
  auto plan = Run("EXPLAIN " + q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->kind(), QueryOutcome::Kind::kInfo);
  auto analyze = Run("EXPLAIN ANALYZE " + q);
  ASSERT_TRUE(analyze.ok());
  ASSERT_EQ(analyze->kind(), QueryOutcome::Kind::kInfo);

  std::vector<int64_t> explain_actuals = ExtractInts(plan->info(), "actual");
  std::vector<int64_t> analyze_actuals = ExtractInts(analyze->info(), "out");
  ASSERT_FALSE(explain_actuals.empty());
  EXPECT_EQ(analyze_actuals, explain_actuals);
}

/// Current value of a process-wide counter without labels.
uint64_t CounterValue(const std::string& family) {
  return DefaultMetrics().GetCounter(family, "", "").Value();
}

TEST_F(ObsEngineTest, IdJoinAndPathScansMoveTheTripleScanCounters) {
  // Neither the ID join nor the path evaluator goes through Graph::Match;
  // both read the permutations directly and must still be counted.
  uint64_t scans = CounterValue("ssdm_rdf_scans_total");
  uint64_t rows = CounterValue("ssdm_rdf_scan_rows_total");
  auto join = Run("SELECT ?s ?v WHERE { ?s ex:tag ex:t1 . ?s ex:val ?v }");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_EQ(join->rows().rows.size(), 2u);
  EXPECT_GE(CounterValue("ssdm_rdf_scans_total"), scans + 2);  // two scans
  EXPECT_GE(CounterValue("ssdm_rdf_scan_rows_total"), rows + 6);  // 2 + 4

  ASSERT_TRUE(Run("INSERT DATA { ex:a ex:next ex:b . ex:b ex:next ex:c . "
                  "ex:c ex:next ex:d }")
                  .ok());
  scans = CounterValue("ssdm_rdf_scans_total");
  rows = CounterValue("ssdm_rdf_scan_rows_total");
  auto path = Run("SELECT ?x WHERE { ex:a ex:next+ ?x }");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->rows().rows.size(), 3u);
  // One probe per expanded node (a, b, c, d), one edge row per step.
  EXPECT_GE(CounterValue("ssdm_rdf_scans_total"), scans + 4);
  EXPECT_GE(CounterValue("ssdm_rdf_scan_rows_total"), rows + 3);
}

TEST_F(ObsEngineTest, PathVisitBudgetTruncationIsCounted) {
  ASSERT_TRUE(Run("INSERT DATA { ex:a ex:next ex:b . ex:b ex:next ex:c . "
                  "ex:c ex:next ex:d . ex:d ex:next ex:e }")
                  .ok());
  const uint64_t before =
      CounterValue("ssdm_exec_path_budget_exhausted_total");
  auto full = Run("SELECT ?x WHERE { ex:a ex:next+ ?x }");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->rows().rows.size(), 4u);
  EXPECT_EQ(CounterValue("ssdm_exec_path_budget_exhausted_total"), before);

  db_.exec_options().max_path_visits = 3;
  auto cut = Run("SELECT ?x WHERE { ex:a ex:next+ ?x }");
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_LT(cut->rows().rows.size(), 4u);
  EXPECT_EQ(CounterValue("ssdm_exec_path_budget_exhausted_total"),
            before + 1);
}

TEST_F(ObsEngineTest, ExplainAnalyzeRunsUpdatesForReal) {
  auto r = Run("EXPLAIN ANALYZE INSERT DATA { ex:z ex:val 9 }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind(), QueryOutcome::Kind::kInfo);
  auto check = Run("ASK { ex:z ex:val 9 }");
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ask());
}

// ---------------------------------------------------------------------------
// Session fetch error contract
// ---------------------------------------------------------------------------

TEST_F(ObsEngineTest, FetchScalarDistinguishesNotFound) {
  client::Session session(&db_);
  auto missing =
      session.FetchScalar("SELECT ?v WHERE { ex:nosuch ex:val ?v }");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().ToString().find("?v"), std::string::npos);

  auto many = session.FetchScalar("SELECT ?v WHERE { ?s ex:val ?v }");
  ASSERT_FALSE(many.ok());
  EXPECT_EQ(many.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(many.status().ToString().find("?v"), std::string::npos);

  auto one = session.FetchScalar("SELECT ?v WHERE { ex:a ex:val ?v }");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1.0);
}

TEST_F(ObsEngineTest, FetchArrayNamesVariableInTypeError) {
  client::Session session(&db_);
  auto not_array =
      session.FetchArray("SELECT ?v WHERE { ex:a ex:val ?v }");
  ASSERT_FALSE(not_array.ok());
  EXPECT_EQ(not_array.status().code(), StatusCode::kTypeError);
  EXPECT_NE(not_array.status().ToString().find("?v"), std::string::npos);

  auto missing =
      session.FetchArray("SELECT ?m WHERE { ex:nosuch ex:m ?m }");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().ToString().find("?m"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured wire protocol
// ---------------------------------------------------------------------------

TEST_F(ObsEngineTest, RemoteExecuteCarriesOutcomeAndTrace) {
  client::SsdmServer server(&db_);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  auto conn = client::RemoteSession::Connect("127.0.0.1", *port, 2000ms);
  ASSERT_TRUE(conn.ok());

  obs::QueryTrace trace;
  QueryRequest req;
  req.text = "SELECT ?s ?v WHERE { ?s ex:tag ex:t1 . ?s ex:val ?v }";
  req.trace_sink = &trace;
  auto rows = conn->Execute(req);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->kind(), QueryOutcome::Kind::kRows);
  EXPECT_EQ(rows->rows().rows.size(), 2u);
  // The server-rendered span tree was adopted into the client's sink,
  // including the serialize phase only the server sees.
  std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("scan"), std::string::npos);
  EXPECT_NE(rendered.find("serialize"), std::string::npos);

  QueryRequest update;
  update.text = "INSERT DATA { ex:remote ex:val 7 }";
  auto upd = conn->Execute(update);
  ASSERT_TRUE(upd.ok());
  ASSERT_EQ(upd->kind(), QueryOutcome::Kind::kUpdateCount);
  EXPECT_EQ(upd->update_count(), 1);

  QueryRequest ask;
  ask.text = "ASK { ex:remote ex:val 7 }";
  auto asked = conn->Execute(ask);
  ASSERT_TRUE(asked.ok());
  ASSERT_EQ(asked->kind(), QueryOutcome::Kind::kAsk);
  EXPECT_TRUE(asked->ask());

  auto metrics = conn->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("ssdm_sched_admitted_total"), std::string::npos);

  server.Stop();
}

TEST_F(ObsEngineTest, RemoteDeadlineTravelsWithRequest) {
  // Enough rows that the amortized per-solution interrupt checks fire,
  // each made slow by a foreign "nap" call.
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 300; ++i) {
    ttl << "ex:slow" << i << " ex:val " << i << " .\n";
  }
  ASSERT_TRUE(db_.LoadTurtleString(ttl.str()).ok());
  db_.RegisterForeign(
      "http://example.org/nap",
      [](std::span<const Term> args) -> Result<Term> {
        std::this_thread::sleep_for(1ms);
        return args[0];
      },
      1);
  client::SsdmServer server(&db_);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  auto conn = client::RemoteSession::Connect("127.0.0.1", *port, 10000ms);
  ASSERT_TRUE(conn.ok());

  QueryRequest req;
  req.text = "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }";
  req.timeout = 20ms;
  auto r = conn->Execute(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Concurrency: METRICS reads racing parallel reads and exclusive writes
// (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(ObsConcurrencyTest, MetricsStayConsistentUnderParallelQueries) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  std::ostringstream ttl;
  ttl << "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 200; ++i) {
    ttl << "ex:row" << i << " ex:val " << i << " .\n";
  }
  ASSERT_TRUE(db.LoadTurtleString(ttl.str()).ok());

  sched::SchedulerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 256;
  sched::QueryScheduler scheduler(&db, opts);

  MetricsRegistry& reg = DefaultMetrics();
  Counter& completed =
      reg.GetCounter("ssdm_sched_completed_total", "", "");
  Histogram& read_lat =
      reg.GetHistogram("ssdm_query_micros", "class=\"read\"", "");
  Histogram& write_lat =
      reg.GetHistogram("ssdm_query_micros", "class=\"write\"", "");
  uint64_t completed_before = completed.Value();
  uint64_t lat_before = read_lat.Count() + write_lat.Count();

  constexpr int kReaders = 4;
  constexpr int kSelectsPerReader = 10;
  constexpr int kUpdates = 5;
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&scheduler, &errors] {
      for (int i = 0; i < kSelectsPerReader; ++i) {
        QueryRequest req;
        req.text = "SELECT ?s WHERE { ?s ex:val ?v . FILTER(?v > 50) }";
        auto r = scheduler.Execute(std::move(req));
        if (!r.ok() || r->kind() != QueryOutcome::Kind::kRows) ++errors;
      }
    });
  }
  threads.emplace_back([&scheduler, &errors] {
    for (int i = 0; i < kUpdates; ++i) {
      QueryRequest req;
      req.text = "INSERT DATA { ex:new" + std::to_string(i) +
                 " ex:val 1000 }";
      auto r = scheduler.Execute(std::move(req));
      if (!r.ok()) ++errors;
    }
  });
  // Hammer the exposition endpoint while queries run: every render must
  // parse, and the completed counter must be monotonic across reads.
  threads.emplace_back([&db, &errors] {
    int64_t last = -1;
    for (int i = 0; i < 20; ++i) {
      QueryRequest req;
      req.text = "METRICS";
      auto r = db.Execute(req);
      if (!r.ok() || r->kind() != QueryOutcome::Kind::kInfo) {
        ++errors;
        continue;
      }
      int64_t v = SampleValue(r->info(), "ssdm_sched_completed_total");
      if (v < last) ++errors;
      last = v;
      std::this_thread::sleep_for(1ms);
    }
  });
  for (auto& t : threads) t.join();
  scheduler.Stop();

  EXPECT_EQ(errors.load(), 0);
  uint64_t ran = kReaders * kSelectsPerReader + kUpdates;
  EXPECT_EQ(completed.Value(), completed_before + ran);
  // Every completed query observed exactly one latency sample.
  EXPECT_EQ(read_lat.Count() + write_lat.Count(), lat_before + ran);
}

}  // namespace
}  // namespace obs
}  // namespace scisparql
