// ssdm_perfbench — end-to-end benchmark of an SSDM server.
//
//   ssdm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Generates the workload's inputs from the seed, times the engine set-up
// (median of several repetitions), serves the engine through an
// in-process SsdmServer and drives it with closed-loop RemoteSession
// clients for --seconds, checking every answer. With --trace 0 it reports
// the end-to-end metrics; with --trace 1 it reports per-layer metrics
// measured from outside the engine (counters, decorators, in-process
// re-execution, spans) and the tracing overhead. The last line of stdout
// is the JSON result; the exit code is non-zero on any wrong answer, error
// or refused request.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/server.h"
#include "engine/durability.h"
#include "obs/metrics.h"
#include "report.h"
#include "spans.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

using scisparql::QueryOutcome;
using scisparql::Result;
using scisparql::Status;
using scisparql::client::RemoteSession;
using scisparql::client::SsdmServer;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return false;
    kv[k.substr(2)] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0 || kv.count("workload") == 0) return false;
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        a->workload = v;
      } else if (k == "seed") {
        a->seed = std::stoull(v);
      } else if (k == "seconds") {
        a->seconds = std::stod(v);
      } else if (k == "trace") {
        a->trace = std::stoi(v) != 0;
      } else if (k == "work-dir") {
        a->work_dir = v;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return a->seconds > 0;
}

double RssMiB() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Latency percentiles are taken per window of this many samples (ten lie
/// beyond p99) and request_qps per window of kRateWindowNs, and the median
/// over windows is reported, so one burst of interference from outside the
/// process moves one window, not the figure.
constexpr size_t kWindow = 1000;
constexpr int64_t kRateWindowNs = 1'000'000'000;

/// Restricts every thread of the process, and those it starts later, to
/// the first `n` CPUs the process was allowed at start. Each phase runs on
/// as many CPUs as it has clients (set-up and the write probe on one), so
/// a request passes between client, connection and worker threads on a
/// fixed set of CPUs; on a virtual machine that removes most cross-CPU
/// wake-up jitter from the figures. Returns the CPUs used.
int PinToCpus(int n) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  cpu_set_t use;
  CPU_ZERO(&use);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      ++taken;
    }
  }
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    pid_t tid = static_cast<pid_t>(std::atol(task.path().filename().c_str()));
    if (sched_setaffinity(tid, sizeof(use), &use) != 0) return 0;
  }
  return ec ? 0 : taken;
}

uint64_t CounterValue(const char* family) {
  return scisparql::obs::DefaultMetrics().GetCounter(family, "", "").Value();
}

std::array<uint64_t, scisparql::obs::Histogram::kBuckets> WaitBuckets() {
  return scisparql::obs::DefaultMetrics()
      .GetHistogram("ssdm_sched_wait_micros", "", "")
      .BucketCounts();
}

/// What a stretch of closed-loop traffic produced.
struct LoopStats {
  std::vector<Sample> reads;   ///< latencies in ms
  std::vector<Sample> writes;  ///< latencies in ms
  std::vector<std::vector<double>> class_ms;  ///< indexed by Request::cls
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors and refusals
  uint64_t wrong = 0;   ///< responses that failed their check
  uint64_t rows = 0;    ///< result rows returned (ASK counts one)
  uint64_t write_bytes = 0;  ///< statement bytes of the writes sent
  double latency_ms = 0;     ///< sum over successful requests
  double elapsed_s = 0;
  int64_t start_ns = 0;  ///< of the loop that produced these stats

  uint64_t completed() const { return attempted - failed; }
  double qps() const {
    return elapsed_s > 0 ? static_cast<double>(completed()) / elapsed_s : 0;
  }
  /// Median over whole kRateWindowNs windows of completions per second.
  std::optional<double> windowed_qps() const {
    std::vector<int64_t> done;
    for (const auto* v : {&reads, &writes}) {
      for (const Sample& s : *v) done.push_back(s.done_ns);
    }
    return WindowedRate(done, start_ns,
                        start_ns + static_cast<int64_t>(elapsed_s * 1e9),
                        kRateWindowNs);
  }
  void Merge(const LoopStats& o) {
    reads.insert(reads.end(), o.reads.begin(), o.reads.end());
    writes.insert(writes.end(), o.writes.begin(), o.writes.end());
    if (class_ms.size() < o.class_ms.size()) class_ms.resize(o.class_ms.size());
    for (size_t c = 0; c < o.class_ms.size(); ++c) {
      class_ms[c].insert(class_ms[c].end(), o.class_ms[c].begin(),
                         o.class_ms[c].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    rows += o.rows;
    write_bytes += o.write_bytes;
    latency_ms += o.latency_ms;
  }
};

/// Failure messages are printed for the first few only.
void Report(const char* what, const Request& req, const std::string& detail) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "%s (class %d): %s\n  statement: %s\n", what,
                 req.cls, detail.c_str(), req.text.c_str());
  }
}

uint64_t RowsOf(const QueryOutcome& out) {
  switch (out.kind()) {
    case QueryOutcome::Kind::kRows:
      return out.rows().rows.size();
    case QueryOutcome::Kind::kAsk:
      return 1;
    default:
      return 0;
  }
}

/// "rows=12 first=(...)" / "ask=true" / "updated=3", for failure reports.
std::string Describe(const QueryOutcome& out) {
  switch (out.kind()) {
    case QueryOutcome::Kind::kRows: {
      const auto& rows = out.rows().rows;
      std::string s = "rows=" + std::to_string(rows.size());
      if (!rows.empty()) {
        s += " first=(";
        for (const auto& cell : rows[0]) s += " " + cell.ToString();
        s += " )";
      }
      return s;
    }
    case QueryOutcome::Kind::kAsk:
      return out.ask() ? "ask=true" : "ask=false";
    case QueryOutcome::Kind::kUpdateCount:
      return "updated=" + std::to_string(out.update_count());
    default:
      return "other outcome";
  }
}

/// Sends one request, times it socket to socket, checks the answer.
void SendOne(Workload& wl, RemoteSession& session, const Request& req,
             LoopStats* st) {
  ++st->attempted;
  if (req.write) st->write_bytes += req.text.size();
  int64_t t0 = NowNs();
  Result<QueryOutcome> res = [&] {
    ScopedSpan span("client.request");
    return session.Execute(req.text);
  }();
  int64_t t1 = NowNs();
  double ms = Ms(t1 - t0);
  if (!res.ok()) {
    ++st->failed;
    Report("request failed", req, res.status().ToString());
    return;
  }
  if (!wl.Check(req, *res)) {
    ++st->wrong;
    Report("wrong answer", req, Describe(*res));
  }
  st->rows += RowsOf(*res);
  st->latency_ms += ms;
  (req.write ? st->writes : st->reads).push_back({t1, ms});
  if (st->class_ms.size() <= static_cast<size_t>(req.cls)) {
    st->class_ms.resize(static_cast<size_t>(req.cls) + 1);
  }
  st->class_ms[static_cast<size_t>(req.cls)].push_back(ms);
}

struct Client {
  RemoteSession session;
  Rng rng;
};

std::atomic<uint64_t> g_next_request{1};

/// Runs every client in a closed loop until `seconds` have passed; requests
/// in flight at the deadline complete and count.
LoopStats RunLoop(Workload& wl, std::vector<Client>& clients, double seconds) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<LoopStats> per(clients.size());
  std::vector<std::thread> threads;
  const bool solo = clients.size() == 1;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < deadline) {
        Request req = wl.Next(static_cast<int>(c), clients[c].rng);
        uint64_t id = g_next_request.fetch_add(1);
        RequestScope scope(id);
        if (solo) SpanRecorder::Get().set_solo_request(id);
        SendOne(wl, clients[c].session, req, &per[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  SpanRecorder::Get().set_solo_request(0);
  LoopStats out;
  for (const auto& p : per) out.Merge(p);
  out.start_ns = start;
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

/// Counters sampled at the edges of a measured window.
struct LayerSnapshot {
  uint64_t scan_rows = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  std::array<uint64_t, scisparql::obs::Histogram::kBuckets> wait{};
  scisparql::cache::CacheCounters cache;
  scisparql::sched::SchedulerStats sched;
  StorageCounters storage;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
};

LayerSnapshot Snap(Instance& inst, SsdmServer& server) {
  LayerSnapshot s;
  s.scan_rows = CounterValue("ssdm_rdf_scan_rows_total");
  s.pool_hits = CounterValue("ssdm_buffer_pool_hits_total");
  s.pool_misses = CounterValue("ssdm_buffer_pool_misses_total");
  s.pool_evictions = CounterValue("ssdm_buffer_pool_evictions_total");
  s.wait = WaitBuckets();
  s.cache = inst.engine->cache().counters();
  s.sched = server.scheduler_stats();
  if (inst.storage != nullptr) s.storage = inst.storage->counters();
  if (auto* d = inst.engine->durability(); d != nullptr && d->wal() != nullptr) {
    s.wal_fsyncs = d->wal()->fsyncs();
    s.wal_appends = d->wal()->appends();
    s.wal_bytes = d->wal()->bytes_written();
  }
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Annotation writes for the workloads whose mix has none, because the
/// result line carries every end-to-end metric in every workload: one
/// client, one triple per INSERT DATA, each acknowledged once durable. The
/// first `warm` writes open the WAL segment and the write path; they are
/// checked (into `warm_stats`) but not timed.
LoopStats RunWriteProbe(Workload& wl, RemoteSession& session, int warm,
                        int writes, LoopStats* warm_stats) {
  LoopStats st;
  int64_t start = NowNs();
  for (int i = 0; i < warm + writes; ++i) {
    if (i == warm) start = NowNs();
    Request req;
    req.write = true;
    req.text = "INSERT DATA { <http://example.org/probe/note" +
               std::to_string(i) +
               "> <http://example.org/probe/text> \"write probe " +
               std::to_string(i) + "\" . }";
    req.expect.kind = Expect::Kind::kUpdate;
    req.expect.lo = req.expect.hi = 1;
    SendOne(wl, session, req, i < warm ? warm_stats : &st);
  }
  st.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return st;
}

/// In-process measurements for the traced run: the workload's reads are
/// parsed by sparql::ParseStatement, executed through SSDM::Execute under
/// the scheduler's exclusive lock, and sent over the wire, each timed.
struct InProcess {
  std::vector<double> parse_us;
  std::vector<double> exec_ms;
  std::vector<double> wire_ms;
  double array_exec_ns = 0;
  double array_fetch_ns = 0;
  LoopStats checked;
};

InProcess MeasureInProcess(Workload& wl, Instance& inst, SsdmServer& server,
                           RemoteSession& session, uint64_t seed,
                           double budget_s) {
  InProcess m;
  Rng rng(seed ^ 0x1f2e3d4cULL);
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int i = 0; i < 400 && NowNs() < deadline; ++i) {
    // A client number of its own: writes are drawn but not sent, so they
    // must not touch the loop clients' write state.
    Request req = wl.Next(wl.clients(), rng);
    if (req.write) continue;
    {
      ScopedSpan span("sparql.parse");
      auto parsed =
          scisparql::sparql::ParseStatement(req.text, inst.engine->prefixes());
      m.parse_us.push_back(static_cast<double>(span.ElapsedNs()) / 1e3);
      if (!parsed.ok()) Report("parse failed", req, parsed.status().ToString());
    }
    LoopStats remote;
    SendOne(wl, session, req, &remote);
    m.checked.Merge(remote);
    if (remote.failed > 0) continue;
    double remote_ms = remote.latency_ms;

    double exec_ms = 0;
    StorageCounters before;
    StorageCounters after;
    Status locked = server.scheduler()->ExecuteExclusive(
        [&](scisparql::SSDM* engine) {
          if (inst.storage != nullptr) before = inst.storage->counters();
          ScopedSpan span("sparql.exec");
          auto res = engine->Execute(req.text);
          exec_ms = Ms(span.ElapsedNs());
          if (inst.storage != nullptr) after = inst.storage->counters();
          ++m.checked.attempted;
          if (!res.ok()) {
            ++m.checked.failed;
            Report("in-process execution failed", req,
                   res.status().ToString());
          } else if (!wl.Check(req, *res)) {
            ++m.checked.wrong;
            Report("wrong in-process answer", req, Describe(*res));
          }
          return res.status();
        });
    if (!locked.ok()) continue;  // counted and reported above
    m.exec_ms.push_back(exec_ms);
    m.wire_ms.push_back(remote_ms - exec_ms);
    if (wl.ArrayComputeClass(req.cls)) {
      m.array_exec_ns += exec_ms * 1e6;
      m.array_fetch_ns += static_cast<double>((after - before).fetch_ns);
    }
  }
  return m;
}

/// Removes the run's scratch directory however the run ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  PinToCpus(1);
  DirGuard work{args.work_dir + "/run-" + std::to_string(getpid())};
  std::error_code ec;
  std::filesystem::remove_all(work.path, ec);
  std::filesystem::create_directories(work.path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work.path.c_str(),
                 ec.message().c_str());
    return 2;
  }

  Status gen = wl->Generate(args.seed);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n", gen.ToString().c_str());
    return 1;
  }

  // --- Set-up, repeated; the last instance serves. ---
  std::vector<double> setup_s;
  std::vector<double> load_rate;
  std::vector<double> bytes_per_triple;
  std::unique_ptr<Instance> inst;
  // At least kMinSetups repetitions, and more (up to kMaxSetups) until
  // they add up to kMinSetupSeconds, so cheap set-ups get a median over
  // more samples.
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 9;
  constexpr double kMinSetupSeconds = 4.0;
  double setup_total = 0;
  for (int r = 0; r < kMinSetups || (setup_total < kMinSetupSeconds &&
                                     r < kMaxSetups);
       ++r) {
    inst.reset();
    malloc_trim(0);
    double rss0 = RssMiB();
    int64_t t0 = NowNs();
    auto made = wl->Setup(work.path + "/store" + std::to_string(r));
    double secs = static_cast<double>(NowNs() - t0) / 1e9;
    if (!made.ok()) {
      std::fprintf(stderr, "setup: %s\n", made.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*made);
    malloc_trim(0);  // count live set-up memory, not freed temporaries
    setup_s.push_back(secs);
    setup_total += secs;
    load_rate.push_back(Ratio(static_cast<double>(inst->triples), inst->load_s));
    bytes_per_triple.push_back(Ratio((RssMiB() - rss0) * 1024 * 1024,
                                     static_cast<double>(inst->triples)));
  }
  wl->ReleaseInputs();
  malloc_trim(0);

  const int cpus = PinToCpus(wl->clients());
  SsdmServer::Options opts;
  opts.sched.workers = wl->clients();
  SsdmServer server(inst->engine.get(), opts);
  auto port = server.Start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "server: %s\n", port.status().ToString().c_str());
    return 1;
  }
  std::vector<Client> clients;
  for (int c = 0; c < wl->clients(); ++c) {
    auto s = RemoteSession::Connect("127.0.0.1", *port,
                                    std::chrono::milliseconds(30000));
    if (!s.ok()) {
      std::fprintf(stderr, "connect: %s\n", s.status().ToString().c_str());
      return 1;
    }
    clients.push_back(
        Client{std::move(*s), Rng(args.seed * 1000003ULL + static_cast<uint64_t>(c))});
  }

  // --- Warm-up, then the measured closed loop. ---
  LoopStats warm = RunLoop(*wl, clients, std::min(1.0, 0.1 * args.seconds));
  LoopStats all = warm;  // every checked request counts towards attempted
  LoopStats measured;
  LoopStats untraced;
  LayerSnapshot before;
  LayerSnapshot after;
  if (!args.trace) {
    measured = RunLoop(*wl, clients, args.seconds);
  } else {
    untraced = RunLoop(*wl, clients, args.seconds / 2);
    all.Merge(untraced);
    before = Snap(*inst, server);
    SpanRecorder::Get().set_enabled(true);
    measured = RunLoop(*wl, clients, args.seconds / 2);
    SpanRecorder::Get().set_enabled(false);
    after = Snap(*inst, server);
  }
  all.Merge(measured);
  // Memory the allocator holds but the engine no longer uses is returned
  // first, so the figure tracks live data rather than allocator history.
  malloc_trim(0);
  const double resident_mb = RssMiB();

  // --- In-process measurements (traced run). ---
  InProcess inproc;
  if (args.trace) {
    SpanRecorder::Get().set_enabled(true);
    inproc = MeasureInProcess(*wl, *inst, server, clients[0].session,
                              args.seed, 2.0);
    SpanRecorder::Get().set_enabled(false);
    all.Merge(inproc.checked);
  }
  // --- Write probe for mixes without writes. ---
  // It runs last: the delta it leaves behind would slow the reads above.
  bool loop_writes = !measured.writes.empty();
  LoopStats writes = measured;
  LayerSnapshot wal_before = before;
  LayerSnapshot wal_after = after;
  if (!loop_writes) {
    PinToCpus(1);
    wal_before = Snap(*inst, server);
    SpanRecorder::Get().set_enabled(args.trace);
    writes = RunWriteProbe(*wl, clients[0].session, 50,
                           args.trace ? 300 : 5000, &all);
    SpanRecorder::Get().set_enabled(false);
    wal_after = Snap(*inst, server);
    all.Merge(writes);
  }
  clients.clear();
  server.Stop();

  // --- Metrics. ---
  std::vector<Metric> metrics;
  bool ok = true;
  auto need = [&](const char* what, std::optional<double> v) {
    if (!v.has_value()) {
      std::fprintf(stderr, "too few samples for %s\n", what);
      ok = false;
      return 0.0;
    }
    return *v;
  };
  if (!args.trace) {
    metrics = {
        {"setup_s", need("setup_s", Median(setup_s)), "s"},
        {"read_p50_ms",
         need("read_p50_ms", WindowedPercentile(measured.reads, 0.5, kWindow)),
         "ms"},
        {"read_p99_ms",
         need("read_p99_ms", WindowedPercentile(measured.reads, 0.99, kWindow)),
         "ms"},
        {"write_p50_ms",
         need("write_p50_ms", WindowedPercentile(writes.writes, 0.5, kWindow)),
         "ms"},
        {"write_p99_ms",
         need("write_p99_ms", WindowedPercentile(writes.writes, 0.99, kWindow)),
         "ms"},
        {"request_qps", need("request_qps", measured.windowed_qps()), "1/s"},
        {"resident_mb", resident_mb, "MiB"},
    };
  } else {
    double requests = static_cast<double>(measured.attempted);
    StorageCounters storage = after.storage - before.storage;
    uint64_t hits = after.cache.plan_hits - before.cache.plan_hits;
    uint64_t misses = after.cache.plan_misses - before.cache.plan_misses;
    std::array<uint64_t, scisparql::obs::Histogram::kBuckets> wait{};
    for (size_t b = 0; b < wait.size(); ++b) {
      wait[b] = after.wait[b] - before.wait[b];
    }
    uint64_t pool_hits = after.pool_hits - before.pool_hits;
    uint64_t pool_pins = pool_hits + (after.pool_misses - before.pool_misses);
    metrics = {
        {"loaders.triples_per_s", need("load rate", Median(load_rate)), "1/s"},
        {"rdf.bytes_per_triple", need("bytes", Median(bytes_per_triple)),
         "B/triple"},
        {"rdf.scan_rows_per_result",
         Ratio(static_cast<double>(after.scan_rows - before.scan_rows),
               static_cast<double>(measured.rows)),
         "ratio"},
        {"sparql.parse_us", need("parse", Median(inproc.parse_us)), "us"},
        {"sparql.exec_ms_p50", need("exec", Median(inproc.exec_ms)), "ms"},
        {"cache.plan_hit_ratio",
         Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
         "ratio"},
        {"sched.wait_us_p50", HistogramQuantile(wait, 0.5).value_or(0), "us"},
        {"sched.wait_us_p99", HistogramQuantile(wait, 0.99).value_or(0), "us"},
        {"sched.compactions",
         static_cast<double>(after.sched.compactions - before.sched.compactions),
         "count"},
        {"sched.escalated",
         static_cast<double>(after.sched.escalated - before.sched.escalated),
         "count"},
        {"client.wire_ms_p50", need("wire", Median(inproc.wire_ms)), "ms"},
        {"storage.fetch_calls_per_query",
         Ratio(static_cast<double>(storage.fetch_calls), requests), "count"},
        {"storage.chunks_per_query",
         Ratio(static_cast<double>(storage.chunks), requests), "count"},
        {"storage.bytes_per_query",
         Ratio(static_cast<double>(storage.bytes), requests), "B"},
        {"storage.fetch_ms_share",
         Ratio(Ms(static_cast<int64_t>(storage.fetch_ns)), measured.latency_ms),
         "ratio"},
        {"relstore.pool_hit_ratio",
         Ratio(static_cast<double>(pool_hits), static_cast<double>(pool_pins)),
         "ratio"},
        {"relstore.pool_evictions",
         static_cast<double>(after.pool_evictions - before.pool_evictions),
         "count"},
        {"array.compute_ms_share",
         Ratio(inproc.array_exec_ns - inproc.array_fetch_ns,
               inproc.array_exec_ns),
         "ratio"},
        {"storage.wal_fsyncs_per_commit",
         Ratio(static_cast<double>(wal_after.wal_fsyncs - wal_before.wal_fsyncs),
               static_cast<double>(wal_after.wal_appends -
                                   wal_before.wal_appends)),
         "ratio"},
        {"storage.wal_bytes_per_user_byte",
         Ratio(static_cast<double>(wal_after.wal_bytes - wal_before.wal_bytes),
               static_cast<double>(writes.write_bytes)),
         "ratio"},
        {"trace.qps_overhead_ratio",
         Ratio(untraced.qps() - measured.qps(), untraced.qps()), "ratio"},
    };
  }

  // Human-readable context lines; the JSON result is the last line.
  std::printf("workload %s seed %llu trace %d: %zu read and %zu write samples"
              " (%s writes), %.1f s measured, setup median %.3f s of %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, measured.reads.size(),
              writes.writes.size(), loop_writes ? "in-loop" : "probe",
              measured.elapsed_s, Median(setup_s).value_or(0), setup_s.size());
  std::printf("  setups (s):");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("  %d clients pinned to %d CPUs; %s\n", wl->clients(), cpus,
              inst->triples > 0
                  ? (std::to_string(inst->triples) + " triples loaded").c_str()
                  : "");
  for (const auto* samples : {&measured.reads, &writes.writes}) {
    std::vector<double> v = Values(*samples);
    std::printf("  %s latency ms: p50 %.3f p90 %.3f p99 %.3f (windowed %.3f"
                " over %zu windows) max %.3f\n",
                samples == &measured.reads ? "read " : "write",
                Median(v).value_or(0), TailPercentile(v, 0.9, 0).value_or(0),
                TailPercentile(v, 0.99, 0).value_or(0),
                WindowedPercentile(*samples, 0.99, kWindow).value_or(0),
                v.size() / kWindow,
                v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
  }
  std::vector<std::string> names = wl->classes();
  for (size_t c = 0; c < measured.class_ms.size() && c < names.size(); ++c) {
    const auto& v = measured.class_ms[c];
    std::printf("  class %-18s %7zu samples (%5.1f%%), median %.3f ms\n",
                names[c].c_str(), v.size(),
                100.0 * Ratio(static_cast<double>(v.size()),
                              static_cast<double>(measured.completed())),
                Median(v).value_or(0));
  }
  if (args.trace) {
    std::filesystem::path spans = std::filesystem::path(args.work_dir) /
                                  ("spans-" + args.workload + ".jsonl");
    Status w = SpanRecorder::Get().WriteJsonLines(spans.string());
    std::printf("spans: %zu recorded, %llu dropped, written to %s (%s)\n",
                SpanRecorder::Get().size(),
                static_cast<unsigned long long>(SpanRecorder::Get().dropped()),
                spans.string().c_str(), w.ToString().c_str());
  }
  if (!ok) return 1;
  // An error or refusal fails the run like a wrong answer does: latencies
  // over only the requests that survived would not be comparable.
  const bool correct = all.wrong == 0 && all.failed == 0;
  auto line = RenderResult(correct, all.attempted, all.failed + all.wrong,
                           metrics);
  if (!line.ok()) {
    std::fprintf(stderr, "result: %s\n", line.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", line->c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ssdm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
