#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>

#include "apps/bistab.h"
#include "spans.h"
#include "storage/relational_backend.h"

namespace perfbench {

using scisparql::QueryOutcome;
using scisparql::Result;
using scisparql::Status;

bool Workload::Check(const Request& req, const QueryOutcome& out) {
  const Expect& e = req.expect;
  auto in_range = [&](int64_t v) { return v >= e.lo && v <= e.hi; };
  switch (e.kind) {
    case Expect::Kind::kRows: {
      if (out.kind() != QueryOutcome::Kind::kRows) return false;
      const auto& rows = out.rows().rows;
      if (!in_range(static_cast<int64_t>(rows.size()))) return false;
      if (e.first_col < 0) return true;
      return !rows.empty() &&
             static_cast<size_t>(e.first_col) < rows[0].size() &&
             rows[0][static_cast<size_t>(e.first_col)].ToString() == e.first;
    }
    case Expect::Kind::kCount: {
      if (out.kind() != QueryOutcome::Kind::kRows) return false;
      const auto& rows = out.rows().rows;
      if (rows.size() != 1 || rows[0].empty()) return false;
      auto n = rows[0][0].AsInteger();
      return n.ok() && in_range(*n);
    }
    case Expect::Kind::kAsk:
      return out.kind() == QueryOutcome::Kind::kAsk && out.ask() == e.ask;
    case Expect::Kind::kUpdate:
      return out.kind() == QueryOutcome::Kind::kUpdateCount &&
             in_range(out.update_count());
  }
  return false;
}

namespace {

std::string Str(int v) { return std::to_string(v); }

Expect Rows(int64_t n) {
  Expect e;
  e.lo = e.hi = n;
  return e;
}

/// Creates the engine with its durable store opened (empty) in `dir`.
/// Attach array back-ends to `inst->engine` before calling.
Status OpenStore(const std::string& dir, Instance* inst) {
  inst->vfs = std::make_unique<BenchVfs>();
  if (inst->engine == nullptr) {
    inst->engine = std::make_unique<scisparql::SSDM>();
  }
  return inst->engine->Open(dir, inst->vfs.get());
}

/// The steps after a bulk load: a checkpoint, because direct loads bypass
/// the WAL and the loaded data is durable only once a snapshot holds it;
/// the permutation indexes a first query would otherwise build lazily; and
/// `warm_query` in-process, so the engine is ready for the first client
/// request when setup ends.
Status FinishSetup(Instance* inst, const std::string& warm_query) {
  const scisparql::Dataset& data = inst->engine->dataset();
  inst->triples = data.default_graph().size();
  for (const auto& [iri, graph] : data.named_graphs()) {
    inst->triples += graph.size();
  }
  {
    ScopedSpan span("storage.checkpoint");
    auto c = inst->engine->Checkpoint();
    if (!c.ok()) return c.status();
  }
  {
    ScopedSpan span("rdf.index_build");
    inst->engine->dataset().default_graph().EnsureIdIndexes();
  }
  ScopedSpan span("engine.warm_query");
  auto r = inst->engine->Execute(warm_query);
  return r.ok() ? Status::OK() : r.status();
}

/// Setup shared by the Turtle-loaded workloads: `turtle` goes into the
/// default graph, `archives[k]` into the named graph `archive_iri` + k.
Result<std::unique_ptr<Instance>> SetupTurtle(
    const std::string& dir, const std::string& turtle,
    const std::string& warm_query,
    const std::vector<std::string>& archives = {},
    const std::string& archive_iri = "") {
  auto inst = std::make_unique<Instance>();
  SCISPARQL_RETURN_NOT_OK(OpenStore(dir, inst.get()));
  {
    ScopedSpan span("loaders.load");
    SCISPARQL_RETURN_NOT_OK(inst->engine->LoadTurtleString(turtle));
    for (size_t k = 0; k < archives.size(); ++k) {
      SCISPARQL_RETURN_NOT_OK(inst->engine->LoadTurtleString(
          archives[k], archive_iri + std::to_string(k + 1)));
    }
    inst->load_s = static_cast<double>(span.ElapsedNs()) / 1e9;
  }
  SCISPARQL_RETURN_NOT_OK(FinishSetup(inst.get(), warm_query));
  return inst;
}

// ---------------------------------------------------------------------------
// sp2b_read
// ---------------------------------------------------------------------------

class Sp2bWorkload : public Workload {
 public:
  int clients() const override { return 2; }
  std::vector<std::string> classes() const override {
    return {"star_order_limit", "chain", "optional", "filter_bound",
            "union", "distinct", "ask", "group_by"};
  }

  Status Generate(uint64_t seed) override {
    data_ = GenerateSp2b(Sp2bConfig(), seed);
    // ASK probes: per journal four of its authors (true) and four persons
    // drawn at random (usually false), so the statement texts stay a
    // bounded set the plan cache can hold.
    Rng rng(seed ^ 0x41534bULL);
    ask_persons_.assign(data_.authors.size(), {});
    for (size_t j = 0; j < data_.authors.size(); ++j) {
      auto it = data_.authors[j].begin();
      for (int k = 0; k < 4 && it != data_.authors[j].end(); ++k, ++it) {
        ask_persons_[j].push_back(*it);
      }
      for (int k = 0; k < 4; ++k) {
        ask_persons_[j].push_back(rng.Below(data_.config.persons));
      }
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Instance>> Setup(const std::string& dir) override {
    Rng rng(7);
    return SetupTurtle(dir, data_.turtle, Next(0, rng).text);
  }

  void ReleaseInputs() override { std::string().swap(data_.turtle); }

  Request Next(int /*client*/, Rng& rng) override {
    // In order of cost: ask 12.5%, union 12.5%, filter_bound 10%,
    // optional 7.5%, group_by 15%, star 15%, distinct 12.5%, chain 15%.
    // group_by spans the 42.5th to the 57.5th percentile, so the median
    // lies in its middle rather than between two classes.
    static constexpr int kClassOf[40] = {6, 6, 6, 6, 6, 4, 4, 4, 4, 4,
                                         3, 3, 3, 3, 2, 2, 2, 7, 7, 7,
                                         7, 7, 7, 0, 0, 0, 0, 0, 0, 5,
                                         5, 5, 5, 5, 1, 1, 1, 1, 1, 1};
    const Sp2bConfig& c = data_.config;
    Request r;
    r.cls = kClassOf[rng.Below(40)];
    int j = rng.Below(c.journals);
    std::string journal = "dblp:journal_" + Str(j);
    std::string q = Sp2bPrologue();
    switch (r.cls) {
      case 0:
        q += "SELECT ?a ?t ?y WHERE { ?a a bench:Article ; swrc:journal " +
             journal +
             " ; dc:title ?t ; dcterms:issued ?y } ORDER BY DESC(?y) ?t "
             "LIMIT 10";
        r.expect = Rows(std::min(10, data_.articles[j]));
        r.expect.first_col = 2;
        r.expect.first = Str(data_.max_year[j]);
        break;
      case 1:
        q += "SELECT ?a ?n WHERE { ?jn dc:title \"Journal " + Str(j) +
             "\" . ?a swrc:journal ?jn . ?a dc:creator ?p . ?p foaf:name ?n }";
        r.expect = Rows(data_.authorships[j]);
        break;
      case 2:
        q += "SELECT ?a ?m WHERE { ?a swrc:journal " + journal +
             " . OPTIONAL { ?a swrc:month ?m } }";
        r.expect = Rows(data_.articles[j]);
        break;
      case 3:
        q += "SELECT ?a WHERE { ?a swrc:journal " + journal +
             " . OPTIONAL { ?a swrc:month ?m } FILTER (!bound(?m)) }";
        r.expect = Rows(data_.articles[j] - data_.with_month[j]);
        break;
      case 4: {
        int k = (j * 7 + rng.Below(4)) % c.proceedings;
        q += "SELECT ?x WHERE { { ?x swrc:journal " + journal +
             " } UNION { ?x dcterms:partOf dblp:proc_" + Str(k) + " } }";
        r.expect = Rows(data_.articles[j] + data_.inproceedings[k]);
        break;
      }
      case 5:
        q += "SELECT DISTINCT ?p WHERE { ?a swrc:journal " + journal +
             " ; dc:creator ?p }";
        r.expect = Rows(static_cast<int64_t>(data_.authors[j].size()));
        break;
      case 6: {
        const auto& persons = ask_persons_[j];
        int p = persons[static_cast<size_t>(
            rng.Below(static_cast<int>(persons.size())))];
        q += "ASK { ?a swrc:journal " + journal + " ; dc:creator dblp:person_" +
             Str(p) + " }";
        r.expect.kind = Expect::Kind::kAsk;
        r.expect.ask = data_.authors[j].count(p) > 0;
        break;
      }
      default:
        q += "SELECT ?y (COUNT(?a) AS ?n) WHERE { ?a swrc:journal " + journal +
             " ; dcterms:issued ?y } GROUP BY ?y";
        r.expect = Rows(data_.distinct_years[j]);
        break;
    }
    r.text = std::move(q);
    return r;
  }

 private:
  Sp2bData data_;
  std::vector<std::vector<int>> ask_persons_;
};

// ---------------------------------------------------------------------------
// path_closure
// ---------------------------------------------------------------------------

class RingsWorkload : public Workload {
 public:
  /// One client: with two, a big-ring closure shares its CPU with the
  /// other client's hand-overs, and its latency varies with how they fall.
  int clients() const override { return 1; }
  std::vector<std::string> classes() const override {
    return {"closure_count", "closure_rows", "inverse_rows", "reach_ask",
            "closure_join", "big_count"};
  }

  Status Generate(uint64_t seed) override {
    data_ = GenerateRings(RingsConfig(), seed);
    // Queries start at the entry node of one of kQueried rings, the same
    // number of each size, so every seed has the same cost mix.
    const RingsConfig& c = data_.config;
    Rng rng(seed ^ 0x51ULL);
    std::vector<int> order(static_cast<size_t>(c.rings));
    for (int i = 0; i < c.rings; ++i) order[static_cast<size_t>(i)] = i;
    for (int i = c.rings - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.Below(i + 1))]);
    }
    const int per_size = kQueried / static_cast<int>(c.sizes.size());
    std::map<int, int> taken;
    queried_.clear();
    for (int ring : order) {
      int& n = taken[data_.ring_size[static_cast<size_t>(ring)]];
      if (n < per_size) {
        ++n;
        queried_.push_back(ring);
      }
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Instance>> Setup(const std::string& dir) override {
    Rng rng(7);
    return SetupTurtle(dir, data_.turtle, Next(0, rng).text);
  }

  void ReleaseInputs() override { std::string().swap(data_.turtle); }

  Request Next(int /*client*/, Rng& rng) override {
    // Classes 0-3 20% each, 4 15%, and the closure over a big ring 5%: it
    // costs several times any other class, so p99 lies inside it rather
    // than in the scheduling jitter of the cheap classes.
    static constexpr int kClassOf[20] = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2,
                                         2, 2, 3, 3, 3, 3, 4, 4, 4, 5};
    const RingsConfig& c = data_.config;
    Request r;
    r.cls = kClassOf[rng.Below(20)];
    if (r.cls == 5) {
      int ring = c.rings + rng.Below(c.big_rings);
      r.text = RingsPrologue() + "SELECT (COUNT(?y) AS ?n) WHERE { " +
               Node(ring, 0) + " ex:knows+ ?y }";
      r.expect = Rows(c.big_size);
      r.expect.kind = Expect::Kind::kCount;
      return r;
    }
    const int queried = static_cast<int>(queried_.size());
    int pick = rng.Below(queried);
    int ring = queried_[static_cast<size_t>(pick)];
    int size = data_.ring_size[static_cast<size_t>(ring)];
    std::string node = Node(ring, 0);
    std::string q = RingsPrologue();
    switch (r.cls) {
      case 0:
        q += "SELECT (COUNT(?y) AS ?n) WHERE { " + node + " ex:knows+ ?y }";
        r.expect = Rows(size);
        r.expect.kind = Expect::Kind::kCount;
        break;
      case 1:
        q += "SELECT ?y WHERE { " + node + " ex:knows+ ?y }";
        r.expect = Rows(size);
        break;
      case 2:
        q += "SELECT ?x WHERE { ?x ex:knows+ " + node + " }";
        r.expect = Rows(size);
        break;
      case 3: {
        // Reachable: a node halfway round the same ring; unreachable: the
        // entry of the next queried ring (disjoint unless it is the same).
        bool same = rng.Below(2) == 0;
        int other = queried_[static_cast<size_t>((pick + 1) % queried)];
        std::string target = same ? Node(ring, size / 2) : Node(other, 0);
        q += "ASK { " + node + " ex:knows+ " + target + " }";
        r.expect.kind = Expect::Kind::kAsk;
        r.expect.ask = same || other == ring;
        break;
      }
      default:
        q += "SELECT ?y ?l WHERE { " + node + " ex:knows+ ?y . ?y ex:label ?l }";
        r.expect = Rows(size / c.label_every);
        break;
    }
    r.text = std::move(q);
    return r;
  }

 private:
  static constexpr int kQueried = 198;  // 22 of each of the 9 sizes

  std::string Node(int ring, int i) const {
    return "ex:r" + Str(ring) + "_" +
           Str(data_.ring_offset[static_cast<size_t>(ring)] + i);
  }

  RingsData data_;
  std::vector<int> queried_;
};

// ---------------------------------------------------------------------------
// annotate_write
// ---------------------------------------------------------------------------

class AnnotateWorkload : public Workload {
 public:
  int clients() const override { return 3; }
  std::vector<std::string> classes() const override {
    return {"insert", "ann_count", "ann_rows", "exp_star", "exp_filter",
            "delete"};
  }

  Status Generate(uint64_t seed) override {
    data_ = GenerateExperiments(ExperimentsConfig(), seed);
    // Earlier campaigns, archived in named graphs: they make the store and
    // its set-up big while the graph that takes the writes stays small, so
    // a compactor fold (and the index rebuild after it) stalls requests
    // for a few milliseconds, not tens.
    archives_.clear();
    for (int k = 1; k <= kArchives; ++k) {
      archives_.push_back(
          GenerateExperiments(ExperimentsConfig(),
                              seed * (kArchives + 1) + static_cast<uint64_t>(k))
              .turtle);
    }
    Reset();
    return Status::OK();
  }

  Result<std::unique_ptr<Instance>> Setup(const std::string& dir) override {
    // A fresh engine starts from the generated annotations only.
    Reset();
    return SetupTurtle(dir, data_.turtle,
                       ExperimentsPrologue() +
                           "SELECT ?m WHERE { ex:exp_0 ex:hasMeasurement ?m }",
                       archives_, "http://example.org/lab/archive/");
  }

  void ReleaseInputs() override {
    std::string().swap(data_.turtle);
    std::vector<std::string>().swap(archives_);
  }

  Request Next(int client, Rng& rng) override {
    // Writes 25%; reads, in order of cost: counts 22.5%, measurements 30%,
    // annotation rows 10%, range filter 12.5%. Among reads the
    // measurement star spans the 30th to the 70th percentile, so the
    // median read lies in its middle rather than between two classes.
    static constexpr int kClassOf[40] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                         1, 1, 1, 1, 1, 1, 1, 1, 1, 3,
                                         3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
                                         3, 2, 2, 2, 2, 4, 4, 4, 4, 4};
    Request r;
    r.cls = kClassOf[rng.Below(40)];
    int e = rng.Below(data_.config.experiments);
    std::string q = ExperimentsPrologue();
    const size_t ue = static_cast<size_t>(e);
    const int base = data_.config.annotations_per_experiment;
    switch (r.cls) {
      case 0: {
        // A client keeps its last kLive batches: once it has that many, a
        // write deletes the oldest instead of adding one, so writes
        // alternate between the two and the data the reads see stays the
        // same size however long the run.
        Writer& w = writers_[static_cast<size_t>(client)];
        Batch b;
        if (w.live.size() < kLive) {
          b = Batch{e, w.next};
          w.next += kBatch;
          w.live.push_back(b);
          q += "INSERT DATA {" + BatchTriples(client, b) + " }";
          inserts_issued_[ue].fetch_add(kBatch);
        } else {
          b = w.live.front();
          w.live.pop_front();
          r.cls = 5;
          q += "DELETE DATA {" + BatchTriples(client, b) + " }";
          deletes_issued_[static_cast<size_t>(b.exp)].fetch_add(kBatch);
        }
        r.write = true;
        r.expect.kind = Expect::Kind::kUpdate;
        r.expect.lo = r.expect.hi = 3 * kBatch;
        r.expect.key = b.exp;
        break;
      }
      case 1:
      case 2:
        // The bounds are completed by Check once the answer is in.
        q += r.cls == 1
                 ? "SELECT (COUNT(?a) AS ?n) WHERE { ?a ex:about ex:exp_" +
                       Str(e) + " }"
                 : "SELECT ?a ?t WHERE { ?a ex:about ex:exp_" + Str(e) +
                       " ; ex:text ?t }";
        r.expect.kind = r.cls == 1 ? Expect::Kind::kCount : Expect::Kind::kRows;
        r.expect.key = e;
        r.expect.lo = base + inserts_acked_[ue].load();
        r.expect.mark = deletes_acked_[ue].load();
        break;
      case 3:
        q += "SELECT ?m ?v ?u WHERE { ex:exp_" + Str(e) +
             " ex:hasMeasurement ?m . ?m ex:value ?v ; ex:unit ?u }";
        r.expect = Rows(data_.config.measurements_per_experiment);
        break;
      default: {
        size_t t = static_cast<size_t>(
            rng.Below(static_cast<int>(data_.config.thresholds.size())));
        q += "SELECT ?e WHERE { ?e a ex:Experiment ; ex:temperature ?t . "
             "FILTER (?t > " +
             Str(static_cast<int>(data_.config.thresholds[t])) + ") }";
        r.expect = Rows(data_.above_threshold[t]);
        break;
      }
    }
    r.text = std::move(q);
    return r;
  }

  bool Check(const Request& req, const QueryOutcome& out) override {
    size_t e = static_cast<size_t>(req.expect.key);
    if (req.cls == 0 || req.cls == 5) {
      bool ok = Workload::Check(req, out);
      if (ok) (req.cls == 0 ? inserts_acked_ : deletes_acked_)[e].fetch_add(kBatch);
      return ok;
    }
    if (req.cls == 1 || req.cls == 2) {
      // Annotations whose insert was acknowledged before the read was sent
      // must be visible unless their delete was sent before it returned;
      // no others may be, except ones whose insert was sent before it
      // returned and whose delete was not acknowledged before it was sent.
      Request bounded = req;
      bounded.expect.lo = req.expect.lo - deletes_issued_[e].load();
      bounded.expect.hi = data_.config.annotations_per_experiment +
                          inserts_issued_[e].load() - req.expect.mark;
      return Workload::Check(bounded, out);
    }
    return Workload::Check(req, out);
  }

 private:
  /// Annotations (3 triples each) per write. Batches this size reach the
  /// compactor's threshold often enough that the reads stalled behind a
  /// fold make up a few percent of all, so read p99 lies inside that group
  /// rather than on its edge.
  static constexpr int kBatch = 6;
  /// Batches each client keeps in the store.
  static constexpr size_t kLive = 32;
  static constexpr int kArchives = 12;

  /// kBatch annotations numbered from `first`, about one experiment.
  struct Batch {
    int exp = 0;
    uint64_t first = 0;
  };
  struct Writer {
    std::deque<Batch> live;
    uint64_t next = 0;
  };

  static std::string BatchTriples(int client, const Batch& b) {
    std::string out;
    for (int k = 0; k < kBatch; ++k) {
      std::string n = std::to_string(b.first + static_cast<uint64_t>(k));
      out += " ex:ann_w" + Str(client) + "_" + n +
             " a ex:Annotation ; ex:about ex:exp_" + Str(b.exp) +
             " ; ex:text \"note " + n + " from client " + Str(client) + "\" .";
    }
    return out;
  }

  void Reset() {
    size_t n = static_cast<size_t>(data_.config.experiments);
    for (auto* counts : {&inserts_issued_, &inserts_acked_, &deletes_issued_,
                         &deletes_acked_}) {
      *counts = std::make_unique<std::atomic<int64_t>[]>(n);
      for (size_t i = 0; i < n; ++i) (*counts)[i] = 0;
    }
    writers_.assign(kMaxClients, Writer{});
  }

  ExperimentsData data_;
  std::vector<std::string> archives_;
  // Per experiment, annotations whose insert or delete was sent (issued)
  // or acknowledged (acked).
  std::unique_ptr<std::atomic<int64_t>[]> inserts_issued_;
  std::unique_ptr<std::atomic<int64_t>[]> inserts_acked_;
  std::unique_ptr<std::atomic<int64_t>[]> deletes_issued_;
  std::unique_ptr<std::atomic<int64_t>[]> deletes_acked_;
  std::vector<Writer> writers_;  ///< per client, touched by it only
};

// ---------------------------------------------------------------------------
// sci_array
// ---------------------------------------------------------------------------

class SciArrayWorkload : public Workload {
 public:
  int clients() const override { return 1; }
  std::vector<std::string> classes() const override {
    return {"q1_metadata", "q2_final_state", "q3_mean", "q4_high_fraction"};
  }
  bool ArrayComputeClass(int cls) const override { return cls >= 2; }

  Status Generate(uint64_t seed) override {
    // The generator engines keep the sweeps resident; Setup copies them
    // onto the relational back-end. Sweep 0 is the one the session
    // queries; the others are archived results the store also holds.
    sources_.clear();
    for (int k = 0; k < kSweeps; ++k) {
      sources_.push_back(std::make_unique<scisparql::SSDM>());
      scisparql::apps::BistabConfig config;
      config.parameter_cases = kCases;
      config.realizations = kRealizations;
      config.timesteps = kTimesteps;
      config.seed = seed * kSweeps + static_cast<uint64_t>(k);
      auto st = scisparql::apps::GenerateBistab(sources_.back().get(), config);
      if (!st.ok()) return st.status();
    }
    // The k_1 and mean thresholds sit between the seed's own sorted values,
    // so for every seed the p-th threshold selects the same share of tasks.
    SCISPARQL_ASSIGN_OR_RETURN(
        std::vector<double> k1,
        SortedColumn("SELECT ?k1 WHERE { ?t a bi:Task ; bi:k_1 ?k1 }"));
    SCISPARQL_ASSIGN_OR_RETURN(
        std::vector<double> means,
        SortedColumn("SELECT (AAVG(?r[:, 1]) AS ?m) WHERE { ?t bi:result ?r }"));
    // Every statement the mix can send, with its answer from the resident
    // copy.
    for (int p = 0; p < kParams; ++p) {
      double share = static_cast<double>(p) / kParams;
      texts_[0][p] = scisparql::apps::BistabQ1(Between(k1, share));
      // Q2 reads the final state of at most half the tasks, so it stays
      // cheaper than Q4, which reads one element of every task.
      texts_[1][p] = scisparql::apps::BistabQ2(Between(k1, 0.5 + share / 2));
      texts_[2][p] = scisparql::apps::BistabQ3(Between(means, 0.5 + share / 2));
      texts_[3][p] =
          scisparql::apps::BistabQ4(kTimesteps - p * (kTimesteps / kParams));
      for (int c = 0; c < 4; ++c) {
        auto r = sources_[0]->Execute(texts_[c][p]);
        if (!r.ok()) return r.status();
        expected_[c][p] = static_cast<int64_t>(r->rows().rows.size());
      }
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Instance>> Setup(const std::string& dir) override {
    auto inst = std::make_unique<Instance>();
    SCISPARQL_ASSIGN_OR_RETURN(
        inst->db, scisparql::relstore::Database::Open("", kPoolPages));
    SCISPARQL_ASSIGN_OR_RETURN(
        auto rel, scisparql::RelationalArrayStorage::Attach(inst->db.get()));
    rel->set_strategy(scisparql::relstore::SelectStrategy::kInterval);
    inst->storage = std::make_shared<TimedStorage>(
        std::shared_ptr<scisparql::ArrayStorage>(std::move(rel)));
    inst->engine = std::make_unique<scisparql::SSDM>();
    inst->engine->AttachStorage(inst->storage);
    SCISPARQL_RETURN_NOT_OK(OpenStore(dir, inst.get()));
    {
      ScopedSpan span("loaders.load");
      scisparql::Dataset& data = inst->engine->dataset();
      for (int k = 0; k < kSweeps; ++k) {
        scisparql::Graph& to =
            k == 0 ? data.default_graph()
                   : data.GetOrCreateNamed(std::string(kArchiveGraph) +
                                           std::to_string(k));
        SCISPARQL_RETURN_NOT_OK(
            CopySweep(sources_[k]->dataset().default_graph(), *inst, &to));
      }
      inst->load_s = static_cast<double>(span.ElapsedNs()) / 1e9;
    }
    SCISPARQL_RETURN_NOT_OK(FinishSetup(inst.get(), texts_[0][0]));
    return inst;
  }

  void ReleaseInputs() override { sources_.clear(); }

  Request Next(int /*client*/, Rng& rng) override {
    // In order of cost: Q1 7.5%, Q2 7.5%, Q4 80%, Q3 5%. Q4 costs about
    // the same for every parameter and spans the 15th to the 95th
    // percentile, so the median lies near its own; the whole-sweep scan
    // Q3 is the expensive class, and p99 lies at its 80th percentile.
    static constexpr int kClassOf[40] = {0, 0, 0, 1, 1, 1, 2, 2, 3, 3,
                                         3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
                                         3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
                                         3, 3, 3, 3, 3, 3, 3, 3, 3, 3};
    Request r;
    r.cls = kClassOf[rng.Below(40)];
    int p = rng.Below(kParams);
    r.text = texts_[r.cls][p];
    r.expect = Rows(expected_[r.cls][p]);
    return r;
  }

 private:
  static constexpr int kCases = 16;
  static constexpr int kRealizations = 16;
  static constexpr int kTimesteps = 512;
  static constexpr int kParams = 8;
  static constexpr int64_t kChunkElems = 512;
  static constexpr size_t kPoolPages = 64;

  static constexpr int kSweeps = 28;
  static constexpr const char* kArchiveGraph =
      "http://example.org/bistab/archive/";

  /// Adds `from`'s triples to `to`, storing every array in the relational
  /// back-end and referencing it through a proxy.
  static Status CopySweep(const scisparql::Graph& from, Instance& inst,
                          scisparql::Graph* to) {
    scisparql::WriteBatch batch;
    Status st = Status::OK();
    from.ForEach([&](const scisparql::Triple& t) {
      if (!st.ok()) return;
      if (!t.o.IsArray()) {
        batch.Add(t);
        return;
      }
      auto array = t.o.array()->Materialize();
      if (!array.ok()) {
        st = array.status();
        return;
      }
      auto proxy = inst.engine->StoreArray(*array, "relational", kChunkElems);
      if (!proxy.ok()) {
        st = proxy.status();
        return;
      }
      batch.Add(t.s, t.p, *proxy);
    });
    SCISPARQL_RETURN_NOT_OK(st);
    to->Apply(std::move(batch));
    return Status::OK();
  }

  /// Values of the single column of `select` (prefix bi: predeclared) on
  /// the queried sweep, sorted.
  Result<std::vector<double>> SortedColumn(const std::string& select) {
    auto r = sources_[0]->Execute(std::string("PREFIX bi: <") +
                                  scisparql::apps::kBistabNs + ">\n" + select);
    if (!r.ok()) return r.status();
    std::vector<double> out;
    for (const auto& row : r->rows().rows) {
      auto v = row[0].AsDouble();
      if (!v.ok()) return v.status();
      out.push_back(*v);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// A threshold between two neighbours of the sorted `values`, with a
  /// share `q` in [0, 1) of them below it.
  static double Between(const std::vector<double>& values, double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(values.size()));
    if (i == 0) return values.front() - 1;
    return (values[i - 1] + values[i]) / 2;
  }

  std::vector<std::unique_ptr<scisparql::SSDM>> sources_;
  std::string texts_[4][kParams];
  int64_t expected_[4][kParams] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sp2b_read") return std::make_unique<Sp2bWorkload>();
  if (name == "sci_array") return std::make_unique<SciArrayWorkload>();
  if (name == "annotate_write") return std::make_unique<AnnotateWorkload>();
  if (name == "path_closure") return std::make_unique<RingsWorkload>();
  return nullptr;
}

}  // namespace perfbench
