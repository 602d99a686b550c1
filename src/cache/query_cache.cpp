#include "cache/query_cache.h"

#include <sstream>

#include "obs/metrics.h"
#include "rdf/dictionary.h"

namespace scisparql {
namespace cache {

namespace {

obs::Counter& CacheCounter(const char* layer, const char* event,
                           const char* help) {
  return obs::DefaultMetrics().GetCounter(
      std::string("ssdm_cache_") + layer + "_" + event + "_total", "", help);
}

obs::Counter& PlanHits() {
  static obs::Counter& c = CacheCounter(
      "plan", "hits", "Statements served from the parsed-plan cache.");
  return c;
}
obs::Counter& PlanMisses() {
  static obs::Counter& c = CacheCounter(
      "plan", "misses", "Statements that had to be parsed from scratch.");
  return c;
}
obs::Counter& ResultHits() {
  static obs::Counter& c = CacheCounter(
      "result", "hits", "Read-only outcomes served from the result cache.");
  return c;
}
obs::Counter& ResultMisses() {
  static obs::Counter& c = CacheCounter(
      "result", "misses", "Result-cache lookups that found no valid entry.");
  return c;
}
obs::Counter& ResultInvalidations() {
  static obs::Counter& c = CacheCounter(
      "result", "invalidations",
      "Cached outcomes dropped because a referenced graph's version "
      "advanced (or an epoch bump emptied the cache).");
  return c;
}
obs::Counter& ResultEvictions() {
  static obs::Counter& c = CacheCounter(
      "result", "evictions",
      "Cached outcomes evicted by the LRU byte budget.");
  return c;
}
obs::Gauge& ResultBytesGauge() {
  static obs::Gauge& g = obs::DefaultMetrics().GetGauge(
      "ssdm_cache_result_bytes", "",
      "Bytes retained by the result cache (terms + materialized array "
      "payloads).");
  return g;
}
obs::Gauge& ResultEntriesGauge() {
  static obs::Gauge& g = obs::DefaultMetrics().GetGauge(
      "ssdm_cache_result_entries", "",
      "Entries resident in the result cache.");
  return g;
}

/// QueryOutcome as a whole is move-only (the Graph alternative owns its
/// indexes); the two cacheable alternatives — rows and ask — copy fine, so
/// the cache copies per-alternative.
bool CopyReadOutcome(const QueryOutcome& in, QueryOutcome* out) {
  switch (in.kind()) {
    case QueryOutcome::Kind::kRows:
      out->value = std::get<sparql::QueryResult>(in.value);
      return true;
    case QueryOutcome::Kind::kAsk:
      out->value = std::get<bool>(in.value);
      return true;
    default:
      return false;
  }
}

/// Builtins whose value depends on more than their arguments: caching a
/// result computed from them would freeze time / randomness.
bool IsNonDeterministic(const std::string& fn) {
  return fn == "RAND" || fn == "NOW" || fn == "UUID" || fn == "STRUUID" ||
         fn == "BNODE";
}

struct AnalysisWalker {
  const sparql::FunctionRegistry* registry;
  CacheAnalysis* out;

  void Expr(const ast::Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ast::Expr::Kind::kCall) {
      Call(e->fn);
      for (const auto& a : e->args) Expr(a.get());
    }
    Expr(e->left.get());
    Expr(e->right.get());
    Expr(e->agg_arg.get());
    Expr(e->base.get());
    for (const auto& s : e->subscripts) {
      Expr(s.index.get());
      Expr(s.lo.get());
      Expr(s.hi.get());
      Expr(s.stride.get());
    }
    if (e->exists_pattern != nullptr) Pattern(*e->exists_pattern);
  }

  void Call(const std::string& fn) {
    if (sparql::IsBuiltinFunction(fn)) {
      if (IsNonDeterministic(fn)) out->cacheable = false;
      return;
    }
    if (registry != nullptr && registry->FindDefined(fn) != nullptr) {
      // A parameterized view's body may read any graph; pin the result to
      // the whole dataset and the registry generation.
      out->uses_registry = true;
      out->whole_dataset = true;
      return;
    }
    // Foreign (C++) functions may close over arbitrary state, and unknown
    // names will error anyway: don't cache either.
    out->cacheable = false;
  }

  void Pattern(const ast::GraphPattern& p) {
    for (const ast::PatternElement& el : p.elements) {
      switch (el.kind) {
        case ast::PatternElement::Kind::kTriple:
        case ast::PatternElement::Kind::kValues:
          break;
        case ast::PatternElement::Kind::kOptional:
        case ast::PatternElement::Kind::kMinus:
        case ast::PatternElement::Kind::kGroup:
          if (el.child != nullptr) Pattern(*el.child);
          break;
        case ast::PatternElement::Kind::kGraph:
          if (el.graph_name.is_var) {
            out->whole_dataset = true;  // reach depends on live graph set
          } else {
            out->graphs.insert(el.graph_name.term.iri());
          }
          if (el.child != nullptr) Pattern(*el.child);
          break;
        case ast::PatternElement::Kind::kUnion:
          for (const auto& b : el.branches) {
            if (b != nullptr) Pattern(*b);
          }
          break;
        case ast::PatternElement::Kind::kFilter:
        case ast::PatternElement::Kind::kBind:
          Expr(el.expr.get());
          break;
        case ast::PatternElement::Kind::kSubSelect:
          if (el.subquery != nullptr) Query(*el.subquery);
          break;
      }
    }
  }

  void Query(const ast::SelectQuery& q) {
    for (const std::string& g : q.from) out->graphs.insert(g);
    for (const std::string& g : q.from_named) out->graphs.insert(g);
    for (const auto& proj : q.projections) Expr(proj.expr.get());
    Pattern(q.where);
    for (const auto& e : q.group_by) Expr(e.get());
    for (const auto& e : q.having) Expr(e.get());
    for (const auto& k : q.order_by) Expr(k.expr.get());
  }
};

}  // namespace

std::string CacheCounters::ToString() const {
  std::ostringstream out;
  out << "plan_hits=" << plan_hits << " plan_misses=" << plan_misses
      << " plan_invalidations=" << plan_invalidations
      << " result_hits=" << result_hits << " result_misses=" << result_misses
      << " result_invalidations=" << result_invalidations
      << " result_evictions=" << result_evictions;
  return out.str();
}

CacheAnalysis AnalyzeQuery(const ast::SelectQuery& q,
                           const sparql::FunctionRegistry* registry) {
  CacheAnalysis out;
  AnalysisWalker walker{registry, &out};
  walker.Query(q);
  return out;
}

ResultDeps DepsFor(const CacheAnalysis& analysis, const Dataset& dataset,
                   uint64_t registry_generation) {
  ResultDeps deps;
  deps.registry_generation =
      analysis.uses_registry ? registry_generation : 0;
  if (analysis.whole_dataset) {
    deps.whole_dataset = true;
    deps.named_count = dataset.named_graphs().size();
    deps.graphs.emplace_back("", dataset.default_graph().version());
    for (const auto& [iri, graph] : dataset.named_graphs()) {
      deps.graphs.emplace_back(iri, graph.version());
    }
    return deps;
  }
  // Every query reads the default graph (BGPs outside GRAPH clauses).
  deps.graphs.emplace_back("", dataset.default_graph().version());
  for (const std::string& iri : analysis.graphs) {
    const Graph* g = dataset.FindNamed(iri);
    deps.graphs.emplace_back(
        iri, g == nullptr ? ResultDeps::kAbsentGraph : g->version());
  }
  return deps;
}

void QueryCache::Configure(const Config& c) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = c;
  if (!config_.plan_cache) plans_.clear();
  // Shrink to a lowered budget (or drop everything when disabled).
  while (!lru_.empty() &&
         (!config_.result_cache || result_bytes_ > config_.result_budget_bytes)) {
    auto it = results_.find(lru_.back());
    EraseResultLocked(it);
  }
  UpdateGaugesLocked();
}

bool QueryCache::LookupPlan(const std::string& key, CachedPlan* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.plan_cache) return false;
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++counters_.plan_misses;
    PlanMisses().Add();
    return false;
  }
  ++counters_.plan_hits;
  PlanHits().Add();
  *out = it->second;
  return true;
}

void QueryCache::StorePlan(const std::string& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.plan_cache) return;
  // Same bound rationale as PlanMemo: statements are typically few, but a
  // text-generating client must not grow the map without limit. At the
  // bound one entry makes room, so the rest keep hitting.
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    it->second = std::move(plan);
    return;
  }
  if (plans_.size() >= kMaxPlans) plans_.erase(plans_.begin());
  plans_.emplace(key, std::move(plan));
}

bool QueryCache::DepsValid(const ResultDeps& deps, const Dataset& dataset,
                           uint64_t registry_generation) const {
  if (deps.registry_generation != 0 &&
      deps.registry_generation != registry_generation) {
    return false;
  }
  if (deps.whole_dataset &&
      dataset.named_graphs().size() != deps.named_count) {
    return false;
  }
  for (const auto& [iri, version] : deps.graphs) {
    const Graph* g =
        iri.empty() ? &dataset.default_graph() : dataset.FindNamed(iri);
    if (version == ResultDeps::kAbsentGraph) {
      if (g != nullptr) return false;
      continue;
    }
    if (g == nullptr || g->version() != version) return false;
  }
  return true;
}

void QueryCache::EraseResultLocked(
    std::unordered_map<std::string, ResultEntry>::iterator it) {
  result_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  results_.erase(it);
}

void QueryCache::UpdateGaugesLocked() {
  ResultBytesGauge().Set(static_cast<int64_t>(result_bytes_));
  ResultEntriesGauge().Set(static_cast<int64_t>(results_.size()));
}

bool QueryCache::LookupResult(const std::string& key, const Dataset& dataset,
                              uint64_t registry_generation, QueryOutcome* out,
                              bool count_miss) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.result_cache) return false;
  auto it = results_.find(key);
  if (it == results_.end()) {
    if (count_miss) {
      ++counters_.result_misses;
      ResultMisses().Add();
    }
    return false;
  }
  if (it->second.epoch != epoch_ ||
      !DepsValid(it->second.deps, dataset, registry_generation)) {
    EraseResultLocked(it);
    ++counters_.result_invalidations;
    ResultInvalidations().Add();
    UpdateGaugesLocked();
    if (count_miss) {
      ++counters_.result_misses;
      ResultMisses().Add();
    }
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++counters_.result_hits;
  ResultHits().Add();
  CopyReadOutcome(it->second.outcome, out);
  return true;
}

void QueryCache::StoreResult(const std::string& key,
                             const QueryOutcome& outcome, ResultDeps deps) {
  QueryOutcome::Kind kind = outcome.kind();
  if (kind != QueryOutcome::Kind::kRows && kind != QueryOutcome::Kind::kAsk) {
    return;  // only read-only SELECT/ASK outcomes are cacheable
  }
  size_t bytes = EstimateOutcomeBytes(outcome);
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.result_cache || bytes > config_.result_budget_bytes) return;
  auto it = results_.find(key);
  if (it != results_.end()) EraseResultLocked(it);
  while (result_bytes_ + bytes > config_.result_budget_bytes &&
         !lru_.empty()) {
    EraseResultLocked(results_.find(lru_.back()));
    ++counters_.result_evictions;
    ResultEvictions().Add();
  }
  lru_.push_front(key);
  ResultEntry entry;
  CopyReadOutcome(outcome, &entry.outcome);
  entry.deps = std::move(deps);
  entry.bytes = bytes;
  entry.epoch = epoch_;
  entry.lru_pos = lru_.begin();
  results_.emplace(key, std::move(entry));
  result_bytes_ += bytes;
  UpdateGaugesLocked();
}

void QueryCache::Sweep(const Dataset& dataset, uint64_t registry_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = results_.begin(); it != results_.end();) {
    auto next = std::next(it);
    if (it->second.epoch != epoch_ ||
        !DepsValid(it->second.deps, dataset, registry_generation)) {
      EraseResultLocked(it);
      ++dropped;
    }
    it = next;
  }
  if (dropped > 0) {
    counters_.result_invalidations += dropped;
    ResultInvalidations().Add(dropped);
    UpdateGaugesLocked();
  }
  // Revalidate memoized BGP orders against the live graphs too, so the
  // plan layer's invalidation counter moves with the write as well.
  std::vector<std::pair<const void*, uint64_t>> live;
  live.emplace_back(&dataset.default_graph(),
                    dataset.default_graph().version());
  for (const auto& [iri, graph] : dataset.named_graphs()) {
    (void)iri;
    live.emplace_back(&graph, graph.version());
  }
  size_t plan_dropped = 0;
  for (auto& [key, plan] : plans_) {
    (void)key;
    if (plan.memo != nullptr) plan_dropped += plan.memo->SweepAgainst(live);
  }
  for (auto& [name, ps] : prepared_) {
    (void)name;
    if (ps->memo != nullptr) plan_dropped += ps->memo->SweepAgainst(live);
  }
  counters_.plan_invalidations += plan_dropped;
}

void QueryCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
  size_t dropped = results_.size();
  results_.clear();
  lru_.clear();
  result_bytes_ = 0;
  if (dropped > 0) {
    counters_.result_invalidations += dropped;
    ResultInvalidations().Add(dropped);
  }
  size_t plan_dropped = 0;
  for (auto& [key, plan] : plans_) {
    (void)key;
    if (plan.memo != nullptr) {
      plan_dropped += plan.memo->size();
      plan.memo->Clear();
    }
  }
  for (auto& [name, ps] : prepared_) {
    (void)name;
    if (ps->memo != nullptr) {
      plan_dropped += ps->memo->size();
      ps->memo->Clear();
    }
  }
  counters_.plan_invalidations += plan_dropped;
  UpdateGaugesLocked();
}

uint64_t QueryCache::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status QueryCache::DefinePrepared(
    const std::string& name, std::vector<std::string> params,
    std::shared_ptr<const ast::SelectQuery> body) {
  if (name.empty()) {
    return Status::InvalidArgument("prepared statement needs a name");
  }
  if (body == nullptr) {
    return Status::InvalidArgument("prepared statement needs a query body");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto ps = std::make_shared<PreparedStatement>();
  ps->name = name;
  ps->params = std::move(params);
  ps->body = std::move(body);
  auto it = prepared_.find(name);
  ps->generation = it == prepared_.end() ? 1 : it->second->generation + 1;
  ps->memo = std::make_shared<PlanMemo>();
  prepared_[name] = std::move(ps);
  return Status::OK();
}

std::shared_ptr<const PreparedStatement> QueryCache::FindPrepared(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prepared_.find(name);
  return it == prepared_.end() ? nullptr : it->second;
}

std::vector<std::string> QueryCache::PreparedNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(prepared_.size());
  for (const auto& [name, ps] : prepared_) {
    (void)ps;
    names.push_back(name);
  }
  return names;
}

CacheCounters QueryCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t QueryCache::result_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_bytes_;
}

size_t QueryCache::result_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

size_t QueryCache::plan_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

namespace {

size_t TermBytes(const Term& t) {
  // Struct + inline string payloads (lexical form, language tag / datatype
  // IRI) + array elements. String-heavy result sets used to evade the
  // budget because only the array share was charged.
  size_t bytes = sizeof(Term) + TermStringBytes(t);
  if (t.IsArray() && t.array() != nullptr) {
    bytes += static_cast<size_t>(t.array()->NumElements()) * 8;
  }
  return bytes;
}

}  // namespace

size_t QueryCache::EstimateOutcomeBytes(const QueryOutcome& outcome) {
  size_t bytes = sizeof(QueryOutcome);
  switch (outcome.kind()) {
    case QueryOutcome::Kind::kRows: {
      const sparql::QueryResult& r = outcome.rows();
      for (const std::string& c : r.columns) bytes += c.size() + 16;
      for (const auto& row : r.rows) {
        bytes += sizeof(row);
        for (const Term& t : row) bytes += TermBytes(t);
      }
      break;
    }
    case QueryOutcome::Kind::kGraph: {
      // CONSTRUCT / DESCRIBE result: triple structs plus the
      // dictionary-resident string bytes (each distinct term's strings
      // are interned once in the graph's dictionary).
      const Graph& g = outcome.graph();
      bytes += g.size() * sizeof(Triple) + g.dict().string_bytes();
      break;
    }
    case QueryOutcome::Kind::kInfo:
      bytes += outcome.info().size();
      break;
    default:
      break;
  }
  return bytes;
}

}  // namespace cache
}  // namespace scisparql
