#include "rdf/graph.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace scisparql {

std::string Triple::ToString() const {
  return s.ToString() + " " + p.ToString() + " " + o.ToString() + " .";
}

size_t TripleHash::operator()(const Triple& t) const {
  return HashCombine(HashCombine(t.s.Hash(), t.p.Hash()), t.o.Hash());
}

Graph::Graph()
    : id_cache_(std::make_unique<IdIndexCache>()),
      delta_(std::make_unique<DeltaState>()) {}

Graph::~Graph() {
  if (listener_.ptr != nullptr) listener_.ptr->OnGraphDestroyed();
}

Graph::Graph(Graph&& o) noexcept
    : triples_(std::move(o.triples_)),
      dead_(std::move(o.dead_)),
      live_count_(o.live_count_.load(std::memory_order_relaxed)),
      dead_count_(o.dead_count_),
      blank_counter_(o.blank_counter_.load(std::memory_order_relaxed)),
      version_(o.version_.load(std::memory_order_relaxed)),
      listener_(std::move(o.listener_)),
      dict_(std::move(o.dict_)),
      id_triples_(std::move(o.id_triples_)),
      live_set_(std::move(o.live_set_)),
      table_stamp_(o.table_stamp_),
      id_cache_(std::move(o.id_cache_)),
      concurrent_(o.concurrent_.load(std::memory_order_relaxed)),
      delta_ops_(o.delta_ops_.load(std::memory_order_relaxed)),
      delta_(std::move(o.delta_)) {
  o.id_cache_ = std::make_unique<IdIndexCache>();
  o.delta_ = std::make_unique<DeltaState>();
  o.live_count_.store(0, std::memory_order_relaxed);
  o.delta_ops_.store(0, std::memory_order_relaxed);
}

Graph& Graph::operator=(Graph&& o) noexcept {
  triples_ = std::move(o.triples_);
  dead_ = std::move(o.dead_);
  live_count_.store(o.live_count_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  dead_count_ = o.dead_count_;
  blank_counter_.store(o.blank_counter_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  version_.store(o.version_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  listener_ = std::move(o.listener_);
  dict_ = std::move(o.dict_);
  id_triples_ = std::move(o.id_triples_);
  live_set_ = std::move(o.live_set_);
  table_stamp_ = o.table_stamp_;
  id_cache_ = std::move(o.id_cache_);
  concurrent_.store(o.concurrent_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  delta_ops_.store(o.delta_ops_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  delta_ = std::move(o.delta_);
  o.id_cache_ = std::make_unique<IdIndexCache>();
  o.delta_ = std::make_unique<DeltaState>();
  o.live_count_.store(0, std::memory_order_relaxed);
  o.delta_ops_.store(0, std::memory_order_relaxed);
  return *this;
}

Graph Graph::Clone() const {
  Graph g;
  ForEach([&g](const Triple& t) { g.Add(t); });
  return g;
}

Graph::ApplyResult Graph::Apply(WriteBatch&& batch, GraphListener* observer) {
  if (batch.empty()) return {};
  if (concurrent_.load(std::memory_order_acquire)) {
    return ApplyDelta(std::move(batch), observer);
  }
  return ApplyBase(std::move(batch), observer);
}

Graph::ApplyResult Graph::ApplyBase(WriteBatch&& batch,
                                    GraphListener* observer) {
  ApplyResult res;
  std::vector<WriteBatch::Op> ops = batch.Release();
  // RDF graphs are sets: adding a triple the graph already holds is a
  // no-op. The skipped copy fires no listener, so the WAL and the
  // replication stream never carry it — which is what makes a re-sent
  // INSERT DATA (a router retrying an un-acked write across a failover)
  // genuinely idempotent. Presence is resolved for the whole batch up
  // front (O(1) per distinct triple via BaseContains) before any
  // mutation, then tracked through the ops so in-batch Add/Remove
  // sequences stay order-exact.
  // Each op keeps a pointer into the map from its first lookup: a term
  // that is not equal to itself (an array with a NaN cell) would miss a
  // second find(), so there is none — such triples get one node per op
  // and simply never deduplicate, consistent with NaN comparison.
  std::unordered_map<Triple, bool, TripleHash> present;
  std::vector<bool*> live;
  live.reserve(ops.size());
  for (const WriteBatch::Op& op : ops) {
    auto [it, fresh] = present.try_emplace(op.t, false);
    if (fresh) it->second = BaseContains(op.t);
    live.push_back(&it->second);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    WriteBatch::Op& op = ops[i];
    if (op.kind == WriteBatch::OpKind::kAdd) {
      if (*live[i]) continue;  // already present — set semantics
      *live[i] = true;
      AddBase(std::move(op.t), observer);
      ++res.added;
    } else {
      *live[i] = false;
      res.removed += static_cast<int64_t>(RemoveBase(op.t, observer));
    }
  }
  MaybeCompact();
  return res;
}

void Graph::UseDictForms(Triple* t, const IdTriple& ids) const {
  if (t->s.IsNumeric()) t->s = dict_.term(ids.s);
  if (t->p.IsNumeric()) t->p = dict_.term(ids.p);
  if (t->o.IsNumeric()) t->o = dict_.term(ids.o);
}

Graph::DeltaCells::value_type& Graph::DeltaCellFor(const Triple& t) {
  auto it = delta_->cells.find(t);
  if (it != delta_->cells.end()) return *it;
  // First touch of this triple: intern its terms now — before the batch's
  // epoch is published — so readers that captured a snapshot covering
  // this batch can resolve its constants through the dictionary, key the
  // cell by the stored forms, and mirror it into the per-permutation
  // sorted runs the ID-join executor merges with the base permutations.
  // Insertion keeps each run sorted; the compactor bounds the delta, so
  // the O(delta) splice stays cheap relative to the batch itself.
  Triple key = t;
  if (t.s.IsArray() || t.p.IsArray() || t.o.IsArray()) {
    // Arrays intern by object identity: adopt the array objects of a
    // value-equal base copy, so this cell's ID tuple is that copy's and a
    // tombstone in the ID runs suppresses exactly it.
    ScanBase(t.s, t.p, t.o, [&key](const Triple& b) {
      key = b;
      return false;
    });
  }
  DeltaRunEntry e;
  e.ids = IdTriple{dict_.Intern(key.s), dict_.Intern(key.p),
                   dict_.Intern(key.o)};
  UseDictForms(&key, e.ids);
  it = delta_->cells.emplace(std::move(key), DeltaCell{}).first;
  e.cell = &it->second;
  auto splice = [&e](Perm perm, std::vector<DeltaRunEntry>* run) {
    auto pos = std::upper_bound(
        run->begin(), run->end(), e,
        [perm](const DeltaRunEntry& a, const DeltaRunEntry& b) {
          return PermKey(perm, a.ids) < PermKey(perm, b.ids);
        });
    run->insert(pos, e);
  };
  splice(Perm::kSpo, &delta_->run_spo);
  splice(Perm::kPos, &delta_->run_pos);
  splice(Perm::kOsp, &delta_->run_osp);
  return *it;
}

Graph::ApplyResult Graph::ApplyDelta(WriteBatch&& batch,
                                     GraphListener* observer) {
  ApplyResult res;
  std::lock_guard<std::mutex> lock(delta_->mu);
  // Every op of the batch commits at one epoch, published with a single
  // store after the whole batch is in the delta: a reader that snapshots
  // the epoch without the mutex can never observe a batch prefix.
  const uint64_t epoch =
      version_.load(std::memory_order_relaxed) + batch.size();
  size_t new_ops = 0;
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kAdd) {
      // Set semantics under the delta mutex: skip the add when a live
      // copy already exists (in the base table or as a net delta add).
      // Doing this here — not at the statement layer — closes the race
      // between two concurrent writers inserting the same triple. The
      // base probe stays cheap in delta mode: the base table only
      // changes at fold time, and folds hold the exclusive lock, so
      // BaseContains' live-row set is stable under the shared lock.
      size_t adds = 0;
      bool cleared = false;
      auto cit = delta_->cells.find(op.t);
      if (cit != delta_->cells.end()) {
        for (const DeltaOp& d : cit->second.ops) {
          if (d.is_add) {
            ++adds;
          } else {
            adds = 0;
            cleared = true;
          }
        }
      }
      if (adds > 0 || (!cleared && BaseContains(op.t))) continue;
      auto& [stored, cell] = DeltaCellFor(op.t);
      cell.ops.push_back(DeltaOp{epoch, true});
      ++new_ops;
      ++res.added;
      if (listener_.ptr != nullptr) listener_.ptr->OnAdd(stored);
      if (observer != nullptr) observer->OnAdd(stored);
    } else {
      auto& [stored, cell] = DeltaCellFor(op.t);
      size_t adds = 0;
      bool cleared = false;
      for (const DeltaOp& d : cell.ops) {
        if (d.is_add) {
          ++adds;
        } else {
          adds = 0;
          cleared = true;
        }
      }
      size_t m = adds + (cleared ? 0 : BaseMultiplicity(stored));
      cell.ops.push_back(DeltaOp{epoch, false});
      ++new_ops;
      res.removed += static_cast<int64_t>(m);
      for (size_t i = 0; i < m; ++i) {
        if (listener_.ptr != nullptr) listener_.ptr->OnRemove(stored);
        if (observer != nullptr) observer->OnRemove(stored);
      }
    }
  }
  delta_ops_.fetch_add(new_ops, std::memory_order_release);
  live_count_.fetch_add(res.added - res.removed, std::memory_order_release);
  version_.store(epoch, std::memory_order_release);
  return res;
}

void Graph::AddBase(Triple t, GraphListener* observer) {
  id_triples_.push_back(
      IdTriple{dict_.Intern(t.s), dict_.Intern(t.p), dict_.Intern(t.o)});
  UseDictForms(&t, id_triples_.back());
  live_set_.insert(id_triples_.back());
  version_.fetch_add(1, std::memory_order_release);
  ++table_stamp_;
  if (listener_.ptr != nullptr) listener_.ptr->OnAdd(t);
  if (observer != nullptr) observer->OnAdd(t);
  triples_.push_back(std::move(t));
  dead_.push_back(false);
  live_count_.fetch_add(1, std::memory_order_release);
}

size_t Graph::RemoveBase(const Triple& t, GraphListener* observer) {
  size_t removed = 0;
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (dead_[i] || !(triples_[i] == t)) continue;
    dead_[i] = true;
    live_set_.erase(id_triples_[i]);
    ++dead_count_;
    ++removed;
    version_.fetch_add(1, std::memory_order_release);
    ++table_stamp_;
    if (listener_.ptr != nullptr) listener_.ptr->OnRemove(triples_[i]);
    if (observer != nullptr) observer->OnRemove(triples_[i]);
  }
  live_count_.fetch_sub(static_cast<int64_t>(removed),
                        std::memory_order_release);
  return removed;
}

void Graph::Clear() {
  triples_.clear();
  dead_.clear();
  live_count_.store(0, std::memory_order_release);
  dead_count_ = 0;
  dict_.Clear();
  id_triples_.clear();
  live_set_.clear();
  if (delta_) {
    std::lock_guard<std::mutex> lock(delta_->mu);
    delta_->cells.clear();
    delta_->run_spo.clear();
    delta_->run_pos.clear();
    delta_->run_osp.clear();
  }
  delta_ops_.store(0, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  ++table_stamp_;
  if (listener_.ptr != nullptr) listener_.ptr->OnClear();
}

size_t Graph::FoldDelta() {
  if (!delta_ || delta_ops_.load(std::memory_order_acquire) == 0) return 0;
  DeltaCells cells;
  size_t folded;
  {
    std::lock_guard<std::mutex> lock(delta_->mu);
    cells.swap(delta_->cells);
    // Retire the ID runs atomically with the cells they point into; the
    // executor re-snapshots after the fold and finds an empty delta, with
    // the folded rows now served by the rebuilt base permutations.
    delta_->run_spo.clear();
    delta_->run_pos.clear();
    delta_->run_osp.clear();
    folded = delta_ops_.exchange(0, std::memory_order_acq_rel);
  }
  // Resolve each cell to its final state. Tombstones only ever target
  // copies of the same (identical) triple, so per-cell resolution is
  // order-exact even though cross-cell order is not preserved.
  std::unordered_set<Triple, TripleHash> tombstoned;
  std::vector<std::pair<const Triple*, size_t>> appends;
  for (auto& entry : cells) {
    size_t adds = 0;
    bool cleared = false;
    for (const DeltaOp& d : entry.second.ops) {
      if (d.is_add) {
        ++adds;
      } else {
        adds = 0;
        cleared = true;
      }
    }
    if (cleared) tombstoned.insert(entry.first);
    if (adds > 0) appends.emplace_back(&entry.first, adds);
  }
  if (!tombstoned.empty()) {
    for (size_t i = 0; i < triples_.size(); ++i) {
      if (!dead_[i] && tombstoned.count(triples_[i]) > 0) {
        dead_[i] = true;
        live_set_.erase(id_triples_[i]);
        ++dead_count_;
      }
    }
  }
  // Append the net inserts. Counters, version and listeners were all
  // handled at Apply time — the fold is logically invisible.
  for (const auto& a : appends) {
    const Triple& t = *a.first;
    IdTriple ids{dict_.Intern(t.s), dict_.Intern(t.p), dict_.Intern(t.o)};
    live_set_.insert(ids);
    for (size_t i = 0; i < a.second; ++i) {
      id_triples_.push_back(ids);
      triples_.push_back(t);
      dead_.push_back(false);
    }
  }
  ++table_stamp_;
  MaybeCompact();
  return folded;
}

void Graph::MaybeCompact() {
  if (dead_count_ < 1024 || dead_count_ * 2 < triples_.size()) return;
  std::vector<Triple> live;
  live.reserve(triples_.size() - dead_count_);
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (!dead_[i]) live.push_back(std::move(triples_[i]));
  }
  // Compaction rewrites the table without changing its logical content:
  // the listener must not see the internal Clear+Add churn, and the
  // version must not drift (it tracks logical mutations only). Rebuilds
  // through AddBase regardless of write mode — the table rows being
  // rewritten are base rows by definition.
  GraphListener* listener = listener_.ptr;
  listener_.ptr = nullptr;
  uint64_t blank_counter = blank_counter_.load(std::memory_order_relaxed);
  uint64_t version = version_.load(std::memory_order_relaxed);
  int64_t live_count = live_count_.load(std::memory_order_relaxed);
  Clear();
  blank_counter_.store(blank_counter, std::memory_order_relaxed);
  for (Triple& t : live) AddBase(std::move(t), nullptr);
  version_.store(version, std::memory_order_release);
  live_count_.store(live_count, std::memory_order_release);
  listener_.ptr = listener;
}

namespace {

bool TermMatches(const Term& pattern, const Term& value) {
  return pattern.IsUndef() || Term::Identical(pattern, value);
}

/// Triple-scan counters, shared by every graph in the process. The per-row
/// cost is a plain local increment; the sharded atomics are touched twice
/// per Match call (once for the scan, once for the row total).
struct ScanMetrics {
  obs::Counter& scans;
  obs::Counter& rows;
};

ScanMetrics& GraphMetrics() {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  static ScanMetrics* m = new ScanMetrics{
      reg.GetCounter("ssdm_rdf_scans_total", "",
                     "Triple-index scans (Graph::Match calls and ID-space "
                     "prefix scans)."),
      reg.GetCounter("ssdm_rdf_scan_rows_total", "",
                     "Matching triples delivered by triple-index scans."),
  };
  return *m;
}

/// Accumulates delivered-row counts locally and flushes once on scope
/// exit, covering the early-return paths.
struct RowTally {
  obs::Counter& counter;
  uint64_t n = 0;
  ~RowTally() {
    if (n > 0) counter.Add(n);
  }
};

const Term& UndefTerm() {
  static const Term* t = new Term();
  return *t;
}

}  // namespace

void RecordTripleScans(uint64_t scans, uint64_t rows) {
  if (scans > 0) GraphMetrics().scans.Add(scans);
  if (rows > 0) GraphMetrics().rows.Add(rows);
}

size_t Graph::BaseMultiplicity(const Triple& t) const {
  size_t n = 0;
  ScanBase(t.s, t.p, t.o, [&n](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

bool Graph::BaseContains(const Triple& t) const {
  // Mirrors ScanBase's constant-resolution rules, but answers from the
  // live-row hash set instead of the permutation indexes — a stale index
  // cache would force a full rebuild here, which a one-triple Apply
  // (Graph::Add, per-statement INSERT) cannot afford on every call.
  IdTriple ids;
  const Term* terms[3] = {&t.s, &t.p, &t.o};
  uint32_t* slots[3] = {&ids.s, &ids.p, &ids.o};
  for (int i = 0; i < 3; ++i) {
    if (terms[i]->IsArray()) {
      // Identity-interned: a value-equal copy may live under another ID.
      // Filtered scan of the base table directly (never Contains/Match:
      // ApplyDelta calls this holding the delta mutex, and the delta
      // snapshot inside Match takes that same mutex).
      bool found = false;
      ScanBase(t.s, t.p, t.o, [&found](const Triple&) {
        found = true;
        return false;
      });
      return found;
    }
    std::optional<uint32_t> id = dict_.Find(*terms[i]);
    if (!id.has_value()) return false;  // never interned: absent
    *slots[i] = *id;
  }
  return live_set_.count(ids) > 0;
}

bool Graph::SnapshotDelta(uint64_t snapshot, const Term& s, const Term& p,
                          const Term& o,
                          std::vector<ResolvedCell>* out) const {
  if (!delta_ || delta_ops_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  bool any_cleared = false;
  std::lock_guard<std::mutex> lock(delta_->mu);
  for (const auto& entry : delta_->cells) {
    const Triple& t = entry.first;
    if (!TermMatches(s, t.s) || !TermMatches(p, t.p) || !TermMatches(o, t.o)) {
      continue;
    }
    ResolvedCell rc;
    rc.t = t;
    for (const DeltaOp& d : entry.second.ops) {
      if (d.epoch > snapshot) break;  // ops are in epoch order
      if (d.is_add) {
        ++rc.adds;
      } else {
        rc.adds = 0;
        rc.cleared = true;
      }
    }
    if (rc.adds == 0 && !rc.cleared) continue;
    any_cleared |= rc.cleared;
    out->push_back(std::move(rc));
  }
  return any_cleared;
}

void Graph::SnapshotDeltaIds(uint64_t snapshot, DeltaIdRuns* out) const {
  out->clear();
  if (!delta_ || delta_ops_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(delta_->mu);
  // Ops within a cell are in epoch order, so resolution truncates at the
  // first op past the snapshot — same rule as SnapshotDelta, minus the
  // Term materialization. Entries whose visible state is a no-op (all ops
  // past the snapshot, or adds cancelled without a tombstone) drop out, so
  // `out` stays empty for snapshots predating every pending batch.
  auto resolve = [&](const std::vector<DeltaRunEntry>& run,
                     std::vector<DeltaIdEntry>* dst) {
    dst->reserve(run.size());
    for (const DeltaRunEntry& e : run) {
      DeltaIdEntry r;
      r.t = e.ids;
      for (const DeltaOp& d : e.cell->ops) {
        if (d.epoch > snapshot) break;
        if (d.is_add) {
          ++r.adds;
        } else {
          r.adds = 0;
          r.cleared = true;
        }
      }
      if (r.adds == 0 && !r.cleared) continue;
      out->any_cleared |= r.cleared;
      dst->push_back(r);
    }
  };
  resolve(delta_->run_spo, &out->spo);
  resolve(delta_->run_pos, &out->pos);
  resolve(delta_->run_osp, &out->osp);
}

bool Graph::ScanBase(const Term& s, const Term& p, const Term& o,
                     const std::function<bool(const Triple&)>& cb) const {
  const bool have_s = !s.IsUndef();
  const bool have_p = !p.IsUndef();
  const bool have_o = !o.IsUndef();

  bool id_ok = have_s || have_p || have_o;
  uint32_t sid = 0, pid = 0, oid = 0;
  if (id_ok) {
    // A dictionary hit pins a constant to one ID and a miss proves
    // absence — except for arrays, which intern by object identity: a
    // value-equal array may hold another ID, so they take the filtered
    // scan.
    auto resolve = [&](const Term& t, uint32_t* out_id) -> bool {
      if (t.IsArray()) {
        id_ok = false;
        return true;
      }
      std::optional<uint32_t> id = dict_.Find(t);
      if (!id.has_value()) return false;  // definitively no base matches
      *out_id = *id;
      return true;
    };
    if (have_s && !resolve(s, &sid)) return true;
    if (have_p && !resolve(p, &pid)) return true;
    if (have_o && !resolve(o, &oid)) return true;
  }

  if (id_ok) {
    Perm perm;
    std::array<uint32_t, 3> key{};
    int n_fixed;
    if (have_s && have_p && have_o) {
      perm = Perm::kSpo, key = {sid, pid, oid}, n_fixed = 3;
    } else if (have_s && have_p) {
      perm = Perm::kSpo, key = {sid, pid, 0}, n_fixed = 2;
    } else if (have_p && have_o) {
      perm = Perm::kPos, key = {pid, oid, 0}, n_fixed = 2;
    } else if (have_s && have_o) {
      perm = Perm::kOsp, key = {oid, sid, 0}, n_fixed = 2;
    } else if (have_s) {
      perm = Perm::kSpo, key = {sid, 0, 0}, n_fixed = 1;
    } else if (have_p) {
      perm = Perm::kPos, key = {pid, 0, 0}, n_fixed = 1;
    } else {
      perm = Perm::kOsp, key = {oid, 0, 0}, n_fixed = 1;
    }
    const IdIndexes& idx = EnsureIdIndexes();
    std::pair<size_t, size_t> range =
        PrefixRange(idx.perm(perm), perm, key, n_fixed);
    const std::vector<uint32_t>& rows = idx.rows(perm);
    for (size_t i = range.first; i < range.second; ++i) {
      if (!cb(triples_[rows[i]])) return false;
    }
    return true;
  }

  // Filtered table scan: all-wildcard patterns and array constants.
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (dead_[i]) continue;
    const Triple& t = triples_[i];
    if (TermMatches(s, t.s) && TermMatches(p, t.p) && TermMatches(o, t.o)) {
      if (!cb(t)) return false;
    }
  }
  return true;
}

void Graph::Match(const Term& s, const Term& p, const Term& o,
                  const std::function<bool(const Triple&)>& cb) const {
  MatchAt(~0ull, s, p, o, cb);
}

void Graph::MatchAt(uint64_t snapshot, const Term& s, const Term& p,
                    const Term& o,
                    const std::function<bool(const Triple&)>& cb) const {
  GraphMetrics().scans.Add();
  RowTally tally{GraphMetrics().rows};

  std::vector<ResolvedCell> cells;
  const bool any_cleared = SnapshotDelta(snapshot, s, p, o, &cells);

  if (cells.empty()) {
    ScanBase(s, p, o, [&](const Triple& t) {
      ++tally.n;
      return cb(t);
    });
    return;
  }

  std::unordered_set<Triple, TripleHash> cleared_set;
  if (any_cleared) {
    for (const ResolvedCell& rc : cells) {
      if (rc.cleared) cleared_set.insert(rc.t);
    }
  }
  bool stopped = !ScanBase(s, p, o, [&](const Triple& t) {
    if (any_cleared && cleared_set.count(t) > 0) return true;
    ++tally.n;
    return cb(t);
  });
  if (stopped) return;
  for (const ResolvedCell& rc : cells) {
    for (size_t i = 0; i < rc.adds; ++i) {
      ++tally.n;
      if (!cb(rc.t)) return;
    }
  }
}

std::vector<Triple> Graph::MatchAll(const Term& s, const Term& p,
                                    const Term& o) const {
  std::vector<Triple> out;
  Match(s, p, o, [&out](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

bool Graph::Contains(const Term& s, const Term& p, const Term& o) const {
  bool found = false;
  Match(s, p, o, [&found](const Triple&) {
    found = true;
    return false;
  });
  return found;
}

int64_t Graph::EstimateMatches(const std::optional<Term>& s,
                               const std::optional<Term>& p,
                               const std::optional<Term>& o) const {
  const Term& ts = s ? *s : UndefTerm();
  const Term& tp = p ? *p : UndefTerm();
  const Term& to = o ? *o : UndefTerm();

  int64_t base = 0;
  const bool have_s = s.has_value();
  const bool have_p = p.has_value();
  const bool have_o = o.has_value();
  if (!have_s && !have_p && !have_o) {
    base = static_cast<int64_t>(triples_.size() - dead_count_);
  } else {
    // Resolve constants to IDs; a miss estimates zero for that constant —
    // estimates need not chase value-equal array objects.
    uint32_t sid = 0, pid = 0, oid = 0;
    bool resolved = true;
    auto resolve = [&](const Term& t, uint32_t* out_id) {
      std::optional<uint32_t> id = dict_.Find(t);
      if (!id.has_value()) return false;
      *out_id = *id;
      return true;
    };
    if (have_s && !resolve(ts, &sid)) resolved = false;
    if (resolved && have_p && !resolve(tp, &pid)) resolved = false;
    if (resolved && have_o && !resolve(to, &oid)) resolved = false;
    if (resolved) {
      Perm perm;
      std::array<uint32_t, 3> key{};
      int n_fixed;
      if (have_s && have_p && have_o) {
        perm = Perm::kSpo, key = {sid, pid, oid}, n_fixed = 3;
      } else if (have_s && have_p) {
        perm = Perm::kSpo, key = {sid, pid, 0}, n_fixed = 2;
      } else if (have_p && have_o) {
        perm = Perm::kPos, key = {pid, oid, 0}, n_fixed = 2;
      } else if (have_s && have_o) {
        perm = Perm::kOsp, key = {oid, sid, 0}, n_fixed = 2;
      } else if (have_s) {
        perm = Perm::kSpo, key = {sid, 0, 0}, n_fixed = 1;
      } else if (have_p) {
        perm = Perm::kPos, key = {pid, 0, 0}, n_fixed = 1;
      } else {
        perm = Perm::kOsp, key = {oid, 0, 0}, n_fixed = 1;
      }
      const IdIndexes& idx = EnsureIdIndexes();
      std::pair<size_t, size_t> range =
          PrefixRange(idx.perm(perm), perm, key, n_fixed);
      base = static_cast<int64_t>(range.second - range.first);
    }
  }

  if (delta_ops_.load(std::memory_order_acquire) > 0) {
    std::vector<ResolvedCell> cells;
    SnapshotDelta(~0ull, ts, tp, to, &cells);
    for (const ResolvedCell& rc : cells) {
      base += static_cast<int64_t>(rc.adds);
      if (rc.cleared) base -= static_cast<int64_t>(BaseMultiplicity(rc.t));
    }
    if (base < 0) base = 0;
  }
  return base;
}

void Graph::ForEach(const std::function<void(const Triple&)>& cb) const {
  std::vector<ResolvedCell> cells;
  const bool any_cleared =
      SnapshotDelta(~0ull, UndefTerm(), UndefTerm(), UndefTerm(), &cells);
  if (cells.empty()) {
    for (size_t i = 0; i < triples_.size(); ++i) {
      if (!dead_[i]) cb(triples_[i]);
    }
    return;
  }
  std::unordered_set<Triple, TripleHash> cleared_set;
  if (any_cleared) {
    for (const ResolvedCell& rc : cells) {
      if (rc.cleared) cleared_set.insert(rc.t);
    }
  }
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (dead_[i]) continue;
    if (any_cleared && cleared_set.count(triples_[i]) > 0) continue;
    cb(triples_[i]);
  }
  for (const ResolvedCell& rc : cells) {
    for (size_t i = 0; i < rc.adds; ++i) cb(rc.t);
  }
}

void Graph::ForEachId(const std::function<void(const IdTriple&)>& cb) const {
  for (size_t i = 0; i < id_triples_.size(); ++i) {
    if (!dead_[i]) cb(id_triples_[i]);
  }
}

const IdIndexes& Graph::EnsureIdIndexes() const {
  IdIndexCache* c = id_cache_.get();
  // Fast path: a fresh build is published with release ordering, and the
  // base table cannot change concurrently with readers (base-mode
  // mutations and delta folds run under the engine's exclusive lock;
  // concurrent-mode writers only touch the delta), so an acquire load of
  // the stamp suffices.
  if (c->built_stamp.load(std::memory_order_acquire) == table_stamp_) {
    return c->idx;
  }
  std::lock_guard<std::mutex> lock(c->mu);
  if (c->built_stamp.load(std::memory_order_relaxed) != table_stamp_) {
    BuildIdIndexes(id_triples_, dead_, &c->idx);
    c->built_stamp.store(table_stamp_, std::memory_order_release);
  }
  return c->idx;
}

const IdIndexes* Graph::PeekIdIndexes() const {
  IdIndexCache* c = id_cache_.get();
  if (c->built_stamp.load(std::memory_order_acquire) == table_stamp_) {
    return &c->idx;
  }
  return nullptr;
}

std::string Graph::FreshBlankLabel() {
  return "b" +
         std::to_string(blank_counter_.fetch_add(1, std::memory_order_acq_rel) +
                        1);
}

Graph& Dataset::GetOrCreateNamed(const std::string& iri) {
  auto it = named_.find(iri);
  if (it != named_.end()) return it->second;
  Graph& g = named_[iri];
  g.SetConcurrentWrites(concurrent_writes_);
  return g;
}

const Graph* Dataset::FindNamed(const std::string& iri) const {
  auto it = named_.find(iri);
  return it == named_.end() ? nullptr : &it->second;
}

Graph* Dataset::FindNamed(const std::string& iri) {
  auto it = named_.find(iri);
  return it == named_.end() ? nullptr : &it->second;
}

bool Dataset::DropNamed(const std::string& iri) {
  return named_.erase(iri) > 0;
}

void Dataset::SetConcurrentWrites(bool on) {
  concurrent_writes_ = on;
  default_graph_.SetConcurrentWrites(on);
  for (auto& entry : named_) entry.second.SetConcurrentWrites(on);
}

size_t Dataset::PendingDeltaOps() const {
  size_t n = default_graph_.delta_ops();
  for (const auto& entry : named_) n += entry.second.delta_ops();
  return n;
}

size_t Dataset::FoldDeltas() {
  size_t n = default_graph_.FoldDelta();
  for (auto& entry : named_) n += entry.second.FoldDelta();
  return n;
}

}  // namespace scisparql
