#include "sparql/slot_row.h"

#include "common/string_util.h"

namespace scisparql {
namespace sparql {

using ast::GraphPattern;
using ast::PatternElement;
using ast::VarOrTerm;

bool IsInternalVar(const std::string& name) {
  return !name.empty() && name[0] == '.';
}

void CollectElementVars(const PatternElement& e, std::vector<std::string>* out,
                        std::set<std::string>* seen) {
  auto add = [&](const std::string& v) {
    if (!IsInternalVar(v) && seen->insert(v).second) out->push_back(v);
  };
  auto add_vt = [&](const VarOrTerm& vt) {
    if (vt.is_var) add(vt.var);
  };
  switch (e.kind) {
    case PatternElement::Kind::kTriple:
      add_vt(e.triple.s);
      add_vt(e.triple.p);
      add_vt(e.triple.o);
      break;
    case PatternElement::Kind::kBind:
      add(e.bind_var);
      break;
    case PatternElement::Kind::kValues:
      for (const std::string& v : e.values.vars) add(v);
      break;
    case PatternElement::Kind::kGraph:
      add_vt(e.graph_name);
      if (e.child) CollectPatternVars(*e.child, out, seen);
      break;
    case PatternElement::Kind::kUnion:
      for (const auto& b : e.branches) CollectPatternVars(*b, out, seen);
      break;
    case PatternElement::Kind::kOptional:
    case PatternElement::Kind::kGroup:
      if (e.child) CollectPatternVars(*e.child, out, seen);
      break;
    case PatternElement::Kind::kSubSelect:
      if (e.subquery != nullptr) {
        for (const auto& p : e.subquery->projections) add(p.name);
      }
      break;
    default:
      break;
  }
}

void CollectPatternVars(const GraphPattern& gp, std::vector<std::string>* out,
                        std::set<std::string>* seen) {
  for (const PatternElement& e : gp.elements) {
    CollectElementVars(e, out, seen);
  }
}

void CollectExprVars(const ast::Expr& e, std::set<std::string>* out) {
  switch (e.kind) {
    case ast::Expr::Kind::kVar:
      out->insert(e.var);
      break;
    case ast::Expr::Kind::kBinary:
      CollectExprVars(*e.left, out);
      CollectExprVars(*e.right, out);
      break;
    case ast::Expr::Kind::kUnary:
      CollectExprVars(*e.left, out);
      break;
    case ast::Expr::Kind::kCall:
      for (const auto& a : e.args) CollectExprVars(*a, out);
      break;
    case ast::Expr::Kind::kAggregate:
      if (e.agg_arg) CollectExprVars(*e.agg_arg, out);
      break;
    case ast::Expr::Kind::kSubscript:
      CollectExprVars(*e.base, out);
      for (const auto& s : e.subscripts) {
        if (s.index) CollectExprVars(*s.index, out);
        if (s.lo) CollectExprVars(*s.lo, out);
        if (s.hi) CollectExprVars(*s.hi, out);
        if (s.stride) CollectExprVars(*s.stride, out);
      }
      break;
    case ast::Expr::Kind::kExists:
      // EXISTS correlates on every variable its pattern mentions; a pushed
      // filter must wait until those are bound (or proven never-bound).
      if (e.exists_pattern) {
        std::vector<std::string> vars;
        std::set<std::string> seen;
        CollectPatternVars(*e.exists_pattern, &vars, &seen);
        out->insert(vars.begin(), vars.end());
      }
      break;
    default:
      break;
  }
}

void CollectAggNodes(const ast::Expr& e,
                     std::vector<const ast::Expr*>* out) {
  if (e.kind == ast::Expr::Kind::kAggregate) {
    out->push_back(&e);
    return;  // aggregates do not nest
  }
  if (e.left) CollectAggNodes(*e.left, out);
  if (e.right) CollectAggNodes(*e.right, out);
  for (const auto& a : e.args) CollectAggNodes(*a, out);
  if (e.base) CollectAggNodes(*e.base, out);
}

void Frame::AddPattern(const ast::GraphPattern& gp) {
  for (const PatternElement& e : gp.elements) {
    for (const VarOrTerm* vt :
         {&e.triple.s, &e.triple.p, &e.triple.o, &e.graph_name}) {
      if (vt->is_var) Add(vt->var);
    }
    if (e.kind == PatternElement::Kind::kBind) Add(e.bind_var);
    if (e.expr) AddExpr(*e.expr);
    for (const std::string& v : e.values.vars) Add(v);
    if (e.child) AddPattern(*e.child);
    for (const auto& b : e.branches) AddPattern(*b);
    if (e.subquery != nullptr) {
      for (const auto& p : e.subquery->projections) Add(p.name);
    }
  }
}

void Frame::AddExpr(const ast::Expr& e) {
  if (e.kind == ast::Expr::Kind::kVar) Add(e.var);
  for (const ast::Expr* c : {e.left.get(), e.right.get(), e.agg_arg.get(),
                             e.base.get()}) {
    if (c != nullptr) AddExpr(*c);
  }
  for (const auto& a : e.args) AddExpr(*a);
  for (const auto& s : e.subscripts) {
    for (const ast::Expr* c :
         {s.index.get(), s.lo.get(), s.hi.get(), s.stride.get()}) {
      if (c != nullptr) AddExpr(*c);
    }
  }
  if (e.exists_pattern) AddPattern(*e.exists_pattern);
}

bool CellsEqual(const Cell& a, const Cell& b) {
  if (a.dict != nullptr && a.dict == b.dict) {
    if (a.id == b.id) return true;
    const Term& x = a.dict->term(a.id);
    const Term& y = b.dict->term(b.id);
    if (!(x.IsNumeric() && y.IsNumeric()) && !x.IsArray() && !y.IsArray()) {
      return false;
    }
    return x == y;
  }
  return a.value() == b.value();
}

RowGrouper::RowGrouper(const TermDictionary* dict, size_t width)
    : dict_(dict),
      id_limit_(dict != nullptr ? dict->size() : 0),
      width_(width),
      scratch_(width) {}

RowGrouper::Key RowGrouper::Canonical(const Cell& c) const {
  if (!c.bound()) return {};
  if (c.dict == dict_ && c.id < id_limit_) {
    const Term& t = dict_->term(c.id);
    if (!t.IsArray()) return {c.id, nullptr};
    return {TermDictionary::kNoId, &t};
  }
  const Term& t = c.value();
  // Arrays intern by object, so their IDs say nothing about their values.
  if (!t.IsArray() && dict_ != nullptr) {
    std::optional<uint32_t> id = dict_->Find(t);
    if (id.has_value() && *id < id_limit_) return {*id, nullptr};
  }
  return {TermDictionary::kNoId, &t};
}

bool RowGrouper::KeysEqual(size_t group, const Key* k) const {
  const Key* g = keys_.data() + group * width_;
  for (size_t c = 0; c < width_; ++c) {
    if (g[c].term == nullptr || k[c].term == nullptr) {
      if (g[c].term != k[c].term || g[c].id != k[c].id) return false;
    } else if (!Term::Identical(*g[c].term, *k[c].term)) {
      return false;
    }
  }
  return true;
}

void RowGrouper::Grow() {
  table_.assign(table_.empty() ? 16 : table_.size() * 2, 0);
  const size_t mask = table_.size() - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t at = hashes_[g] & mask;
    while (table_[at] != 0) at = (at + 1) & mask;
    table_[at] = static_cast<uint32_t>(g + 1);
  }
}

std::pair<size_t, bool> RowGrouper::Add(const Cell* cells) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c = 0; c < width_; ++c) {
    scratch_[c] = Canonical(cells[c]);
    h = HashCombine(h, scratch_[c].term != nullptr ? scratch_[c].term->Hash()
                                                   : scratch_[c].id);
  }
  if ((hashes_.size() + 1) * 2 > table_.size()) Grow();
  const size_t mask = table_.size() - 1;
  size_t at = h & mask;
  for (; table_[at] != 0; at = (at + 1) & mask) {
    const size_t g = table_[at] - 1;
    if (hashes_[g] == h && KeysEqual(g, scratch_.data())) return {g, false};
  }
  const size_t g = hashes_.size();
  table_[at] = static_cast<uint32_t>(g + 1);
  hashes_.push_back(h);
  keys_.insert(keys_.end(), scratch_.begin(), scratch_.end());
  return {g, true};
}

}  // namespace sparql
}  // namespace scisparql
