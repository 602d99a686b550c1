#ifndef SCISPARQL_SPARQL_SLOT_ROW_H_
#define SCISPARQL_SPARQL_SLOT_ROW_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "sparql/ast.h"

namespace scisparql {
namespace sparql {

/// One cell of a slot row: the executor resolves every variable of a query
/// to a dense slot once, and a solution is a fixed-width array of cells.
/// A cell is unbound, a dictionary ID of the graph it was bound in (the
/// dictionary travels with it, since every graph has its own), or a
/// computed term — a BIND or aggregate result, an array result, a VALUES
/// or sub-select value — owned by the query.
struct Cell {
  const TermDictionary* dict = nullptr;  // set: the cell holds ID `id`
  const Term* term = nullptr;            // set: the cell holds this term
  uint32_t id = 0;

  static Cell Id(const TermDictionary* d, uint32_t i) {
    return {d, nullptr, i};
  }
  static Cell Of(const Term* t) { return {nullptr, t, 0}; }

  bool bound() const { return dict != nullptr || term != nullptr; }
  /// The bound value; an ID is read from its dictionary, never copied.
  const Term& value() const { return dict != nullptr ? dict->term(id) : *term; }
};

/// SPARQL `=` between two bound cells, exactly as Term::operator== decides
/// it. IDs of one dictionary settle it without touching the terms unless
/// both name numerics (an integer and a double may be `=` without being
/// one value) or either names an array (arrays intern by object, compare
/// by elements).
bool CellsEqual(const Cell& a, const Cell& b);

/// Assigns rows of key cells to groups under term identity
/// (Term::Identical: the dictionary's rule, numerics by exact value,
/// arrays by elements) — what DISTINCT and GROUP BY compare. A key cell
/// is canonicalized to an ID of `dict` whenever its value has one, so IDs
/// from the same dictionary compare as integers, and IDs from another
/// graph's dictionary or computed terms meet them by value. Only IDs below
/// the dictionary's size at construction count: a writer may intern a key's
/// term partway through grouping, and a value must key the same way before
/// and after. Open addressing over the group indices; no per-group node.
class RowGrouper {
 public:
  RowGrouper(const TermDictionary* dict, size_t width);

  /// The group of the `width` cells at `cells`, and whether it is new.
  std::pair<size_t, bool> Add(const Cell* cells);
  size_t groups() const { return hashes_.size(); }

 private:
  /// kNoId with no term: unbound; a term: a value without an ID of dict_.
  struct Key {
    uint32_t id = TermDictionary::kNoId;
    const Term* term = nullptr;
  };
  Key Canonical(const Cell& c) const;
  bool KeysEqual(size_t group, const Key* k) const;
  void Grow();

  const TermDictionary* dict_;
  size_t id_limit_;  // IDs at or past it key by term
  size_t width_;
  std::vector<Key> keys_;       // groups() x width_
  std::vector<size_t> hashes_;  // per group
  std::vector<uint32_t> table_;  // group + 1; 0 = empty
  std::vector<Key> scratch_;
};

/// Whether a variable is parser-generated (collection and blank-node list
/// scaffolding): matched like any other, never projected.
bool IsInternalVar(const std::string& name);

/// Collects the user-visible variables one pattern element can bind, in
/// first-appearance order (`seen` dedups). Also decides how far a
/// group-scoped FILTER must be deferred.
void CollectElementVars(const ast::PatternElement& e,
                        std::vector<std::string>* out,
                        std::set<std::string>* seen);
/// The same over a whole pattern: what SELECT * projects.
void CollectPatternVars(const ast::GraphPattern& gp,
                        std::vector<std::string>* out,
                        std::set<std::string>* seen);
/// Variables an expression mentions (an EXISTS pattern's included).
void CollectExprVars(const ast::Expr& e, std::set<std::string>* out);
/// The aggregate nodes of an expression.
void CollectAggNodes(const ast::Expr& e, std::vector<const ast::Expr*>* out);

/// The slot layout of one query (a SELECT, ASK, CONSTRUCT or DESCRIBE, or
/// an update's WHERE): every variable its patterns, BIND targets,
/// expressions, projections, GROUP BY, HAVING and ORDER BY mention,
/// numbered densely, internal (collection) variables included. A
/// sub-select and a function body are queries of their own.
/// A query names few variables, so the names are searched in place.
struct Frame {
  std::vector<std::string> names;  // slot -> name

  void Add(const std::string& v) {
    if (Find(v) < 0) names.push_back(v);
  }
  int Find(const std::string& v) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == v) return static_cast<int>(i);
    }
    return -1;
  }
  size_t width() const { return names.size(); }
  void AddPattern(const ast::GraphPattern& gp);
  void AddExpr(const ast::Expr& e);
};

/// Solutions in one frame, stored flat: row i is
/// cells[i * width, (i + 1) * width).
struct Rows {
  size_t width = 0;
  std::vector<Cell> cells;
  size_t n = 0;

  size_t size() const { return n; }
  Cell* row(size_t i) { return cells.data() + i * width; }
  void Push(const Cell* r) {
    cells.insert(cells.end(), r, r + width);
    ++n;
  }
};

/// A non-owning reference to a callable, for continuations passed down a
/// call chain: unlike std::function it never allocates. The referenced
/// callable must outlive every call.
template <typename Sig>
class FnRef;

template <typename R, typename... A>
class FnRef<R(A...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, FnRef>)
  FnRef(F&& f)  // NOLINT: implicit, as a lambda argument
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, A... a) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<A>(a)...);
        }) {}
  FnRef(const FnRef&) = default;

  R operator()(A... a) const { return call_(obj_, std::forward<A>(a)...); }

 private:
  void* obj_;
  R (*call_)(void*, A...);
};

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_SLOT_ROW_H_
