#ifndef SCISPARQL_TESTS_ORACLE_ORACLE_H_
#define SCISPARQL_TESTS_ORACLE_ORACLE_H_

// A reference evaluator for differential tests: it answers the queries the
// tests send the engine, written from the semantics rather than from the
// executor. Two parts:
//
//  - MatchBgp, the BGP leaf: nested lookups in the order the caller gives
//    (scan-and-bind, the executor's evaluator before every BGP became one
//    ID join), with property paths evaluated as fixed points over the
//    graph's nodes;
//  - Evaluate, an evaluator over the engine-parsed query following
//    Pérez–Arenas–Gutiérrez's compositional semantics: bags of mappings,
//    Join, LeftJoin for OPTIONAL, Union, Minus, Filter over the whole
//    group, then grouping with aggregates and HAVING, projection,
//    DISTINCT, ORDER BY and OFFSET/LIMIT. It covers BGPs, FILTER, BIND,
//    OPTIONAL, UNION, MINUS, nested groups, GROUP BY with COUNT, SUM, AVG,
//    MIN, MAX and SAMPLE, HAVING, SELECT and ASK; anything else (GRAPH,
//    VALUES, sub-selects, GROUP_CONCAT, EXISTS, non-builtin functions,
//    FROM, CONSTRUCT, DESCRIBE) fails with an Unsupported "not
//    implemented" status, so no test passes against an oracle that
//    skipped part of its query.
//
// Term identity is the oracle's own (SameValue): numerics by their exact
// decimal value, never through the engine's Term::Identical, so a change
// to the engine's identity rule shows as a difference rather than moving
// both sides alike. The triples come from a Triples view: a plain list,
// where every triple is a candidate for every pattern (brute force), or a
// Graph, whose indexes are asked only for IRI-bound positions.
//
// The engine departs from W3C SPARQL 1.1 on purpose in a few places
// (DESIGN.md, "Deliberate departures"). Each departure is a Divergence the
// oracle can adopt; Semantics::Engine() adopts all of them and is what the
// engine must match. A test asserts a departure by name: the engine agrees
// with the oracle that adopts it and differs, as documented, from one that
// does not.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "sparql/ast.h"

namespace scisparql {

class SSDM;

namespace oracle {

enum class Divergence : uint32_t {
  /// Thesis 5.4.2: group elements evaluate left to right and each one sees
  /// the bindings made before it (sideways information passing). An
  /// OPTIONAL arm, a UNION branch or a nested group runs once per incoming
  /// mapping, seeded with it. W3C: each element is evaluated on its own
  /// and joined (LeftJoin for OPTIONAL), so a FILTER inside an arm or
  /// branch cannot see variables bound only outside it.
  kOperationalOptional = 1u << 0,
  /// BGP constants, joins and property-path ends match a numeric iff it
  /// denotes the same mathematical value (SameValue): `2` matches a
  /// stored `2.0`. W3C: RDF term equality, so the kinds must agree too.
  kExactValueNumerics = 1u << 1,
  /// Two patterns of one BGP that share an array variable join on the
  /// stored array object. W3C with SciSPARQL's array equality (paper
  /// 4.1.6): they join on element-wise value, so a value-equal copy joins
  /// too. Arrays bound outside the BGP match by value either way.
  kArrayIdentityJoins = 1u << 2,
};

/// The set of departures the oracle adopts.
class Semantics {
 public:
  /// W3C SPARQL 1.1, compositional: no departure adopted.
  static Semantics W3C() { return Semantics(0); }
  /// Every departure adopted: what the engine implements.
  static Semantics Engine() {
    return Semantics(static_cast<uint32_t>(Divergence::kOperationalOptional) |
                     static_cast<uint32_t>(Divergence::kExactValueNumerics) |
                     static_cast<uint32_t>(Divergence::kArrayIdentityJoins));
  }
  bool Has(Divergence d) const {
    return (adopted_ & static_cast<uint32_t>(d)) != 0;
  }
  Semantics Without(Divergence d) const {
    return Semantics(adopted_ & ~static_cast<uint32_t>(d));
  }

 private:
  explicit Semantics(uint32_t adopted) : adopted_(adopted) {}
  uint32_t adopted_;
};

/// The exact decimal text of a numeric whose value is an integer (an
/// integral double printed in full, -0 as 0); "" for any other term.
std::string IntegerText(const Term& t);

/// Triple-component identity written out independently of the engine:
/// numerics by exact mathematical value (an integer is never widened to
/// double; doubles by ==, NaN equal to NaN), everything else (arrays by
/// elements) by operator==.
bool SameValue(const Term& a, const Term& b);

/// The triples the oracle reads, borrowed from a graph or a list that must
/// outlive the view.
class Triples {
 public:
  // Implicit, so a caller passes its graph or list as it is.
  Triples(const Graph& g) : graph_(&g) {}
  Triples(const std::vector<Triple>& list) : list_(&list) {}

  /// Calls `fn` on a superset of the triples matching (s, p, o), where an
  /// Undef position matches anything: a list offers every triple; a graph
  /// looks up the IRI positions in its indexes and leaves the others open.
  /// The caller checks each candidate by the oracle's identity.
  void Candidates(const Term& s, const Term& p, const Term& o,
                  const std::function<void(const Triple&)>& fn) const;

 private:
  const Graph* graph_ = nullptr;
  const std::vector<Triple>* list_ = nullptr;
};

/// A solution mapping; variables absent from it are unbound.
using Mapping = std::map<std::string, Term>;

/// Every extension of `seed` that matches all `patterns` in `triples`,
/// found by matching the patterns one after another in the order given.
/// Variables of `seed` act as constants (arrays among them match by
/// value). The result is a bag: one mapping per distinct combination of
/// triples.
std::vector<Mapping> MatchBgp(const Triples& triples,
                              const std::vector<const ast::TriplePattern*>&
                                  patterns,
                              Semantics sem = Semantics::Engine(),
                              const Mapping& seed = {});

/// The answer to a SELECT or ASK query.
struct Answer {
  std::vector<std::string> columns;
  std::vector<std::vector<Term>> rows;  // Undef = unbound
  bool ask = false;                     // ASK: whether a solution exists
};

/// Evaluates `q` over `triples` (its default graph).
Result<Answer> Evaluate(const Triples& triples, const ast::SelectQuery& q,
                        Semantics sem = Semantics::Engine());

/// Parses `text` with `db`'s prefixes and evaluates it over `db`'s default
/// graph.
Result<Answer> Evaluate(SSDM& db, const std::string& text,
                        Semantics sem = Semantics::Engine());

}  // namespace oracle
}  // namespace scisparql

#endif  // SCISPARQL_TESTS_ORACLE_ORACLE_H_
