#ifndef SCISPARQL_TESTS_ORACLE_RANDOM_BGP_H_
#define SCISPARQL_TESTS_ORACLE_RANDOM_BGP_H_

// Seeded random graphs and basic graph patterns for the differential
// sweeps: a small graph over few nodes and predicates, and a join-heavy
// BGP over a small shared variable pool.

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rdf/write_batch.h"
#include "sparql/ast.h"

namespace scisparql {
namespace oracle {

struct RandomCase {
  /// Mutations in order; the graph is their set-semantic result.
  std::vector<WriteBatch::Op> ops;
  std::vector<ast::TriplePattern> patterns;
  std::vector<std::string> vars;  // in order of appearance
};

Term Node(int i);
Term Pred(int i);

/// Appends an add of (s, p, o) to the case's ops.
void AddOp(RandomCase* rc, Term s, Term p, Term o);

/// 25 adds over 8 nodes, 3 predicates and a few integers, and 2-4
/// patterns whose positions draw from three node variables, two predicate
/// variables and the nodes.
RandomCase MakeRandomBgp(uint64_t seed);

/// Applies ops[from, to) to `g`, one batch each.
void ApplyOps(const RandomCase& rc, size_t from, size_t to, Graph* g);

/// `s p o .` in query syntax.
std::string PatternText(const ast::TriplePattern& tp);

}  // namespace oracle
}  // namespace scisparql

#endif  // SCISPARQL_TESTS_ORACLE_RANDOM_BGP_H_
