#ifndef SCISPARQL_RDF_TRIPLE_H_
#define SCISPARQL_RDF_TRIPLE_H_

#include <cstddef>
#include <string>

#include "rdf/term.h"

namespace scisparql {

/// One (subject, property, value) triple. The paper prefers "value" over
/// "object" to stress that array values are first-class (footnote 2).
struct Triple {
  Term s;
  Term p;
  Term o;

  /// Component-wise Term::Identical: the set-semantics equality of a
  /// graph, under which 2 and 2.0 are one triple component.
  bool operator==(const Triple& other) const {
    return Term::Identical(s, other.s) && Term::Identical(p, other.p) &&
           Term::Identical(o, other.o);
  }
  std::string ToString() const;
};

/// Hash consistent with Triple::operator== (Term::Hash per component).
struct TripleHash {
  size_t operator()(const Triple& t) const;
};

}  // namespace scisparql

#endif  // SCISPARQL_RDF_TRIPLE_H_
