#ifndef SCISPARQL_SPARQL_ORDER_KEY_H_
#define SCISPARQL_SPARQL_ORDER_KEY_H_

#include "rdf/term.h"

namespace scisparql {
namespace sparql {

/// ORDER BY comparator: mixed numeric bindings (xsd:integer vs xsd:double
/// vs numeric typed literals) compare by value; everything else falls back
/// to the SPARQL term order. A strict weak order, so std::sort may use it.
int CompareOrderKeys(const Term& a, const Term& b);

}  // namespace sparql
}  // namespace scisparql

#endif  // SCISPARQL_SPARQL_ORDER_KEY_H_
