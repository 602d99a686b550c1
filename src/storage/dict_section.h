#ifndef SCISPARQL_STORAGE_DICT_SECTION_H_
#define SCISPARQL_STORAGE_DICT_SECTION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "rdf/graph.h"

namespace scisparql {
namespace storage {

/// Dictionary-encoded snapshot section: the graph's distinct terms are
/// written once (arrays materialized inline, so a snapshot loads with no
/// array storage attached), followed by the triples as fixed-width index
/// tuples. The section body starts with a magic whose first byte is NUL,
/// which no Turtle document can, so the Turtle bodies of snapshots older
/// than this encoding fail the magic check instead of loading as garbage;
/// the engine reads no other section form.

/// True when `body` starts with the dictionary-section magic.
bool IsDictSection(const std::string& body);

/// Serializes the graph's live triples as a dictionary section.
Result<std::string> EncodeDictSection(const Graph& g);

/// Decodes a dictionary section into `g` (one Add per triple).
/// `resolve_ref` materializes (storage, id) array references; may be null
/// when the section contains none.
Status DecodeDictSection(
    const std::string& body,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    Graph* g);

}  // namespace storage
}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_DICT_SECTION_H_
