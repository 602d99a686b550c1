#ifndef SCISPARQL_CLIENT_PROTOCOL_H_
#define SCISPARQL_CLIENT_PROTOCOL_H_

#include <chrono>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"
#include "sparql/executor.h"

namespace scisparql {
namespace client {

/// Wire protocol of the SSDM client-server mode (Section 5.1 positions
/// SSDM as "a stand-alone system, a client-server system, or a cluster of
/// processes"). Messages are length-prefixed byte strings:
///
///   request:  [u32 length][payload]
///   response: [u32 length][payload]
///
/// Two request forms share the frame, told apart by the payload's first
/// byte. A payload that starts with 0x01 is a *structured* request — the
/// wire mirror of engine::QueryRequest, and the only form that carries a
/// statement:
///
///   [0x01][flags u8][timeout_ms u64 LE][statement text]
///     flags bit 0: record a trace and return it with the response
///     flags bit 1: override optimize_join_order; bit 2: its value
///     flags bit 3: override push_filters;       bit 4: its value
///     flags bit 5: prepared execution — the payload after the header is
///                  [name string][argc u32][term]* instead of statement
///                  text (the wire mirror of QueryRequest::prepared;
///                  strings are u32-length-prefixed, terms use the term
///                  serialization below)
///
/// A timeout of zero means the server's default deadline applies; one too
/// large to represent means no deadline. A structured request is answered
/// with a structured response:
///
///   [0x01][kind u8][u32 LE body length][body][rendered trace text]
///     kind 'R' rows    — serialized QueryResult (SELECT)
///          'B' boolean — one byte (ASK)
///          'G' graph   — Turtle text (CONSTRUCT / DESCRIBE)
///          'U' update  — decimal triples-touched count (updates / DEFINE),
///                        optionally followed by " <commit lsn>" on durable
///                        engines (the client's read-your-writes token)
///          'I' info    — EXPLAIN [ANALYZE] / STATS / METRICS text; the
///                        STATS verb (matched trimmed and case-insensitively)
///                        gets a "scheduler: <counters>" line before the
///                        engine's report
///
/// A payload that starts with 0x02 is a *replication* request — LSN
/// probes, WAL-batch fetches and bootstrap snapshots, documented in
/// repl/wire.h — served by the same port and frame format.
///
/// A payload with any other first byte is answered with an
/// InvalidArgument error, and the connection stays usable. Errors use
/// 'E' (status code byte + message) for both forms.
///
/// Every statement — including the STATS/METRICS verbs and EXPLAIN
/// statements, all classified as reads — runs through the query
/// scheduler, so engine access always happens under its reader-writer
/// lock.
///
/// Terms serialize with a kind tag; arrays travel as shape + row-major
/// elements (proxies are materialized server-side — the client always
/// receives resident data, which is what the Matlab integration does).

/// Serializes one term (including arrays) to bytes.
Status SerializeTerm(const Term& term, std::string* out);

/// Deserializes a term; advances *pos.
Result<Term> DeserializeTerm(const std::string& data, size_t* pos);

/// Serializes a SELECT result.
std::string SerializeResult(const sparql::QueryResult& result);
Result<sparql::QueryResult> DeserializeResult(const std::string& data);

/// Frames a payload with the u32 length prefix.
std::string Frame(const std::string& payload);

/// First byte of structured request and response payloads.
constexpr char kStructuredMarker = '\x01';

/// Decoded structured request — the wire mirror of engine::QueryRequest.
struct WireRequest {
  std::string text;
  std::chrono::milliseconds timeout{0};
  bool want_trace = false;
  bool has_optimize = false;
  bool optimize = true;
  bool has_push_filters = false;
  bool push_filters = true;
  /// Prepared execution (flag bit 5): run the statement PREPARE'd under
  /// `prepared_name` with these ground arguments; `text` is unused.
  bool is_prepared = false;
  std::string prepared_name;
  std::vector<Term> prepared_args;
};

std::string EncodeRequest(const WireRequest& req);
/// Decodes a structured request payload; any other payload, and a
/// malformed one, is InvalidArgument.
Result<WireRequest> DecodeRequest(const std::string& payload);

/// Decoded structured response: kind tag, kind-specific body, and the
/// rendered trace (empty unless the request asked for one).
struct WireResponse {
  char kind = 'I';
  std::string body;
  std::string trace;
};

std::string EncodeResponse(const WireResponse& resp);
Result<WireResponse> DecodeResponse(const std::string& payload);

}  // namespace client
}  // namespace scisparql

#endif  // SCISPARQL_CLIENT_PROTOCOL_H_
