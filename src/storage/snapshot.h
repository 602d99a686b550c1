#ifndef SCISPARQL_STORAGE_SNAPSHOT_H_
#define SCISPARQL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/vfs.h"

namespace scisparql {
namespace storage {

/// One graph's worth of snapshot data. The body is opaque here; the engine
/// writes and reads only dictionary sections (storage/dict_section.h). The
/// envelope below adds per-section CRCs and a footer.
struct SnapshotSection {
  std::string graph_iri;  ///< "" = default graph.
  std::string body;
};

struct SnapshotGraphInfo {
  std::string iri;  ///< "" = default graph.
  uint64_t version = 0;
  uint64_t triples = 0;
};

/// Trailing metadata. `wal_lsn` is the highest LSN whose effects are
/// contained in the snapshot; recovery replays the WAL strictly after it.
struct SnapshotFooter {
  uint64_t wal_lsn = 0;
  uint64_t term = 0;  ///< Replication fencing term at snapshot time.
  std::vector<SnapshotGraphInfo> graphs;
};

struct SnapshotContents {
  std::vector<SnapshotSection> sections;
  SnapshotFooter footer;
};

/// On-disk envelope:
///
///   header:  "SSNP" u32 | format u32
///   section: [u8 0x01][u32 iri_len][iri][u64 body_len][body]
///            [u32 masked crc32c(iri || body)]
///   footer:  [u8 0x02][u32 payload_len][payload][u32 masked crc32c(payload)]
///   payload: u64 wal_lsn | u32 n_graphs | n x (string iri, u64 version,
///            u64 triples)
///
/// WriteSnapshot writes `path + ".tmp"`, fsyncs, then atomically renames
/// over `path` (the VFS rename also fsyncs the directory), so a crash
/// mid-write never damages an existing snapshot.
Status WriteSnapshot(Vfs* vfs, const std::string& path,
                     const std::vector<SnapshotSection>& sections,
                     const SnapshotFooter& footer);

/// Verifies the magic, every section CRC and the footer CRC; any mismatch
/// or truncation is an IoError (the caller falls back to an older snapshot
/// and longer WAL replay).
Result<SnapshotContents> ReadSnapshot(Vfs* vfs, const std::string& path);

/// "snap-<seq:016x>.ssnp".
std::string SnapshotFileName(uint64_t seq);

/// (seq, absolute path) for every snapshot in `dir`, ascending by seq.
/// A missing directory is an empty list, not an error.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    Vfs* vfs, const std::string& dir);

}  // namespace storage
}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_SNAPSHOT_H_
