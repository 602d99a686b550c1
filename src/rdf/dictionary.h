#ifndef SCISPARQL_RDF_DICTIONARY_H_
#define SCISPARQL_RDF_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace scisparql {

/// Interned term dictionary: a bijection between RDF terms (up to
/// Term::Identical) and dense fixed-width 32-bit IDs, in the style of
/// RDF-3X's DictionarySegment. The graph interns every term at insertion
/// time — including delta-admitted triples under concurrent writes — so
/// triples can be mirrored as ID tuples and joins can run over integers
/// instead of string-bearing Terms; results materialize back through
/// `term(id)`.
///
/// Interning is by Term::Identical, so ID equality *is* triple-component
/// equality: numerics intern by exact mathematical value (the integer 2
/// and the double 2.0 share one ID, 2^53+1 and 2^53 as a double do not,
/// both zeros share one, all NaNs share one), and the term an ID resolves
/// to is the first form interned for that value — which is the form the
/// graph stores and every read returns. Arrays are the one exception:
/// they intern by object identity (no materialization), so two
/// value-equal array objects hold two IDs; the graph and the executor
/// compare array *constants* by value on top of that.
///
/// Thread safety: writers (Intern) serialize behind an internal mutex and
/// may run concurrently with any number of readers. Find takes the mutex
/// shared; term(id) and the counters are lock-free. term(id) is safe for
/// any *published* ID — one obtained from Find, from a delta-run snapshot,
/// or from the base ID table — because every publication channel carries a
/// release/acquire edge ordered after the slot write (terms live in
/// fixed-size chunks whose addresses never move, so no reader ever
/// observes a relocation). Clear and the move operations require external
/// exclusivity, which Graph's contracts already guarantee.
class TermDictionary {
 public:
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  TermDictionary();
  ~TermDictionary();
  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;
  // Moves require external exclusivity (no concurrent readers or writers
  // on either side); Graph only moves under the engine's exclusive lock.
  TermDictionary(TermDictionary&& o) noexcept;
  TermDictionary& operator=(TermDictionary&& o) noexcept;

  /// Returns the ID of `t`, interning it first if absent. Safe to call
  /// from concurrent writers; serialized internally.
  uint32_t Intern(const Term& t);

  /// Returns the ID of `t` without interning, or nullopt. Safe to call
  /// concurrently with Intern.
  std::optional<uint32_t> Find(const Term& t) const;

  /// The interned term for a published dictionary ID (must be < size()).
  /// Lock-free: chunked storage gives terms stable addresses for the
  /// dictionary's lifetime.
  const Term& term(uint32_t id) const {
    const ChunkDir* dir = dir_.load(std::memory_order_acquire);
    return dir->chunks[id >> kChunkBits][id & kChunkMask];
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Requires external exclusivity: frees every chunk, so outstanding
  /// term(id) references must have drained.
  void Clear();

  /// Heap string bytes (lexical forms, language tags, datatype IRIs) held
  /// by the interned terms — the dictionary-resident share of a result
  /// row's footprint, used by the result cache's byte accounting.
  size_t string_bytes() const {
    return string_bytes_.load(std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  /// Immutable-capacity chunk directory. The current directory's tail
  /// slots are filled in by writers as chunks are allocated; readers only
  /// dereference slots covering IDs that were published to them, which
  /// happens-after the slot write. When capacity runs out a doubled copy
  /// is published through dir_ and the old one is retained until Clear so
  /// stale loads stay valid.
  struct ChunkDir {
    std::vector<Term*> chunks;
  };

  struct IdentityHash {
    size_t operator()(const Term& t) const;
  };
  struct IdentityEq {
    bool operator()(const Term& a, const Term& b) const;
  };

  void MoveFrom(TermDictionary&& o);
  void Reset();

  mutable std::shared_mutex mu_;
  std::unordered_map<Term, uint32_t, IdentityHash, IdentityEq>
      ids_;                                           // guarded by mu_
  std::vector<std::unique_ptr<Term[]>> chunk_store_;  // guarded by mu_
  std::vector<std::unique_ptr<ChunkDir>> dirs_;       // guarded by mu_

  std::atomic<const ChunkDir*> dir_{nullptr};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> string_bytes_{0};
};

/// Heap string bytes owned by one term (0 for numerics/booleans; array
/// element payloads are charged separately by the caller).
size_t TermStringBytes(const Term& t);

}  // namespace scisparql

#endif  // SCISPARQL_RDF_DICTIONARY_H_
