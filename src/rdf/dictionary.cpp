#include "rdf/dictionary.h"

#include <algorithm>
#include <functional>
#include <mutex>

#include "common/string_util.h"

namespace scisparql {

size_t TermDictionary::IdentityHash::operator()(const Term& t) const {
  switch (t.kind()) {
    case Term::Kind::kArray:
      // Object identity: proxies are never materialized by the dictionary.
      return HashCombine(std::hash<int>()(static_cast<int>(t.kind())),
                         std::hash<const void*>()(t.array().get()));
    default:
      return t.Hash();
  }
}

bool TermDictionary::IdentityEq::operator()(const Term& a,
                                            const Term& b) const {
  if (a.IsArray() || b.IsArray()) {
    return a.IsArray() && b.IsArray() && a.array().get() == b.array().get();
  }
  return Term::Identical(a, b);
}

size_t TermStringBytes(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kUndef:
    case Term::Kind::kInteger:
    case Term::Kind::kDouble:
    case Term::Kind::kBoolean:
    case Term::Kind::kArray:
      return 0;
    default:
      return t.lexical().size() + t.lang().size();
  }
}

TermDictionary::TermDictionary() = default;

TermDictionary::~TermDictionary() = default;

void TermDictionary::MoveFrom(TermDictionary&& o) {
  ids_ = std::move(o.ids_);
  chunk_store_ = std::move(o.chunk_store_);
  dirs_ = std::move(o.dirs_);
  dir_.store(o.dir_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  size_.store(o.size_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  string_bytes_.store(o.string_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  o.Reset();
}

void TermDictionary::Reset() {
  ids_.clear();
  chunk_store_.clear();
  dirs_.clear();
  dir_.store(nullptr, std::memory_order_relaxed);
  size_.store(0, std::memory_order_release);
  string_bytes_.store(0, std::memory_order_relaxed);
}

TermDictionary::TermDictionary(TermDictionary&& o) noexcept {
  MoveFrom(std::move(o));
}

TermDictionary& TermDictionary::operator=(TermDictionary&& o) noexcept {
  if (this != &o) MoveFrom(std::move(o));
  return *this;
}

uint32_t TermDictionary::Intern(const Term& t) {
  {
    std::shared_lock<std::shared_mutex> rlock(mu_);
    auto it = ids_.find(t);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(t);
  if (it != ids_.end()) return it->second;

  const uint32_t id =
      static_cast<uint32_t>(size_.load(std::memory_order_relaxed));
  const uint32_t chunk = id >> kChunkBits;
  if (chunk == chunk_store_.size()) {
    chunk_store_.push_back(std::make_unique<Term[]>(kChunkSize));
    const ChunkDir* cur = dir_.load(std::memory_order_relaxed);
    if (cur == nullptr || chunk == cur->chunks.size()) {
      // Out of directory capacity: publish a doubled copy. The old
      // directory stays alive (dirs_) for readers holding a stale load.
      auto next = std::make_unique<ChunkDir>();
      next->chunks.resize(cur == nullptr ? 8 : cur->chunks.size() * 2,
                          nullptr);
      if (cur != nullptr) {
        std::copy(cur->chunks.begin(), cur->chunks.end(),
                  next->chunks.begin());
      }
      next->chunks[chunk] = chunk_store_.back().get();
      const ChunkDir* published = next.get();
      dirs_.push_back(std::move(next));
      dir_.store(published, std::memory_order_release);
    } else {
      // Capacity to spare: fill the pre-sized slot in place. Readers never
      // dereference it before an ID in this chunk is published to them.
      const_cast<ChunkDir*>(cur)->chunks[chunk] = chunk_store_.back().get();
    }
  }
  chunk_store_[chunk][id & kChunkMask] = t;

  string_bytes_.fetch_add(TermStringBytes(t), std::memory_order_relaxed);
  ids_.emplace(t, id);
  // Publish the ID last: any channel that hands this ID to a reader is
  // itself ordered after the critical section, so the slot write above is
  // visible wherever the ID is.
  size_.store(static_cast<size_t>(id) + 1, std::memory_order_release);
  return id;
}

std::optional<uint32_t> TermDictionary::Find(const Term& t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(t);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

void TermDictionary::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ids_.clear();
  chunk_store_.clear();
  dirs_.clear();
  dir_.store(nullptr, std::memory_order_release);
  size_.store(0, std::memory_order_release);
  string_bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace scisparql
