#include "relstore/btree.h"

#include <cstring>
#include <vector>

namespace scisparql {
namespace relstore {

// Node page layout
// -----------------
//   [0]   u8   type: 1 = leaf, 2 = internal
//   [1]   u8   reserved
//   [2]   u16  count
//   [4]   u32  leaf: next-leaf page id; internal: left-most child page id
//   [8]   entries
//         leaf:     count x { u64 key, u64 value }           (16 bytes each)
//         internal: count x { u64 key, u32 right-child id }  (12 bytes each)
//
// In an internal node, keys partition the children: a search key k descends
// into the left-most child when k < key[0], otherwise into the right child
// of the last key <= k. Separator keys are copied up (B+-tree style), so
// every entry is reachable through the leaf level.

namespace {

constexpr uint8_t kLeaf = 1;
constexpr uint8_t kInternal = 2;
constexpr size_t kHeaderSize = 8;
constexpr size_t kLeafEntry = 16;
constexpr size_t kInternalEntry = 12;

uint8_t NodeType(const uint8_t* p) { return p[0]; }
uint16_t Count(const uint8_t* p) { return LoadU16(p + 2); }
void SetCount(uint8_t* p, uint16_t c) { StoreU16(p + 2, c); }
uint32_t Aux(const uint8_t* p) { return LoadU32(p + 4); }
void SetAux(uint8_t* p, uint32_t v) { StoreU32(p + 4, v); }

uint8_t* LeafEntry(uint8_t* p, size_t i) {
  return p + kHeaderSize + i * kLeafEntry;
}
const uint8_t* LeafEntry(const uint8_t* p, size_t i) {
  return p + kHeaderSize + i * kLeafEntry;
}
uint8_t* InternalEntry(uint8_t* p, size_t i) {
  return p + kHeaderSize + i * kInternalEntry;
}
const uint8_t* InternalEntry(const uint8_t* p, size_t i) {
  return p + kHeaderSize + i * kInternalEntry;
}

size_t LeafMax(uint32_t page_size) {
  return (page_size - kHeaderSize) / kLeafEntry;
}
size_t InternalMax(uint32_t page_size) {
  return (page_size - kHeaderSize) / kInternalEntry;
}

/// Inserts the `width`-byte `entry` at slot `pos` of a node holding `n`
/// entries. A node with room takes it in place and returns true; a full
/// one is left untouched, and `merged` receives all n + 1 entries in order
/// for the caller to split — the page has no room for slot n.
bool InsertEntry(uint8_t* p, size_t n, size_t max, size_t pos, size_t width,
                 const uint8_t* entry, std::vector<uint8_t>* merged) {
  uint8_t* at = p + kHeaderSize + pos * width;
  const size_t tail = (n - pos) * width;
  if (n < max) {
    std::memmove(at + width, at, tail);
    std::memcpy(at, entry, width);
    SetCount(p, static_cast<uint16_t>(n + 1));
    return true;
  }
  merged->resize((n + 1) * width);
  std::memcpy(merged->data(), p + kHeaderSize, pos * width);
  std::memcpy(merged->data() + pos * width, entry, width);
  std::memcpy(merged->data() + (pos + 1) * width, at, tail);
  return false;
}

void InitNode(uint8_t* p, uint8_t type, uint32_t page_size) {
  std::memset(p, 0, page_size);
  p[0] = type;
  SetCount(p, 0);
  SetAux(p, kInvalidPage);
}

/// First leaf slot with key >= `key` (lower bound).
size_t LeafLowerBound(const uint8_t* p, uint64_t key) {
  size_t lo = 0, hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LoadU64(LeafEntry(p, mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child page to descend into for `key`. With `leftmost` the descent uses a
/// strict comparison, landing on the left-most leaf that may contain `key`;
/// this matters when duplicate keys span a split (scans/removals need the
/// left-most copy, inserts append right-most).
uint32_t ChildFor(const uint8_t* p, uint64_t key, bool leftmost = false) {
  size_t n = Count(p);
  size_t lo = 0, hi = n;
  // Number of separator keys <= key (or < key for leftmost descent).
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    uint64_t sep = LoadU64(InternalEntry(p, mid));
    bool go_right = leftmost ? sep < key : sep <= key;
    if (go_right) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return Aux(p);
  return LoadU32(InternalEntry(p, lo - 1) + 8);
}

}  // namespace

Result<BTree> BTree::Create(BufferPool* pool) {
  PageId root = pool->pager()->Allocate();
  SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool, root));
  InitNode(page.data(), kLeaf, pool->pager()->page_size());
  page.MarkDirty();
  return BTree(pool, root);
}

BTree BTree::Open(BufferPool* pool, PageId root) { return BTree(pool, root); }

Result<BTree::SplitResult> BTree::InsertRec(PageId node, uint64_t key,
                                            uint64_t value) {
  const uint32_t page_size = pool_->pager()->page_size();
  SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, node));
  uint8_t* p = page.data();

  std::vector<uint8_t> merged;
  if (NodeType(p) == kLeaf) {
    size_t n = Count(p);
    uint8_t entry[kLeafEntry];
    StoreU64(entry, key);
    StoreU64(entry + 8, value);
    page.MarkDirty();
    if (InsertEntry(p, n, LeafMax(page_size), LeafLowerBound(p, key),
                    kLeafEntry, entry, &merged)) {
      return SplitResult{};
    }

    // Split: the lower half of the n + 1 entries stays, the upper half
    // moves to a new leaf.
    size_t total = n + 1;
    size_t keep = total / 2;
    PageId right_id = pool_->pager()->Allocate();
    SCISPARQL_ASSIGN_OR_RETURN(PageRef right, PageRef::Acquire(pool_, right_id));
    InitNode(right.data(), kLeaf, page_size);
    std::memcpy(LeafEntry(p, 0), merged.data(), keep * kLeafEntry);
    std::memcpy(LeafEntry(right.data(), 0), merged.data() + keep * kLeafEntry,
                (total - keep) * kLeafEntry);
    SetCount(right.data(), static_cast<uint16_t>(total - keep));
    SetAux(right.data(), Aux(p));  // chain: right inherits old next
    SetAux(p, right_id);
    SetCount(p, static_cast<uint16_t>(keep));
    right.MarkDirty();
    page.MarkDirty();
    SplitResult sr;
    sr.split = true;
    sr.sep_key = LoadU64(LeafEntry(right.data(), 0));
    sr.right = right_id;
    return sr;
  }

  // Internal node: descend.
  uint32_t child = ChildFor(p, key);
  page.Release();  // avoid holding pins across the recursion
  SCISPARQL_ASSIGN_OR_RETURN(SplitResult child_split,
                             InsertRec(child, key, value));
  if (!child_split.split) return SplitResult{};

  SCISPARQL_ASSIGN_OR_RETURN(PageRef repage, PageRef::Acquire(pool_, node));
  p = repage.data();
  size_t n = Count(p);
  // Position of the new separator key. Equal separators can exist when
  // duplicate keys span splits; the new right sibling must be placed after
  // them (it holds the upper half of the right-most equal subtree).
  size_t pos = 0;
  while (pos < n && LoadU64(InternalEntry(p, pos)) <= child_split.sep_key) {
    ++pos;
  }
  uint8_t entry[kInternalEntry];
  StoreU64(entry, child_split.sep_key);
  StoreU32(entry + 8, child_split.right);
  repage.MarkDirty();
  if (InsertEntry(p, n, InternalMax(page_size), pos, kInternalEntry, entry,
                  &merged)) {
    return SplitResult{};
  }

  // Split the internal node: the median of the n + 1 keys moves up.
  size_t total = n + 1;
  size_t mid = total / 2;
  const uint8_t* median = merged.data() + mid * kInternalEntry;
  uint64_t up_key = LoadU64(median);
  uint32_t mid_child = LoadU32(median + 8);

  PageId right_id = pool_->pager()->Allocate();
  SCISPARQL_ASSIGN_OR_RETURN(PageRef right, PageRef::Acquire(pool_, right_id));
  InitNode(right.data(), kInternal, page_size);
  size_t right_count = total - mid - 1;
  std::memcpy(InternalEntry(p, 0), merged.data(), mid * kInternalEntry);
  std::memcpy(InternalEntry(right.data(), 0), median + kInternalEntry,
              right_count * kInternalEntry);
  SetCount(right.data(), static_cast<uint16_t>(right_count));
  SetAux(right.data(), mid_child);
  SetCount(p, static_cast<uint16_t>(mid));
  right.MarkDirty();
  repage.MarkDirty();

  SplitResult sr;
  sr.split = true;
  sr.sep_key = up_key;
  sr.right = right_id;
  return sr;
}

Status BTree::Insert(uint64_t key, uint64_t value) {
  SCISPARQL_ASSIGN_OR_RETURN(SplitResult sr, InsertRec(root_, key, value));
  if (!sr.split) return Status::OK();
  // Grow a new root.
  const uint32_t page_size = pool_->pager()->page_size();
  PageId new_root = pool_->pager()->Allocate();
  SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, new_root));
  InitNode(page.data(), kInternal, page_size);
  SetAux(page.data(), root_);
  StoreU64(InternalEntry(page.data(), 0), sr.sep_key);
  StoreU32(InternalEntry(page.data(), 0) + 8, sr.right);
  SetCount(page.data(), 1);
  page.MarkDirty();
  root_ = new_root;
  return Status::OK();
}

Result<PageId> BTree::FindLeaf(uint64_t key) const {
  PageId node = root_;
  while (true) {
    SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, node));
    if (NodeType(page.data()) == kLeaf) return node;
    node = ChildFor(page.data(), key, /*leftmost=*/true);
  }
}

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, uint64_t)>& cb) const {
  if (lo > hi) return Status::OK();
  SCISPARQL_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(lo));
  while (leaf != kInvalidPage) {
    SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, leaf));
    const uint8_t* p = page.data();
    size_t n = Count(p);
    for (size_t i = LeafLowerBound(p, lo); i < n; ++i) {
      uint64_t k = LoadU64(LeafEntry(p, i));
      if (k > hi) return Status::OK();
      if (!cb(k, LoadU64(LeafEntry(p, i) + 8))) return Status::OK();
    }
    leaf = Aux(p);
  }
  return Status::OK();
}

Status BTree::ScanStrided(
    uint64_t lo, uint64_t hi, uint64_t stride,
    const std::function<bool(uint64_t, uint64_t)>& cb) const {
  if (stride == 0) return Status::InvalidArgument("zero stride");
  return Scan(lo, hi, [&](uint64_t k, uint64_t v) {
    if ((k - lo) % stride == 0) return cb(k, v);
    return true;
  });
}

Result<std::vector<uint64_t>> BTree::Lookup(uint64_t key) const {
  std::vector<uint64_t> out;
  SCISPARQL_RETURN_NOT_OK(Scan(key, key, [&out](uint64_t, uint64_t v) {
    out.push_back(v);
    return true;
  }));
  return out;
}

Result<size_t> BTree::Remove(uint64_t key, uint64_t value) {
  // Locate the leaf and remove matching entries; no rebalancing (deletes
  // are rare in the SSDM workload, and underflowing leaves stay linked).
  SCISPARQL_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key));
  size_t removed = 0;
  while (leaf != kInvalidPage) {
    SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, leaf));
    uint8_t* p = page.data();
    size_t n = Count(p);
    size_t i = LeafLowerBound(p, key);
    bool past = false;
    while (i < n) {
      uint64_t k = LoadU64(LeafEntry(p, i));
      if (k > key) {
        past = true;
        break;
      }
      if (k == key && LoadU64(LeafEntry(p, i) + 8) == value) {
        std::memmove(LeafEntry(p, i), LeafEntry(p, i + 1),
                     (n - i - 1) * kLeafEntry);
        --n;
        SetCount(p, static_cast<uint16_t>(n));
        page.MarkDirty();
        ++removed;
      } else {
        ++i;
      }
    }
    if (past) break;
    leaf = Aux(p);
  }
  return removed;
}

Result<uint64_t> BTree::CountEntries() const {
  uint64_t total = 0;
  SCISPARQL_RETURN_NOT_OK(Scan(0, UINT64_MAX, [&total](uint64_t, uint64_t) {
    ++total;
    return true;
  }));
  return total;
}

Result<int> BTree::Height() const {
  int h = 1;
  PageId node = root_;
  while (true) {
    SCISPARQL_ASSIGN_OR_RETURN(PageRef page, PageRef::Acquire(pool_, node));
    if (NodeType(page.data()) == kLeaf) return h;
    node = Aux(page.data());
    ++h;
  }
}

}  // namespace relstore
}  // namespace scisparql
