#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relstore/btree.h"

namespace scisparql {
namespace relstore {
namespace {

struct Fixture {
  std::unique_ptr<Pager> pager = *Pager::Open("");
  std::unique_ptr<BufferPool> pool =
      std::make_unique<BufferPool>(pager.get(), 64);
  BTree tree = *BTree::Create(pool.get());
};

TEST(BTree, EmptyTreeFindsNothing) {
  Fixture f;
  EXPECT_TRUE(f.tree.Lookup(42)->empty());
  EXPECT_EQ(*f.tree.CountEntries(), 0u);
  EXPECT_EQ(*f.tree.Height(), 1);
}

TEST(BTree, InsertAndLookup) {
  Fixture f;
  ASSERT_TRUE(f.tree.Insert(10, 100).ok());
  ASSERT_TRUE(f.tree.Insert(20, 200).ok());
  EXPECT_EQ(*f.tree.Lookup(10), std::vector<uint64_t>{100});
  EXPECT_EQ(*f.tree.Lookup(20), std::vector<uint64_t>{200});
  EXPECT_TRUE(f.tree.Lookup(15)->empty());
}

TEST(BTree, DuplicateKeys) {
  Fixture f;
  ASSERT_TRUE(f.tree.Insert(5, 1).ok());
  ASSERT_TRUE(f.tree.Insert(5, 2).ok());
  ASSERT_TRUE(f.tree.Insert(5, 3).ok());
  auto values = *f.tree.Lookup(5);
  EXPECT_EQ(values.size(), 3u);
}

TEST(BTree, ManyInsertsForceSplits) {
  Fixture f;
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(f.tree.Insert(i * 7 % n, i).ok());
  }
  EXPECT_EQ(*f.tree.CountEntries(), n);
  EXPECT_GE(*f.tree.Height(), 2);
  // Spot-check lookups.
  for (uint64_t k : {0ull, 1ull, 999ull, 19999ull}) {
    EXPECT_EQ(f.tree.Lookup(k)->size(), 1u) << k;
  }
}

TEST(BTree, ScanReturnsSortedRange) {
  Fixture f;
  std::vector<uint64_t> keys;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng() % 100000);
  for (uint64_t k : keys) ASSERT_TRUE(f.tree.Insert(k, k * 2).ok());
  std::sort(keys.begin(), keys.end());

  std::vector<uint64_t> in_range;
  for (uint64_t k : keys) {
    if (k >= 1000 && k <= 50000) in_range.push_back(k);
  }
  std::vector<uint64_t> scanned;
  ASSERT_TRUE(f.tree.Scan(1000, 50000, [&](uint64_t k, uint64_t v) {
    EXPECT_EQ(v, k * 2);
    scanned.push_back(k);
    return true;
  }).ok());
  EXPECT_EQ(scanned, in_range);
}

TEST(BTree, ScanEarlyStop) {
  Fixture f;
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(f.tree.Insert(i, i).ok());
  int seen = 0;
  ASSERT_TRUE(f.tree.Scan(0, 99, [&](uint64_t, uint64_t) {
    return ++seen < 5;
  }).ok());
  EXPECT_EQ(seen, 5);
}

TEST(BTree, ScanStridedFiltersByModulus) {
  Fixture f;
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(f.tree.Insert(i, i).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(f.tree.ScanStrided(10, 40, 5, [&](uint64_t k, uint64_t) {
    got.push_back(k);
    return true;
  }).ok());
  EXPECT_EQ(got, (std::vector<uint64_t>{10, 15, 20, 25, 30, 35, 40}));
}

TEST(BTree, DuplicatesSpanningSplitAreAllFound) {
  Fixture f;
  // Many duplicates of one key interleaved with others to force splits
  // through the duplicate run.
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(f.tree.Insert(500, i).ok());
    ASSERT_TRUE(f.tree.Insert(i, 0).ok());
  }
  EXPECT_EQ(f.tree.Lookup(500)->size(), 2001u);  // 2000 dups + key 500 itself
}

TEST(BTree, RemoveSpecificEntries) {
  Fixture f;
  ASSERT_TRUE(f.tree.Insert(1, 10).ok());
  ASSERT_TRUE(f.tree.Insert(1, 11).ok());
  ASSERT_TRUE(f.tree.Insert(2, 20).ok());
  EXPECT_EQ(*f.tree.Remove(1, 10), 1u);
  EXPECT_EQ(*f.tree.Lookup(1), std::vector<uint64_t>{11});
  EXPECT_EQ(*f.tree.Remove(1, 999), 0u);
  EXPECT_EQ(*f.tree.Lookup(2), std::vector<uint64_t>{20});
}

TEST(BTree, ReopenFromRoot) {
  std::unique_ptr<Pager> pager = *Pager::Open("");
  auto pool = std::make_unique<BufferPool>(pager.get(), 64);
  PageId root;
  {
    BTree tree = *BTree::Create(pool.get());
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_TRUE(tree.Insert(i, i + 1).ok());
    }
    root = tree.root();
  }
  BTree reopened = BTree::Open(pool.get(), root);
  EXPECT_EQ(*reopened.CountEntries(), 3000u);
  EXPECT_EQ(*reopened.Lookup(1234), std::vector<uint64_t>{1235});
}

TEST(BTree, MaxKeyBoundary) {
  Fixture f;
  ASSERT_TRUE(f.tree.Insert(UINT64_MAX, 1).ok());
  ASSERT_TRUE(f.tree.Insert(0, 2).ok());
  EXPECT_EQ(f.tree.Lookup(UINT64_MAX)->size(), 1u);
  EXPECT_EQ(f.tree.Lookup(0)->size(), 1u);
}

/// Property sweep: sequential, reverse and random insertion orders must all
/// produce a tree whose full scan is the sorted multiset of inserted keys.
class InsertOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(InsertOrderSweep, FullScanSorted) {
  Fixture f;
  const int n = 4000;
  std::vector<uint64_t> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = static_cast<uint64_t>(i);
  switch (GetParam()) {
    case 0:
      break;  // ascending
    case 1:
      std::reverse(keys.begin(), keys.end());
      break;
    case 2: {
      std::mt19937_64 rng(99);
      std::shuffle(keys.begin(), keys.end(), rng);
      break;
    }
  }
  for (uint64_t k : keys) ASSERT_TRUE(f.tree.Insert(k, k).ok());
  uint64_t expected = 0;
  ASSERT_TRUE(f.tree.Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
    EXPECT_EQ(k, expected++);
    return true;
  }).ok());
  EXPECT_EQ(expected, static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Orders, InsertOrderSweep, ::testing::Values(0, 1, 2));

/// Nodes filled to exactly their capacity, then split by one more entry:
/// on 4 KiB pages a leaf holds (4096 - 8) / 16 = 255 entries and an
/// internal node (4096 - 8) / 12 = 340 separators.
constexpr uint32_t kSmallPage = 4096;
constexpr uint64_t kLeafMax = 255;
constexpr uint64_t kInternalMax = 340;

enum class KeyOrder { kAscending, kDescending, kDuplicate };

class FillToCapacity : public ::testing::TestWithParam<KeyOrder> {};

TEST_P(FillToCapacity, FullNodesSplitAndScanBackInOrder) {
  std::unique_ptr<Pager> pager = *Pager::Open("", kSmallPage);
  auto pool = std::make_unique<BufferPool>(pager.get(), 64);
  BTree tree = *BTree::Create(pool.get());
  auto key_of = [](uint64_t i) -> uint64_t {
    switch (GetParam()) {
      case KeyOrder::kAscending:
        return i;
      case KeyOrder::kDescending:
        return 1000000 - i;
      case KeyOrder::kDuplicate:
        return 7;
    }
    return 0;
  };
  // In all three orders every insert lands in the leaf the last split
  // left with (kLeafMax + 1) / 2 entries, so the root leaf is exactly
  // full after kLeafMax inserts, and the root internal node after
  // kInternalMax - 1 further leaf splits.
  const uint64_t half = (kLeafMax + 1) / 2;
  const uint64_t leaf_full = kLeafMax;
  const uint64_t internal_full = kLeafMax + 1 + (kInternalMax - 1) * half;
  std::vector<std::pair<uint64_t, uint64_t>> inserted;
  auto insert_until = [&](uint64_t n) {
    while (inserted.size() < n) {
      const uint64_t i = inserted.size();
      ASSERT_TRUE(tree.Insert(key_of(i), i).ok());
      inserted.emplace_back(key_of(i), i);
    }
  };
  insert_until(leaf_full);
  EXPECT_EQ(*tree.Height(), 1);
  insert_until(leaf_full + 1);
  EXPECT_EQ(*tree.Height(), 2);
  insert_until(internal_full);
  EXPECT_EQ(*tree.Height(), 2);
  insert_until(internal_full + half);
  EXPECT_EQ(*tree.Height(), 3);

  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  ASSERT_TRUE(tree.Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    scanned.emplace_back(k, v);
    return true;
  }).ok());
  ASSERT_EQ(scanned.size(), inserted.size());
  EXPECT_TRUE(std::is_sorted(
      scanned.begin(), scanned.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  std::sort(scanned.begin(), scanned.end());
  std::sort(inserted.begin(), inserted.end());
  EXPECT_EQ(scanned, inserted);
}

INSTANTIATE_TEST_SUITE_P(Orders, FillToCapacity,
                         ::testing::Values(KeyOrder::kAscending,
                                           KeyOrder::kDescending,
                                           KeyOrder::kDuplicate));

}  // namespace
}  // namespace relstore
}  // namespace scisparql
