// Unit and property tests for the index access methods: B+-tree (vs a
// std::map oracle, parameterized over page sizes), List, Hash, Queue.
#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "index/keys.h"
#include "index/list_index.h"
#include "index/queue_am.h"
#include "osal/allocator.h"
#include "osal/env.h"

namespace fame::index {
namespace {

using storage::BufferManager;
using storage::PageFile;
using storage::PageFileOptions;

struct Harness {
  std::unique_ptr<osal::Env> env;
  osal::DynamicAllocator alloc;
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferManager> buffers;

  explicit Harness(uint32_t page_size = 4096, size_t frames = 32) {
    env = osal::NewMemEnv(0);
    PageFileOptions opts;
    opts.page_size = page_size;
    auto pf = PageFile::Open(env.get(), "db", opts);
    assert(pf.ok());
    file = std::move(*pf);
    auto bm = BufferManager::Create(file.get(), frames, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    assert(bm.ok());
    buffers = std::move(*bm);
  }
};

// ------------------------------------------------------------ B+-tree

TEST(BPlusTreeTest, EmptyTreeLookupFails) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  uint64_t v;
  EXPECT_TRUE((*tree)->Lookup("nope", &v).IsNotFound());
  EXPECT_EQ(*(*tree)->Count(), 0u);
  EXPECT_EQ(*(*tree)->Height(), 1u);
}

TEST(BPlusTreeTest, InsertLookupSmall) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert("bravo", 2).ok());
  ASSERT_TRUE((*tree)->Insert("alpha", 1).ok());
  ASSERT_TRUE((*tree)->Insert("charlie", 3).ok());
  uint64_t v;
  ASSERT_TRUE((*tree)->Lookup("alpha", &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE((*tree)->Lookup("charlie", &v).ok());
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE((*tree)->Lookup("delta", &v).IsNotFound());
}

TEST(BPlusTreeTest, UpsertOverwrites) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert("k", 1).ok());
  ASSERT_TRUE((*tree)->Insert("k", 2).ok());
  uint64_t v;
  ASSERT_TRUE((*tree)->Lookup("k", &v).ok());
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(*(*tree)->Count(), 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  Harness h(512);  // small pages force early splits
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i), i).ok()) << i;
  }
  EXPECT_GE(*(*tree)->Height(), 3u);
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  for (int i = 0; i < 500; ++i) {
    uint64_t v;
    ASSERT_TRUE((*tree)->Lookup(EncodeU32Key(i), &v).ok()) << i;
    EXPECT_EQ(v, static_cast<uint64_t>(i));
  }
}

TEST(BPlusTreeTest, OrderedFullScan) {
  Harness h(512);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  // Insert in reverse order; scan must be ascending.
  for (int i = 299; i >= 0; --i) {
    ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i), i).ok());
  }
  uint32_t expect = 0;
  ASSERT_TRUE((*tree)
                  ->Scan([&expect](const Slice& k, uint64_t v) {
                    EXPECT_EQ(DecodeU32Key(k), expect);
                    EXPECT_EQ(v, expect);
                    ++expect;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(expect, 300u);
}

TEST(BPlusTreeTest, RangeScanBounds) {
  Harness h(512);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i * 2), i).ok());  // even keys
  }
  std::vector<uint32_t> seen;
  ASSERT_TRUE((*tree)
                  ->RangeScan(EncodeU32Key(51), EncodeU32Key(60),
                              [&seen](const Slice& k, uint64_t) {
                                seen.push_back(DecodeU32Key(k));
                                return true;
                              })
                  .ok());
  // lo=51 (odd, absent) .. hi=60 exclusive: expect 52, 54, 56, 58.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.front(), 52u);
  EXPECT_EQ(seen.back(), 58u);
}

TEST(BPlusTreeTest, RemoveAndShrink) {
  Harness h(512);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i), i).ok());
  }
  uint32_t tall = *(*tree)->Height();
  EXPECT_GE(tall, 3u);
  for (int i = 0; i < 1995; ++i) {
    ASSERT_TRUE((*tree)->Remove(EncodeU32Key(i)).ok()) << i;
    if (i % 50 == 0) {
      ASSERT_TRUE((*tree)->CheckInvariants().ok()) << "after removing " << i;
    }
  }
  EXPECT_EQ(*(*tree)->Count(), 5u);
  EXPECT_LT(*(*tree)->Height(), tall);  // root collapsed
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  uint64_t v;
  for (int i = 1995; i < 2000; ++i) {
    ASSERT_TRUE((*tree)->Lookup(EncodeU32Key(i), &v).ok());
  }
  EXPECT_TRUE((*tree)->Remove(EncodeU32Key(0)).IsNotFound());
}

TEST(BPlusTreeTest, RejectsOversizeKey) {
  Harness h(512);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  std::string huge(300, 'k');
  EXPECT_TRUE((*tree)->Insert(huge, 1).IsInvalidArgument());
}

TEST(BPlusTreeTest, PersistsAcrossReopen) {
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  {
    auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
    ASSERT_TRUE(pf.ok());
    auto bm = BufferManager::Create(pf->get(), 16, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    ASSERT_TRUE(bm.ok());
    auto tree = BPlusTree::Open(bm->get(), "t");
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i), i * 10).ok());
    }
    ASSERT_TRUE((*bm)->Checkpoint().ok());
  }
  auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
  ASSERT_TRUE(pf.ok());
  auto bm = BufferManager::Create(pf->get(), 16, &alloc,
                                  storage::MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm.ok());
  auto tree = BPlusTree::Open(bm->get(), "t");
  ASSERT_TRUE(tree.ok());
  uint64_t v;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*tree)->Lookup(EncodeU32Key(i), &v).ok());
    EXPECT_EQ(v, static_cast<uint64_t>(i) * 10);
  }
}

// Property test: random operations against std::map, parameterized over
// page size (small pages stress splits/merges) and key shape.
// gtest names each instance after the raw bytes of its parameter, padding
// included, so the padding is spelled out as zeroed fields: an
// indeterminate byte would give the same case a different name per build.
struct BtreePropertyParam {
  uint32_t page_size;
  uint32_t pad0 = 0;
  size_t key_len_max;  // variable-length random keys up to this length
  int ops;
  int pad1 = 0;
};

class BPlusTreePropertyTest
    : public ::testing::TestWithParam<BtreePropertyParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreePropertyTest,
    ::testing::Values(
        BtreePropertyParam{.page_size = 512, .key_len_max = 8, .ops = 4000},
        BtreePropertyParam{.page_size = 512, .key_len_max = 40, .ops = 3000},
        BtreePropertyParam{.page_size = 1024, .key_len_max = 16, .ops = 4000},
        BtreePropertyParam{.page_size = 4096, .key_len_max = 64, .ops = 4000},
        BtreePropertyParam{.page_size = 4096, .key_len_max = 8, .ops = 6000}),
    [](const auto& info) {
      return "ps" + std::to_string(info.param.page_size) + "_k" +
             std::to_string(info.param.key_len_max);
    });

TEST_P(BPlusTreePropertyTest, MatchesMapOracle) {
  const auto& p = GetParam();
  Harness h(p.page_size, 64);
  auto tree_or = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree_or.ok());
  auto& tree = *tree_or;
  std::map<std::string, uint64_t> oracle;
  Random rng(p.page_size * 31 + p.key_len_max);

  for (int step = 0; step < p.ops; ++step) {
    int op = static_cast<int>(rng.Uniform(10));
    std::string key = rng.NextString(1 + rng.Uniform(p.key_len_max));
    if (op < 5) {  // insert/upsert
      uint64_t v = rng.Next();
      ASSERT_TRUE(tree->Insert(key, v).ok());
      oracle[key] = v;
    } else if (op < 8) {  // remove (existing key half the time)
      if (!oracle.empty() && rng.OneIn(2)) {
        auto it = oracle.begin();
        std::advance(it, rng.Uniform(oracle.size()));
        key = it->first;
      }
      Status s = tree->Remove(key);
      if (oracle.erase(key) > 0) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {  // lookup
      if (!oracle.empty() && rng.OneIn(2)) {
        auto it = oracle.begin();
        std::advance(it, rng.Uniform(oracle.size()));
        key = it->first;
      }
      uint64_t v;
      Status s = tree->Lookup(key, &v);
      auto it = oracle.find(key);
      if (it != oracle.end()) {
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(v, it->second);
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    }
    if (step % 1000 == 999) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "step " << step;
      ASSERT_EQ(*tree->Count(), oracle.size());
    }
  }
  // Final: full ordered scan must equal the oracle exactly.
  auto it = oracle.begin();
  ASSERT_TRUE(tree->Scan([&](const Slice& k, uint64_t v) {
    EXPECT_NE(it, oracle.end());
    EXPECT_EQ(k.ToString(), it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  }).ok());
  EXPECT_EQ(it, oracle.end());
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST(BPlusTreeBulkLoadTest, LoadsAndBehavesLikeInserted) {
  Harness h(1024, 64);
  auto bulk_or = BPlusTree::Open(h.buffers.get(), "bulk");
  auto ref_or = BPlusTree::Open(h.buffers.get(), "ref");
  ASSERT_TRUE(bulk_or.ok());
  ASSERT_TRUE(ref_or.ok());
  std::vector<std::pair<std::string, uint64_t>> entries;
  for (uint32_t i = 0; i < 2000; ++i) {
    entries.emplace_back(EncodeU32Key(i * 3), i);
    ASSERT_TRUE((*ref_or)->Insert(EncodeU32Key(i * 3), i).ok());
  }
  ASSERT_TRUE((*bulk_or)->BulkLoad(entries).ok());
  ASSERT_TRUE((*bulk_or)->CheckInvariants().ok());
  EXPECT_EQ(*(*bulk_or)->Count(), 2000u);
  // Same logical content as the insert-built reference.
  uint64_t v;
  for (uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*bulk_or)->Lookup(EncodeU32Key(i * 3), &v).ok()) << i;
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE((*bulk_or)->Lookup(EncodeU32Key(1), &v).IsNotFound());
  // Packed leaves: bulk tree is not taller than the insert-built one.
  EXPECT_LE(*(*bulk_or)->Height(), *(*ref_or)->Height());
  // Ordered scans agree.
  std::vector<uint32_t> a, b;
  ASSERT_TRUE((*bulk_or)->Scan([&a](const Slice& k, uint64_t) {
    a.push_back(DecodeU32Key(k));
    return true;
  }).ok());
  ASSERT_TRUE((*ref_or)->Scan([&b](const Slice& k, uint64_t) {
    b.push_back(DecodeU32Key(k));
    return true;
  }).ok());
  EXPECT_EQ(a, b);
}

TEST(BPlusTreeBulkLoadTest, MutationsAfterBulkLoadWork) {
  Harness h(512, 64);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  std::vector<std::pair<std::string, uint64_t>> entries;
  for (uint32_t i = 0; i < 500; ++i) entries.emplace_back(EncodeU32Key(i * 2), i);
  ASSERT_TRUE((*tree)->BulkLoad(entries).ok());
  // Insert between loaded keys, delete loaded keys, upsert.
  for (uint32_t i = 0; i < 500; i += 5) {
    ASSERT_TRUE((*tree)->Insert(EncodeU32Key(i * 2 + 1), 9000 + i).ok());
  }
  for (uint32_t i = 0; i < 500; i += 7) {
    ASSERT_TRUE((*tree)->Remove(EncodeU32Key(i * 2)).ok());
  }
  ASSERT_TRUE((*tree)->Insert(EncodeU32Key(4), 777).ok());  // upsert or new
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  uint64_t v;
  ASSERT_TRUE((*tree)->Lookup(EncodeU32Key(4), &v).ok());
  EXPECT_EQ(v, 777u);
}

TEST(BPlusTreeBulkLoadTest, RejectsBadInput) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  // Not ascending.
  EXPECT_TRUE((*tree)
                  ->BulkLoad({{"b", 1}, {"a", 2}})
                  .IsInvalidArgument());
  // Duplicate keys.
  EXPECT_TRUE((*tree)
                  ->BulkLoad({{"a", 1}, {"a", 2}})
                  .IsInvalidArgument());
  // Bad fill factor.
  EXPECT_TRUE((*tree)->BulkLoad({{"a", 1}}, 0.2).IsInvalidArgument());
  // Non-empty tree.
  ASSERT_TRUE((*tree)->Insert("k", 1).ok());
  EXPECT_TRUE((*tree)->BulkLoad({{"a", 1}}).IsInvalidArgument());
}

TEST(BPlusTreeBulkLoadTest, EmptyInputIsNoop) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkLoad({}).ok());
  EXPECT_EQ(*(*tree)->Count(), 0u);
}

TEST(BPlusTreeBulkLoadTest, VariableLengthKeysPackCorrectly) {
  Harness h(512, 64);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  Random rng(3);
  std::map<std::string, uint64_t> oracle;
  while (oracle.size() < 800) {
    oracle.emplace(rng.NextString(1 + rng.Uniform(30)), rng.Next());
  }
  std::vector<std::pair<std::string, uint64_t>> entries(oracle.begin(),
                                                        oracle.end());
  ASSERT_TRUE((*tree)->BulkLoad(entries, 0.8).ok());
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  auto it = oracle.begin();
  ASSERT_TRUE((*tree)->Scan([&](const Slice& k, uint64_t v) {
    EXPECT_EQ(k.ToString(), it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  }).ok());
  EXPECT_EQ(it, oracle.end());
}

// Regression: running out of device storage mid-insert must never orphan
// part of the tree (preemptive splitting makes page allocation the first,
// and only fallible, step of every split). Before the fix, a failed root
// split left the right half of the key space reachable through the leaf
// chain but not through the tree, so range scans rewound to the middle.
TEST(BPlusTreeTest, DeviceFullDuringSplitsLeavesTreeConsistent) {
  auto env = osal::NewMemEnv(64 * 1024);  // tiny device
  osal::DynamicAllocator alloc;
  PageFileOptions opts;
  opts.page_size = 1024;
  auto pf = PageFile::Open(env.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  auto bm = BufferManager::Create(pf->get(), 8, &alloc,
                                  storage::MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm.ok());
  auto tree = BPlusTree::Open(bm->get(), "t");
  ASSERT_TRUE(tree.ok());

  uint32_t n = 0;
  Status s = Status::OK();
  while (s.ok() && n < 100000) {
    s = (*tree)->Insert(EncodeU32Key(n), n);
    if (s.ok()) ++n;
  }
  ASSERT_EQ(s.code(), StatusCode::kResourceExhausted);
  ASSERT_GT(n, 100u);
  // The tree is still fully consistent and complete.
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  EXPECT_EQ(*(*tree)->Count(), n);
  uint64_t v;
  for (uint32_t i = 0; i < n; i += 7) {
    ASSERT_TRUE((*tree)->Lookup(EncodeU32Key(i), &v).ok()) << i;
  }
  // Range scans near the failure point start exactly where they should.
  std::vector<uint32_t> seen;
  ASSERT_TRUE((*tree)
                  ->RangeScan(EncodeU32Key(n - 10), EncodeU32Key(n),
                              [&seen](const Slice& k, uint64_t) {
                                seen.push_back(DecodeU32Key(k));
                                return true;
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), n - 10);
  EXPECT_EQ(seen.back(), n - 1);
  // Removing keys frees pages; inserting then succeeds again.
  for (uint32_t i = 0; i < n / 2; ++i) {
    ASSERT_TRUE((*tree)->Remove(EncodeU32Key(i)).ok());
  }
  EXPECT_TRUE((*tree)->Insert(EncodeU32Key(n), n).ok());
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
}

// ------------------------------------------------------------ ListIndex

TEST(ListIndexTest, BasicOps) {
  Harness h;
  auto idx = ListIndex::Open(h.buffers.get(), "l");
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE((*idx)->Insert("a", 1).ok());
  ASSERT_TRUE((*idx)->Insert("b", 2).ok());
  uint64_t v;
  ASSERT_TRUE((*idx)->Lookup("a", &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE((*idx)->Insert("a", 9).ok());  // upsert
  ASSERT_TRUE((*idx)->Lookup("a", &v).ok());
  EXPECT_EQ(v, 9u);
  ASSERT_TRUE((*idx)->Remove("a").ok());
  EXPECT_TRUE((*idx)->Lookup("a", &v).IsNotFound());
  EXPECT_TRUE((*idx)->Remove("a").IsNotFound());
  EXPECT_FALSE((*idx)->ordered());
}

TEST(ListIndexTest, GrowsAcrossPages) {
  Harness h(512);
  auto idx = ListIndex::Open(h.buffers.get(), "l");
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*idx)->Insert(EncodeU32Key(i), i).ok()) << i;
  }
  EXPECT_EQ(*(*idx)->Count(), 300u);
  uint64_t v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*idx)->Lookup(EncodeU32Key(i), &v).ok());
    EXPECT_EQ(v, static_cast<uint64_t>(i));
  }
}

TEST(ListIndexTest, RangeScanFilters) {
  Harness h;
  auto idx = ListIndex::Open(h.buffers.get(), "l");
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*idx)->Insert(EncodeU32Key(i), i).ok());
  }
  int count = 0;
  ASSERT_TRUE((*idx)
                  ->RangeScan(EncodeU32Key(10), EncodeU32Key(20),
                              [&count](const Slice& k, uint64_t) {
                                uint32_t key = DecodeU32Key(k);
                                EXPECT_GE(key, 10u);
                                EXPECT_LT(key, 20u);
                                ++count;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST(ListIndexTest, PropertyMatchesOracle) {
  Harness h(512);
  auto idx_or = ListIndex::Open(h.buffers.get(), "l");
  ASSERT_TRUE(idx_or.ok());
  auto& idx = *idx_or;
  std::map<std::string, uint64_t> oracle;
  Random rng(99);
  for (int step = 0; step < 800; ++step) {
    std::string key = rng.NextString(1 + rng.Uniform(12));
    if (rng.OneIn(3) && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      key = it->first;
      ASSERT_TRUE(idx->Remove(key).ok());
      oracle.erase(key);
    } else {
      uint64_t v = rng.Next();
      ASSERT_TRUE(idx->Insert(key, v).ok());
      oracle[key] = v;
    }
  }
  EXPECT_EQ(*idx->Count(), oracle.size());
  for (const auto& [k, v] : oracle) {
    uint64_t got;
    ASSERT_TRUE(idx->Lookup(k, &got).ok());
    EXPECT_EQ(got, v);
  }
}

// ------------------------------------------------------------ HashIndex

TEST(HashIndexTest, BasicOps) {
  Harness h;
  auto idx = HashIndex::Open(h.buffers.get(), "h", 16);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE((*idx)->Insert("key1", 11).ok());
  ASSERT_TRUE((*idx)->Insert("key2", 22).ok());
  uint64_t v;
  ASSERT_TRUE((*idx)->Lookup("key1", &v).ok());
  EXPECT_EQ(v, 11u);
  ASSERT_TRUE((*idx)->Insert("key1", 99).ok());
  ASSERT_TRUE((*idx)->Lookup("key1", &v).ok());
  EXPECT_EQ(v, 99u);
  ASSERT_TRUE((*idx)->Remove("key1").ok());
  EXPECT_TRUE((*idx)->Lookup("key1", &v).IsNotFound());
}

TEST(HashIndexTest, RejectsBadBucketCount) {
  Harness h;
  EXPECT_FALSE(HashIndex::Open(h.buffers.get(), "h", 7).ok());
  EXPECT_FALSE(HashIndex::Open(h.buffers.get(), "h", 0).ok());
  EXPECT_FALSE(HashIndex::Open(h.buffers.get(), "h", 65536).ok());
}

TEST(HashIndexTest, ChainsGrowUnderLoad) {
  Harness h(512, 128);
  auto idx = HashIndex::Open(h.buffers.get(), "h", 4);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*idx)->Insert(EncodeU32Key(i), i).ok()) << i;
  }
  EXPECT_EQ(*(*idx)->Count(), 500u);
  EXPECT_GT(*(*idx)->AverageChainLength(), 1.0);
  uint64_t v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*idx)->Lookup(EncodeU32Key(i), &v).ok());
    EXPECT_EQ(v, static_cast<uint64_t>(i));
  }
}

TEST(HashIndexTest, PersistsAcrossReopen) {
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  {
    auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
    ASSERT_TRUE(pf.ok());
    auto bm = BufferManager::Create(pf->get(), 32, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    ASSERT_TRUE(bm.ok());
    auto idx = HashIndex::Open(bm->get(), "h", 8);
    ASSERT_TRUE(idx.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*idx)->Insert(EncodeU32Key(i), i).ok());
    }
    ASSERT_TRUE((*bm)->Checkpoint().ok());
  }
  auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
  ASSERT_TRUE(pf.ok());
  auto bm = BufferManager::Create(pf->get(), 32, &alloc,
                                  storage::MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm.ok());
  auto idx = HashIndex::Open(bm->get(), "h", 999 /* ignored */);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->bucket_count(), 8u);
  uint64_t v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*idx)->Lookup(EncodeU32Key(i), &v).ok());
    EXPECT_EQ(v, static_cast<uint64_t>(i));
  }
}

TEST(HashIndexTest, PropertyMatchesOracle) {
  Harness h(1024, 64);
  auto idx_or = HashIndex::Open(h.buffers.get(), "h", 16);
  ASSERT_TRUE(idx_or.ok());
  auto& idx = *idx_or;
  std::map<std::string, uint64_t> oracle;
  Random rng(123);
  for (int step = 0; step < 2000; ++step) {
    std::string key = rng.NextString(1 + rng.Uniform(20));
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      key = it->first;
      ASSERT_TRUE(idx->Remove(key).ok());
      oracle.erase(key);
    } else {
      uint64_t v = rng.Next();
      ASSERT_TRUE(idx->Insert(key, v).ok());
      oracle[key] = v;
    }
  }
  EXPECT_EQ(*idx->Count(), oracle.size());
  uint64_t scanned = 0;
  ASSERT_TRUE(idx->Scan([&](const Slice& k, uint64_t v) {
    auto it = oracle.find(k.ToString());
    EXPECT_NE(it, oracle.end());
    EXPECT_EQ(v, it->second);
    ++scanned;
    return true;
  }).ok());
  EXPECT_EQ(scanned, oracle.size());
}

// ------------------------------------------------------------ QueueAM

TEST(QueueTest, FifoOrder) {
  Harness h;
  auto q = QueueAM::Open(h.buffers.get(), "q", 16);
  ASSERT_TRUE(q.ok());
  for (int i = 0; i < 10; ++i) {
    std::string rec(16, static_cast<char>('a' + i));
    auto recno = (*q)->Enqueue(rec);
    ASSERT_TRUE(recno.ok());
    EXPECT_EQ(*recno, static_cast<uint64_t>(i));
  }
  EXPECT_EQ((*q)->Size(), 10u);
  for (int i = 0; i < 10; ++i) {
    std::string out;
    ASSERT_TRUE((*q)->Dequeue(&out).ok());
    EXPECT_EQ(out, std::string(16, static_cast<char>('a' + i)));
  }
  std::string out;
  EXPECT_TRUE((*q)->Dequeue(&out).IsNotFound());
}

TEST(QueueTest, RejectsWrongRecordSize) {
  Harness h;
  auto q = QueueAM::Open(h.buffers.get(), "q", 16);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE((*q)->Enqueue("short").ok());
  EXPECT_FALSE((*q)->Enqueue(std::string(17, 'x')).ok());
}

TEST(QueueTest, RandomAccessByRecno) {
  Harness h;
  auto q = QueueAM::Open(h.buffers.get(), "q", 8);
  ASSERT_TRUE(q.ok());
  for (int i = 0; i < 5; ++i) {
    std::string rec = "rec" + std::to_string(i) + "xxxx";
    rec.resize(8);
    ASSERT_TRUE((*q)->Enqueue(rec).ok());
  }
  std::string out;
  ASSERT_TRUE((*q)->Get(3, &out).ok());
  EXPECT_EQ(out.substr(0, 4), "rec3");
  // Dequeue advances the head; old recnos die.
  ASSERT_TRUE((*q)->Dequeue(&out).ok());
  EXPECT_TRUE((*q)->Get(0, &out).IsNotFound());
  ASSERT_TRUE((*q)->Get(4, &out).ok());
  EXPECT_TRUE((*q)->Get(5, &out).IsNotFound());  // beyond tail
}

TEST(QueueTest, SpansManyPagesAndFreesConsumed) {
  Harness h(512);
  auto q = QueueAM::Open(h.buffers.get(), "q", 64);
  ASSERT_TRUE(q.ok());
  const int n = 200;  // 64-byte records, ~7 per 512-byte page
  for (int i = 0; i < n; ++i) {
    std::string rec(64, static_cast<char>('0' + (i % 10)));
    ASSERT_TRUE((*q)->Enqueue(rec).ok());
  }
  uint32_t pages_at_peak = h.file->page_count();
  std::string out;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*q)->Dequeue(&out).ok()) << i;
    ASSERT_EQ(out, std::string(64, static_cast<char>('0' + (i % 10))));
  }
  EXPECT_EQ((*q)->Size(), 0u);
  // Consumed pages were returned to the free list.
  EXPECT_GT(*h.file->CountFreePages(), 10u);
  EXPECT_EQ(h.file->page_count(), pages_at_peak);  // no further growth
}

TEST(QueueTest, PersistsAcrossReopen) {
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  {
    auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
    ASSERT_TRUE(pf.ok());
    auto bm = BufferManager::Create(pf->get(), 16, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    ASSERT_TRUE(bm.ok());
    auto q = QueueAM::Open(bm->get(), "q", 8);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE((*q)->Enqueue("01234567").ok());
    ASSERT_TRUE((*q)->Enqueue("abcdefgh").ok());
    std::string out;
    ASSERT_TRUE((*q)->Dequeue(&out).ok());
    ASSERT_TRUE((*bm)->Checkpoint().ok());
  }
  auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
  ASSERT_TRUE(pf.ok());
  auto bm = BufferManager::Create(pf->get(), 16, &alloc,
                                  storage::MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm.ok());
  auto q = QueueAM::Open(bm->get(), "q", 8);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->Size(), 1u);
  EXPECT_EQ((*q)->head_recno(), 1u);
  std::string out;
  ASSERT_TRUE((*q)->Dequeue(&out).ok());
  EXPECT_EQ(out, "abcdefgh");
  // Mismatched record size on reopen is rejected.
  EXPECT_FALSE(QueueAM::Open(bm->get(), "q", 16).ok());
}

// ------------------------------------------------------------ key encoding

TEST(KeyEncodingTest, U32OrderPreserved) {
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Next());
    uint32_t b = static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(a < b, Slice(EncodeU32Key(a)).compare(EncodeU32Key(b)) < 0);
    EXPECT_EQ(DecodeU32Key(EncodeU32Key(a)), a);
  }
}

TEST(KeyEncodingTest, I64OrderPreservedAcrossSign) {
  const int64_t values[] = {INT64_MIN, -1000000, -1, 0, 1, 42, INT64_MAX};
  for (int64_t a : values) {
    EXPECT_EQ(DecodeI64Key(EncodeI64Key(a)), a);
    for (int64_t b : values) {
      EXPECT_EQ(a < b, Slice(EncodeI64Key(a)).compare(EncodeI64Key(b)) < 0)
          << a << " vs " << b;
    }
  }
}

TEST(KeyEncodingTest, I32RoundTrip) {
  const int32_t values[] = {INT32_MIN, -7, 0, 7, INT32_MAX};
  for (int32_t a : values) {
    EXPECT_EQ(DecodeI32Key(EncodeI32Key(a)), a);
  }
}

}  // namespace
}  // namespace fame::index
