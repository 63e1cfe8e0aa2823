// Tests for the slab memory path: property tests of the arena allocators
// against a shadow oracle, multi-threaded stress of the sharded pool's
// remote-free protocol (run under TSan in CI), the pooled-object thread
// cache behind cursor/transaction operator new, and the
// zero-heap-after-init guarantee of Memory-Alloc:Static products.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/static_engine.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/slab_alloc.h"
#include "osal/slab_alloc_mt.h"

// ---------------------------------------------------------------------------
// Global heap probe for the zero-heap test: every plain operator new in this
// binary bumps a counter. The nothrow form is replaced too, uncounted, so
// both forms allocate with malloc and every delete below frees with free:
// left to the runtime's own nothrow new (a sanitizer's, say), a nothrow
// allocation freed through the plain delete would pair two allocators. The
// aligned forms keep their default behaviour — the engine's Static
// products never reach them after init, which is the point.
static std::atomic<uint64_t> g_heap_news{0};

void* operator new(size_t n) {
  g_heap_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n ? n : 1);
}
// The replacement pair is malloc/free-backed on both sides; GCC can't see
// that and warns about free() on a new'ed pointer.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fame::osal::slab {
namespace {

// ---------------------------------------------------------------------------
// Property test: random alloc/free traffic checked against an interval
// oracle. Verifies the three invariants every Allocator must keep — blocks
// never overlap, every block satisfies the alignment contract, and (for the
// static-slab arena, whose charge function is public) bytes_in_use is
// exactly the sum of charged sizes.

struct Oracle {
  // live intervals keyed by start address
  std::map<uintptr_t, size_t> blocks;

  void Insert(void* p, size_t n) {
    auto addr = reinterpret_cast<uintptr_t>(p);
    auto next = blocks.lower_bound(addr);
    if (next != blocks.end()) {
      ASSERT_LE(addr + n, next->first) << "overlaps successor";
    }
    if (next != blocks.begin()) {
      auto prev = std::prev(next);
      ASSERT_LE(prev->first + prev->second, addr) << "overlaps predecessor";
    }
    blocks.emplace(addr, n);
  }
};

void RunPropertyTraffic(Allocator* a, bool exact_accounting, uint32_t seed) {
  std::mt19937 rng(seed);
  Oracle oracle;
  std::vector<std::pair<void*, size_t>> live;
  size_t charged = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const bool do_alloc = live.empty() || (rng() % 100) < 55;
    if (do_alloc) {
      // Mostly small-class sizes with an occasional large block.
      size_t n = (rng() % 100) < 90 ? 1 + rng() % kMaxSmall
                                    : kMaxSmall + 1 + rng() % 4096;
      void* p = a->Allocate(n);
      if (p == nullptr) continue;  // arena full — keep freeing
      ASSERT_TRUE(IsContractAligned(p)) << a->name() << " size " << n;
      ASSERT_NO_FATAL_FAILURE(oracle.Insert(p, n));
      live.emplace_back(p, n);
      charged += StaticSlabAllocator::ChargedSize(n);
    } else {
      size_t i = rng() % live.size();
      auto [p, n] = live[i];
      live[i] = live.back();
      live.pop_back();
      oracle.blocks.erase(reinterpret_cast<uintptr_t>(p));
      a->Deallocate(p, n);
      charged -= StaticSlabAllocator::ChargedSize(n);
    }
    if (exact_accounting) {
      ASSERT_EQ(a->bytes_in_use(), charged) << "iter " << iter;
    }
  }
  for (auto [p, n] : live) a->Deallocate(p, n);
  EXPECT_EQ(a->bytes_in_use(), 0u) << a->name();
}

TEST(AllocPropertyTest, StaticSlabAgainstOracle) {
  StaticSlabAllocator arena(512 * 1024);
  RunPropertyTraffic(&arena, /*exact_accounting=*/true, /*seed=*/0xf00d);
  // Everything freed: the arena must still be able to serve allocations
  // (segregated classes don't coalesce, so the probe reports the best of
  // the bump gap, the large free list, and the class freelists).
  EXPECT_GT(arena.LargestFreeBlock(), 0u);
}

TEST(AllocPropertyTest, StaticPoolAgainstOracle) {
  StaticPoolAllocator pool(512 * 1024);
  RunPropertyTraffic(&pool, /*exact_accounting=*/false, /*seed=*/0xbeef);
}

TEST(AllocPropertyTest, SlabPoolAgainstOracle) {
  SlabPool pool;
  RunPropertyTraffic(&pool, /*exact_accounting=*/false, /*seed=*/0xcafe);
}

// ---------------------------------------------------------------------------
// StaticSlabAllocator specifics.

TEST(StaticSlabTest, ExhaustionReturnsNullNotThrow) {
  StaticSlabAllocator arena(8 * 1024);
  std::vector<void*> blocks;
  void* p;
  while ((p = arena.Allocate(1024)) != nullptr) blocks.push_back(p);
  EXPECT_EQ(blocks.size(), 8u);  // headerless: the full budget is usable
  EXPECT_EQ(arena.Allocate(16), nullptr);
  for (void* b : blocks) arena.Deallocate(b, 1024);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Freed small blocks recycle through their class freelist (segregated
  // fit never coalesces them back into the bump gap), so the biggest
  // satisfiable request is one class block.
  EXPECT_EQ(arena.LargestFreeBlock(), 1024u);
  void* again = arena.Allocate(1024);
  EXPECT_NE(again, nullptr);
  arena.Deallocate(again, 1024);
}

TEST(StaticSlabTest, ExactFitLargeCarve) {
  // The Database Static default: 64 frames x 4096 = the whole 256 KiB pool.
  // The old first-fit pool lost this to per-block headers.
  StaticSlabAllocator arena(256 * 1024);
  void* frames = arena.Allocate(256 * 1024);
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(arena.bytes_in_use(), 256u * 1024);
  arena.Deallocate(frames, 256 * 1024);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(StaticSlabTest, LargeBlocksRecycle) {
  StaticSlabAllocator arena(64 * 1024);
  void* a = arena.Allocate(10000);
  void* b = arena.Allocate(10000);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  arena.Deallocate(a, 10000);
  void* c = arena.Allocate(9000);  // must fit in the recycled hole
  ASSERT_NE(c, nullptr);
  arena.Deallocate(b, 10000);
  arena.Deallocate(c, 9000);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(StaticSlabTest, SmallClassFreelistReuse) {
  StaticSlabAllocator arena(16 * 1024);
  void* a = arena.Allocate(100);  // class 96? no: 100 -> 128
  ASSERT_NE(a, nullptr);
  arena.Deallocate(a, 100);
  void* b = arena.Allocate(120);  // same class -> must reuse the block
  EXPECT_EQ(b, a);
  arena.Deallocate(b, 120);
}

TEST(StaticSlabTest, ExternalArena) {
  alignas(std::max_align_t) static char buf[4096];
  StaticSlabAllocator arena(buf, sizeof(buf));
  void* p = arena.Allocate(64);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(p, static_cast<void*>(buf));
  EXPECT_LT(p, static_cast<void*>(buf + sizeof(buf)));
  arena.Deallocate(p, 64);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(StaticSlabTest, PeakTracksHighWater) {
  StaticSlabAllocator arena(16 * 1024);
  void* a = arena.Allocate(1024);
  void* b = arena.Allocate(2048);
  const size_t high = arena.bytes_in_use();
  arena.Deallocate(a, 1024);
  AllocStats st = arena.stats();
  EXPECT_EQ(st.peak_bytes, high);
  EXPECT_LT(st.live_bytes, high);
  arena.Deallocate(b, 2048);
}

// ---------------------------------------------------------------------------
// Sharded pool: single-threaded instantiation.

TEST(SlabPoolTest, SingleThreadedRoundTrip) {
  SlabPool pool;
  EXPECT_EQ(pool.shard_count(), 1u);
  std::vector<void*> blocks;
  for (size_t n : {8u, 100u, 512u, 1024u, 5000u}) {
    void* p = pool.Allocate(n);
    ASSERT_NE(p, nullptr);
    blocks.push_back(p);
  }
  EXPECT_GT(pool.bytes_in_use(), 0u);
  size_t sizes[] = {8, 100, 512, 1024, 5000};
  for (size_t i = 0; i < blocks.size(); ++i) {
    pool.Deallocate(blocks[i], sizes[i]);
  }
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  AllocStats st = pool.stats();
  EXPECT_EQ(st.remote_frees, 0u);  // ST policy has no remote path
  EXPECT_GT(st.peak_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Sharded pool: concurrent instantiation with forced cross-thread frees.
// Each thread allocates into its slot and frees the *previous* thread's
// blocks, so (almost) every free crosses shards and exercises the MPSC
// remote stack. Run under TSan in the sanitizer CI job.

TEST(ConcurrentSlabTest, CrossThreadFreeStormSettlesToZero) {
  ConcurrentSlabPool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  constexpr int kBlocksPerRound = 64;
  struct Slot {
    std::mutex mu;
    std::vector<std::pair<void*, size_t>> blocks;
  };
  std::vector<Slot> slots(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) * 7919u + 1);
      for (int r = 0; r < kRounds; ++r) {
        // Produce into our own slot...
        std::vector<std::pair<void*, size_t>> mine;
        mine.reserve(kBlocksPerRound);
        for (int i = 0; i < kBlocksPerRound; ++i) {
          size_t n = 1 + rng() % kMaxSmall;
          void* p = pool.Allocate(n);
          ASSERT_NE(p, nullptr);
          mine.emplace_back(p, n);
        }
        {
          std::lock_guard<std::mutex> l(slots[t].mu);
          for (auto& b : mine) slots[t].blocks.push_back(b);
        }
        // ...and consume (free) from the previous thread's slot.
        Slot& prev = slots[(t + kThreads - 1) % kThreads];
        std::vector<std::pair<void*, size_t>> stolen;
        {
          std::lock_guard<std::mutex> l(prev.mu);
          stolen.swap(prev.blocks);
        }
        for (auto [p, n] : stolen) pool.Deallocate(p, n);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& s : slots) {
    for (auto [p, n] : s.blocks) pool.Deallocate(p, n);
  }
  // Blocks parked on remote stacks still count as live; settle them.
  pool.DrainRemote();
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  AllocStats st = pool.stats();
  EXPECT_GT(st.remote_frees, 0u) << "storm never crossed a shard";
  EXPECT_GT(st.peak_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Pooled object cache (cursor/transaction operator new).

TEST(PooledObjectTest, SameThreadChurnHitsCache) {
  // Warm one block of this size class into the cache...
  void* p = PooledNew(64);
  PooledDelete(p, 64);
  ThreadCacheStats before = PooledThreadStats();
  // ...then churn: every round trips the freelist, zero heap traffic.
  for (int i = 0; i < 100; ++i) {
    void* q = PooledNew(64);
    ASSERT_NE(q, nullptr);
    PooledDelete(q, 64);
  }
  ThreadCacheStats after = PooledThreadStats();
  EXPECT_GE(after.hits - before.hits, 100u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.live_blocks, before.live_blocks);
}

TEST(PooledObjectTest, CrossThreadFreeFallsBackToHeap) {
  uint64_t before = PooledCrossThreadFrees();
  void* p = PooledNew(128);
  std::thread t([p] { PooledDelete(p, 128); });
  t.join();
  EXPECT_EQ(PooledCrossThreadFrees(), before + 1);
}

TEST(PooledObjectTest, UnsizedDeleteRoutesByHeader) {
  void* p = PooledNew(200);
  PooledDelete(p);  // header carries the class
  ThreadCacheStats st = PooledThreadStats();
  EXPECT_GT(st.returns, 0u);
}

// ---------------------------------------------------------------------------
// Zero-heap-after-init: a Memory-Alloc:Static product runs a full engine
// workload without a single plain operator new once caches are warm. The
// warm-up pass takes every lazy allocation (slab carves in the arena are
// not heap; pooled cursor blocks, WAL/file growth, string capacity are
// heap and must reach steady state); the measured pass repeats the exact
// same traffic and must leave the global new-counter untouched.

struct StaticCfg {
  using IndexTag = fame::core::BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = false;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = false;
  static constexpr bool kForceCommit = false;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 512;
  static constexpr size_t kBufferFrames = 16;
  static constexpr size_t kStaticPoolBytes = 64 * 1024;
};

TEST(ZeroHeapTest, StaticProductSteadyStateAllocatesNothing) {
  auto env = fame::osal::NewMemEnv(0);
  fame::core::StaticEngine<StaticCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "zeroheap.db").ok());

  std::string value;
  value.reserve(64);
  auto pass = [&db, &value] {
    char key[16];
    for (int i = 0; i < 64; ++i) {
      int klen = std::snprintf(key, sizeof(key), "k%03d", i);
      // Overwrites of same-size values: no page growth, no splits after
      // the first pass. Value is SSO-sized so Get never grows the string.
      ASSERT_TRUE(db.Put(fame::Slice(key, static_cast<size_t>(klen)),
                         fame::Slice("v0123456789"))
                      .ok());
    }
    for (int i = 0; i < 64; ++i) {
      int klen = std::snprintf(key, sizeof(key), "k%03d", i);
      ASSERT_TRUE(
          db.Get(fame::Slice(key, static_cast<size_t>(klen)), &value).ok());
    }
    uint64_t rows = 0;
    ASSERT_TRUE(db.Scan([&rows](const fame::Slice&, const fame::Slice&) {
                    ++rows;
                    return true;
                  }).ok());
    ASSERT_EQ(rows, 64u);
  };

  // Two warm-up passes: the first takes the structural allocations (page
  // file growth, cursor pool fill), the second proves the op sequence
  // itself is repeatable before we start counting.
  ASSERT_NO_FATAL_FAILURE(pass());
  ASSERT_NO_FATAL_FAILURE(pass());

  const uint64_t before = g_heap_news.load(std::memory_order_relaxed);
  ASSERT_NO_FATAL_FAILURE(pass());
  const uint64_t after = g_heap_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "Static product touched the heap " << (after - before)
      << " times in steady state";

  // And the engine really is running on the static arena.
  EXPECT_STREQ(db.allocator()->name(), "static-slab");
  EXPECT_GT(db.allocator()->bytes_in_use(), 0u);
}

}  // namespace
}  // namespace fame::osal::slab
