// Micro-benchmarks (google-benchmark) for the storage substrate: slotted
// page operations, the page checksum, record-heap inserts past full pages and
// buffer-manager behaviour under the replacement alternatives (LRU vs LFU vs
// Clock) at varying skew.
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/random.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "storage/buffer.h"
#include "storage/pagefile.h"
#include "storage/record.h"

namespace fame::storage {
namespace {

void BM_PageInsert(benchmark::State& state) {
  std::string buf(4096, 0);
  Page page(buf.data(), buf.size());
  std::string rec(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    page.Init(PageType::kHeap);
    while (page.Insert(rec).ok()) {
    }
  }
  state.SetLabel(std::to_string(state.range(0)) + "B records");
}
BENCHMARK(BM_PageInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_PageChecksum(benchmark::State& state) {
  std::string buf(4096, 0);
  Page page(buf.data(), buf.size());
  page.Init(PageType::kHeap);
  while (page.Insert("some record data").ok()) {
  }
  for (auto _ : state) {
    page.SealChecksum();
    benchmark::DoNotOptimize(page.VerifyChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_PageChecksum);

/// CRC-32 throughput of one implementation: the portable slice-by-8 code, or
/// the dispatched entry point (PCLMULQDQ folding on CPUs that have it).
void BM_Crc32(benchmark::State& state,
              uint32_t (*crc)(uint32_t, const void*, size_t)) {
  std::string buf(static_cast<size_t>(state.range(0)), 0);
  Random rng(5);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(0, buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32, portable, &fame::internal::Crc32ExtendPortable)
    ->Arg(64)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_Crc32, dispatched, &Crc32Extend)->Arg(64)->Arg(4096);

/// One record-heap insert behind `range(0)` full pages: the placement rule
/// must pass over all of them to reach the one page with room. The record
/// is deleted again in the same iteration, so the heap keeps its shape. The
/// pool holds every page, so the time is the search itself, not page reads;
/// it should not grow with the number of full pages.
void BM_HeapInsert(benchmark::State& state) {
  const int full_pages = static_cast<int>(state.range(0));
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  auto file = PageFile::Open(env.get(), "db", PageFileOptions{});
  if (!file.ok()) {
    state.SkipWithError("page file open failed");
    return;
  }
  auto bm = BufferManager::Create(file->get(), 2 * full_pages + 16, &alloc,
                                  MakeReplacementPolicy("lru"));
  if (!bm.ok()) {
    state.SkipWithError("buffer manager create failed");
    return;
  }
  auto heap = RecordManager::Open(bm->get(), "bench");
  if (!heap.ok()) {
    state.SkipWithError("heap open failed");
    return;
  }
  // Four 1000-byte records fill a 4 KiB page; one more appends the page
  // with room, and deleting it leaves that page empty.
  const std::string rec(1000, 'h');
  for (int i = 0; i <= 4 * full_pages; ++i) {
    auto rid = (*heap)->Insert(rec);
    if (!rid.ok() || (i == 4 * full_pages && !(*heap)->Delete(*rid).ok())) {
      state.SkipWithError("heap fill failed");
      return;
    }
  }
  for (auto _ : state) {
    auto rid = (*heap)->Insert(rec);
    if (!rid.ok() || !(*heap)->Delete(*rid).ok()) {
      state.SkipWithError("insert/delete failed");
      break;
    }
    benchmark::DoNotOptimize(rid);
  }
  state.SetLabel(std::to_string(full_pages) + " full pages, insert+delete");
}
BENCHMARK(BM_HeapInsert)->Arg(16)->Arg(256);

/// Buffer pool of 64 frames over 512 pages, point fetches with Zipf-ish
/// skew; reports the hit rate per policy.
void BM_BufferFetchSkewed(benchmark::State& state) {
  const char* policies[] = {"lru", "lfu", "clock"};
  const char* policy = policies[state.range(0)];
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  auto file = PageFile::Open(env.get(), "db", PageFileOptions{});
  if (!file.ok()) {
    state.SkipWithError("page file open failed");
    return;
  }
  auto bm = BufferManager::Create(file->get(), 64, &alloc,
                                  MakeReplacementPolicy(policy));
  if (!bm.ok()) {
    state.SkipWithError("buffer manager create failed");
    return;
  }
  std::vector<PageId> pages;
  for (int i = 0; i < 512; ++i) {
    auto guard = (*bm)->New(PageType::kHeap);
    if (!guard.ok()) {
      state.SkipWithError("page alloc failed");
      return;
    }
    pages.push_back(guard->id());
  }
  Random rng(99);
  (*bm)->ResetStats();
  for (auto _ : state) {
    auto guard = (*bm)->Fetch(pages[rng.Skewed(pages.size())]);
    benchmark::DoNotOptimize(guard);
  }
  state.SetLabel(std::string(policy) + " hit-rate=" +
                 std::to_string((*bm)->stats().HitRate()));
}
BENCHMARK(BM_BufferFetchSkewed)->Arg(0)->Arg(1)->Arg(2);

void BM_StaticPoolVsMalloc(benchmark::State& state) {
  bool use_pool = state.range(0) == 1;
  osal::StaticPoolAllocator pool(1 << 20);
  osal::DynamicAllocator heap;
  osal::Allocator* alloc =
      use_pool ? static_cast<osal::Allocator*>(&pool) : &heap;
  for (auto _ : state) {
    void* a = alloc->Allocate(256);
    void* b = alloc->Allocate(1024);
    alloc->Deallocate(a, 256);
    alloc->Deallocate(b, 1024);
  }
  state.SetLabel(use_pool ? "static pool" : "heap");
}
BENCHMARK(BM_StaticPoolVsMalloc)->Arg(0)->Arg(1);

}  // namespace
}  // namespace fame::storage

BENCHMARK_MAIN();
