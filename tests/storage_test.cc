// Unit and property tests for the storage manager: slotted pages, page
// file, buffer manager with each replacement policy, record manager.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/fault_env.h"
#include "storage/buffer.h"
#include "storage/pagefile.h"
#include "storage/record.h"

namespace fame::storage {
namespace {

// ------------------------------------------------------------ Page

class PageTest : public ::testing::Test {
 protected:
  PageTest() : buf_(4096, 0), page_(buf_.data(), buf_.size()) {
    page_.Init(PageType::kHeap);
  }
  std::string buf_;
  Page page_;
};

TEST_F(PageTest, InitEmpty) {
  EXPECT_EQ(page_.type(), PageType::kHeap);
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.LiveRecords(), 0);
  EXPECT_EQ(page_.next_page(), kInvalidPageId);
  EXPECT_GT(page_.FreeSpace(), 4000u);
}

TEST_F(PageTest, InsertGetRoundTrip) {
  auto s1 = page_.Insert("alpha");
  auto s2 = page_.Insert("beta");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(page_.Get(*s1)->ToString(), "alpha");
  EXPECT_EQ(page_.Get(*s2)->ToString(), "beta");
  EXPECT_EQ(page_.LiveRecords(), 2);
}

TEST_F(PageTest, DeleteThenGetFails) {
  auto s = page_.Insert("x");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(page_.Delete(*s).ok());
  EXPECT_TRUE(page_.Get(*s).status().IsNotFound());
  EXPECT_TRUE(page_.Delete(*s).IsNotFound());  // idempotent-ish
}

TEST_F(PageTest, SlotReuseAfterDelete) {
  auto s1 = page_.Insert("one");
  ASSERT_TRUE(s1.ok());
  auto s2 = page_.Insert("two");
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(page_.Delete(*s1).ok());
  auto s3 = page_.Insert("three");
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(*s3, *s1);  // dead slot recycled
  EXPECT_EQ(page_.Get(*s3)->ToString(), "three");
}

TEST_F(PageTest, UpdateInPlaceAndGrow) {
  auto s = page_.Insert("short");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(page_.Update(*s, "tiny").ok());  // shrink
  EXPECT_EQ(page_.Get(*s)->ToString(), "tiny");
  std::string big(300, 'z');
  ASSERT_TRUE(page_.Update(*s, big).ok());  // grow (moves within page)
  EXPECT_EQ(page_.Get(*s)->ToString(), big);
}

TEST_F(PageTest, FillUntilFullThenCompactionRecovers) {
  std::vector<uint16_t> slots;
  std::string rec(100, 'r');
  while (true) {
    auto s = page_.Insert(rec);
    if (!s.ok()) {
      EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    slots.push_back(*s);
  }
  ASSERT_GT(slots.size(), 30u);
  // Delete every other record; inserting a larger record then requires
  // compaction of the fragmented free space.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Delete(slots[i]).ok());
  }
  std::string big(150, 'B');
  auto s = page_.Insert(big);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(page_.Get(*s)->ToString(), big);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(page_.Get(slots[i])->ToString(), rec);
  }
}

TEST_F(PageTest, ChecksumDetectsCorruption) {
  ASSERT_TRUE(page_.Insert("guarded").ok());
  page_.SealChecksum();
  EXPECT_TRUE(page_.VerifyChecksum().ok());
  buf_[2000] ^= 0x01;  // flip a bit in the record area
  EXPECT_TRUE(page_.VerifyChecksum().IsCorruption());
  buf_[2000] ^= 0x01;
  EXPECT_TRUE(page_.VerifyChecksum().ok());
}

TEST_F(PageTest, VerifyChecksumReadsReadOnlyMemory) {
  // Verification must not write to the page: a sealed page mapped
  // read-only (e.g. a file image) verifies, and a damaged one is rejected.
  ASSERT_TRUE(page_.Insert("sealed").ok());
  page_.SealChecksum();
  std::string damaged = buf_;
  damaged[2000] ^= 0x01;
  for (const std::string* image : {&buf_, &damaged}) {
    void* mem = mmap(nullptr, image->size(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(mem, MAP_FAILED);
    std::memcpy(mem, image->data(), image->size());
    ASSERT_EQ(mprotect(mem, image->size(), PROT_READ), 0);
    const Page ro(static_cast<char*>(mem), image->size());
    Status s = ro.VerifyChecksum();
    EXPECT_EQ(s.ok(), image == &buf_) << s.ToString();
    munmap(mem, image->size());
  }
}

TEST_F(PageTest, RejectsOversizeRecord) {
  std::string big(70000, 'x');
  Page page(buf_.data(), buf_.size());
  EXPECT_TRUE(page.Insert(big).status().IsInvalidArgument());
}

// Property: random insert/delete/update churn against a std::map oracle.
TEST_F(PageTest, RandomChurnMatchesOracle) {
  Random rng(2024);
  std::map<uint16_t, std::string> oracle;
  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      std::string rec = rng.NextString(1 + rng.Uniform(60));
      auto s = page_.Insert(rec);
      if (s.ok()) {
        ASSERT_EQ(oracle.count(*s), 0u);
        oracle[*s] = rec;
      }
    } else if (op == 1 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      ASSERT_TRUE(page_.Delete(it->first).ok());
      oracle.erase(it);
    } else if (op == 2 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      std::string rec = rng.NextString(1 + rng.Uniform(80));
      if (page_.Update(it->first, rec).ok()) it->second = rec;
    }
    if (step % 500 == 0) {
      for (const auto& [slot, rec] : oracle) {
        auto got = page_.Get(slot);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->ToString(), rec);
      }
      ASSERT_EQ(page_.LiveRecords(), oracle.size());
    }
  }
}

// ------------------------------------------------------------ PageFile

class PageFileTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = osal::NewMemEnv(0); }
  std::unique_ptr<osal::Env> env_;
};

TEST_F(PageFileTest, CreateAndReopen) {
  PageFileOptions opts;
  {
    auto pf = PageFile::Open(env_.get(), "db", opts);
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    auto id = (*pf)->AllocatePage();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, PageFile::kFirstDataPage);
    ASSERT_TRUE((*pf)->SetRoot("main", *id, 77).ok());
    ASSERT_TRUE((*pf)->Sync().ok());
  }
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ((*pf)->page_count(), PageFile::kFirstDataPage + 1);
  EXPECT_EQ(*(*pf)->GetRoot("main"), PageFile::kFirstDataPage);
  EXPECT_EQ(*(*pf)->GetRootAux("main"), 77u);
  EXPECT_TRUE((*pf)->GetRoot("absent").status().IsNotFound());
}

TEST_F(PageFileTest, RejectsBadPageSize) {
  PageFileOptions opts;
  opts.page_size = 1000;  // not a power of two
  EXPECT_FALSE(PageFile::Open(env_.get(), "x", opts).ok());
  opts.page_size = 256;  // too small
  EXPECT_FALSE(PageFile::Open(env_.get(), "x", opts).ok());
}

TEST_F(PageFileTest, RejectsPageSizeMismatchOnReopen) {
  PageFileOptions opts;
  ASSERT_TRUE(PageFile::Open(env_.get(), "db", opts).ok());
  opts.page_size = 8192;
  EXPECT_FALSE(PageFile::Open(env_.get(), "db", opts).ok());
}

TEST_F(PageFileTest, RejectsForeignFile) {
  ASSERT_TRUE(env_->WriteStringToFile("junk", std::string(8192, 'j')).ok());
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "junk", opts);
  EXPECT_FALSE(pf.ok());
  EXPECT_EQ(pf.status().code(), StatusCode::kCorruption);
}

TEST_F(PageFileTest, WriteReadPageRoundTrip) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  auto id = (*pf)->AllocatePage();
  ASSERT_TRUE(id.ok());
  std::vector<char> buf(opts.page_size, 0);
  Page page(buf.data(), buf.size());
  page.Init(PageType::kHeap);
  ASSERT_TRUE(page.Insert("persisted").ok());
  ASSERT_TRUE((*pf)->WritePage(*id, buf.data()).ok());
  std::vector<char> readback(opts.page_size, 0);
  ASSERT_TRUE((*pf)->ReadPage(*id, readback.data()).ok());
  Page got(readback.data(), readback.size());
  EXPECT_EQ(got.Get(0)->ToString(), "persisted");
}

TEST_F(PageFileTest, ChecksumVerifiedOnRead) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  auto id = (*pf)->AllocatePage();
  ASSERT_TRUE(id.ok());
  std::vector<char> buf(opts.page_size, 0);
  Page page(buf.data(), buf.size());
  page.Init(PageType::kHeap);
  ASSERT_TRUE((*pf)->WritePage(*id, buf.data()).ok());
  // Corrupt the stored page behind the page file's back.
  auto raw = env_->OpenFile("db", false);
  ASSERT_TRUE(raw.ok());
  uint64_t off = static_cast<uint64_t>(*id) * opts.page_size + 100;
  ASSERT_TRUE((*raw)->Write(off, "X").ok());
  std::vector<char> readback(opts.page_size);
  EXPECT_TRUE((*pf)->ReadPage(*id, readback.data()).IsCorruption());
}

TEST_F(PageFileTest, FreeListRecyclesPages) {
  PageFileOptions opts;
  auto pf_or = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf_or.ok());
  auto& pf = *pf_or;
  PageId a = *pf->AllocatePage();
  PageId b = *pf->AllocatePage();
  PageId c = *pf->AllocatePage();
  EXPECT_EQ(pf->page_count(), PageFile::kFirstDataPage + 3);
  ASSERT_TRUE(pf->FreePage(b).ok());
  ASSERT_TRUE(pf->FreePage(a).ok());
  EXPECT_EQ(*pf->CountFreePages(), 2u);
  // LIFO reuse, no file growth.
  EXPECT_EQ(*pf->AllocatePage(), a);
  EXPECT_EQ(*pf->AllocatePage(), b);
  EXPECT_EQ(pf->page_count(), PageFile::kFirstDataPage + 3);
  EXPECT_EQ(*pf->CountFreePages(), 0u);
  (void)c;
}

TEST_F(PageFileTest, CannotFreeMetaOrInvalid) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  EXPECT_FALSE((*pf)->FreePage(0).ok());
  EXPECT_FALSE((*pf)->FreePage(1).ok());  // both meta slots are protected
  EXPECT_FALSE((*pf)->FreePage(99).ok());
  std::vector<char> buf(opts.page_size);
  EXPECT_FALSE((*pf)->ReadPage(0, buf.data()).ok());
  EXPECT_FALSE((*pf)->ReadPage(1, buf.data()).ok());
}

TEST_F(PageFileTest, RootDirectoryCapacity) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  for (size_t i = 0; i < PageFile::kMaxRoots; ++i) {
    ASSERT_TRUE((*pf)->SetRoot("r" + std::to_string(i), 1).ok());
  }
  EXPECT_EQ((*pf)->SetRoot("overflow", 1).code(),
            StatusCode::kResourceExhausted);
  // Updating an existing root still works.
  EXPECT_TRUE((*pf)->SetRoot("r3", 2).ok());
}

TEST_F(PageFileTest, MetaEpochAdvancesPerStore) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  uint64_t e0 = (*pf)->meta_epoch();
  ASSERT_TRUE((*pf)->SetRoot("r", PageFile::kFirstDataPage).ok());
  ASSERT_TRUE((*pf)->Sync().ok());
  EXPECT_EQ((*pf)->meta_epoch(), e0 + 1);
  ASSERT_TRUE((*pf)->Sync().ok());  // clean meta: no new epoch
  EXPECT_EQ((*pf)->meta_epoch(), e0 + 1);
}

TEST_F(PageFileTest, CorruptNewestMetaSlotFallsBackToPrevious) {
  PageFileOptions opts;
  uint64_t newest_epoch = 0;
  PageId root = 0;
  {
    auto pf = PageFile::Open(env_.get(), "db", opts);
    ASSERT_TRUE(pf.ok());
    root = *(*pf)->AllocatePage();
    ASSERT_TRUE((*pf)->SetRoot("main", root).ok());
    ASSERT_TRUE((*pf)->Sync().ok());  // previous good meta
    ASSERT_TRUE((*pf)->SetRoot("doomed", root).ok());
    ASSERT_TRUE((*pf)->Sync().ok());  // newest meta, in the other slot
    newest_epoch = (*pf)->meta_epoch();
    ASSERT_TRUE((*pf)->Close().ok());
  }
  // Scribble over the newest slot, as a torn meta write would have.
  auto raw = env_->OpenFile("db", false);
  ASSERT_TRUE(raw.ok());
  uint64_t slot_off = (newest_epoch & 1) * opts.page_size;
  ASSERT_TRUE((*raw)->Write(slot_off + 40, "torn!").ok());

  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ((*pf)->meta_epoch(), newest_epoch - 1);
  EXPECT_EQ(*(*pf)->GetRoot("main"), root);
  EXPECT_TRUE((*pf)->GetRoot("doomed").status().IsNotFound());
}

TEST_F(PageFileTest, TornMetaWriteOnSyncRollsBack) {
  osal::FaultInjectionEnv fenv(env_.get());
  PageFileOptions opts;
  opts.io_attempts = 1;  // a retry would simply rewrite and heal the tear
  uint64_t good_epoch = 0;
  PageId root = 0;
  {
    auto pf = PageFile::Open(&fenv, "db", opts);
    ASSERT_TRUE(pf.ok());
    root = *(*pf)->AllocatePage();
    ASSERT_TRUE((*pf)->SetRoot("main", root).ok());
    ASSERT_TRUE((*pf)->Sync().ok());
    good_epoch = (*pf)->meta_epoch();
    ASSERT_TRUE((*pf)->SetRoot("doomed", root).ok());
    // The very next write is the meta store for the sync below: tear it
    // mid-slot and keep the device dead from then on.
    fenv.TearWrite(fenv.op_count(osal::FaultOp::kWrite), 100);
    fenv.FailFrom(osal::FaultOp::kWrite,
                  fenv.op_count(osal::FaultOp::kWrite) + 1,
                  Status::IOError("device died"));
    EXPECT_FALSE((*pf)->Sync().ok());
    EXPECT_FALSE((*pf)->Close().ok());
  }
  fenv.ClearFaults();
  // The torn bytes are on the medium; the loader must reject that slot and
  // fall back to the previous epoch.
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ((*pf)->meta_epoch(), good_epoch);
  EXPECT_EQ(*(*pf)->GetRoot("main"), root);
  EXPECT_TRUE((*pf)->GetRoot("doomed").status().IsNotFound());
}

TEST_F(PageFileTest, TransientWriteErrorsAreRetried) {
  osal::FaultInjectionEnv fenv(env_.get());
  fenv.FailRange(osal::FaultOp::kWrite, 0, 1, Status::IOError("transient"));
  PageFileOptions opts;  // default io_attempts = 3
  auto pf = PageFile::Open(&fenv, "db", opts);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ(fenv.faults_injected(), 1u);
}

TEST_F(PageFileTest, AllocateDetectsDoubleFreeTypeTag) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  PageId a = *(*pf)->AllocatePage();
  ASSERT_TRUE((*pf)->FreePage(a).ok());
  // A client keeps using the freed page (double free / crossed chain): the
  // head of the free chain no longer carries the kFree tag.
  std::vector<char> buf(opts.page_size, 0);
  Page page(buf.data(), buf.size());
  page.Init(PageType::kHeap);
  ASSERT_TRUE((*pf)->WritePage(a, buf.data()).ok());
  auto id = (*pf)->AllocatePage();
  ASSERT_TRUE(id.status().IsCorruption());
  EXPECT_NE(id.status().ToString().find("double free"), std::string::npos);
}

TEST_F(PageFileTest, AllocateDetectsScribbledFreePage) {
  PageFileOptions opts;
  auto pf = PageFile::Open(env_.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  PageId a = *(*pf)->AllocatePage();
  ASSERT_TRUE((*pf)->FreePage(a).ok());
  // Flip a byte in the freed page's body behind the page file's back: the
  // type tag still reads kFree but the checksum must catch the damage.
  auto raw = env_->OpenFile("db", false);
  ASSERT_TRUE(raw.ok());
  uint64_t off = static_cast<uint64_t>(a) * opts.page_size + 200;
  ASSERT_TRUE((*raw)->Write(off, "Z").ok());
  EXPECT_TRUE((*pf)->AllocatePage().status().IsCorruption());
}

TEST_F(PageFileTest, CloseReturnsTheFinalMetaWriteStatus) {
  osal::FaultInjectionEnv fenv(env_.get());
  PageFileOptions opts;
  opts.io_attempts = 1;
  auto pf = PageFile::Open(&fenv, "db", opts);
  ASSERT_TRUE(pf.ok());
  ASSERT_TRUE((*pf)->SetRoot("r", PageFile::kFirstDataPage).ok());
  fenv.FailFrom(osal::FaultOp::kWrite, fenv.op_count(osal::FaultOp::kWrite),
                Status::IOError("device died"));
  fenv.FailFrom(osal::FaultOp::kSync, fenv.op_count(osal::FaultOp::kSync),
                Status::IOError("device died"));
  Status s = (*pf)->Close();
  EXPECT_FALSE(s.ok());
  // Idempotent: the memoized status comes back, without new IO.
  uint64_t writes = fenv.op_count(osal::FaultOp::kWrite);
  EXPECT_EQ((*pf)->Close().ToString(), s.ToString());
  EXPECT_EQ(fenv.op_count(osal::FaultOp::kWrite), writes);
}

TEST_F(PageFileTest, DestructorRecordsLostMetaWrite) {
  osal::FaultInjectionEnv fenv(env_.get());
  PageFileOptions opts;
  opts.io_attempts = 1;
  uint64_t before = PageFile::lost_meta_writes();
  {
    auto pf = PageFile::Open(&fenv, "db", opts);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE((*pf)->SetRoot("r", PageFile::kFirstDataPage).ok());
    fenv.FailFrom(osal::FaultOp::kWrite, fenv.op_count(osal::FaultOp::kWrite),
                  Status::IOError("device died"));
    fenv.FailFrom(osal::FaultOp::kSync, fenv.op_count(osal::FaultOp::kSync),
                  Status::IOError("device died"));
    // No explicit Close: the destructor's best-effort close fails and the
    // loss is recorded instead of vanishing.
  }
  EXPECT_EQ(PageFile::lost_meta_writes(), before + 1);
}

// ------------------------------------------------------------ BufferManager

class BufferTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    env_ = osal::NewMemEnv(0);
    auto pf = PageFile::Open(env_.get(), "db", PageFileOptions{});
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
    auto bm = BufferManager::Create(file_.get(), 4, &alloc_,
                                    MakeReplacementPolicy(GetParam()));
    ASSERT_TRUE(bm.ok());
    bm_ = std::move(*bm);
  }
  void TearDown() override {
    bm_.reset();
    file_.reset();
  }

  std::unique_ptr<osal::Env> env_;
  osal::DynamicAllocator alloc_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferManager> bm_;
};

INSTANTIATE_TEST_SUITE_P(AllPolicies, BufferTest,
                         ::testing::Values("lru", "lfu", "clock"));

TEST_P(BufferTest, NewFetchRoundTrip) {
  PageId id;
  {
    auto guard = bm_->New(PageType::kHeap);
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    ASSERT_TRUE(guard->page().Insert("buffered").ok());
    guard->MarkDirty();
  }
  auto guard = bm_->Fetch(id);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page().Get(0)->ToString(), "buffered");
  EXPECT_EQ(bm_->stats().hits, 1u);  // still resident
}

TEST_P(BufferTest, EvictionWritesDirtyPages) {
  // Create more pages than frames; early pages must be written back and
  // reload correctly.
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) {
    auto guard = bm_->New(PageType::kHeap);
    ASSERT_TRUE(guard.ok());
    ids.push_back(guard->id());
    ASSERT_TRUE(guard->page().Insert("page" + std::to_string(i)).ok());
    guard->MarkDirty();
  }
  EXPECT_GT(bm_->stats().evictions, 0u);
  for (int i = 0; i < 10; ++i) {
    auto guard = bm_->Fetch(ids[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->page().Get(0)->ToString(), "page" + std::to_string(i));
  }
}

TEST_P(BufferTest, PinnedPagesAreNotEvicted) {
  std::vector<PageGuard> pinned;
  for (int i = 0; i < 4; ++i) {
    auto guard = bm_->New(PageType::kHeap);
    ASSERT_TRUE(guard.ok());
    pinned.push_back(std::move(*guard));
  }
  // All frames pinned: the next allocation cannot find a victim.
  auto guard = bm_->New(PageType::kHeap);
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  pinned.clear();
  EXPECT_TRUE(bm_->New(PageType::kHeap).ok());
}

TEST_P(BufferTest, PinCountsAreRefCounted) {
  auto g1 = bm_->New(PageType::kHeap);
  ASSERT_TRUE(g1.ok());
  PageId id = g1->id();
  auto g2 = bm_->Fetch(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(bm_->pinned_frames(), 1u);  // same frame, two pins
  g1->Release();
  EXPECT_EQ(bm_->pinned_frames(), 1u);
  g2->Release();
  EXPECT_EQ(bm_->pinned_frames(), 0u);
}

TEST_P(BufferTest, FlushAllPersistsWithoutEviction) {
  PageId id;
  {
    auto guard = bm_->New(PageType::kHeap);
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    ASSERT_TRUE(guard->page().Insert("durable").ok());
    guard->MarkDirty();
  }
  ASSERT_TRUE(bm_->Checkpoint().ok());
  // Read through a second, independent buffer manager.
  osal::DynamicAllocator alloc2;
  auto bm2 = BufferManager::Create(file_.get(), 2, &alloc2,
                                   MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm2.ok());
  auto guard = (*bm2)->Fetch(id);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page().Get(0)->ToString(), "durable");
}

TEST_P(BufferTest, FreeRejectsPinnedPage) {
  auto guard = bm_->New(PageType::kHeap);
  ASSERT_TRUE(guard.ok());
  PageId id = guard->id();
  EXPECT_EQ(bm_->Free(id).code(), StatusCode::kBusy);
  guard->Release();
  EXPECT_TRUE(bm_->Free(id).ok());
}

TEST_P(BufferTest, GuardMoveAssignmentReleasesTargetPin) {
  auto g1 = bm_->New(PageType::kHeap);
  ASSERT_TRUE(g1.ok());
  auto g2 = bm_->New(PageType::kHeap);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(bm_->pinned_frames(), 2u);
  // Move-assign over a live guard: the overwritten guard's pin is dropped,
  // the moved-from guard is emptied (its destructor must not double-unpin).
  *g2 = std::move(*g1);
  EXPECT_EQ(bm_->pinned_frames(), 1u);
  EXPECT_FALSE(g1->valid());
  EXPECT_TRUE(g2->valid());
  g2->Release();
  EXPECT_EQ(bm_->pinned_frames(), 0u);
}

TEST_P(BufferTest, GuardSelfMoveAndDoubleReleaseAreSafe) {
  auto g = bm_->New(PageType::kHeap);
  ASSERT_TRUE(g.ok());
  PageGuard& alias = *g;  // defeat -Wself-move without changing semantics
  *g = std::move(alias);
  EXPECT_TRUE(g->valid());
  EXPECT_EQ(bm_->pinned_frames(), 1u);
  g->Release();
  g->Release();  // idempotent
  EXPECT_EQ(bm_->pinned_frames(), 0u);
}

TEST_P(BufferTest, FetchWithAllFramesPinnedIsResourceExhausted) {
  // Materialize 5 pages (evictions allowed while unpinned), then pin four
  // of them — the Fetch of the fifth has no victim frame.
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    auto guard = bm_->New(PageType::kHeap);
    ASSERT_TRUE(guard.ok());
    ids.push_back(guard->id());
  }
  std::vector<PageGuard> pinned;
  for (int i = 0; i < 4; ++i) {
    auto guard = bm_->Fetch(ids[i]);
    ASSERT_TRUE(guard.ok());
    pinned.push_back(std::move(*guard));
  }
  auto miss = bm_->Fetch(ids[4]);
  EXPECT_EQ(miss.status().code(), StatusCode::kResourceExhausted);
  pinned.clear();
  EXPECT_TRUE(bm_->Fetch(ids[4]).ok());
}

TEST_P(BufferTest, StatsHitRate) {
  auto g = bm_->New(PageType::kHeap);
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  g->Release();
  bm_->ResetStats();
  for (int i = 0; i < 10; ++i) {
    auto guard = bm_->Fetch(id);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_DOUBLE_EQ(bm_->stats().HitRate(), 1.0);
}

TEST(ReplacementPolicyTest, LruEvictsLeastRecentlyUnpinned) {
  LruPolicy lru;
  lru.OnUnpinned(1);
  lru.OnUnpinned(2);
  lru.OnUnpinned(3);
  lru.OnUnpinned(1);  // refresh 1
  FrameId v;
  ASSERT_TRUE(lru.Victim(&v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(lru.Victim(&v));
  EXPECT_EQ(v, 3u);
  ASSERT_TRUE(lru.Victim(&v));
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(lru.Victim(&v));
}

TEST(ReplacementPolicyTest, LruRemovedFramesNotVictims) {
  LruPolicy lru;
  lru.OnUnpinned(1);
  lru.OnUnpinned(2);
  lru.OnRemoved(1);
  FrameId v;
  ASSERT_TRUE(lru.Victim(&v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(lru.Victim(&v));
}

TEST(ReplacementPolicyTest, LfuEvictsLeastFrequent) {
  LfuPolicy lfu;
  lfu.OnUnpinned(1);
  lfu.OnAccess(1);
  lfu.OnAccess(1);  // frame 1 hot
  lfu.OnUnpinned(2);  // frame 2 cold
  FrameId v;
  ASSERT_TRUE(lfu.Victim(&v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(lfu.Victim(&v));
  EXPECT_EQ(v, 1u);
}

TEST(ReplacementPolicyTest, LfuTieBreaksFifo) {
  LfuPolicy lfu;
  lfu.OnUnpinned(5);
  lfu.OnUnpinned(6);  // equal frequency; 5 unpinned first
  FrameId v;
  ASSERT_TRUE(lfu.Victim(&v));
  EXPECT_EQ(v, 5u);
}

TEST(ReplacementPolicyTest, ClockGivesSecondChance) {
  ClockPolicy clock;
  clock.OnUnpinned(1);
  clock.OnUnpinned(2);
  FrameId v;
  // Both have the reference bit set; the sweep clears them then evicts the
  // first encountered.
  ASSERT_TRUE(clock.Victim(&v));
  EXPECT_EQ(v, 1u);
  clock.OnUnpinned(3);
  // 2's bit was cleared by the previous sweep; 3 is fresh.
  ASSERT_TRUE(clock.Victim(&v));
  EXPECT_EQ(v, 2u);
}

TEST(ReplacementPolicyTest, FactoryKnowsAllNames) {
  EXPECT_NE(MakeReplacementPolicy("lru"), nullptr);
  EXPECT_NE(MakeReplacementPolicy("lfu"), nullptr);
  EXPECT_NE(MakeReplacementPolicy("clock"), nullptr);
  EXPECT_EQ(MakeReplacementPolicy("arc"), nullptr);
}

TEST(BufferCreationTest, StaticPoolTooSmallFailsCleanly) {
  auto env = osal::NewMemEnv(0);
  auto pf = PageFile::Open(env.get(), "db", PageFileOptions{});
  ASSERT_TRUE(pf.ok());
  osal::StaticPoolAllocator pool(8192);  // fits 1 frame of 4096, not 4
  auto bm = BufferManager::Create(pf->get(), 4, &pool,
                                  MakeReplacementPolicy("lru"));
  EXPECT_EQ(bm.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.bytes_in_use(), 0u);  // rollback complete
}

// ------------------------------------------------------------ RecordManager

class RecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = osal::NewMemEnv(0);
    OpenStack();
  }
  void TearDown() override {
    rm_.reset();
    bm_.reset();
    file_.reset();
  }

  void OpenStack() {
    auto pf = PageFile::Open(env_.get(), "db", PageFileOptions{});
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
    auto bm = BufferManager::Create(file_.get(), 8, &alloc_,
                                    MakeReplacementPolicy("lru"));
    ASSERT_TRUE(bm.ok());
    bm_ = std::move(*bm);
    auto rm = RecordManager::Open(bm_.get(), "t");
    ASSERT_TRUE(rm.ok());
    rm_ = std::move(*rm);
  }

  /// Checkpoints, then reopens the file, pool and heap from the env.
  void Reopen() {
    ASSERT_TRUE(bm_->Checkpoint().ok());
    TearDown();
    OpenStack();
  }

  /// The heap's pages in chain order, walked through Page from the root.
  std::vector<PageId> Chain() {
    std::vector<PageId> chain;
    auto head = file_->GetRoot("heap:t");
    EXPECT_TRUE(head.ok());
    for (PageId id = head.value_or(kInvalidPageId); id != kInvalidPageId;) {
      auto guard = bm_->Fetch(id);
      EXPECT_TRUE(guard.ok());
      if (!guard.ok()) break;
      chain.push_back(id);
      id = guard->page().next_page();
    }
    return chain;
  }

  /// The placement rule, computed independently of the heap: the first
  /// page of `chain` with room for a `size`-byte record, or kInvalidPageId
  /// when the insert must append a page.
  PageId FirstFit(const std::vector<PageId>& chain, size_t size) {
    for (PageId id : chain) {
      auto guard = bm_->Fetch(id);
      EXPECT_TRUE(guard.ok());
      if (!guard.ok()) break;
      Page page = guard->page();
      if (page.FreeSpace() + page.ReclaimableSpace() >=
          size + Page::kSlotSize) {
        return id;
      }
    }
    return kInvalidPageId;
  }

  uint64_t Fetches() const {
    BufferStats st = bm_->stats();
    return st.hits + st.misses;
  }

  std::unique_ptr<osal::Env> env_;
  osal::DynamicAllocator alloc_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<RecordManager> rm_;
};

TEST_F(RecordTest, InsertGetDelete) {
  auto rid = rm_->Insert("value-1");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(*rid, &out).ok());
  EXPECT_EQ(out, "value-1");
  ASSERT_TRUE(rm_->Delete(*rid).ok());
  EXPECT_TRUE(rm_->Get(*rid, &out).IsNotFound());
}

TEST_F(RecordTest, RidPackUnpackRoundTrip) {
  Rid r{12345, 678};
  Rid u = Rid::Unpack(r.Pack());
  EXPECT_EQ(u, r);
}

TEST_F(RecordTest, SpillsAcrossPages) {
  std::vector<Rid> rids;
  std::string rec(500, 'd');
  for (int i = 0; i < 50; ++i) {  // ~25 KB >> one 4 KB page
    auto rid = rm_->Insert(rec + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  std::set<PageId> pages;
  for (const Rid& r : rids) pages.insert(r.page);
  EXPECT_GT(pages.size(), 3u);
  std::string out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rm_->Get(rids[i], &out).ok());
    EXPECT_EQ(out, rec + std::to_string(i));
  }
}

TEST_F(RecordTest, UpdateMayMoveRecord) {
  // Fill a page almost fully so a growing update must relocate.
  auto rid1 = rm_->Insert(std::string(1800, 'a'));
  auto rid2 = rm_->Insert(std::string(1800, 'b'));
  ASSERT_TRUE(rid1.ok());
  ASSERT_TRUE(rid2.ok());
  Rid moved = *rid1;
  ASSERT_TRUE(rm_->Update(&moved, std::string(3000, 'A')).ok());
  std::string out;
  ASSERT_TRUE(rm_->Get(moved, &out).ok());
  EXPECT_EQ(out, std::string(3000, 'A'));
  // The sibling is untouched.
  ASSERT_TRUE(rm_->Get(*rid2, &out).ok());
  EXPECT_EQ(out, std::string(1800, 'b'));
}

TEST_F(RecordTest, ScanVisitsAllLiveRecords) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rm_->Insert("rec" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*rm_->Count(), 20u);
  int seen = 0;
  ASSERT_TRUE(rm_->Scan([&seen](const Rid&, const Slice&) {
    ++seen;
    return seen < 5;  // early stop
  }).ok());
  EXPECT_EQ(seen, 5);
}

TEST_F(RecordTest, RejectsPageSizedRecord) {
  EXPECT_TRUE(
      rm_->Insert(std::string(5000, 'x')).status().IsInvalidArgument());
}

TEST_F(RecordTest, PersistsAcrossReopen) {
  auto rid = rm_->Insert("survivor");
  ASSERT_TRUE(rid.ok());
  ASSERT_NO_FATAL_FAILURE(Reopen());
  std::string out;
  ASSERT_TRUE(rm_->Get(*rid, &out).ok());
  EXPECT_EQ(out, "survivor");
}

// Seeded churn of every mutating call, with a reopen halfway. Before each
// insert the test walks the chain itself and predicts the page the
// placement rule picks; the heap must agree on every one. A free-space
// entry left stale by any call would show up as a later insert placed
// elsewhere.
TEST_F(RecordTest, InsertPlacementMatchesFirstFitWalk) {
  Random rnd(0x5eed);
  std::vector<std::pair<Rid, std::string>> live;
  auto random_record = [&rnd] {
    return std::string(1 + rnd.Uniform(1536),
                       static_cast<char>('a' + rnd.Uniform(26)));
  };
  constexpr int kOps = 2400;
  for (int op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      ASSERT_NO_FATAL_FAILURE(Reopen());
    }
    uint64_t dice = rnd.Uniform(10);
    if (live.empty() || dice < 5) {
      std::string rec = random_record();
      std::vector<PageId> chain = Chain();
      PageId fit = FirstFit(chain, rec.size());
      auto rid = rm_->Insert(rec);
      ASSERT_TRUE(rid.ok()) << "op " << op;
      if (fit != kInvalidPageId) {
        ASSERT_EQ(rid->page, fit) << "op " << op;
      } else {
        std::vector<PageId> grown = Chain();
        ASSERT_EQ(grown.size(), chain.size() + 1) << "op " << op;
        ASSERT_EQ(grown.back(), rid->page) << "op " << op;
      }
      live.emplace_back(*rid, std::move(rec));
      continue;
    }
    size_t k = rnd.Uniform(live.size());
    auto& [rid, rec] = live[k];
    if (dice < 7) {  // grows or shrinks; may move the record
      std::string next = random_record();
      ASSERT_TRUE(rm_->Update(&rid, next).ok()) << "op " << op;
      rec = std::move(next);
    } else if (dice < 8) {
      std::string next = random_record();
      Status s = rm_->UpdateInPlace(rid, next);
      if (s.ok()) {
        rec = std::move(next);
      } else {
        ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << "op " << op;
      }
    } else {
      ASSERT_TRUE(rm_->Delete(rid).ok()) << "op " << op;
      std::swap(live[k], live.back());
      live.pop_back();
    }
  }
  EXPECT_GE(Chain().size(), 100u);
  std::string out;
  for (const auto& [rid, rec] : live) {
    ASSERT_TRUE(rm_->Get(rid, &out).ok());
    ASSERT_EQ(out, rec);
  }
  EXPECT_EQ(*rm_->Count(), live.size());
}

// An insert fetches only the pages it can use, however long the chain.
TEST_F(RecordTest, InsertCostDoesNotGrowWithTheChain) {
  // Four 1000-byte records fill a 4 KiB page; a fifth does not fit.
  const std::string rec(1000, 'f');
  for (int i = 0; i < 4 * 160; ++i) ASSERT_TRUE(rm_->Insert(rec).ok());
  ASSERT_EQ(Chain().size(), 160u);

  uint64_t before = Fetches();
  auto appended = rm_->Insert(rec);  // every page is full: appends one
  ASSERT_TRUE(appended.ok());
  EXPECT_LE(Fetches() - before, 3u);

  before = Fetches();
  auto tail = rm_->Insert(rec);  // the fresh tail page has room
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->page, appended->page);
  EXPECT_LE(Fetches() - before, 3u);
}

}  // namespace
}  // namespace fame::storage
