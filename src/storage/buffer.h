// BufferManager: a fixed pool of page frames over a PageFile, with a
// pluggable ReplacementPolicy (the Buffer Manager feature of Figure 2).
// Frame memory comes from an osal::Allocator so products can run it out of a
// static arena.
//
// The pool is a template over a threading policy (concurrency.h), the
// compile-time selection point of the optional "Concurrency" Storage
// feature:
//
//   - BasicBufferManager<SingleThreaded> (alias BufferManager) is the
//     original single-threaded engine: one shard, no-op locks, plain
//     counters. Products that deselect Concurrency pay nothing — this
//     header includes no threading headers at all.
//   - BasicBufferManager<MultiThreaded> (alias ConcurrentBufferManager in
//     buffer_concurrent.h) hash-partitions pages across lock-striped
//     shards, each with its own page table, replacement policy instance,
//     and stats. Hits pin frames under a shared lock with an atomic
//     fetch-add, so concurrent readers of the same frame never serialize;
//     eviction and misses take the shard's exclusive lock.
//
// Locking order (multi-threaded instantiation): shard table lock (shared or
// exclusive) -> shard policy lock -> file lock. The file lock serializes
// page allocate/free/sync, which mutate PageFile meta state.
#ifndef FAME_STORAGE_BUFFER_H_
#define FAME_STORAGE_BUFFER_H_

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>

#include "osal/allocator.h"
#include "storage/concurrency.h"
#include "storage/page.h"
#include "storage/pagefile.h"
#include "storage/replacement.h"

namespace fame::storage {

/// Counters exposed for tests, NFP measurement, and the micro benchmarks.
/// This is a plain snapshot struct: the pool keeps per-shard counters
/// (atomic under the MultiThreaded policy) and aggregates them on read, so
/// a stats read while the pool is hot never reports torn values.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Process-wide count of dirty-page writebacks abandoned by destructor-time
/// best-effort flushes (the pool is being torn down; there is no caller to
/// hand the status to). Mirrors PageFile::lost_meta_writes(); surfaced via
/// Database::GetStats so a silently lost write is at least countable.
uint64_t BufferLostWritebacks();

namespace internal {
void NoteBufferLostWritebacks(uint64_t n);
}  // namespace internal

template <typename Threading>
class BasicBufferManager;

/// RAII pin on a buffered page. Unpins (optionally marking dirty) when it
/// goes out of scope. Movable, not copyable.
template <typename Threading>
class BasicPageGuard {
 public:
  BasicPageGuard() = default;
  BasicPageGuard(BasicBufferManager<Threading>* bm, PageId id, uint32_t shard,
                 FrameId frame, char* data, size_t page_size)
      : bm_(bm),
        id_(id),
        shard_(shard),
        frame_idx_(frame),
        data_(data),
        page_size_(page_size) {}
  BasicPageGuard(BasicPageGuard&& other) noexcept {
    *this = std::move(other);
  }
  BasicPageGuard& operator=(BasicPageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      bm_ = other.bm_;
      id_ = other.id_;
      shard_ = other.shard_;
      frame_idx_ = other.frame_idx_;
      data_ = other.data_;
      page_size_ = other.page_size_;
      dirty_ = other.dirty_;
      other.bm_ = nullptr;
      other.data_ = nullptr;
    }
    return *this;
  }
  ~BasicPageGuard() { Release(); }

  BasicPageGuard(const BasicPageGuard&) = delete;
  BasicPageGuard& operator=(const BasicPageGuard&) = delete;

  bool valid() const { return bm_ != nullptr; }
  PageId id() const { return id_; }

  /// Page view over the pinned frame.
  Page page() { return Page(data_, page_size_); }
  const Page page() const { return Page(data_, page_size_); }

  /// Marks the frame dirty (will be written back before eviction/flush).
  void MarkDirty() { dirty_ = true; }

  /// Explicit early unpin.
  void Release() {
    if (bm_ != nullptr) {
      bm_->Unpin(shard_, frame_idx_, dirty_);
      bm_ = nullptr;
      data_ = nullptr;
      dirty_ = false;
    }
  }

 private:
  BasicBufferManager<Threading>* bm_ = nullptr;
  PageId id_ = kInvalidPageId;
  uint32_t shard_ = 0;
  FrameId frame_idx_ = 0;
  char* data_ = nullptr;
  size_t page_size_ = 0;
  bool dirty_ = false;
};

/// Fixed-capacity buffer pool. The SingleThreaded instantiation is not
/// thread-safe (embedded products are single-threaded; the transaction
/// layer serializes concurrent use). The MultiThreaded instantiation is
/// safe for concurrent Fetch/New/Free/Unpin; FlushAll/Checkpoint take each
/// shard's exclusive lock but do not wait for pins, so callers must not
/// mutate pinned pages while a checkpoint runs (same contract the WAL
/// pre-write hook already relies on).
template <typename Threading>
class BasicBufferManager {
 public:
  using Guard = BasicPageGuard<Threading>;

  /// `pool_frames` frames of `file->page_size()` bytes each, allocated from
  /// `allocator`. `policy` decides eviction victims; with more than one
  /// shard, each shard gets a fresh instance of the same algorithm (cloned
  /// by name via MakeReplacementPolicy).
  static StatusOr<std::unique_ptr<BasicBufferManager>> Create(
      PageFile* file, size_t pool_frames, osal::Allocator* allocator,
      std::unique_ptr<ReplacementPolicy> policy);

  ~BasicBufferManager();

  /// Pins page `id`, reading it from storage on a miss.
  StatusOr<Guard> Fetch(PageId id);

  /// Allocates a fresh page in the file, pins it, and formats it as `type`.
  StatusOr<Guard> New(PageType type);

  /// Frees `id` in the file. The page must not be pinned.
  Status Free(PageId id);

  /// Writes back all dirty frames (does not evict).
  Status FlushAll();

  /// FlushAll + file sync.
  Status Checkpoint();

  /// Aggregated snapshot across shards; safe to call while the pool is hot.
  BufferStats stats() const;
  /// Snapshot of a single shard's counters (i < shard_count()) — the
  /// Observability layer reports hit/miss/eviction/writeback per shard so
  /// skew across the sharded pool is visible.
  BufferStats shard_stats(size_t i) const;
  void ResetStats();
  size_t pool_frames() const;
  size_t pinned_frames() const;
  size_t shard_count() const { return shard_count_; }
  PageFile* file() { return file_; }
  ReplacementPolicy* policy() { return shards_[0].policy.get(); }

  /// Hook installed by the recovery/tx layer: called with (page_id, frame)
  /// right before a dirty page is written back, enforcing WAL (flush log up
  /// to page LSN first). With the MultiThreaded policy the hook may be
  /// invoked from any thread and must be thread-safe.
  using PreWriteHook = Status (*)(void* ctx, PageId id, const char* frame);
  void SetPreWriteHook(PreWriteHook hook, void* ctx) {
    pre_write_hook_ = hook;
    pre_write_ctx_ = ctx;
  }

 private:
  template <typename T>
  friend class BasicPageGuard;

  struct Frame {
    char* data = nullptr;
    /// Mutated only under the shard's exclusive table lock; additionally
    /// readable from the lock-free unpin path, hence a U32Cell (atomic
    /// under MultiThreaded).
    typename Threading::U32Cell page{kInvalidPageId};
    typename Threading::PinCount pins{0};
    typename Threading::Flag dirty{false};
  };

  struct ShardStats {
    typename Threading::Counter hits{0};
    typename Threading::Counter misses{0};
    typename Threading::Counter evictions{0};
    typename Threading::Counter dirty_writebacks{0};
  };

  /// One lock stripe: its own frames, page table, replacement policy, and
  /// stats. SingleThreaded pools have exactly one.
  struct Shard {
    mutable typename Threading::SharedMutex table_mu;
    typename Threading::Mutex policy_mu;
    std::unique_ptr<Frame[]> frames;
    size_t frame_count = 0;
    /// All of this shard's frame memory comes from one contiguous carve
    /// (frame_count * page_size bytes): one allocator call per shard
    /// instead of one per frame, and the frames a shard's threads touch
    /// share locality instead of interleaving with every other shard's.
    char* arena = nullptr;
    std::unordered_map<PageId, FrameId> page_table;
    std::unique_ptr<ReplacementPolicy> policy;
    size_t next_unused = 0;
    ShardStats stats;
  };

  /// Fewest frames a shard is cut down to. A shard is exhausted once all
  /// of its own frames are pinned, however many the other shards have free.
  /// With one or two frames per shard, a few concurrent readers whose pages
  /// hash to the same shard get ResourceExhausted from a mostly idle pool.
  /// Eight frames hold four B+-tree readers that each pin a parent and a
  /// child at once, even when all of those pages share a shard.
  static constexpr size_t kMinShardFrames = 8;

  BasicBufferManager(PageFile* file, osal::Allocator* allocator)
      : file_(file), allocator_(allocator) {}

  size_t ShardOf(PageId id) const {
    if constexpr (Threading::kDefaultShards == 1) {
      (void)id;
      return 0;
    } else {
      uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
      return static_cast<size_t>(h >> 32) % shard_count_;
    }
  }

  static uint32_t PinAdd(typename Threading::PinCount& p) {
    if constexpr (Threading::kConcurrent) {
      return p.fetch_add(1);
    } else {
      return p++;
    }
  }
  static uint32_t PinSub(typename Threading::PinCount& p) {
    if constexpr (Threading::kConcurrent) {
      return p.fetch_sub(1);
    } else {
      return p--;
    }
  }
  static uint32_t PinLoad(const typename Threading::PinCount& p) {
    if constexpr (Threading::kConcurrent) {
      return p.load();
    } else {
      return p;
    }
  }

  /// Finds a frame for a new page: a never-used frame, else a victim from
  /// the policy (writing it back if dirty). ResourceExhausted if every frame
  /// is pinned. Caller holds the shard's exclusive table lock.
  StatusOr<FrameId> GetVictimFrame(Shard& sh);

  /// Caller holds the shard's exclusive table lock.
  Status WriteBack(Shard& sh, Frame& f);

  /// Pins the resident frame `fid` of `sh` (hit path). Caller holds the
  /// shard's table lock, shared or exclusive.
  Guard PinResident(uint32_t shard_idx, Shard& sh, PageId id, FrameId fid);

  /// Called by BasicPageGuard on release.
  void Unpin(uint32_t shard_idx, FrameId frame, bool dirty);

  PageFile* file_;
  osal::Allocator* allocator_;
  typename Threading::Mutex file_mu_;  // serializes alloc/free/sync meta ops
  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_ = 0;
  PreWriteHook pre_write_hook_ = nullptr;
  void* pre_write_ctx_ = nullptr;
};

// ---------------------------------------------------------------------------
// Template implementation. `if constexpr (Threading::kConcurrent)` branches
// are discarded (not instantiated) for the SingleThreaded policy, so the
// single-threaded pool never references atomic/mutex operations.
// ---------------------------------------------------------------------------

template <typename Threading>
StatusOr<std::unique_ptr<BasicBufferManager<Threading>>>
BasicBufferManager<Threading>::Create(PageFile* file, size_t pool_frames,
                                      osal::Allocator* allocator,
                                      std::unique_ptr<ReplacementPolicy> policy) {
  if (pool_frames == 0) {
    return Status::InvalidArgument("buffer pool needs at least one frame");
  }
  if (policy == nullptr) {
    return Status::InvalidArgument("replacement policy required");
  }
  // Small pools get fewer shards, so that every shard keeps at least
  // kMinShardFrames frames (or the whole pool, if it is smaller).
  size_t nshards = pool_frames / kMinShardFrames;
  if (nshards > Threading::kDefaultShards) nshards = Threading::kDefaultShards;
  if (nshards == 0) nshards = 1;
  std::unique_ptr<BasicBufferManager> bm(
      new BasicBufferManager(file, allocator));
  bm->shard_count_ = nshards;
  bm->shards_ = std::make_unique<Shard[]>(nshards);
  const std::string policy_name = policy->name();
  bm->shards_[0].policy = std::move(policy);
  for (size_t i = 1; i < nshards; ++i) {
    bm->shards_[i].policy = MakeReplacementPolicy(policy_name);
    if (bm->shards_[i].policy == nullptr) {
      return Status::InvalidArgument("replacement policy '" + policy_name +
                                     "' cannot be instantiated per shard");
    }
  }
  const size_t base = pool_frames / nshards;
  const size_t rem = pool_frames % nshards;
  for (size_t i = 0; i < nshards; ++i) {
    Shard& sh = bm->shards_[i];
    sh.frame_count = base + (i < rem ? 1 : 0);
    sh.frames = std::make_unique<Frame[]>(sh.frame_count);
    // Slab-carve the shard's frames: one contiguous allocation per shard.
    void* mem = allocator->Allocate(sh.frame_count * file->page_size());
    if (mem == nullptr) {
      // Roll back what we grabbed so static pools are left clean.
      for (size_t si = 0; si < i; ++si) {
        Shard& rb = bm->shards_[si];
        allocator->Deallocate(rb.arena,
                              rb.frame_count * file->page_size());
        rb.arena = nullptr;
      }
      return Status::ResourceExhausted(
          "allocator cannot satisfy buffer pool of " +
          std::to_string(pool_frames) + " frames");
    }
    sh.arena = static_cast<char*>(mem);
    for (size_t j = 0; j < sh.frame_count; ++j) {
      sh.frames[j].data = sh.arena + j * file->page_size();
    }
  }
  return bm;
}

template <typename Threading>
BasicBufferManager<Threading>::~BasicBufferManager() {
  Status s = FlushAll();  // best effort
  if (!s.ok()) {
    // No caller to hand the failure to: count what stayed dirty so the
    // loss is observable (Database::GetStats / fame_check --stats).
    uint64_t lost = 0;
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& sh = shards_[i];
      for (size_t j = 0; j < sh.frame_count; ++j) {
        if (sh.frames[j].page != kInvalidPageId && sh.frames[j].dirty) ++lost;
      }
    }
    internal::NoteBufferLostWritebacks(lost);
  }
  for (size_t i = 0; i < shard_count_; ++i) {
    Shard& sh = shards_[i];
    if (sh.arena != nullptr) {
      allocator_->Deallocate(sh.arena, sh.frame_count * file_->page_size());
    }
  }
}

template <typename Threading>
size_t BasicBufferManager<Threading>::pool_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) n += shards_[i].frame_count;
  return n;
}

template <typename Threading>
size_t BasicBufferManager<Threading>::pinned_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    const Shard& sh = shards_[i];
    for (size_t j = 0; j < sh.frame_count; ++j) {
      if (PinLoad(sh.frames[j].pins) > 0) ++n;
    }
  }
  return n;
}

template <typename Threading>
BufferStats BasicBufferManager<Threading>::stats() const {
  BufferStats out;
  for (size_t i = 0; i < shard_count_; ++i) {
    const ShardStats& s = shards_[i].stats;
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.dirty_writebacks += s.dirty_writebacks;
  }
  return out;
}

template <typename Threading>
BufferStats BasicBufferManager<Threading>::shard_stats(size_t i) const {
  BufferStats out;
  if (i >= shard_count_) return out;
  const ShardStats& s = shards_[i].stats;
  out.hits += s.hits;
  out.misses += s.misses;
  out.evictions += s.evictions;
  out.dirty_writebacks += s.dirty_writebacks;
  return out;
}

template <typename Threading>
void BasicBufferManager<Threading>::ResetStats() {
  for (size_t i = 0; i < shard_count_; ++i) {
    ShardStats& s = shards_[i].stats;
    s.hits = 0;
    s.misses = 0;
    s.evictions = 0;
    s.dirty_writebacks = 0;
  }
}

template <typename Threading>
Status BasicBufferManager<Threading>::WriteBack(Shard& sh, Frame& f) {
  if (pre_write_hook_ != nullptr) {
    FAME_RETURN_IF_ERROR(pre_write_hook_(pre_write_ctx_, f.page, f.data));
  }
  FAME_RETURN_IF_ERROR(file_->WritePage(f.page, f.data));
  f.dirty = false;
  ++sh.stats.dirty_writebacks;
  return Status::OK();
}

template <typename Threading>
StatusOr<FrameId> BasicBufferManager<Threading>::GetVictimFrame(Shard& sh) {
  if (sh.next_unused < sh.frame_count) {
    return static_cast<FrameId>(sh.next_unused++);
  }
  FrameId victim;
  {
    LockGuard<typename Threading::Mutex> pg(sh.policy_mu);
    if (!sh.policy->Victim(&victim)) {
      return Status::ResourceExhausted("all buffer frames pinned");
    }
  }
  Frame& f = sh.frames[victim];
  assert(PinLoad(f.pins) == 0);
  if (f.dirty) {
    FAME_RETURN_IF_ERROR(WriteBack(sh, f));
  }
  sh.page_table.erase(f.page);
  f.page = kInvalidPageId;
  ++sh.stats.evictions;
  return victim;
}

template <typename Threading>
typename BasicBufferManager<Threading>::Guard
BasicBufferManager<Threading>::PinResident(uint32_t shard_idx, Shard& sh,
                                           PageId id, FrameId fid) {
  Frame& f = sh.frames[fid];
  uint32_t old_pins = PinAdd(f.pins);
  {
    LockGuard<typename Threading::Mutex> pg(sh.policy_mu);
    if (old_pins == 0) {
      sh.policy->OnRemoved(fid);  // no longer evictable
    }
    sh.policy->OnAccess(fid);
  }
  ++sh.stats.hits;
  return Guard(this, id, shard_idx, fid, f.data, file_->page_size());
}

template <typename Threading>
StatusOr<typename BasicBufferManager<Threading>::Guard>
BasicBufferManager<Threading>::Fetch(PageId id) {
  const uint32_t shard_idx = static_cast<uint32_t>(ShardOf(id));
  Shard& sh = shards_[shard_idx];
  // Hit path under the shared lock: concurrent readers pin with an atomic
  // fetch-add and never exclude each other. Eviction needs the exclusive
  // lock, so a frame found here cannot vanish while we hold the pin.
  {
    SharedLockGuard<typename Threading::SharedMutex> sl(sh.table_mu);
    auto it = sh.page_table.find(id);
    if (it != sh.page_table.end()) {
      return PinResident(shard_idx, sh, id, it->second);
    }
  }
  LockGuard<typename Threading::SharedMutex> xl(sh.table_mu);
  if constexpr (Threading::kConcurrent) {
    // Another thread may have brought the page in between the locks.
    auto it = sh.page_table.find(id);
    if (it != sh.page_table.end()) {
      return PinResident(shard_idx, sh, id, it->second);
    }
  }
  ++sh.stats.misses;
  FAME_ASSIGN_OR_RETURN(FrameId frame, GetVictimFrame(sh));
  Frame& f = sh.frames[frame];
  Status s = file_->ReadPage(id, f.data);
  if (!s.ok()) {
    // Frame stays unmapped but reusable: hand it back to the policy.
    f.page = kInvalidPageId;
    f.pins = 0;
    f.dirty = false;
    LockGuard<typename Threading::Mutex> pg(sh.policy_mu);
    sh.policy->OnUnpinned(frame);
    return s;
  }
  f.page = id;
  f.pins = 1;
  f.dirty = false;
  sh.page_table[id] = frame;
  return Guard(this, id, shard_idx, frame, f.data, file_->page_size());
}

template <typename Threading>
StatusOr<typename BasicBufferManager<Threading>::Guard>
BasicBufferManager<Threading>::New(PageType type) {
  PageId id;
  {
    LockGuard<typename Threading::Mutex> fg(file_mu_);
    FAME_ASSIGN_OR_RETURN(id, file_->AllocatePage());
  }
  const uint32_t shard_idx = static_cast<uint32_t>(ShardOf(id));
  Shard& sh = shards_[shard_idx];
  LockGuard<typename Threading::SharedMutex> xl(sh.table_mu);
  FAME_ASSIGN_OR_RETURN(FrameId frame, GetVictimFrame(sh));
  Frame& f = sh.frames[frame];
  f.page = id;
  f.pins = 1;
  f.dirty = true;
  sh.page_table[id] = frame;
  Page page(f.data, file_->page_size());
  page.Init(type);
  return Guard(this, id, shard_idx, frame, f.data, file_->page_size());
}

template <typename Threading>
Status BasicBufferManager<Threading>::Free(PageId id) {
  Shard& sh = shards_[ShardOf(id)];
  {
    LockGuard<typename Threading::SharedMutex> xl(sh.table_mu);
    auto it = sh.page_table.find(id);
    if (it != sh.page_table.end()) {
      FrameId frame = it->second;
      Frame& f = sh.frames[frame];
      if (PinLoad(f.pins) > 0) {
        return Status::Busy("freeing a pinned page");
      }
      LockGuard<typename Threading::Mutex> pg(sh.policy_mu);
      sh.policy->OnRemoved(frame);
      f.page = kInvalidPageId;
      f.dirty = false;
      sh.page_table.erase(it);
      // Recycle the frame eagerly.
      sh.policy->OnUnpinned(frame);
    }
  }
  LockGuard<typename Threading::Mutex> fg(file_mu_);
  return file_->FreePage(id);
}

template <typename Threading>
Status BasicBufferManager<Threading>::FlushAll() {
  for (size_t i = 0; i < shard_count_; ++i) {
    Shard& sh = shards_[i];
    LockGuard<typename Threading::SharedMutex> xl(sh.table_mu);
    for (size_t j = 0; j < sh.frame_count; ++j) {
      Frame& f = sh.frames[j];
      if (f.page != kInvalidPageId && f.dirty) {
        FAME_RETURN_IF_ERROR(WriteBack(sh, f));
      }
    }
  }
  return Status::OK();
}

template <typename Threading>
Status BasicBufferManager<Threading>::Checkpoint() {
  FAME_RETURN_IF_ERROR(FlushAll());
  LockGuard<typename Threading::Mutex> fg(file_mu_);
  return file_->Sync();
}

template <typename Threading>
void BasicBufferManager<Threading>::Unpin(uint32_t shard_idx, FrameId frame,
                                          bool dirty) {
  Shard& sh = shards_[shard_idx];
  Frame& f = sh.frames[frame];
  if (dirty) f.dirty = true;
  if constexpr (Threading::kConcurrent) {
    // Lock-free fast path: while other pins remain, dropping ours touches
    // no lock. Only the last unpinner takes the policy lock to hand the
    // frame back to the replacement policy.
    uint32_t old_pins = f.pins.fetch_sub(1);
    assert(old_pins > 0);
    if (old_pins == 1) {
      LockGuard<typename Threading::Mutex> pg(sh.policy_mu);
      // Recheck under the lock: the frame may have been re-pinned (skip),
      // or evicted and recycled by another thread (page changed). Policies
      // tolerate duplicate OnUnpinned, so the benign double-report race
      // with a concurrent pin/unpin cycle is harmless.
      if (f.pins.load() == 0 && f.page != kInvalidPageId) {
        sh.policy->OnUnpinned(frame);
      }
    }
  } else {
    assert(f.pins > 0);
    --f.pins;
    if (f.pins == 0) {
      sh.policy->OnUnpinned(frame);
    }
  }
}

/// The Buffer-Manager feature every existing product composes: the
/// single-threaded, zero-synchronization instantiation.
using PageGuard = BasicPageGuard<SingleThreaded>;
using BufferManager = BasicBufferManager<SingleThreaded>;

extern template class BasicPageGuard<SingleThreaded>;
extern template class BasicBufferManager<SingleThreaded>;

}  // namespace fame::storage

#endif  // FAME_STORAGE_BUFFER_H_
