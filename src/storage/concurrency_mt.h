// MultiThreaded policy — the runtime half of the optional "Concurrency"
// Storage feature. Only translation units belonging to products that select
// the feature include this header; everything else sees only
// concurrency.h's SingleThreaded policy and never compiles against
// <mutex>/<atomic> in the buffer path.
//
// Instantiated as BasicBufferManager<MultiThreaded> (alias
// ConcurrentBufferManager in buffer_concurrent.h), the pool becomes up to
// kDefaultShards lock-striped partitions (fewer for pools too small to give
// each one 8 frames); pins and stats become atomics so
// concurrent readers share frames without serializing on release.
#ifndef FAME_STORAGE_CONCURRENCY_MT_H_
#define FAME_STORAGE_CONCURRENCY_MT_H_

#include <atomic>
#include <mutex>
#include <shared_mutex>

#include "storage/concurrency.h"

namespace fame::storage {

struct MultiThreaded {
  static constexpr bool kConcurrent = true;
  /// Lock stripes. Page ids are hash-partitioned across shards, each with
  /// its own frames, page table, replacement policy, and stats, so threads
  /// touching different shards never contend. Pools under 128 frames get
  /// fewer shards (BasicBufferManager::kMinShardFrames).
  static constexpr size_t kDefaultShards = 16;

  using Mutex = std::mutex;
  using SharedMutex = std::shared_mutex;

  /// Atomic pin count: concurrent readers pin the same frame with a
  /// fetch_add under a *shared* table lock; eviction requires the exclusive
  /// lock, so a nonzero pin observed there is authoritative.
  using PinCount = std::atomic<uint32_t>;
  using Counter = std::atomic<uint64_t>;
  using Flag = std::atomic<bool>;
  /// Frame -> page mapping: mutated only under the exclusive table lock but
  /// read from the lock-free unpin slow path, so it must be tear-free.
  using U32Cell = std::atomic<uint32_t>;
};

}  // namespace fame::storage

#endif  // FAME_STORAGE_CONCURRENCY_MT_H_
