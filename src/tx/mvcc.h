// MVCC: the Transaction feature's optional Mvcc sub-feature — snapshot
// isolation over version-chained records. Everything version-specific
// lives in this translation unit (namespace fame::tx::mvcc) so products
// that do not select Mvcc link none of it: the transaction manager reaches
// the machinery only through the tx::MvccHooks interface (txmgr.h), the
// engines only through lazily-instantiated template members — the same
// TU-separation idiom the Backup (fame::tx::seg) and Replication
// (fame::repl) features use, enforced by cmake/CheckSymbols.cmake.
//
// Version-chain record format (the *value* half of an engine record, after
// the [varint32 klen][key] prefix):
//
//   entry*            newest first
//   entry = [varint64 begin_ts][varint64 end_ts][u8 flags][varint32 vlen]
//           [vlen value bytes]
//
// end_ts == 0 means "open" (visible to every snapshot at or past
// begin_ts); flags bit0 marks a tombstone (a versioned delete). A reader
// at snapshot ts sees the first entry with begin_ts <= ts < end_ts
// (end_ts == 0 counting as infinity). Garbage collection prunes entries
// whose end_ts lies at or below the min-active-snapshot watermark — the
// same retention-watermark idiom the segmented WAL uses for its segments.
#ifndef FAME_TX_MVCC_H_
#define FAME_TX_MVCC_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "tx/txmgr.h"

namespace fame::tx::mvcc {

/// One decoded version-chain entry.
struct Version {
  uint64_t begin_ts = 0;
  uint64_t end_ts = 0;  ///< 0 = open (no successor yet)
  bool tombstone = false;
  Slice value;  ///< points into the chain bytes
};

// ---------------------------------------------------------------- codec

/// Appends a new head version (commit_ts, value | tombstone) to `chain`
/// (the existing chain bytes, possibly empty), closing the previous head
/// at commit_ts and dropping entries already dead below `prune_below`
/// (pass 0 to keep everything). A head already carrying commit_ts is
/// replaced instead of chained behind — ops of one transaction share its
/// commit ts, so the last op on a key wins and replay converges. Output
/// goes to *out; returns the resulting number of entries.
uint32_t AppendVersion(const Slice& chain, uint64_t commit_ts,
                       bool tombstone, const Slice& value,
                       uint64_t prune_below, std::string* out);

/// Finds the version visible at snapshot `ts`. Returns OK with *v filled,
/// NotFound when no entry is visible at ts (or the visible entry is a
/// tombstone — v->tombstone tells the caller which), Corruption on a
/// malformed chain.
Status VisibleAt(const Slice& chain, uint64_t ts, Version* v);

/// begin_ts of the newest (head) entry; 0 on an empty/corrupt chain.
/// Replay idempotence pivots on this: re-applying a version whose ts is
/// at or below the head's is a no-op.
uint64_t HeadTs(const Slice& chain);

/// Decodes every entry (newest first). Corruption on malformed bytes.
Status DecodeChain(const Slice& chain, std::vector<Version>* out);

/// Rewrites `chain` without entries dead at `watermark` (end_ts != 0 and
/// end_ts <= watermark; a head tombstone with begin_ts <= watermark dies
/// too — no snapshot can resurrect it). *pruned counts dropped entries;
/// an empty *out means the whole key is dead and the record can go.
Status PruneChain(const Slice& chain, uint64_t watermark, std::string* out,
                  uint64_t* pruned);

// ------------------------------------------------------------- manager

/// Counters the engines surface through the Observability feature.
struct MvccStats {
  uint64_t active_snapshots = 0;
  uint64_t conflicts = 0;       ///< commits refused first-committer-wins
  uint64_t gc_runs = 0;
  uint64_t gc_pruned = 0;       ///< versions dropped by GC sweeps
  uint64_t watermark = 0;       ///< min active snapshot ts at snapshot time
  uint64_t clock = 0;           ///< last assigned commit timestamp
};

/// The commit-timestamp oracle + snapshot registry + first-committer-wins
/// conflict table, shared by one engine. Thread-safe (its own mutex) so
/// disjoint-key writers never funnel through the lock manager: writers
/// skip 2PL entirely, touch this table once at commit, and group-commit
/// batches their WAL appends as before.
class MvccManager : public MvccHooks {
 public:
  MvccManager() = default;

  // MvccHooks.
  uint64_t BeginSnapshot() override;
  void ReleaseSnapshot(uint64_t ts) override;
  StatusOr<uint64_t> PrepareCommit(const std::vector<std::string>& keys,
                                   uint64_t read_ts) override;
  void FinishCommit(uint64_t commit_ts) override;
  uint64_t Watermark() const override;

  /// Auto-commit (non-transactional) write on one key: assigns a commit
  /// timestamp, records the key in the first-committer-wins table — so an
  /// MVCC transaction that read the key before this write conflicts at its
  /// own commit instead of silently overwriting — and registers the ts as
  /// in-flight until FinishCommit. Never conflicts itself: an auto-commit
  /// write is not based on a stale snapshot read.
  uint64_t PrepareAutoCommit(const std::string& key);
  /// Bare timestamp tick for recovery-time replay of legacy (ts-less) log
  /// records into a versioned engine — single-threaded, no readers, so it
  /// skips the pending registration the live write paths need.
  uint64_t AdvanceClock();
  /// Current read timestamp: the newest *fully applied* commit (in-flight
  /// commits gate it — see pending_).
  uint64_t ReadTs() const;
  /// Raw clock (last allocated commit ts) for meta persistence: chains on
  /// disk may carry in-flight stamps past ReadTs, and recovery must seed
  /// the clock at or above every persisted version.
  uint64_t Clock() const;
  /// Raises the clock to at least `ts` — recovery seeds it from the
  /// persisted checkpoint clock and the max commit ts seen in replay, so
  /// post-restart commits always stamp past every version on disk.
  void SeedClock(uint64_t ts);

  void RecordGcRun(uint64_t pruned);
  void RecordChainLen(uint64_t len);
  MvccStats stats() const;
  obs::HistogramSnapshot chain_len_histogram() const;

  /// Physical page latch for the lock-free read path. MVCC readers hold no
  /// table locks, yet a version write can compact a heap page, relocate a
  /// record, or split a B+-tree node — byte-level motion a concurrent
  /// reader could tear mid-decode. Appliers (WriteVersion, GC sweeps) hold
  /// this exclusive per mutation; snapshot readers hold it shared per
  /// *step* (one descent + heap join), never across a whole scan — so
  /// writers stall for at most one cursor step, and readers never see a
  /// page mid-surgery. Distinct from mu_ (the oracle lock): phys is always
  /// acquired first when both are needed, never the other way around.
  std::shared_mutex& PhysLatch() const { return phys_mu_; }

 private:
  mutable std::shared_mutex phys_mu_;
  mutable std::mutex mu_;
  uint64_t clock_ = 0;
  /// Commit timestamps allocated (PrepareCommit / PrepareAutoCommit) but
  /// not yet fully applied to the engine (FinishCommit). Snapshots form
  /// strictly below the smallest pending ts: a snapshot at or past an
  /// unapplied commit would miss its version now and find it later — a
  /// non-repeatable read within one snapshot.
  std::set<uint64_t> pending_;
  /// Active snapshot timestamps with refcounts (several readers may share
  /// one ts when no commit happened between their Begins).
  std::map<uint64_t, uint32_t> snapshots_;
  /// key -> last commit ts, for first-committer-wins. Entries at or below
  /// the watermark cannot conflict with any live snapshot and are shed
  /// opportunistically to bound memory.
  std::unordered_map<std::string, uint64_t> last_commit_;
  uint64_t conflicts_ = 0;
  uint64_t gc_runs_ = 0;
  uint64_t gc_pruned_ = 0;
  obs::BasicHistogram<obs::SharedCells> chain_len_;

  uint64_t WatermarkLocked() const;
  uint64_t VisibleTsLocked() const;
  void ShedLastCommitLocked(size_t write_set);
};

}  // namespace fame::tx::mvcc

#endif  // FAME_TX_MVCC_H_
