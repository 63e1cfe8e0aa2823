// StaticEngine: the FeatureC++-equivalent composition of the FAME-DBMS
// prototype (paper §2.3). A product is described by a compile-time Cfg
// traits struct; unselected features either do not instantiate (method
// templates are instantiated on use only) or fail the build via
// static_assert — "the application contains only and exactly the
// functionality required".
//
// Cfg requirements:
//   using IndexTag            — core::BtreeTag or core::ListTag
//   static constexpr bool kPut, kRemove, kUpdate;   // Access features
//   static constexpr bool kTransactions;            // Transaction feature
//   static constexpr bool kForceCommit;             // commit protocol alt
//   static constexpr const char* kReplacement;      // "lru"|"lfu"|"clock"
//   static constexpr uint32_t kPageSize;
//   static constexpr size_t kBufferFrames;
//   static constexpr size_t kStaticPoolBytes;       // 0 => Dynamic alloc
//   static constexpr bool kConcurrency;             // optional Concurrency
//                                                   // feature; absent => off
//   static constexpr bool kReverseScan;             // optional ReverseScan
//                                                   // feature; absent => off
//
// With Concurrency selected, the transaction surface (Begin/Commit/Abort,
// one transaction per thread) becomes thread-safe and commits batch through
// WAL group commit; the read-only degradation latch turns mutex-guarded.
// Deselected products compile to the historical lock-free engine.
#ifndef FAME_CORE_STATIC_ENGINE_H_
#define FAME_CORE_STATIC_ENGINE_H_

#include <memory>
#include <string>
#include <type_traits>

#include "core/engine_host.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "osal/allocator.h"
#include "osal/slab_alloc.h"

namespace fame::core {

template <typename Cfg>
class StaticEngine;

/// Index alternatives for the core product line.
struct BtreeTag {
  using Type = index::BPlusTree;
  static constexpr bool kOrdered = true;
  static StatusOr<std::unique_ptr<Type>> Open(storage::BufferManager* b) {
    return Type::Open(b, "core");
  }
};
struct ListTag {
  using Type = index::ListIndex;
  static constexpr bool kOrdered = false;
  static StatusOr<std::unique_ptr<Type>> Open(storage::BufferManager* b) {
    return Type::Open(b, "core");
  }
};

namespace detail {

/// Memory Alloc alternative, selected at compile time. Static products
/// take the whole kPoolBytes budget in one allocation at construction and
/// never touch the heap again: the slab allocator's segregated classes
/// make every Allocate/Deallocate O(1) (the old StaticPoolAllocator
/// first-fit walk remains available when the slab feature is compiled
/// out). Products that deselect the slab build link no fame::osal::slab
/// symbols — the alloc nm probe pair enforces it.
template <size_t kPoolBytes>
struct AllocState {  // Static
#if FAME_SLAB_ENABLED
  osal::slab::StaticSlabAllocator alloc{kPoolBytes};
#else
  osal::StaticPoolAllocator alloc{kPoolBytes};
#endif
  osal::Allocator* get() { return &alloc; }
  const osal::Allocator* get() const { return &alloc; }
};
template <>
struct AllocState<0> {  // Dynamic
  osal::DynamicAllocator alloc;
  osal::Allocator* get() { return &alloc; }
  const osal::Allocator* get() const { return &alloc; }
};

/// Detects the optional Concurrency feature: Cfg structs written before the
/// feature existed (no kConcurrency member) keep compiling and mean "off".
template <typename Cfg, typename = void>
struct ConcurrencySelected : std::false_type {};
template <typename Cfg>
struct ConcurrencySelected<Cfg, std::void_t<decltype(Cfg::kConcurrency)>>
    : std::bool_constant<Cfg::kConcurrency> {};

/// Detects the optional ReverseScan sub-feature of Access; Cfg structs
/// without a kReverseScan member mean "off".
template <typename Cfg, typename = void>
struct ReverseScanSelected : std::false_type {};
template <typename Cfg>
struct ReverseScanSelected<Cfg, std::void_t<decltype(Cfg::kReverseScan)>>
    : std::bool_constant<Cfg::kReverseScan> {};

/// Detects the optional Observability sub-feature of Storage; Cfg structs
/// without a kObservability member mean "off".
template <typename Cfg, typename = void>
struct ObservabilitySelected : std::false_type {};
template <typename Cfg>
struct ObservabilitySelected<Cfg, std::void_t<decltype(Cfg::kObservability)>>
    : std::bool_constant<Cfg::kObservability> {};

/// Detects the optional Backup sub-feature of Storage (segmented WAL with
/// retention watermarks + hot backup); Cfg structs without a kBackup
/// member mean "off" and keep the legacy single-file log byte for byte.
template <typename Cfg, typename = void>
struct BackupSelected : std::false_type {};
template <typename Cfg>
struct BackupSelected<Cfg, std::void_t<decltype(Cfg::kBackup)>>
    : std::bool_constant<Cfg::kBackup> {};

/// Detects the optional Pitr sub-feature of Backup (archive recycled
/// segments for point-in-time recovery).
template <typename Cfg, typename = void>
struct PitrSelected : std::false_type {};
template <typename Cfg>
struct PitrSelected<Cfg, std::void_t<decltype(Cfg::kPitr)>>
    : std::bool_constant<Cfg::kPitr> {};

/// Detects the optional Replication sub-feature of Storage (epoch-fenced
/// WAL shipping); Cfg structs without a kReplication member mean "off" and
/// carry no fencing state or code.
template <typename Cfg, typename = void>
struct ReplicationSelected : std::false_type {};
template <typename Cfg>
struct ReplicationSelected<Cfg, std::void_t<decltype(Cfg::kReplication)>>
    : std::bool_constant<Cfg::kReplication> {};

/// Detects the optional Failover sub-feature of Replication (promotion).
template <typename Cfg, typename = void>
struct FailoverSelected : std::false_type {};
template <typename Cfg>
struct FailoverSelected<Cfg, std::void_t<decltype(Cfg::kFailover)>>
    : std::bool_constant<Cfg::kFailover> {};

/// Detects the optional Mvcc sub-feature of Transaction (snapshot
/// isolation over version-chained records); Cfg structs without a kMvcc
/// member mean "off" and keep the plain-bytes record codec byte for byte.
template <typename Cfg, typename = void>
struct MvccSelected : std::false_type {};
template <typename Cfg>
struct MvccSelected<Cfg, std::void_t<decltype(Cfg::kMvcc)>>
    : std::bool_constant<Cfg::kMvcc> {};

/// Detects the optional segment-size knob (bytes per WAL segment before a
/// roll); defaults to 64 KiB when the Cfg does not name one.
template <typename Cfg, typename = void>
struct SegmentBytes {
  static constexpr uint64_t value = 64 * 1024;
};
template <typename Cfg>
struct SegmentBytes<Cfg, std::void_t<decltype(Cfg::kWalSegmentBytes)>> {
  static constexpr uint64_t value = Cfg::kWalSegmentBytes;
};

/// The host policy of a static product: every "may" bound is the Cfg
/// trait, and every "is" bit is that same constant — so `if constexpr` in
/// the host discards what the product deselects, and the runtime checks
/// fold away.
template <typename Cfg>
struct StaticHostPolicy {
  using Shell = StaticEngine<Cfg>;
  using Index = typename Cfg::IndexTag::Type;
  using Resources = AllocState<Cfg::kStaticPoolBytes>;

  static constexpr bool kTransactions = Cfg::kTransactions;
  static constexpr bool kConcurrent = ConcurrencySelected<Cfg>::value;
  static constexpr bool kMvcc = MvccSelected<Cfg>::value;
  static constexpr bool kBackup = BackupSelected<Cfg>::value;
  static constexpr bool kReplication = ReplicationSelected<Cfg>::value;
  static constexpr bool kFlightRecorder = false;
#if FAME_OBS_ENABLED
  static constexpr bool kMetrics = ObservabilitySelected<Cfg>::value;
  /// Plain integers in single-threaded products, relaxed atomics when the
  /// Concurrency feature is selected — the same policy split as the
  /// buffer pool (storage/concurrency.h).
  using ObsCells = std::conditional_t<kConcurrent, obs::SharedCells,
                                      storage::SingleThreaded>;
  using Metrics = std::conditional_t<
      kMetrics, obs::BasicMetricsRegistry<ObsCells>, NoMetrics>;
#else
  static constexpr bool kMetrics = false;
  using Metrics = NoMetrics;
#endif

  static constexpr bool transactions() { return kTransactions; }
  static constexpr bool mvcc() { return kMvcc; }
  static constexpr bool backup() { return kBackup; }
  static constexpr bool pitr() { return PitrSelected<Cfg>::value; }
  static constexpr bool concurrent() { return kConcurrent; }
  static constexpr bool force_commit() { return Cfg::kForceCommit; }
  static constexpr uint32_t page_size() { return Cfg::kPageSize; }
  static constexpr size_t buffer_frames() { return Cfg::kBufferFrames; }
  static constexpr const char* replacement() { return Cfg::kReplacement; }
  static constexpr uint64_t wal_segment_bytes() {
    return SegmentBytes<Cfg>::value;
  }
  static auto OpenIndex(storage::BufferManager* b) {
    return Cfg::IndexTag::Open(b);
  }
};

}  // namespace detail

template <typename Cfg>
class StaticEngine : private EngineHost<detail::StaticHostPolicy<Cfg>> {
  using Host = EngineHost<detail::StaticHostPolicy<Cfg>>;
  friend Host;

 public:
  using Index = typename Cfg::IndexTag::Type;
  static constexpr bool kOrdered = Cfg::IndexTag::kOrdered;
  /// Optional Concurrency feature (off for Cfgs that predate it).
  static constexpr bool kConcurrent = detail::ConcurrencySelected<Cfg>::value;
  /// Optional ReverseScan feature (off for Cfgs that predate it).
  static constexpr bool kReverse = detail::ReverseScanSelected<Cfg>::value;
  /// Optional Backup feature: segmented WAL, retention watermarks, hot
  /// backup. Off (legacy single-file log) for Cfgs that predate it.
  static constexpr bool kBackupFeature = detail::BackupSelected<Cfg>::value;
  /// Optional Pitr sub-feature of Backup: archive recycled segments.
  static constexpr bool kPitr = detail::PitrSelected<Cfg>::value;
  static_assert(!kPitr || kBackupFeature, "Pitr requires Backup");
  static_assert(!kBackupFeature || Cfg::kTransactions,
                "Backup requires Transaction");
  /// Optional Replication feature: epoch-fenced WAL shipping. Off for
  /// Cfgs that predate it; selecting it sizes the fencing state and brings
  /// the stamping code and VerifyIntegrity (the model's Replication
  /// requires Verify). The shipping loop and the follower's staging live
  /// in fame::repl and are linked only by products that use them; a
  /// follower replays through this same product.
  static constexpr bool kReplication = detail::ReplicationSelected<Cfg>::value;
  /// Optional Failover sub-feature of Replication: the promotion ceremony.
  static constexpr bool kFailoverFeature = detail::FailoverSelected<Cfg>::value;
  static_assert(!kReplication || kBackupFeature,
                "Replication requires Backup");
  static_assert(!kFailoverFeature || kReplication,
                "Failover requires Replication");
  /// Optional Mvcc sub-feature of Transaction: snapshot-isolation
  /// transactions over version-chained records, first-committer-wins
  /// commits, watermark GC. Off for Cfgs that predate it — their record
  /// path stays on the plain-bytes codec and links zero fame::tx::mvcc
  /// symbols (cmake/CheckSymbols.cmake).
  static constexpr bool kMvcc = detail::MvccSelected<Cfg>::value;
  static_assert(!kMvcc || Cfg::kTransactions, "Mvcc requires Transaction");
  /// Optional Observability feature (off for Cfgs that predate it). In a
  /// build with FAME_OBS_DISABLE the trait is pinned off and the metrics
  /// surface does not exist at all.
  static constexpr bool kObservability =
      detail::StaticHostPolicy<Cfg>::kMetrics;
#if FAME_OBS_ENABLED
  using ObsCells = typename detail::StaticHostPolicy<Cfg>::ObsCells;
#endif

  StaticEngine() = default;

  /// Opens the engine at `path` in `env`. With the Transaction feature the
  /// WAL is recovered before the call returns.
  Status Open(osal::Env* env, const std::string& path) {
    return this->OpenEngine(env, path);
  }

  // The access-path bodies live in EngineCore<Index> and the lifecycle in
  // EngineHost — the same templates Database instantiates over the virtual
  // index interface; here they are instantiated over the concrete index
  // type, so calls devirtualize. StaticEngine adds only compile-time gating
  // and the op timers.

  /// Access:get — present in every product.
  Status Get(const Slice& key, std::string* value) {
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.get_ns);
      metrics_.gets.Add(1);
      return GetRecord(key, value);
    }
#endif
    return GetRecord(key, value);
  }

  /// Access:put.
  Status Put(const Slice& key, const Slice& value) {
    static_assert(Cfg::kPut, "feature Access:Put is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.put_ns);
      metrics_.puts.Add(1);
      return NoteWrite(PutRecord(key, value));
    }
#endif
    return NoteWrite(PutRecord(key, value));
  }

  /// Access:remove.
  Status Remove(const Slice& key) {
    static_assert(Cfg::kRemove, "feature Access:Remove is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.remove_ns);
      metrics_.removes.Add(1);
      return NoteWrite(RemoveRecord(key));
    }
#endif
    return NoteWrite(RemoveRecord(key));
  }

  /// Access:update — put that requires the key to exist.
  Status Update(const Slice& key, const Slice& value) {
    static_assert(Cfg::kUpdate, "feature Access:Update is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
    FAME_RETURN_IF_ERROR(RequireVisible(key));
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.put_ns);
      metrics_.puts.Add(1);
      return NoteWrite(PutRecord(key, value));
    }
#endif
    return NoteWrite(PutRecord(key, value));
  }

  /// Pull-based cursor over the engine's records (heap-joined values).
  /// Mutation invalidates open cursors; re-Seek after writes.
  StatusOr<EngineCursor> NewCursor() { return core_.NewCursor(); }

  /// Full scan (index order) — visitor adapter over the cursor.
  Status Scan(const KvVisitor& fn) {
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.scan_ns);
      metrics_.scans.Add(1);
      return ScanRecords(fn);
    }
#endif
    return ScanRecords(fn);
  }

  /// Ordered range scan — compile-time gated on the B+-tree alternative.
  Status RangeScan(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    static_assert(kOrdered, "RangeScan requires the B+-Tree alternative");
    return this->RangeRecords(lo, hi, fn);
  }

  /// Descending scan over [lo, hi) — the ReverseScan feature, gated at
  /// compile time (and model-constrained to the B+-Tree alternative).
  Status ReverseScan(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    static_assert(kReverse, "feature Access:ReverseScan is not selected");
    static_assert(kOrdered, "ReverseScan requires the B+-Tree alternative");
    return this->ReverseRecords(lo, hi, fn);
  }

  // ---- Transaction feature surface (instantiated on use only) ----
  StatusOr<tx::Transaction*> Begin() {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return txmgr_->Begin();
  }
  Status Commit(tx::Transaction* txn) {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return Host::Commit(txn);
  }
  Status Abort(tx::Transaction* txn) {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return txmgr_->Abort(txn);
  }
  using Host::Checkpoint;

  // ---- Transaction ▸ Mvcc feature surface (instantiated on use only) ----
  /// [feature Mvcc] Cursor frozen at the current read timestamp: positions
  /// resolve through the version chains, so writers committing after the
  /// open never change what it returns.
  StatusOr<SnapshotCursor> NewSnapshotCursor() {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return Host::NewSnapshotCursor();
  }
  /// [feature Mvcc] Watermark GC: prunes versions no active snapshot can
  /// see, persists the sweep watermark ("mvcc.mark"). Returns versions
  /// pruned.
  StatusOr<uint64_t> MvccGc() {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return Host::MvccGc();
  }
  /// [feature Mvcc] Watermark of the last completed GC sweep (persisted).
  uint64_t mvcc_gc_mark() const {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return Host::mvcc_gc_mark();
  }
  /// [feature Mvcc] Oracle counters.
  tx::mvcc::MvccStats mvcc_stats() const {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return Host::mvcc_stats();
  }

  // ---- Backup / Pitr feature surface (instantiated on use only) ----
  /// [feature Backup] Online hot backup to destination prefix `dest`;
  /// see core::backup::RunBackup for the artifact layout.
  Status Backup(const std::string& dest,
                backup::BackupReport* report = nullptr) {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    return Host::Backup(dest, report);
  }
  /// [feature Backup] Rebuilds a database at `dest_path` from the backup
  /// at prefix `src` (static: runs against files, not a live engine).
  static Status Restore(osal::Env* env, const std::string& src,
                        const std::string& dest_path,
                        const backup::RestoreOptions& opts = {},
                        backup::RestoreReport* report = nullptr) {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    return backup::RunRestore(env, src, dest_path, opts, report);
  }
  /// [feature Backup] End of the durable log — a valid PITR target.
  uint64_t DurableLsn() const {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return Host::DurableLsn();
  }
  /// [feature Backup] Segment-chain counters.
  tx::WalSegmentStats wal_segment_stats() const {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    return Host::wal_segment_stats();
  }

  // ---- Replication / Failover feature surface (instantiated on use) ----
  /// [feature Replication] Takes (or resumes) leadership under fencing
  /// epoch `epoch`: persisted in the meta and stamped into every segment
  /// created from here on.
  Status StartLeader(uint32_t epoch) {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return Host::StartLeader(epoch);
  }
  /// [feature Replication] Fences this product as a read-only follower.
  Status StartFollower(uint32_t epoch) {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return Host::StartFollower(epoch);
  }
  /// [feature Verify] Full integrity pass (page scrub, free-list audit,
  /// index invariants, heap/index cross-check, WAL scan); OK only when the
  /// report is clean. Static products carry Verify with Replication, which
  /// the model makes require it: a replica that cannot scrub itself cannot
  /// detect divergence.
  Status VerifyIntegrity(storage::IntegrityReport* report) {
    static_assert(kReplication,
                  "feature Verify is not selected (static products carry it "
                  "with Storage:Replication)");
    storage::Scrubber scrubber(this->file_.get());
    return Host::VerifyIntegrity(&scrubber, report);
  }
  /// [feature Failover] Integrity-gated promotion: verifies the store
  /// (DataLoss on any finding), then re-fences this follower as leader
  /// under `epoch` (> current).
  Status Promote(uint32_t epoch) {
    static_assert(kFailoverFeature,
                  "feature Replication:Failover is not selected");
    storage::Scrubber scrubber(this->file_.get());
    return Host::Promote(epoch, &scrubber);
  }
  /// [feature Replication] Borrowed live handles for a repl::Leader.
  backup::BackupContext ReplicationSource() {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return this->BackupSource();
  }
  uint32_t repl_epoch() const {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return Host::repl_epoch();
  }
  bool repl_follower() const {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return Host::repl_follower();
  }

  // ---- degraded (read-only) mode and components ----
  using Host::degraded_status;
  using Host::read_only;
  using Host::recovery_report;
  using Host::allocator;
  using Host::buffers;
  using Host::index;

#if FAME_OBS_ENABLED
  /// [feature Observability] Snapshot of every metric this product
  /// collects. Compile-time gated like ReverseScan: products that
  /// deselect the feature fail the static_assert (and carry none of the
  /// collection code).
  obs::MetricsSnapshot GetMetricsSnapshot() const {
    static_assert(kObservability,
                  "feature Storage:Observability is not selected");
    return this->AssembleMetrics();
  }
#endif

 private:
  using Host::core_;
  using Host::GetRecord;
  using Host::GuardWrite;
  using Host::metrics_;
  using Host::NoteWrite;
  using Host::PutRecord;
  using Host::RemoveRecord;
  using Host::RequireVisible;
  using Host::ScanRecords;
  using Host::txmgr_;
};

}  // namespace fame::core

#endif  // FAME_CORE_STATIC_ENGINE_H_
