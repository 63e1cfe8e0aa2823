// TransactionManager: the TRANSACTION feature of the FAME-DBMS feature
// diagram. Deferred-update transactions (writes buffered per transaction,
// read-your-writes) with strict 2PL locking, a WAL, and the feature
// diagram's *alternative commit protocols*:
//
//   kWalRedo ("no-force"): at commit the write set is logged + fsynced,
//     then applied to the engine; pages reach storage lazily. Crash
//     recovery replays committed transactions from the log.
//   kForceAtCommit ("force"): commit additionally checkpoints the engine
//     (flush + sync) and truncates the log — no redo needed after a crash,
//     at the cost of synchronous page writes. The protocol of choice when
//     RAM for a log replay buffer is scarce.
#ifndef FAME_TX_TXMGR_H_
#define FAME_TX_TXMGR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "osal/slab_alloc.h"
#include "tx/locks.h"
#include "tx/wal.h"

namespace fame::tx {

/// Engine-side interface the transaction layer applies committed writes
/// through; implemented by the storage engines (FAME-DBMS core, FameBDB).
class ApplyTarget {
 public:
  virtual ~ApplyTarget() = default;

  /// Applies a committed put to `store`.
  virtual Status ApplyPut(const std::string& store, const Slice& key,
                          const Slice& value) = 0;
  /// Applies a committed delete.
  virtual Status ApplyDelete(const std::string& store, const Slice& key) = 0;
  /// Reads current committed state (for transactional Get).
  virtual Status ReadCommitted(const std::string& store, const Slice& key,
                               std::string* value) = 0;
  /// Flushes engine state durably (force protocol / checkpoints).
  virtual Status CheckpointEngine() = 0;

  /// [feature Backup] Durably records the WAL retention watermark in the
  /// engine's metadata (FAME-DBMS stores it in the dual-slot PageFile
  /// meta). Called after CheckpointEngine() succeeded, before segments
  /// below `mark` are recycled. Default no-op: engines without a segmented
  /// log have no watermark to keep.
  virtual Status PersistWalMark(Lsn mark) {
    (void)mark;
    return Status::OK();
  }
  /// [feature Backup] Reads the persisted watermark back (0 when absent).
  virtual StatusOr<Lsn> LoadWalMark() { return static_cast<Lsn>(0); }

  /// [feature Mvcc] Installs `value` as a new version of `key` stamped
  /// `commit_ts`. Mvcc engines override to append to the key's version
  /// chain; re-applying a stamp at or below the chain head must be a
  /// no-op, which is what keeps replay / double-reopen / replication
  /// follower apply idempotent. The default ignores the stamp so legacy
  /// logs replay into non-Mvcc engines unchanged.
  virtual Status ApplyPutVersioned(const std::string& store, const Slice& key,
                                   const Slice& value, uint64_t commit_ts) {
    (void)commit_ts;
    return ApplyPut(store, key, value);
  }
  /// [feature Mvcc] Versioned delete: a tombstone version, not a physical
  /// remove (garbage collection reclaims the record once no snapshot can
  /// see it).
  virtual Status ApplyDeleteVersioned(const std::string& store,
                                      const Slice& key, uint64_t commit_ts) {
    (void)commit_ts;
    return ApplyDelete(store, key);
  }
  /// [feature Mvcc] Reads the version of `key` visible at snapshot `ts`.
  virtual Status ReadAtSnapshot(const std::string& store, const Slice& key,
                                uint64_t ts, std::string* value) {
    (void)ts;
    return ReadCommitted(store, key, value);
  }
};

/// [feature Mvcc] The seam through which an engine hands the transaction
/// manager its commit-timestamp oracle (tx::mvcc::MvccManager) without the
/// base transaction layer referencing the MVCC translation unit — same
/// idiom as Adopt() for the segmented log. Pure interface: txmgr.cc calls
/// through the vtable only, so Mvcc-less products link zero fame::tx::mvcc
/// symbols (cmake/CheckSymbols.cmake holds it to that).
class MvccHooks {
 public:
  virtual ~MvccHooks() = default;
  /// Opens a snapshot: returns its read timestamp (registered until
  /// ReleaseSnapshot so the GC watermark cannot pass it).
  virtual uint64_t BeginSnapshot() = 0;
  virtual void ReleaseSnapshot(uint64_t ts) = 0;
  /// First-committer-wins: assigns and returns a commit timestamp iff no
  /// key in `keys` ("store:key" strings) was committed by another
  /// transaction after `read_ts`; Busy otherwise. Winners on disjoint
  /// keys all succeed — this table is the only commit-time coordination.
  /// The returned ts is *in flight* (invisible to new snapshots) until the
  /// matching FinishCommit.
  virtual StatusOr<uint64_t> PrepareCommit(
      const std::vector<std::string>& keys, uint64_t read_ts) = 0;
  /// Marks `commit_ts` fully applied to the engine, releasing the
  /// visibility gate PrepareCommit installed. Without the gate a snapshot
  /// beginning between timestamp allocation and engine apply would read
  /// the old value first and the new value later — a non-repeatable read
  /// within one snapshot. Called once per PrepareCommit success, whether
  /// the commit pipeline succeeded or failed (a failed commit's ts can
  /// never become visible retroactively: recovery replays it or the
  /// engine has degraded to read-only).
  virtual void FinishCommit(uint64_t commit_ts) = 0;
  /// Min active snapshot ts (the GC watermark floor).
  virtual uint64_t Watermark() const = 0;
};

enum class CommitProtocol : uint8_t { kWalRedo = 0, kForceAtCommit = 1 };

class TransactionManager;

/// A transaction handle. Writes accumulate in its write set; Get sees its
/// own writes. Obtained from TransactionManager::Begin.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  bool active() const { return active_; }
  /// [feature Mvcc] The frozen read timestamp this transaction sees (0
  /// without the Mvcc feature).
  uint64_t snapshot_ts() const { return snapshot_ts_; }
  /// [feature Mvcc] The commit timestamp assigned at Commit (0 before, and
  /// 0 forever for read-only transactions).
  uint64_t commit_ts() const { return commit_ts_; }

#if FAME_SLAB_ENABLED
  // Begin() heap-allocated a fresh handle per transaction; with the slab
  // memory path the handle rides the thread-local object pool instead.
  // Handles belong to a single thread (see TransactionManager), so the
  // common begin/commit churn never leaves the allocating thread's cache;
  // a handle destroyed elsewhere falls back to the heap safely.
  static void* operator new(size_t n) { return osal::slab::PooledNew(n); }
  static void operator delete(void* p, size_t n) noexcept {
    osal::slab::PooledDelete(p, n);
  }
  static void operator delete(void* p) noexcept {
    osal::slab::PooledDelete(p);
  }
#endif

  /// Buffered transactional put (acquires an exclusive lock).
  Status Put(const std::string& store, const Slice& key, const Slice& value);
  /// Buffered transactional delete.
  Status Delete(const std::string& store, const Slice& key);
  /// Read-your-writes get (acquires a shared lock).
  Status Get(const std::string& store, const Slice& key, std::string* value);

 private:
  friend class TransactionManager;
  Transaction(TransactionManager* mgr, uint64_t id) : mgr_(mgr), id_(id) {}

  struct WriteOp {
    OpType op;
    std::string store;
    std::string key;
    std::string value;
  };

  TransactionManager* mgr_;
  uint64_t id_;
  bool active_ = true;
  std::vector<WriteOp> writes_;
  // (store, key) -> index into writes_ of the latest write, for
  // read-your-writes and write coalescing.
  std::map<std::pair<std::string, std::string>, size_t> latest_;
  uint64_t snapshot_ts_ = 0;  // [feature Mvcc] frozen read ts
  uint64_t commit_ts_ = 0;    // [feature Mvcc] assigned at commit
};

/// Coordinates transactions over one engine. Conflicts surface as
/// Busy/Deadlock from the lock manager and the caller aborts-and-retries.
///
/// Threading: single-threaded by default (`group_commit` off) with zero
/// locking — the historical engine. With the Concurrency feature selected,
/// Open is passed `group_commit = true` and the manager becomes safe for
/// one-transaction-per-thread use: transaction ids and counters are atomic,
/// shared maps and the lock manager are mutex-guarded, commit durability
/// goes through the WAL's group-commit epochs (one fsync amortized across
/// concurrent committers), and engine access — apply *and* ReadCommitted —
/// is serialized behind an apply mutex, because the storage engine under
/// the tx layer is not itself thread-safe. A Transaction handle still
/// belongs to a single thread.
class TransactionManager {
 public:
  /// `log_path` is created within `env` on first use. `group_commit`
  /// selects the concurrent commit path (Concurrency feature).
  static StatusOr<std::unique_ptr<TransactionManager>> Open(
      osal::Env* env, const std::string& log_path, ApplyTarget* target,
      CommitProtocol protocol, bool group_commit = false);

  /// [feature Backup] Like Open, but adopts an already-opened log — the
  /// seam through which products with the Backup feature hand in a
  /// segmented log (LogManager::OpenSegmented) without the base
  /// transaction layer referencing segment machinery.
  static StatusOr<std::unique_ptr<TransactionManager>> Adopt(
      std::unique_ptr<LogManager> log, ApplyTarget* target,
      CommitProtocol protocol, bool group_commit = false);

  /// Replays committed transactions from the log into the target (call once
  /// at startup, before Begin). A torn log tail is truncated and recovery
  /// continues; mid-log corruption is reported through recovery_report()
  /// (recovered LSN, dropped-record count) while the intact prefix is still
  /// applied. Checkpoints and truncates on success.
  Status Recover();

  /// What the last Recover() found in the log (zero-valued before Recover).
  const RecoveryReport& recovery_report() const { return report_; }

  /// Starts a transaction. The pointer stays valid until Commit/Abort.
  StatusOr<Transaction*> Begin();

  /// Durably commits `txn` per the configured protocol.
  Status Commit(Transaction* txn);

  /// Drops the write set and releases locks.
  Status Abort(Transaction* txn);

  /// Flush engine + truncate log (periodic housekeeping for kWalRedo).
  Status Checkpoint();

  /// Read-only integrity scan of the durable log: decodes every frame
  /// without applying anything and reports what a future recovery would
  /// find (torn tail, mid-log corruption, drop counts). Never mutates the
  /// log or the engine.
  Status ScanLog(RecoveryReport* report);

  /// Transactions begun but not yet committed/aborted.
  size_t active_transactions() const;

  CommitProtocol protocol() const { return protocol_; }
  bool group_commit() const { return group_commit_; }
  LockManager& locks() { return locks_; }
  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted() const { return aborted_.load(std::memory_order_relaxed); }
  /// WAL counters (fsync count feeds the fsyncs-per-commit metric).
  WalStats wal_stats() const { return log_->wal_stats(); }

  /// [feature Backup] True when the adopted log is segmented.
  bool wal_segmented() const { return log_->segmented(); }
  /// [feature Backup] Segment counters (zero-valued on a legacy log).
  WalSegmentStats wal_segment_stats() const { return log_->segment_stats(); }
  /// [feature Backup] End of the durable log — the upper bound a hot
  /// backup can capture.
  Lsn durable_lsn() const { return log_->durable_size(); }
  /// [feature Backup] Pauses/resumes segment recycling so a backup can
  /// copy a stable chain while commits continue.
  void PauseWalRecycle(bool paused) { log_->PauseRecycle(paused); }
  /// [feature Backup] Snapshot of the live segment chain.
  Status ListWalSegments(std::vector<WalSegmentInfo>* out) const {
    return log_->ListSegments(out);
  }
  /// [feature Backup] Offline-grade chain verification (fame_check).
  Status VerifyWalChain(std::vector<std::string>* issues) const {
    return log_->VerifySegmentChain(issues);
  }
  /// [feature Replication] Raises the fencing epoch stamped into WAL
  /// segments created from now on (monotone; no-op on a legacy log).
  void SetWalFenceEpoch(uint32_t epoch) { log_->SetSegmentEpoch(epoch); }
  /// [feature Replication] Current fencing epoch of the segmented log.
  uint32_t wal_fence_epoch() const { return log_->segment_epoch(); }
  /// [feature Backup] Runs `fn` with engine applies (and checkpoints)
  /// excluded, so a fuzzy page copy sees no concurrent page writes. In
  /// single-threaded builds this is just `fn()`.
  Status WithApplyPaused(const std::function<Status()>& fn);

  /// [feature Mvcc] Installs the engine's commit-timestamp oracle. Call
  /// before Begin/Recover; a null hooks pointer (the default) keeps the
  /// 2PL path byte-identical. From here on transactions carry snapshot
  /// timestamps, Put/Delete take no locks, and Commit runs the
  /// first-committer-wins check instead of relying on lock conflicts.
  void EnableMvcc(MvccHooks* hooks) { mvcc_ = hooks; }
  bool mvcc_enabled() const { return mvcc_ != nullptr; }
  /// [feature Mvcc] Snapshot read behind the apply mutex (the engine
  /// under the tx layer is not thread-safe; readers share its short apply
  /// sections but never wait on writer *transactions* — no read locks).
  Status SnapshotReadSafe(const std::string& store, const Slice& key,
                          uint64_t ts, std::string* value);
#if FAME_OBS_ENABLED
  /// [feature Observability] Records-per-flush histogram of the WAL.
  obs::HistogramSnapshot wal_batch_histogram() const {
    return log_->batch_records_histogram();
  }
#endif

 private:
  friend class Transaction;

  TransactionManager(ApplyTarget* target, CommitProtocol protocol)
      : target_(target), protocol_(protocol) {}

  /// Commit body; the caller handles finishing the transaction and cleanup
  /// on failure.
  Status CommitInternal(Transaction* txn);
  /// Log + sync + apply (+ force checkpoint) for one transaction.
  Status CommitPipeline(Transaction* txn);

  /// Lock-manager access, serialized when group commit is on.
  Status AcquireLock(uint64_t txid, const std::string& what, LockMode mode);
  void ReleaseLocks(uint64_t txid);
  /// Engine read behind the apply mutex when group commit is on.
  Status ReadCommittedSafe(const std::string& store, const Slice& key,
                           std::string* value);
  /// Moves a finished handle from active_ to the bounded retired_ pool.
  void Retire(Transaction* txn);

  ApplyTarget* target_;
  CommitProtocol protocol_;
  bool group_commit_ = false;
  std::unique_ptr<LogManager> log_;
  LockManager locks_;
  MvccHooks* mvcc_ = nullptr;  // [feature Mvcc] null = 2PL path
  std::atomic<uint64_t> next_txid_{1};
  std::map<uint64_t, std::unique_ptr<Transaction>> active_;
  /// The most recently finished handles, kept alive (bounded FIFO, oldest
  /// evicted first) purely for determinism: "the pointer stays valid until
  /// Commit/Abort" used to mean a second Commit on a finished handle read
  /// freed memory — now the handle outlives its transaction and the second
  /// call fails InvalidArgument cleanly. Handles are never *recycled* into
  /// fresh transactions: Begin always allocates, so a stale pointer can
  /// never alias a newer transaction and silently commit/abort it.
  std::vector<std::unique_ptr<Transaction>> retired_;
  static constexpr size_t kMaxRetired = 32;
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  RecoveryReport report_;

  // Group-commit mode only; never locked otherwise.
  mutable std::mutex state_mu_;  // next/active_ bookkeeping
  std::mutex locks_mu_;          // LockManager is not thread-safe
  std::mutex apply_mu_;          // engine apply + reads (engine not MT-safe)
  /// Commit pipelines hold this shared from append through apply;
  /// Checkpoint (and force-protocol commits, which truncate the log) hold
  /// it exclusive. Prevents a checkpoint from truncating records whose
  /// engine apply has not happened yet.
  std::shared_mutex checkpoint_mu_;
};

}  // namespace fame::tx

#endif  // FAME_TX_TXMGR_H_
