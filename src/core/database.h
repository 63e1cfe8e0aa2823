// Database: the runtime facade of the FAME-DBMS product line (the API
// feature). Where the StaticEngine products are composed at compile time
// (FeatureC++-equivalent), Database composes *components at runtime* from a
// validated feature Configuration — the component-based comparator the
// paper discusses in §2.1 (flexible, but paying dispatch overhead; the
// ablation bench measures exactly that gap).
#ifndef FAME_CORE_DATABASE_H_
#define FAME_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "core/backup.h"
#include "core/datatypes.h"
#include "core/engine_host.h"
#include "featuremodel/fame_model.h"
#include "index/index.h"
#include "obs/metrics.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "storage/buffer.h"
#include "storage/integrity.h"
#include "storage/record.h"
#include "tx/txmgr.h"

namespace fame::core {

/// Open options: a feature selection plus tuning knobs. Feature names are
/// those of the Figure 2 model; Open() validates the selection against the
/// model (propagation + completeness) before composing anything.
struct DbOptions {
  /// Feature names to select; everything forced by the model is added by
  /// propagation, everything else is excluded (minimal completion).
  std::vector<std::string> features = {"Linux", "Dynamic", "LRU", "B+-Tree",
                                       "BTree-Search", "Int-Types",
                                       "String-Types", "Get", "Put", "API"};
  std::string path = "fame.db";
  uint32_t page_size = 4096;
  size_t buffer_frames = 64;
  size_t static_pool_bytes = 256 * 1024;  // used with feature Static
  uint64_t nutos_capacity_bytes = 0;      // device budget with feature NutOS
  /// [feature Backup] Segment roll threshold of the segmented WAL.
  uint64_t wal_segment_bytes = 64 * 1024;
  /// Env for feature Linux; NutOS products create an owned MemEnv.
  osal::Env* env = nullptr;  // nullptr = GetPosixEnv()
};

class SqlEngine;

/// One-stop observability snapshot (Database::GetStats): buffer pool,
/// scrubbing, fault/degradation, repair, and transaction counters that were
/// previously scattered across component accessors or stderr logs. The
/// legacy named fields are kept for existing callers; `metrics` carries the
/// same values (plus the Observability extensions) and is what ToString
/// renders — there is exactly one serializer (obs::RenderText).
struct DbStats {
  storage::BufferStats buffer;
  storage::ScrubStats scrub;
  /// Process-wide meta writes lost in destructor-time best-effort closes.
  uint64_t lost_meta_writes = 0;
  /// Process-wide dirty-page writebacks lost in destructor-time best-effort
  /// buffer flushes (the FlushAll status the destructor cannot return).
  uint64_t lost_page_writebacks = 0;
  /// WAL counters (fsync count, group-commit batching) — zero-valued
  /// without the Transaction feature.
  tx::WalStats wal;
  uint64_t page_count = 0;
  uint64_t verify_runs = 0;
  uint64_t repair_runs = 0;
  uint64_t pages_quarantined = 0;
  uint64_t records_salvaged = 0;
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  bool read_only = false;
  tx::RecoveryReport recovery;
  /// The full Observability view the fields above are derived from.
  obs::MetricsSnapshot metrics;

  std::string ToString() const;
};

class Database;

namespace detail {

/// Database's host policy: every "may" bound is true — the runtime facade
/// can compose any feature — and the "is" bits and tuning are filled from
/// the derived Configuration and DbOptions before the engine opens.
struct RuntimeHostPolicy {
  using Shell = Database;
  using Index = index::KeyValueIndex;
  /// What must outlive the storage stack: the allocator and, for NutOS and
  /// Win32 products, the env shim the facade creates.
  struct Resources {
    std::unique_ptr<osal::Env> owned_env;
    std::unique_ptr<osal::Allocator> alloc;
    osal::Allocator* get() const { return alloc.get(); }
  };
  /// All Database-owned counters (engine ops, integrity runs, cursor
  /// pipeline) — SharedCells because the Concurrency feature lets several
  /// threads drive the transaction surface, and torn non-atomic counter
  /// reads in GetStats were exactly the bug this replaces.
  using Metrics = obs::BasicMetricsRegistry<obs::SharedCells>;

  static constexpr bool kTransactions = true, kMvcc = true, kBackup = true,
                        kReplication = true, kConcurrent = true,
                        kMetrics = true, kFlightRecorder = true;

  bool has_transactions = false, has_mvcc = false, has_backup = false,
       has_pitr = false, has_concurrency = false, has_force_commit = false,
       has_btree = false;
  uint32_t page_bytes = 4096;
  size_t frames = 64;
  const char* replacement_policy = "lru";
  uint64_t segment_bytes = 64 * 1024;

  bool transactions() const { return has_transactions; }
  bool mvcc() const { return has_mvcc; }
  bool backup() const { return has_backup; }
  bool pitr() const { return has_pitr; }
  bool concurrent() const { return has_concurrency; }
  bool force_commit() const { return has_force_commit; }
  bool ordered() const { return has_btree; }
  uint32_t page_size() const { return page_bytes; }
  size_t buffer_frames() const { return frames; }
  const char* replacement() const { return replacement_policy; }
  uint64_t wal_segment_bytes() const { return segment_bytes; }
  /// The B+-Tree or List alternative over `buffers`.
  StatusOr<std::unique_ptr<index::KeyValueIndex>> OpenIndex(
      storage::BufferManager* buffers) const;
};

}  // namespace detail

/// A composed FAME-DBMS instance: a runtime shell over EngineHost that
/// adds feature gating (NotSupported), op timers and trace spans, plus the
/// SQL, typed-record and integrity/repair features.
class Database : private EngineHost<detail::RuntimeHostPolicy> {
  using Host = EngineHost<detail::RuntimeHostPolicy>;
  friend Host;

 public:
  /// Validates `options.features` against the FAME-DBMS feature model,
  /// derives the minimal valid variant containing them, and composes the
  /// product. ConfigInvalid when the selection violates the model.
  static StatusOr<std::unique_ptr<Database>> Open(const DbOptions& options);

  ~Database() override;

  // ---- Access features (runtime-gated: NotSupported when unselected) ----
  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Remove(const Slice& key);
  Status Update(const Slice& key, const Slice& value);
  Status Scan(const index::ScanVisitor& visit);
  Status RangeScan(const Slice& lo, const Slice& hi, const KvVisitor& fn);
  /// [feature ReverseScan] Descending iteration over [lo, hi) (empty hi =
  /// from the last key). NotSupported unless the ReverseScan feature is
  /// selected (which the model ties to B+-Tree).
  Status ReverseScan(const Slice& lo, const Slice& hi, const KvVisitor& fn);

  /// Pull-based cursor over the engine's records (heap-joined values).
  /// Mutating the database invalidates open cursors; re-Seek after writes.
  /// With the Mvcc feature the joined values are raw version chains —
  /// NewSnapshotCursor is the record-level view.
  StatusOr<EngineCursor> NewCursor() { return core_.NewCursor(); }

  // ---- Transaction ▸ Mvcc feature (runtime-gated) ----
  bool mvcc() const { return policy_.mvcc(); }
  /// [feature Mvcc] Cursor frozen at the current read timestamp: positions
  /// resolve through the version chains, so writers committing after the
  /// open never change what it returns. NotSupported without Mvcc.
  StatusOr<SnapshotCursor> NewSnapshotCursor();
  /// [feature Mvcc] Watermark GC: prunes versions no active snapshot can
  /// see (and keys fully dead under a tombstone), then persists the sweep
  /// watermark in the PageFile meta ("mvcc.mark"). Returns versions pruned.
  StatusOr<uint64_t> MvccGc();
  /// [feature Mvcc] Watermark of the last completed GC sweep (persisted;
  /// reloaded at open; 0 before the first sweep) and the oracle counters
  /// (zero-valued without the feature).
  using Host::mvcc_gc_mark;
  using Host::mvcc_stats;

  // ---- Transaction feature ----
  StatusOr<tx::Transaction*> Begin();
  Status Commit(tx::Transaction* txn);
  Status Abort(tx::Transaction* txn);

  // ---- typed record API (Data Types feature) ----
  Status CreateTable(const Schema& schema);
  StatusOr<Schema> GetSchema(const std::string& table);
  Status InsertRow(const std::string& table, const Row& row);
  StatusOr<Row> FindRow(const std::string& table, const Value& pk);
  Status DeleteRow(const std::string& table, const Value& pk);
  Status ScanTable(const std::string& table,
                   const std::function<bool(const Row&)>& fn);

  // ---- SQL Engine feature ----
  /// nullptr when the SQL-Engine feature is not selected.
  SqlEngine* sql() { return sql_.get(); }

  /// The complete derived configuration this instance runs.
  const fm::Configuration& configuration() const { return config_; }
  bool HasFeature(const std::string& name) const;

  using Host::Checkpoint;
  /// Aggregated snapshot (by value: the pool keeps per-shard counters).
  storage::BufferStats buffer_stats() const { return buffers_->stats(); }
  using Host::env;

  // ---- Backup / Pitr features (runtime-gated) ----
  /// [feature Backup] Online hot backup to destination prefix `dest`
  /// (page file at `dest`, segments at `dest.wal.NNNNNN`, CRC-sealed
  /// manifest at `dest.manifest`). Runs concurrently with committers:
  /// only engine applies pause during the page copy. NotSupported unless
  /// the Backup feature is selected.
  Status Backup(const std::string& dest,
                backup::BackupReport* report = nullptr);
  /// [feature Backup] Rebuilds a database at `dest_path` from the backup
  /// at prefix `src`; `opts.target_lsn` past the backup end replays
  /// archived segments (feature Pitr). Open the result normally (with the
  /// Backup feature selected) to complete recovery.
  static Status Restore(osal::Env* env, const std::string& src,
                        const std::string& dest_path,
                        const backup::RestoreOptions& opts = {},
                        backup::RestoreReport* report = nullptr);
  /// [feature Backup] End of the durable log (a valid PITR target; 0
  /// without the Transaction feature) and the segment-chain counters
  /// (zero-valued on a legacy, single-file log).
  using Host::DurableLsn;
  using Host::wal_segment_stats;

  // ---- Replication / Failover features (runtime-gated) ----
  /// [feature Replication] Takes (or resumes) leadership under fencing
  /// epoch `epoch`: stamps the epoch into the PageFile meta (root
  /// "repl.fence") and into every WAL segment created from here on. The
  /// epoch can only move forward. NotSupported unless the Replication
  /// feature is selected.
  Status StartLeader(uint32_t epoch);
  /// [feature Replication] Marks this instance a follower at fencing epoch
  /// `epoch`: persists the fence and rejects every local mutation
  /// (NotSupported) until Promote. Replay-by-recovery still applies — the
  /// shipped log is the only write path into a follower. The follower
  /// role is enforced even in products without the Replication feature:
  /// local writes into a replica would silently diverge it.
  Status StartFollower(uint32_t epoch);
  /// [feature Failover] Integrity-gated promotion: verifies the store
  /// (DataLoss on any finding — a damaged replica must not take
  /// leadership), then re-fences as leader under `epoch` (> current).
  Status Promote(uint32_t epoch);
  /// [feature Replication] Borrowed live handles for a repl::Leader bound
  /// to this engine (same shape hot backup uses).
  StatusOr<backup::BackupContext> ReplicationSource();
  /// Lag gauges fed by the shipping loop (repl::LeaderOptions::lag_sink).
  void SetReplLag(uint64_t lag_bytes, uint64_t lag_epochs) {
    repl_.lag_bytes.Store(lag_bytes);
    repl_.lag_epochs.Store(lag_epochs);
  }
  using Host::repl_epoch;
  using Host::repl_follower;

  // ---- integrity features (Scrub / Verify / Repair, runtime-gated) ----
  /// [feature Scrub] Incremental scrubbing: checks up to `max_pages` pages,
  /// resuming across calls; call from idle time. Returns pages checked.
  StatusOr<uint32_t> Scrub(uint32_t max_pages);
  /// [feature Verify] Full integrity pass: page scrub + free-list audit +
  /// index invariants + heap/index cross-check + WAL scan. Fills `report`
  /// either way; returns OK only when the report is clean. Read-only.
  Status VerifyIntegrity(storage::IntegrityReport* report);
  /// [feature Repair] Quarantines corrupt pages (raw images appended to
  /// `<path>.quarantine`), salvages every record still readable, rebuilds
  /// the file and index from the salvage, replays the WAL for anything
  /// newer than the last checkpoint, and lifts the read-only latch.
  /// Committed records on corrupt pages are lost (and say so in `report`);
  /// everything else survives. Fails InvalidArgument with transactions
  /// still active.
  Status Repair(storage::IntegrityReport* report = nullptr);
  /// Unified observability counters (always available).
  DbStats GetStats() const;
  /// [feature Observability] The full metrics snapshot — engine-op
  /// counters/latencies, buffer pool per shard, file IO, WAL batching,
  /// B+-tree structure, cursor pipeline. NotSupported unless the
  /// Observability feature is selected (GetStats stays available either
  /// way; this is the surface `fame stats` and the NFP feedback hook use).
  StatusOr<obs::MetricsSnapshot> GetMetricsSnapshot() const;
  /// [feature FlightRecorder] Persists the flight-recorder black box as
  /// `<path>.blackbox` (trigger, feature set, recent errors, last trace
  /// spans, metrics snapshot) via an atomic tmp+rename install, decodable
  /// by `fame_check --blackbox`. Invoked automatically when the read-only
  /// latch trips and when Repair runs; this is the on-demand entry.
  /// NotSupported unless the FlightRecorder feature is selected.
  Status DumpBlackBox(const std::string& reason);
  /// Accumulated findings of incremental Scrub() calls (VerifyIntegrity
  /// uses its own per-call report instead).
  const storage::IntegrityReport& scrub_findings() const {
    return scrub_findings_;
  }

  // ---- degraded (read-only) mode ----
  /// read_only(): a persistent write failure (IO error or on-disk
  /// corruption on a mutation path) flipped the engine read-only; reads
  /// keep serving and reopening the database is the reset.
  /// degraded_status(): that failure (OK while healthy). recovery_report():
  /// what crash recovery found in the WAL at open.
  using Host::degraded_status;
  using Host::read_only;
  using Host::recovery_report;

 private:
  friend class SqlEngine;
  Database() = default;

  Status ComposeComponents(const DbOptions& options);
  /// The integrity features keep one scrubber over the current page file
  /// so incremental cycles and stats survive across calls; Repair re-runs
  /// this after rebuilding the file.
  void OpenScrubber();

  /// The host's metrics plus the scrubber's (GetMetricsSnapshot adds the
  /// feature gate, GetStats derives its legacy fields from it).
  obs::MetricsSnapshot SnapshotMetrics() const;

  static std::string TableKey(const std::string& table, const Value& pk);
  static std::string SchemaKey(const std::string& table);

  std::unique_ptr<fm::FeatureModel> model_;
  fm::Configuration config_;
  DbOptions options_;

  std::unique_ptr<SqlEngine> sql_;
  std::unique_ptr<storage::Scrubber> scrubber_;  // with Scrub/Verify
  storage::IntegrityReport scrub_findings_;      // incremental Scrub() only

  bool has_put_ = false, has_remove_ = false, has_update_ = false;
};

}  // namespace fame::core

#endif  // FAME_CORE_DATABASE_H_
