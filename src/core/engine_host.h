// EngineHost: the one engine lifecycle behind both composition styles,
// StaticEngine<Cfg> (FeatureC++-style, paper §2.3) and Database (runtime
// components, §2.1) — a feature is composed into each, not copied. The
// host owns everything around EngineCore: opening the storage stack and
// the segmented or legacy WAL, the Mvcc open sequence, the degradation
// latch, the record-path seam, every tx::ApplyTarget override, meta
// persistence (oracle clock, GC mark, WAL mark, replication fence),
// checkpoint, hot backup, the full integrity pass, the replication epoch
// rules with their integrity-gated promotion, and the metrics snapshot.
//
// A Policy composes features in, in the style of EngineCore<Index> and the
// threading policies. Each feature is two things:
//   - a compile-time "may" bound (static constexpr bool k...): the Cfg
//     trait for StaticEngine, true for Database. Feature code sits behind
//     `if constexpr` on the bound, so a static product that deselects a
//     feature links none of it, Debug builds included;
//   - a runtime "is" bit (member function): constexpr for StaticEngine,
//     read from the derived Configuration for Database.
//
// Policy requirements:
//   using Shell;      the facade deriving (privately) from EngineHost<Policy>;
//                     transactional reads go through its op-timed Get, and a
//                     latch trip calls its DumpBlackBox
//   using Index;      the index type EngineCore is instantiated over
//   using Resources;  owns the allocator (get()) and whatever else must
//                     outlive the storage stack
//   using Metrics;    the metrics registry, or detail::NoMetrics
//   static constexpr bool kTransactions, kMvcc, kBackup, kReplication,
//                         kConcurrent, kMetrics, kFlightRecorder;
//   bool transactions(), mvcc(), backup(), pitr(), concurrent(),
//        force_commit() const;
//   uint32_t page_size(); size_t buffer_frames(); const char* replacement();
//   uint64_t wal_segment_bytes() const;
//   StatusOr<std::unique_ptr<Index>> OpenIndex(storage::BufferManager*) const;
//   (Database's policy also answers ordered(): the index is a B+-tree.)
//
// The shells keep feature gating (static_assert in StaticEngine,
// NotSupported in Database), op timers and trace spans; Database alone keeps
// SQL, typed records, incremental scrubbing and repair.
#ifndef FAME_CORE_ENGINE_HOST_H_
#define FAME_CORE_ENGINE_HOST_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "core/backup.h"
#include "core/engine_core.h"
#include "index/bplus_tree.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#if FAME_OBS_ENABLED
#include "obs/blackbox.h"
#endif
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/slab_alloc.h"
#include "storage/buffer.h"
#include "storage/integrity.h"
#include "storage/record.h"
#include "tx/txmgr.h"

namespace fame::core {

namespace detail {

/// Caps each finding list of an integrity report so a totally shredded
/// file cannot balloon it; the tail is summarized instead.
inline void AddIssue(std::vector<std::string>* list, std::string msg) {
  constexpr size_t kMaxListedIssues = 64;
  if (list->size() < kMaxListedIssues) {
    list->push_back(std::move(msg));
  } else if (list->size() == kMaxListedIssues) {
    list->push_back("(further issues of this kind suppressed)");
  }
}

/// Splits a core record ("varint32 klen, key, value") into its key; false
/// when the bytes cannot possibly be a record.
inline bool DecodeRecordKey(const Slice& rec, Slice* key) {
  Slice in = rec;
  uint32_t klen = 0;
  if (!GetVarint32(&in, &klen) || in.size() < klen) return false;
  *key = Slice(in.data(), klen);
  return true;
}

inline std::string RidStr(const storage::Rid& rid) {
  return std::to_string(rid.page) + ":" + std::to_string(rid.slot);
}

// Empty stand-ins for state a product does not select; [[no_unique_address]]
// collapses each to nothing (they are distinct types so they can share an
// address).
struct NoMetrics {};
struct NoMvccState {};
struct NoBackupCounters {};
struct NoReplState {};
struct NoBlackBox {};

/// A counter or gauge cell: relaxed atomic in concurrent products, a plain
/// integer otherwise.
template <bool kShared>
class Cell {
 public:
  void Add(uint64_t d) {
    if constexpr (kShared) {
      v_.fetch_add(d, std::memory_order_relaxed);
    } else {
      v_ += d;
    }
  }
  void Store(uint64_t v) {
    if constexpr (kShared) {
      v_.store(v, std::memory_order_relaxed);
    } else {
      v_ = v;
    }
  }
  uint64_t Load() const {
    if constexpr (kShared) {
      return v_.load(std::memory_order_relaxed);
    } else {
      return v_;
    }
  }

 private:
  std::conditional_t<kShared, std::atomic<uint64_t>, uint64_t> v_{0};
};

/// Completed hot backups and their output bytes (Backup products).
template <bool kShared>
struct BackupCounters {
  Cell<kShared> runs, bytes;
};

/// Fencing state (Replication products): role and epoch persisted in the
/// meta as root "repl.fence", aux = (epoch << 8) | role; lag gauges fed by
/// the shipping loop.
template <bool kShared>
struct ReplState {
  static constexpr uint8_t kNone = 0, kLeader = 1, kFollower = 2;
  uint8_t role = kNone;
  uint32_t epoch = 0;
  Cell<kShared> lag_bytes, lag_epochs;
};

/// Timestamp oracle + GC mark (Mvcc products). Constructing the
/// MvccManager is what pulls tx/mvcc.o out of the library — products
/// without the feature hold NoMvccState and reference nothing.
struct MvccState {
  tx::mvcc::MvccManager mgr;
  uint64_t gc_mark = 0;
};

}  // namespace detail

template <typename Policy>
class EngineHost : private tx::ApplyTarget {
 public:
  using Index = typename Policy::Index;
  using Shell = typename Policy::Shell;

  EngineHost() = default;
  ~EngineHost() override = default;

  // ---- open -------------------------------------------------------------
  /// Opens the whole engine at `path` in `env`; with the Transaction
  /// feature the WAL is recovered before the call returns.
  Status OpenEngine(osal::Env* env, const std::string& path) {
    env_ = env;
    path_ = path;
    FAME_RETURN_IF_ERROR(OpenStorage());
    if constexpr (Policy::kReplication) {
      // A fenced store carries its epoch and role in the meta. Database's
      // bound is true, so it loads the fence without the Replication
      // feature too: a follower's file must stay read-only whatever
      // product opens it.
      auto fence_or = file_->GetRootAux("repl.fence");
      if (fence_or.ok()) {
        repl_.epoch = static_cast<uint32_t>(fence_or.value() >> 8);
        repl_.role = static_cast<uint8_t>(fence_or.value() & 0xff);
      }
    }
    return OpenTransactions();
  }

  /// Opens the page file, buffer pool, heap and index at path_ and binds
  /// the engine core. Database::Repair re-runs it over a rebuilt file.
  Status OpenStorage() {
    storage::PageFileOptions opts;
    opts.page_size = policy_.page_size();
    FAME_ASSIGN_OR_RETURN(file_, storage::PageFile::Open(env_, path_, opts));
    FAME_ASSIGN_OR_RETURN(
        buffers_, storage::BufferManager::Create(
                      file_.get(), policy_.buffer_frames(), res_.get(),
                      storage::MakeReplacementPolicy(policy_.replacement())));
    FAME_ASSIGN_OR_RETURN(heap_,
                          storage::RecordManager::Open(buffers_.get(), kStore));
    FAME_ASSIGN_OR_RETURN(index_, policy_.OpenIndex(buffers_.get()));
    core_.Bind(heap_.get(), index_.get());
#if FAME_OBS_ENABLED
    if constexpr (Policy::kMetrics) {
      core_.SetCursorSink(metrics_.cursors.sink());
    }
#endif
    return Status::OK();
  }

  /// Opens the transaction manager over the product's log flavor and runs
  /// recovery; a no-op without the Transaction feature.
  Status OpenTransactions() {
    if constexpr (Policy::kTransactions) {
      if (!policy_.transactions()) return Status::OK();
      FAME_ASSIGN_OR_RETURN(txmgr_, OpenTxManager());
      if constexpr (Policy::kMvcc) {
        if (policy_.mvcc()) {
          // Install the oracle before recovery so replayed commits that
          // carry timestamps take the versioned apply path, and seed it
          // from the checkpointed meta BEFORE replay runs: recovery ends in
          // CheckpointEngine(), which re-persists the clock, so seeding
          // after would read back the overwrite and restart it at zero.
          txmgr_->EnableMvcc(&mvcc_.mgr);
          auto ts_or = file_->GetRootAux("mvcc.ts");
          if (ts_or.ok()) mvcc_.mgr.SeedClock(ts_or.value());
          auto mark_or = file_->GetRootAux("mvcc.mark");
          if (mark_or.ok()) mvcc_.gc_mark = mark_or.value();
        }
      }
      FAME_RETURN_IF_ERROR(txmgr_->Recover());
      if constexpr (Policy::kMvcc) {
        if (policy_.mvcc()) {
          // Ratchet past the highest commit ts replay saw and persist right
          // away: recovery just truncated the log, so a crash before the
          // next checkpoint must not rewind the clock under chains.
          mvcc_.mgr.SeedClock(txmgr_->recovery_report().max_commit_ts);
          FAME_RETURN_IF_ERROR(PersistMvccMeta());
        }
      }
      if constexpr (Policy::kReplication) {
        // New segments carry the persisted fence from the first commit.
        if (repl_.epoch != 0) txmgr_->SetWalFenceEpoch(repl_.epoch);
      }
    }
    return Status::OK();
  }

  // ---- degraded (read-only) mode ----------------------------------------
  /// True after a persistent write failure (IO error or on-disk corruption
  /// on a mutation path) flipped the engine read-only. Reads keep serving;
  /// mutations are rejected until the engine is reopened.
  bool read_only() const {
    LatchLock l(this);
    return !write_error_.ok();
  }
  /// The failure that degraded the engine (OK while healthy).
  const Status& degraded_status() const { return write_error_; }
  /// What WAL recovery found at open (zero-valued without the Transaction
  /// feature or with a clean log).
  tx::RecoveryReport recovery_report() const {
    return txmgr_ != nullptr ? txmgr_->recovery_report() : tx::RecoveryReport{};
  }

  /// Rejects mutations once the engine is degraded or fenced as a follower.
  Status GuardWrite() const {
    if constexpr (Policy::kReplication) {
      if (repl_.role == Repl::kFollower) {
        return Status::NotSupported(
            "replica is read-only (follower role); promote to accept writes");
      }
    }
    LatchLock l(this);
    if (write_error_.ok()) return Status::OK();
    return Status::IOError("engine is read-only after write failure: " +
                           write_error_.ToString());
  }

  /// Flips the engine read-only when `s` is a persistent write failure and
  /// returns `s` unchanged. IO errors that survived the storage layer's
  /// bounded retries, and corruption found on a mutation path, may have
  /// left a half-applied write on disk: stop mutating instead of
  /// compounding it. Reopening (which re-runs recovery) is the reset.
  Status NoteWrite(Status s) {
    [[maybe_unused]] bool tripped = false;
    {
      LatchLock l(this);
      if (write_error_.ok() && (s.code() == StatusCode::kIOError ||
                                s.code() == StatusCode::kCorruption)) {
        write_error_ = s;
        tripped = true;
      }
    }
#if FAME_OBS_ENABLED
    // Flight recorder, after the latch releases: the dump reads the
    // metrics snapshot and writes a file, neither of which belongs under
    // latch_mu_. Best effort by design — it must not mask the failure.
    if constexpr (Policy::kFlightRecorder) {
      if (blackbox_ != nullptr && !s.ok() && !s.IsNotFound()) {
        blackbox_->NoteStatus("write", s.ToString());
        if (tripped) {
          (void)shell().DumpBlackBox("read-only latch tripped: " +
                                     s.ToString());
        }
      }
    }
#endif
    return s;
  }

  // ---- record path ------------------------------------------------------
  // Plain bytes without Mvcc; with it, a version-chain append or a
  // visible-version resolve at the current read timestamp. Every surface
  // access funnels through these.
  Status PutRecord(const Slice& key, const Slice& value) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) return WriteAutoCommit(key, value, false);
    }
    return core_.Put(key, value);
  }
  Status RemoveRecord(const Slice& key) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        // Preserve Remove's NotFound contract against the *visible* state.
        FAME_RETURN_IF_ERROR(RequireVisible(key));
        return WriteAutoCommit(key, Slice(), true);
      }
    }
    return core_.Remove(key);
  }
  Status GetRecord(const Slice& key, std::string* value) {
    if constexpr (Policy::kMvcc) {
      // The read ts is sampled under the physical latch (see
      // EngineCore::GetVersionedLatest) so concurrent commits cannot prune
      // the version this read resolves.
      if (policy_.mvcc()) {
        return core_.GetVersionedLatest(key, value, &mvcc_.mgr);
      }
    }
    return core_.Get(key, value);
  }
  /// Update's precondition: the key must *visibly* exist — with Mvcc an
  /// index hit whose chain is tombstoned at the read timestamp is absent.
  Status RequireVisible(const Slice& key) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        std::string existing;
        return core_.GetVersionedLatest(key, &existing, &mvcc_.mgr);
      }
    }
    uint64_t packed = 0;
    return index_->Lookup(key, &packed);
  }

  // Scans. With Mvcc each takes a *registered* snapshot (not a bare ReadTs
  // sample): the scan's cursor owns the registration, so the GC watermark
  // stays below the scan's ts until it finishes.
  Status ScanRecords(const KvVisitor& fn) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        return core_.SnapshotScan(mvcc_.mgr.BeginSnapshot(), fn, &mvcc_.mgr);
      }
    }
    return core_.Scan(fn);
  }
  /// Ascending over [lo, hi); the caller ensures the index is ordered.
  Status RangeRecords(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        return core_.SnapshotRangeScan(mvcc_.mgr.BeginSnapshot(), lo, hi,
                                       /*ordered=*/true, fn, &mvcc_.mgr);
      }
    }
    return core_.RangeScan(lo, hi, /*ordered=*/true, fn);
  }
  /// Descending over [lo, hi); the caller gates on ReverseScan.
  Status ReverseRecords(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        return core_.SnapshotReverseScan(mvcc_.mgr.BeginSnapshot(), lo, hi, fn,
                                         &mvcc_.mgr);
      }
    }
    return core_.ReverseScan(lo, hi, fn);
  }
  /// Every record whose key starts with `prefix`.
  Status PrefixRecords(const Slice& prefix, bool ordered, const KvVisitor& fn) {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        return core_.SnapshotScanPrefix(mvcc_.mgr.BeginSnapshot(), prefix,
                                        ordered, fn, &mvcc_.mgr);
      }
    }
    return core_.ScanPrefix(prefix, ordered, fn);
  }

  // ---- transactions -----------------------------------------------------
  /// Commits `txn` unless the engine refuses writes; a refused transaction
  /// is still finished (writes dropped, locks released) so the handle does
  /// not leak.
  Status Commit(tx::Transaction* txn) {
    Status guard = GuardWrite();
    if (!guard.ok()) {
      txmgr_->Abort(txn);
      return guard;
    }
    return NoteWrite(txmgr_->Commit(txn));
  }

  /// Flushes the engine; transactional products checkpoint through the
  /// transaction manager, so the log below the checkpoint is truncated
  /// (legacy) or recycled past the retention watermark (segmented).
  Status Checkpoint() {
    FAME_RETURN_IF_ERROR(GuardWrite());
    if constexpr (Policy::kTransactions) {
      if (txmgr_ != nullptr) return NoteWrite(txmgr_->Checkpoint());
    }
    return NoteWrite(buffers_->Checkpoint());
  }

  // ---- Mvcc (callers gate on the feature) -------------------------------
  /// Cursor frozen at the current read timestamp. The snapshot is
  /// registered so the GC watermark cannot pass the cursor's ts while it
  /// lives; the cursor owns the release.
  StatusOr<SnapshotCursor> NewSnapshotCursor() {
    return core_.NewSnapshotCursor(mvcc_.mgr.BeginSnapshot(), &mvcc_.mgr);
  }
  /// Watermark GC: prunes versions no active snapshot can see, persists
  /// the sweep watermark ("mvcc.mark"). Returns versions pruned.
  StatusOr<uint64_t> MvccGc() {
    FAME_RETURN_IF_ERROR(GuardWrite());
    const uint64_t mark = mvcc_.mgr.Watermark();
    uint64_t pruned = 0;
    // The sweep rewrites heap records in place; exclude concurrent engine
    // applies the same way hot backup does.
    Status s = txmgr_->WithApplyPaused([&]() -> Status {
      FAME_ASSIGN_OR_RETURN(pruned, core_.MvccSweep(mark, &mvcc_.mgr));
      return Status::OK();
    });
    if (!s.ok()) return NoteWrite(std::move(s));
    mvcc_.gc_mark = mark;
    FAME_RETURN_IF_ERROR(NoteWrite(PersistMvccMeta()));
    return pruned;
  }
  uint64_t mvcc_gc_mark() const {
    if constexpr (Policy::kMvcc) {
      return mvcc_.gc_mark;
    } else {
      return 0;
    }
  }
  tx::mvcc::MvccStats mvcc_stats() const {
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) return mvcc_.mgr.stats();
    }
    return tx::mvcc::MvccStats{};
  }

  // ---- Backup (callers gate on the feature) -----------------------------
  /// Online hot backup to destination prefix `dest`; see
  /// core::backup::RunBackup for the artifact layout.
  Status Backup(const std::string& dest, backup::BackupReport* report) {
    FAME_RETURN_IF_ERROR(GuardWrite());
    backup::BackupReport local;
    Status s = backup::RunBackup(BackupSource(), dest, &local);
    if (s.ok()) {
      backup_counters_.runs.Add(1);
      backup_counters_.bytes.Add(local.bytes_copied);
      if (report != nullptr) *report = local;
    }
    return s;
  }
  /// Borrowed live handles for hot backup and for a repl::Leader.
  backup::BackupContext BackupSource() {
    backup::BackupContext ctx;
    ctx.env = env_;
    ctx.txmgr = txmgr_.get();
    ctx.file = file_.get();
    ctx.db_path = path_;
    ctx.wal_path = path_ + ".wal";
    return ctx;
  }
  /// End of the durable log (a valid PITR target); 0 without transactions.
  uint64_t DurableLsn() const {
    return txmgr_ != nullptr ? txmgr_->durable_lsn() : 0;
  }
  /// Segment-chain counters (zero-valued on a legacy, single-file log).
  tx::WalSegmentStats wal_segment_stats() const {
    return txmgr_ != nullptr && txmgr_->wal_segmented()
               ? txmgr_->wal_segment_stats()
               : tx::WalSegmentStats{};
  }

  // ---- Verify (callers gate on the feature) -----------------------------
  /// The full integrity pass: page checksums, type tags and the free-list
  /// audit through `scrubber`, index invariants, the heap/index
  /// cross-check both ways and a WAL scan. Fills `report` either way;
  /// returns OK only when it is clean. Database passes its long-lived
  /// scrubber, so the scrub counters add up across calls; a static
  /// product passes a local one.
  Status VerifyIntegrity(storage::Scrubber* scrubber,
                         storage::IntegrityReport* report) {
    using detail::AddIssue;
    using detail::DecodeRecordKey;
    using detail::RidStr;
    FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kVerify);)
    *report = storage::IntegrityReport{};

    // Bring the medium up to date so the scrub covers current state. Only a
    // healthy engine flushes — a degraded one verifies what is on disk.
    if (write_error_.ok()) {
      FAME_RETURN_IF_ERROR(buffers_->FlushAll());
      FAME_RETURN_IF_ERROR(file_->Sync());
    }

    // Page-level: checksums, type tags, free-list audit.
    FAME_RETURN_IF_ERROR(scrubber->ScrubAll(report));

    // Index structure.
    if (index::BPlusTree* tree = btree()) {
      Status s = tree->CheckInvariants();
      if (!s.ok()) AddIssue(&report->index_issues, s.ToString());
    }

    // Heap -> index: every live record must be indexed under its own key at
    // its own rid.
    Status hs = heap_->Scan([&](const storage::Rid& rid, const Slice& rec) {
      Slice key;
      if (!DecodeRecordKey(rec, &key)) {
        AddIssue(&report->heap_issues, "undecodable record at " + RidStr(rid));
        return true;
      }
      uint64_t packed = 0;
      Status ls = index_->Lookup(key, &packed);
      if (!ls.ok()) {
        AddIssue(&report->heap_issues,
                 "record at " + RidStr(rid) + " missing from the index");
      } else if (!(storage::Rid::Unpack(packed) == rid)) {
        AddIssue(&report->heap_issues,
                 "index maps the key of record " + RidStr(rid) +
                     " to a different rid " +
                     RidStr(storage::Rid::Unpack(packed)));
      }
      return true;
    });
    if (!hs.ok()) {
      AddIssue(&report->heap_issues, "heap walk stopped: " + hs.ToString());
    }

    // Index -> heap: every entry must point at a live record bearing its
    // key.
    Status is = index_->Scan([&](const Slice& key, uint64_t packed) {
      storage::Rid rid = storage::Rid::Unpack(packed);
      std::string rec;
      Status gs = heap_->Get(rid, &rec);
      Slice stored_key;
      if (!gs.ok()) {
        AddIssue(&report->index_issues,
                 "index entry dangles at " + RidStr(rid) + ": " +
                     gs.ToString());
      } else if (!DecodeRecordKey(Slice(rec), &stored_key) ||
                 stored_key != key) {
        AddIssue(&report->index_issues,
                 "index entry points at a record with a different key (" +
                     RidStr(rid) + ")");
      }
      return true;
    });
    if (!is.ok()) {
      AddIssue(&report->index_issues, "index scan stopped: " + is.ToString());
    }

    // WAL: decode every durable frame. Post-recovery, any torn tail or
    // mid-log damage is new.
    if constexpr (Policy::kTransactions) {
      if (txmgr_ != nullptr) {
        tx::RecoveryReport wal;
        Status ws = txmgr_->ScanLog(&wal);
        if (!ws.ok()) {
          AddIssue(&report->wal_issues, "wal scan failed: " + ws.ToString());
        } else if (wal.corruption) {
          AddIssue(&report->wal_issues,
                   "mid-log corruption: " +
                       std::to_string(wal.dropped_records) +
                       " record(s) stranded past LSN " +
                       std::to_string(wal.recovered_lsn));
        } else if (wal.torn_tail) {
          AddIssue(&report->wal_issues,
                   "torn tail past LSN " + std::to_string(wal.recovered_lsn) +
                       " (" + std::to_string(wal.dropped_bytes) +
                       " byte(s); truncated at next recovery)");
        }
        // [feature Backup] Segment-chain invariants: header CRCs, sequence
        // continuity, base-LSN continuity, stranded orphan files.
        if constexpr (Policy::kBackup) {
          if (txmgr_->wal_segmented()) {
            std::vector<std::string> chain;
            Status cs = txmgr_->VerifyWalChain(&chain);
            if (!cs.ok()) {
              AddIssue(&report->wal_issues,
                       "segment chain verify failed: " + cs.ToString());
            }
            for (const std::string& issue : chain) {
              AddIssue(&report->wal_issues, "wal segment: " + issue);
            }
          }
        }
      }
    }

    if constexpr (Policy::kMetrics) metrics_.verify_runs.Add(1);
    if (report->clean()) return Status::OK();
    return Status::Corruption(
        "integrity verification found " +
        std::to_string(report->corrupt_pages.size()) +
        " corrupt page(s) and further issues; see report");
  }

  // ---- Replication / Failover (callers gate on the feature) -------------
  /// Takes (or resumes) leadership under fencing epoch `epoch`, which can
  /// only move forward: persisted in the meta and stamped into every WAL
  /// segment created from here on.
  Status StartLeader(uint32_t epoch) {
    return Fence(epoch, Repl::kLeader);
  }
  /// Fences this engine as a read-only follower at `epoch`.
  Status StartFollower(uint32_t epoch) {
    return Fence(epoch, Repl::kFollower);
  }
  /// Re-fences a follower as leader under `epoch` (> current), gated on a
  /// clean VerifyIntegrity: a replica with damage must refuse leadership
  /// (DataLoss) rather than serve, and replicate, divergent data.
  Status Promote(uint32_t epoch, storage::Scrubber* scrubber) {
    if (repl_.role != Repl::kFollower) {
      return Status::InvalidArgument("only a follower can be promoted");
    }
    if (epoch <= repl_.epoch) {
      return Status::InvalidArgument(
          "promotion must advance the fencing epoch past " +
          std::to_string(repl_.epoch));
    }
    storage::IntegrityReport report;
    Status verify = VerifyIntegrity(scrubber, &report);
    if (!verify.ok()) {
      return Status::DataLoss("refusing promotion, replica failed its scrub: " +
                              verify.ToString());
    }
    return Fence(epoch, Repl::kLeader);
  }
  uint32_t repl_epoch() const { return repl_.epoch; }
  bool repl_follower() const { return repl_.role == Repl::kFollower; }

  // ---- component access -------------------------------------------------
  storage::BufferManager* buffers() { return buffers_.get(); }
  osal::Allocator* allocator() { return res_.get(); }
  Index* index() { return index_.get(); }
  osal::Env* env() { return env_; }

  /// The index as a B+-tree, or null for the other access methods.
  index::BPlusTree* btree() const {
    if constexpr (std::is_same_v<Index, index::BPlusTree>) {
      return index_.get();
    } else if constexpr (std::is_base_of_v<Index, index::BPlusTree>) {
      return policy_.ordered() ? static_cast<index::BPlusTree*>(index_.get())
                               : nullptr;
    } else {
      return nullptr;
    }
  }

  /// The one metrics assembler: the registry plus every component group
  /// the product composes.
  obs::MetricsSnapshot AssembleMetrics() const {
    obs::MetricsSnapshot m;
    if constexpr (Policy::kMetrics) metrics_.Snapshot(&m);
    if (buffers_ != nullptr) {
      storage::BufferStats b = buffers_->stats();
      m.buffer_hits = b.hits;
      m.buffer_misses = b.misses;
      m.buffer_evictions = b.evictions;
      m.buffer_writebacks = b.dirty_writebacks;
      for (size_t i = 0; i < buffers_->shard_count(); ++i) {
        storage::BufferStats s = buffers_->shard_stats(i);
        m.buffer_shards.push_back(
            {s.hits, s.misses, s.evictions, s.dirty_writebacks});
      }
    }
#if FAME_OBS_ENABLED
    if (file_ != nullptr) {
      const auto& io = file_->io_metrics();
      m.file_reads = io.reads.Load();
      m.file_writes = io.writes.Load();
      m.file_syncs = io.syncs.Load();
      m.file_read_bytes = io.read_bytes.Load();
      m.file_write_bytes = io.write_bytes.Load();
      m.file_read_ns = io.read_ns.Snapshot();
      m.file_write_ns = io.write_ns.Snapshot();
      m.file_sync_ns = io.sync_ns.Snapshot();
    }
    if (const index::BPlusTree* bt = btree()) {
      m.btree_splits = bt->metrics().splits.Load();
      m.btree_merges = bt->metrics().merges.Load();
      m.btree_descents = bt->metrics().descents.Load();
    }
#endif
    if constexpr (Policy::kTransactions) {
      if (txmgr_ != nullptr) {
        tx::WalStats w = txmgr_->wal_stats();
        m.wal_appends = w.records_appended;
        m.wal_syncs = w.syncs;
        m.wal_batches = w.group_batches;
        m.wal_batched_bytes = w.group_batched_bytes;
        FAME_OBS(m.wal_batch_records = txmgr_->wal_batch_histogram();)
        m.committed_txns = txmgr_->committed();
        m.aborted_txns = txmgr_->aborted();
        tx::RecoveryReport r = txmgr_->recovery_report();
        m.recovery_applied_records = r.applied_records;
        m.recovery_dropped_bytes = r.dropped_bytes;
        if constexpr (Policy::kBackup) {
          if (txmgr_->wal_segmented()) {
            tx::WalSegmentStats seg = txmgr_->wal_segment_stats();
            m.wal_segmented = true;
            m.wal_segments = seg.segments;
            m.wal_rotations = seg.rotations;
            m.wal_recycled = seg.recycled;
            m.wal_archived = seg.archived;
            m.wal_archive_lag_bytes = seg.archive_lag_bytes;
            m.wal_archive_stalled = seg.archive_stalled;
            m.wal_retained_lsn = seg.retained_lsn;
            m.backup_runs = backup_counters_.runs.Load();
            m.backup_bytes = backup_counters_.bytes.Load();
          }
        }
      }
    }
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        tx::mvcc::MvccStats ms = mvcc_.mgr.stats();
        m.mvcc = true;
        m.mvcc_active_snapshots = ms.active_snapshots;
        m.mvcc_conflicts = ms.conflicts;
        m.mvcc_gc_runs = ms.gc_runs;
        m.mvcc_gc_pruned = ms.gc_pruned;
        m.mvcc_watermark = ms.watermark;
        m.mvcc_clock = ms.clock;
        m.mvcc_chain_len = mvcc_.mgr.chain_len_histogram();
      }
    }
    if constexpr (Policy::kReplication) {
      if (repl_.role != Repl::kNone) {
        m.repl = true;
        m.repl_follower = repl_.role == Repl::kFollower;
        m.repl_epoch = repl_.epoch;
        m.repl_lag_bytes = repl_.lag_bytes.Load();
        m.repl_lag_epochs = repl_.lag_epochs.Load();
      }
    }
    const osal::Allocator* alloc = res_.get();
    osal::AllocStats as = alloc->stats();
    m.alloc_name = alloc->name();
    m.alloc_live_bytes = as.live_bytes;
    m.alloc_peak_bytes = as.peak_bytes;
    m.alloc_remote_frees = as.remote_frees;
#if FAME_SLAB_ENABLED
    // Cross-thread frees of pooled per-op objects (cursors, transactions)
    // are process-wide: the pool is thread-local, not per-engine.
    m.alloc_remote_frees += osal::slab::PooledCrossThreadFrees();
#endif
    m.lost_meta_writes = storage::PageFile::lost_meta_writes();
    m.lost_page_writebacks = storage::BufferLostWritebacks();
    if (file_ != nullptr) m.page_count = file_->page_count();
    m.read_only = read_only();
    return m;
  }

 protected:
  static constexpr char kStore[] = "core";
  using Repl = detail::ReplState<Policy::kConcurrent>;
  /// The degradation latch is touched from every committer in a concurrent
  /// product; a no-op lock (compiled away) in single-threaded ones.
  using LatchMutex = std::conditional_t<Policy::kConcurrent, std::mutex,
                                        storage::SingleThreaded::Mutex>;

  /// Locks latch_mu_ when the product runs concurrently.
  class LatchLock {
   public:
    explicit LatchLock(const EngineHost* h)
        : mu_(h->latch_mu_), on_(h->policy_.concurrent()) {
      if (on_) mu_.lock();
    }
    ~LatchLock() {
      if (on_) mu_.unlock();
    }
    LatchLock(const LatchLock&) = delete;
    LatchLock& operator=(const LatchLock&) = delete;

   private:
    LatchMutex& mu_;
    bool on_;
  };

  Shell& shell() { return static_cast<Shell&>(*this); }

  // Declaration order is teardown order, reversed: the resources (the
  // allocator, an owned env) outlive the storage stack built on them.
  typename Policy::Resources res_;
  [[no_unique_address]] Policy policy_;
  osal::Env* env_ = nullptr;
  std::string path_;
  std::unique_ptr<storage::PageFile> file_;
  std::unique_ptr<storage::BufferManager> buffers_;
  std::unique_ptr<storage::RecordManager> heap_;
  std::unique_ptr<Index> index_;
  EngineCore<Index> core_;
  [[no_unique_address]] mutable typename Policy::Metrics metrics_;
  std::unique_ptr<tx::TransactionManager> txmgr_;
  [[no_unique_address]] std::conditional_t<Policy::kMvcc, detail::MvccState,
                                           detail::NoMvccState>
      mvcc_;
  [[no_unique_address]] std::conditional_t<
      Policy::kBackup, detail::BackupCounters<Policy::kConcurrent>,
      detail::NoBackupCounters>
      backup_counters_;
  [[no_unique_address]] std::conditional_t<Policy::kReplication, Repl,
                                           detail::NoReplState>
      repl_;
#if FAME_OBS_ENABLED
  /// [feature FlightRecorder] Degradation breadcrumbs + dump machinery;
  /// null until the shell installs one.
  [[no_unique_address]] std::conditional_t<Policy::kFlightRecorder,
                                           std::unique_ptr<obs::BlackBox>,
                                           detail::NoBlackBox>
      blackbox_;
#endif
  mutable LatchMutex latch_mu_;
  Status write_error_;  // first persistent write failure; OK while healthy

 private:
  StatusOr<std::unique_ptr<tx::TransactionManager>> OpenTxManager() {
    const tx::CommitProtocol protocol =
        policy_.force_commit() ? tx::CommitProtocol::kForceAtCommit
                               : tx::CommitProtocol::kWalRedo;
    const std::string log_path = path_ + ".wal";
    if constexpr (Policy::kBackup) {
      if (policy_.backup()) {
        // Segmented log: checkpoints advance a retention watermark instead
        // of truncating; Pitr archives recycled segments. Only this branch
        // (so only Backup products) references the segment machinery.
        tx::WalOptions wopts;
        wopts.segment_bytes = policy_.wal_segment_bytes();
        wopts.archive = policy_.pitr();
        FAME_ASSIGN_OR_RETURN(
            std::unique_ptr<tx::LogManager> log,
            tx::LogManager::OpenSegmented(env_, log_path, wopts));
        return tx::TransactionManager::Adopt(std::move(log), this, protocol,
                                             policy_.concurrent());
      }
    }
    return tx::TransactionManager::Open(env_, log_path, this, protocol,
                                        policy_.concurrent());
  }

  /// Auto-commit versioned write through the oracle's conflict table — not
  /// a bare clock tick — so an MVCC transaction that read this key before
  /// the write loses first-committer-wins at its own commit (no lost
  /// update). The ts stays invisible to new snapshots until the apply
  /// lands (FinishCommit); the watermark is read after PrepareAutoCommit,
  /// which pins it below the new commit ts.
  Status WriteAutoCommit(const Slice& key, const Slice& value, bool tombstone) {
    const uint64_t commit_ts =
        mvcc_.mgr.PrepareAutoCommit(std::string(kStore) + ":" + key.ToString());
    Status s = core_.WriteVersion(key, value, tombstone, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
    mvcc_.mgr.FinishCommit(commit_ts);
    return s;
  }

  /// Applies the fencing epoch rules and persists the fence.
  Status Fence(uint32_t epoch, uint8_t role) {
    if (epoch < repl_.epoch) {
      return Status::InvalidArgument(
          "fencing epoch cannot move backwards: have " +
          std::to_string(repl_.epoch) + ", asked for " + std::to_string(epoch));
    }
    repl_.epoch = epoch;
    repl_.role = role;
    if (txmgr_ != nullptr) txmgr_->SetWalFenceEpoch(epoch);
    FAME_RETURN_IF_ERROR(file_->SetRoot(
        "repl.fence", storage::kInvalidPageId,
        (static_cast<uint64_t>(repl_.epoch) << 8) | repl_.role));
    return file_->Sync();
  }

  /// Persists the oracle clock ("mvcc.ts") and the GC mark ("mvcc.mark").
  /// The raw clock, not the pending-gated read ts: chains on disk may carry
  /// in-flight stamps past ReadTs, and a reopened clock below a persisted
  /// head would make WriteVersion treat fresh writes as replayed no-ops.
  Status PersistMvccMeta() {
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.ts", storage::kInvalidPageId,
                                        mvcc_.mgr.Clock()));
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.mark", storage::kInvalidPageId,
                                        mvcc_.gc_mark));
    return file_->Sync();
  }

  // ---- tx::ApplyTarget ---------------------------------------------------
  // Virtual overrides instantiate with the vtable in every product, so the
  // feature gates live inside the bodies.
  Status ApplyPut(const std::string& store, const Slice& key,
                  const Slice& value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        // A legacy (timestamp-less) log record migrates on the fly into a
        // fresh head version. Sequenced so the watermark is read after the
        // tick (unspecified evaluation order otherwise).
        const uint64_t ts = mvcc_.mgr.AdvanceClock();
        return core_.WriteVersion(key, value, /*tombstone=*/false, ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    return core_.Put(key, value);
  }
  Status ApplyDelete(const std::string& store, const Slice& key) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    return RemoveRecord(key);
  }
  Status ReadCommitted(const std::string& store, const Slice& key,
                       std::string* value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    return shell().Get(key, value);
  }
  Status ApplyPutVersioned(const std::string& store, const Slice& key,
                           const Slice& value, uint64_t commit_ts) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        mvcc_.mgr.SeedClock(commit_ts);  // replay may precede clock seeding
        return core_.WriteVersion(key, value, /*tombstone=*/false, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    return core_.Put(key, value);  // timestamp-less fallback
  }
  Status ApplyDeleteVersioned(const std::string& store, const Slice& key,
                              uint64_t commit_ts) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) {
        mvcc_.mgr.SeedClock(commit_ts);
        // Deleting a key with no chain at all stays NotFound (recovery
        // treats replayed deletes of absent keys as already applied).
        uint64_t packed = 0;
        FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
        return core_.WriteVersion(key, Slice(), /*tombstone=*/true, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    return core_.Remove(key);
  }
  Status ReadAtSnapshot(const std::string& store, const Slice& key,
                        uint64_t ts, std::string* value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) return core_.GetVersioned(key, ts, value, &mvcc_.mgr);
    }
    return shell().Get(key, value);
  }
  Status CheckpointEngine() override {
    FAME_RETURN_IF_ERROR(buffers_->Checkpoint());
    // Checkpoint is the durability point of the timestamp oracle: the WAL
    // below it may be truncated or recycled afterwards.
    if constexpr (Policy::kMvcc) {
      if (policy_.mvcc()) FAME_RETURN_IF_ERROR(PersistMvccMeta());
    }
    return Status::OK();
  }
  // [feature Backup] Retention watermark in the PageFile meta (root
  // "wal.mark", aux = LSN). Called by segmented checkpoints only, inside
  // their exclusive section, so the meta mutation needs no latch.
  Status PersistWalMark(tx::Lsn mark) override {
    if constexpr (Policy::kBackup) {
      FAME_RETURN_IF_ERROR(
          file_->SetRoot("wal.mark", storage::kInvalidPageId, mark));
      return file_->Sync();
    } else {
      (void)mark;
      return Status::OK();
    }
  }
  StatusOr<tx::Lsn> LoadWalMark() override {
    if constexpr (Policy::kBackup) {
      auto aux_or = file_->GetRootAux("wal.mark");
      if (aux_or.ok()) return aux_or.value();
    }
    return static_cast<tx::Lsn>(0);  // no checkpoint yet
  }
};

}  // namespace fame::core

#endif  // FAME_CORE_ENGINE_HOST_H_
