// [feature Replication] Follower side of WAL shipping, and the promotion
// ceremony. The follower carries no apply path and no engine of its own:
// it stages the leader's segment bytes, and Sweep applies them by
// reopening the node's own product — a StaticEngine<Cfg>, or the runtime
// Database — whose crash recovery replays them (LogManager::Replay into
// the ApplyTarget) before its VerifyIntegrity scrubs the result. A crash
// mid-apply is therefore a crash mid-recovery, a case the engine already
// survives idempotently.
//
// Sweep and PromoteFollower are templates over the product. The caller
// passes `open`, a callable returning StatusOr<std::unique_ptr<E>> for the
// engine at the follower's path, where E offers StartFollower(epoch),
// VerifyIntegrity(report*), and for promotion repl_follower() and
// Promote(epoch): `Database::Open(opts)` for a runtime node, or a
// default-constructed StaticEngine<Cfg> opened with Open(env, path). A
// replication node thus links exactly one engine, the one it is.
#ifndef FAME_REPL_FOLLOWER_H_
#define FAME_REPL_FOLLOWER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "repl/repl.h"
#include "storage/integrity.h"
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif

namespace fame::repl {

/// Receives the leader's stream into local segment files and periodically
/// applies them by reopening its engine. Create with Attach; single-
/// threaded like the engines it wraps.
class Follower final : public Peer {
 public:
  struct Options {
    /// [feature FlightRecorder] Feature names of the follower's product,
    /// recorded in the black box written when the node diverges. The box
    /// is written only when they include FlightRecorder; static products
    /// have no FlightRecorder and leave this empty.
    std::vector<std::string> blackbox_features;
  };

  /// Binds a follower to `db_path` (creating its fence sidecar when absent)
  /// and recovers the resume point from the staged segments on disk.
  static StatusOr<std::unique_ptr<Follower>> Attach(osal::Env* env,
                                                    std::string db_path,
                                                    Options opts = {});

  /// Peer: stages one message. Stale-epoch senders get Aborted ("fenced"),
  /// duplicates and gaps are answered with the current contiguous end so
  /// the leader resumes correctly, CRC-damaged chunks get a transient
  /// error, a chunk that precedes its own segment base gets
  /// InvalidArgument, and a failed seal cross-check marks the node
  /// divergent on disk and returns DataLoss.
  StatusOr<Ack> Deliver(const Message& m) override;

  /// Applies everything staged so far: reopens the engine through `open`
  /// (crash-recovery replay is the apply), fences it as a follower,
  /// verifies its integrity, closes it, and recomputes the resume point.
  /// DataLoss when the node is (or becomes) divergent.
  template <typename OpenEngine>
  Status Sweep(const OpenEngine& open);

  /// Contiguous WAL bytes staged (the resume point acked to the leader).
  uint64_t end_lsn() const { return wal_end_; }
  const FenceState& fence() const { return fence_; }
  bool divergent() const { return fence_.divergent; }

 private:
  Follower(osal::Env* env, std::string db_path, Options opts);

  Status DeliverWal(const Message& m);
  Status DeliverSeal(const Message& m);
  Status DeliverSnapshotFile(const Message& m, Ack* ack);
  Status DeliverSnapshotDone();
  /// Whether Sweep has anything to apply: DataLoss when divergent, Busy
  /// mid-bootstrap.
  StatusOr<bool> HasStagedWork() const;
  /// Raises the fence to `epoch` (persisting it) if higher.
  Status RaiseFence(uint32_t epoch);
  Status MarkDivergent(const std::string& why);
  /// Recomputes wal_end_ from the staged segment files.
  Status ScanStagedWal();
  /// Deletes the page file and every staged segment (epoch-change reset /
  /// bootstrap replace).
  Status ResetDataFiles();
  Status ClearSnapshotStaging();
  std::string SegmentName(uint32_t seq) const;
  std::string SnapPrefix() const { return db_path_ + ".snap"; }

  osal::Env* env_;
  const std::string db_path_;
  const std::string wal_path_;
  Options opts_;
  FenceState fence_;
  uint64_t wal_end_ = 0;
  bool snapshot_active_ = false;
  /// Contiguous bytes staged per bootstrap artifact (keyed by suffix).
  std::map<std::string, uint64_t> snap_received_;
};

template <typename OpenEngine>
Status Follower::Sweep(const OpenEngine& open) {
  FAME_ASSIGN_OR_RETURN(const bool staged, HasStagedWork());
  if (!staged) return Status::OK();
  // One apply sweep is one replication span: the reopen's recovery replay
  // and the post-sweep scrub both parent under it.
  FAME_OBS_TRACE(obs::ScopedOpSpan sweep_span(obs::TraceOp::kReplApply);)
  Status applied = [&]() -> Status {
    // The reopen *is* the apply: crash recovery replays every staged
    // committed record through the code path a crashed standalone engine
    // uses.
    auto engine = open();
    if (!engine.ok()) {
      if (!engine.status().IsCorruption()) return engine.status();
      return MarkDivergent("engine reopen failed: " +
                           engine.status().ToString());
    }
    FAME_RETURN_IF_ERROR((*engine)->StartFollower(fence_.epoch));
    storage::IntegrityReport report;
    Status verify = (*engine)->VerifyIntegrity(&report);
    if (verify.ok()) return verify;
    return MarkDivergent("post-sweep scrub found damage: " +
                         verify.ToString());
  }();  // the engine closes here
  if (!applied.ok()) {
    FAME_OBS_TRACE(sweep_span.set_error(true);)
    return applied;
  }
  // Recovery may have truncated a torn tail and recycled applied segments;
  // recompute the resume point so the next ack tells the leader exactly
  // where to resume.
  return ScanStagedWal();
}

/// The fence of the follower at `db_path` if it may be promoted:
/// InvalidArgument for a node without a fence sidecar or one that already
/// leads, DataLoss for a divergent one.
StatusOr<FenceState> LoadPromotableFence(osal::Env* env,
                                         const std::string& db_path);

/// Epoch-fenced failover: promotes the follower at `db_path` to leader.
/// Refuses (DataLoss) when the node is marked divergent; otherwise opens
/// the engine through `open` (as for Follower::Sweep; its product must
/// select Failover), runs its integrity-gated Promote under epoch + 1,
/// closes it, and rewrites the fence sidecar. Returns the new epoch.
template <typename OpenEngine>
StatusOr<uint32_t> PromoteFollower(osal::Env* env, const std::string& db_path,
                                   const OpenEngine& open) {
  FAME_ASSIGN_OR_RETURN(FenceState fence, LoadPromotableFence(env, db_path));
  const uint32_t new_epoch = fence.epoch + 1;
  {
    FAME_ASSIGN_OR_RETURN(auto engine, open());
    if (!engine->repl_follower()) {
      // The sidecar is authoritative: a follower that never swept (nothing
      // staged yet) has no fence stamped into its page-file meta. Stamp it
      // now so the promotion below sees a follower.
      FAME_RETURN_IF_ERROR(engine->StartFollower(fence.epoch));
    }
    // Integrity-gated: Promote verifies the store before taking leadership
    // and stamps the new epoch into the PageFile meta and the WAL.
    FAME_RETURN_IF_ERROR(engine->Promote(new_epoch));
  }
  fence.epoch = new_epoch;
  fence.role = Role::kLeader;
  FAME_RETURN_IF_ERROR(StoreFence(env, db_path, fence));
  return new_epoch;
}

/// Force-adds the runtime features a replication node cannot function
/// without (static products select them in their Cfg).
void AddReplicationFeatures(std::vector<std::string>* features);

}  // namespace fame::repl

#endif  // FAME_REPL_FOLLOWER_H_
