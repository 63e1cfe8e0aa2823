#include "repl/follower.h"

#include <algorithm>
#include <vector>

#include "common/crc32.h"
#include "common/stringutil.h"
#include "core/backup.h"
#include "tx/wal_segments.h"
#if FAME_OBS_ENABLED
#include "obs/blackbox.h"
#endif

namespace fame::repl {

namespace {

Status ReadExactAt(osal::RandomAccessFile* f, uint64_t off, uint64_t n,
                   char* dst) {
  Slice result;
  FAME_RETURN_IF_ERROR(f->Read(off, n, dst, &result));
  if (result.size() != n) return Status::IOError("short replication read");
  return Status::OK();
}

}  // namespace

void AddReplicationFeatures(std::vector<std::string>* features) {
  for (const char* needed :
       {"Transaction", "WAL-Redo", "Backup", "Verify", "Replication"}) {
    if (std::find(features->begin(), features->end(), needed) ==
        features->end()) {
      features->push_back(needed);
    }
  }
}

Follower::Follower(osal::Env* env, std::string db_path, Options opts)
    : env_(env),
      db_path_(std::move(db_path)),
      wal_path_(db_path_ + ".wal"),
      opts_(std::move(opts)) {}

StatusOr<std::unique_ptr<Follower>> Follower::Attach(osal::Env* env,
                                                     std::string db_path,
                                                     Options opts) {
  std::unique_ptr<Follower> f(
      new Follower(env, std::move(db_path), std::move(opts)));
  auto fence_or = LoadFence(env, f->db_path_);
  if (fence_or.ok()) {
    f->fence_ = fence_or.value();
    if (f->fence_.role == Role::kLeader) {
      return Status::InvalidArgument(
          "refusing to attach a leader as a follower: " + f->db_path_);
    }
  } else if (fence_or.status().IsNotFound()) {
    f->fence_.role = Role::kFollower;
    FAME_RETURN_IF_ERROR(StoreFence(env, f->db_path_, f->fence_));
  } else {
    return fence_or.status();
  }
  FAME_RETURN_IF_ERROR(f->ScanStagedWal());
  return f;
}

std::string Follower::SegmentName(uint32_t seq) const {
  return wal_path_ + "." + tx::seg::SegmentSuffix(seq);
}

Status Follower::RaiseFence(uint32_t epoch) {
  if (epoch <= fence_.epoch) return Status::OK();
  fence_.epoch = epoch;
  fence_.role = Role::kFollower;
  return StoreFence(env_, db_path_, fence_);
}

Status Follower::MarkDivergent(const std::string& why) {
  fence_.divergent = true;
  // Persist first: a divergent node must refuse promotion even after a
  // crash right here.
  FAME_RETURN_IF_ERROR(StoreFence(env_, db_path_, fence_));
  // Flight recorder: divergence is the replication black-box moment. The
  // follower keeps no engine handle, so the one-shot writer captures the
  // trigger and any active trace spans (best-effort — the DataLoss verdict
  // below must surface regardless).
  FAME_OBS({
    const std::vector<std::string>& fs = opts_.blackbox_features;
    if (std::find(fs.begin(), fs.end(), "FlightRecorder") != fs.end()) {
      std::string features;
      for (const std::string& f : fs) {
        if (!features.empty()) features += ",";
        features += f;
      }
      (void)obs::PersistBlackBox(env_, db_path_,
                                 "replication divergence: " + why, features,
                                 /*errors_text=*/"", /*metrics_text=*/"");
    }
  })
  return Status::DataLoss("follower diverged: " + why);
}

StatusOr<Ack> Follower::Deliver(const Message& m) {
  if (m.epoch < fence_.epoch) {
    return Status::Aborted(StringPrintf(
        "fenced: sender epoch %u is stale (follower fence at %u)", m.epoch,
        fence_.epoch));
  }
  const bool epoch_raised = m.epoch > fence_.epoch;
  FAME_RETURN_IF_ERROR(RaiseFence(m.epoch));

  Ack ack;
  switch (m.kind) {
    case Message::kHello:
      // Across an epoch change, a log running past the new leader's
      // durable end holds a suffix that was never durable under the new
      // leadership — and may already be applied to our pages. Redo-only
      // recovery cannot un-apply it, so reset entirely and let the leader
      // bootstrap us fresh.
      if (epoch_raised && wal_end_ > m.total) {
        FAME_RETURN_IF_ERROR(ResetDataFiles());
        FAME_RETURN_IF_ERROR(ClearSnapshotStaging());
      }
      break;
    case Message::kWal:
      if (fence_.divergent) {
        return Status::DataLoss("follower diverged; re-bootstrap required");
      }
      FAME_RETURN_IF_ERROR(DeliverWal(m));
      break;
    case Message::kSeal:
      if (fence_.divergent) {
        return Status::DataLoss("follower diverged; re-bootstrap required");
      }
      FAME_RETURN_IF_ERROR(DeliverSeal(m));
      break;
    case Message::kSnapshotBegin:
      FAME_RETURN_IF_ERROR(ClearSnapshotStaging());
      snapshot_active_ = true;
      break;
    case Message::kSnapshotFile:
      FAME_RETURN_IF_ERROR(DeliverSnapshotFile(m, &ack));
      break;
    case Message::kSnapshotDone:
      FAME_RETURN_IF_ERROR(DeliverSnapshotDone());
      break;
  }
  ack.epoch = fence_.epoch;
  ack.end_lsn = wal_end_;
  ack.has_db = env_->FileExists(db_path_);
  return ack;
}

Status Follower::DeliverWal(const Message& m) {
  if (Crc32(m.payload.data(), m.payload.size()) != m.crc) {
    // Damaged in flight: transient, the sender retries the chunk.
    return Status::IOError("repl chunk crc mismatch in flight");
  }
  if (m.base_lsn > m.lsn) {
    // The staging offset below is measured from the segment base; a chunk
    // that starts before its own segment is malformed, not data.
    return Status::InvalidArgument(StringPrintf(
        "repl chunk at lsn %llu precedes its segment base %llu",
        static_cast<unsigned long long>(m.lsn),
        static_cast<unsigned long long>(m.base_lsn)));
  }
  const uint64_t chunk_end = m.lsn + m.payload.size();
  if (chunk_end <= wal_end_) return Status::OK();  // duplicate delivery
  if (m.lsn > wal_end_) return Status::OK();  // gap (reorder); ack rewinds
  const std::string name = SegmentName(m.seq);
  const bool fresh = !env_->FileExists(name);
  auto f_or = env_->OpenFile(name, /*create=*/true);
  FAME_RETURN_IF_ERROR(f_or.status());
  std::unique_ptr<osal::RandomAccessFile> f = std::move(f_or).value();
  if (fresh) {
    // Recreate the header byte-identically to the leader's: same base,
    // sequence, and creation epoch.
    FAME_RETURN_IF_ERROR(f->Write(
        0, tx::seg::EncodeSegmentHeader(m.base_lsn, m.seq, m.seg_epoch)));
  }
  const uint64_t skip = wal_end_ - m.lsn;  // overlap already staged
  Slice body(m.payload.data() + skip, m.payload.size() - skip);
  FAME_RETURN_IF_ERROR(
      f->Write(tx::seg::kHeaderSize + (wal_end_ - m.base_lsn), body));
  // Per-chunk durability keeps the acked prefix honest: what we ack
  // survives our own crash, so the leader's resume point never lies.
  FAME_RETURN_IF_ERROR(f->Sync());
  wal_end_ = chunk_end;
  return Status::OK();
}

Status Follower::DeliverSeal(const Message& m) {
  const std::string name = SegmentName(m.seq);
  if (!env_->FileExists(name)) {
    // Already applied, verified, and recycled by an earlier sweep.
    return Status::OK();
  }
  auto f_or = env_->OpenFile(name, /*create=*/false);
  FAME_RETURN_IF_ERROR(f_or.status());
  auto size_or = f_or.value()->Size();
  FAME_RETURN_IF_ERROR(size_or.status());
  // Compare payload bytes, not header + total, so a garbage total cannot
  // wrap the sum and size the read buffer below.
  const uint64_t staged = size_or.value() > tx::seg::kHeaderSize
                              ? size_or.value() - tx::seg::kHeaderSize
                              : 0;
  if (staged < m.total) {
    return MarkDivergent(StringPrintf(
        "segment %u shorter than the leader's seal (%llu < %llu payload "
        "bytes)",
        m.seq, static_cast<unsigned long long>(staged),
        static_cast<unsigned long long>(m.total)));
  }
  std::string payload(m.total, '\0');
  if (m.total > 0) {
    FAME_RETURN_IF_ERROR(ReadExactAt(f_or.value().get(),
                                     tx::seg::kHeaderSize, m.total,
                                     payload.data()));
  }
  if (Crc32(payload.data(), payload.size()) != m.crc) {
    return MarkDivergent(StringPrintf(
        "segment %u payload crc differs from the leader's seal", m.seq));
  }
  return Status::OK();
}

Status Follower::DeliverSnapshotFile(const Message& m, Ack* ack) {
  if (Crc32(m.payload.data(), m.payload.size()) != m.crc) {
    return Status::IOError("repl snapshot chunk crc mismatch in flight");
  }
  snapshot_active_ = true;
  uint64_t& received = snap_received_[m.name];
  const uint64_t chunk_end = m.offset + m.payload.size();
  const std::string name = SnapPrefix() + m.name;
  const bool fresh = !env_->FileExists(name);
  if (m.offset > received || (chunk_end <= received && !fresh)) {
    ack->snapshot_bytes = received;  // gap or duplicate; sender resyncs
    return Status::OK();
  }
  auto f_or = env_->OpenFile(name, /*create=*/true);
  FAME_RETURN_IF_ERROR(f_or.status());
  std::unique_ptr<osal::RandomAccessFile> f = std::move(f_or).value();
  const uint64_t skip = received > m.offset ? received - m.offset : 0;
  if (m.payload.size() > skip) {
    Slice body(m.payload.data() + skip, m.payload.size() - skip);
    FAME_RETURN_IF_ERROR(f->Write(m.offset + skip, body));
    FAME_RETURN_IF_ERROR(f->Sync());
  }
  if (chunk_end > received) received = chunk_end;
  ack->snapshot_bytes = received;
  return Status::OK();
}

Status Follower::DeliverSnapshotDone() {
  if (!env_->FileExists(SnapPrefix() + ".manifest")) {
    return Status::IOError("snapshot incomplete: no manifest staged");
  }
  // The restore replaces whatever this node had: bootstrap is authoritative.
  FAME_RETURN_IF_ERROR(ResetDataFiles());
  core::backup::RestoreReport report;
  FAME_RETURN_IF_ERROR(core::backup::RunRestore(
      env_, SnapPrefix(), db_path_, core::backup::RestoreOptions{}, &report));
  FAME_RETURN_IF_ERROR(ClearSnapshotStaging());
  snapshot_active_ = false;
  // A completed bootstrap clears divergence: this node is now a verbatim
  // copy of the leader's artifacts.
  if (fence_.divergent) {
    fence_.divergent = false;
    FAME_RETURN_IF_ERROR(StoreFence(env_, db_path_, fence_));
  }
  return ScanStagedWal();
}

StatusOr<bool> Follower::HasStagedWork() const {
  if (fence_.divergent) {
    return Status::DataLoss("follower diverged; re-bootstrap required");
  }
  if (snapshot_active_) {
    return Status::Busy("bootstrap in progress; nothing to apply yet");
  }
  return env_->FileExists(db_path_) || wal_end_ > 0;
}

Status Follower::ScanStagedWal() {
  wal_end_ = 0;
  std::vector<std::string> names;
  Status s = env_->ListFiles(wal_path_ + ".", &names);
  if (!s.ok()) return Status::OK();
  const size_t plen = wal_path_.size() + 1;
  std::vector<std::pair<uint32_t, std::string>> candidates;
  for (const std::string& n : names) {
    const std::string suffix = n.substr(plen);
    if (suffix.size() < 6 || suffix.size() > 9) continue;
    if (!std::all_of(suffix.begin(), suffix.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    candidates.emplace_back(static_cast<uint32_t>(std::stoul(suffix)), n);
  }
  std::sort(candidates.begin(), candidates.end());
  uint32_t prev_seq = 0;
  bool have_prev = false;
  for (const auto& [seq, name] : candidates) {
    auto f_or = env_->OpenFile(name, /*create=*/false);
    if (!f_or.ok()) break;
    auto size_or = f_or.value()->Size();
    if (!size_or.ok() || size_or.value() < tx::seg::kHeaderSize) break;
    char hdr[tx::seg::kHeaderSize];
    if (!ReadExactAt(f_or.value().get(), 0, tx::seg::kHeaderSize, hdr).ok()) {
      break;
    }
    uint64_t base = 0;
    uint32_t hdr_seq = 0;
    if (!tx::seg::DecodeSegmentHeader(hdr, tx::seg::kHeaderSize, &base,
                                      &hdr_seq) ||
        hdr_seq != seq) {
      break;
    }
    if (have_prev && seq != prev_seq + 1) break;
    if (have_prev && base != wal_end_) break;
    wal_end_ = base + (size_or.value() - tx::seg::kHeaderSize);
    prev_seq = seq;
    have_prev = true;
  }
  return Status::OK();
}

Status Follower::ResetDataFiles() {
  if (env_->FileExists(db_path_)) {
    FAME_RETURN_IF_ERROR(env_->DeleteFile(db_path_));
  }
  std::vector<std::string> names;
  if (env_->ListFiles(wal_path_ + ".", &names).ok()) {
    for (const std::string& n : names) {
      FAME_RETURN_IF_ERROR(env_->DeleteFile(n));
    }
  }
  wal_end_ = 0;
  return Status::OK();
}

Status Follower::ClearSnapshotStaging() {
  std::vector<std::string> names;
  if (env_->ListFiles(SnapPrefix(), &names).ok()) {
    for (const std::string& n : names) {
      FAME_RETURN_IF_ERROR(env_->DeleteFile(n));
    }
  }
  snap_received_.clear();
  return Status::OK();
}

StatusOr<FenceState> LoadPromotableFence(osal::Env* env,
                                         const std::string& db_path) {
  auto fence_or = LoadFence(env, db_path);
  if (!fence_or.ok()) {
    if (fence_or.status().IsNotFound()) {
      return Status::InvalidArgument(
          "not a replication node (no fence sidecar): " + db_path);
    }
    return fence_or.status();
  }
  const FenceState& fence = fence_or.value();
  if (fence.divergent) {
    return Status::DataLoss(
        "refusing promotion: follower diverged from its leader; "
        "re-bootstrap it first");
  }
  if (fence.role == Role::kLeader) {
    return Status::InvalidArgument("already a leader: " + db_path);
  }
  return fence;
}

}  // namespace fame::repl
