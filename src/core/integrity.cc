// Integrity features of the Database facade: Scrub (incremental page
// scrubbing), Verify (the feature gate over EngineHost::VerifyIntegrity,
// the full structural pass), Repair (quarantine + salvage + rebuild + WAL
// replay), and the unified GetStats snapshot. Kept out of database.cc so
// the access-path code stays readable; everything here is runtime-gated on
// the Scrub/Verify/Repair features of the extended Figure-2 model.
#include <algorithm>
#include <map>
#include <vector>

#include "core/database.h"
#include "core/sql.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "obs/obs.h"
#include "obs/serialize.h"
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif

namespace fame::core {

namespace {

using detail::AddIssue;
using detail::DecodeRecordKey;
using detail::RidStr;

// ------------------------------------------------------------ salvage

struct SalvageResult {
  /// key -> full record bytes, keyed so the rebuild is deduplicated and
  /// (for the B+-tree) fed in ascending key order.
  std::map<std::string, std::string> records;
  std::vector<storage::PageId> quarantined;
  std::string quarantine_blob;  // concatenated quarantine entries
};

/// Quarantine container entry framing: ["FQ01"][u32 page id][u32 page size]
/// [image]. Raw page images only; a post-mortem tool can dig records out.
void AppendQuarantineEntry(std::string* blob, storage::PageId id,
                           const char* image, uint32_t page_size) {
  blob->append("FQ01", 4);
  PutFixed32(blob, id);
  PutFixed32(blob, page_size);
  blob->append(image, page_size);
}

/// Raw scan of every data page: corrupt pages are quarantined, live records
/// on intact heap pages are collected. Never trusts any chain or index —
/// those may be the corrupt part.
Status SalvageScan(storage::PageFile* file, storage::IntegrityReport* report,
                   SalvageResult* out) {
  const uint32_t page_size = file->page_size();
  std::vector<char> buf(page_size);
  for (storage::PageId id = storage::PageFile::kFirstDataPage;
       id < file->page_count(); ++id) {
    Status rs = file->ReadPageRaw(id, buf.data());
    if (!rs.ok()) {
      report->AddCorrupt(id, "unreadable: " + rs.ToString());
      out->quarantined.push_back(id);  // no image to preserve
      continue;
    }
    bool all_zero =
        std::all_of(buf.begin(), buf.end(), [](char c) { return c == 0; });
    if (all_zero) continue;  // allocated, never written
    storage::Page page(buf.data(), page_size);
    uint8_t tag = static_cast<uint8_t>(buf[0]);
    bool bad_tag = tag > static_cast<uint8_t>(storage::PageType::kOverflow) ||
                   page.type() == storage::PageType::kMeta;
    Status cs = bad_tag ? Status::OK() : page.VerifyChecksum();
    if (bad_tag || !cs.ok()) {
      report->AddCorrupt(id, bad_tag ? "bad page type tag" : cs.message());
      out->quarantined.push_back(id);
      AppendQuarantineEntry(&out->quarantine_blob, id, buf.data(), page_size);
      continue;
    }
    if (page.type() != storage::PageType::kHeap) continue;
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      auto rec_or = page.Get(slot);
      if (!rec_or.ok()) continue;  // dead slot
      Slice rec = rec_or.value();
      Slice key;
      if (!DecodeRecordKey(rec, &key)) {
        AddIssue(&report->heap_issues,
                 "dropping undecodable record at " +
                     RidStr(storage::Rid{id, slot}));
        continue;
      }
      auto inserted = out->records.emplace(key.ToString(), rec.ToString());
      if (!inserted.second) {
        AddIssue(&report->heap_issues,
                 "duplicate key on page " + std::to_string(id) +
                     " (keeping the first copy)");
      }
    }
  }
  return Status::OK();
}

/// Appends `blob` to `name` (creating it on first use).
Status AppendToFile(osal::Env* env, const std::string& name,
                    const std::string& blob) {
  auto file_or = env->OpenFile(name, /*create=*/true);
  FAME_RETURN_IF_ERROR(file_or.status());
  auto& f = *file_or.value();
  FAME_ASSIGN_OR_RETURN(uint64_t size, f.Size());
  FAME_RETURN_IF_ERROR(f.Write(size, blob));
  return f.Sync();
}

}  // namespace

// ------------------------------------------------------------ Scrub

StatusOr<uint32_t> Database::Scrub(uint32_t max_pages) {
  if (!HasFeature("Scrub")) {
    return Status::NotSupported("feature Scrub not selected");
  }
  return scrubber_->ScrubStep(max_pages, &scrub_findings_);
}

// ------------------------------------------------------------ Verify

Status Database::VerifyIntegrity(storage::IntegrityReport* report) {
  if (!HasFeature("Verify")) {
    return Status::NotSupported("feature Verify not selected");
  }
  return Host::VerifyIntegrity(scrubber_.get(), report);
}

// ------------------------------------------------------------ Repair

Status Database::Repair(storage::IntegrityReport* report) {
  if (!HasFeature("Repair")) {
    return Status::NotSupported("feature Repair not selected");
  }
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kRepair);)
  storage::IntegrityReport local;
  if (report == nullptr) report = &local;
  *report = storage::IntegrityReport{};
  if (txmgr_ != nullptr && txmgr_->active_transactions() > 0) {
    return Status::InvalidArgument("repair with transactions still active");
  }
  // Flight recorder: repair is a degradation event — snapshot the state
  // (breadcrumbs, spans, metrics) before the rebuild tears it down.
  FAME_OBS(if (blackbox_ != nullptr) {
    (void)DumpBlackBox("repair requested; degraded_status=" +
                       write_error_.ToString());
  })
  report->page_size = file_->page_size();
  report->page_count = file_->page_count();

  // Flush whatever clean state the pool still holds; failures here are
  // usually the reason repair was called, so they are not fatal.
  (void)buffers_->FlushAll();
  (void)file_->Sync();

  // Tear down everything above the page file. The WAL file stays on disk:
  // committed operations newer than the last checkpoint are replayed after
  // the rebuild.
  sql_.reset();
  txmgr_.reset();
  scrubber_.reset();
  index_.reset();
  heap_.reset();

  SalvageResult salvage;
  FAME_RETURN_IF_ERROR(SalvageScan(file_.get(), report, &salvage));

  buffers_.reset();
  (void)file_->Close();  // the old image is about to be replaced
  file_.reset();

  if (!salvage.quarantine_blob.empty()) {
    FAME_RETURN_IF_ERROR(AppendToFile(env_, options_.path + ".quarantine",
                                      salvage.quarantine_blob));
  }

  // Rebuild a fresh file from the salvage, then install it atomically.
  std::string tmp = options_.path + ".repair";
  if (env_->FileExists(tmp)) FAME_RETURN_IF_ERROR(env_->DeleteFile(tmp));
  Status rebuild = [&]() -> Status {
    storage::PageFileOptions pf_opts;
    pf_opts.page_size = options_.page_size;
    FAME_ASSIGN_OR_RETURN(auto pf, storage::PageFile::Open(env_, tmp, pf_opts));
    {
      FAME_ASSIGN_OR_RETURN(
          auto bm, storage::BufferManager::Create(
                       pf.get(), options_.buffer_frames, res_.get(),
                       storage::MakeReplacementPolicy("lru")));
      FAME_ASSIGN_OR_RETURN(auto heap,
                            storage::RecordManager::Open(bm.get(), kStore));
      if (policy_.ordered()) {
        FAME_ASSIGN_OR_RETURN(auto tree,
                              index::BPlusTree::Open(bm.get(), kStore));
        std::vector<std::pair<std::string, uint64_t>> entries;
        entries.reserve(salvage.records.size());
        for (const auto& [key, rec] : salvage.records) {
          FAME_ASSIGN_OR_RETURN(storage::Rid rid, heap->Insert(rec));
          entries.emplace_back(key, rid.Pack());
        }
        if (!entries.empty()) FAME_RETURN_IF_ERROR(tree->BulkLoad(entries));
      } else {
        FAME_ASSIGN_OR_RETURN(auto list,
                              index::ListIndex::Open(bm.get(), kStore));
        for (const auto& [key, rec] : salvage.records) {
          FAME_ASSIGN_OR_RETURN(storage::Rid rid, heap->Insert(rec));
          FAME_RETURN_IF_ERROR(list->Insert(key, rid.Pack()));
        }
      }
      FAME_RETURN_IF_ERROR(bm->Checkpoint());
    }
    FAME_RETURN_IF_ERROR(pf->Close());
    return env_->RenameFile(tmp, options_.path);
  }();

  // Recompose on whichever file is now at options_.path — the rebuilt one,
  // or (when the rebuild failed before install) the original.
  Status reopen = OpenStorage();
  if (reopen.ok()) OpenScrubber();
  if (rebuild.ok() && reopen.ok()) {
    // Same log flavor and open sequence as the original open. Recovery
    // replays everything committed after the last checkpoint: redone puts
    // are idempotent upserts, deletes of already-gone keys are tolerated.
    reopen = OpenTransactions();
  }
  if (!rebuild.ok()) return rebuild;
  FAME_RETURN_IF_ERROR(reopen);
  if (HasFeature("SQL-Engine")) {
    sql_ = std::make_unique<SqlEngine>(this, HasFeature("Optimizer"));
  }

  // The rebuilt file is consistent by construction: lift the latch.
  write_error_ = Status::OK();
  report->repaired = true;
  report->quarantined_pages = salvage.quarantined;
  report->records_salvaged = salvage.records.size();
  metrics_.repair_runs.Add(1);
  metrics_.pages_quarantined.Add(salvage.quarantined.size());
  metrics_.records_salvaged.Add(salvage.records.size());
  return Status::OK();
}

// ------------------------------------------------------------ stats

obs::MetricsSnapshot Database::SnapshotMetrics() const {
  obs::MetricsSnapshot m = AssembleMetrics();
  if (scrubber_ != nullptr) {
    storage::ScrubStats sc = scrubber_->stats();
    m.scrub_pages_checked = sc.pages_checked;
    m.scrub_corrupt_pages = sc.corrupt_pages;
    m.scrub_cycles = sc.cycles_completed;
  }
  return m;
}

StatusOr<obs::MetricsSnapshot> Database::GetMetricsSnapshot() const {
  if (!HasFeature("Observability")) {
    return Status::NotSupported("feature Observability not selected");
  }
  return SnapshotMetrics();
}

DbStats Database::GetStats() const {
  DbStats s;
  s.metrics = SnapshotMetrics();
  // Legacy named fields, derived from the one snapshot so there is a
  // single read of every counter (the snapshot reads are atomic; the old
  // implementation re-read multi-word structs non-atomically).
  if (buffers_ != nullptr) s.buffer = buffers_->stats();
  if (scrubber_ != nullptr) s.scrub = scrubber_->stats();
  s.lost_meta_writes = s.metrics.lost_meta_writes;
  s.lost_page_writebacks = s.metrics.lost_page_writebacks;
  s.page_count = s.metrics.page_count;
  s.verify_runs = s.metrics.verify_runs;
  s.repair_runs = s.metrics.repair_runs;
  s.pages_quarantined = s.metrics.pages_quarantined;
  s.records_salvaged = s.metrics.records_salvaged;
  s.committed_txns = s.metrics.committed_txns;
  s.aborted_txns = s.metrics.aborted_txns;
  s.read_only = s.metrics.read_only;
  if (txmgr_ != nullptr) {
    s.recovery = txmgr_->recovery_report();
    s.wal = txmgr_->wal_stats();
  }
  return s;
}

std::string DbStats::ToString() const { return obs::RenderText(metrics); }

Status Database::DumpBlackBox(const std::string& reason) {
#if FAME_OBS_ENABLED
  if (blackbox_ == nullptr) {
    return Status::NotSupported("feature FlightRecorder not selected");
  }
  return blackbox_->Persist(env_, options_.path, reason, config_.Signature(),
                            obs::RenderText(SnapshotMetrics()));
#else
  (void)reason;
  return Status::NotSupported("observability not compiled in");
#endif
}

}  // namespace fame::core
