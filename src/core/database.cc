#include "core/database.h"

#include "core/sql.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "obs/obs.h"
#include "osal/slab_alloc.h"
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif

namespace fame::core {

namespace {
constexpr char kStore[] = "core";
}  // namespace

Database::~Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Open(const DbOptions& options) {
  std::unique_ptr<Database> db(new Database());
  db->options_ = options;
  db->model_ = fm::BuildFameDbmsModel();

  // Derive the product: select the requested features, propagate, complete
  // minimally, validate.
  fm::Configuration config(db->model_.get());
  for (const std::string& f : options.features) {
    FAME_RETURN_IF_ERROR(config.SelectByName(f));
  }
  FAME_RETURN_IF_ERROR(db->model_->CompleteMinimal(&config));
  db->config_ = config;

  FAME_RETURN_IF_ERROR(db->ComposeComponents(options));
  return db;
}

bool Database::HasFeature(const std::string& name) const {
  auto id_or = model_->Find(name);
  return id_or.ok() && config_.IsSelected(id_or.value());
}

StatusOr<std::unique_ptr<index::KeyValueIndex>>
detail::RuntimeHostPolicy::OpenIndex(storage::BufferManager* buffers) const {
  std::unique_ptr<index::KeyValueIndex> idx;
  if (has_btree) {
    FAME_ASSIGN_OR_RETURN(idx, index::BPlusTree::Open(buffers, kStore));
  } else {
    FAME_ASSIGN_OR_RETURN(idx, index::ListIndex::Open(buffers, kStore));
  }
  return idx;
}

Status Database::ComposeComponents(const DbOptions& options) {
  // OS-Abstraction alternative.
  osal::Env* env = nullptr;
  if (HasFeature("NutOS")) {
    res_.owned_env = osal::NewMemEnv(options.nutos_capacity_bytes);
    env = res_.owned_env.get();
  } else if (HasFeature("Win32")) {
    osal::Env* base = options.env != nullptr ? options.env
                                             : osal::GetPosixEnv();
    res_.owned_env = osal::NewWin32PathEnv(base);
    env = res_.owned_env.get();
  } else {
    env = options.env != nullptr ? options.env : osal::GetPosixEnv();
  }

  // Memory Alloc alternative. Static products take their whole budget up
  // front and never touch the heap again: segregated slab classes (O(1)
  // carve/free) replaced the first-fit StaticPoolAllocator walk.
  if (HasFeature("Static")) {
#if FAME_SLAB_ENABLED
    res_.alloc = std::make_unique<osal::slab::StaticSlabAllocator>(
        options.static_pool_bytes);
#else
    res_.alloc =
        std::make_unique<osal::StaticPoolAllocator>(options.static_pool_bytes);
#endif
  } else {
    res_.alloc = std::make_unique<osal::DynamicAllocator>();
  }

  // The host's "is" bits and tuning.
  policy_.has_transactions = HasFeature("Transaction");
  policy_.has_mvcc = HasFeature("Mvcc");
  policy_.has_backup = HasFeature("Backup");
  policy_.has_pitr = HasFeature("Pitr");
  policy_.has_concurrency = HasFeature("Concurrency");
  policy_.has_force_commit = HasFeature("Force-Commit");
  policy_.has_btree = HasFeature("B+-Tree");
  policy_.page_bytes = options.page_size;
  policy_.frames = options.buffer_frames;
  policy_.replacement_policy = HasFeature("LFU")     ? "lfu"
                               : HasFeature("Clock") ? "clock"
                                                     : "lru";
  policy_.segment_bytes = options.wal_segment_bytes;
  has_put_ = HasFeature("Put");
  has_remove_ = HasFeature("Remove");
  has_update_ = HasFeature("Update");

  // Tracing feature: flip the process-wide recording gate before the
  // storage stack opens, so open-time page IO is already in the ring.
  // (Static products call obs::Trace::Enable themselves; the facade
  // derives it from the configuration like every other feature.)
  FAME_OBS_TRACE(if (HasFeature("Tracing")) obs::Trace::Enable(true);)

  // FlightRecorder feature: the in-memory black box exists from before the
  // storage stack opens so even open-time degradation leaves breadcrumbs.
  FAME_OBS(if (HasFeature("FlightRecorder")) {
    blackbox_ = std::make_unique<obs::BlackBox>();
  })

  FAME_RETURN_IF_ERROR(OpenEngine(env, options.path));
  OpenScrubber();

  // SQL Engine feature.
  if (HasFeature("SQL-Engine")) {
    sql_ = std::make_unique<SqlEngine>(this, HasFeature("Optimizer"));
  }
  return Status::OK();
}

void Database::OpenScrubber() {
  if (HasFeature("Scrub") || HasFeature("Verify")) {
    scrubber_ = std::make_unique<storage::Scrubber>(file_.get());
  }
}

// ------------------------------------------------------------ KV access
//
// The bodies live in EngineHost / EngineCore (shared with StaticEngine);
// Database adds feature gating, op timers and trace spans.

Status Database::Put(const Slice& key, const Slice& value) {
  if (!has_put_) return Status::NotSupported("feature Put not selected");
  FAME_OBS(metrics_.puts.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.put_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kPut);)
  FAME_RETURN_IF_ERROR(GuardWrite());
  Status s = NoteWrite(PutRecord(key, value));
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

Status Database::Get(const Slice& key, std::string* value) {
  FAME_OBS(metrics_.gets.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.get_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kGet);)
  Status s = GetRecord(key, value);
  FAME_OBS_TRACE(span.set_error(!s.ok() && !s.IsNotFound());)
  return s;
}

Status Database::Remove(const Slice& key) {
  if (!has_remove_) return Status::NotSupported("feature Remove not selected");
  FAME_OBS(
      metrics_.removes.Add(1);
      obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.remove_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kRemove);)
  FAME_RETURN_IF_ERROR(GuardWrite());
  Status s = NoteWrite(RemoveRecord(key));
  FAME_OBS_TRACE(span.set_error(!s.ok() && !s.IsNotFound());)
  return s;
}

Status Database::Update(const Slice& key, const Slice& value) {
  if (!has_update_) return Status::NotSupported("feature Update not selected");
  FAME_OBS(metrics_.puts.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.put_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kUpdate);)
  FAME_RETURN_IF_ERROR(GuardWrite());
  FAME_RETURN_IF_ERROR(RequireVisible(key));
  Status s = NoteWrite(PutRecord(key, value));
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

Status Database::Scan(const index::ScanVisitor& visit) {
  FAME_OBS(metrics_.scans.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.scan_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kScan);)
  Status s = index_->Scan(visit);
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

Status Database::RangeScan(const Slice& lo, const Slice& hi,
                           const KvVisitor& fn) {
  if (!policy_.ordered()) {
    return Status::NotSupported("RangeScan requires the B+-Tree feature");
  }
  FAME_OBS(metrics_.scans.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.scan_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kScan);)
  Status s = RangeRecords(lo, hi, fn);
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

Status Database::ReverseScan(const Slice& lo, const Slice& hi,
                             const KvVisitor& fn) {
  if (!HasFeature("ReverseScan")) {
    return Status::NotSupported("feature ReverseScan not selected");
  }
  FAME_OBS(metrics_.scans.Add(1);
           obs::ScopedLatencyTimer<obs::SharedCells> timer(&metrics_.scan_ns);)
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kReverseScan);)
  Status s = ReverseRecords(lo, hi, fn);
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

// ------------------------------------------------------------ transactions

StatusOr<tx::Transaction*> Database::Begin() {
  if (txmgr_ == nullptr) {
    return Status::NotSupported("feature Transaction not selected");
  }
  return txmgr_->Begin();
}

Status Database::Commit(tx::Transaction* txn) {
  if (txmgr_ == nullptr) {
    return Status::NotSupported("feature Transaction not selected");
  }
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kCommit);)
  Status s = Host::Commit(txn);
  FAME_OBS_TRACE(span.set_error(!s.ok());)
  return s;
}

Status Database::Abort(tx::Transaction* txn) {
  if (txmgr_ == nullptr) {
    return Status::NotSupported("feature Transaction not selected");
  }
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kAbort);)
  return txmgr_->Abort(txn);
}

StatusOr<SnapshotCursor> Database::NewSnapshotCursor() {
  if (!policy_.mvcc()) return Status::NotSupported("feature Mvcc not selected");
  return Host::NewSnapshotCursor();
}

StatusOr<uint64_t> Database::MvccGc() {
  if (!policy_.mvcc()) return Status::NotSupported("feature Mvcc not selected");
  return Host::MvccGc();
}

// ------------------------------------------------------------ backup

Status Database::Backup(const std::string& dest,
                        backup::BackupReport* report) {
  if (!policy_.backup()) {
    return Status::NotSupported("feature Backup not selected");
  }
  return Host::Backup(dest, report);
}

Status Database::Restore(osal::Env* env, const std::string& src,
                         const std::string& dest_path,
                         const backup::RestoreOptions& opts,
                         backup::RestoreReport* report) {
  return backup::RunRestore(env != nullptr ? env : osal::GetPosixEnv(), src,
                            dest_path, opts, report);
}

// ------------------------------------------------------------ replication

Status Database::StartLeader(uint32_t epoch) {
  if (!HasFeature("Replication")) {
    return Status::NotSupported("feature Replication not selected");
  }
  return Host::StartLeader(epoch);
}

Status Database::StartFollower(uint32_t epoch) {
  if (!HasFeature("Replication")) {
    return Status::NotSupported("feature Replication not selected");
  }
  return Host::StartFollower(epoch);
}

Status Database::Promote(uint32_t epoch) {
  if (!HasFeature("Failover")) {
    return Status::NotSupported("feature Failover not selected");
  }
  // Failover requires Replication, which requires Verify: the scrubber
  // exists.
  return Host::Promote(epoch, scrubber_.get());
}

StatusOr<backup::BackupContext> Database::ReplicationSource() {
  if (!HasFeature("Replication")) {
    return Status::NotSupported("feature Replication not selected");
  }
  return BackupSource();
}

// ------------------------------------------------------------ typed records

std::string Database::TableKey(const std::string& table, const Value& pk) {
  std::string key = "t:" + table + "\x01";
  key.append(pk.EncodeKey());
  return key;
}

std::string Database::SchemaKey(const std::string& table) {
  return "s:" + table;
}

Status Database::CreateTable(const Schema& schema) {
  if (schema.columns.empty()) {
    return Status::InvalidArgument("a table needs at least one column");
  }
  for (const Column& c : schema.columns) {
    if (c.type == Value::Kind::kInt && !HasFeature("Int-Types")) {
      return Status::NotSupported("feature Int-Types not selected");
    }
    if (c.type == Value::Kind::kString && !HasFeature("String-Types")) {
      return Status::NotSupported("feature String-Types not selected");
    }
    if (c.type == Value::Kind::kBlob && !HasFeature("Blob-Types")) {
      return Status::NotSupported("feature Blob-Types not selected");
    }
  }
  std::string existing;
  if (Get(SchemaKey(schema.table), &existing).ok()) {
    return Status::InvalidArgument("table exists: " + schema.table);
  }
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(PutRecord(SchemaKey(schema.table), schema.Encode()));
}

StatusOr<Schema> Database::GetSchema(const std::string& table) {
  std::string data;
  Status s = Get(SchemaKey(table), &data);
  if (s.IsNotFound()) return Status::NotFound("no table named " + table);
  FAME_RETURN_IF_ERROR(s);
  return Schema::Decode(data);
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  FAME_ASSIGN_OR_RETURN(Schema schema, GetSchema(table));
  FAME_RETURN_IF_ERROR(schema.CheckRow(row));
  if (!has_put_) return Status::NotSupported("feature Put not selected");
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(PutRecord(TableKey(table, row[0]), EncodeRow(row)));
}

StatusOr<Row> Database::FindRow(const std::string& table, const Value& pk) {
  std::string data;
  FAME_RETURN_IF_ERROR(Get(TableKey(table, pk), &data));
  return DecodeRow(data);
}

Status Database::DeleteRow(const std::string& table, const Value& pk) {
  if (!has_remove_) return Status::NotSupported("feature Remove not selected");
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(RemoveRecord(TableKey(table, pk)));
}

Status Database::ScanTable(const std::string& table,
                           const std::function<bool(const Row&)>& fn) {
  std::string prefix = "t:" + table + "\x01";
  Status inner = Status::OK();
  const KvVisitor row_visitor = [&](const Slice&, const Slice& value) {
    auto row_or = DecodeRow(value);
    if (!row_or.ok()) {
      inner = row_or.status();
      return false;
    }
    return fn(row_or.value());
  };
  FAME_RETURN_IF_ERROR(
      PrefixRecords(prefix, policy_.ordered(), row_visitor));
  return inner;
}

}  // namespace fame::core
