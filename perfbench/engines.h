// The three engines the benchmark drives, behind one small adapter shape so
// the workload loops are written once (as templates: no virtual dispatch is
// added to any engine's call path). All three select the same product:
// B+-tree index, LRU replacement, 4 KiB pages, WAL-redo transactions.
//
//   static   core::StaticEngine with a benchmark-local Cfg
//   dynamic  core::Database composed at runtime from the feature model
//   fop      bdb::fop::FopComplete, Figure 1's configuration 1
#ifndef FAME_PERFBENCH_ENGINES_H_
#define FAME_PERFBENCH_ENGINES_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "bdb/fop/products.h"
#include "core/database.h"
#include "core/static_engine.h"

namespace famebench {

using fame::Slice;
using fame::Status;
using fame::core::KvVisitor;

/// Library counters read as before/after deltas around measured phases.
struct Counters {
  uint64_t hits = 0, misses = 0;
  uint64_t page_reads = 0, page_writes = 0, page_bytes = 0;
  uint64_t descents = 0, splits = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.page_reads = page_reads - o.page_reads;
    d.page_writes = page_writes - o.page_writes;
    d.page_bytes = page_bytes - o.page_bytes;
    d.descents = descents - o.descents;
    d.splits = splits - o.splits;
    return d;
  }
  Counters& operator+=(const Counters& o) {
    hits += o.hits;
    misses += o.misses;
    page_reads += o.page_reads;
    page_writes += o.page_writes;
    page_bytes += o.page_bytes;
    descents += o.descents;
    splits += o.splits;
    return *this;
  }
};

template <typename FileMetrics, typename BtreeMetrics>
Counters ReadCounters(const fame::storage::BufferStats& b,
                      const FileMetrics& io, const BtreeMetrics& bt) {
  Counters c;
  c.hits = b.hits;
  c.misses = b.misses;
  c.page_reads = io.reads.Load();
  c.page_writes = io.writes.Load();
  c.page_bytes = io.read_bytes.Load() + io.write_bytes.Load();
  c.descents = bt.descents.Load();
  c.splits = bt.splits.Load();
  return c;
}

template <size_t kFrames>
struct StaticCfg {
  using IndexTag = fame::core::BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;  // WAL redo
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = kFrames;
  static constexpr size_t kStaticPoolBytes = 0;  // Dynamic allocation
};

template <size_t kFrames>
class StaticBench {
 public:
  static constexpr const char* kName = "static";
  static constexpr const char* kEngineLayer = "core";

  Status Open(fame::osal::Env* env, const std::string& path) {
    return db_.Open(env, path);
  }
  Status Load(const Slice& k, const Slice& v) { return db_.Put(k, v); }
  Status Get(const Slice& k, std::string* v) { return db_.Get(k, v); }
  Status Begin() {
    auto t = db_.Begin();
    if (!t.ok()) return t.status();
    txn_ = t.value();
    return Status::OK();
  }
  Status TxGet(const Slice& k, std::string* v) {
    return txn_->Get("core", k, v);
  }
  Status TxPut(const Slice& k, const Slice& v) {
    return txn_->Put("core", k, v);
  }
  Status Commit() { return db_.Commit(std::exchange(txn_, nullptr)); }
  Status Abort() { return db_.Abort(std::exchange(txn_, nullptr)); }
  Status Checkpoint() { return db_.Checkpoint(); }
  Status ScanAll(const KvVisitor& fn) { return db_.Scan(fn); }
  Counters Read() {
    return ReadCounters(db_.buffers()->stats(),
                        db_.buffers()->file()->io_metrics(),
                        db_.index()->metrics());
  }

 private:
  fame::core::StaticEngine<StaticCfg<kFrames>> db_;
  fame::tx::Transaction* txn_ = nullptr;
};

class DynamicBench {
 public:
  static constexpr const char* kName = "dynamic";
  static constexpr const char* kEngineLayer = "core";

  explicit DynamicBench(size_t frames) : frames_(frames) {}

  Status Open(fame::osal::Env* env, const std::string& path) {
    fame::core::DbOptions o;
    o.features = {"Linux", "Dynamic", "LRU",    "B+-Tree",    "Get",
                  "Put",   "Remove",  "Update", "Transaction"};
    o.env = env;
    o.path = path;
    o.buffer_frames = frames_;
    auto db = fame::core::Database::Open(o);
    if (!db.ok()) return db.status();
    db_ = std::move(db).value();
    return Status::OK();
  }
  Status Load(const Slice& k, const Slice& v) { return db_->Put(k, v); }
  Status Get(const Slice& k, std::string* v) { return db_->Get(k, v); }
  Status Begin() {
    auto t = db_->Begin();
    if (!t.ok()) return t.status();
    txn_ = t.value();
    return Status::OK();
  }
  Status TxGet(const Slice& k, std::string* v) {
    return txn_->Get("core", k, v);
  }
  Status TxPut(const Slice& k, const Slice& v) {
    return txn_->Put("core", k, v);
  }
  Status Commit() { return db_->Commit(std::exchange(txn_, nullptr)); }
  Status Abort() { return db_->Abort(std::exchange(txn_, nullptr)); }
  Status Checkpoint() { return db_->Checkpoint(); }
  Status ScanAll(const KvVisitor& fn) {
    return db_->RangeScan(Slice(), Slice(), fn);
  }
  Counters Read() {
    fame::obs::MetricsSnapshot m = db_->GetStats().metrics;
    Counters c;
    c.hits = m.buffer_hits;
    c.misses = m.buffer_misses;
    c.page_reads = m.file_reads;
    c.page_writes = m.file_writes;
    c.page_bytes = m.file_read_bytes + m.file_write_bytes;
    c.descents = m.btree_descents;
    c.splits = m.btree_splits;
    return c;
  }

 private:
  size_t frames_;
  std::unique_ptr<fame::core::Database> db_;
  fame::tx::Transaction* txn_ = nullptr;
};

class FopBench {
 public:
  static constexpr const char* kName = "fop";
  static constexpr const char* kEngineLayer = "bdb";

  explicit FopBench(size_t frames) : frames_(frames) {}

  /// Opens configuration 1 the way its variant binary does: every layer
  /// enabled, transactions last (recovery replays through all layers).
  Status Open(fame::osal::Env* env, const std::string& path) {
    fame::bdb::BundleOptions o;
    o.buffer_frames = frames_;
    FAME_RETURN_IF_ERROR(db_.Open(env, path, o));
    db_.SetPassphrase("famebench");
    FAME_RETURN_IF_ERROR(db_.EnableQueue(32));
    FAME_RETURN_IF_ERROR(db_.EnableHashStore());
    return db_.EnableTransactions();
  }
  Status Load(const Slice& k, const Slice& v) { return db_.Put(k, v); }
  Status Get(const Slice& k, std::string* v) { return db_.Get(k, v); }
  Status Begin() {
    auto t = db_.TxnBegin();
    if (!t.ok()) return t.status();
    txn_ = t.value();
    return Status::OK();
  }
  Status TxGet(const Slice& k, std::string* v) {
    return db_.TxnGet(txn_, k, v);
  }
  Status TxPut(const Slice& k, const Slice& v) {
    return db_.TxnPut(txn_, k, v);
  }
  Status Commit() { return db_.TxnCommit(txn_); }
  Status Abort() { return db_.TxnAbort(txn_); }
  Status Checkpoint() { return db_.TxnCheckpoint(); }
  Status ScanAll(const KvVisitor& fn) { return db_.Scan(fn); }
  Counters Read() {
    return ReadCounters(db_.bundle()->buffers->stats(),
                        db_.bundle()->file->io_metrics(),
                        db_.index()->metrics());
  }

 private:
  size_t frames_;
  fame::bdb::fop::FopComplete db_;
  uint64_t txn_ = 0;
};

}  // namespace famebench

#endif  // FAME_PERFBENCH_ENGINES_H_
