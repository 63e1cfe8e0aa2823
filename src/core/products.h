// Named, statically-composed FAME-DBMS products (the generator output of
// the product line). Each Cfg struct is one valid configuration of the
// Figure 2 feature model; tests assert that correspondence.
#ifndef FAME_CORE_PRODUCTS_H_
#define FAME_CORE_PRODUCTS_H_

#include "core/static_engine.h"

namespace fame::core {

/// Deeply embedded sensor node: NutOS (MemEnv), Static allocation, List
/// index, Get/Put only. Smallest product.
struct EmbeddedMinimalCfg {
  using IndexTag = ListTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = false;
  static constexpr bool kUpdate = false;
  static constexpr bool kTransactions = false;
  static constexpr bool kForceCommit = false;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 512;
  static constexpr size_t kBufferFrames = 4;
  static constexpr size_t kStaticPoolBytes = 16 * 1024;
};
using EmbeddedMinimal = StaticEngine<EmbeddedMinimalCfg>;

/// Data logger: NutOS, Static allocation, B+-tree (range queries over
/// timestamps), Put/Get/Remove, no transactions.
struct SensorLoggerCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = false;
  static constexpr bool kTransactions = false;
  static constexpr bool kForceCommit = false;
  static constexpr const char* kReplacement = "lfu";
  static constexpr uint32_t kPageSize = 1024;
  static constexpr size_t kBufferFrames = 8;
  static constexpr size_t kStaticPoolBytes = 32 * 1024;
};
using SensorLogger = StaticEngine<SensorLoggerCfg>;

/// Workstation product: Linux, Dynamic allocation, B+-tree, full Access
/// set, WAL-redo transactions.
struct WorkstationCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using Workstation = StaticEngine<WorkstationCfg>;

/// Controller: force-at-commit protocol (no recovery replay buffer needed),
/// static allocation — the Transaction alternative aimed at small devices.
struct ControllerCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = true;
  static constexpr const char* kReplacement = "clock";
  static constexpr uint32_t kPageSize = 2048;
  static constexpr size_t kBufferFrames = 16;
  static constexpr size_t kStaticPoolBytes = 64 * 1024;
};
using Controller = StaticEngine<ControllerCfg>;

/// Edge server: Workstation plus the optional Concurrency feature — the
/// multi-core product. Commits from concurrent threads batch through WAL
/// group commit (one fsync per epoch); the storage substrate gains sharded
/// lock striping (storage::ConcurrentBufferManager) for callers composing
/// it directly.
struct EdgeServerCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kConcurrency = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 256;
  static constexpr size_t kStaticPoolBytes = 0;
};
using EdgeServer = StaticEngine<EdgeServerCfg>;

/// Analytics node: Workstation plus the optional ReverseScan feature —
/// descending cursor iteration for latest-first queries over ordered keys.
struct AnalyticsCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kReverseScan = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using Analytics = StaticEngine<AnalyticsCfg>;

/// Telemetry node: Workstation plus the optional Observability feature —
/// the metrics registry is compiled into the engine's hot paths (plain
/// integer cells: no Concurrency, so no atomics) and GetMetricsSnapshot()
/// exists. Products without kObservability carry zero bytes of it.
struct TelemetryNodeCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kObservability = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using TelemetryNode = StaticEngine<TelemetryNodeCfg>;

/// Archive node: Workstation plus the optional Backup feature (segmented
/// WAL with retention watermarks, online hot backup) and its Pitr
/// sub-feature (recycled segments archived for point-in-time recovery).
/// Products without kBackup keep the legacy single-file log — and link
/// zero bytes of the segment or backup machinery.
struct ArchiveNodeCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kBackup = true;
  static constexpr bool kPitr = true;
  static constexpr uint64_t kWalSegmentBytes = 64 * 1024;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using ArchiveNode = StaticEngine<ArchiveNodeCfg>;

/// Replica-set node: ArchiveNode plus the optional Replication feature
/// (epoch-fenced WAL shipping: fence persistence, epoch-stamped segments,
/// follower read-only enforcement) and its Failover sub-feature (the
/// integrity-gated promotion). Verify rides along: kReplication brings
/// VerifyIntegrity, which a follower's sweep and Promote run, because a
/// replica that cannot scrub itself cannot detect divergence. A follower
/// replays through this same product, so a replica set links no runtime
/// Database. Products without kReplication carry zero bytes of the
/// fencing state or the fame::repl shipping loop.
struct ReplicaSetCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kBackup = true;
  static constexpr bool kReplication = true;
  static constexpr bool kFailover = true;
  static constexpr uint64_t kWalSegmentBytes = 64 * 1024;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using ReplicaSet = StaticEngine<ReplicaSetCfg>;

/// Versioned store: Workstation plus the optional Mvcc sub-feature of
/// Transaction — snapshot-isolation reads over version-chained records,
/// first-committer-wins commits (disjoint-key writers skip 2PL entirely)
/// and watermark-driven version GC. Products without kMvcc keep the
/// plain-bytes record codec and link zero fame::tx::mvcc symbols.
struct VersionedStoreCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kMvcc = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};
using VersionedStore = StaticEngine<VersionedStoreCfg>;

/// Feature selections (names from the Figure 2 model) corresponding to the
/// products above, used by tests and the derivation tooling to check that
/// every named product is a valid variant.
const char* const kEmbeddedMinimalFeatures[] = {
    "NutOS", "Static", "LRU", "List", "Int-Types", "Get", "Put"};
const char* const kSensorLoggerFeatures[] = {
    "NutOS", "Static", "LFU", "B+-Tree", "BTree-Search", "BTree-Remove",
    "Int-Types", "Get", "Put", "Remove"};
const char* const kWorkstationFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Locking", "API"};
const char* const kControllerFeatures[] = {
    "Linux", "Static", "Clock", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "Get", "Put", "Remove", "Update",
    "Transaction", "Force-Commit"};
const char* const kEdgeServerFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Locking", "API",
    "Concurrency"};
const char* const kAnalyticsFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "ReverseScan", "Transaction", "WAL-Redo", "Locking",
    "API"};
const char* const kTelemetryNodeFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Locking", "API",
    "Observability"};
const char* const kArchiveNodeFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Locking", "API",
    "Backup", "Pitr"};
const char* const kReplicaSetFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Locking", "API",
    "Backup", "Verify", "Replication", "Failover"};
const char* const kVersionedStoreFeatures[] = {
    "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
    "BTree-Remove", "Int-Types", "String-Types", "Blob-Types", "Get", "Put",
    "Remove", "Update", "Transaction", "WAL-Redo", "Mvcc", "API"};

}  // namespace fame::core

#endif  // FAME_CORE_PRODUCTS_H_
