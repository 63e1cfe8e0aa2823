// The FAME-DBMS prototype feature model — Figure 2 of the paper. Its one
// source is models/fame_dbms.fm; the build embeds that text so every tool
// and benchmark shares one canonical model.
// Gray features in the figure ("further subfeatures not displayed") are
// expanded the way the running text describes them: mixed granularity, fine
// for small-system functionality (B+-tree operations), coarse for features
// used only on larger systems (Transaction = a small number of subfeatures
// such as alternative commit protocols). Clock replacement is an
// [extension] third alternative.
#ifndef FAME_FEATUREMODEL_FAME_MODEL_H_
#define FAME_FEATUREMODEL_FAME_MODEL_H_

#include <memory>

#include "featuremodel/model.h"

namespace fame::fm {

/// DSL source of the FAME-DBMS feature model: the text of
/// models/fame_dbms.fm, embedded at configure time (see
/// src/featuremodel/CMakeLists.txt), so the tools and the file never differ.
extern const char kFameDbmsModelDsl[];

/// Measured non-functional properties of the integrity features, in the
/// FeedbackRepository text format (see nfp/feedback.h), so derivation can
/// weigh Scrub/Verify/Repair per product. binary_size is Release .text
/// bytes on x86-64 Linux (gcc -O2): the full fame_check product measured
/// with `size`, minus the per-feature contributions summed from
/// `nm --size-sort` over the integrity objects (storage/integrity.o and
/// the Scrub/Verify/Repair symbol groups of core/integrity.o and
/// bplus_tree.o). throughput is ScrubAll pages/second over a 20k-page file
/// (4 KiB pages, memory-backed medium), best of 5 — an upper bound the
/// checksum math sets; on-flash products are IO-bound below it. Remeasure
/// after material changes to the integrity layer.
inline constexpr const char kFameIntegrityNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types
nfp binary_size 465782

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,Scrub,String-Types
nfp binary_size 514129
nfp throughput 89700

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,Scrub,String-Types,Verify
nfp binary_size 561398
nfp throughput 89700

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,Repair,Scrub,String-Types,Verify
nfp binary_size 591863
nfp throughput 89700

)nfp";

/// Measured non-functional properties of the Concurrency feature (sharded
/// buffer pool + WAL group commit), FeedbackRepository text format.
/// binary_size is .text bytes on x86-64 Linux (gcc -O2): the integrity
/// seed's base product plus the tx objects (wal.o + txmgr.o + locks.o,
/// `size`), with the group-commit symbol group (SyncThroughLocked,
/// SyncCommit, wal_stats, CommitPipeline, Acquire/ReleaseLocks,
/// ReadCommittedSafe — `nm --size-sort`, 8,899 B) counted only in the
/// Concurrency product, which additionally carries the multi-threaded pool
/// instantiation (buffer_concurrent.o, 20,136 B). throughput is committed
/// transactions/second, wall clock, one put per transaction, WAL on a real
/// file with real fsync (bench/micro_concurrency): the base number is the
/// single-threaded commit path; the Concurrency number is 4 committer
/// threads sharing group-commit epochs (fsyncs/commit 0.25; 8 threads
/// reach ~31,800/s at 0.125). Remeasure after material changes to the
/// buffer pool or WAL.
inline constexpr const char kFameConcurrencyNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 538451
nfp throughput 5480

product API,B+-Tree,BTree-Search,Concurrency,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 567486
nfp throughput 18270

)nfp";

/// Measured non-functional properties of the ReverseScan feature
/// (descending cursor iteration), FeedbackRepository text format.
/// binary_size is Release .text bytes on x86-64 Linux (gcc -O2): the
/// integrity seed's base product plus the reverse-iteration symbol group
/// summed from `nm --size-sort` — BasicBtreeCursor SeekToLast (1,326 B),
/// FindLastBelow (1,234 B) and Prev (456 B) in index/bplus_tree.o, plus
/// EngineCore::ReverseScan (2,691 B) and the Database::ReverseScan gate
/// (377 B) in core/database.o; 6,084 B total. Forward-only products link
/// none of it (the cursor ops are virtual defaults that invalidate).
/// Remeasure after material changes to the cursor layer.
inline constexpr const char kFameReverseScanNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types
nfp binary_size 465782

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,ReverseScan,String-Types
nfp binary_size 471866

)nfp";

/// Measured non-functional properties of the Observability feature
/// (metrics registry + operation tracing), FeedbackRepository text format.
/// binary_size is Release .text bytes on x86-64 Linux (gcc -O2), measured
/// with `size` on the three probe binaries tests/ builds from one and the
/// same single-threaded static product (tests/obs_probe_main.cc):
/// obs_off_probe compiles with FAME_OBS_DISABLE (and doubles as the
/// zero-overhead proof — the nm test greps it for fame::obs symbols),
/// obs_probe selects Observability (registry + instrumentation + snapshot
/// assembly), obs_trace_probe selects Tracing on top (seqlock ring
/// buffer, span-tree recording, text + Chrome JSON exporters). The deltas
/// are what each feature costs a product; remeasure after material
/// changes to src/obs/ or the instrumentation sites.
inline constexpr const char kFameObservabilityNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types
nfp binary_size 335796

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Observability,Put,String-Types
nfp binary_size 379250

product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Observability,Put,String-Types,Tracing
nfp binary_size 398032

)nfp";

/// Measured non-functional properties of the Backup feature (segmented
/// WAL + online hot backup) and its Pitr child (segment archiving +
/// point-in-time restore), FeedbackRepository text format. binary_size is
/// Release .text bytes on x86-64 Linux (gcc -O2), measured with `size` on
/// the two probe binaries tests/ builds from one and the same
/// transactional static product (tests/backup_probe_main.cc):
/// backup_off_probe is the plain WAL-redo product (and doubles as the
/// zero-overhead proof — the nm test greps it for fame::tx::seg and
/// fame::core::backup symbols), backup_probe selects Backup + Pitr
/// (segment store, rotation/retention/archiving, hot backup, manifest
/// restore, PITR splice). The two features are measured as a pair because
/// Pitr adds no code of its own to the probe — archiving lives in the
/// segment store Backup already links; the delta is the pair's joint
/// footprint. Remeasure after material changes to tx/wal_segments.cc or
/// core/backup.cc.
inline constexpr const char kFameBackupNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 324851

product API,B+-Tree,BTree-Search,Backup,Dynamic,Get,Int-Types,LRU,Linux,Pitr,Put,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 457489

)nfp";

/// Measured non-functional properties of the Replication feature
/// (epoch-fenced WAL shipping) and its Failover child (integrity-gated
/// promotion), FeedbackRepository text format. binary_size is Release
/// .text bytes on x86-64 Linux (gcc -O2), measured with `size` on the two
/// probe binaries tests/ builds from one and the same transactional
/// verifying static product (tests/repl_probe_main.cc): repl_off_probe is
/// the Backup + Verify product (and doubles as the zero-overhead proof —
/// the nm test greps it for fame::repl symbols), repl_probe selects
/// Replication + Failover on top (fence persistence, epoch-stamped
/// segments, leader shipping loop, follower staging/apply, promotion
/// gate). The two features are measured as a pair because Failover adds
/// only the promotion ceremony to code Replication already links. The
/// delta is dominated by the follower's apply path: staged segments are
/// replayed by reopening the runtime engine, so a replication node links
/// the dynamic Database alongside its static product — exactly the kind
/// of heavyweight dependency the paper argues must stay optional.
/// Remeasure after material changes to src/repl/.
inline constexpr const char kFameReplicationNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Backup,Dynamic,Get,Int-Types,LRU,Linux,Put,String-Types,Transaction,Update,Verify,WAL-Redo
nfp binary_size 396497

product API,B+-Tree,BTree-Search,Backup,Dynamic,Failover,Get,Int-Types,LRU,Linux,Put,Replication,String-Types,Transaction,Update,Verify,WAL-Redo
nfp binary_size 991330

)nfp";

/// Measured non-functional properties of the Memory-Alloc axis (paper
/// Figure 2: Dynamic vs Static), FeedbackRepository text format.
/// binary_size is Release .text bytes on x86-64 Linux (gcc -O2), measured
/// with `size` on the two probe binaries tests/ builds from one and the
/// same single-threaded B+-tree product (tests/alloc_probe_main.cc):
/// alloc_off_probe compiles with FAME_SLAB_DISABLE and composes the
/// Dynamic allocator (and doubles as the zero-overhead proof — the nm
/// test greps it for fame::osal::slab symbols and fails on any hit),
/// alloc_probe selects Memory-Alloc:Static on the slab arena (segregated
/// size classes, headerless dual-frontier carve, pooled cursor cache; the
/// nm test additionally requires zero SlabMultiThreaded symbols, so the
/// ST product provably links only the no-atomics policy). The delta is
/// what the Static slab path costs a product in code bytes; the paper's
/// trade is that it buys zero heap allocations after init (asserted by
/// tests/alloc_test.cc ZeroHeapTest). Remeasure after material changes to
/// src/osal/slab_alloc.*.
inline constexpr const char kFameSlabAllocNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Search,Dynamic,Get,Int-Types,LRU,Linux,Put,Remove,String-Types
nfp binary_size 382933

product API,B+-Tree,BTree-Search,Get,Int-Types,LRU,Linux,Put,Remove,Static,String-Types
nfp binary_size 387025

)nfp";

/// Measured non-functional properties of the Mvcc feature (Transaction ▸
/// Mvcc: snapshot-isolation version chains), FeedbackRepository text
/// format. binary_size is Release .text bytes on x86-64 Linux (gcc -O2),
/// measured with `size` on the two probe binaries tests/ builds from one
/// and the same transactional static product (tests/mvcc_probe_main.cc):
/// mvcc_off_probe is the plain 2PL Transaction product (and doubles as
/// the zero-overhead proof — the nm test greps it for fame::tx::mvcc
/// symbols and fails on any hit: an Mvcc-less record path stays plain
/// bytes), mvcc_probe selects Mvcc on top (version-chain codec, commit
/// timestamp oracle, snapshot registry, first-committer-wins conflict
/// table, watermark GC, snapshot cursors). The delta is what snapshot
/// isolation costs a product in code bytes; what it buys is writers that
/// never block snapshot readers. Remeasure after material changes to
/// src/tx/mvcc.* or the versioned paths in core/engine_core.h.
inline constexpr const char kFameMvccNfpSeed[] = R"nfp(product API,B+-Tree,BTree-Remove,BTree-Search,BTree-Update,Dynamic,Get,Int-Types,LRU,Linux,Put,Remove,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 345663

product API,B+-Tree,BTree-Remove,BTree-Search,BTree-Update,Dynamic,Get,Int-Types,LRU,Linux,Mvcc,Put,Remove,String-Types,Transaction,Update,WAL-Redo
nfp binary_size 395648

)nfp";

/// Parses and returns the canonical FAME-DBMS model. Aborts on parse
/// failure (the text is fixed at build time; failure is a bug).
std::unique_ptr<FeatureModel> BuildFameDbmsModel();

}  // namespace fame::fm

#endif  // FAME_FEATUREMODEL_FAME_MODEL_H_
