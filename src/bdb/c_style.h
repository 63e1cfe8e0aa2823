// FameBdbC: the "C version" of the FameBDB case-study engine — one
// monolithic class whose features are selected with preprocessor macros,
// reproducing how Berkeley DB's C code base is configured ("static
// composition based on C/C++ preprocessor statements", paper §2.1):
//
//   FAMEBDB_HAVE_HASH          hash access method compiled in
//   FAMEBDB_HAVE_QUEUE         queue access method compiled in
//   FAMEBDB_HAVE_CRYPTO        value encryption compiled in
//   FAMEBDB_HAVE_REPLICATION   replication compiled in
//   FAMEBDB_HAVE_TRANSACTIONS  transactions + WAL compiled in
//   FAMEBDB_HAVE_STATISTICS    operation statistics compiled in
//
// The B-tree access method is always present (Berkeley DB's default).
// Access methods still dispatch through a runtime switch even when only one
// is compiled in — the structural overhead the FOP variant avoids.
//
// Method names (put/get/del/cursor/stat/txn_begin/...) deliberately follow
// the Berkeley DB API: the Figure 3 analyzer detects feature needs from
// exactly these call shapes.
#ifndef FAME_BDB_C_STYLE_H_
#define FAME_BDB_C_STYLE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "bdb/flags.h"
#include "bdb/storage_bundle.h"
#include "index/bplus_tree.h"

#if defined(FAMEBDB_HAVE_HASH)
#include "index/hash_index.h"
#endif
#if defined(FAMEBDB_HAVE_QUEUE)
#include "index/queue_am.h"
#endif
#if defined(FAMEBDB_HAVE_CRYPTO)
#include "bdb/crypto.h"
#endif
#if defined(FAMEBDB_HAVE_REPLICATION)
#include "bdb/repbus.h"
#endif
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
#include "tx/txmgr.h"
#endif

namespace fame::bdb {

/// Operation counters (meaningful when FAMEBDB_HAVE_STATISTICS).
struct BdbStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t dels = 0;
  uint64_t scans = 0;
  uint64_t txns_committed = 0;
};

class FameBdbC
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
    : public tx::ApplyTarget
#endif
{
 public:
  struct Options {
    uint32_t env_flags = DB_CREATE;
    uint32_t access_method = DB_BTREE;
    std::string passphrase;          // used with DB_ENCRYPT
    uint32_t queue_record_size = 64; // used with DB_QUEUE
    BundleOptions bundle;
  };

  /// Opens (creating) a database at `path`. Flags requesting features that
  /// are not compiled in fail with NotSupported — the honest behaviour of a
  /// feature-stripped build.
  static StatusOr<std::unique_ptr<FameBdbC>> Open(osal::Env* env,
                                                  const std::string& path,
                                                  const Options& options);
  ~FameBdbC()
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
      override
#endif
      = default;

  // ---- key/value operations (auto-commit, BDB naming) ----
  Status put(const Slice& key, const Slice& value);
  Status get(const Slice& key, std::string* value);
  Status del(const Slice& key);
  /// put that requires the key to exist (the Access:update feature).
  Status update(const Slice& key, const Slice& value);

  /// Ordered range scan [lo, hi); NotSupported on hash/queue databases.
  Status range_scan(const Slice& lo, const Slice& hi,
                    const std::function<bool(const Slice&, const Slice&)>& fn);
  /// Full scan (any access method).
  Status cursor(const std::function<bool(const Slice&, const Slice&)>& fn);

  // ---- queue access method ----
  StatusOr<uint64_t> enqueue(const Slice& record);
  Status dequeue(std::string* record);

  // ---- transactions ----
  StatusOr<uint64_t> txn_begin();
  Status txn_put(uint64_t txn, const Slice& key, const Slice& value);
  Status txn_get(uint64_t txn, const Slice& key, std::string* value);
  Status txn_del(uint64_t txn, const Slice& key);
  Status txn_commit(uint64_t txn);
  Status txn_abort(uint64_t txn);
  Status txn_checkpoint();

  // ---- replication ----
  /// Makes `replica` apply every committed write of this engine.
  Status rep_subscribe(FameBdbC* replica);

  // ---- statistics / maintenance ----
  BdbStats stat() const;
  Status sync();
  /// Structural self-check (index invariants + index/heap agreement).
  Status verify();

  uint32_t access_method() const { return options_.access_method; }

#if defined(FAMEBDB_HAVE_TRANSACTIONS)
  // tx::ApplyTarget — applies committed transactional writes.
  Status ApplyPut(const std::string& store, const Slice& key,
                  const Slice& value) override;
  Status ApplyDelete(const std::string& store, const Slice& key) override;
  Status ReadCommitted(const std::string& store, const Slice& key,
                       std::string* value) override;
  Status CheckpointEngine() override;
#endif

 private:
  FameBdbC() = default;

  Status PutInternal(const Slice& key, const Slice& value, bool replicate);
  Status DelInternal(const Slice& key, bool replicate);
  Status EncodeValue(const Slice& value, std::string* stored);
  Status DecodeValue(const Slice& stored, std::string* value);
  index::KeyValueIndex* index();

  Options options_;
  std::string stored_;  // stored (possibly encrypted) value, reused by put/get
  std::unique_ptr<StorageBundle> bundle_;
  std::unique_ptr<index::BPlusTree> btree_;
#if defined(FAMEBDB_HAVE_HASH)
  std::unique_ptr<index::HashIndex> hash_;
#endif
#if defined(FAMEBDB_HAVE_QUEUE)
  std::unique_ptr<index::QueueAM> queue_;
#endif
#if defined(FAMEBDB_HAVE_CRYPTO)
  std::unique_ptr<ValueCipher> cipher_;
#endif
#if defined(FAMEBDB_HAVE_REPLICATION)
  ReplicationBus rep_bus_;
#endif
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
  std::unique_ptr<tx::TransactionManager> txmgr_;
  std::map<uint64_t, tx::Transaction*> open_txns_;
#endif
#if defined(FAMEBDB_HAVE_STATISTICS)
  mutable BdbStats stats_;
#endif
};

}  // namespace fame::bdb

#endif  // FAME_BDB_C_STYLE_H_
