#include "bdb/c_style.h"

namespace fame::bdb {

StatusOr<std::unique_ptr<FameBdbC>> FameBdbC::Open(osal::Env* env,
                                                   const std::string& path,
                                                   const Options& options) {
  std::unique_ptr<FameBdbC> db(new FameBdbC());
  db->options_ = options;

#if !defined(FAMEBDB_HAVE_HASH)
  if (options.access_method & DB_HASH) {
    return Status::NotSupported("hash access method not compiled in");
  }
#endif
#if !defined(FAMEBDB_HAVE_QUEUE)
  if (options.access_method & DB_QUEUE) {
    return Status::NotSupported("queue access method not compiled in");
  }
#endif
#if !defined(FAMEBDB_HAVE_CRYPTO)
  if (options.env_flags & DB_ENCRYPT) {
    return Status::NotSupported("crypto not compiled in");
  }
#endif
#if !defined(FAMEBDB_HAVE_REPLICATION)
  if (options.env_flags & DB_INIT_REP) {
    return Status::NotSupported("replication not compiled in");
  }
#endif
#if !defined(FAMEBDB_HAVE_TRANSACTIONS)
  if (options.env_flags & DB_INIT_TXN) {
    return Status::NotSupported("transactions not compiled in");
  }
#endif

  auto bundle_or = StorageBundle::Open(env, path, options.bundle);
  FAME_RETURN_IF_ERROR(bundle_or.status());
  db->bundle_ = std::move(bundle_or).value();

  // The B-tree is always available; the runtime switch below is the
  // C-style dispatch overhead the FOP variant composes away.
  auto btree_or = index::BPlusTree::Open(db->bundle_->buffers.get(), "main");
  FAME_RETURN_IF_ERROR(btree_or.status());
  db->btree_ = std::move(btree_or).value();

#if defined(FAMEBDB_HAVE_HASH)
  if (options.access_method & DB_HASH) {
    auto hash_or = index::HashIndex::Open(db->bundle_->buffers.get(), "main_h");
    FAME_RETURN_IF_ERROR(hash_or.status());
    db->hash_ = std::move(hash_or).value();
  }
#endif
#if defined(FAMEBDB_HAVE_QUEUE)
  if (options.access_method & DB_QUEUE) {
    auto q_or = index::QueueAM::Open(db->bundle_->buffers.get(), "main_q",
                                     options.queue_record_size);
    FAME_RETURN_IF_ERROR(q_or.status());
    db->queue_ = std::move(q_or).value();
  }
#endif
#if defined(FAMEBDB_HAVE_CRYPTO)
  if (options.env_flags & DB_ENCRYPT) {
    db->cipher_ = std::make_unique<ValueCipher>(options.passphrase);
  }
#endif
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
  if (options.env_flags & DB_INIT_TXN) {
    auto mgr_or = tx::TransactionManager::Open(
        env, path + ".wal", db.get(), tx::CommitProtocol::kWalRedo);
    FAME_RETURN_IF_ERROR(mgr_or.status());
    db->txmgr_ = std::move(mgr_or).value();
    FAME_RETURN_IF_ERROR(db->txmgr_->Recover());
  }
#endif
  return db;
}

index::KeyValueIndex* FameBdbC::index() {
#if defined(FAMEBDB_HAVE_HASH)
  if (options_.access_method & DB_HASH) return hash_.get();
#endif
  return btree_.get();
}

Status FameBdbC::EncodeValue(const Slice& value, std::string* stored) {
#if defined(FAMEBDB_HAVE_CRYPTO)
  if (cipher_ != nullptr) {
    cipher_->EncryptInto(value, stored);
    return Status::OK();
  }
#endif
  stored->assign(value.data(), value.size());
  return Status::OK();
}

Status FameBdbC::DecodeValue(const Slice& stored, std::string* value) {
#if defined(FAMEBDB_HAVE_CRYPTO)
  if (cipher_ != nullptr) {
    return cipher_->DecryptInto(stored, value);
  }
#endif
  value->assign(stored.data(), stored.size());
  return Status::OK();
}

Status FameBdbC::PutInternal(const Slice& key, const Slice& value,
                             bool replicate) {
  FAME_RETURN_IF_ERROR(EncodeValue(value, &stored_));
  // Upsert: replace the heap record if the key exists, else insert.
  uint64_t packed = 0;
  Status found = index()->Lookup(key, &packed);
  std::string rec = EncodeHeapRecord(key, stored_);
  if (found.ok()) {
    storage::Rid rid = storage::Rid::Unpack(packed);
    storage::Rid updated = rid;
    FAME_RETURN_IF_ERROR(bundle_->heap->Update(&updated, rec));
    if (!(updated == rid)) {
      FAME_RETURN_IF_ERROR(index()->Insert(key, updated.Pack()));
    }
  } else if (found.IsNotFound()) {
    auto rid_or = bundle_->heap->Insert(rec);
    FAME_RETURN_IF_ERROR(rid_or.status());
    FAME_RETURN_IF_ERROR(index()->Insert(key, rid_or.value().Pack()));
  } else {
    return found;
  }
#if defined(FAMEBDB_HAVE_REPLICATION)
  if (replicate && (options_.env_flags & DB_INIT_REP)) {
    RepMessage msg;
    msg.kind = RepMessage::kPut;
    msg.key = key.ToString();
    msg.value = value.ToString();
    FAME_RETURN_IF_ERROR(rep_bus_.Publish(std::move(msg)));
  }
#else
  (void)replicate;
#endif
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.puts;
#endif
  return Status::OK();
}

Status FameBdbC::DelInternal(const Slice& key, bool replicate) {
  uint64_t packed = 0;
  FAME_RETURN_IF_ERROR(index()->Lookup(key, &packed));
  FAME_RETURN_IF_ERROR(bundle_->heap->Delete(storage::Rid::Unpack(packed)));
  FAME_RETURN_IF_ERROR(index()->Remove(key));
#if defined(FAMEBDB_HAVE_REPLICATION)
  if (replicate && (options_.env_flags & DB_INIT_REP)) {
    RepMessage msg;
    msg.kind = RepMessage::kDelete;
    msg.key = key.ToString();
    FAME_RETURN_IF_ERROR(rep_bus_.Publish(std::move(msg)));
  }
#else
  (void)replicate;
#endif
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.dels;
#endif
  return Status::OK();
}

Status FameBdbC::put(const Slice& key, const Slice& value) {
  if (options_.access_method & DB_QUEUE) {
    return Status::NotSupported("use enqueue on queue databases");
  }
  return PutInternal(key, value, /*replicate=*/true);
}

Status FameBdbC::get(const Slice& key, std::string* value) {
  if (options_.access_method & DB_QUEUE) {
    return Status::NotSupported("use dequeue on queue databases");
  }
  uint64_t packed = 0;
  FAME_RETURN_IF_ERROR(index()->Lookup(key, &packed));
  std::string rec;
  FAME_RETURN_IF_ERROR(bundle_->heap->Get(storage::Rid::Unpack(packed), &rec));
  std::string stored_key;
  FAME_RETURN_IF_ERROR(DecodeHeapRecord(rec, &stored_key, &stored_));
  if (Slice(stored_key) != key) {
    return Status::Corruption("index points at the wrong record");
  }
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.gets;
#endif
  return DecodeValue(stored_, value);
}

Status FameBdbC::del(const Slice& key) {
  return DelInternal(key, /*replicate=*/true);
}

Status FameBdbC::update(const Slice& key, const Slice& value) {
  uint64_t packed = 0;
  FAME_RETURN_IF_ERROR(index()->Lookup(key, &packed));  // must exist
  return PutInternal(key, value, /*replicate=*/true);
}

Status FameBdbC::range_scan(
    const Slice& lo, const Slice& hi,
    const std::function<bool(const Slice&, const Slice&)>& fn) {
  if (!(options_.access_method & DB_BTREE)) {
    return Status::NotSupported("range scans need the btree access method");
  }
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.scans;
#endif
  Status inner = Status::OK();
  FAME_RETURN_IF_ERROR(btree_->RangeScan(
      lo, hi, [&](const Slice& key, uint64_t packed) {
        std::string rec;
        inner = bundle_->heap->Get(storage::Rid::Unpack(packed), &rec);
        if (!inner.ok()) return false;
        std::string k, stored;
        inner = DecodeHeapRecord(rec, &k, &stored);
        if (!inner.ok()) return false;
        std::string value;
        inner = DecodeValue(stored, &value);
        if (!inner.ok()) return false;
        return fn(key, Slice(value));
      }));
  return inner;
}

Status FameBdbC::cursor(
    const std::function<bool(const Slice&, const Slice&)>& fn) {
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.scans;
#endif
  Status inner = Status::OK();
  FAME_RETURN_IF_ERROR(
      index()->Scan([&](const Slice& key, uint64_t packed) {
        std::string rec;
        inner = bundle_->heap->Get(storage::Rid::Unpack(packed), &rec);
        if (!inner.ok()) return false;
        std::string k, stored;
        inner = DecodeHeapRecord(rec, &k, &stored);
        if (!inner.ok()) return false;
        std::string value;
        inner = DecodeValue(stored, &value);
        if (!inner.ok()) return false;
        return fn(key, Slice(value));
      }));
  return inner;
}

StatusOr<uint64_t> FameBdbC::enqueue(const Slice& record) {
#if defined(FAMEBDB_HAVE_QUEUE)
  if (queue_ == nullptr) {
    return Status::NotSupported("not a queue database");
  }
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.puts;
#endif
  return queue_->Enqueue(record);
#else
  (void)record;
  return Status::NotSupported("queue access method not compiled in");
#endif
}

Status FameBdbC::dequeue(std::string* record) {
#if defined(FAMEBDB_HAVE_QUEUE)
  if (queue_ == nullptr) {
    return Status::NotSupported("not a queue database");
  }
#if defined(FAMEBDB_HAVE_STATISTICS)
  ++stats_.gets;
#endif
  return queue_->Dequeue(record);
#else
  (void)record;
  return Status::NotSupported("queue access method not compiled in");
#endif
}

// ------------------------------------------------------------ transactions

#if defined(FAMEBDB_HAVE_TRANSACTIONS)

StatusOr<uint64_t> FameBdbC::txn_begin() {
  if (txmgr_ == nullptr) {
    return Status::NotSupported("environment opened without DB_INIT_TXN");
  }
  auto txn_or = txmgr_->Begin();
  FAME_RETURN_IF_ERROR(txn_or.status());
  open_txns_[txn_or.value()->id()] = txn_or.value();
  return txn_or.value()->id();
}

Status FameBdbC::txn_put(uint64_t txn, const Slice& key, const Slice& value) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::InvalidArgument("unknown txn");
  return it->second->Put("main", key, value);
}

Status FameBdbC::txn_get(uint64_t txn, const Slice& key, std::string* value) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::InvalidArgument("unknown txn");
  return it->second->Get("main", key, value);
}

Status FameBdbC::txn_del(uint64_t txn, const Slice& key) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::InvalidArgument("unknown txn");
  return it->second->Delete("main", key);
}

Status FameBdbC::txn_commit(uint64_t txn) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::InvalidArgument("unknown txn");
  Status s = txmgr_->Commit(it->second);
  open_txns_.erase(it);
#if defined(FAMEBDB_HAVE_STATISTICS)
  if (s.ok()) ++stats_.txns_committed;
#endif
  return s;
}

Status FameBdbC::txn_abort(uint64_t txn) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::InvalidArgument("unknown txn");
  Status s = txmgr_->Abort(it->second);
  open_txns_.erase(it);
  return s;
}

Status FameBdbC::txn_checkpoint() {
  if (txmgr_ == nullptr) {
    return Status::NotSupported("environment opened without DB_INIT_TXN");
  }
  return txmgr_->Checkpoint();
}

Status FameBdbC::ApplyPut(const std::string& store, const Slice& key,
                          const Slice& value) {
  if (store != "main") return Status::InvalidArgument("unknown store");
  return PutInternal(key, value, /*replicate=*/true);
}

Status FameBdbC::ApplyDelete(const std::string& store, const Slice& key) {
  if (store != "main") return Status::InvalidArgument("unknown store");
  return DelInternal(key, /*replicate=*/true);
}

Status FameBdbC::ReadCommitted(const std::string& store, const Slice& key,
                               std::string* value) {
  if (store != "main") return Status::InvalidArgument("unknown store");
  return get(key, value);
}

Status FameBdbC::CheckpointEngine() { return bundle_->Checkpoint(); }

#else  // !FAMEBDB_HAVE_TRANSACTIONS

StatusOr<uint64_t> FameBdbC::txn_begin() {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_put(uint64_t, const Slice&, const Slice&) {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_get(uint64_t, const Slice&, std::string*) {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_del(uint64_t, const Slice&) {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_commit(uint64_t) {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_abort(uint64_t) {
  return Status::NotSupported("transactions not compiled in");
}
Status FameBdbC::txn_checkpoint() {
  return Status::NotSupported("transactions not compiled in");
}

#endif  // FAMEBDB_HAVE_TRANSACTIONS

// ------------------------------------------------------------ replication

Status FameBdbC::rep_subscribe(FameBdbC* replica) {
#if defined(FAMEBDB_HAVE_REPLICATION)
  if (!(options_.env_flags & DB_INIT_REP)) {
    return Status::NotSupported("environment opened without DB_INIT_REP");
  }
  rep_bus_.Subscribe([replica](const RepMessage& msg) -> Status {
    if (msg.kind == RepMessage::kPut) {
      return replica->PutInternal(msg.key, msg.value, /*replicate=*/false);
    }
    Status s = replica->DelInternal(msg.key, /*replicate=*/false);
    return s.IsNotFound() ? Status::OK() : s;
  });
  return Status::OK();
#else
  (void)replica;
  return Status::NotSupported("replication not compiled in");
#endif
}

// ------------------------------------------------------------ maintenance

BdbStats FameBdbC::stat() const {
#if defined(FAMEBDB_HAVE_STATISTICS)
  return stats_;
#else
  return BdbStats{};
#endif
}

Status FameBdbC::sync() { return bundle_->Checkpoint(); }

Status FameBdbC::verify() {
  FAME_RETURN_IF_ERROR(btree_->CheckInvariants());
  // Every index entry must resolve to a heap record bearing the same key.
  Status inner = Status::OK();
  FAME_RETURN_IF_ERROR(
      index()->Scan([&](const Slice& key, uint64_t packed) {
        std::string rec;
        inner = bundle_->heap->Get(storage::Rid::Unpack(packed), &rec);
        if (!inner.ok()) return false;
        std::string k, v;
        inner = DecodeHeapRecord(rec, &k, &v);
        if (!inner.ok()) return false;
        if (Slice(k) != key) {
          inner = Status::Corruption("index/heap key mismatch");
          return false;
        }
        return true;
      }));
  return inner;
}

}  // namespace fame::bdb
