// FameBDB FOP feature layers. Each layer is a FeatureC++-style refinement:
// it shadows the methods it refines and delegates to Base::method(). The
// composition order used by the products is (top to bottom)
//
//   TxLayer < ReplicationLayer < CryptoLayer < StatsLayer < BdbCore
//
// so replication publishes plaintext (each replica encrypts with its own
// key), crypto sits directly above storage, and statistics count every
// physical operation.
#ifndef FAME_BDB_FOP_LAYERS_H_
#define FAME_BDB_FOP_LAYERS_H_

#include <map>

#include "bdb/crypto.h"
#include "bdb/fop/core.h"
#include "bdb/repbus.h"
#include "index/queue_am.h"
#include "tx/txmgr.h"

namespace fame::bdb::fop {

/// STATISTICS feature: counts physical operations.
template <typename Base>
class StatsLayer : public Base {
 public:
  Status Put(const Slice& key, const Slice& value) {
    ++puts_;
    return Base::Put(key, value);
  }
  Status Get(const Slice& key, std::string* value) {
    ++gets_;
    return Base::Get(key, value);
  }
  Status Del(const Slice& key) {
    ++dels_;
    return Base::Del(key);
  }
  Status Scan(const PairVisitor& fn) {
    ++scans_;
    return Base::Scan(fn);
  }

  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }
  uint64_t dels() const { return dels_; }
  uint64_t scans() const { return scans_; }

 private:
  uint64_t puts_ = 0, gets_ = 0, dels_ = 0, scans_ = 0;
};

/// CRYPTO feature: encrypts values below this layer (see crypto.h for the
/// substitution note). SetPassphrase must be called before the first Put.
template <typename Base>
class CryptoLayer : public Base {
 public:
  void SetPassphrase(const std::string& passphrase) {
    cipher_ = std::make_unique<ValueCipher>(passphrase);
  }

  Status Put(const Slice& key, const Slice& value) {
    if (cipher_ == nullptr) return Status::InvalidArgument("no passphrase");
    cipher_->EncryptInto(value, &enc_);
    return Base::Put(key, enc_);
  }

  Status Get(const Slice& key, std::string* value) {
    if (cipher_ == nullptr) return Status::InvalidArgument("no passphrase");
    FAME_RETURN_IF_ERROR(Base::Get(key, &enc_));
    return cipher_->DecryptInto(enc_, value);
  }

  /// Scans surface decrypted values.
  Status Scan(const PairVisitor& fn) {
    if (cipher_ == nullptr) return Status::InvalidArgument("no passphrase");
    Status inner = Status::OK();
    std::string plain;
    FAME_RETURN_IF_ERROR(Base::Scan([&](const Slice& k, const Slice& v) {
      inner = cipher_->DecryptInto(v, &plain);
      return inner.ok() && fn(k, Slice(plain));
    }));
    return inner;
  }

 private:
  std::unique_ptr<ValueCipher> cipher_;
  std::string enc_;  // ciphertext scratch, reused by every Put and Get
};

/// REPLICATION feature: ships committed writes to subscribed replicas.
/// `Replica` is any type with Put(Slice, Slice) / Del(Slice).
template <typename Base>
class ReplicationLayer : public Base {
 public:
  Status Put(const Slice& key, const Slice& value) {
    FAME_RETURN_IF_ERROR(Base::Put(key, value));
    RepMessage msg;
    msg.kind = RepMessage::kPut;
    msg.key = key.ToString();
    msg.value = value.ToString();
    return bus_.Publish(std::move(msg));
  }

  Status Del(const Slice& key) {
    FAME_RETURN_IF_ERROR(Base::Del(key));
    RepMessage msg;
    msg.kind = RepMessage::kDelete;
    msg.key = key.ToString();
    return bus_.Publish(std::move(msg));
  }

  template <typename Replica>
  void Subscribe(Replica* replica) {
    bus_.Subscribe([replica](const RepMessage& msg) -> Status {
      if (msg.kind == RepMessage::kPut) {
        return replica->Put(msg.key, msg.value);
      }
      Status s = replica->Del(msg.key);
      return s.IsNotFound() ? Status::OK() : s;
    });
  }

  uint64_t replicated() const { return bus_.published(); }

 private:
  ReplicationBus bus_;
};

/// TRANSACTIONS feature: deferred-update transactions over the layers
/// below. Must be the topmost data layer so committed writes traverse the
/// whole stack (replication, crypto, ...).
template <typename Base>
class TxLayer : public Base {
 public:
  /// Call once after Open: wires the WAL and replays committed history.
  Status EnableTransactions(
      tx::CommitProtocol protocol = tx::CommitProtocol::kWalRedo) {
    adapter_ = std::make_unique<Adapter>(this);
    auto mgr_or = tx::TransactionManager::Open(
        this->env(), this->path() + ".wal", adapter_.get(), protocol);
    FAME_RETURN_IF_ERROR(mgr_or.status());
    txmgr_ = std::move(mgr_or).value();
    return txmgr_->Recover();
  }

  StatusOr<uint64_t> TxnBegin() {
    if (txmgr_ == nullptr) return Status::InvalidArgument("tx not enabled");
    auto txn_or = txmgr_->Begin();
    FAME_RETURN_IF_ERROR(txn_or.status());
    open_[txn_or.value()->id()] = txn_or.value();
    return txn_or.value()->id();
  }
  Status TxnPut(uint64_t id, const Slice& key, const Slice& value) {
    auto it = open_.find(id);
    if (it == open_.end()) return Status::InvalidArgument("unknown txn");
    return it->second->Put("main", key, value);
  }
  Status TxnGet(uint64_t id, const Slice& key, std::string* value) {
    auto it = open_.find(id);
    if (it == open_.end()) return Status::InvalidArgument("unknown txn");
    return it->second->Get("main", key, value);
  }
  Status TxnDel(uint64_t id, const Slice& key) {
    auto it = open_.find(id);
    if (it == open_.end()) return Status::InvalidArgument("unknown txn");
    return it->second->Delete("main", key);
  }
  Status TxnCommit(uint64_t id) {
    auto it = open_.find(id);
    if (it == open_.end()) return Status::InvalidArgument("unknown txn");
    Status s = txmgr_->Commit(it->second);
    open_.erase(it);
    return s;
  }
  Status TxnAbort(uint64_t id) {
    auto it = open_.find(id);
    if (it == open_.end()) return Status::InvalidArgument("unknown txn");
    Status s = txmgr_->Abort(it->second);
    open_.erase(it);
    return s;
  }
  Status TxnCheckpoint() {
    if (txmgr_ == nullptr) return Status::InvalidArgument("tx not enabled");
    return txmgr_->Checkpoint();
  }
  tx::TransactionManager* txmgr() { return txmgr_.get(); }

 private:
  /// Routes committed writes through the full layer stack below TxLayer.
  class Adapter final : public tx::ApplyTarget {
   public:
    explicit Adapter(TxLayer* owner) : owner_(owner) {}
    Status ApplyPut(const std::string& store, const Slice& key,
                    const Slice& value) override {
      if (store != "main") return Status::InvalidArgument("unknown store");
      return owner_->Base::Put(key, value);
    }
    Status ApplyDelete(const std::string& store, const Slice& key) override {
      if (store != "main") return Status::InvalidArgument("unknown store");
      return owner_->Base::Del(key);
    }
    Status ReadCommitted(const std::string& store, const Slice& key,
                         std::string* value) override {
      if (store != "main") return Status::InvalidArgument("unknown store");
      return owner_->Base::Get(key, value);
    }
    Status CheckpointEngine() override { return owner_->Base::Sync(); }

   private:
    TxLayer* owner_;
  };

  std::unique_ptr<Adapter> adapter_;
  std::unique_ptr<tx::TransactionManager> txmgr_;
  std::map<uint64_t, tx::Transaction*> open_;
};

/// QUEUE feature: an additional queue access method alongside the main
/// index (mirrors Berkeley DB environments hosting multiple access
/// methods).
template <typename Base>
class QueueLayer : public Base {
 public:
  Status EnableQueue(uint32_t record_size) {
    auto q_or = index::QueueAM::Open(this->bundle()->buffers.get(), "main_q",
                                     record_size);
    FAME_RETURN_IF_ERROR(q_or.status());
    queue_ = std::move(q_or).value();
    return Status::OK();
  }
  StatusOr<uint64_t> Enqueue(const Slice& record) {
    if (queue_ == nullptr) return Status::InvalidArgument("queue not enabled");
    return queue_->Enqueue(record);
  }
  Status Dequeue(std::string* record) {
    if (queue_ == nullptr) return Status::InvalidArgument("queue not enabled");
    return queue_->Dequeue(record);
  }
  index::QueueAM* queue() { return queue_.get(); }

 private:
  std::unique_ptr<index::QueueAM> queue_;
};

}  // namespace fame::bdb::fop

#endif  // FAME_BDB_FOP_LAYERS_H_
