// Engine-equivalence test: both composition styles of the same product must
// behave identically. Each seeded random trace of put, get, remove, update,
// range scan, reverse scan, transactions (begin / put / delete / get, then
// commit or abort), checkpoint and power-cut reopen runs against
//
//   - core::Database, composed at runtime from the feature model,
//   - core::StaticEngine over a Cfg that selects the same features, and
//   - a std::map oracle,
//
// and every result line plus the final state must agree across all three.
// Every trace runs with and without the Mvcc feature, over the segmented WAL
// (Backup products) and over the legacy single-file log.
//
// Crash model: the oracle keeps two maps. `live` is what reads see now;
// `durable` is the state as of the last checkpoint plus every transaction
// committed since (WAL redo). Auto-commit writes are not logged, so a
// power cut (FaultInjectionEnv: unsynced bytes are lost) rolls `live` back
// to `durable`.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"
#include "core/static_engine.h"
#include "osal/env.h"
#include "osal/fault_env.h"

namespace fame::core {
namespace {

constexpr uint32_t kTestPageSize = 4096;
constexpr size_t kFrames = 16;  // small pool: traces evict and re-read pages
constexpr uint64_t kSegmentBytes = 16 * 1024;  // several WAL segment rolls
constexpr int kKeySpace = 48;
constexpr int kOpsPerTrace = 1000;
constexpr uint64_t kSeeds[] = {1,    7,    42,   99,    1234,
                               2024, 4711, 9001, 31337, 65537};
constexpr char kPath[] = "eq.db";

struct EqCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kReverseScan = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kBackup = true;
  static constexpr uint64_t kWalSegmentBytes = kSegmentBytes;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = kTestPageSize;
  static constexpr size_t kBufferFrames = kFrames;
  static constexpr size_t kStaticPoolBytes = 0;
};
struct EqMvccCfg : EqCfg {
  static constexpr bool kMvcc = true;
};
// Without Backup a product logs to the legacy single-file WAL, which each
// checkpoint truncates.
struct EqLegacyCfg : EqCfg {
  static constexpr bool kBackup = false;
};
struct EqLegacyMvccCfg : EqMvccCfg {
  static constexpr bool kBackup = false;
};

std::vector<std::string> DatabaseFeatures(bool mvcc, bool backup) {
  std::vector<std::string> f = {
      "Linux", "Dynamic", "LRU", "B+-Tree", "BTree-Search", "BTree-Update",
      "BTree-Remove", "Int-Types", "String-Types", "Get", "Put", "Remove",
      "Update", "ReverseScan", "Transaction", "WAL-Redo", "Locking", "API"};
  if (backup) f.push_back("Backup");
  if (mvcc) f.push_back("Mvcc");
  return f;
}

// ------------------------------------------------------------------ traces

enum class OpKind {
  kPut,
  kGet,
  kRemove,
  kUpdate,
  kRange,
  kReverse,
  kTxn,
  kCheckpoint,
  kCrash,
};

struct TxnStep {
  enum Kind { kPut, kDelete, kGet } kind = kGet;
  std::string key, value;
};

struct Op {
  OpKind kind = OpKind::kGet;
  std::string key, value;  // point ops; scans: lo in key, hi in value
  size_t limit = 0;        // scans: stop after this many rows (0 = all)
  std::vector<TxnStep> txn;
  bool commit = true;
};

std::string Key(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03u", static_cast<unsigned>(i));
  return buf;
}

/// The op mix of a trace. kBalanced spreads ops over every call with mostly
/// small values. kChurn overwrites keys with values that grow along the
/// trace and removes often, so records outgrow their pages and move, freed
/// space is reused, and power cuts reopen a heap whose free space must be
/// learnt again.
enum class Mix { kBalanced, kChurn };

/// Upper bounds of the `pick` ranges (out of 100) for each op kind, in
/// OpKind order; the last range, up to 100, is kCrash. `keys` is the size
/// of the key space.
struct MixShape {
  uint64_t put, get, remove, update, range, reverse, txn, checkpoint;
  uint64_t keys;
};
constexpr MixShape kBalancedShape = {30, 45, 55, 62, 72, 82, 95, 98,
                                     kKeySpace};
constexpr MixShape kChurnShape = {35, 42, 57, 67, 70, 72, 90, 94, 96};

std::string Value(Random* rng, Mix mix, int i) {
  size_t len;
  if (mix == Mix::kChurn) {
    len = 1 + rng->Uniform(std::min(64 + 2 * i, 1500));
  } else {
    // Mostly small, sometimes big enough to move a record to another page.
    len = rng->Uniform(8) == 0 ? 100 + rng->Uniform(400)
                               : 1 + rng->Uniform(40);
  }
  std::string v(len, '\0');
  for (char& c : v) c = static_cast<char>('a' + rng->Uniform(26));
  return v;
}

std::vector<Op> MakeTrace(uint64_t seed, Mix mix) {
  const MixShape& m = mix == Mix::kChurn ? kChurnShape : kBalancedShape;
  Random rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < kOpsPerTrace; ++i) {
    Op op;
    uint64_t pick = rng.Uniform(100);
    op.key = Key(rng.Uniform(m.keys));
    if (pick < m.put) {
      op.kind = OpKind::kPut;
      op.value = Value(&rng, mix, i);
    } else if (pick < m.get) {
      op.kind = OpKind::kGet;
    } else if (pick < m.remove) {
      op.kind = OpKind::kRemove;
    } else if (pick < m.update) {
      op.kind = OpKind::kUpdate;
      op.value = Value(&rng, mix, i);
    } else if (pick < m.reverse) {
      op.kind = pick < m.range ? OpKind::kRange : OpKind::kReverse;
      uint64_t a = rng.Uniform(m.keys + 1), b = rng.Uniform(m.keys + 1);
      if (a > b) std::swap(a, b);
      // Index m.keys stands for the open end (an empty bound).
      op.key = a == m.keys || rng.Uniform(6) == 0 ? "" : Key(a);
      op.value = b == m.keys ? "" : Key(b);
      op.limit = rng.Uniform(4) == 0 ? 1 + rng.Uniform(5) : 0;
    } else if (pick < m.txn) {
      op.kind = OpKind::kTxn;
      op.commit = rng.Uniform(4) != 0;
      uint64_t steps = 1 + rng.Uniform(4);
      for (uint64_t s = 0; s < steps; ++s) {
        TxnStep step;
        step.key = Key(rng.Uniform(m.keys));
        uint64_t k = rng.Uniform(3);
        step.kind = static_cast<TxnStep::Kind>(k);
        if (step.kind == TxnStep::kPut) step.value = Value(&rng, mix, i);
        op.txn.push_back(std::move(step));
      }
    } else if (pick < m.checkpoint) {
      op.kind = OpKind::kCheckpoint;
    } else {
      op.kind = OpKind::kCrash;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// ------------------------------------------------------------------ results

std::string Code(const Status& s) {
  if (s.ok()) return "ok";
  if (s.IsNotFound()) return "notfound";
  return "error(" + s.ToString() + ")";
}

std::string Read(const Status& s, const std::string& value) {
  return s.ok() ? "ok:" + value : Code(s);
}

using Rows = std::vector<std::pair<std::string, std::string>>;

std::string Render(const Status& s, const Rows& rows) {
  std::string out = Code(s) + "[";
  for (const auto& [k, v] : rows) out += k + "=" + v + ";";
  return out + "]";
}

KvVisitor Collect(Rows* rows, size_t limit) {
  return [rows, limit](const Slice& k, const Slice& v) {
    rows->emplace_back(k.ToString(), v.ToString());
    return limit == 0 || rows->size() < limit;
  };
}

// ------------------------------------------------------------------ subjects

/// One engine over its own fault-injecting in-memory medium. The trace
/// driver talks to both composition styles through this interface.
class Subject {
 public:
  Subject() : mem_(osal::NewMemEnv(0)), fenv_(mem_.get()) {}
  virtual ~Subject() = default;

  virtual Status Open() = 0;
  virtual void Close() = 0;
  virtual Status Put(const std::string& k, const std::string& v) = 0;
  virtual Status Get(const std::string& k, std::string* v) = 0;
  virtual Status Remove(const std::string& k) = 0;
  virtual Status Update(const std::string& k, const std::string& v) = 0;
  virtual Status Range(const std::string& lo, const std::string& hi,
                       const KvVisitor& fn) = 0;
  virtual Status Reverse(const std::string& lo, const std::string& hi,
                         const KvVisitor& fn) = 0;
  virtual StatusOr<tx::Transaction*> Begin() = 0;
  virtual Status Commit(tx::Transaction* t) = 0;
  virtual Status Abort(tx::Transaction* t) = 0;
  virtual Status Checkpoint() = 0;

  /// Power cut: nothing the engine writes from here on reaches the medium
  /// (its destructor included), then every file reverts to its last synced
  /// image and the engine reopens, running WAL recovery.
  Status CrashAndReopen() {
    fenv_.CrashAfterMutations(fenv_.mutation_count());
    Close();
    fenv_.SimulateCrash();
    return Open();
  }

 protected:
  std::unique_ptr<osal::Env> mem_;
  osal::FaultInjectionEnv fenv_;
};

class DatabaseSubject : public Subject {
 public:
  DatabaseSubject(bool mvcc, bool backup) : mvcc_(mvcc), backup_(backup) {}
  ~DatabaseSubject() override { Close(); }

  Status Open() override {
    DbOptions o;
    o.features = DatabaseFeatures(mvcc_, backup_);
    o.path = kPath;
    o.page_size = kTestPageSize;
    o.buffer_frames = kFrames;
    o.wal_segment_bytes = kSegmentBytes;
    o.env = &fenv_;
    FAME_ASSIGN_OR_RETURN(db_, Database::Open(o));
    return Status::OK();
  }
  void Close() override { db_.reset(); }
  Status Put(const std::string& k, const std::string& v) override {
    return db_->Put(k, v);
  }
  Status Get(const std::string& k, std::string* v) override {
    return db_->Get(k, v);
  }
  Status Remove(const std::string& k) override { return db_->Remove(k); }
  Status Update(const std::string& k, const std::string& v) override {
    return db_->Update(k, v);
  }
  Status Range(const std::string& lo, const std::string& hi,
               const KvVisitor& fn) override {
    return db_->RangeScan(lo, hi, fn);
  }
  Status Reverse(const std::string& lo, const std::string& hi,
                 const KvVisitor& fn) override {
    return db_->ReverseScan(lo, hi, fn);
  }
  StatusOr<tx::Transaction*> Begin() override { return db_->Begin(); }
  Status Commit(tx::Transaction* t) override { return db_->Commit(t); }
  Status Abort(tx::Transaction* t) override { return db_->Abort(t); }
  Status Checkpoint() override { return db_->Checkpoint(); }

 private:
  bool mvcc_;
  bool backup_;
  std::unique_ptr<Database> db_;
};

template <typename Cfg>
class StaticSubject : public Subject {
 public:
  ~StaticSubject() override { Close(); }

  Status Open() override {
    db_ = std::make_unique<StaticEngine<Cfg>>();
    return db_->Open(&fenv_, kPath);
  }
  void Close() override { db_.reset(); }
  Status Put(const std::string& k, const std::string& v) override {
    return db_->Put(k, v);
  }
  Status Get(const std::string& k, std::string* v) override {
    return db_->Get(k, v);
  }
  Status Remove(const std::string& k) override { return db_->Remove(k); }
  Status Update(const std::string& k, const std::string& v) override {
    return db_->Update(k, v);
  }
  Status Range(const std::string& lo, const std::string& hi,
               const KvVisitor& fn) override {
    return db_->RangeScan(lo, hi, fn);
  }
  Status Reverse(const std::string& lo, const std::string& hi,
                 const KvVisitor& fn) override {
    return db_->ReverseScan(lo, hi, fn);
  }
  StatusOr<tx::Transaction*> Begin() override { return db_->Begin(); }
  Status Commit(tx::Transaction* t) override { return db_->Commit(t); }
  Status Abort(tx::Transaction* t) override { return db_->Abort(t); }
  Status Checkpoint() override { return db_->Checkpoint(); }

 private:
  std::unique_ptr<StaticEngine<Cfg>> db_;
};

/// Runs `trace` on `subject`; one result line per observable outcome.
std::vector<std::string> Run(Subject* subject, const std::vector<Op>& trace) {
  std::vector<std::string> out;
  Status s = subject->Open();
  out.push_back("open " + Code(s));
  if (!s.ok()) return out;
  for (const Op& op : trace) {
    switch (op.kind) {
      case OpKind::kPut:
        out.push_back("put " + Code(subject->Put(op.key, op.value)));
        break;
      case OpKind::kGet: {
        std::string v;
        Status g = subject->Get(op.key, &v);
        out.push_back("get " + op.key + " " + Read(g, v));
        break;
      }
      case OpKind::kRemove:
        out.push_back("remove " + Code(subject->Remove(op.key)));
        break;
      case OpKind::kUpdate:
        out.push_back("update " + Code(subject->Update(op.key, op.value)));
        break;
      case OpKind::kRange:
      case OpKind::kReverse: {
        Rows rows;
        Status r = op.kind == OpKind::kRange
                       ? subject->Range(op.key, op.value,
                                        Collect(&rows, op.limit))
                       : subject->Reverse(op.key, op.value,
                                          Collect(&rows, op.limit));
        out.push_back("scan " + Render(r, rows));
        break;
      }
      case OpKind::kTxn: {
        auto t = subject->Begin();
        out.push_back("begin " + Code(t.status()));
        if (!t.ok()) break;
        tx::Transaction* txn = t.value();
        for (const TxnStep& step : op.txn) {
          if (step.kind == TxnStep::kPut) {
            out.push_back("tput " + Code(txn->Put("core", step.key,
                                                  step.value)));
          } else if (step.kind == TxnStep::kDelete) {
            out.push_back("tdel " + Code(txn->Delete("core", step.key)));
          } else {
            std::string v;
            Status g = txn->Get("core", step.key, &v);
            out.push_back("tget " + step.key + " " + Read(g, v));
          }
        }
        out.push_back((op.commit ? "commit " : "abort ") +
                      Code(op.commit ? subject->Commit(txn)
                                     : subject->Abort(txn)));
        break;
      }
      case OpKind::kCheckpoint:
        out.push_back("checkpoint " + Code(subject->Checkpoint()));
        break;
      case OpKind::kCrash:
        out.push_back("reopen " + Code(subject->CrashAndReopen()));
        break;
    }
  }
  // Final state: one full forward scan after one more power cut, so the
  // durable image is compared too.
  Rows rows;
  out.push_back("final " + Render(subject->Range("", "", Collect(&rows, 0)),
                                  rows));
  out.push_back("reopen " + Code(subject->CrashAndReopen()));
  rows.clear();
  out.push_back("durable " +
                Render(subject->Range("", "", Collect(&rows, 0)), rows));
  subject->Close();
  return out;
}

/// The std::map oracle: the same lines as Run, computed from the spec.
std::vector<std::string> Expect(const std::vector<Op>& trace) {
  using Map = std::map<std::string, std::string>;
  Map live, durable;
  std::vector<std::string> out;
  out.push_back("open ok");
  auto in_range = [](const std::string& k, const std::string& lo,
                     const std::string& hi) {
    return k >= lo && (hi.empty() || k < hi);
  };
  auto scan = [&](const std::string& lo, const std::string& hi, bool reverse,
                  size_t limit) {
    Rows rows;
    auto take = [&](const Map::value_type& e) {
      if (!in_range(e.first, lo, hi)) return true;
      rows.emplace_back(e.first, e.second);
      return limit == 0 || rows.size() < limit;
    };
    if (reverse) {
      for (auto it = live.rbegin(); it != live.rend(); ++it) {
        if (!take(*it)) break;
      }
    } else {
      for (const auto& e : live) {
        if (!take(e)) break;
      }
    }
    return Render(Status::OK(), rows);
  };
  for (const Op& op : trace) {
    switch (op.kind) {
      case OpKind::kPut:
        live[op.key] = op.value;
        out.push_back("put ok");
        break;
      case OpKind::kGet: {
        auto it = live.find(op.key);
        out.push_back("get " + op.key + " " +
                      (it == live.end() ? "notfound" : "ok:" + it->second));
        break;
      }
      case OpKind::kRemove:
        out.push_back(std::string("remove ") +
                      (live.erase(op.key) ? "ok" : "notfound"));
        break;
      case OpKind::kUpdate: {
        auto it = live.find(op.key);
        if (it != live.end()) it->second = op.value;
        out.push_back(std::string("update ") +
                      (it == live.end() ? "notfound" : "ok"));
        break;
      }
      case OpKind::kRange:
      case OpKind::kReverse:
        out.push_back("scan " + scan(op.key, op.value,
                                     op.kind == OpKind::kReverse, op.limit));
        break;
      case OpKind::kTxn: {
        out.push_back("begin ok");
        // Write set in order; reads see it first, then the committed state.
        std::vector<std::pair<std::string, const std::string*>> writes;
        std::map<std::string, const std::string*> latest;
        for (const TxnStep& step : op.txn) {
          if (step.kind == TxnStep::kPut) {
            writes.emplace_back(step.key, &step.value);
            latest[step.key] = &step.value;
            out.push_back("tput ok");
          } else if (step.kind == TxnStep::kDelete) {
            writes.emplace_back(step.key, nullptr);
            latest[step.key] = nullptr;
            out.push_back("tdel ok");
          } else {
            auto own = latest.find(step.key);
            std::string line = "tget " + step.key + " ";
            if (own != latest.end()) {
              line += own->second == nullptr ? "notfound"
                                             : "ok:" + *own->second;
            } else {
              auto it = live.find(step.key);
              line += it == live.end() ? "notfound" : "ok:" + it->second;
            }
            out.push_back(line);
          }
        }
        if (op.commit) {
          for (Map* m : {&live, &durable}) {
            for (const auto& [k, v] : writes) {
              if (v == nullptr) {
                m->erase(k);
              } else {
                (*m)[k] = *v;
              }
            }
          }
        }
        out.push_back(op.commit ? "commit ok" : "abort ok");
        break;
      }
      case OpKind::kCheckpoint:
        durable = live;
        out.push_back("checkpoint ok");
        break;
      case OpKind::kCrash:
        live = durable;
        out.push_back("reopen ok");
        break;
    }
  }
  out.push_back("final " + scan("", "", false, 0));
  out.push_back("reopen ok");
  live = durable;
  out.push_back("durable " + scan("", "", false, 0));
  return out;
}

/// Compares line by line so a failure names the first diverging step.
void ExpectSameLines(const std::vector<std::string>& want,
                     const std::vector<std::string>& got, const char* who,
                     uint64_t seed) {
  size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      ADD_FAILURE() << who << " diverges from the oracle at line " << i
                    << " of seed " << seed << ":\n  want: " << want[i]
                    << "\n  got:  " << got[i];
      return;
    }
  }
  EXPECT_EQ(want.size(), got.size()) << who << ", seed " << seed;
}

/// Runs every seed in both mixes on a Database with the features of Cfg,
/// on StaticEngine<Cfg> and on the oracle.
template <typename Cfg>
void CheckAllSeeds(bool mvcc) {
  for (Mix mix : {Mix::kBalanced, Mix::kChurn}) {
    SCOPED_TRACE(mix == Mix::kChurn ? "churn mix" : "balanced mix");
    for (uint64_t seed : kSeeds) {
      std::vector<Op> trace = MakeTrace(seed, mix);
      std::vector<std::string> oracle = Expect(trace);
      DatabaseSubject db(mvcc, Cfg::kBackup);
      StaticSubject<Cfg> st;
      std::vector<std::string> dynamic_lines = Run(&db, trace);
      std::vector<std::string> static_lines = Run(&st, trace);
      ExpectSameLines(oracle, dynamic_lines, "Database", seed);
      ExpectSameLines(oracle, static_lines, "StaticEngine", seed);
      ExpectSameLines(dynamic_lines, static_lines,
                      "StaticEngine vs Database", seed);
    }
  }
}

TEST(EngineEquivalenceTest, RandomTracesAgreeWithoutMvcc) {
  CheckAllSeeds<EqCfg>(/*mvcc=*/false);
}

TEST(EngineEquivalenceTest, RandomTracesAgreeWithMvcc) {
  CheckAllSeeds<EqMvccCfg>(/*mvcc=*/true);
}

TEST(EngineEquivalenceTest, LegacyLogTracesAgreeWithoutMvcc) {
  CheckAllSeeds<EqLegacyCfg>(/*mvcc=*/false);
}

TEST(EngineEquivalenceTest, LegacyLogTracesAgreeWithMvcc) {
  CheckAllSeeds<EqLegacyMvccCfg>(/*mvcc=*/true);
}

}  // namespace
}  // namespace fame::core
