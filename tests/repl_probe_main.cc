// Replication probe product: one Backup-enabled static product compiled two
// ways by tests/CMakeLists.txt:
//
//   repl_off_probe  Backup product without Replication. The nm test greps
//                   this binary for the replication namespace (fame::repl)
//                   and fails on any hit: products that do not select
//                   Replication must link zero bytes of the fencing or
//                   shipping machinery.
//   repl_probe      FAME_REPL_PROBE selects Replication + Failover on the
//                   same product; the positive control proving the symbol
//                   check sees what it claims to rule out.
//
// The two .text sizes are the measurement points behind
// fm::kFameReplicationNfpSeed. Run as a selftest, the probe commits a
// workload; the replication variant additionally takes leadership, ships
// its WAL to a follower over the in-process transport, applies it, checks
// the replica serves identical data read-only, and promotes it. The
// follower replays and promotes through this same static product, so the
// replication variant links no runtime engine: the nm guard
// repl_probe_no_database_symbols rejects fame::core::Database and the
// feature model (fame::fm) it would drag in.
#include <cstdio>
#include <string>

#include "core/products.h"
#include "osal/env.h"

#if FAME_REPL_PROBE
#include <memory>

#include "repl/follower.h"
#include "repl/leader.h"
#endif

namespace {

struct ProbeCfg {
  using IndexTag = fame::core::BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kBackup = true;
  static constexpr uint64_t kWalSegmentBytes = 4 * 1024;  // force rotations
#if FAME_REPL_PROBE
  static constexpr bool kReplication = true;
  static constexpr bool kFailover = true;
#endif
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 16;
  static constexpr size_t kStaticPoolBytes = 0;
};

int Fail(const char* what) {
  std::fprintf(stderr, "repl probe FAILED: %s\n", what);
  return 1;
}

using Engine = fame::core::StaticEngine<ProbeCfg>;

int RunWorkload(Engine* db, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto txn = db->Begin();
    if (!txn.ok()) return Fail(txn.status().ToString().c_str());
    std::string key = "key" + std::to_string(i % 64);
    std::string value = "value" + std::to_string(i);
    if (!(*txn)->Put("core", key, value).ok()) return Fail("txn put");
    if (!db->Commit(*txn).ok()) return Fail("commit");
  }
  return 0;
}

#if FAME_REPL_PROBE
/// How the follower opens its engine: this same static product.
fame::StatusOr<std::unique_ptr<Engine>> OpenReplica(fame::osal::Env* env) {
  auto engine = std::make_unique<Engine>();
  FAME_RETURN_IF_ERROR(engine->Open(env, "replica.db"));
  return engine;
}
#endif

}  // namespace

int main() {
  auto env = fame::osal::NewMemEnv(0);
  Engine db;
  fame::Status s = db.Open(env.get(), "probe.db");
  if (!s.ok()) return Fail(s.ToString().c_str());
  if (int rc = RunWorkload(&db, 400); rc != 0) return rc;

#if FAME_REPL_PROBE
  s = db.StartLeader(1);
  if (!s.ok()) return Fail(s.ToString().c_str());
  if (db.repl_epoch() != 1 || db.repl_follower()) {
    return Fail("leader fence state wrong after StartLeader");
  }

  auto follower_or = fame::repl::Follower::Attach(env.get(), "replica.db");
  if (!follower_or.ok()) {
    return Fail(follower_or.status().ToString().c_str());
  }
  fame::repl::InProcessTransport link(follower_or->get());
  fame::repl::Leader leader(db.ReplicationSource(), 1, &link);
  for (int round = 0; round < 8; ++round) {
    s = leader.SyncOnce();
    if (!s.ok()) return Fail(s.ToString().c_str());
    if (leader.lag_bytes() == 0) break;
  }
  if (leader.lag_bytes() != 0) return Fail("follower never caught up");
  auto open_replica = [&env] { return OpenReplica(env.get()); };
  s = (*follower_or)->Sweep(open_replica);
  if (!s.ok()) return Fail(s.ToString().c_str());

  {
    Engine replica;
    s = replica.Open(env.get(), "replica.db");
    if (!s.ok()) return Fail(s.ToString().c_str());
    if (!replica.repl_follower()) return Fail("replica should be a follower");
    // Reads (and read transactions) are allowed; the mutation is refused
    // at commit, exactly like a post-failure read-only degrade.
    auto txn = replica.Begin();
    if (!txn.ok()) return Fail(txn.status().ToString().c_str());
    if (!(*txn)->Put("core", "key0", "rogue").ok()) return Fail("stage put");
    if (!replica.Commit(*txn).IsNotSupported()) {
      return Fail("follower must reject commits until promoted");
    }
    for (int i = 0; i < 64; ++i) {
      std::string key = "key" + std::to_string(i);
      std::string a, b;
      fame::Status sa = db.Get(key, &a);
      fame::Status sb = replica.Get(key, &b);
      if (sa.ok() != sb.ok() || (sa.ok() && a != b)) {
        return Fail("replica state diverges from the leader");
      }
    }
  }

  auto epoch_or =
      fame::repl::PromoteFollower(env.get(), "replica.db", open_replica);
  if (!epoch_or.ok()) return Fail(epoch_or.status().ToString().c_str());
  if (*epoch_or != 2) return Fail("promotion should land at epoch 2");
  Engine promoted;
  s = promoted.Open(env.get(), "replica.db");
  if (!s.ok()) return Fail(s.ToString().c_str());
  if (promoted.repl_follower() || promoted.repl_epoch() != 2) {
    return Fail("promoted replica should be a leader at epoch 2");
  }
#else
  // The replication-less product must still recover its own log.
  std::string v;
  if (!db.Get("key0", &v).ok()) return Fail("get after workload");
#endif
  std::printf("repl probe OK\n");
  return 0;
}
