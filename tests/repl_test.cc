// Replication fault matrix: WAL shipping with epoch-fenced failover driven
// end to end over the deterministic in-process transport. Every cell must
// end restore-exact-or-refused: a follower either converges to a byte-equal
// copy of the leader's committed state (proved by full-state comparison and
// the integrity scrub Sweep runs), or it refuses service (fenced writes,
// divergence marks, promotion gates) — never a silently wrong copy.
//
// Cells: plain ship + catch-up, snapshot bootstrap, archive splice,
// duplicated / reordered / dropped delivery, partition during catch-up with
// heal, retention hold + shed under a byte budget, leader restart mid-epoch
// resuming from the follower's ack, follower crash mid-apply with
// double-reopen idempotence, a fenced stale leader, divergence detection
// (seal CRC + at-rest corruption) refusing promotion until re-bootstrap,
// the integrity gate of promotion itself, malformed-message rejection, and
// the replication lag metrics surfaces.
//
// The follower replays through its own product. Most cells use the runtime
// Database; ship + catch-up, crash mid-apply, at-rest corruption and the
// promotion gate also run with the static core::ReplicaSet as the
// follower's product, which links no runtime engine at all.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/database.h"
#include "core/products.h"
#include "obs/blackbox.h"
#include "obs/serialize.h"
#include "osal/env.h"
#include "osal/link_faults.h"
#include "repl/follower.h"
#include "repl/leader.h"
#include "tx/wal_segments.h"

namespace fame::repl {
namespace {

using core::Database;
using core::DbOptions;

constexpr int kKeySpace = 16;

std::string KeyOf(uint32_t i) { return "key" + std::to_string(i); }

DbOptions NodeOptions(osal::Env* env, const std::string& path) {
  DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Transaction", "Update",
                   "BTree-Update"};
  AddReplicationFeatures(&opts.features);
  opts.path = path;
  opts.env = env;
  opts.wal_segment_bytes = 512;  // small segments: rotations are routine
  return opts;
}

/// A runtime follower: the node product plus Failover, so one opener
/// serves Sweep and PromoteFollower.
struct RuntimeReplica {
  static StatusOr<std::unique_ptr<Database>> Open(osal::Env* env) {
    DbOptions opts = NodeOptions(env, "replica");
    opts.features.push_back("Failover");
    return Database::Open(opts);
  }
};

/// A static follower: core::ReplicaSet replays, verifies and promotes
/// through itself.
struct StaticReplica {
  static StatusOr<std::unique_ptr<core::ReplicaSet>> Open(osal::Env* env) {
    auto engine = std::make_unique<core::ReplicaSet>();
    FAME_RETURN_IF_ERROR(engine->Open(env, "replica"));
    return engine;
  }
};

/// How a follower whose product is `Replica` opens its engine.
template <typename Replica>
auto OpenAs(osal::Env* env) {
  return [env] { return Replica::Open(env); };
}

/// Leader options with a deterministic retry policy: two immediate
/// attempts, no backoff sleeps, no wall clock.
LeaderOptions FastRetry() {
  LeaderOptions o;
  o.send_retry.base.max_attempts = 2;
  return o;
}

template <typename Engine>
Status CommitPut(Engine* db, int i, const std::string& value) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Status s = (*txn)->Put("core", KeyOf(i % kKeySpace), value);
  if (!s.ok()) {
    (void)db->Abort(*txn);
    return s;
  }
  return db->Commit(*txn);
}

template <typename Engine>
std::map<std::string, std::string> DumpState(Engine* db) {
  std::map<std::string, std::string> state;
  for (uint32_t i = 0; i < kKeySpace; ++i) {
    std::string v;
    Status s = db->Get(KeyOf(i), &v);
    if (s.ok()) state[KeyOf(i)] = v;
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  }
  return state;
}

/// The follower's applied state, read through a fresh open of its product.
template <typename Replica = RuntimeReplica>
std::map<std::string, std::string> ReplicaState(osal::Env* env) {
  auto db = Replica::Open(env);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return {};
  return DumpState(db->get());
}

/// Drives SyncOnce until the leader reports zero lag (transient faults are
/// the point of the matrix, so errors other than fencing/divergence are
/// retried across rounds), then applies on the follower through `Replica`.
template <typename Replica = RuntimeReplica>
Status Pump(Leader* leader, Follower* follower, osal::Env* env) {
  Status s;
  for (int i = 0; i < 16; ++i) {
    s = leader->SyncOnce();
    if (s.IsAborted() || s.IsDataLoss()) return s;
    if (s.ok() && leader->lag_bytes() == 0) break;
  }
  if (!s.ok()) return s;
  return follower->Sweep(OpenAs<Replica>(env));
}

struct Cluster {
  std::unique_ptr<osal::Env> env;
  std::unique_ptr<Database> leader_db;
  std::unique_ptr<Follower> follower;
  osal::LinkFaults faults;
  std::unique_ptr<InProcessTransport> link;
  std::unique_ptr<Leader> leader;
};

/// Leader at epoch 1 with `commits` committed puts, a fresh follower, and
/// a faultable link between them.
Cluster MakeCluster(int commits, LeaderOptions lopts = FastRetry()) {
  Cluster c;
  c.env = osal::NewMemEnv(0);
  auto db = Database::Open(NodeOptions(c.env.get(), "leader"));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  c.leader_db = std::move(db).value();
  EXPECT_TRUE(c.leader_db->StartLeader(1).ok());
  for (int i = 0; i < commits; ++i) {
    EXPECT_TRUE(
        CommitPut(c.leader_db.get(), i, "gen1-" + std::to_string(i)).ok());
  }
  auto f = Follower::Attach(c.env.get(), "replica");
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  c.follower = std::move(f).value();
  c.link = std::make_unique<InProcessTransport>(c.follower.get(), &c.faults);
  auto src = c.leader_db->ReplicationSource();
  EXPECT_TRUE(src.ok()) << src.status().ToString();
  c.leader = std::make_unique<Leader>(*src, 1, c.link.get(), lopts);
  return c;
}

template <typename Replica>
void ShipAndCatchUp() {
  Cluster c = MakeCluster(40);
  osal::Env* env = c.env.get();
  ASSERT_TRUE(Pump<Replica>(c.leader.get(), c.follower.get(), env).ok());
  EXPECT_EQ(c.leader->lag_bytes(), 0u);
  EXPECT_EQ(c.leader->lag_epochs(), 0u);
  auto oracle = DumpState(c.leader_db.get());
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(ReplicaState<Replica>(env), oracle);

  // The copy is fenced read-only: every mutation path is refused until
  // promotion, in any product that opens the file.
  auto replica = Replica::Open(env);
  ASSERT_TRUE(replica.ok());
  EXPECT_TRUE((*replica)->repl_follower());
  Status w = CommitPut(replica->get(), 0, "rogue");
  EXPECT_TRUE(w.IsNotSupported()) << w.ToString();

  // Incremental catch-up: new commits flow without a fresh baseline.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        CommitPut(c.leader_db.get(), i, "gen2-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(Pump<Replica>(c.leader.get(), c.follower.get(), env).ok());
  EXPECT_EQ(ReplicaState<Replica>(env), DumpState(c.leader_db.get()));
}

TEST(ReplTest, ShipAndCatchUpProducesExactReadOnlyCopy) {
  ShipAndCatchUp<RuntimeReplica>();
}

TEST(ReplTest, StaticFollowerShipAndCatchUpProducesExactReadOnlyCopy) {
  ShipAndCatchUp<StaticReplica>();
}

TEST(ReplTest, FollowerRoleIsEnforcedWithoutTheReplicationFeature) {
  Cluster c = MakeCluster(20);
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  // A product that never selected Replication still must not commit on a
  // fenced follower copy: the fence rides in the PageFile meta and the
  // role check is unconditional.
  DbOptions plain;
  plain.features = {"Linux", "B+-Tree", "Transaction", "Update",
                    "BTree-Update", "Backup"};
  plain.path = "replica";
  plain.env = c.env.get();
  auto db = Database::Open(plain);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Status w = CommitPut(db->get(), 0, "rogue");
  EXPECT_TRUE(w.IsNotSupported()) << w.ToString();
}

TEST(ReplTest, CheckpointedLeaderBootstrapsFreshFollower) {
  Cluster c = MakeCluster(60);
  // Checkpoint recycles applied segments: the retained chain no longer
  // reaches back to LSN 0, so a fresh follower cannot be served from live
  // WAL alone and must take the snapshot baseline.
  ASSERT_TRUE(c.leader_db->Checkpoint().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        CommitPut(c.leader_db.get(), i, "post-ckpt-" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

TEST(ReplTest, DuplicatedAndReorderedDeliveryIsIdempotent) {
  Cluster c = MakeCluster(40);
  c.faults.DuplicateOp(1);
  c.faults.DuplicateOp(4);
  c.faults.DelayOp(2);
  c.faults.DelayOp(6);
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

TEST(ReplTest, DroppedChunksAreRetransmitted) {
  Cluster c = MakeCluster(40);
  c.faults.DropRange(1, 2);
  c.faults.DropRange(7, 1);
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

TEST(ReplTest, PartitionDuringCatchUpHealsAndResumes) {
  Cluster c = MakeCluster(40);
  c.faults.PartitionFrom(3);
  Status s = c.leader->SyncOnce();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(c.leader->follower_stalled());
  EXPECT_TRUE(c.leader->holding_retention());
  EXPECT_GT(c.leader->lag_bytes(), 0u);
  // Degradation is graceful: the partitioned leader keeps committing.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        CommitPut(c.leader_db.get(), i, "during-" + std::to_string(i)).ok());
  }
  c.faults.Heal();
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_FALSE(c.leader->follower_stalled());
  EXPECT_FALSE(c.leader->holding_retention());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

TEST(ReplTest, RetentionHoldShedsUnderByteBudgetThenRebaselines) {
  LeaderOptions lopts = FastRetry();
  lopts.max_hold_bytes = 2048;  // small: a stalled follower sheds quickly
  Cluster c = MakeCluster(20, lopts);
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());

  // A small backlog stalls within budget: the hold engages.
  c.faults.PartitionFrom(c.faults.sends());
  ASSERT_TRUE(CommitPut(c.leader_db.get(), 0, "stall-small").ok());
  EXPECT_FALSE(c.leader->SyncOnce().ok());
  EXPECT_TRUE(c.leader->holding_retention());
  EXPECT_FALSE(c.leader->hold_shed());

  // The backlog outgrows the budget: the hold is shed — the leader's
  // durability beats the follower's convenience.
  const std::string fat(128, 'x');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(CommitPut(c.leader_db.get(), i, fat).ok());
  }
  EXPECT_FALSE(c.leader->SyncOnce().ok());
  EXPECT_TRUE(c.leader->hold_shed());
  EXPECT_FALSE(c.leader->holding_retention());

  // With the hold shed, checkpoints recycle the chain out from under the
  // stalled follower; on heal it must converge anyway (snapshot baseline).
  ASSERT_TRUE(c.leader_db->Checkpoint().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        CommitPut(c.leader_db.get(), i, "shed-" + std::to_string(i)).ok());
  }
  c.faults.Heal();
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_FALSE(c.leader->hold_shed());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

TEST(ReplTest, LeaderRestartMidEpochResumesFromFollowerAck) {
  Cluster c = MakeCluster(40);
  // The link dies mid-round: some chunks land, the leader's in-memory
  // shipping state is then lost with the process.
  c.faults.PartitionFrom(4);
  EXPECT_FALSE(c.leader->SyncOnce().ok());
  c.leader.reset();
  c.leader_db.reset();

  // Restart: reopen the engine (crash recovery path), resume leadership at
  // the same epoch, and let the hello handshake recover the resume point
  // from the follower's durable ack — nothing is re-applied twice, nothing
  // is skipped.
  auto db = Database::Open(NodeOptions(c.env.get(), "leader"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  c.leader_db = std::move(db).value();
  ASSERT_TRUE(c.leader_db->StartLeader(1).ok());
  c.faults.Heal();
  auto src = c.leader_db->ReplicationSource();
  ASSERT_TRUE(src.ok());
  c.leader =
      std::make_unique<Leader>(*src, 1, c.link.get(), FastRetry());
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());
  EXPECT_EQ(ReplicaState(c.env.get()), DumpState(c.leader_db.get()));
}

template <typename Replica>
void CrashMidApply() {
  Cluster c = MakeCluster(40);
  // Ship everything but "crash" the follower before it applies: the
  // staged segments and the fence survive on disk, the Follower object
  // (and its in-memory resume state) does not.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(c.leader->SyncOnce().ok());
    if (c.leader->lag_bytes() == 0) break;
  }
  ASSERT_EQ(c.leader->lag_bytes(), 0u);
  c.follower.reset();

  osal::Env* env = c.env.get();
  auto f1 = Follower::Attach(env, "replica");
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  ASSERT_TRUE((*f1)->Sweep(OpenAs<Replica>(env)).ok());
  auto once = ReplicaState<Replica>(env);

  // Double reopen: applying the same staged bytes again must be a no-op
  // (recovery replay is idempotent), and the scrub inside Sweep must stay
  // clean both times.
  auto f2 = Follower::Attach(env, "replica");
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  ASSERT_TRUE((*f2)->Sweep(OpenAs<Replica>(env)).ok());
  EXPECT_FALSE((*f2)->divergent());
  auto twice = ReplicaState<Replica>(env);

  auto oracle = DumpState(c.leader_db.get());
  EXPECT_EQ(once, oracle);
  EXPECT_EQ(twice, oracle);
}

TEST(ReplTest, FollowerCrashMidApplyReplaysIdempotently) {
  CrashMidApply<RuntimeReplica>();
}

TEST(ReplTest, StaticFollowerCrashMidApplyReplaysIdempotently) {
  CrashMidApply<StaticReplica>();
}

TEST(ReplTest, StaleLeaderIsFencedOutAfterEpochAdvance) {
  Cluster c = MakeCluster(30);
  ASSERT_TRUE(Pump(c.leader.get(), c.follower.get(), c.env.get()).ok());

  // A new leadership term over the same engine: epoch 2 reaches the
  // follower and raises its fence.
  ASSERT_TRUE(c.leader_db->StartLeader(2).ok());
  auto src = c.leader_db->ReplicationSource();
  ASSERT_TRUE(src.ok());
  Leader next(*src, 2, c.link.get(), FastRetry());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        CommitPut(c.leader_db.get(), i, "epoch2-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(Pump(&next, c.follower.get(), c.env.get()).ok());

  // The deposed epoch-1 leader's late frames must be rejected before a
  // byte lands.
  ASSERT_TRUE(
      CommitPut(c.leader_db.get(), 0, "stale-suffix").ok());
  Status s = c.leader->SyncOnce();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_TRUE(c.leader->deposed());
  // And it stays fenced: every further round refuses without touching the
  // link.
  EXPECT_TRUE(c.leader->SyncOnce().IsAborted());

  // The engine itself also refuses to regress its fence.
  EXPECT_TRUE(c.leader_db->StartLeader(1).IsInvalidArgument());
}

template <typename Replica>
void AtRestCorruption() {
  // Damage under the staged chain's coverage self-heals (recovery replay
  // rewrites those pages), so build a replica whose baseline is snapshot
  // pages: checkpoint a wide key space into the leader's page file first,
  // so the bootstrapped replica's history is NOT replayable from WAL.
  auto env = osal::NewMemEnv(0);
  auto db_or = Database::Open(NodeOptions(env.get(), "leader"));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> ldb = std::move(db_or).value();
  ASSERT_TRUE(ldb->StartLeader(1).ok());
  const std::string wide(100, 'v');
  auto fill = [&](const std::string& tag) {
    for (int i = 0; i < 200; ++i) {
      auto txn = ldb->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          (*txn)->Put("core", "key" + std::to_string(i), wide + tag).ok());
      ASSERT_TRUE(ldb->Commit(*txn).ok());
    }
  };
  auto dump_wide = [&](auto* db) {
    std::map<std::string, std::string> state;
    for (int i = 0; i < 200; ++i) {
      std::string v;
      if (db->Get("key" + std::to_string(i), &v).ok()) {
        state["key" + std::to_string(i)] = v;
      }
    }
    return state;
  };
  fill("g1");
  ASSERT_TRUE(ldb->Checkpoint().ok());

  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  InProcessTransport link(f->get());
  auto src = ldb->ReplicationSource();
  ASSERT_TRUE(src.ok());
  Leader leader(*src, 1, &link, FastRetry());
  ASSERT_TRUE(Pump<Replica>(&leader, f->get(), env.get()).ok());
  {
    auto replica = Replica::Open(env.get());
    ASSERT_TRUE(replica.ok());
    ASSERT_EQ(dump_wide(replica->get()), dump_wide(ldb.get()));
  }

  // Flip bytes in several late pages of the replica at rest: the tail
  // replay only rewrites key0's path, so the damage survives into the
  // post-sweep scrub, which must mark the node divergent on disk.
  {
    auto pf = env->OpenFile("replica", /*create=*/false);
    ASSERT_TRUE(pf.ok());
    auto size = (*pf)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_GT(*size, 6 * 4096u);
    for (uint64_t off : {*size - 2 * 4096 + 700, *size - 3 * 4096 + 700,
                         *size - 4 * 4096 + 700}) {
      ASSERT_TRUE((*pf)->Write(off, Slice("XXXXXXXX", 8)).ok());
    }
    ASSERT_TRUE((*pf)->Sync().ok());
  }
  {
    auto txn = ldb->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "key0", "tail").ok());
    ASSERT_TRUE(ldb->Commit(*txn).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(leader.SyncOnce().ok());
    if (leader.lag_bytes() == 0) break;
  }
  Status sweep = f->get()->Sweep(OpenAs<Replica>(env.get()));
  EXPECT_TRUE(sweep.IsDataLoss()) << sweep.ToString();
  EXPECT_TRUE(f->get()->divergent());
  auto fence = LoadFence(env.get(), "replica");
  ASSERT_TRUE(fence.ok());
  EXPECT_TRUE(fence->divergent);

  // Refused: a replica that failed its scrub must not take leadership.
  auto promoted =
      PromoteFollower(env.get(), "replica", OpenAs<Replica>(env.get()));
  EXPECT_TRUE(promoted.status().IsDataLoss()) << promoted.status().ToString();

  // Heal: the next shipping round sees the divergence refusal, ships a
  // fresh snapshot baseline, and the follower converges and un-marks.
  fill("g2");
  ASSERT_TRUE(Pump<Replica>(&leader, f->get(), env.get()).ok());
  EXPECT_FALSE(f->get()->divergent());
  {
    auto replica = Replica::Open(env.get());
    ASSERT_TRUE(replica.ok());
    EXPECT_EQ(dump_wide(replica->get()), dump_wide(ldb.get()));
  }
  auto promoted2 =
      PromoteFollower(env.get(), "replica", OpenAs<Replica>(env.get()));
  ASSERT_TRUE(promoted2.ok()) << promoted2.status().ToString();
  EXPECT_EQ(*promoted2, 2u);
}

TEST(ReplTest, AtRestCorruptionMarksDivergenceRefusesPromotionThenHeals) {
  AtRestCorruption<RuntimeReplica>();
}

TEST(ReplTest, StaticFollowerAtRestCorruptionRefusesPromotionThenHeals) {
  AtRestCorruption<StaticReplica>();
}

TEST(ReplTest, SealCrcCrossCheckCatchesTamperedStagedSegment) {
  auto env = osal::NewMemEnv(0);
  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  const std::string body = "0123456789abcdef";

  Message w;
  w.kind = Message::kWal;
  w.epoch = 1;
  w.seq = 1;
  w.base_lsn = 0;
  w.seg_epoch = 1;
  w.lsn = 0;
  w.crc = Crc32(body.data(), body.size());
  w.payload = body;
  auto ack = (*f)->Deliver(w);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->end_lsn, body.size());

  // Tamper with the staged bytes behind the follower's back.
  {
    auto seg = env->OpenFile("replica.wal.000001", /*create=*/false);
    ASSERT_TRUE(seg.ok());
    ASSERT_TRUE((*seg)->Write(tx::seg::kHeaderSize + 3, Slice("Z", 1)).ok());
  }

  Message seal;
  seal.kind = Message::kSeal;
  seal.epoch = 1;
  seal.seq = 1;
  seal.base_lsn = 0;
  seal.seg_epoch = 1;
  seal.total = body.size();
  seal.crc = Crc32(body.data(), body.size());
  auto verdict = (*f)->Deliver(seal);
  EXPECT_TRUE(verdict.status().IsDataLoss()) << verdict.status().ToString();
  EXPECT_TRUE((*f)->divergent());
  auto fence = LoadFence(env.get(), "replica");
  ASSERT_TRUE(fence.ok());
  EXPECT_TRUE(fence->divergent);
}

TEST(ReplTest, WalGapRewindsTheAckInsteadOfStagingAHole) {
  auto env = osal::NewMemEnv(0);
  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());

  Message w;
  w.kind = Message::kWal;
  w.epoch = 1;
  w.seq = 1;
  w.base_lsn = 0;
  w.seg_epoch = 1;
  w.lsn = 0;
  w.payload = "aaaa";
  w.crc = Crc32(w.payload.data(), w.payload.size());
  ASSERT_TRUE((*f)->Deliver(w).ok());

  // A chunk from beyond the staged prefix (reordering) must not land; the
  // ack pins the sender back to the contiguous end.
  Message gap = w;
  gap.lsn = 8;
  gap.payload = "cccc";
  gap.crc = Crc32(gap.payload.data(), gap.payload.size());
  auto ack = (*f)->Deliver(gap);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->end_lsn, 4u);
  EXPECT_EQ((*f)->end_lsn(), 4u);

  // An in-flight damaged chunk is transient, not divergence.
  Message bad = w;
  bad.lsn = 4;
  bad.payload = "bbbb";
  bad.crc = 0xdeadbeef;
  auto s = (*f)->Deliver(bad);
  EXPECT_TRUE(s.status().code() == StatusCode::kIOError) <<
      s.status().ToString();
  EXPECT_FALSE((*f)->divergent());
}

/// One kWal chunk of segment 1 (base LSN 0) at `lsn`, with a valid CRC.
Message WalChunk(uint64_t lsn, std::string payload) {
  Message w;
  w.kind = Message::kWal;
  w.epoch = 1;
  w.seq = 1;
  w.base_lsn = 0;
  w.seg_epoch = 1;
  w.lsn = lsn;
  w.payload = std::move(payload);
  w.crc = Crc32(w.payload.data(), w.payload.size());
  return w;
}

// Regression: a chunk that starts before its own segment base used to wrap
// the staging offset and abort the process with std::length_error.
TEST(ReplTest, ChunkBeforeItsSegmentBaseIsRefusedBeforeStaging) {
  auto env = osal::NewMemEnv(0);
  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  Message w = WalChunk(0, "abc");
  w.base_lsn = 1000;
  auto ack = (*f)->Deliver(w);
  EXPECT_TRUE(ack.status().IsInvalidArgument()) << ack.status().ToString();
  EXPECT_FALSE(env->FileExists("replica.wal.000001"));
  EXPECT_EQ((*f)->end_lsn(), 0u);
  EXPECT_FALSE((*f)->divergent());
}

// Regression: a chunk that opened a new segment below the staged end was
// written past a zero-filled hole, and the ack reported the hole as staged.
TEST(ReplTest, FreshSegmentMustStartAtTheStagedEnd) {
  auto env = osal::NewMemEnv(0);
  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Deliver(WalChunk(0, "aaaa")).ok());  // segment 1 [0, 4)

  Message w = WalChunk(4, "bbbb");
  w.seq = 2;  // claims base 0 although segment 1 already covers [0, 4)
  auto ack = (*f)->Deliver(w);
  EXPECT_TRUE(ack.status().IsInvalidArgument()) << ack.status().ToString();
  EXPECT_FALSE(env->FileExists("replica.wal.000002"));
  EXPECT_EQ((*f)->end_lsn(), 4u);
  EXPECT_FALSE((*f)->divergent());

  // The same chunk with the segment's true base stages contiguously, and a
  // fresh attach resumes where the ack said.
  w.base_lsn = 4;
  ack = (*f)->Deliver(w);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->end_lsn, 8u);
  auto again = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->end_lsn(), 8u);
}

// Regression: a seal whose total wrapped header + total passed the length
// check and then sized the payload buffer, aborting with std::length_error.
// A seal claiming more than the staged segment holds is divergence.
TEST(ReplTest, SealTotalPastTheStagedSegmentIsDivergenceNotACrash) {
  auto env = osal::NewMemEnv(0);
  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Deliver(WalChunk(0, "01234567")).ok());
  Message seal;
  seal.kind = Message::kSeal;
  seal.epoch = 1;
  seal.seq = 1;
  seal.seg_epoch = 1;
  seal.total = UINT64_MAX - 5;
  auto verdict = (*f)->Deliver(seal);
  EXPECT_TRUE(verdict.status().IsDataLoss()) << verdict.status().ToString();
  EXPECT_TRUE((*f)->divergent());
}

#if FAME_OBS_ENABLED
// The divergence black box follows the follower's product: a runtime
// product that selects FlightRecorder gets one, a product without it (every
// static product) gets none.
TEST(ReplTest, DivergenceBlackBoxFollowsTheFlightRecorderFeature) {
  for (bool recorder : {true, false}) {
    auto env = osal::NewMemEnv(0);
    Follower::Options opts;
    if (recorder) opts.blackbox_features = {"Linux", "FlightRecorder"};
    auto f = Follower::Attach(env.get(), "replica", opts);
    ASSERT_TRUE(f.ok());
    const std::string body = "0123456789abcdef";
    ASSERT_TRUE((*f)->Deliver(WalChunk(0, body)).ok());
    Message seal;
    seal.kind = Message::kSeal;
    seal.epoch = 1;
    seal.seq = 1;
    seal.seg_epoch = 1;
    seal.total = body.size();
    seal.crc = Crc32(body.data(), body.size()) ^ 1;  // the leader disagrees
    ASSERT_TRUE((*f)->Deliver(seal).status().IsDataLoss());

    const std::string box = obs::BlackBoxPath("replica");
    ASSERT_EQ(env->FileExists(box), recorder);
    if (recorder) {
      auto text = obs::ReadBlackBox(env.get(), box);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_NE(text->find("replication divergence"), std::string::npos);
      EXPECT_NE(text->find("Linux,FlightRecorder"), std::string::npos);
    }
  }
}
#endif

/// The promotion gate itself: a follower whose fence is clean but whose
/// pages rotted at rest fails its own Promote with DataLoss and stays a
/// follower at its old epoch.
template <typename Replica>
void PromoteIsGatedOnTheReplicasScrub() {
  auto env = osal::NewMemEnv(0);
  {
    auto db = Replica::Open(env.get());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const std::string wide(100, 'v');
    for (int i = 0; i < 200; ++i) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("core", "key" + std::to_string(i), wide).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->StartFollower(1).ok());
  }
  {
    auto pf = env->OpenFile("replica", /*create=*/false);
    ASSERT_TRUE(pf.ok());
    auto size = (*pf)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_GT(*size, 6 * 4096u);
    for (uint64_t off : {*size - 2 * 4096 + 700, *size - 3 * 4096 + 700}) {
      ASSERT_TRUE((*pf)->Write(off, Slice("XXXXXXXX", 8)).ok());
    }
    ASSERT_TRUE((*pf)->Sync().ok());
  }
  auto db = Replica::Open(env.get());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->repl_follower());
  Status s = (*db)->Promote(2);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_TRUE((*db)->repl_follower());
  EXPECT_EQ((*db)->repl_epoch(), 1u);
}

TEST(ReplTest, PromoteIsGatedOnTheReplicasScrub) {
  PromoteIsGatedOnTheReplicasScrub<RuntimeReplica>();
}

TEST(ReplTest, StaticPromoteIsGatedOnTheReplicasScrub) {
  PromoteIsGatedOnTheReplicasScrub<StaticReplica>();
}

TEST(ReplTest, LagMetricsSurfaceThroughTheObservabilityStack) {
  auto env = osal::NewMemEnv(0);
  DbOptions lopts = NodeOptions(env.get(), "leader");
  lopts.features.push_back("Observability");
  auto db = Database::Open(lopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->StartLeader(1).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitPut(db->get(), i, "v" + std::to_string(i)).ok());
  }

  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  InProcessTransport link(f->get());
  auto src = (*db)->ReplicationSource();
  ASSERT_TRUE(src.ok());
  LeaderOptions o = FastRetry();
  Database* raw = db->get();
  o.lag_sink = [raw](uint64_t bytes, uint64_t epochs) {
    raw->SetReplLag(bytes, epochs);
  };
  Leader leader(*src, 1, &link, o);
  ASSERT_TRUE(Pump(&leader, f->get(), env.get()).ok());

  auto snap = (*db)->GetMetricsSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->repl);
  EXPECT_FALSE(snap->repl_follower);
  EXPECT_EQ(snap->repl_epoch, 1u);
  EXPECT_EQ(snap->repl_lag_bytes, 0u);
  std::string prom = obs::RenderPrometheus(*snap);
  EXPECT_NE(prom.find("fame_repl_lag_bytes"), std::string::npos);
  EXPECT_NE(prom.find("fame_repl_epoch"), std::string::npos);
  std::string text = obs::RenderText(*snap);
  EXPECT_NE(text.find("repl role: leader"), std::string::npos);

  // The follower side reports its role through the same surface.
  DbOptions fopts = NodeOptions(env.get(), "replica");
  fopts.features.push_back("Observability");
  auto replica = Database::Open(fopts);
  ASSERT_TRUE(replica.ok());
  auto fsnap = (*replica)->GetMetricsSnapshot();
  ASSERT_TRUE(fsnap.ok());
  EXPECT_TRUE(fsnap->repl);
  EXPECT_TRUE(fsnap->repl_follower);
}

TEST(ReplTest, ArchiveSpliceCatchesUpALaggingFollowerWithoutBootstrap) {
  auto env = osal::NewMemEnv(0);
  DbOptions lopts = NodeOptions(env.get(), "leader");
  lopts.features.push_back("Pitr");  // recycled segments flow to archive
  auto db = Database::Open(lopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->StartLeader(1).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitPut(db->get(), i, "gen1-" + std::to_string(i)).ok());
  }

  auto f = Follower::Attach(env.get(), "replica");
  ASSERT_TRUE(f.ok());
  InProcessTransport link(f->get());
  auto src = (*db)->ReplicationSource();
  ASSERT_TRUE(src.ok());
  {
    Leader first(*src, 1, &link, FastRetry());
    ASSERT_TRUE(Pump(&first, f->get(), env.get()).ok());
  }

  // While no leader is attached, the chain moves on and checkpoints
  // recycle into the archive: the follower falls behind the retained
  // start, but the archive covers the gap.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(CommitPut(db->get(), i, "gen2-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->Checkpoint().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitPut(db->get(), i, "gen3-" + std::to_string(i)).ok());
  }

  Leader second(*src, 1, &link, FastRetry());
  ASSERT_TRUE(Pump(&second, f->get(), env.get()).ok());
  EXPECT_EQ(ReplicaState(env.get()), DumpState(db->get()));
}

}  // namespace
}  // namespace fame::repl
