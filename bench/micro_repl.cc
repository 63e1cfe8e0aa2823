// Micro-benchmarks for WAL-shipping replication: the cost of one shipping
// round (leader reads live segments, chunks them over the transport, the
// follower stages and acks), the follower's apply sweep (engine reopen —
// recovery replay is the apply — plus the integrity scrub), and a full
// snapshot bootstrap of a fresh follower from a checkpointed leader.
//
// Run with --benchmark_out=BENCH_repl.json --benchmark_out_format=json to
// emit the evaluation artifact (the CI bench-smoke step does this).
// bytes_per_second on the ship benchmark is the replication link's
// effective throughput with a zero-latency in-process transport — the
// protocol/staging overhead floor.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "osal/env.h"
#include "repl/follower.h"
#include "repl/leader.h"
#include "repl/repl.h"

namespace fame::repl {
namespace {

core::DbOptions NodeOptions(osal::Env* env, const std::string& path) {
  core::DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Transaction", "Update",
                   "BTree-Update"};
  AddReplicationFeatures(&opts.features);
  opts.path = path;
  opts.env = env;
  opts.wal_segment_bytes = 16 * 1024;
  return opts;
}

/// One leader/follower pair over the in-process transport.
struct Rig {
  std::unique_ptr<osal::Env> env;
  std::unique_ptr<core::Database> db;
  core::DbOptions replica;
  std::unique_ptr<Follower> follower;
  std::unique_ptr<InProcessTransport> link;
  std::unique_ptr<Leader> leader;

  bool Init() {
    env = osal::NewMemEnv(0);
    auto db_or = core::Database::Open(NodeOptions(env.get(), "leader"));
    if (!db_or.ok()) return false;
    db = std::move(db_or).value();
    if (!db->StartLeader(1).ok()) return false;
    replica = NodeOptions(env.get(), "replica");
    auto f_or = Follower::Attach(env.get(), "replica");
    if (!f_or.ok()) return false;
    follower = std::move(f_or).value();
    link = std::make_unique<InProcessTransport>(follower.get());
    auto src = db->ReplicationSource();
    if (!src.ok()) return false;
    leader = std::make_unique<Leader>(*src, 1, link.get());
    return true;
  }

  bool CommitBatch(int records, int value_bytes) {
    const std::string value(value_bytes, 'v');
    for (int i = 0; i < records; ++i) {
      auto txn = db->Begin();
      if (!txn.ok()) return false;
      if (!(*txn)->Put("core", "key" + std::to_string(i % 64), value).ok()) {
        return false;
      }
      if (!db->Commit(*txn).ok()) return false;
    }
    return true;
  }
};

/// One shipping round per iteration: a fresh batch of committed bytes is
/// produced untimed, then SyncOnce moves it to the follower's staging.
void BM_ReplShipRound(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  Rig rig;
  if (!rig.Init()) {
    state.SkipWithError("rig init failed");
    return;
  }
  int64_t shipped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    uint64_t before = rig.leader->acked_end();
    if (!rig.CommitBatch(records, 48)) {
      state.SkipWithError("commit failed");
      break;
    }
    state.ResumeTiming();
    if (!rig.leader->SyncOnce().ok() || rig.leader->lag_bytes() != 0) {
      state.SkipWithError("ship failed");
      break;
    }
    shipped += static_cast<int64_t>(rig.leader->acked_end() - before);
  }
  state.SetBytesProcessed(shipped);
}
BENCHMARK(BM_ReplShipRound)->Arg(64)->Arg(512);

/// One apply sweep per iteration: the staged batch is replayed by the
/// engine-reopen path and scrubbed.
void BM_ReplFollowerSweep(benchmark::State& state) {
  Rig rig;
  if (!rig.Init()) {
    state.SkipWithError("rig init failed");
    return;
  }
  auto open_replica = [&rig] { return core::Database::Open(rig.replica); };
  for (auto _ : state) {
    state.PauseTiming();
    if (!rig.CommitBatch(64, 48) || !rig.leader->SyncOnce().ok()) {
      state.SkipWithError("ship failed");
      break;
    }
    state.ResumeTiming();
    if (!rig.follower->Sweep(open_replica).ok()) {
      state.SkipWithError("sweep failed");
      break;
    }
  }
}
BENCHMARK(BM_ReplFollowerSweep);

/// Full bootstrap per iteration: a fresh follower is baselined from a
/// checkpointed leader (snapshot pages + tail splice) until lag is zero.
void BM_ReplBootstrap(benchmark::State& state) {
  auto env = osal::NewMemEnv(0);
  auto db_or = core::Database::Open(NodeOptions(env.get(), "leader"));
  if (!db_or.ok() || !(*db_or)->StartLeader(1).ok()) {
    state.SkipWithError("leader init failed");
    return;
  }
  std::unique_ptr<core::Database> db = std::move(db_or).value();
  const std::string value(128, 'v');
  for (int i = 0; i < 512; ++i) {
    auto txn = db->Begin();
    if (!txn.ok()) break;
    (void)(*txn)->Put("core", "key" + std::to_string(i), value);
    (void)db->Commit(*txn);
  }
  if (!db->Checkpoint().ok()) {
    state.SkipWithError("checkpoint failed");
    return;
  }
  auto src = db->ReplicationSource();
  if (!src.ok()) {
    state.SkipWithError("source failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    // Scrap the previous replica so every iteration bootstraps from nil.
    std::vector<std::string> stale;
    (void)env->ListFiles("replica", &stale);
    for (const std::string& f : stale) (void)env->DeleteFile(f);
    const core::DbOptions replica = NodeOptions(env.get(), "replica");
    auto open_replica = [&replica] { return core::Database::Open(replica); };
    auto f_or = Follower::Attach(env.get(), "replica");
    if (!f_or.ok()) {
      state.SkipWithError("attach failed");
      break;
    }
    InProcessTransport link(f_or->get());
    Leader leader(*src, 1, &link);
    state.ResumeTiming();
    bool ok = false;
    for (int round = 0; round < 8; ++round) {
      if (!leader.SyncOnce().ok()) break;
      if (leader.lag_bytes() == 0) {
        ok = true;
        break;
      }
    }
    if (!ok || !f_or->get()->Sweep(open_replica).ok()) {
      state.SkipWithError("bootstrap failed");
      break;
    }
  }
}
BENCHMARK(BM_ReplBootstrap);

}  // namespace
}  // namespace fame::repl

BENCHMARK_MAIN();
