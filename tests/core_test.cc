// Tests for the FAME-DBMS core product line: data types, the statically
// composed products, the Database facade (runtime composition + feature
// gating), and the SQL-lite engine with its rule-based optimizer.
#include <gtest/gtest.h>

#include "core/database.h"
#include "index/keys.h"
#include "core/products.h"
#include "core/sql.h"
#include "featuremodel/fame_model.h"
#include "obs/obs.h"
#include "osal/fault_env.h"

namespace fame::core {
namespace {

// ------------------------------------------------------------ data types

TEST(ValueTest, KindsAndDisplay) {
  EXPECT_EQ(Value::Int(-5).ToDisplay(), "-5");
  EXPECT_EQ(Value::String("hi").ToDisplay(), "'hi'");
  EXPECT_EQ(Value::Blob("ab").ToDisplay(), "x'6162'");
  EXPECT_EQ(Value().ToDisplay(), "NULL");
  EXPECT_TRUE(Value().is_null());
}

TEST(ValueTest, CompareWithinAndAcrossKinds) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
  EXPECT_LT(Value().Compare(Value::Int(0)), 0);       // NULL first
  EXPECT_LT(Value::Int(9).Compare(Value::String("")), 0);  // Int < String
}

TEST(ValueTest, KeyEncodingPreservesIntOrder) {
  const int64_t vals[] = {INT64_MIN, -3, 0, 7, INT64_MAX};
  for (int64_t a : vals) {
    for (int64_t b : vals) {
      EXPECT_EQ(a < b, Slice(Value::Int(a).EncodeKey())
                               .compare(Value::Int(b).EncodeKey()) < 0);
    }
  }
}

TEST(RowTest, EncodeDecodeRoundTrip) {
  Row row = {Value::Int(42), Value::String("meeting"), Value(),
             Value::Blob(std::string("\x00\x01\xff", 3))};
  auto back = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 4u);
  EXPECT_EQ((*back)[0].AsInt(), 42);
  EXPECT_EQ((*back)[1].AsString(), "meeting");
  EXPECT_TRUE((*back)[2].is_null());
  EXPECT_EQ((*back)[3].AsBlob().size(), 3u);
}

TEST(SchemaTest, CheckRowEnforcesArityAndTypes) {
  Schema s;
  s.table = "t";
  s.columns = {{"id", Value::Kind::kInt}, {"name", Value::Kind::kString}};
  EXPECT_TRUE(s.CheckRow({Value::Int(1), Value::String("x")}).ok());
  EXPECT_FALSE(s.CheckRow({Value::Int(1)}).ok());                  // arity
  EXPECT_FALSE(s.CheckRow({Value::String("x"), Value::String("y")}).ok());
  EXPECT_FALSE(s.CheckRow({Value(), Value::String("x")}).ok());    // null pk
  EXPECT_TRUE(s.CheckRow({Value::Int(1), Value()}).ok());          // null ok
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s;
  s.table = "events";
  s.columns = {{"ts", Value::Kind::kInt}, {"payload", Value::Kind::kBlob}};
  auto back = Schema::Decode(s.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table, "events");
  ASSERT_EQ(back->columns.size(), 2u);
  EXPECT_EQ(back->columns[1].name, "payload");
  EXPECT_EQ(back->columns[1].type, Value::Kind::kBlob);
}

// ------------------------------------------------------------ static products

TEST(StaticProductTest, EmbeddedMinimalGetPutOnly) {
  auto env = osal::NewMemEnv(64 * 1024);
  EmbeddedMinimal db;
  ASSERT_TRUE(db.Open(env.get(), "dev").ok());
  ASSERT_TRUE(db.Put("reading", "23.5C").ok());
  std::string v;
  ASSERT_TRUE(db.Get("reading", &v).ok());
  EXPECT_EQ(v, "23.5C");
  // db.Remove(...) / db.Update(...) / db.Begin() would each be a
  // *compile-time* error here (static_assert on the unselected feature).
  // Static allocation: all frames come from the fixed pool (the slab
  // arena when the slab feature is compiled in, the first-fit pool when
  // it is compiled out).
#if FAME_SLAB_ENABLED
  EXPECT_STREQ(db.allocator()->name(), "static-slab");
#else
  EXPECT_STREQ(db.allocator()->name(), "static");
#endif
  EXPECT_GT(db.allocator()->bytes_in_use(), 0u);
}

TEST(StaticProductTest, EmbeddedMinimalHitsDeviceCapacity) {
  auto env = osal::NewMemEnv(4 * 1024);  // tiny device
  EmbeddedMinimal db;
  ASSERT_TRUE(db.Open(env.get(), "dev").ok());
  Status s = Status::OK();
  for (int i = 0; i < 2000 && s.ok(); ++i) {
    s = db.Put("k" + std::to_string(i), std::string(100, 'x'));
  }
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);  // device full
}

TEST(StaticProductTest, SensorLoggerRangeQueries) {
  auto env = osal::NewMemEnv(0);
  SensorLogger db;
  ASSERT_TRUE(db.Open(env.get(), "log").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Put(index::EncodeU32Key(i), "r" + std::to_string(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(db.RangeScan(index::EncodeU32Key(10), index::EncodeU32Key(20),
                           [&count](const Slice&, const Slice&) {
                             ++count;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(count, 10);
  ASSERT_TRUE(db.Remove(index::EncodeU32Key(5)).ok());
  std::string v;
  EXPECT_TRUE(db.Get(index::EncodeU32Key(5), &v).IsNotFound());
  // Static pool: the buffer manager runs out of the fixed arena.
  EXPECT_GT(db.allocator()->bytes_in_use(), 0u);
}

TEST(StaticProductTest, WorkstationTransactions) {
  auto env = osal::NewMemEnv(0);
  Workstation db;
  ASSERT_TRUE(db.Open(env.get(), "ws").ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("core", "k", "v").ok());
  ASSERT_TRUE(db.Commit(*txn).ok());
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "v");
  ASSERT_TRUE(db.Update("k", "v2").ok());
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST(StaticProductTest, ControllerForceCommitSurvivesCrashWithoutLog) {
  auto env = osal::NewMemEnv(0);
  {
    Controller db;
    ASSERT_TRUE(db.Open(env.get(), "ctl").ok());
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "setpoint", "42").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
    // Force protocol: pages are durable at commit, log truncated.
    std::string log;
    ASSERT_TRUE(env->ReadFileToString("ctl.wal", &log).ok());
    EXPECT_TRUE(log.empty());
    // crash (no checkpoint call)
  }
  Controller db;
  ASSERT_TRUE(db.Open(env.get(), "ctl").ok());
  std::string v;
  ASSERT_TRUE(db.Get("setpoint", &v).ok());
  EXPECT_EQ(v, "42");
}

TEST(StaticProductTest, ProductsMatchFeatureModelVariants) {
  // Every named product's feature list must be a valid variant of the
  // Figure 2 model — products are generator output, not ad-hoc configs.
  auto model = fm::BuildFameDbmsModel();
  auto check = [&](const char* const* features, size_t n) {
    fm::Configuration c(model.get());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(c.SelectByName(features[i]).ok()) << features[i];
    }
    ASSERT_TRUE(model->CompleteMinimal(&c).ok());
    EXPECT_TRUE(model->ValidateComplete(c).ok());
  };
  check(kEmbeddedMinimalFeatures, std::size(kEmbeddedMinimalFeatures));
  check(kSensorLoggerFeatures, std::size(kSensorLoggerFeatures));
  check(kWorkstationFeatures, std::size(kWorkstationFeatures));
  check(kControllerFeatures, std::size(kControllerFeatures));
  check(kEdgeServerFeatures, std::size(kEdgeServerFeatures));
  check(kAnalyticsFeatures, std::size(kAnalyticsFeatures));
  check(kVersionedStoreFeatures, std::size(kVersionedStoreFeatures));
}

// Regression: the static engine's legacy-log Checkpoint flushed the pool but
// left the WAL untruncated, so recovery after a power cut replayed commits
// the checkpoint already covered over newer unlogged writes.
TEST(StaticProductTest, LegacyLogCheckpointKeepsNewerUnloggedWrites) {
  auto mem = osal::NewMemEnv(0);
  osal::FaultInjectionEnv fenv(mem.get());
  auto db = std::make_unique<Workstation>();
  ASSERT_TRUE(db->Open(&fenv, "ws").ok());
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("core", "k", "logged").ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
  ASSERT_TRUE(db->Put("k", "newer").ok());  // auto-commit: not logged
  ASSERT_TRUE(db->Checkpoint().ok());
  // Power cut: nothing written from here on reaches the medium.
  fenv.CrashAfterMutations(fenv.mutation_count());
  db.reset();
  fenv.SimulateCrash();
  db = std::make_unique<Workstation>();
  ASSERT_TRUE(db->Open(&fenv, "ws").ok());
  EXPECT_EQ(db->recovery_report().applied_records, 0u);
  std::string v;
  ASSERT_TRUE(db->Get("k", &v).ok());
  EXPECT_EQ(v, "newer");
}

#if FAME_OBS_ENABLED
struct ReplicatedObsCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kBackup = true;
  static constexpr bool kReplication = true;
  static constexpr bool kObservability = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 16;
  static constexpr size_t kStaticPoolBytes = 0;
};

// Regression: static Replication products never filled the repl* fields of
// their metrics snapshot; the one assembler now serves both engines.
TEST(StaticProductTest, SnapshotCarriesReplicationGauges) {
  auto env = osal::NewMemEnv(0);
  StaticEngine<ReplicatedObsCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "repl").ok());
  EXPECT_FALSE(db.GetMetricsSnapshot().repl);
  ASSERT_TRUE(db.StartLeader(3).ok());
  obs::MetricsSnapshot m = db.GetMetricsSnapshot();
  EXPECT_TRUE(m.repl);
  EXPECT_EQ(m.repl_epoch, 3u);
  EXPECT_FALSE(m.repl_follower);
  ASSERT_TRUE(db.StartFollower(4).ok());
  m = db.GetMetricsSnapshot();
  EXPECT_TRUE(m.repl);
  EXPECT_EQ(m.repl_epoch, 4u);
  EXPECT_TRUE(m.repl_follower);
}
#endif

// ------------------------------------------------------------ Database

DbOptions MemOptions(std::vector<std::string> features) {
  DbOptions opts;
  opts.features = std::move(features);
  opts.path = "db";
  return opts;
}

TEST(DatabaseTest, OpenValidatesAgainstModel) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions({"Linux", "B+-Tree"});
  opts.env = env.get();
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->HasFeature("Get"));   // mandatory, propagated
  EXPECT_TRUE((*db)->HasFeature("LRU"));   // minimal completion default
  EXPECT_FALSE((*db)->HasFeature("Transaction"));
}

TEST(DatabaseTest, ContradictoryFeaturesRejected) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions({"B+-Tree", "List"});  // alternative group
  opts.env = env.get();
  auto db = Database::Open(opts);
  EXPECT_EQ(db.status().code(), StatusCode::kConfigInvalid);
}

TEST(DatabaseTest, AccessFeatureGatingAtRuntime) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions({"Linux", "B+-Tree"});
  opts.env = env.get();
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  // Put is mandatory (always on). Remove/Update are optional & unselected.
  ASSERT_TRUE((*db)->Put("k", "v").ok());
  EXPECT_EQ((*db)->Remove("k").code(), StatusCode::kNotSupported);
  EXPECT_EQ((*db)->Update("k", "x").code(), StatusCode::kNotSupported);
  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "v");
}

TEST(DatabaseTest, NutosProductUsesMemEnvAndStaticAlloc) {
  DbOptions opts = MemOptions({"NutOS", "List"});
  opts.nutos_capacity_bytes = 256 * 1024;
  opts.buffer_frames = 4;
  opts.page_size = 512;
  opts.static_pool_bytes = 16 * 1024;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->HasFeature("Static"));  // forced by NutOS
  EXPECT_STREQ((*db)->env()->name(), "nutos");
  ASSERT_TRUE((*db)->Put("k", "v").ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  // List index: range scans unsupported.
  EXPECT_EQ((*db)
                ->RangeScan("a", "z",
                            [](const Slice&, const Slice&) { return true; })
                .code(),
            StatusCode::kNotSupported);
}

TEST(DatabaseTest, Win32PathsWork) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions({"Win32", "B+-Tree"});
  opts.env = env.get();
  opts.path = "C:\\Data\\app.db";
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("k", "v").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_TRUE(env->FileExists("/data/app.db"));
}

TEST(DatabaseTest, TransactionsThroughFacade) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions(
      {"Linux", "B+-Tree", "Transaction", "Update", "BTree-Update"});
  opts.env = env.get();
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("core", "a", "1").ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("a", &v).ok());
  EXPECT_EQ(v, "1");
}

TEST(DatabaseTest, TypedRecordApi) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions(
      {"Linux", "B+-Tree", "Remove", "BTree-Remove", "Int-Types", "String-Types"});
  opts.env = env.get();
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  Schema schema;
  schema.table = "CONTACTS";
  schema.columns = {{"ID", Value::Kind::kInt},
                    {"NAME", Value::Kind::kString}};
  ASSERT_TRUE((*db)->CreateTable(schema).ok());
  EXPECT_FALSE((*db)->CreateTable(schema).ok());  // duplicate
  ASSERT_TRUE(
      (*db)->InsertRow("CONTACTS", {Value::Int(1), Value::String("ada")}).ok());
  ASSERT_TRUE(
      (*db)->InsertRow("CONTACTS", {Value::Int(2), Value::String("bob")}).ok());
  auto row = (*db)->FindRow("CONTACTS", Value::Int(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "ada");
  ASSERT_TRUE((*db)->DeleteRow("CONTACTS", Value::Int(1)).ok());
  EXPECT_TRUE((*db)->FindRow("CONTACTS", Value::Int(1)).status().IsNotFound());
  int rows = 0;
  ASSERT_TRUE((*db)->ScanTable("CONTACTS", [&rows](const Row&) {
    ++rows;
    return true;
  }).ok());
  EXPECT_EQ(rows, 1);
}

TEST(DatabaseTest, BlobTypeGatedByFeature) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MemOptions({"Linux", "B+-Tree"});  // no Blob-Types
  opts.env = env.get();
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  Schema schema;
  schema.table = "BIN";
  schema.columns = {{"ID", Value::Kind::kInt}, {"DATA", Value::Kind::kBlob}};
  EXPECT_EQ((*db)->CreateTable(schema).code(), StatusCode::kNotSupported);
}

// ------------------------------------------------------------ SQL

struct SqlHarness {
  std::unique_ptr<osal::Env> env = osal::NewMemEnv(0);
  std::unique_ptr<Database> db;

  explicit SqlHarness(bool optimizer = true) {
    DbOptions opts;
    opts.features = {"Linux", "B+-Tree", "SQL-Engine", "Remove",
                     "BTree-Remove", "Update", "BTree-Update",
                     "Int-Types", "String-Types", "Blob-Types"};
    if (optimizer) opts.features.push_back("Optimizer");
    opts.env = env.get();
    opts.path = "db";
    auto db_or = Database::Open(opts);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    if (db_or.ok()) db = std::move(*db_or);
  }

  ResultSet Exec(const std::string& sql) {
    auto rs = db->sql()->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : ResultSet{};
  }
};

TEST(SqlTest, CreateInsertSelect) {
  SqlHarness h;
  h.Exec("CREATE TABLE emp (id INT, name TEXT, salary INT)");
  h.Exec("INSERT INTO emp VALUES (1, 'ada', 5000), (2, 'bob', 4000)");
  h.Exec("INSERT INTO emp VALUES (3, 'eve', 6000)");
  ResultSet rs = h.Exec("SELECT * FROM emp ORDER BY id");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"ID", "NAME", "SALARY"}));
  EXPECT_EQ(rs.rows[0][1].AsString(), "ada");
  EXPECT_EQ(rs.rows[2][0].AsInt(), 3);
}

TEST(SqlTest, PointLookupPlanOnPrimaryKey) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, v TEXT)");
  h.Exec("INSERT INTO t VALUES (10, 'x'), (20, 'y')");
  ResultSet rs = h.Exec("SELECT v FROM t WHERE k = 20");
  EXPECT_EQ(rs.plan, "point-lookup");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "y");
}

TEST(SqlTest, OptimizerUsesIndexRangeOnPk) {
  SqlHarness with_opt(true), without_opt(false);
  for (SqlHarness* h : {&with_opt, &without_opt}) {
    h->Exec("CREATE TABLE t (k INT, v INT)");
    for (int i = 0; i < 50; ++i) {
      h->Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
              std::to_string(i * 2) + ")");
    }
  }
  ResultSet opt = with_opt.Exec("SELECT k FROM t WHERE k >= 40");
  ResultSet plain = without_opt.Exec("SELECT k FROM t WHERE k >= 40");
  EXPECT_EQ(opt.plan, "index-range");
  EXPECT_EQ(plain.plan, "full-scan");
  // Same answer either way.
  ASSERT_EQ(opt.rows.size(), 10u);
  ASSERT_EQ(plain.rows.size(), 10u);
}

TEST(SqlTest, RangeOperatorsExactSemantics) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, v INT)");
  for (int i = 1; i <= 10; ++i) {
    h.Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
  }
  EXPECT_EQ(h.Exec("SELECT k FROM t WHERE k < 4").rows.size(), 3u);
  EXPECT_EQ(h.Exec("SELECT k FROM t WHERE k <= 4").rows.size(), 4u);
  EXPECT_EQ(h.Exec("SELECT k FROM t WHERE k > 7").rows.size(), 3u);
  EXPECT_EQ(h.Exec("SELECT k FROM t WHERE k >= 7").rows.size(), 4u);
  EXPECT_EQ(h.Exec("SELECT k FROM t WHERE k != 5").rows.size(), 9u);
}

TEST(SqlTest, WhereOnNonKeyColumnFullScans) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, grp TEXT)");
  h.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')");
  ResultSet rs = h.Exec("SELECT k FROM t WHERE grp = 'a' ORDER BY k");
  EXPECT_EQ(rs.plan, "full-scan");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 3);
}

TEST(SqlTest, UpdateAndDelete) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, v INT)");
  h.Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  ResultSet up = h.Exec("UPDATE t SET v = 99 WHERE k >= 2");
  EXPECT_EQ(up.affected, 2u);
  ResultSet rs = h.Exec("SELECT v FROM t WHERE k = 2");
  EXPECT_EQ(rs.rows[0][0].AsInt(), 99);
  ResultSet del = h.Exec("DELETE FROM t WHERE v = 99");
  EXPECT_EQ(del.affected, 2u);
  EXPECT_EQ(h.Exec("SELECT * FROM t").rows.size(), 1u);
}

TEST(SqlTest, OrderByDescAndLimit) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, v INT)");
  h.Exec("INSERT INTO t VALUES (1, 5), (2, 3), (3, 9)");
  ResultSet rs = h.Exec("SELECT k FROM t ORDER BY v DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 3);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 1);  // v=5 is second highest
}

TEST(SqlTest, StringEscapesAndBlobs) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, s TEXT, b BLOB)");
  h.Exec("INSERT INTO t VALUES (1, 'it''s', x'00ff')");
  ResultSet rs = h.Exec("SELECT s, b FROM t WHERE k = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "it's");
  EXPECT_EQ(rs.rows[0][1].AsBlob(), std::string("\x00\xff", 2));
}

TEST(SqlTest, WhereConjunctions) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, grp TEXT, v INT)");
  h.Exec("INSERT INTO t VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 20), "
         "(4, 'a', 30)");
  ResultSet rs = h.Exec("SELECT k FROM t WHERE grp = 'a' AND v >= 20");
  ASSERT_EQ(rs.rows.size(), 2u);
  // Conjunction with a key range still uses the index, then filters.
  rs = h.Exec("SELECT k FROM t WHERE k >= 2 AND grp = 'a'");
  EXPECT_EQ(rs.plan, "index-range");
  ASSERT_EQ(rs.rows.size(), 2u);
  // Equality on the key wins the access path even when listed second.
  rs = h.Exec("SELECT k FROM t WHERE grp = 'a' AND k = 2");
  EXPECT_EQ(rs.plan, "point-lookup");
  ASSERT_EQ(rs.rows.size(), 1u);
  // Contradictory predicates: empty result, no error.
  rs = h.Exec("SELECT k FROM t WHERE k = 2 AND grp = 'b'");
  EXPECT_TRUE(rs.rows.empty());
}

TEST(SqlTest, Aggregates) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, grp TEXT, v INT)");
  h.Exec("INSERT INTO t VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 30), "
         "(4, 'b', NULL)");
  ResultSet rs = h.Exec("SELECT COUNT(*) FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 4);
  EXPECT_EQ(rs.columns[0], "COUNT(*)");
  rs = h.Exec("SELECT COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 3);   // NULL not counted
  EXPECT_EQ(rs.rows[0][1].AsInt(), 60);
  EXPECT_EQ(rs.rows[0][2].AsInt(), 20);
  EXPECT_EQ(rs.rows[0][3].AsInt(), 10);
  EXPECT_EQ(rs.rows[0][4].AsInt(), 30);
  // Aggregates respect WHERE (and ride the index plan).
  rs = h.Exec("SELECT COUNT(*), SUM(v) FROM t WHERE k >= 3");
  EXPECT_EQ(rs.plan, "index-range");
  EXPECT_EQ(rs.rows[0][0].AsInt(), 2);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 30);  // NULL skipped by SUM
  // Empty input: COUNT 0, SUM/MIN/MAX NULL.
  rs = h.Exec("SELECT COUNT(*), SUM(v), MIN(v) FROM t WHERE k > 99");
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_TRUE(rs.rows[0][2].is_null());
  // MIN/MAX work on strings.
  rs = h.Exec("SELECT MIN(grp), MAX(grp) FROM t");
  EXPECT_EQ(rs.rows[0][0].AsString(), "a");
  EXPECT_EQ(rs.rows[0][1].AsString(), "b");
}

TEST(SqlTest, AggregateErrors) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, s TEXT)");
  h.Exec("INSERT INTO t VALUES (1, 'x')");
  EXPECT_EQ(h.db->sql()->Execute("SELECT SUM(s) FROM t").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(h.db->sql()->Execute("SELECT SUM(*) FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(h.db->sql()->Execute("SELECT k, COUNT(*) FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(h.db->sql()
                ->Execute("SELECT COUNT(*) FROM t ORDER BY k")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(SqlTest, DeleteWithConjunction) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, grp TEXT)");
  h.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b')");
  ResultSet rs = h.Exec("DELETE FROM t WHERE k >= 2 AND grp = 'a'");
  EXPECT_EQ(rs.affected, 1u);
  EXPECT_EQ(h.Exec("SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 2);
}

TEST(SqlTest, ErrorsAreParseOrNotFound) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT)");
  EXPECT_EQ(h.db->sql()->Execute("SELEC * FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(h.db->sql()->Execute("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(h.db->sql()->Execute("SELECT zzz FROM t").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(h.db->sql()->Execute("INSERT INTO t VALUES ('wrong')")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      h.db->sql()->Execute("UPDATE t SET k = 1 WHERE k = 0").status().code(),
      StatusCode::kNotSupported);  // pk update
}

TEST(SqlTest, SqlEngineAbsentWithoutFeature) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts;
  opts.features = {"Linux", "B+-Tree"};
  opts.env = env.get();
  opts.path = "db";
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->sql(), nullptr);
}

TEST(SqlTest, ResultSetRendersAsTable) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, v TEXT)");
  h.Exec("INSERT INTO t VALUES (1, 'a')");
  std::string table = h.Exec("SELECT * FROM t").ToTable();
  EXPECT_NE(table.find("K | V"), std::string::npos);
  EXPECT_NE(table.find("1 | 'a'"), std::string::npos);
}

// --------------------------------------------------------- EXPLAIN/PROFILE

TEST(SqlTest, ExplainShowsThePlanWithoutReturningData) {
  SqlHarness h;
  h.Exec("CREATE TABLE emp (id INT, name TEXT, salary INT)");
  h.Exec("INSERT INTO emp VALUES (1, 'ada', 5000), (2, 'bob', 4000)");
  ResultSet rs = h.Exec("EXPLAIN SELECT name FROM emp WHERE id = 1");
  EXPECT_EQ(rs.plan, "point-lookup");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"step", "detail"}));
  // The output is plan steps, never the table's rows.
  ASSERT_FALSE(rs.rows.empty());
  EXPECT_EQ(rs.rows[0][0].AsString(), "access");
  // The tokenizer upper-cases identifiers, so plan details render them so.
  EXPECT_NE(rs.rows[0][1].AsString().find("point-lookup on EMP"),
            std::string::npos);
  EXPECT_NE(rs.rows[0][1].AsString().find("ID ="), std::string::npos);
  bool saw_filter = false, saw_project = false;
  for (const auto& row : rs.rows) {
    if (row[0].AsString() == "filter") saw_filter = true;
    if (row[0].AsString() == "project") {
      saw_project = true;
      EXPECT_EQ(row[1].AsString(), "NAME");
    }
    // No data row ever leaks: every row is a (step, detail) pair.
    ASSERT_EQ(row.size(), 2u);
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_project);
}

TEST(SqlTest, ExplainAccessMethodFollowsTheOptimizer) {
  // EXPLAIN must go through the same chooser execution uses, so the plan
  // it prints is the plan that would run.
  SqlHarness with_opt(true);
  with_opt.Exec("CREATE TABLE t (k INT, v TEXT)");
  with_opt.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  EXPECT_EQ(with_opt.Exec("EXPLAIN SELECT * FROM t WHERE k >= 2").plan,
            "index-range");
  EXPECT_EQ(with_opt.Exec("EXPLAIN SELECT * FROM t WHERE v = 'a'").plan,
            "full-scan");
  // The actual SELECT picks the identical plan.
  EXPECT_EQ(with_opt.Exec("SELECT * FROM t WHERE k >= 2").plan,
            "index-range");

  SqlHarness no_opt(false);
  no_opt.Exec("CREATE TABLE t (k INT, v TEXT)");
  no_opt.Exec("INSERT INTO t VALUES (1, 'a')");
  EXPECT_EQ(no_opt.Exec("EXPLAIN SELECT * FROM t WHERE k >= 1").plan,
            "full-scan");
  EXPECT_EQ(no_opt.Exec("SELECT * FROM t WHERE k >= 1").plan, "full-scan");
}

TEST(SqlTest, ExplainCoversSortLimitAggregateAndPushdown) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT, grp TEXT)");
  h.Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  auto detail = [](const ResultSet& rs,
                   const std::string& step) -> std::string {
    for (const auto& row : rs.rows) {
      if (row[0].AsString() == step) return row[1].AsString();
    }
    return "";
  };
  ResultSet sorted =
      h.Exec("EXPLAIN SELECT * FROM t ORDER BY k DESC LIMIT 2");
  EXPECT_EQ(detail(sorted, "sort"), "ORDER BY K DESC");
  EXPECT_NE(detail(sorted, "limit").find("applied after sort"),
            std::string::npos);
  ResultSet pushed = h.Exec("EXPLAIN SELECT * FROM t LIMIT 5");
  EXPECT_NE(detail(pushed, "limit").find("pushed down into the scan"),
            std::string::npos);
  ResultSet agg = h.Exec("EXPLAIN SELECT COUNT(*), SUM(k) FROM t");
  EXPECT_NE(detail(agg, "aggregate").find("COUNT(*)"), std::string::npos);
  EXPECT_NE(detail(agg, "aggregate").find("SUM(K)"), std::string::npos);
}

TEST(SqlTest, ExplainRejectsWhatExecutionWouldReject) {
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT)");
  // Unknown table / column surface exactly as they would on execution.
  EXPECT_EQ(h.db->sql()->Execute("EXPLAIN SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      h.db->sql()->Execute("EXPLAIN SELECT zzz FROM t").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(h.db->sql()
                ->Execute("EXPLAIN SELECT * FROM t WHERE zzz = 1")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Only SELECT can be explained or profiled.
  EXPECT_EQ(h.db->sql()
                ->Execute("EXPLAIN INSERT INTO t VALUES (1)")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(h.db->sql()->Execute("PROFILE DELETE FROM t").status().code(),
            FAME_OBS_ENABLED ? StatusCode::kParseError
                             : StatusCode::kNotSupported);
}

TEST(SqlTest, ProfileRequiresTheObservabilityFeature) {
  // SqlHarness products do not select Observability, so PROFILE refuses
  // at runtime (and in -DFAME_OBSERVABILITY=OFF builds at compile scope).
  SqlHarness h;
  h.Exec("CREATE TABLE t (k INT)");
  h.Exec("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(h.db->sql()
                  ->Execute("PROFILE SELECT * FROM t")
                  .status()
                  .IsNotSupported());
  // EXPLAIN carries no measurement and works on every SQL product.
  EXPECT_EQ(h.Exec("EXPLAIN SELECT * FROM t").plan, "full-scan");
  EXPECT_EQ(h.Exec("EXPLAIN SELECT * FROM t WHERE k = 1").plan,
            "point-lookup");
}

}  // namespace
}  // namespace fame::core
