// Tests for FameBDB: the C-style engine (full feature build), the FOP
// mixin products, crypto known-answer + round-trip, replication
// convergence, transactions incl. crash recovery, and a C-vs-FOP
// equivalence property (identical op streams -> identical state).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <string>

#include "bdb/c_style.h"
#include "bdb/fop/products.h"
#include "bdb/repbus.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"

namespace fame::bdb {
namespace {

// ------------------------------------------------------------ crypto

TEST(CryptoTest, XteaRegressionVector) {
  // Self-generated regression vector (64 rounds) pinning the on-disk
  // format: if the cipher implementation drifts, existing encrypted
  // databases become unreadable, so this must never change silently.
  const uint32_t key[4] = {0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f};
  uint32_t block[2] = {0x41424344, 0x45464748};
  XteaEncryptBlock(key, block);
  EXPECT_EQ(block[0], 0xfce22584u);
  EXPECT_EQ(block[1], 0x245503efu);
  XteaDecryptBlock(key, block);
  EXPECT_EQ(block[0], 0x41424344u);
  EXPECT_EQ(block[1], 0x45464748u);
}

TEST(CryptoTest, EncryptDecryptRoundTrip) {
  ValueCipher cipher("hunter2");
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    std::string plain(len, 'p');
    for (size_t i = 0; i < len; ++i) plain[i] = static_cast<char>(i * 7);
    std::string enc = cipher.Encrypt(plain);
    EXPECT_GE(enc.size(), plain.size() + 8);  // IV + padding
    auto dec = cipher.Decrypt(enc);
    ASSERT_TRUE(dec.ok()) << len;
    EXPECT_EQ(*dec, plain);
  }
}

TEST(CryptoTest, DistinctIvsPerEncryption) {
  ValueCipher cipher("k");
  std::string a = cipher.Encrypt("same plaintext");
  std::string b = cipher.Encrypt("same plaintext");
  EXPECT_NE(a, b);  // CBC with fresh IV
}

TEST(CryptoTest, WrongKeyFailsPaddingCheck) {
  ValueCipher good("right");
  ValueCipher bad("wrong");
  std::string enc = good.Encrypt("secret data here");
  auto dec = bad.Decrypt(enc);
  // Either detected as corruption or decrypts to garbage != plaintext.
  if (dec.ok()) {
    EXPECT_NE(*dec, "secret data here");
  } else {
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
  }
}

TEST(CryptoTest, TruncatedCiphertextRejected) {
  ValueCipher cipher("k");
  std::string enc = cipher.Encrypt("hello");
  EXPECT_FALSE(cipher.Decrypt(Slice(enc.data(), 10)).ok());
  EXPECT_FALSE(cipher.Decrypt(Slice(enc.data(), enc.size() - 1)).ok());
}

std::string Hex(const std::string& s) {
  static const char kDigits[] = "0123456789abcdef";
  std::string h;
  for (unsigned char c : s) {
    h.push_back(kDigits[c >> 4]);
    h.push_back(kDigits[c & 15]);
  }
  return h;
}

std::string GoldenPlaintext(size_t len) {
  std::string p(len, '\0');
  for (size_t i = 0; i < len; ++i) p[i] = static_cast<char>(i * 131 + 7);
  return p;
}

TEST(CryptoTest, ValueCipherGoldenCiphertext) {
  // Pins the stored value format end to end (IV counter, CBC chaining,
  // padding), not only the block primitive: a drift here makes existing
  // encrypted databases unreadable.
  ValueCipher cipher("fame-golden-passphrase");
  const std::string c0 = cipher.Encrypt(GoldenPlaintext(0));
  const std::string c10 = cipher.Encrypt(GoldenPlaintext(10));
  const std::string c64 = cipher.Encrypt(GoldenPlaintext(64));
  const std::string c1000 = cipher.Encrypt(GoldenPlaintext(1000));
  EXPECT_EQ(Hex(c0), "af500fa167aaac1dcfd1cd1ea6830076");
  EXPECT_EQ(Hex(c10), "b0500fa167aaac1d5d2b6534bee3845a4dfb7a340b900090");
  EXPECT_EQ(Hex(c64),
            "b1500fa167aaac1d42859b03d52f47a08a7f7fcf3d90247d3b8a501553bf5206"
            "8e3805dc855003b8a4b972955b32a9acafe0adab37d320e51de95d4ef56596da"
            "8f4365e7f37f109c90aee88e992c7215");
  ASSERT_EQ(c1000.size(), 1016u);
  EXPECT_EQ(Hex(c1000.substr(0, 24)),
            "b2500fa167aaac1dc4471de6011789dc517da890f6b31671");
  EXPECT_EQ(Hex(c1000.substr(1000)), "358724e2545568d11a955aaafdd356d4");
  EXPECT_EQ(Crc32(c1000.data(), c1000.size()), 0x0476c0deu);

  // The known ciphertexts decrypt back to their plaintexts.
  const std::pair<const std::string*, size_t> known[] = {
      {&c0, 0}, {&c10, 10}, {&c64, 64}, {&c1000, 1000}};
  for (const auto& [enc, len] : known) {
    auto dec = cipher.Decrypt(*enc);
    ASSERT_TRUE(dec.ok()) << len;
    EXPECT_EQ(*dec, GoldenPlaintext(len)) << len;
  }
}

/// The cipher's key, derived as ValueCipher derives it.
std::array<uint32_t, 4> ReferenceKey(const std::string& passphrase) {
  std::array<uint32_t, 4> key{};
  for (uint32_t lane = 0; lane < 4; ++lane) {
    uint32_t h = 2166136261u ^ (0x5bd1e995u * (lane + 1));
    for (int iter = 0; iter < 16; ++iter) {
      for (unsigned char c : passphrase) {
        h ^= c;
        h *= 16777619u;
      }
      h ^= h >> 13;
    }
    key[lane] = h;
  }
  return key;
}

/// CBC decryption one block at a time over XteaDecryptBlock, with the
/// framing and padding checks of the stored value format.
Status ReferenceDecrypt(const std::array<uint32_t, 4>& key, const Slice& c,
                        std::string* out) {
  out->clear();
  if (c.size() < 16 || (c.size() - 8) % 8 != 0) {
    return Status::Corruption("framing");
  }
  const uint64_t iv = DecodeFixed64(c.data());
  uint32_t prev[2] = {static_cast<uint32_t>(iv),
                      static_cast<uint32_t>(iv >> 32)};
  for (size_t off = 8; off < c.size(); off += 8) {
    uint32_t block[2], saved[2];
    std::memcpy(block, c.data() + off, 8);
    std::memcpy(saved, block, 8);
    XteaDecryptBlock(key.data(), block);
    block[0] ^= prev[0];
    block[1] ^= prev[1];
    std::memcpy(prev, saved, 8);
    out->append(reinterpret_cast<const char*>(block), 8);
  }
  const size_t pad = static_cast<unsigned char>(out->back());
  if (pad == 0 || pad > 8) return Status::Corruption("padding");
  for (size_t i = out->size() - pad; i < out->size(); ++i) {
    if (static_cast<unsigned char>((*out)[i]) != pad) {
      return Status::Corruption("padding");
    }
  }
  out->resize(out->size() - pad);
  return Status::OK();
}

TEST(CryptoTest, LaneDecryptMatchesBlockReference) {
  const std::string passphrase = "lanes";
  ValueCipher cipher(passphrase);
  const std::array<uint32_t, 4> key = ReferenceKey(passphrase);
  size_t ok = 0, rejected = 0;
  // Every input goes through both decrypts; the destination always starts
  // out holding longer data than any result.
  auto check = [&](const Slice& c, const char* what, size_t n) {
    std::string want;
    Status want_s = ReferenceDecrypt(key, c, &want);
    std::string got(2048, '#');
    Status got_s = cipher.DecryptInto(c, &got);
    ASSERT_EQ(got_s.code(), want_s.code()) << what << " " << n << ": " << got_s.ToString();
    if (want_s.ok()) {
      ASSERT_EQ(got, want) << what << " " << n;
      ++ok;
    } else {
      ASSERT_EQ(got_s.code(), StatusCode::kCorruption) << what << " " << n;
      ASSERT_TRUE(got.empty()) << what << " " << n;
      ++rejected;
    }
  };

  Random rnd(20240607);
  for (int i = 0; i < 400; ++i) {
    std::string plain(rnd.Uniform(1101), '\0');
    for (char& ch : plain) ch = static_cast<char>(rnd.Next());
    const std::string enc = cipher.Encrypt(plain);
    std::string want;
    ASSERT_TRUE(ReferenceDecrypt(key, enc, &want).ok());
    ASSERT_EQ(want, plain);
    check(enc, "random plaintext of", plain.size());
    // Well-framed random bytes: mostly bad padding, sometimes accepted.
    std::string noise(8 * (2 + rnd.Uniform(20)), '\0');
    for (char& ch : noise) ch = static_cast<char>(rnd.Next());
    check(noise, "random ciphertext of", noise.size());
  }

  // Every prefix: truncations below 16 bytes, every length that is not a
  // multiple of 8, and well-framed prefixes that end mid-value.
  const std::string enc = cipher.Encrypt(GoldenPlaintext(130));
  ASSERT_EQ(enc.size(), 144u);  // IV + 17 blocks: passes of 8, 8 and 1
  for (size_t len = 0; len <= enc.size(); ++len) {
    check(Slice(enc.data(), len), "prefix of", len);
  }
  // Single bit flips in the IV, the body and the padding block.
  for (size_t bit = 0; bit < 8 * enc.size(); ++bit) {
    std::string flipped = enc;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    check(flipped, "bit flip", bit);
  }
  EXPECT_GT(ok, 400u);
  EXPECT_GT(rejected, 400u);
}

// ------------------------------------------------------------ C-style

struct CHarness {
  std::unique_ptr<osal::Env> env = osal::NewMemEnv(0);
  std::unique_ptr<FameBdbC> db;

  explicit CHarness(uint32_t env_flags = DB_CREATE,
                    uint32_t am = DB_BTREE) {
    FameBdbC::Options opts;
    opts.env_flags = env_flags;
    opts.access_method = am;
    opts.passphrase = "pw";
    auto db_or = FameBdbC::Open(env.get(), "db", opts);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    if (db_or.ok()) db = std::move(*db_or);
  }
};

TEST(FameBdbCTest, PutGetDelUpdate) {
  CHarness h;
  ASSERT_TRUE(h.db->put("k1", "v1").ok());
  std::string v;
  ASSERT_TRUE(h.db->get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(h.db->update("k1", "v2").ok());
  ASSERT_TRUE(h.db->get("k1", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(h.db->update("missing", "x").IsNotFound());
  ASSERT_TRUE(h.db->del("k1").ok());
  EXPECT_TRUE(h.db->get("k1", &v).IsNotFound());
  EXPECT_TRUE(h.db->del("k1").IsNotFound());
}

TEST(FameBdbCTest, StatisticsCount) {
  CHarness h;
  ASSERT_TRUE(h.db->put("a", "1").ok());
  ASSERT_TRUE(h.db->put("b", "2").ok());
  std::string v;
  ASSERT_TRUE(h.db->get("a", &v).ok());
  BdbStats stats = h.db->stat();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.gets, 1u);
}

TEST(FameBdbCTest, RangeScanOrdered) {
  CHarness h;
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE(
        h.db->put("key" + std::to_string(i), std::to_string(i)).ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(h.db->range_scan("key3", "key7",
                               [&keys](const Slice& k, const Slice&) {
                                 keys.push_back(k.ToString());
                                 return true;
                               })
                  .ok());
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys.front(), "key3");
  EXPECT_EQ(keys.back(), "key6");
}

TEST(FameBdbCTest, HashAccessMethod) {
  CHarness h(DB_CREATE, DB_HASH);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.db->put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(h.db->get("k42", &v).ok());
  EXPECT_EQ(v, "42");
  // Hash databases refuse range scans.
  EXPECT_TRUE(h.db
                  ->range_scan("a", "z",
                               [](const Slice&, const Slice&) { return true; })
                  .code() == StatusCode::kNotSupported);
}

TEST(FameBdbCTest, QueueAccessMethod) {
  CHarness h(DB_CREATE, DB_QUEUE);
  std::string rec(64, 'q');
  auto recno = h.db->enqueue(rec);
  ASSERT_TRUE(recno.ok());
  EXPECT_EQ(*recno, 0u);
  std::string out;
  ASSERT_TRUE(h.db->dequeue(&out).ok());
  EXPECT_EQ(out, rec);
  // put/get are rejected on queue databases.
  EXPECT_EQ(h.db->put("k", "v").code(), StatusCode::kNotSupported);
}

TEST(FameBdbCTest, CryptoValuesUnreadableInStorage) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.env_flags = DB_CREATE | DB_ENCRYPT;
  opts.passphrase = "sekrit";
  auto db = FameBdbC::Open(env.get(), "db", opts);
  ASSERT_TRUE(db.ok());
  std::string secret = "TOP-SECRET-PAYLOAD-THAT-MUST-NOT-LEAK";
  ASSERT_TRUE((*db)->put("k", secret).ok());
  ASSERT_TRUE((*db)->sync().ok());
  std::string v;
  ASSERT_TRUE((*db)->get("k", &v).ok());
  EXPECT_EQ(v, secret);
  // Raw storage must not contain the plaintext.
  std::string raw;
  ASSERT_TRUE(env->ReadFileToString("db", &raw).ok());
  EXPECT_EQ(raw.find(secret), std::string::npos);
}

TEST(FameBdbCTest, TransactionsCommitAndAbort) {
  CHarness h(DB_CREATE | DB_INIT_TXN);
  auto txn = h.db->txn_begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(h.db->txn_put(*txn, "a", "1").ok());
  ASSERT_TRUE(h.db->txn_put(*txn, "b", "2").ok());
  std::string v;
  EXPECT_TRUE(h.db->get("a", &v).IsNotFound());  // not visible yet
  ASSERT_TRUE(h.db->txn_commit(*txn).ok());
  ASSERT_TRUE(h.db->get("a", &v).ok());
  EXPECT_EQ(v, "1");

  auto txn2 = h.db->txn_begin();
  ASSERT_TRUE(txn2.ok());
  ASSERT_TRUE(h.db->txn_del(*txn2, "a").ok());
  ASSERT_TRUE(h.db->txn_abort(*txn2).ok());
  ASSERT_TRUE(h.db->get("a", &v).ok());  // abort kept it
}

TEST(FameBdbCTest, CrashRecoveryReplaysCommitted) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.env_flags = DB_CREATE | DB_INIT_TXN;
  {
    auto db = FameBdbC::Open(env.get(), "db", opts);
    ASSERT_TRUE(db.ok());
    auto t = (*db)->txn_begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*db)->txn_put(*t, "durable", "yes").ok());
    ASSERT_TRUE((*db)->txn_commit(*t).ok());
    auto t2 = (*db)->txn_begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE((*db)->txn_put(*t2, "zombie", "no").ok());
    // Crash: engine dropped. The committed txn's pages were never
    // checkpointed, but the WAL survives in env.
  }
  // Wipe the data file to prove recovery rebuilds from the log alone.
  ASSERT_TRUE(env->DeleteFile("db").ok());
  auto db = FameBdbC::Open(env.get(), "db", opts);
  ASSERT_TRUE(db.ok());
  std::string v;
  ASSERT_TRUE((*db)->get("durable", &v).ok());
  EXPECT_EQ(v, "yes");
  EXPECT_TRUE((*db)->get("zombie", &v).IsNotFound());
}

// Engine-level crash-injection property: truncate the WAL at many byte
// boundaries after a committed history and recover a fresh engine from the
// surviving prefix — the recovered store must equal the state after some
// prefix of the committed transactions, never a torn mixture.
TEST(FameBdbCTest, EveryWalPrefixRecoversACommittedPrefix) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.env_flags = DB_CREATE | DB_INIT_TXN;
  std::vector<std::map<std::string, std::string>> states;
  states.emplace_back();  // zero commits
  {
    auto db = FameBdbC::Open(env.get(), "db", opts);
    ASSERT_TRUE(db.ok());
    Random rng(55);
    std::map<std::string, std::string> shadow;
    for (int t = 0; t < 8; ++t) {
      auto txn = (*db)->txn_begin();
      ASSERT_TRUE(txn.ok());
      for (int o = 0; o < 3; ++o) {
        std::string key = "k" + std::to_string(rng.Uniform(5));
        if (rng.OneIn(4) && shadow.count(key) > 0) {
          ASSERT_TRUE((*db)->txn_del(*txn, key).ok());
          shadow.erase(key);
        } else {
          std::string value = rng.NextString(6);
          ASSERT_TRUE((*db)->txn_put(*txn, key, value).ok());
          shadow[key] = value;
        }
      }
      ASSERT_TRUE((*db)->txn_commit(*txn).ok());
      states.push_back(shadow);
    }
    // crash without checkpoint: only the WAL survives
  }
  std::string wal;
  ASSERT_TRUE(env->ReadFileToString("db.wal", &wal).ok());
  ASSERT_FALSE(wal.empty());

  for (size_t cut = 0; cut <= wal.size(); cut += 11) {
    auto env2 = osal::NewMemEnv(0);
    ASSERT_TRUE(env2->WriteStringToFile("db.wal", wal.substr(0, cut)).ok());
    auto db = FameBdbC::Open(env2.get(), "db", opts);
    ASSERT_TRUE(db.ok()) << "cut " << cut;
    std::map<std::string, std::string> recovered;
    ASSERT_TRUE((*db)->cursor([&](const Slice& k, const Slice& v) {
      recovered[k.ToString()] = v.ToString();
      return true;
    }).ok());
    bool matched = false;
    for (const auto& state : states) {
      if (recovered == state) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "cut at " << cut
                         << " is not any committed prefix";
  }
}

TEST(FameBdbCTest, ReplicationConvergence) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options master_opts;
  master_opts.env_flags = DB_CREATE | DB_INIT_REP;
  auto master = FameBdbC::Open(env.get(), "master", master_opts);
  ASSERT_TRUE(master.ok());
  FameBdbC::Options replica_opts;
  auto replica1 = FameBdbC::Open(env.get(), "rep1", replica_opts);
  auto replica2 = FameBdbC::Open(env.get(), "rep2", replica_opts);
  ASSERT_TRUE(replica1.ok());
  ASSERT_TRUE(replica2.ok());
  ASSERT_TRUE((*master)->rep_subscribe(replica1->get()).ok());
  ASSERT_TRUE((*master)->rep_subscribe(replica2->get()).ok());

  Random rng(3);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 200; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(40));
    if (rng.OneIn(4) && oracle.count(key) > 0) {
      ASSERT_TRUE((*master)->del(key).ok());
      oracle.erase(key);
    } else {
      std::string value = rng.NextString(12);
      ASSERT_TRUE((*master)->put(key, value).ok());
      oracle[key] = value;
    }
  }
  for (auto* rep : {replica1->get(), replica2->get()}) {
    for (const auto& [k, v] : oracle) {
      std::string got;
      ASSERT_TRUE(rep->get(k, &got).ok()) << k;
      EXPECT_EQ(got, v);
    }
    uint64_t count = 0;
    ASSERT_TRUE(rep->cursor([&count](const Slice&, const Slice&) {
      ++count;
      return true;
    }).ok());
    EXPECT_EQ(count, oracle.size());
  }
}

TEST(FameBdbCTest, VerifyDetectsCleanDatabase) {
  CHarness h;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.db->put("k" + std::to_string(i), "v").ok());
  }
  EXPECT_TRUE(h.db->verify().ok());
}

TEST(FameBdbCTest, PersistsAcrossReopen) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  {
    auto db = FameBdbC::Open(env.get(), "db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->put("k", "v").ok());
    ASSERT_TRUE((*db)->sync().ok());
  }
  auto db = FameBdbC::Open(env.get(), "db", opts);
  ASSERT_TRUE(db.ok());
  std::string v;
  ASSERT_TRUE((*db)->get("k", &v).ok());
  EXPECT_EQ(v, "v");
}

// ------------------------------------------------------------ FOP

TEST(FopProductTest, MinimalBtree) {
  auto env = osal::NewMemEnv(0);
  fop::FopMinimalBtree db;
  ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "v");
  ASSERT_TRUE(db.RangeScan("a", "z", [](const Slice&, const Slice&) {
    return true;
  }).ok());
  ASSERT_TRUE(db.Del("k").ok());
  EXPECT_TRUE(db.Get("k", &v).IsNotFound());
}

TEST(FopProductTest, MinimalListHasNoRangeScan) {
  auto env = osal::NewMemEnv(0);
  fop::FopMinimalList db;
  ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  // db.RangeScan(...) would be a *compile-time* error (static_assert):
  static_assert(!fop::FopMinimalList::kOrdered);
}

TEST(FopProductTest, CompleteProductExercisesEveryLayer) {
  auto env = osal::NewMemEnv(0);
  fop::FopComplete db;
  ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
  db.SetPassphrase("pw");
  ASSERT_TRUE(db.EnableQueue(32).ok());
  ASSERT_TRUE(db.EnableHashStore().ok());
  ASSERT_TRUE(db.EnableTransactions().ok());

  // KV through every layer (stats count, crypto encrypts, replication has
  // no subscribers yet).
  ASSERT_TRUE(db.Put("k", "v").ok());
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "v");
  EXPECT_EQ(db.puts(), 1u);
  EXPECT_EQ(db.replicated(), 1u);

  // Queue feature.
  ASSERT_TRUE(db.Enqueue(std::string(32, 'x')).ok());
  std::string rec;
  ASSERT_TRUE(db.Dequeue(&rec).ok());

  // Hash store feature.
  ASSERT_TRUE(db.HashPut("hk", "hv").ok());
  std::string hv;
  ASSERT_TRUE(db.HashGet("hk", &hv).ok());
  EXPECT_EQ(hv, "hv");
  ASSERT_TRUE(db.HashDel("hk").ok());

  // Transactions on top of the full stack.
  auto txn = db.TxnBegin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db.TxnPut(*txn, "tk", "tv").ok());
  ASSERT_TRUE(db.TxnCommit(*txn).ok());
  ASSERT_TRUE(db.Get("tk", &v).ok());
  EXPECT_EQ(v, "tv");
}

TEST(FopProductTest, CryptoLayerEncryptsAtRest) {
  auto env = osal::NewMemEnv(0);
  {
    fop::FopNoQueue db;  // has crypto
    ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
    db.SetPassphrase("pw");
    ASSERT_TRUE(db.EnableHashStore().ok());
    ASSERT_TRUE(db.EnableTransactions().ok());
    ASSERT_TRUE(db.Put("k", "VERY-SECRET-VALUE").ok());
    ASSERT_TRUE(db.Sync().ok());
  }
  std::string raw;
  ASSERT_TRUE(env->ReadFileToString("db", &raw).ok());
  EXPECT_EQ(raw.find("VERY-SECRET-VALUE"), std::string::npos);
}

TEST(FopProductTest, ReplicationLayerShipsToSubscribedMinimalProduct) {
  auto env = osal::NewMemEnv(0);
  fop::FopNoCrypto master;  // replication without crypto (plaintext ship)
  ASSERT_TRUE(master.Open(env.get(), "m", BundleOptions{}).ok());
  ASSERT_TRUE(master.EnableQueue(32).ok());
  ASSERT_TRUE(master.EnableHashStore().ok());
  ASSERT_TRUE(master.EnableTransactions().ok());

  fop::FopMinimalBtree replica;
  ASSERT_TRUE(replica.Open(env.get(), "r", BundleOptions{}).ok());
  master.Subscribe(&replica);

  ASSERT_TRUE(master.Put("a", "1").ok());
  ASSERT_TRUE(master.Put("b", "2").ok());
  ASSERT_TRUE(master.Del("a").ok());
  std::string v;
  ASSERT_TRUE(replica.Get("b", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(replica.Get("a", &v).IsNotFound());
}

TEST(FopProductTest, TxLayerCrashRecovery) {
  auto env = osal::NewMemEnv(0);
  {
    fop::FopMinimalBtree inner_unused;  // silence unused-type warnings
    (void)inner_unused;
    fop::TxLayer<fop::BdbCore<fop::BtreeIndexTag>> db;
    ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
    ASSERT_TRUE(db.EnableTransactions().ok());
    auto t = db.TxnBegin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.TxnPut(*t, "k", "v").ok());
    ASSERT_TRUE(db.TxnCommit(*t).ok());
    // crash without checkpoint
  }
  ASSERT_TRUE(env->DeleteFile("db").ok());
  fop::TxLayer<fop::BdbCore<fop::BtreeIndexTag>> db;
  ASSERT_TRUE(db.Open(env.get(), "db", BundleOptions{}).ok());
  ASSERT_TRUE(db.EnableTransactions().ok());
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "v");
}

// Compile-time product surfaces: with static (FOP) composition, a feature
// that is not selected is not merely disabled — its API does not exist on
// the product type. These concept checks fail the *build* if a layer leaks
// into a product that did not select it (the strongest form of the paper's
// "only and exactly the functionality required").
template <typename P>
concept ProductHasCrypto = requires(P p) { p.SetPassphrase(""); };
template <typename P>
concept ProductHasQueue = requires(P p) { p.EnableQueue(32u); };
template <typename P>
concept ProductHasHash = requires(P p) { p.EnableHashStore(); };
template <typename P>
concept ProductHasTx = requires(P p) { p.EnableTransactions(); };
template <typename P>
concept ProductHasStats = requires(P p) { p.puts(); };
template <typename P>
concept ProductHasReplication = requires(P p) { p.replicated(); };

static_assert(ProductHasCrypto<fop::FopComplete>);
static_assert(ProductHasQueue<fop::FopComplete>);
static_assert(ProductHasHash<fop::FopComplete>);
static_assert(ProductHasTx<fop::FopComplete>);
static_assert(ProductHasStats<fop::FopComplete>);
static_assert(ProductHasReplication<fop::FopComplete>);

static_assert(!ProductHasCrypto<fop::FopNoCrypto>);      // cfg 2
static_assert(!ProductHasHash<fop::FopNoHash>);          // cfg 3
static_assert(!ProductHasReplication<fop::FopNoReplication>);  // cfg 4
static_assert(!ProductHasQueue<fop::FopNoQueue>);        // cfg 5

static_assert(!ProductHasCrypto<fop::FopMinimalBtree>);  // cfg 7: nothing
static_assert(!ProductHasQueue<fop::FopMinimalBtree>);
static_assert(!ProductHasHash<fop::FopMinimalBtree>);
static_assert(!ProductHasTx<fop::FopMinimalBtree>);
static_assert(!ProductHasStats<fop::FopMinimalBtree>);
static_assert(!ProductHasReplication<fop::FopMinimalBtree>);
static_assert(fop::FopMinimalBtree::kOrdered);
static_assert(!fop::FopMinimalList::kOrdered);           // cfg 8

TEST(FopProductTest, ProductSurfacesAreExact) {
  // The static_asserts above are the real test; this records them in the
  // runner output.
  SUCCEED();
}

TEST(FameBdbCTest, CryptoOverHashAccessMethod) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.env_flags = DB_CREATE | DB_ENCRYPT;
  opts.access_method = DB_HASH;
  opts.passphrase = "pw";
  auto db = FameBdbC::Open(env.get(), "db", opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("k", "hash+crypto").ok());
  ASSERT_TRUE((*db)->sync().ok());
  std::string v;
  ASSERT_TRUE((*db)->get("k", &v).ok());
  EXPECT_EQ(v, "hash+crypto");
  std::string raw;
  ASSERT_TRUE(env->ReadFileToString("db", &raw).ok());
  EXPECT_EQ(raw.find("hash+crypto"), std::string::npos);
}

TEST(FameBdbCTest, QueuePersistsAcrossReopen) {
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.access_method = DB_QUEUE;
  opts.queue_record_size = 16;
  {
    auto db = FameBdbC::Open(env.get(), "db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->enqueue(std::string(16, 'a')).ok());
    ASSERT_TRUE((*db)->enqueue(std::string(16, 'b')).ok());
    ASSERT_TRUE((*db)->sync().ok());
  }
  auto db = FameBdbC::Open(env.get(), "db", opts);
  ASSERT_TRUE(db.ok());
  std::string out;
  ASSERT_TRUE((*db)->dequeue(&out).ok());
  EXPECT_EQ(out, std::string(16, 'a'));
}

TEST(FameBdbCTest, ReplicationDoesNotCascade) {
  // Replication is single-master fan-out: a replica applies shipped writes
  // *without* republishing them (loop prevention), so a downstream
  // subscriber of the relay sees only the relay's own writes.
  auto env = osal::NewMemEnv(0);
  FameBdbC::Options rep_opts;
  rep_opts.env_flags = DB_CREATE | DB_INIT_REP;
  auto master = FameBdbC::Open(env.get(), "m", rep_opts);
  auto relay = FameBdbC::Open(env.get(), "r", rep_opts);
  FameBdbC::Options leaf_opts;
  auto leaf = FameBdbC::Open(env.get(), "l", leaf_opts);
  ASSERT_TRUE(master.ok());
  ASSERT_TRUE(relay.ok());
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE((*master)->rep_subscribe(relay->get()).ok());
  ASSERT_TRUE((*relay)->rep_subscribe(leaf->get()).ok());
  ASSERT_TRUE((*master)->put("cfg", "v1").ok());
  std::string v;
  ASSERT_TRUE((*relay)->get("cfg", &v).ok());      // relay applied it
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE((*leaf)->get("cfg", &v).IsNotFound());  // no cascade
  // The relay's *own* writes do replicate downstream.
  ASSERT_TRUE((*relay)->put("own", "x").ok());
  ASSERT_TRUE((*leaf)->get("own", &v).ok());
  EXPECT_EQ(v, "x");
}

TEST(FameBdbCTest, ReplicationBusRefusesToDeliverOverAGap) {
  // A subscriber that missed a message (its delivery failed while the
  // publish counter advanced) must not silently receive the rest of the
  // stream with a hole in it: the bus reports DataLoss until the replica
  // re-syncs out of band (a fresh subscription).
  ReplicationBus bus;
  std::vector<uint64_t> healthy_seen;
  bus.Subscribe([&healthy_seen](const RepMessage& m) {
    healthy_seen.push_back(m.seqno);
    return Status::OK();
  });
  bool fail_once = false;
  std::vector<uint64_t> flaky_seen;
  bus.Subscribe([&](const RepMessage& m) {
    if (fail_once) {
      fail_once = false;
      return Status::IOError("replica link down");
    }
    flaky_seen.push_back(m.seqno);
    return Status::OK();
  });

  RepMessage m;
  m.kind = RepMessage::kPut;
  m.key = "k";
  m.value = "v";
  ASSERT_TRUE(bus.Publish(m).ok());

  // Delivery fails on the flaky replica; the publish counter has already
  // advanced, so its stream now has a hole.
  fail_once = true;
  Status failed = bus.Publish(m);
  EXPECT_EQ(failed.code(), StatusCode::kIOError) << failed.ToString();

  Status gap = bus.Publish(m);
  EXPECT_TRUE(gap.IsDataLoss()) << gap.ToString();
  EXPECT_NE(gap.ToString().find("gap"), std::string::npos);

  // The healthy replica saw everything up to the failure and nothing after
  // it leaked past the gap refusal.
  EXPECT_EQ(healthy_seen.size(), 3u);
  EXPECT_EQ(flaky_seen.size(), 1u);

  // Out-of-band re-sync: a fresh subscription starts at the current
  // counter and is owed nothing from before it joined.
  std::vector<uint64_t> resynced_seen;
  bus.Subscribe([&resynced_seen](const RepMessage& m2) {
    resynced_seen.push_back(m2.seqno);
    return Status::OK();
  });
  // The stale subscription still poisons the bus for everyone — that is
  // the deliberate fail-loud contract (matches a real rep group needing
  // operator intervention); verify the new joiner's bookkeeping instead.
  EXPECT_TRUE(bus.Publish(m).IsDataLoss());
  EXPECT_EQ(resynced_seen.size(), 0u);
}

// C-style and FOP engines fed the same operation stream must end in the
// same state — the paper's behaviour-preservation claim (§2.2 (1)).
TEST(EquivalenceTest, CStyleAndFopAgreeUnderRandomOps) {
  auto env = osal::NewMemEnv(0);
  CHarness c_side;
  fop::FopMinimalBtree fop_side;
  ASSERT_TRUE(fop_side.Open(env.get(), "fop", BundleOptions{}).ok());

  Random rng(77);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(100));
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0 || oracle.empty()) {
      std::string value = rng.NextString(1 + rng.Uniform(30));
      ASSERT_TRUE(c_side.db->put(key, value).ok());
      ASSERT_TRUE(fop_side.Put(key, value).ok());
      oracle[key] = value;
    } else if (op == 1) {
      Status s1 = c_side.db->del(key);
      Status s2 = fop_side.Del(key);
      EXPECT_EQ(s1.code(), s2.code());
      oracle.erase(key);
    } else {
      std::string v1, v2;
      Status s1 = c_side.db->get(key, &v1);
      Status s2 = fop_side.Get(key, &v2);
      ASSERT_EQ(s1.code(), s2.code());
      if (s1.ok()) {
        EXPECT_EQ(v1, v2);
        EXPECT_EQ(v1, oracle.at(key));
      }
    }
  }
  // Full scans agree, in order (both use the B+-tree).
  std::vector<std::pair<std::string, std::string>> c_all, fop_all;
  ASSERT_TRUE(c_side.db->cursor([&](const Slice& k, const Slice& v) {
    c_all.emplace_back(k.ToString(), v.ToString());
    return true;
  }).ok());
  ASSERT_TRUE(fop_side.Scan([&](const Slice& k, const Slice& v) {
    fop_all.emplace_back(k.ToString(), v.ToString());
    return true;
  }).ok());
  EXPECT_EQ(c_all, fop_all);
  EXPECT_EQ(c_all.size(), oracle.size());
}

TEST(FeatureStripTest, StrippedBuildRejectsUnavailableFeatures) {
  // The full test binary compiles with every macro on, so exercise the
  // runtime-flag rejections instead: a btree database refuses queue ops.
  CHarness h;
  EXPECT_EQ(h.db->enqueue(std::string(64, 'x')).status().code(),
            StatusCode::kNotSupported);
  std::string out;
  EXPECT_EQ(h.db->dequeue(&out).code(), StatusCode::kNotSupported);
  // And an environment without DB_INIT_TXN refuses transactions.
  EXPECT_EQ(h.db->txn_begin().status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(h.db->txn_checkpoint().code(), StatusCode::kNotSupported);
  // And without DB_INIT_REP refuses replication.
  CHarness other;
  EXPECT_EQ(h.db->rep_subscribe(other.db.get()).code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace fame::bdb
