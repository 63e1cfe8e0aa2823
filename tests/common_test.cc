// Unit tests for the common runtime: Status/StatusOr, Slice, coding, CRC32,
// string utilities, deterministic Random. The CRC32 golden tests also pin
// the checksums that the storage and log layers write to disk.
#include <gtest/gtest.h>

#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/stringutil.h"
#include "osal/env.h"
#include "storage/page.h"
#include "storage/pagefile.h"
#include "tx/wal.h"
#include "tx/wal_segments.h"

namespace fame {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Busy("x"), Status::Busy("x"));
  EXPECT_FALSE(Status::Busy("x") == Status::Busy("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::IOError("disk gone"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIOError);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseMacros(int x, int* out) {
  FAME_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseMacros(-1, &out).IsInvalidArgument());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Comparison) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc") == Slice(std::string("abc")));
  EXPECT_TRUE(Slice("abc") != Slice("abx"));
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("feature_model").starts_with("feature"));
  EXPECT_FALSE(Slice("fea").starts_with("feature"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  EXPECT_EQ(buf.size(), 14u);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xbeef);
  EXPECT_EQ(DecodeFixed32(buf.data() + 2), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 6), 0x0123456789abcdefull);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                             0xffffffffull, 0xffffffffffffffffull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Boundaries) {
  for (uint32_t v : {0u, 0x7fu, 0x80u, 0x3fffu, 0x4000u, 0xffffffffu}) {
    std::string buf;
    PutVarint32(&buf, v);
    Slice in(buf);
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, MalformedVarintRejected) {
  std::string buf(11, '\xff');  // continuation bit forever
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("payload"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &a));  // exhausted
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  const char* data = "feature oriented programming";
  uint32_t whole = Crc32(data, 28);
  uint32_t part = Crc32(data, 10);
  EXPECT_EQ(Crc32Extend(part, data + 10, 18), whole);
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32("abc", 3);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

// The CRC-32 definition, one bit at a time: the oracle for both the
// dispatched and the portable implementation.
uint32_t ReferenceCrc32Extend(uint32_t crc, const unsigned char* p,
                              size_t n) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.Next() >> 56);
  return out;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4200;
  std::vector<unsigned char> buf = RandomBytes(kMaxLen + 16, 11);
  size_t mismatches = 0;
  for (size_t off = 0; off < 16; ++off) {
    const unsigned char* p = buf.data() + off;
    uint32_t want = 0;  // reference CRC of p[0, len), grown a byte at a time
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) want = ReferenceCrc32Extend(want, p + len - 1, 1);
      uint32_t dispatched = Crc32(p, len);
      uint32_t portable = internal::Crc32ExtendPortable(0, p, len);
      if (dispatched != want || portable != want) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "offset " << off << " length " << len << ": want "
                        << want << " dispatched " << dispatched
                        << " portable " << portable;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Crc32Test, ExtendAtEverySplitOfAPage) {
  std::vector<unsigned char> page = RandomBytes(4096, 12);
  const uint32_t whole = ReferenceCrc32Extend(0, page.data(), page.size());
  size_t mismatches = 0;
  for (size_t split = 0; split <= page.size(); ++split) {
    const unsigned char* rest = page.data() + split;
    const size_t rest_len = page.size() - split;
    uint32_t dispatched =
        Crc32Extend(Crc32(page.data(), split), rest, rest_len);
    uint32_t portable = internal::Crc32ExtendPortable(
        internal::Crc32ExtendPortable(0, page.data(), split), rest, rest_len);
    if (dispatched != whole || portable != whole) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "split " << split << ": want " << whole
                      << " dispatched " << dispatched << " portable "
                      << portable;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// On-disk golden values. Each constant is a stored (masked) checksum that
// the byte-at-a-time CRC wrote for a deterministic input; a faster CRC must
// reproduce them exactly, or files written by older builds stop opening.

TEST(Crc32GoldenTest, SealedPage) {
  std::vector<char> buf(4096, 0);
  storage::Page page(buf.data(), buf.size());
  page.Init(storage::PageType::kHeap);
  page.set_lsn(0x1122334455667788ull);
  page.set_next_page(77);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(page.Insert("golden-record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(page.Delete(3).ok());
  page.SealChecksum();
  EXPECT_EQ(DecodeFixed32(buf.data() + 24), 0x5bbc12bbu);
  EXPECT_TRUE(page.VerifyChecksum().ok());
}

TEST(Crc32GoldenTest, WalFrames) {
  auto env = osal::NewMemEnv(0);
  auto log = tx::LogManager::Open(env.get(), "wal");
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(
      (*log)->Append(tx::LogRecord::Put(1, "core", "key-1", "value-1")).ok());
  ASSERT_TRUE((*log)->Append(tx::LogRecord::Commit(1)).ok());
  ASSERT_TRUE((*log)->Flush().ok());
  std::string wal;
  ASSERT_TRUE(env->ReadFileToString("wal", &wal).ok());
  // Frame: [u32 masked CRC][u16 len][len bytes of type + payload].
  ASSERT_GE(wal.size(), 6u);
  const size_t second = 6 + DecodeFixed16(wal.data() + 4);
  ASSERT_GE(wal.size(), second + 6);
  EXPECT_EQ(DecodeFixed32(wal.data()), 0x0d1efa78u);
  EXPECT_EQ(DecodeFixed32(wal.data() + second), 0x8c0899a6u);
}

TEST(Crc32GoldenTest, WalSegmentHeader) {
  std::string h = tx::seg::EncodeSegmentHeader(0x1000, 7, 3);
  EXPECT_EQ(DecodeFixed32(h.data() + 24), 0x73905dfeu);
}

TEST(Crc32GoldenTest, PageFileMetaSlots) {
  auto env = osal::NewMemEnv(0);
  storage::PageFileOptions opts;
  {
    auto pf = storage::PageFile::Open(env.get(), "db", opts);
    ASSERT_TRUE(pf.ok());
    auto id = (*pf)->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*pf)->SetRoot("core", *id, 42).ok());
    ASSERT_TRUE((*pf)->Close().ok());
  }
  std::string file;
  ASSERT_TRUE(env->ReadFileToString("db", &file).ok());
  // Meta slots sit at the start of pages 0 and 1; each is 292 bytes and
  // ends in its masked CRC.
  ASSERT_GE(file.size(), 2 * opts.page_size);
  EXPECT_EQ(DecodeFixed32(file.data() + 288), 0x89701a63u);
  EXPECT_EQ(DecodeFixed32(file.data() + opts.page_size + 288), 0xf25d6006u);
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("TxManager"), "txmanager");
  EXPECT_TRUE(StartsWith("btree:orders", "btree:"));
  EXPECT_TRUE(EndsWith("model.fm", ".fm"));
  EXPECT_FALSE(EndsWith("fm", "model.fm"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("cfg%d=%s", 3, "lru"), "cfg3=lru");
  EXPECT_EQ(StringPrintf("%.1f KB", 483.5), "483.5 KB");
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Uniform(10), 10u);
}

TEST(RandomTest, StringsHaveRequestedLength) {
  Random r(7);
  EXPECT_EQ(r.NextString(16).size(), 16u);
  EXPECT_EQ(r.NextString(0).size(), 0u);
}

}  // namespace
}  // namespace fame
