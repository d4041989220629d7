#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace ssjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(VarintTest, RoundTrips32) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, 1u << 20,
                     0xFFFFFFFFu}) {
    std::string buf;
    PutVarint32(&buf, v);
    EXPECT_EQ(buf.size(), Varint32Size(v));
    size_t offset = 0;
    uint32_t decoded = 0;
    ASSERT_TRUE(GetVarint32(buf, &offset, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(VarintTest, RoundTrips64) {
  for (uint64_t v :
       {uint64_t{0}, uint64_t{127}, uint64_t{128}, uint64_t{1} << 35,
        ~uint64_t{0}}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t offset = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf, &offset, &decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(VarintTest, RejectsTruncatedInput) {
  std::string buf;
  PutVarint32(&buf, 300000);
  buf.pop_back();
  size_t offset = 0;
  uint32_t decoded = 0;
  EXPECT_FALSE(GetVarint32(buf, &offset, &decoded));
}

TEST(VarintTest, RejectsOverlongEncoding) {
  std::string buf(6, static_cast<char>(0x80));  // 6 continuation bytes
  size_t offset = 0;
  uint32_t decoded = 0;
  EXPECT_FALSE(GetVarint32(buf, &offset, &decoded));
}

TEST(VarintTest, Rejects32BitOverflowInFinalByte) {
  // Five bytes whose last payload exceeds the 4 bits that remain at
  // shift 28: accepting it would silently wrap the shifted value.
  std::string buf = {'\x80', '\x80', '\x80', '\x80', '\x7F'};
  size_t offset = 0;
  uint32_t decoded = 0;
  EXPECT_FALSE(GetVarint32(buf, &offset, &decoded));

  // The largest canonical final byte (0x0F -> value 0xFFFFFFFF) decodes.
  std::string max = {'\xFF', '\xFF', '\xFF', '\xFF', '\x0F'};
  offset = 0;
  ASSERT_TRUE(GetVarint32(max, &offset, &decoded));
  EXPECT_EQ(decoded, 0xFFFFFFFFu);

  // One payload bit more does not.
  std::string over = {'\xFF', '\xFF', '\xFF', '\xFF', '\x10'};
  offset = 0;
  EXPECT_FALSE(GetVarint32(over, &offset, &decoded));
}

TEST(VarintTest, Rejects64BitOverflowInFinalByte) {
  // Ten bytes with more than the single bit that remains at shift 63.
  std::string buf(9, static_cast<char>(0xFF));
  buf.push_back('\x7F');
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buf, &offset, &decoded));

  // The canonical encoding of ~0 (final byte 0x01) still decodes.
  std::string max(9, static_cast<char>(0xFF));
  max.push_back('\x01');
  offset = 0;
  ASSERT_TRUE(GetVarint64(max, &offset, &decoded));
  EXPECT_EQ(decoded, ~uint64_t{0});
}

TEST(VarintTest, RejectsNonCanonicalZeroTail) {
  // {0x80, 0x00} is an overlong encoding of 0; PutVarint never emits a
  // zero byte after a continuation byte.
  std::string buf = {'\x80', '\x00'};
  size_t offset = 0;
  uint32_t decoded32 = 0;
  EXPECT_FALSE(GetVarint32(buf, &offset, &decoded32));
  offset = 0;
  uint64_t decoded64 = 0;
  EXPECT_FALSE(GetVarint64(buf, &offset, &decoded64));
}

TEST(VarintTest, RejectsTruncated64BitInput) {
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 40);
  buf.pop_back();
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buf, &offset, &decoded));
}

TEST(VarintTest, DeltaListRoundTrip) {
  std::vector<uint32_t> ids = {0, 0, 3, 3, 10, 500000, 500001};
  std::string encoded = EncodeDeltaList(ids);
  std::vector<uint32_t> decoded;
  ASSERT_TRUE(DecodeDeltaList(encoded, &decoded));
  EXPECT_EQ(decoded, ids);
}

TEST(VarintTest, DeltaListRejectsOversizedCount) {
  // A header claiming far more deltas than there are bytes left must be
  // rejected up front, not after reserving a huge vector.
  std::string encoded;
  PutVarint32(&encoded, 0xFFFFFFFFu);
  encoded.push_back('\x01');
  std::vector<uint32_t> decoded;
  EXPECT_FALSE(DecodeDeltaList(encoded, &decoded));
}

TEST(VarintTest, DeltaListRejectsTrailingGarbage) {
  std::string encoded = EncodeDeltaList({1, 2, 3});
  encoded.push_back('\0');
  std::vector<uint32_t> decoded;
  EXPECT_FALSE(DecodeDeltaList(encoded, &decoded));
}

TEST(VarintTest, RandomDeltaListsRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> ids;
    uint32_t v = 0;
    int n = rng.UniformInt(0, 200);
    for (int i = 0; i < n; ++i) {
      v += rng.UniformU32(1000);
      ids.push_back(v);
    }
    std::vector<uint32_t> decoded;
    ASSERT_TRUE(DecodeDeltaList(EncodeDeltaList(ids), &decoded));
    EXPECT_EQ(decoded, ids);
  }
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU32(17), 17u);
    int v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.UniformU32(8)];
  for (int c : counts) EXPECT_GT(c, 700);  // ~1000 expected each
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(5);
  ZipfTable zipf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
}

TEST(ZipfTest, ZeroExponentIsUniformish) {
  Rng rng(6);
  ZipfTable zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(StringUtilTest, FormatDoubleExactRoundTrips) {
  EXPECT_EQ(FormatDoubleExact(0.7), "0.7");
  EXPECT_EQ(FormatDoubleExact(2.0), "2");
  for (double value : {0.5, 0.1 + 0.2, 1.0 / 3.0, 1e-300, 12345.678}) {
    EXPECT_EQ(std::strtod(FormatDoubleExact(value).c_str(), nullptr), value)
        << FormatDoubleExact(value);
  }
  EXPECT_NE(FormatDoubleExact(0.1 + 0.2), FormatDoubleExact(0.3));
}

std::string TempPath(const std::string& name) {
  return testing_util::ProcessTempDir() + "/" + name;
}

TEST(FileIoTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  // A chained seed continues the running checksum.
  const uint32_t head = Crc32(check.data(), 4);
  EXPECT_EQ(Crc32(check.data() + 4, check.size() - 4, head), 0xCBF43926u);
  EXPECT_EQ(Crc32(check.data(), 0), 0u);
}

TEST(FileIoTest, FailedAtomicWriteLeavesPreviousFile) {
  const std::string path = TempPath("atomic.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());

  // Force the rewrite to fail: a directory squats on the tmp path, so
  // the open of `<path>.tmp` errors out. The previous file must be
  // untouched — the point of tmp-then-rename over truncating `path`.
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  EXPECT_FALSE(WriteFileAtomic(path, "second, longer").ok());
  ASSERT_EQ(::rmdir((path + ".tmp").c_str()), 0);

  Result<std::string> survivor = ReadFileToString(path);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor.value(), "first");

  ASSERT_TRUE(WriteFileAtomic(path, "second, longer").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "second, longer");
}

TEST(FileIoTest, ErrorsCarryErrnoContext) {
  // Operators need to tell ENOSPC from EACCES from ENOENT: I/O statuses
  // must embed strerror(errno), not just the path.
  Result<std::string> missing = ReadFileToString(TempPath("enoent.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  EXPECT_NE(missing.status().message().find(std::strerror(ENOENT)),
            std::string::npos)
      << missing.status().ToString();

  const std::string blocked = TempPath("blocked.bin");
  ASSERT_EQ(::mkdir((blocked + ".tmp").c_str(), 0755), 0);
  Status write = WriteFileAtomic(blocked, "bytes");
  ASSERT_FALSE(write.ok());
  // open(O_WRONLY) on a directory fails EISDIR on Linux.
  EXPECT_NE(write.message().find(std::strerror(EISDIR)), std::string::npos)
      << write.ToString();
  ASSERT_EQ(::rmdir((blocked + ".tmp").c_str()), 0);
}

}  // namespace
}  // namespace ssjoin
