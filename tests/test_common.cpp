// Unit tests for src/common: status, byte codecs, RNG, memory accounting,
// filesystem helpers, table formatting.
#include <gtest/gtest.h>

#include <thread>

#include "common/bytes.h"
#include "common/fsutil.h"
#include "common/memtrack.h"
#include "common/race_report.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/timer.h"

namespace sword {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::Io("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_EQ(s.ToString(), "io-error: disk full");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNotFound);
}

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);

  ByteReader r(w.buffer());
  uint8_t a = 0;
  uint16_t b = 0;
  uint32_t c = 0;
  uint64_t d = 0;
  ASSERT_TRUE(r.GetU8(&a).ok());
  ASSERT_TRUE(r.GetU16(&b).ok());
  ASSERT_TRUE(r.GetU32(&c).ok());
  ASSERT_TRUE(r.GetU64(&d).ok());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, VarintRoundTripExhaustiveBoundaries) {
  const uint64_t cases[] = {0,       1,        127,       128,       16383,
                            16384,   (1u << 21) - 1, 1u << 21, 0xffffffffu,
                            ~0ULL >> 1, ~0ULL};
  for (uint64_t v : cases) {
    ByteWriter w;
    w.PutVarU64(v);
    ByteReader r(w.buffer());
    uint64_t out;
    ASSERT_TRUE(r.GetVarU64(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Bytes, SignedVarintRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -64, 63, -65, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : cases) {
    ByteWriter w;
    w.PutVarI64(v);
    ByteReader r(w.buffer());
    int64_t out = 0;
    ASSERT_TRUE(r.GetVarI64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Bytes, RandomVarintRoundTrip) {
  Rng rng(1);
  ByteWriter w;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = rng.Next() >> (rng.Next() % 64);
    values.push_back(v);
    w.PutVarU64(v);
  }
  ByteReader r(w.buffer());
  for (uint64_t expected : values) {
    uint64_t out;
    ASSERT_TRUE(r.GetVarU64(&out).ok());
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, TruncationDetected) {
  ByteWriter w;
  w.PutU64(42);
  ByteReader r(w.buffer().data(), 4);  // cut in half
  uint64_t v;
  EXPECT_FALSE(r.GetU64(&v).ok());
}

TEST(Bytes, StringAndBytesRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  ByteReader r(w.buffer());
  std::string a, b;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(Bytes, Fnv1aStableAndDiscriminating) {
  const uint64_t h1 = Fnv1a64("abc", 3);
  EXPECT_EQ(h1, Fnv1a64("abc", 3));
  EXPECT_NE(h1, Fnv1a64("abd", 3));
  EXPECT_NE(h1, Fnv1a64("abc", 2));
}

/// `n` bytes of the fixed pattern the pinned digests below are taken over.
Bytes PatternBytes(size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; i++) b[i] = static_cast<uint8_t>(i * 131 + 7);
  return b;
}

TEST(WordHash, DigestsOfAFixedCorpusArePinned) {
  // These equal XXH64 with seed 0 (0xef46db3751d8e999 and
  // 0x44bc2cf5ad770999 are its published digests of "" and "abc"); the
  // lengths cover the short path, one stripe less a byte, one stripe, a
  // tail of every width, and a 64 KiB read block plus an odd tail.
  EXPECT_EQ(WordHash64(nullptr, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(WordHash64("abc", 3), 0x44bc2cf5ad770999ULL);
  const struct {
    size_t n;
    uint64_t digest;
  } pins[] = {{31, 0x6711d55e306b5d8fULL},
              {32, 0x07f7b8e3bc5d6e25ULL},
              {1000, 0x0bf0bdbcc82eb373ULL},
              {65549, 0x4968c83280940fceULL}};
  for (const auto& pin : pins) {
    const Bytes b = PatternBytes(pin.n);
    EXPECT_EQ(WordHash64(b.data(), b.size()), pin.digest) << pin.n << " bytes";
  }
}

TEST(WordHash, ChunkedEqualsOneShot) {
  Rng rng(29);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 70; n++) sizes.push_back(n);
  for (size_t n : {65535u, 65536u, 65537u, 131072u + 31u, 200003u}) sizes.push_back(n);
  for (const size_t n : sizes) {
    Bytes b(n);
    for (uint8_t& byte : b) byte = static_cast<uint8_t>(rng.Next());
    const uint64_t want = WordHash64(b.data(), b.size());
    // 64 KiB blocks (the salvage walk's read size), then random chunkings
    // from single bytes up to a few stripes, empty chunks included.
    for (int chunking = 0; chunking < 6; chunking++) {
      WordHasher h;
      for (size_t at = 0; at < n;) {
        const size_t max = chunking == 0 ? 65536 : size_t{1} << (2 * chunking);
        const size_t len = std::min(n - at, chunking == 0 ? max : rng.Below(max + 1));
        h.Update(b.data() + at, len);
        at += len;
      }
      EXPECT_EQ(h.Digest(), want) << n << " bytes, chunking " << chunking;
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Below(17), 17u);
    const int64_t r = rng.Range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MemoryScope, ChargeAndRelease) {
  MemoryScope scope("test");
  EXPECT_TRUE(scope.Charge(100).ok());
  EXPECT_TRUE(scope.Charge(50).ok());
  EXPECT_EQ(scope.current(), 150u);
  EXPECT_EQ(scope.peak(), 150u);
  scope.Release(120);
  EXPECT_EQ(scope.current(), 30u);
  EXPECT_EQ(scope.peak(), 150u);
}

TEST(MemoryScope, CapEnforced) {
  MemoryScope scope("capped", 100);
  EXPECT_TRUE(scope.Charge(80).ok());
  const Status s = scope.Charge(21);
  EXPECT_EQ(s.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(scope.current(), 80u);  // failed charge did not stick
  EXPECT_TRUE(scope.Charge(20).ok());
}

TEST(MemoryScope, ConcurrentChargesAreExact) {
  MemoryScope scope("mt");
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; i++) {
        (void)scope.Charge(3);
        scope.Release(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(scope.current(), static_cast<uint64_t>(kThreads) * kOps * 2);
}

TEST(ScopedCharge, ReleasesOnDestruction) {
  MemoryScope scope("raii");
  {
    ScopedCharge charge(scope, 64);
    EXPECT_TRUE(charge.ok());
    EXPECT_EQ(scope.current(), 64u);
  }
  EXPECT_EQ(scope.current(), 0u);
}

TEST(FsUtil, WriteReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.File("blob.bin");
  Bytes data = {1, 2, 3, 250, 255};
  ASSERT_TRUE(WriteFile(path, data).ok());
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 5u);
}

TEST(FsUtil, AppendAndRangeRead) {
  TempDir dir;
  const std::string path = dir.File("log.bin");
  ASSERT_TRUE(WriteFile(path, Bytes{}).ok());
  const Bytes a = {10, 11, 12};
  const Bytes b = {20, 21};
  ASSERT_TRUE(AppendFile(path, a.data(), a.size()).ok());
  ASSERT_TRUE(AppendFile(path, b.data(), b.size()).ok());
  auto range = ReadFileRange(path, 2, 2);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), (Bytes{12, 20}));
  EXPECT_FALSE(ReadFileRange(path, 4, 5).ok());  // past EOF
}

TEST(FsUtil, MissingFileErrors) {
  TempDir dir;
  EXPECT_FALSE(ReadFileBytes(dir.File("absent")).ok());
  EXPECT_FALSE(FileExists(dir.File("absent")));
}

TEST(RaceReportSet, DedupsByUnorderedPcPair) {
  RaceReportSet set;
  RaceReport r1;
  r1.pc1 = 10;
  r1.pc2 = 20;
  RaceReport r2;
  r2.pc1 = 20;
  r2.pc2 = 10;  // same pair, swapped
  EXPECT_TRUE(set.Add(r1));
  EXPECT_FALSE(set.Add(r2));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Contains(20, 10));
  RaceReport r3;
  r3.pc1 = 10;
  r3.pc2 = 21;
  EXPECT_TRUE(set.Add(r3));
  EXPECT_EQ(set.size(), 2u);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "2.5"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Format, HumanReadableUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * 1024 * 1024), "2.00 MB");
  EXPECT_NE(FormatSeconds(0.001).find("ms"), std::string::npos);
  EXPECT_NE(FormatSeconds(2.0).find("s"), std::string::npos);
}

}  // namespace
}  // namespace sword
