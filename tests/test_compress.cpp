// Tests for src/compress: codec round trips (pattern + randomized,
// parameterized over all codecs), the LZ decoder's error paths against a
// byte-at-a-time reference decoder (including a fixed-seed mutational fuzz),
// the frame format with its raw fallback, and corruption handling.
#include <gtest/gtest.h>

#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "trace/event.h"
#include "trace/reader.h"

namespace sword {
namespace {

Bytes TraceLikeData(uint64_t records) {
  ByteWriter w;
  for (uint64_t i = 0; i < records; i++) {
    trace::EncodeEvent(trace::RawEvent::Access(0x7f0000000000ULL + i * 8, 8, 1, 77), w);
  }
  return w.buffer();
}

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

class CodecTest : public testing::TestWithParam<std::string> {
 protected:
  const Compressor& codec() const { return *FindCompressor(GetParam()); }

  void RoundTrip(const Bytes& input) {
    Bytes compressed;
    ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
    Bytes output;
    ASSERT_TRUE(
        codec().Decompress(compressed.data(), compressed.size(), input.size(), &output)
            .ok());
    EXPECT_EQ(output, input);
  }
};

TEST_P(CodecTest, EmptyInput) { RoundTrip({}); }

TEST_P(CodecTest, SingleByte) { RoundTrip({42}); }

TEST_P(CodecTest, AllZeros) { RoundTrip(Bytes(10000, 0)); }

TEST_P(CodecTest, AllDistinct) {
  Bytes input(256);
  for (size_t i = 0; i < input.size(); i++) input[i] = static_cast<uint8_t>(i);
  RoundTrip(input);
}

TEST_P(CodecTest, RepetitiveTraceLikeData) {
  // Trace buffers look like this: repeating 16-byte records with a striding
  // address field; compressible codecs should shrink it substantially.
  const Bytes input = TraceLikeData(5000);
  Bytes compressed;
  ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
  Bytes output;
  ASSERT_TRUE(
      codec().Decompress(compressed.data(), compressed.size(), input.size(), &output)
          .ok());
  EXPECT_EQ(output, input);
  if (GetParam() == "lzs" || GetParam() == "lzf") {
    // The LZ codecs must exploit the 16-byte record periodicity.
    EXPECT_LT(compressed.size(), input.size() / 2);
  } else if (GetParam() == "rle") {
    // Striding addresses leave few byte runs; RLE only has to stay near
    // break-even (its worst case adds 1/128 overhead).
    EXPECT_LT(compressed.size(), input.size() + input.size() / 64);
  }
}

TEST_P(CodecTest, RandomFuzzRoundTrip) {
  Rng rng(Fnv1a64(GetParam().data(), GetParam().size()));
  for (int trial = 0; trial < 50; trial++) {
    const size_t n = rng.Below(4096);
    Bytes input(n);
    // Mix random bytes with runs to hit both literal and run/match paths.
    size_t i = 0;
    while (i < n) {
      if (rng.Chance(0.3)) {
        const size_t run = std::min(n - i, static_cast<size_t>(rng.Below(200) + 1));
        const uint8_t v = static_cast<uint8_t>(rng.Next());
        for (size_t k = 0; k < run; k++) input[i++] = v;
      } else {
        input[i++] = static_cast<uint8_t>(rng.Next());
      }
    }
    RoundTrip(input);
  }
}

TEST_P(CodecTest, DecompressRejectsWrongSize) {
  const Bytes input = {1, 1, 1, 1, 2, 3, 4, 5, 5, 5, 5, 5};
  Bytes compressed;
  ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
  Bytes output;
  EXPECT_FALSE(codec()
                   .Decompress(compressed.data(), compressed.size(),
                               input.size() + 1, &output)
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest, testing::ValuesIn(CompressorNames()),
                         [](const auto& info) { return info.param; });

// --- LZ decoder (shared by lzs and lzf) --------------------------------------

void PutLiteral(ByteWriter& w, const Bytes& bytes) {
  w.PutU8(0x00);
  w.PutVarU64(bytes.size());
  w.PutRaw(bytes.data(), bytes.size());
}

void PutMatch(ByteWriter& w, uint64_t len, uint64_t dist) {
  w.PutU8(0x01);
  w.PutVarU64(len);
  w.PutVarU64(dist);
}

/// Byte-at-a-time decoder of the lzs/lzf token stream with every corruption
/// check spelled out; the oracle for the production decoder.
bool ReferenceDecode(const Bytes& in, size_t size, Bytes* out) {
  out->clear();
  ByteReader r(in);
  while (!r.AtEnd()) {
    uint8_t tag;
    uint64_t len, dist;
    if (!r.GetU8(&tag).ok()) return false;
    if (tag != 0x00 && tag != 0x01) return false;
    if (!r.GetVarU64(&len).ok()) return false;
    if (tag == 0x00) {
      if (r.remaining() < len || out->size() + len > size) return false;
      for (uint64_t k = 0; k < len; k++) out->push_back(r.cursor()[k]);
      if (!r.Skip(len).ok()) return false;
    } else {
      if (!r.GetVarU64(&dist).ok()) return false;
      if (dist == 0 || dist > out->size() || out->size() + len > size) return false;
      const size_t src = out->size() - dist;
      for (uint64_t k = 0; k < len; k++) out->push_back((*out)[src + k]);
    }
  }
  return out->size() == size;
}

class LzDecoderTest : public testing::TestWithParam<std::string> {
 protected:
  const Compressor& codec() const { return *FindCompressor(GetParam()); }

  /// Decodes `in` into a buffer that already holds a prefix and checks the
  /// append contract: the prefix is untouched, and on failure nothing else
  /// is left behind.
  Status DecodeAfterPrefix(const Bytes& in, size_t size, Bytes* decoded) {
    const Bytes prefix = {0xaa, 0xbb, 0xcc};
    Bytes out = prefix;
    const Status status = codec().Decompress(in.data(), in.size(), size, &out);
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    if (status.ok()) {
      EXPECT_EQ(out.size(), prefix.size() + size);
    } else {
      EXPECT_EQ(out.size(), prefix.size());
    }
    decoded->assign(out.begin() + static_cast<std::ptrdiff_t>(prefix.size()), out.end());
    return status;
  }
};

TEST_P(LzDecoderTest, EveryCorruptionPathIsRejected) {
  struct Case {
    const char* what;
    Bytes stream;
    size_t size;
  };
  const Bytes abc = {'a', 'b', 'c'};
  auto stream = [&](auto build) {
    ByteWriter w;
    build(w);
    return w.buffer();
  };
  const std::vector<Case> cases = {
      {"tag without length", {0x00}, 3},
      {"literal length varint cut", {0x00, 0x83}, 3},
      {"match length varint cut", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         w.PutU8(0x01);
         w.PutU8(0x84);
       }), 7},
      {"match distance missing", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         w.PutU8(0x01);
         w.PutU8(0x04);
       }), 7},
      // Eleven bytes encoding zero: a decoder reading past 64 bits of shift
      // would accept an empty literal and produce the declared 0 bytes.
      {"varint longer than 64 bits",
       {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 0},
      {"literal bytes cut", {0x00, 0x05, 'a', 'b'}, 5},
      {"literal past declared size",
       stream([&](ByteWriter& w) { PutLiteral(w, abc); }), 2},
      {"match past declared size", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         PutMatch(w, 10, 1);
       }), 8},
      {"distance zero", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         PutMatch(w, 4, 0);
       }), 7},
      {"distance beyond produced", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         PutMatch(w, 4, 4);
       }), 7},
      {"match before any output", stream([&](ByteWriter& w) { PutMatch(w, 4, 1); }), 4},
      {"unknown tag", stream([&](ByteWriter& w) {
         PutLiteral(w, abc);
         w.PutU8(0x02);
       }), 3},
      {"short output", stream([&](ByteWriter& w) { PutLiteral(w, abc); }), 4},
      {"empty stream, nonzero size", {}, 1},
  };
  for (const Case& c : cases) {
    Bytes decoded, reference;
    const Status status = DecodeAfterPrefix(c.stream, c.size, &decoded);
    EXPECT_EQ(status.code(), ErrorCode::kCorruptData) << c.what;
    EXPECT_EQ(status.message().rfind(GetParam() + ": ", 0), 0u)
        << c.what << ": the error must name the codec: " << status.message();
    EXPECT_FALSE(ReferenceDecode(c.stream, c.size, &reference)) << c.what;
  }
}

TEST_P(LzDecoderTest, OverlappingMatchesMatchReference) {
  Rng rng(17);
  const Bytes seed = RandomBytes(rng, 17);
  for (uint64_t dist = 1; dist <= 17; dist++) {
    for (uint64_t len = 1; len <= 300; len++) {
      ByteWriter w;
      PutLiteral(w, seed);
      PutMatch(w, len, dist);
      // A second match reaching back into the first one's output.
      PutMatch(w, len / 2 + 1, dist + len / 3);
      const size_t size = seed.size() + len + len / 2 + 1;
      Bytes expected, decoded;
      ASSERT_TRUE(ReferenceDecode(w.buffer(), size, &expected));
      ASSERT_TRUE(DecodeAfterPrefix(w.buffer(), size, &decoded).ok())
          << "dist " << dist << " len " << len;
      ASSERT_EQ(decoded, expected) << "dist " << dist << " len " << len;
    }
  }
}

TEST_P(LzDecoderTest, AppendsAfterExistingBytes) {
  const Bytes input = TraceLikeData(3000);
  Bytes compressed;
  ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
  Bytes decoded;
  ASSERT_TRUE(DecodeAfterPrefix(compressed, input.size(), &decoded).ok());
  EXPECT_EQ(decoded, input);
}

TEST_P(LzDecoderTest, FuzzedStreamsMatchReference) {
  // Fixed-seed mutational fuzz straight at Decompress: the frame checksum
  // stops nearly every mutation before the decoder in log-level fuzzing.
  Rng rng(Fnv1a64(GetParam().data(), GetParam().size()) ^ 0x5eed);
  std::vector<std::pair<Bytes, size_t>> seeds;
  auto add_seed = [&](const Bytes& input) {
    Bytes compressed;
    ASSERT_TRUE(codec().Compress(input.data(), input.size(), &compressed).ok());
    seeds.emplace_back(compressed, input.size());
  };
  add_seed(TraceLikeData(2000));
  for (int k = 0; k < 4; k++) {
    Bytes input = RandomBytes(rng, 512 + rng.Below(3000));
    // Runs and repeats so the seed holds matches, not just literals.
    for (size_t i = 0; i + 64 < input.size(); i += 64 + rng.Below(200)) {
      const size_t dist = 1 + rng.Below(std::min<size_t>(i + 1, 40));
      const size_t len = 4 + rng.Below(60);
      for (size_t j = 0; j < len && i + j < input.size() && i + j >= dist; j++) {
        input[i + j] = input[i + j - dist];
      }
    }
    add_seed(input);
  }

  size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; iter++) {
    const auto& [base, size] = seeds[rng.Below(seeds.size())];
    Bytes mutant = base;
    switch (rng.Below(3)) {
      case 0:  // bit flips
        for (uint64_t k = 0, n = 1 + rng.Below(4); k < n && !mutant.empty(); k++) {
          mutant[rng.Below(mutant.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
        }
        break;
      case 1:  // truncation
        mutant.resize(rng.Below(mutant.size() + 1));
        break;
      default: {  // splice a varint (small, near a size bound, or huge)
        ByteWriter v;
        const uint64_t value = rng.Chance(0.3)   ? rng.Next()
                               : rng.Chance(0.5) ? size + rng.Below(3) - 1
                                                 : rng.Below(300);
        v.PutVarU64(value);
        const size_t at = rng.Below(mutant.size() + 1);
        const size_t replace = std::min<size_t>(rng.Below(4), mutant.size() - at);
        mutant.erase(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                     mutant.begin() + static_cast<std::ptrdiff_t>(at + replace));
        mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                      v.buffer().begin(), v.buffer().end());
        break;
      }
    }
    Bytes decoded, reference;
    const Status status = DecodeAfterPrefix(mutant, size, &decoded);
    const bool reference_ok = ReferenceDecode(mutant, size, &reference);
    ASSERT_EQ(status.ok(), reference_ok)
        << "iteration " << iter << ": " << status.ToString();
    if (status.ok()) {
      ASSERT_EQ(decoded, reference) << "iteration " << iter;
      accepted++;
    } else {
      ASSERT_EQ(status.code(), ErrorCode::kCorruptData) << "iteration " << iter;
      rejected++;
    }
  }
  // Both outcomes must be exercised, or the fuzz is not reaching the paths.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(LzCodecs, LzDecoderTest, testing::Values("lzs", "lzf"),
                         [](const auto& info) { return info.param; });

/// Length of the last token of an lzs/lzf stream if it is a literal, else 0.
uint64_t LastLiteralLength(const Bytes& stream) {
  ByteReader r(stream);
  uint64_t last_literal = 0;
  while (!r.AtEnd()) {
    uint8_t tag;
    uint64_t len = 0, dist = 0;
    EXPECT_TRUE(r.GetU8(&tag).ok());
    EXPECT_TRUE(r.GetVarU64(&len).ok());
    if (tag == 0x00) {
      last_literal = len;
      EXPECT_TRUE(r.Skip(len).ok());
    } else {
      EXPECT_TRUE(r.GetVarU64(&dist).ok());
      last_literal = 0;
    }
  }
  return last_literal;
}

TEST(Lzf, GivesUpOnExpandingInput) {
  // Bytes drawn from 16 values are full of short matches that cost more than
  // they save; without the give-up rule lzf grows them by about 16%. Once a
  // checkpoint sees the stream larger than the input consumed, the rest goes
  // out as one literal token - right away, or after a compressible prefix
  // has been paid back.
  const Compressor& lzf = *FindCompressor("lzf");
  for (const uint64_t prefix_records : {uint64_t{0}, uint64_t{1100}}) {
    SCOPED_TRACE("prefix records " + std::to_string(prefix_records));
    Rng rng(23);
    Bytes input = TraceLikeData(prefix_records);
    for (size_t i = 0; i < (256u << 10); i++) {
      input.push_back(static_cast<uint8_t>(rng.Below(16)));
    }
    Bytes compressed, again;
    ASSERT_TRUE(lzf.Compress(input.data(), input.size(), &compressed).ok());
    ASSERT_TRUE(lzf.Compress(input.data(), input.size(), &again).ok());
    EXPECT_EQ(compressed, again);
    EXPECT_LT(compressed.size(), input.size() + input.size() / 32);
    EXPECT_GT(LastLiteralLength(compressed), input.size() / 2);

    Bytes decoded;
    ASSERT_TRUE(lzf.Decompress(compressed.data(), compressed.size(), input.size(),
                               &decoded)
                    .ok());
    EXPECT_EQ(decoded, input);
  }
}

TEST(Lzs, GivesUpOnIncompressibleInput) {
  // Without the give-up rule lzs walks its 32-step hash chains over every
  // position of random input (about 2 MB/s) only to emit literals. The first
  // checkpoint that sees no gain sends the rest out as one literal token.
  const Compressor& lzs = *FindCompressor("lzs");
  Rng rng(37);
  const Bytes input = RandomBytes(rng, 1u << 20);
  Bytes compressed, decoded;
  ASSERT_TRUE(lzs.Compress(input.data(), input.size(), &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() + input.size() / 32);
  EXPECT_GT(LastLiteralLength(compressed), input.size() / 2);
  ASSERT_TRUE(
      lzs.Decompress(compressed.data(), compressed.size(), input.size(), &decoded).ok());
  EXPECT_EQ(decoded, input);
}

TEST(Lzs, PayloadOfCompressibleCorpusIsPinned) {
  // Strided event blocks from random bases with random bytes between them:
  // compressible overall, with pending literals at many give-up checkpoints.
  // The digest was computed with the lzs encoder before it had a give-up
  // rule, so this pins that the rule never changes a compressible stream.
  Rng rng(2026);
  ByteWriter w;
  for (uint64_t block = 0; block < 48; block++) {
    const uint64_t base = 0x7f0000000000ULL + rng.Below(1 << 20) * 64;
    for (uint64_t i = 0; i < 400; i++) {
      trace::EncodeEvent(
          trace::RawEvent::Access(base + i * 8, 8, i % 3 == 0, 100 + block % 5), w);
    }
    const Bytes noise = RandomBytes(rng, 32 + rng.Below(480));
    w.PutRaw(noise.data(), noise.size());
  }
  const Bytes& corpus = w.buffer();
  const Compressor& lzs = *FindCompressor("lzs");
  Bytes payload, decoded;
  ASSERT_TRUE(lzs.Compress(corpus.data(), corpus.size(), &payload).ok());
  ASSERT_EQ(corpus.size(), 319485u);
  EXPECT_EQ(payload.size(), 129328u);
  EXPECT_EQ(Fnv1a64(payload.data(), payload.size()), 6285103526514597633ULL);
  ASSERT_TRUE(
      lzs.Decompress(payload.data(), payload.size(), corpus.size(), &decoded).ok());
  EXPECT_EQ(decoded, corpus);
}

TEST(Lzf, KeepsMatchingAfterAnUnmatchedPrefix) {
  // A prefix with no matches is pending literals, not growth: the encoder
  // must not give up on it and still compress what follows.
  Rng rng(29);
  Bytes input = RandomBytes(rng, 20 << 10);
  const Bytes trace = TraceLikeData(20000);
  input.insert(input.end(), trace.begin(), trace.end());
  Bytes compressed;
  ASSERT_TRUE(
      FindCompressor("lzf")->Compress(input.data(), input.size(), &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 2);
}

TEST(CompressorRegistry, KnowsAllCodecs) {
  EXPECT_NE(FindCompressor("raw"), nullptr);
  EXPECT_NE(FindCompressor("rle"), nullptr);
  EXPECT_NE(FindCompressor("lzs"), nullptr);
  EXPECT_NE(FindCompressor("lzf"), nullptr);
  EXPECT_EQ(FindCompressor("zstd"), nullptr);
  EXPECT_EQ(DefaultCompressor()->Name(), std::string("lzf"));
}

TEST(Frame, RoundTripAllCodecs) {
  Bytes payload(3000);
  Rng rng(4);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Below(7));

  for (const auto& name : CompressorNames()) {
    Bytes file;
    ASSERT_TRUE(WriteFrame(*FindCompressor(name), payload.data(), payload.size(), &file)
                    .ok());
    ByteReader r(file);
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok()) << name;
    EXPECT_EQ(view.data, payload);
    EXPECT_EQ(view.raw_size, payload.size());
    EXPECT_EQ(view.frame_size, file.size());
    EXPECT_TRUE(r.AtEnd());
  }
}

/// Frame header bytes for a data frame of codec `name` carrying n raw and
/// `payload` encoded bytes.
size_t FrameHeaderBytes(const std::string& name, size_t n, size_t payload) {
  ByteWriter w;
  w.PutU32(kFrameMagic);
  w.PutString(name);
  w.PutVarU64(n);
  w.PutVarU64(payload);
  w.PutU64(0);
  return w.size();
}

TEST(Frame, IncompressibleInputIsStoredRaw) {
  Rng rng(31);
  TempDir dir("frame-raw");
  for (const size_t n : {size_t{0}, size_t{1}, size_t{4096}, size_t{70000}}) {
    const Bytes input = RandomBytes(rng, n);
    for (const auto& name : CompressorNames()) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      Bytes file;
      ASSERT_TRUE(WriteFrame(*FindCompressor(name), input.data(), n, &file).ok());
      const size_t header = FrameHeaderBytes("raw", n, n);
      ASSERT_EQ(file.size(), header + n);
      ByteReader h(file);
      uint32_t magic;
      std::string codec;
      uint64_t raw_size, payload_size;
      ASSERT_TRUE(h.GetU32(&magic).ok());
      ASSERT_TRUE(h.GetString(&codec).ok());
      ASSERT_TRUE(h.GetVarU64(&raw_size).ok());
      ASSERT_TRUE(h.GetVarU64(&payload_size).ok());
      EXPECT_EQ(codec, "raw");
      EXPECT_EQ(raw_size, n);
      EXPECT_EQ(payload_size, n);
      EXPECT_TRUE(std::equal(input.begin(), input.end(), file.begin() + header));

      ByteReader r(file);
      FrameView view;
      ASSERT_TRUE(ReadFrame(r, &view).ok());
      EXPECT_EQ(view.data, input);
      EXPECT_EQ(view.frame_size, file.size());
      ByteReader s(file);
      FrameHeader parsed;
      ASSERT_TRUE(ParseFrameHeader(s, &parsed).ok());
      EXPECT_EQ(parsed.raw_size, n);
      ASSERT_TRUE(s.Skip(parsed.payload_size).ok());
      EXPECT_TRUE(s.AtEnd());

      // The salvage scan cross-checks raw_size == payload_size for raw frames.
      const std::string path = dir.File(name + std::to_string(n) + ".log");
      ASSERT_TRUE(WriteFile(path, file).ok());
      trace::SalvagePolicy salvage;
      salvage.enabled = true;
      auto log = trace::LogReader::Open(path, salvage);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      EXPECT_TRUE(log.value().salvage_stats().clean());
      EXPECT_EQ(log.value().salvage_stats().frames_ok, 1u);
      EXPECT_EQ(log.value().total_logical_bytes(), n);
      std::vector<trace::FrameRecord> records;
      ASSERT_TRUE(trace::LogReader::VerifyLog(
                      path, [&](const trace::FrameRecord& f) { records.push_back(f); })
                      .ok());
      ASSERT_EQ(records.size(), 1u);
      EXPECT_EQ(records[0].codec, "raw");
      EXPECT_TRUE(records[0].status.ok());
    }
  }
}

TEST(Frame, CompressibleInputKeepsConfiguredCodec) {
  Bytes input = TraceLikeData(4000);
  input.insert(input.end(), 5000, 0);  // a run even rle can shrink
  for (const auto& name : CompressorNames()) {
    if (name == "raw") continue;
    Bytes file;
    ASSERT_TRUE(
        WriteFrame(*FindCompressor(name), input.data(), input.size(), &file).ok());
    ByteReader h(file);
    uint32_t magic;
    std::string codec;
    ASSERT_TRUE(h.GetU32(&magic).ok());
    ASSERT_TRUE(h.GetString(&codec).ok());
    EXPECT_EQ(codec, name);
    EXPECT_LT(file.size(), input.size());
  }
}

TEST(Frame, LzfPayloadOfCompressibleCorpusIsPinned) {
  // A trace-like corpus spanning many give-up checkpoints: strided loops
  // from several sites, lock events and occasional scattered accesses. The
  // digest was computed with the lzf encoder before it had a give-up rule,
  // so this pins that the rule never changes a compressible stream.
  Rng rng(2018);
  ByteWriter w;
  for (uint64_t block = 0; block < 64; block++) {
    const auto lock = static_cast<uint32_t>(block % 3);
    trace::EncodeEvent(trace::RawEvent::MutexAcquire(lock), w);
    const uint64_t base = 0x7f0000000000ULL + rng.Below(1 << 20) * 64;
    for (uint64_t i = 0; i < 300; i++) {
      trace::EncodeEvent(trace::RawEvent::Access(base + i * 8, 8, 0, 100 + block % 5), w);
      if (i % 4 == 0) {
        const uint64_t accumulator = 0x600000 + (block % 7) * 8;
        trace::EncodeEvent(trace::RawEvent::Access(accumulator, 8, 1, 41), w);
      }
      if (rng.Chance(0.02)) {
        trace::EncodeEvent(
            trace::RawEvent::Access(rng.Next() & 0xffffffffffffULL, 4, 0, 9), w);
      }
    }
    trace::EncodeEvent(trace::RawEvent::MutexRelease(lock), w);
  }
  const Bytes& corpus = w.buffer();
  ASSERT_EQ(corpus.size(), 391776u);
  Bytes payload;
  ASSERT_TRUE(
      FindCompressor("lzf")->Compress(corpus.data(), corpus.size(), &payload).ok());
  EXPECT_EQ(payload.size(), 151891u);
  EXPECT_EQ(Fnv1a64(payload.data(), payload.size()), 3655539669938663523ULL);
}

TEST(Frame, SequentialFramesStream) {
  Bytes file;
  for (int k = 0; k < 5; k++) {
    Bytes payload(100 + static_cast<size_t>(k) * 37, static_cast<uint8_t>(k));
    ASSERT_TRUE(
        WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  }
  ByteReader r(file);
  for (int k = 0; k < 5; k++) {
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok());
    EXPECT_EQ(view.raw_size, 100u + static_cast<size_t>(k) * 37);
    EXPECT_EQ(view.data[0], static_cast<uint8_t>(k));
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Frame, SkipWithoutDecompressing) {
  Bytes file;
  Bytes payload(1000, 9);
  ASSERT_TRUE(
      WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  ByteReader r(file);
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(r, &header).ok());
  EXPECT_EQ(header.raw_size, 1000u);
  ASSERT_TRUE(r.Skip(header.payload_size).ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Frame, ChecksumCatchesCorruption) {
  Bytes file;
  Bytes payload(500, 3);
  ASSERT_TRUE(
      WriteFrame(*DefaultCompressor(), payload.data(), payload.size(), &file).ok());
  file[file.size() - 1] ^= 0xff;  // flip a payload byte
  ByteReader r(file);
  FrameView view;
  EXPECT_FALSE(ReadFrame(r, &view).ok());
}

TEST(Frame, DamagedLzfPayloadErrorNamesLzf) {
  // lzf frames decode through the token decoder lzs shares. Damage the
  // payload's first token and re-seal the checksum so the damage reaches
  // that decoder: the error must name lzf, the codec of the frame.
  const Bytes input = TraceLikeData(4000);
  Bytes file;
  ASSERT_TRUE(
      WriteFrame(*FindCompressor("lzf"), input.data(), input.size(), &file).ok());
  ByteReader h(file);
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(h, &header).ok());
  ASSERT_EQ(header.codec, "lzf");
  const size_t payload = header.header_size;
  file[payload] = 0x02;  // not a literal (0x00) or match (0x01) tag
  const uint64_t checksum =
      FrameChecksum(header.magic, file.data() + payload, header.payload_size);
  for (size_t i = 0; i < 8; i++) {
    file[payload - 8 + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  ByteReader r(file);
  FrameView view;
  const Status status = ReadFrame(r, &view);
  EXPECT_EQ(status.code(), ErrorCode::kCorruptData);
  EXPECT_EQ(status.message(), "lzf: unknown token tag");
}

TEST(Frame, BadMagicRejected) {
  Bytes file = {0, 1, 2, 3, 4, 5, 6, 7};
  ByteReader r(file);
  FrameView view;
  EXPECT_EQ(ReadFrame(r, &view).code(), ErrorCode::kCorruptData);
}

TEST(Frame, EveryTwoMagicsAreAtLeastTwoBitsApart) {
  // A single bit flip in a magic must land on no other magic, or a damaged
  // header could re-version a frame or turn it into a marker.
  const uint32_t magics[] = {kFrameMagic,       kFrameMagicV2,  kFrameMagicV3,
                             kFrameMagicV3Word, kFrameMagicGap, kFrameMagicCrash};
  for (size_t i = 0; i < std::size(magics); i++) {
    uint8_t bytes[4];
    for (int k = 0; k < 4; k++) bytes[k] = static_cast<uint8_t>(magics[i] >> (8 * k));
    EXPECT_TRUE(IsFrameMagic(bytes)) << std::hex << magics[i];
    for (size_t j = i + 1; j < std::size(magics); j++) {
      EXPECT_GE(__builtin_popcount(magics[i] ^ magics[j]), 2)
          << std::hex << magics[i] << " vs " << magics[j];
    }
  }
}

TEST(Frame, EverySingleBitFlipInA4KWordHashPayloadIsCaught) {
  Rng rng(17);
  Bytes payload(4096);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
  const uint64_t sealed = FrameChecksum(kFrameMagicV3Word, payload.data(), payload.size());
  for (size_t bit = 0; bit < payload.size() * 8; bit++) {
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(FrameChecksum(kFrameMagicV3Word, payload.data(), payload.size()), sealed)
        << "bit " << bit;
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

TEST(Frame, EachMagicNamesItsChecksum) {
  const Bytes input = TraceLikeData(3000);
  const Compressor& raw = *FindCompressor("raw");
  // v1 and v2 frames keep the FNV construction byte for byte.
  for (const uint8_t format : {1, 2}) {
    Bytes file;
    ASSERT_TRUE(WriteFrame(raw, input.data(), input.size(), &file, format).ok());
    ByteWriter want;
    want.PutU32(format == 1 ? kFrameMagic : kFrameMagicV2);
    want.PutString("raw");
    want.PutVarU64(input.size());
    want.PutVarU64(input.size());
    want.PutU64(Fnv1a64(input.data(), input.size()));
    want.PutRaw(input.data(), input.size());
    EXPECT_EQ(file, want.buffer()) << "format v" << int(format);
  }
  // v3 frames are written as "SW3H", sealed with the word hash.
  Bytes file;
  ASSERT_TRUE(WriteFrame(raw, input.data(), input.size(), &file, 3).ok());
  ByteReader h(file);
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(h, &header).ok());
  EXPECT_EQ(header.magic, kFrameMagicV3Word);
  EXPECT_EQ(header.payload_format, 3);
  EXPECT_EQ(header.checksum, WordHash64(input.data(), input.size()));
  {
    ByteReader r(file);
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok());
    EXPECT_EQ(view.data, input);
  }
  // The same frame under the legacy "SW3F" magic verifies only once its
  // checksum is re-sealed with FNV.
  for (int k = 0; k < 4; k++) file[k] = static_cast<uint8_t>(kFrameMagicV3 >> (8 * k));
  {
    ByteReader r(file);
    FrameView view;
    EXPECT_EQ(ReadFrame(r, &view).message(), "frame checksum mismatch");
  }
  const size_t payload = header.header_size;
  const uint64_t fnv = FrameChecksum(kFrameMagicV3, file.data() + payload, input.size());
  EXPECT_EQ(fnv, Fnv1a64(input.data(), input.size()));
  for (size_t i = 0; i < 8; i++) file[payload - 8 + i] = static_cast<uint8_t>(fnv >> (8 * i));
  ByteReader r(file);
  FrameView view;
  ASSERT_TRUE(ReadFrame(r, &view).ok());
  EXPECT_EQ(view.payload_format, 3);
  EXPECT_EQ(view.data, input);
}

}  // namespace
}  // namespace sword
