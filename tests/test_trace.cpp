// Tests for src/trace: event codecs (v1 fixed-width and v2 delta/varint),
// meta files, the multi-worker async flusher and its buffer pool, the
// bounded writer (flush-on-full, fixed memory), and the streaming reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <span>
#include <thread>

#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "oracle/delta_decoder.h"
#include "oracle/meta_legacy.h"
#include "trace/event.h"
#include "trace/flusher.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword::trace {
namespace {

TEST(Event, EncodingIsExactly16Bytes) {
  ByteWriter w;
  EncodeEvent(RawEvent::Access(0x1234, 8, 1, 42), w);
  EXPECT_EQ(w.size(), kEventBytes);
}

TEST(Event, RoundTripAllKinds) {
  const RawEvent cases[] = {
      RawEvent::Access(0xdeadbeefcafeULL, 4, 3, 777),
      RawEvent::MutexAcquire(5),
      RawEvent::MutexRelease(5),
      RawEvent::Access(0, 1, 0, 0),
  };
  for (const RawEvent& e : cases) {
    ByteWriter w;
    EncodeEvent(e, w);
    ByteReader r(w.buffer());
    RawEvent out;
    ASSERT_TRUE(DecodeEvent(r, &out).ok());
    EXPECT_EQ(out, e);
  }
}

TEST(Event, UnknownKindRejected) {
  Bytes bad(16, 0);
  bad[0] = 99;
  ByteReader r(bad);
  RawEvent out;
  EXPECT_FALSE(DecodeEvent(r, &out).ok());
}

TEST(Meta, IntervalRoundTrip) {
  IntervalMeta m;
  m.region = 7;
  m.parent_region = IntervalMeta::kNoParent;
  m.phase = 3;
  m.label = osl::Label::Initial().Fork(2, 8).AfterBarrier();
  m.level = 1;
  m.lane = 2;
  m.data_begin = 4096;
  m.data_size = 160;
  m.lockset = {4, 9};

  ByteWriter w;
  m.Serialize(w);
  ByteReader r(w.buffer());
  IntervalMeta out;
  ASSERT_TRUE(IntervalMeta::Deserialize(r, &out).ok());
  EXPECT_EQ(out.region, 7u);
  EXPECT_EQ(out.parent_region, IntervalMeta::kNoParent);
  EXPECT_EQ(out.label, m.label);
  EXPECT_EQ(out.lockset, m.lockset);
  EXPECT_EQ(out.EventCount(), 10u);
  EXPECT_EQ(out.TableOffset(), 2u);
  EXPECT_EQ(out.TableSpan(), 8u);
}

TEST(Meta, FileRoundTripAndTableIColumns) {
  MetaFile file;
  file.thread_id = 3;
  for (int i = 0; i < 5; i++) {
    IntervalMeta m;
    m.region = static_cast<uint64_t>(i);
    m.label = osl::Label::Initial().Fork(3, 8);
    m.data_begin = static_cast<uint64_t>(i) * 100;
    m.data_size = 100;
    file.intervals.push_back(m);
  }
  MetaFile out;
  ASSERT_TRUE(MetaFile::Decode(file.Encode(), &out).ok());
  EXPECT_EQ(out.thread_id, 3u);
  ASSERT_EQ(out.intervals.size(), 5u);
  EXPECT_NE(out.intervals[0].ToString().find("pid=0"), std::string::npos);
  EXPECT_NE(out.intervals[0].ToString().find("span=8"), std::string::npos);
}

TEST(Meta, CorruptFileRejected) {
  MetaFile out;
  EXPECT_FALSE(MetaFile::Decode(Bytes{1, 2, 3}, &out).ok());
}

TEST(Meta, V2RecordsEventCountAndLogFormat) {
  MetaFile file;
  file.thread_id = 1;
  file.log_format = kTraceFormatV2;
  IntervalMeta m;
  m.label = osl::Label::Initial().Fork(0, 2);
  m.data_begin = 0;
  m.data_size = 123;  // NOT a multiple of 16: only valid with explicit count
  m.event_count = 40;
  file.intervals.push_back(m);

  MetaFile out;
  ASSERT_TRUE(MetaFile::Decode(file.Encode(), &out).ok());
  EXPECT_EQ(out.log_format, kTraceFormatV2);
  ASSERT_EQ(out.intervals.size(), 1u);
  EXPECT_EQ(out.intervals[0].EventCount(), 40u);
}

TEST(Meta, V1RecordsCrossReadWithDerivedEventCount) {
  // A v1 serialization (no event_count field) must still read back, with
  // the count derived from the fixed 16-byte event size.
  IntervalMeta m;
  m.label = osl::Label::Initial().Fork(1, 4);
  m.data_begin = 32;
  m.data_size = 10 * kEventBytes;
  ByteWriter w;
  m.Serialize(w, /*version=*/1);
  ByteReader r(w.buffer());
  IntervalMeta out;
  ASSERT_TRUE(IntervalMeta::Deserialize(r, &out, /*version=*/1).ok());
  EXPECT_EQ(out.event_count, 0u);
  EXPECT_EQ(out.EventCount(), 10u);
  EXPECT_TRUE(r.AtEnd());
}

/// A one-record SWM6 file, written field by field so that the 32-bit field
/// named `wide` can carry 2^32 + 1 (the encoder cannot produce it).
Bytes MetaWithWideField(const std::string& wide) {
  auto field = [&](const char* name, uint64_t value) {
    return wide == name ? (uint64_t{1} << 32) + 1 : value;
  };
  ByteWriter w;
  w.PutU32(kMetaMagicV6);
  w.PutU8(0);  // flags
  w.PutU8(0);  // seal signo
  w.PutVarU64(field("thread id", 1));
  w.PutU8(kTraceFormatV3);
  for (int i = 0; i < 6; i++) w.PutVarU64(0);  // drop and elision totals
  w.PutVarU64(0);                              // transitions
  w.PutVarU64(1);                              // records
  w.PutVarU64(0);                              // region
  w.PutVarU64(IntervalMeta::kNoParent);
  w.PutVarU64(0);  // phase
  osl::Label::Initial().Fork(1, 2).Serialize(w);
  w.PutVarU64(field("level", 1));
  w.PutVarU64(field("lane", 1));
  w.PutVarU64(0);   // data_begin
  w.PutVarU64(16);  // data_size
  w.PutVarU64(1);   // event_count
  w.PutVarU64(1);   // lockset size
  w.PutVarU64(field("lockset", 4));
  w.PutVarU64(field("degradation level", 0));
  w.PutVarU64(0);  // degraded_dropped
  w.PutVarU64(0);  // elided
  return std::move(w.buffer());
}

TEST(Meta, WideThirtyTwoBitFieldsAreCorrupt) {
  // Narrowing would read a lane of 2^32 + 1 as lane 1. A record field fails
  // strict decoding and salvage drops the record as damaged; the header's
  // thread id fails the file in both modes.
  MetaFile out;
  ASSERT_TRUE(MetaFile::Decode(MetaWithWideField(""), &out).ok());
  ASSERT_EQ(out.intervals.size(), 1u);
  EXPECT_EQ(out.thread_id, 1u);
  EXPECT_EQ(out.intervals[0].lane, 1u);
  EXPECT_EQ(out.intervals[0].lockset, std::vector<uint32_t>{4});

  for (const char* name : {"level", "lane", "lockset", "degradation level"}) {
    const Bytes bytes = MetaWithWideField(name);
    EXPECT_EQ(MetaFile::Decode(bytes, &out).code(), ErrorCode::kCorruptData)
        << name;
    uint64_t dropped = 0;
    ASSERT_TRUE(MetaFile::Decode(bytes, &out, /*salvage=*/true, &dropped).ok())
        << name;
    EXPECT_TRUE(out.intervals.empty()) << name;
    EXPECT_EQ(dropped, 1u) << name;
  }
  for (const bool salvage : {false, true}) {
    EXPECT_EQ(MetaFile::Decode(MetaWithWideField("thread id"), &out, salvage)
                  .code(),
              ErrorCode::kCorruptData)
        << "salvage " << salvage;
  }
}

// Fixed-seed fuzz target for the meta parser, SWMF (v1) through SWM7. Seeds
// are a fully populated meta as SWM6 (the legacy writer in
// oracle/meta_legacy.h) and as SWM7 (MetaFile::Encode), and v1/v2 files
// built from the records of the two tests above; mutants are bit flips,
// truncations and spliced varints. Strict and salvage decoding must either
// fail cleanly or yield a MetaFile that survives Encode -> Decode unchanged
// (compared through its encoding, which covers every field SWM7 carries).
Bytes LegacyMetaFile(uint8_t version, const std::vector<IntervalMeta>& records) {
  ByteWriter w;
  w.PutU32(version == 1 ? kMetaMagic : kMetaMagicV2);
  w.PutVarU64(5);  // thread id
  if (version >= 2) w.PutU8(kTraceFormatV2);
  w.PutVarU64(records.size());
  for (const auto& m : records) m.Serialize(w, version);
  return std::move(w.buffer());
}

void SpliceVarint(Bytes& b, Rng& rng) {
  static constexpr uint64_t kValues[] = {0,          1,          127,
                                         128,        16383,      1ULL << 32,
                                         1ULL << 62, ~0ULL - 1,  ~0ULL};
  const uint64_t v = rng.Chance(0.5) ? kValues[rng.Below(std::size(kValues))]
                                     : rng.Next() >> rng.Below(64);
  ByteWriter w;
  w.PutVarU64(v);
  const Bytes& varint = w.buffer();
  const size_t at = rng.Below(b.size() + 1);
  if (rng.Chance(0.5)) {
    b.insert(b.begin() + static_cast<ptrdiff_t>(at), varint.begin(), varint.end());
  } else {
    for (size_t i = 0; i < varint.size(); i++) {
      if (at + i < b.size()) b[at + i] = varint[i];
      else b.push_back(varint[i]);
    }
  }
}

TEST(Meta, FuzzedMetasFailCleanlyOrRoundTrip) {
  IntervalMeta v1_record;  // as in V1RecordsCrossReadWithDerivedEventCount
  v1_record.label = osl::Label::Initial().Fork(1, 4);
  v1_record.data_begin = 32;
  v1_record.data_size = 10 * kEventBytes;
  IntervalMeta v2_record;  // as in V2RecordsEventCountAndLogFormat
  v2_record.label = osl::Label::Initial().Fork(0, 2);
  v2_record.data_size = 123;
  v2_record.event_count = 40;
  v2_record.lockset = {3, 300};

  MetaFile v6;
  v6.thread_id = 9;
  v6.log_format = kTraceFormatV3;
  v6.crash_sealed = true;
  v6.seal_signo = 11;
  v6.events_dropped = 4;
  v6.bytes_dropped = 70;
  v6.accesses_dropped = 2;
  v6.degraded_dropped = 1000;
  v6.elided_accesses = 77;
  v6.elided_lost = 1;
  v6.transitions = {{1, 2, 0}, {3, 1, 2}};
  for (int i = 0; i < 3; i++) {
    IntervalMeta m = v2_record;
    m.region = static_cast<uint64_t>(i);
    m.parent_region = i == 0 ? IntervalMeta::kNoParent : 0;
    m.phase = static_cast<uint64_t>(i);
    m.label = osl::Label::Initial().Fork(1, 4).Fork(0, 2).AfterBarrier();
    m.level = 2;
    m.lane = 1;
    m.data_begin = 500 * static_cast<uint64_t>(i);
    m.degradation_level = static_cast<uint32_t>(i);
    m.degraded_dropped = 7;
    m.elided = 25;
    v6.intervals.push_back(m);
  }

  const std::vector<Bytes> seeds = {oracle::EncodeMetaV6(v6), v6.Encode(),
                                    LegacyMetaFile(1, {v1_record, v1_record}),
                                    LegacyMetaFile(2, {v2_record, v1_record})};
  for (const Bytes& seed : seeds) {
    MetaFile out;
    ASSERT_TRUE(MetaFile::Decode(seed, &out).ok());
  }

  Rng rng(20260419);
  uint64_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; trial++) {
    Bytes mutant = seeds[static_cast<size_t>(trial) % seeds.size()];
    const int ops = 1 + static_cast<int>(rng.Below(3));
    for (int op = 0; op < ops; op++) {
      switch (rng.Below(3)) {
        case 0:
          if (!mutant.empty()) {
            mutant[rng.Below(mutant.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
          }
          break;
        case 1:
          mutant.resize(rng.Below(mutant.size() + 1));
          break;
        default:
          SpliceVarint(mutant, rng);
      }
    }
    for (const bool salvage : {false, true}) {
      MetaFile first;
      uint64_t records_dropped = 0;
      if (!MetaFile::Decode(mutant, &first, salvage, &records_dropped).ok()) {
        rejected++;
        continue;
      }
      decoded++;
      const Bytes encoded = first.Encode();
      MetaFile second;
      const Status again = MetaFile::Decode(encoded, &second);
      ASSERT_TRUE(again.ok()) << "trial " << trial << " salvage=" << salvage
                              << ": " << again.ToString();
      ASSERT_EQ(second.Encode(), encoded) << "trial " << trial << " salvage=" << salvage;
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

/// A populated SWM7 meta as its framed records, header first.
std::vector<Bytes> Swm7Records() {
  std::vector<Bytes> records;
  auto frame = [&records](auto&& write) {
    ByteWriter w;
    write(w);
    records.push_back(std::move(w.buffer()));
  };
  frame([](ByteWriter& w) { FrameMetaHeader(4, kTraceFormatV3, w); });
  for (uint64_t i = 0; i < 3; i++) {
    IntervalMeta m;
    m.region = i;
    m.parent_region = i == 0 ? IntervalMeta::kNoParent : 0;
    m.phase = i;
    m.label = osl::Label::Initial().Fork(1, 4).AfterBarrier();
    m.level = 1;
    m.lane = 1;
    m.data_begin = 100 * i;
    m.data_size = 100;
    m.event_count = 9;
    m.lockset = {2, 700};
    m.degradation_level = static_cast<uint32_t>(i);
    m.degraded_dropped = 3 * i;
    frame([&m](ByteWriter& w) { FrameIntervalRecord(m, w); });
    if (i == 1) {
      frame([](ByteWriter& w) { FrameTransitionRecord({2, 1, 1}, w); });
      frame([](ByteWriter& w) { FrameTotalsRecord({1, 16, 0, 3}, w); });
    }
  }
  frame([](ByteWriter& w) { FrameTotalsRecord({5, 80, 2, 9}, w); });
  Bytes sealed(kSealRecordBytes);
  EncodeSealRecord(SIGBUS, sealed.data());
  records.push_back(sealed);
  return records;
}

TEST(Meta, Swm7RoundTripsWhatTheRecordsSay) {
  Bytes file;
  for (const Bytes& r : Swm7Records()) file.insert(file.end(), r.begin(), r.end());
  MetaFile out;
  ASSERT_TRUE(MetaFile::Decode(file, &out).ok());
  EXPECT_EQ(out.thread_id, 4u);
  EXPECT_EQ(out.log_format, kTraceFormatV3);
  ASSERT_EQ(out.intervals.size(), 3u);
  EXPECT_EQ(out.intervals[2].degraded_dropped, 6u);
  EXPECT_EQ(out.intervals[1].lockset, (std::vector<uint32_t>{2, 700}));
  ASSERT_EQ(out.transitions.size(), 1u);
  EXPECT_EQ(out.transitions[0], (DegradationTransition{2, 1, 1}));
  // The last totals record wins.
  EXPECT_EQ(out.events_dropped, 5u);
  EXPECT_EQ(out.bytes_dropped, 80u);
  EXPECT_EQ(out.accesses_dropped, 2u);
  EXPECT_EQ(out.degraded_dropped, 9u);
  // The hand-framed sealed record passes the record log's checksum.
  EXPECT_TRUE(out.crash_sealed);
  EXPECT_EQ(out.seal_signo, SIGBUS);
  // MetaFile::Encode writes the same fields back.
  MetaFile again;
  ASSERT_TRUE(MetaFile::Decode(out.Encode(), &again).ok());
  EXPECT_EQ(again.Encode(), out.Encode());
  EXPECT_TRUE(again.crash_sealed);
  EXPECT_EQ(again.degraded_dropped, 9u);
  ASSERT_EQ(again.intervals.size(), 3u);
}

// Every cut and seeded single-bit flips of an SWM7 meta. A file cut on a
// record boundary is a shorter valid log; any other cut, and any flip,
// fails strict decoding, while salvage keeps every record before the
// damaged one and counts one dropped record. Damage inside the header
// record fails both modes.
TEST(Meta, Swm7CutsAndFlipsFailStrictAndKeepThePrefix) {
  const std::vector<Bytes> records = Swm7Records();
  Bytes file;
  std::vector<size_t> ends;  // end offset of each record
  for (const Bytes& r : records) {
    file.insert(file.end(), r.begin(), r.end());
    ends.push_back(file.size());
  }
  // The decode of the first `k` records, as an encoding to compare against.
  auto prefix_encoding = [&](size_t k) {
    MetaFile m;
    const Bytes prefix(file.begin(), file.begin() + static_cast<ptrdiff_t>(ends[k - 1]));
    EXPECT_TRUE(MetaFile::Decode(prefix, &m).ok());
    return m.Encode();
  };
  // Records wholly inside the first `n` bytes.
  auto whole_records = [&](size_t n) {
    return static_cast<size_t>(std::upper_bound(ends.begin(), ends.end(), n) - ends.begin());
  };
  auto check = [&](const Bytes& mutant, size_t intact, bool clean, const std::string& what) {
    MetaFile strict, salvaged;
    uint64_t dropped = 99;
    const Status st = MetaFile::Decode(mutant, &strict);
    const Status ss = MetaFile::Decode(mutant, &salvaged, /*salvage=*/true, &dropped);
    if (intact == 0) {  // the header itself is damaged
      EXPECT_EQ(st.code(), ErrorCode::kCorruptData) << what;
      EXPECT_EQ(ss.code(), ErrorCode::kCorruptData) << what;
      return;
    }
    ASSERT_TRUE(ss.ok()) << what << ": " << ss.ToString();
    EXPECT_EQ(dropped, clean ? 0u : 1u) << what;
    EXPECT_EQ(salvaged.Encode(), prefix_encoding(intact)) << what;
    if (clean) {
      ASSERT_TRUE(st.ok()) << what;
      EXPECT_EQ(strict.Encode(), salvaged.Encode()) << what;
    } else {
      EXPECT_EQ(st.code(), ErrorCode::kCorruptData) << what;
    }
  };

  for (size_t cut = 0; cut < file.size(); cut++) {
    const Bytes mutant(file.begin(), file.begin() + static_cast<ptrdiff_t>(cut));
    const size_t intact = whole_records(cut);
    const bool on_boundary = intact > 0 && ends[intact - 1] == cut;
    check(mutant, intact, on_boundary, "cut at " + std::to_string(cut));
  }
  Rng rng(20261021);
  for (int trial = 0; trial < 2000; trial++) {
    Bytes mutant = file;
    const size_t at = rng.Below(file.size());
    mutant[at] ^= static_cast<uint8_t>(1u << rng.Below(8));
    check(mutant, whole_records(at), /*clean=*/false, "flip at " + std::to_string(at));
  }

  // A sealed record appended after a torn one is hidden by the tear: the
  // meta loses its sealed flag (the log's crash marker still reports the
  // crash).
  Bytes torn(file.begin(), file.begin() + static_cast<ptrdiff_t>(ends[1] - 3));
  Bytes sealed(kSealRecordBytes);
  EncodeSealRecord(SIGSEGV, sealed.data());
  torn.insert(torn.end(), sealed.begin(), sealed.end());
  MetaFile out;
  uint64_t dropped = 0;
  ASSERT_TRUE(MetaFile::Decode(torn, &out, /*salvage=*/true, &dropped).ok());
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(out.crash_sealed);
}

// ---------------------------------------------------------------- format v2

using oracle::DecodeBlocks;

TEST(EventV2, RoundTripAllKinds) {
  const RawEvent cases[] = {
      RawEvent::Access(0xdeadbeefcafeULL, 4, 3, 777),
      RawEvent::Access(0x1000, 8, 1, 12),     // pow2 size, write
      RawEvent::Access(0x0ff8, 8, 0, 12),     // negative delta
      RawEvent::Access(0x1000, 3, 0, 1),      // non-pow2 size: explicit varint
      RawEvent::Access(0x1000, 8, 0x91, 1),   // flags beyond 2 bits: extended
      RawEvent::Access(0, 1, 0, 0),
      RawEvent::MutexAcquire(5),
      RawEvent::MutexRelease(131071),
      RawEvent::Access(~0ULL, 128, 2, 0xffffffffu),  // extremes
  };
  EventCodecState enc;
  ByteWriter w;
  for (const RawEvent& e : cases) EncodeEventV2(e, enc, w);
  std::vector<RawEvent> out;
  ASSERT_TRUE(DecodeBlocks(w.buffer(), kTraceFormatV2, &out).ok());
  EXPECT_EQ(out, std::vector<RawEvent>(std::begin(cases), std::end(cases)));
}

TEST(EventV2, StridedAccessesEncodeDenselyUnderMaxBound) {
  // The motivating case: a strided loop. Tag + 1-byte pc + small delta
  // should land far below v1's 16 bytes/event (acceptance: >= 2x denser).
  EventCodecState enc;
  ByteWriter w;
  const int n = 1000;
  for (int i = 0; i < n; i++) {
    EncodeEventV2(RawEvent::Access(0x10000 + 8 * static_cast<uint64_t>(i), 8, 1, 3),
                  enc, w);
  }
  EXPECT_LE(w.size(), n * kEventBytes / 2);
  EXPECT_LE(w.size(), 4u * n);  // in practice ~3 bytes/event here
}

TEST(EventV2, SingleEventNeverExceedsMaxBytes) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; trial++) {
    EventCodecState enc;
    enc.prev_addr = rng.Next();
    RawEvent e = RawEvent::Access(rng.Next(), static_cast<uint8_t>(rng.Below(256)),
                                  static_cast<uint8_t>(rng.Below(256)),
                                  static_cast<uint32_t>(rng.Next()));
    ByteWriter w;
    EncodeEventV2(e, enc, w);
    EXPECT_LE(w.size(), kMaxEventBytesV2);
  }
}

TEST(EventV2, DeltaStateResetMatchesFrameBoundaries) {
  // Encoding with fresh state must decode with fresh state: simulate two
  // frames and make sure crossing the boundary with stale state would skew
  // the address (i.e. the reset is load-bearing).
  EventCodecState enc1;
  ByteWriter f1;
  EncodeEventV2(RawEvent::Access(0x5000, 8, 0, 1), enc1, f1);
  EventCodecState enc2;  // new frame: state resets
  ByteWriter f2;
  EncodeEventV2(RawEvent::Access(0x5008, 8, 0, 1), enc2, f2);

  std::vector<RawEvent> out;  // each frame decodes with fresh state
  ASSERT_TRUE(DecodeBlocks(f1.buffer(), kTraceFormatV2, &out).ok());
  ASSERT_TRUE(DecodeBlocks(f2.buffer(), kTraceFormatV2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr, 0x5000u);
  EXPECT_EQ(out[1].addr, 0x5008u);
}

TEST(EventV2, MalformedTagsRejected) {
  std::vector<RawEvent> out;
  EXPECT_FALSE(DecodeBlocks({0x03}, kTraceFormatV2, &out).ok());  // kind 3: reserved
  // A mutex with size bits.
  EXPECT_FALSE(
      DecodeBlocks({static_cast<uint8_t>(0x01 | (1u << 4)), 5}, kTraceFormatV2, &out).ok());
  for (uint8_t code = 9; code <= 14; code++) {  // reserved size codes
    EXPECT_FALSE(
        DecodeBlocks({static_cast<uint8_t>(code << 4), 0, 0}, kTraceFormatV2, &out).ok());
  }
  EXPECT_TRUE(out.empty());
}

TEST(Flusher, AsyncAppendsInOrder) {
  TempDir dir;
  const std::string path = dir.File("f.log");
  ASSERT_TRUE(WriteFile(path, Bytes{}).ok());
  Flusher flusher(/*async=*/true);
  const Compressor* raw = FindCompressor("raw");
  for (uint8_t k = 0; k < 10; k++) flusher.AppendFrame(path, Bytes(16, k), raw);
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok());
  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(flusher.bytes_written(), data.value().size());
  // The frames read back in submission order.
  ByteReader r(data.value());
  for (uint8_t k = 0; k < 10; k++) {
    FrameView view;
    ASSERT_TRUE(ReadFrame(r, &view).ok()) << "frame " << int(k);
    EXPECT_EQ(view.data, Bytes(16, k)) << "frame order violated at " << int(k);
  }
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(flusher.appends(), 10u);
}

TEST(Flusher, SyncModeWritesInline) {
  TempDir dir;
  const std::string path = dir.File("s.log");
  ASSERT_TRUE(WriteFile(path, Bytes{}).ok());
  Flusher flusher(/*async=*/false);
  flusher.AppendFrame(path, Bytes{1, 2, 3}, FindCompressor("raw"));
  // No Drain needed.
  auto data = ReadFileBytes(path);
  ASSERT_TRUE(data.ok());
  ByteReader r(data.value());
  FrameView view;
  ASSERT_TRUE(ReadFrame(r, &view).ok());
  EXPECT_EQ(view.data, (Bytes{1, 2, 3}));
}

TEST(Flusher, SurfacesIoErrors) {
  Flusher flusher(/*async=*/false);
  flusher.AppendFrame("/nonexistent-dir-xyz/file", Bytes{1}, FindCompressor("raw"));
  EXPECT_FALSE(flusher.status().ok());
}

struct WriterFixture {
  TempDir dir;
  MemoryScope memory{"trace-test"};
  Flusher flusher{FlusherConfig{.async = false, .memory = &memory}};

  // Legacy tests pin v1's fixed 16-byte event math; v2 tests opt in.
  WriterConfig Config(uint64_t buffer_bytes = 4096, uint8_t format = kTraceFormatV1) {
    WriterConfig wc;
    wc.log_path = dir.File("t0.log");
    wc.meta_path = dir.File("t0.meta");
    wc.buffer_bytes = buffer_bytes;
    wc.flusher = &flusher;
    wc.format = format;
    return wc;
  }

  IntervalMeta Meta(uint64_t region = 0, uint64_t phase = 0) {
    IntervalMeta m;
    m.region = region;
    m.phase = phase;
    m.label = osl::Label::Initial().Fork(0, 2);
    return m;
  }
};

TEST(Writer, BufferIsBoundedAndFlushesWhenFull) {
  WriterFixture fx;
  // 4096-byte buffer = 256 events; write 1000 -> at least 3 flushes.
  ThreadTraceWriter writer(0, fx.Config(4096));
  writer.BeginSegment(fx.Meta());
  for (uint64_t i = 0; i < 1000; i++) {
    writer.Append(RawEvent::Access(1000 + i * 8, 8, 1, 1));
  }
  writer.EndSegment();
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_GE(writer.flushes(), 3u);
  EXPECT_EQ(writer.events_logged(), 1000u);
  EXPECT_EQ(writer.logical_bytes(), 1000 * kEventBytes);
  // Memory charge equals the buffer, not the data volume.
  EXPECT_LE(fx.memory.peak(), 4096u + 64);
}

TEST(Writer, SegmentsRecordLogicalOffsets) {
  WriterFixture fx;
  ThreadTraceWriter writer(0, fx.Config());
  writer.BeginSegment(fx.Meta(0, 0));
  for (int i = 0; i < 10; i++) writer.Append(RawEvent::Access(100, 8, 0, 1));
  writer.EndSegment();
  writer.BeginSegment(fx.Meta(0, 1));
  for (int i = 0; i < 5; i++) writer.Append(RawEvent::Access(200, 8, 1, 2));
  writer.EndSegment();
  ASSERT_TRUE(writer.Finish().ok());

  auto meta_bytes = ReadFileBytes(fx.dir.File("t0.meta"));
  ASSERT_TRUE(meta_bytes.ok());
  MetaFile meta;
  ASSERT_TRUE(MetaFile::Decode(meta_bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 2u);
  EXPECT_EQ(meta.intervals[0].data_begin, 0u);
  EXPECT_EQ(meta.intervals[0].data_size, 10 * kEventBytes);
  EXPECT_EQ(meta.intervals[1].data_begin, 10 * kEventBytes);
  EXPECT_EQ(meta.intervals[1].data_size, 5 * kEventBytes);
}

TEST(Writer, EmptySegmentsDropped) {
  WriterFixture fx;
  ThreadTraceWriter writer(0, fx.Config());
  writer.BeginSegment(fx.Meta(0, 0));
  writer.EndSegment();  // nothing logged
  writer.BeginSegment(fx.Meta(0, 1));
  writer.Append(RawEvent::Access(1, 1, 0, 1));
  writer.EndSegment();
  ASSERT_TRUE(writer.Finish().ok());
  auto meta_bytes = ReadFileBytes(fx.dir.File("t0.meta"));
  MetaFile meta;
  ASSERT_TRUE(MetaFile::Decode(meta_bytes.value(), &meta).ok());
  EXPECT_EQ(meta.intervals.size(), 1u);
}

TEST(ReaderTest, RoundTripThroughCompressedFrames) {
  WriterFixture fx;
  std::vector<RawEvent> logged;
  {
    ThreadTraceWriter writer(0, fx.Config(1024));  // small buffer: many frames
    writer.BeginSegment(fx.Meta());
    Rng rng(12);
    for (int i = 0; i < 500; i++) {
      RawEvent e = RawEvent::Access(4096 + rng.Below(1 << 16), 8,
                                    rng.Chance(0.5) ? 1 : 0,
                                    static_cast<uint32_t>(rng.Below(100)));
      writer.Append(e);
      logged.push_back(e);
    }
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_GT(reader.value().frame_count(), 1u);
  EXPECT_EQ(reader.value().total_logical_bytes(), 500 * kEventBytes);

  std::vector<RawEvent> back;
  ASSERT_TRUE(reader.value().ReadRange(0, 500 * kEventBytes, &back).ok());
  EXPECT_EQ(back, logged);
}

TEST(ReaderTest, RangeSlicingAcrossFrameBoundaries) {
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config(160));  // 10 events per frame
    writer.BeginSegment(fx.Meta());
    for (uint64_t i = 0; i < 100; i++) {
      writer.Append(RawEvent::Access(i, 8, 0, static_cast<uint32_t>(i)));
    }
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok());

  // Slice [35, 55): spans frames 3..5.
  std::vector<RawEvent> out;
  ASSERT_TRUE(reader.value().ReadRange(35 * kEventBytes, 20 * kEventBytes, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  for (size_t k = 0; k < out.size(); k++) EXPECT_EQ(out[k].addr, 35 + k);
}

TEST(ReaderTest, RejectsBadRanges) {
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config());
    writer.BeginSegment(fx.Meta());
    writer.Append(RawEvent::Access(1, 1, 0, 1));
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok());
  std::vector<RawEvent> out;
  EXPECT_FALSE(reader.value().ReadRange(0, 2 * kEventBytes, &out).ok());  // past end
  EXPECT_FALSE(reader.value().ReadRange(3, 8, &out).ok());               // misaligned
}

TEST(ReaderTest, FrameCacheAvoidsRedundantDecompression) {
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config(1 << 16));  // everything in 1 frame
    writer.BeginSegment(fx.Meta());
    for (uint64_t i = 0; i < 200; i++) {
      writer.Append(RawEvent::Access(i, 8, 0, static_cast<uint32_t>(i)));
    }
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok());
  FrameCache cache;
  // 50 tiny interval-style reads from the same frame: 1 miss, 49 hits.
  for (uint64_t k = 0; k < 50; k++) {
    uint64_t count = 0;
    ASSERT_TRUE(reader.value()
                    .StreamRange(k * 4 * kEventBytes, 4 * kEventBytes,
                                 [&](const RawEvent&) { count++; }, &cache)
                    .ok());
    EXPECT_EQ(count, 4u);
  }
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 49u);
}

TEST(ReaderTest, FuzzedMutationsNeverCrash) {
  // Robustness: randomly corrupted log files must produce clean errors (or
  // happen to still parse), never crashes or over-reads.
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config(512));
    writer.BeginSegment(fx.Meta());
    for (uint64_t i = 0; i < 300; i++) {
      writer.Append(RawEvent::Access(0x1000 + i * 8, 8, 1, 7));
    }
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto pristine = ReadFileBytes(fx.dir.File("t0.log"));
  ASSERT_TRUE(pristine.ok());

  Rng rng(31337);
  for (int trial = 0; trial < 120; trial++) {
    Bytes mutated = pristine.value();
    const int flips = 1 + static_cast<int>(rng.Below(8));
    for (int f = 0; f < flips; f++) {
      mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    if (rng.Chance(0.3)) mutated.resize(rng.Below(mutated.size() + 1));  // truncate

    const std::string path = fx.dir.File("fuzz.log");
    ASSERT_TRUE(WriteFile(path, mutated).ok());
    auto reader = LogReader::Open(path);
    if (!reader.ok()) continue;  // rejected at open: fine
    std::vector<RawEvent> out;
    // Either succeeds or errors; must not crash / hang / overflow.
    (void)reader.value().ReadRange(0, reader.value().total_logical_bytes(), &out);
  }
}

TEST(ReaderTest, CorruptLogDetected) {
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config());
    writer.BeginSegment(fx.Meta());
    for (int i = 0; i < 50; i++) writer.Append(RawEvent::Access(1, 8, 0, 1));
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto raw = ReadFileBytes(fx.dir.File("t0.log"));
  ASSERT_TRUE(raw.ok());
  Bytes corrupted = raw.value();
  corrupted[corrupted.size() / 2] ^= 0xff;
  ASSERT_TRUE(WriteFile(fx.dir.File("t0.log"), corrupted).ok());

  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  if (reader.ok()) {
    std::vector<RawEvent> out;
    EXPECT_FALSE(
        reader.value().ReadRange(0, reader.value().total_logical_bytes(), &out).ok());
  }
}

// ------------------------------------------------------- v2 writer + reader

TEST(WriterV2, RoundTripSegmentsAcrossFrameBoundaries) {
  // Tiny buffer: segments straddle frames, so mid-frame v2 reads (decode
  // from frame start, discard the prefix) are exercised heavily.
  WriterFixture fx;
  std::vector<std::vector<RawEvent>> segs;
  Rng rng(77);
  {
    ThreadTraceWriter writer(0, fx.Config(256, kTraceFormatV2));
    for (uint64_t s = 0; s < 6; s++) {
      writer.BeginSegment(fx.Meta(0, s));
      segs.emplace_back();
      const int n = 20 + static_cast<int>(rng.Below(50));
      for (int i = 0; i < n; i++) {
        RawEvent e;
        if (rng.Chance(0.1)) {
          e = rng.Chance(0.5)
                  ? RawEvent::MutexAcquire(static_cast<uint32_t>(rng.Below(8)))
                  : RawEvent::MutexRelease(static_cast<uint32_t>(rng.Below(8)));
        } else {
          e = RawEvent::Access(0x100000 + rng.Below(1 << 20),
                               static_cast<uint8_t>(1u << rng.Below(4)),
                               rng.Chance(0.5) ? 1 : 0,
                               static_cast<uint32_t>(rng.Below(500)));
        }
        writer.Append(e);
        segs.back().push_back(e);
      }
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(fx.flusher.status().ok());
    EXPECT_GE(writer.flushes(), 2u);
  }

  auto meta_bytes = ReadFileBytes(fx.dir.File("t0.meta"));
  ASSERT_TRUE(meta_bytes.ok());
  MetaFile meta;
  ASSERT_TRUE(MetaFile::Decode(meta_bytes.value(), &meta).ok());
  EXPECT_EQ(meta.log_format, kTraceFormatV2);
  ASSERT_EQ(meta.intervals.size(), segs.size());

  auto reader = LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  FrameCache cache;
  for (size_t s = 0; s < segs.size(); s++) {
    const IntervalMeta& m = meta.intervals[s];
    EXPECT_EQ(m.EventCount(), segs[s].size());
    std::vector<RawEvent> got;
    ASSERT_TRUE(reader.value()
                    .StreamRange(m.data_begin, m.data_size,
                                 [&](const RawEvent& e) { got.push_back(e); }, &cache)
                    .ok());
    EXPECT_EQ(got, segs[s]) << "segment " << s;
  }
}

TEST(WriterV2, SameEventsBothFormatsDecodeIdentically) {
  // Cross-version acceptance: v1 and v2 traces of the same execution must
  // decode to identical event streams, with v2 at least 2x denser.
  WriterFixture fx;
  std::vector<RawEvent> logged;
  Rng rng(4242);
  for (int i = 0; i < 800; i++) {
    logged.push_back(RawEvent::Access(0x20000 + rng.Below(1 << 16), 8,
                                      rng.Chance(0.3) ? 1 : 0,
                                      static_cast<uint32_t>(rng.Below(64))));
  }
  uint64_t logical[3] = {0, 0, 0};
  for (uint8_t format : {kTraceFormatV1, kTraceFormatV2}) {
    WriterConfig wc;
    const std::string stem = std::string("f").append(std::to_string(format));
    wc.log_path = fx.dir.File(stem + ".log");
    wc.meta_path = fx.dir.File(stem + ".meta");
    wc.buffer_bytes = 2048;
    wc.flusher = &fx.flusher;
    wc.format = format;
    ThreadTraceWriter writer(0, wc);
    writer.BeginSegment(fx.Meta());
    for (const RawEvent& e : logged) writer.Append(e);
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
    logical[format] = writer.logical_bytes();

    auto reader = LogReader::Open(wc.log_path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<RawEvent> back;
    ASSERT_TRUE(
        reader.value().ReadRange(0, reader.value().total_logical_bytes(), &back).ok());
    EXPECT_EQ(back, logged) << "format v" << int(format);
  }
  EXPECT_LE(logical[kTraceFormatV2] * 2, logical[kTraceFormatV1])
      << "v2 should be at least 2x denser pre-compression";
}

// A fixed corpus that reaches every corner of the v2/v3 encoder: every
// event kind, power-of-two and explicit sizes (0, 3, 12, 255), extended
// flags, pcs above 2^28, ascending, descending and wrapping address deltas,
// mutex ids above 2^32 and - v3 only - runs whose stride or count needs more
// than 32 bits.
std::vector<RawEvent> EncoderCorpus(bool with_runs) {
  std::vector<RawEvent> events;
  Rng rng(28);
  const uint8_t kOddSizes[] = {0, 3, 12, 255};
  uint64_t addr = 0x7f0000001000ULL;
  for (uint64_t i = 0; i < 600; i++) {
    switch (i % 10) {
      case 0:
      case 1:  // ascending, power-of-two sizes, inline flags
        addr += 8 * (1 + rng.Below(4));
        events.push_back(RawEvent::Access(
            addr, static_cast<uint8_t>(1u << (i % 8)), static_cast<uint8_t>(i % 4),
            static_cast<uint32_t>(rng.Below(300))));
        break;
      case 2:  // descending: a negative delta
        addr -= 16 + rng.Below(1 << 20);
        events.push_back(RawEvent::Access(addr, 8, 0, static_cast<uint32_t>(i)));
        break;
      case 3:  // explicit non-power-of-two sizes, and a pc above 2^28
        events.push_back(RawEvent::Access(addr + 3, kOddSizes[i % 4], 1,
                                          (1u << 28) + static_cast<uint32_t>(i)));
        break;
      case 4:  // extended flags (bits beyond write|atomic)
        events.push_back(RawEvent::Access(addr + 64,
                                          static_cast<uint8_t>(i % 2 ? 4 : 6),
                                          static_cast<uint8_t>(0x80 | (i % 4)), 17));
        break;
      case 5: {  // a mutex id above 2^32
        RawEvent e = rng.Chance(0.5) ? RawEvent::MutexAcquire(0)
                                     : RawEvent::MutexRelease(0);
        e.addr = (uint64_t{1} << 33) + rng.Below(1 << 30);
        events.push_back(e);
        break;
      }
      case 6:  // wrapping deltas: to the top of the address space and back
        events.push_back(RawEvent::Access(~uint64_t{0} - 7 - rng.Below(64), 8, 1, 5));
        events.push_back(RawEvent::Access(0x40 + rng.Below(64), 4, 0, 5));
        break;
      case 7:
        if (with_runs) {  // a plain strided run
          events.push_back(RawEvent::Run(addr, 8, 2 + rng.Below(1000), 8,
                                         static_cast<uint8_t>(i % 4), 9));
        } else {
          events.push_back(RawEvent::MutexRelease(static_cast<uint32_t>(i)));
        }
        break;
      case 8:
        if (with_runs) {  // a stride above 2^32
          events.push_back(RawEvent::Run(0x1000, (uint64_t{1} << 36) + rng.Below(4096),
                                         3, 12, 1, 10));
        } else {
          events.push_back(RawEvent::Access(addr, 2, 2, 10));
        }
        break;
      case 9:
        if (with_runs) {  // a count above 2^32, and extended flags on a run
          events.push_back(RawEvent::Run(0x2000, 1, (uint64_t{1} << 33) + i, 1,
                                         static_cast<uint8_t>(0x41), 11));
        } else {
          events.push_back(RawEvent::MutexAcquire(static_cast<uint32_t>(i)));
        }
        break;
    }
  }
  return events;
}

TEST(EventCodec, WrittenCorpusIsPinned) {
  // Writes the corpus through a ThreadTraceWriter with the raw codec and a
  // small buffer, so it spans many frames (each resets the delta state),
  // and pins the concatenated frame payloads. The digests were taken with
  // the ByteWriter field-by-field encoder, so they pin that the writer's
  // direct encoding changes no byte.
  struct Pin {
    uint8_t format;
    uint64_t bytes;
    uint64_t fnv;
    uint64_t flushes;
  };
  const Pin pins[] = {
      {kTraceFormatV2, 3646, 589524302765848298ULL, 17},
      {kTraceFormatV3, 5780, 13330470795333379633ULL, 17},
  };
  for (const Pin& pin : pins) {
    WriterFixture fx;
    const std::vector<RawEvent> events = EncoderCorpus(pin.format == kTraceFormatV3);
    WriterConfig wc = fx.Config(640, pin.format);
    wc.codec = FindCompressor("raw");
    uint64_t flushes = 0;
    {
      ThreadTraceWriter writer(0, wc);
      writer.BeginSegment(fx.Meta());
      for (const RawEvent& e : events) writer.Append(e);
      writer.EndSegment();
      ASSERT_TRUE(writer.Finish().ok());
      flushes = writer.flushes();
    }
    auto log = ReadFileBytes(wc.log_path);
    ASSERT_TRUE(log.ok());
    ByteReader r(log.value());
    uint64_t bytes = 0;
    uint64_t fnv = Fnv1a64(nullptr, 0);
    while (!r.AtEnd()) {
      FrameHeader h;
      ASSERT_TRUE(ParseFrameHeader(r, &h).ok());
      ASSERT_EQ(h.codec, "raw");
      ASSERT_EQ(h.payload_format, pin.format);
      ASSERT_GE(r.remaining(), h.payload_size);
      fnv = Fnv1a64(r.cursor(), h.payload_size, fnv);
      bytes += h.payload_size;
      ASSERT_TRUE(r.Skip(h.payload_size).ok());
    }
    EXPECT_EQ(bytes, pin.bytes) << "format v" << int(pin.format);
    EXPECT_EQ(fnv, pin.fnv) << "format v" << int(pin.format);
    EXPECT_EQ(flushes, pin.flushes) << "format v" << int(pin.format);

    auto reader = LogReader::Open(wc.log_path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<RawEvent> back;
    ASSERT_TRUE(
        reader.value().ReadRange(0, reader.value().total_logical_bytes(), &back).ok());
    EXPECT_EQ(back, events) << "format v" << int(pin.format);
  }
}

TEST(ReaderV2, FuzzedMutationsNeverCrash) {
  WriterFixture fx;
  {
    ThreadTraceWriter writer(0, fx.Config(512, kTraceFormatV2));
    writer.BeginSegment(fx.Meta());
    for (uint64_t i = 0; i < 300; i++) {
      writer.Append(RawEvent::Access(0x1000 + i * 8, 8, 1, 7));
    }
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto pristine = ReadFileBytes(fx.dir.File("t0.log"));
  ASSERT_TRUE(pristine.ok());

  Rng rng(2718);
  for (int trial = 0; trial < 120; trial++) {
    Bytes mutated = pristine.value();
    const int flips = 1 + static_cast<int>(rng.Below(8));
    for (int f = 0; f < flips; f++) {
      mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    if (rng.Chance(0.3)) mutated.resize(rng.Below(mutated.size() + 1));

    const std::string path = fx.dir.File("fuzz2.log");
    ASSERT_TRUE(WriteFile(path, mutated).ok());
    auto reader = LogReader::Open(path);
    if (!reader.ok()) continue;
    std::vector<RawEvent> out;
    (void)reader.value().ReadRange(0, reader.value().total_logical_bytes(), &out);
  }
}

// ------------------------------------------- v3 frames: fuzz and resumption

/// Writes `segments` segments of random events to fx's t0 log in `format`:
/// strided access streams (which the v3 writer coalesces into runs), single
/// scattered accesses and mutex events. A 512-byte buffer (32 events) makes
/// frames hold several segments and segments straddle frames.
void WriteRandomSegments(WriterFixture& fx, uint8_t format, uint32_t segments,
                         uint64_t seed) {
  ThreadTraceWriter writer(0, fx.Config(512, format));
  Rng rng(seed);
  for (uint32_t s = 0; s < segments; s++) {
    writer.BeginSegment(fx.Meta(0, s));
    const int n = 1 + static_cast<int>(rng.Below(40));
    for (int i = 0; i < n; i++) {
      const uint32_t pc = static_cast<uint32_t>(rng.Below(6));
      switch (rng.Below(4)) {
        case 0: {  // a strided stream
          const uint64_t base = 0x40000 + rng.Below(1 << 16) * 8;
          const uint64_t stride = 8 * (1 + rng.Below(3));
          const uint64_t count = 2 + rng.Below(12);
          for (uint64_t k = 0; k < count; k++) {
            writer.AppendAccess(base + k * stride, 8, static_cast<uint8_t>(rng.Below(2)), pc);
          }
          break;
        }
        case 1:
          writer.Append(rng.Chance(0.5)
                            ? RawEvent::MutexAcquire(static_cast<uint32_t>(rng.Below(4)))
                            : RawEvent::MutexRelease(static_cast<uint32_t>(rng.Below(4))));
          break;
        default:
          writer.AppendAccess(0x100000 + rng.Below(1 << 20),
                              static_cast<uint8_t>(1u << rng.Below(4)),
                              static_cast<uint8_t>(rng.Below(2)), pc);
      }
    }
    writer.EndSegment();
  }
  ASSERT_TRUE(writer.Finish().ok());
}

std::vector<IntervalMeta> ReadIntervals(WriterFixture& fx) {
  auto bytes = ReadFileBytes(fx.dir.File("t0.meta"));
  EXPECT_TRUE(bytes.ok());
  MetaFile meta;
  if (bytes.ok()) {
    EXPECT_TRUE(MetaFile::Decode(bytes.value(), &meta).ok());
  }
  return meta.intervals;
}

// Fixed-seed fuzz target for v3 ("SW3F") frames and the "SWCR" crash
// marker. Seeds are writer output: a multi-frame v3 log with coalesced
// runs and mutex events, the same log sealed by a crash marker, and a
// single-segment log of one long strided stream (a compressible frame).
// Mutants are bit flips, truncations and spliced varints. Opened strict or
// salvage, a mutant must either fail cleanly (corrupt-data) or decode: every
// streamed run has count >= 2, a non-zero stride and an extent that fits
// the address space, a strict stream fails only as corrupt-data or
// invalid-argument, and a salvage stream never fails.
TEST(ReaderV3, FuzzedFramesFailCleanlyOrDecode) {
  std::vector<Bytes> seeds;
  {
    WriterFixture fx;
    WriteRandomSegments(fx, kTraceFormatV3, 12, 99);
    auto bytes = ReadFileBytes(fx.dir.File("t0.log"));
    ASSERT_TRUE(bytes.ok());
    auto reader = LogReader::Open(fx.dir.File("t0.log"));
    ASSERT_TRUE(reader.ok());
    ASSERT_GT(reader.value().frame_count(), 2u);
    seeds.push_back(bytes.value());
    Bytes sealed = bytes.value();
    WriteCrashMarkerFrame(&sealed, 11);
    seeds.push_back(std::move(sealed));
  }
  {
    WriterFixture fx;
    ThreadTraceWriter writer(0, fx.Config(1 << 16, kTraceFormatV3));
    writer.BeginSegment(fx.Meta());
    for (uint64_t i = 0; i < 2000; i++) writer.AppendAccess(0x8000 + (i % 50) * 8, 8, 1, 3);
    writer.Append(RawEvent::MutexAcquire(2));
    writer.AppendAccess(0x9000, 4, 0, 4);
    writer.Append(RawEvent::MutexRelease(2));
    writer.EndSegment();
    ASSERT_TRUE(writer.Finish().ok());
    auto bytes = ReadFileBytes(fx.dir.File("t0.log"));
    ASSERT_TRUE(bytes.ok());
    seeds.push_back(bytes.value());
  }
  for (const Bytes& seed : seeds) {
    TempDir dir;
    ASSERT_TRUE(WriteFile(dir.File("seed.log"), seed).ok());
    auto reader = LogReader::Open(dir.File("seed.log"));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE(reader.value()
                    .StreamRange(0, reader.value().total_logical_bytes(),
                                 [](const RawEvent&) {})
                    .ok());
  }

  TempDir dir;
  const std::string path = dir.File("mutant.log");
  Rng rng(20261020);
  uint64_t decoded = 0, rejected = 0, runs = 0;
  for (int trial = 0; trial < 1500; trial++) {
    Bytes mutant = seeds[static_cast<size_t>(trial) % seeds.size()];
    const int ops = 1 + static_cast<int>(rng.Below(3));
    for (int op = 0; op < ops; op++) {
      switch (rng.Below(3)) {
        case 0:
          if (!mutant.empty()) {
            mutant[rng.Below(mutant.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
          }
          break;
        case 1:
          mutant.resize(rng.Below(mutant.size() + 1));
          break;
        default:
          SpliceVarint(mutant, rng);
      }
    }
    ASSERT_TRUE(WriteFile(path, mutant).ok());
    for (const bool salvage : {false, true}) {
      SalvagePolicy policy;
      policy.enabled = salvage;
      auto reader = LogReader::Open(path, policy);
      if (!reader.ok()) {
        ASSERT_EQ(reader.status().code(), ErrorCode::kCorruptData)
            << "trial " << trial << ": " << reader.status().ToString();
        rejected++;
        continue;
      }
      uint64_t skipped = 0;
      const Status s = reader.value().StreamRange(
          0, reader.value().total_logical_bytes(),
          [&](const RawEvent& e) {
            if (e.kind != EventKind::kAccessRun) return;
            runs++;
            ASSERT_GE(e.count, 2u);
            ASSERT_NE(e.stride, 0u);
            ASSERT_LE(e.stride, (UINT64_MAX - e.addr) / (e.count - 1));
          },
          nullptr, &skipped);
      if (salvage) {
        ASSERT_TRUE(s.ok()) << "trial " << trial << ": " << s.ToString();
      } else if (!s.ok()) {
        ASSERT_TRUE(s.code() == ErrorCode::kCorruptData ||
                    s.code() == ErrorCode::kInvalidArgument)
            << "trial " << trial << ": " << s.ToString();
        rejected++;
        continue;
      }
      decoded++;
    }
  }
  // The corpus exercises both outcomes, and decoded runs.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(runs, 100u);
}

/// Cuts the middle frame's payload and the log's tail, then returns the
/// log opened with salvage: one corrupt frame in the middle, a truncated one
/// at the end.
Result<LogReader> DamageAndSalvage(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  Bytes log = bytes.value();
  std::vector<uint64_t> frame_ends;
  ByteReader r(log);
  while (!r.AtEnd()) {
    FrameHeader header;
    if (!ParseFrameHeader(r, &header).ok() || !r.Skip(header.payload_size).ok()) break;
    frame_ends.push_back(r.position());
  }
  if (frame_ends.size() < 4) return Status::Invalid("too few frames to damage");
  const size_t mid = frame_ends.size() / 2;
  log[frame_ends[mid] - 3] ^= 0x5a;  // inside frame mid + 1's payload
  log.resize(frame_ends[frame_ends.size() - 2] + 5);
  const Status w = WriteFile(path, log);
  if (!w.ok()) return w;
  SalvagePolicy policy;
  policy.enabled = true;
  return LogReader::Open(path, policy);
}

/// What one StreamRange call produced: its status, events and skip count.
struct StreamOutcome {
  Status status;
  std::vector<RawEvent> events;
  uint64_t skipped = 0;
};

StreamOutcome Stream(const LogReader& reader, const IntervalMeta& m,
                     FrameCache* cache, DecodeCursor* cursor) {
  StreamOutcome out;
  out.status = reader.StreamRange(
      m.data_begin, m.data_size, [&](const RawEvent& e) { out.events.push_back(e); },
      cache, &out.skipped, cursor);
  return out;
}

class CursorResume : public ::testing::TestWithParam<std::tuple<uint8_t, bool>> {};

// The offline analyzer saves a copy of its decode cursor before every
// segment it fingerprints and later resumes a leader's segment from that
// copy. For every segment boundary b and every segment m, StreamRange of m
// resumed from the cursor saved at b must yield exactly what a cold
// StreamRange of m yields - the same status, events and skipped bytes -
// whether the cursor lies before m in its frame, in another frame, or past
// m. Salvaged logs (a corrupt middle frame, a truncated tail) included.
TEST_P(CursorResume, ResumedStreamEqualsColdStreamAtEverySegmentBoundary) {
  const auto [format, salvaged] = GetParam();
  WriterFixture fx;
  WriteRandomSegments(fx, format, 40, 1000 + format);
  const std::vector<IntervalMeta> segs = ReadIntervals(fx);
  ASSERT_EQ(segs.size(), 40u);
  auto reader = salvaged ? DamageAndSalvage(fx.dir.File("t0.log"))
                         : LogReader::Open(fx.dir.File("t0.log"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const LogReader& log = reader.value();
  ASSERT_GT(log.frame_count(), 4u);
  if (salvaged) {
    ASSERT_FALSE(log.salvage_stats().clean());
  }

  std::vector<StreamOutcome> cold;
  uint64_t cold_skipped = 0;
  for (const IntervalMeta& m : segs) {
    cold.push_back(Stream(log, m, nullptr, nullptr));
    cold_skipped += cold.back().skipped;
  }
  EXPECT_EQ(cold_skipped > 0, salvaged);  // the damage reaches some segments

  // One forward walk, as pass 1 makes it, saving the cursor before each
  // segment; the walk itself must match the cold streams too.
  FrameCache cache;
  DecodeCursor walk;
  std::vector<DecodeCursor> saved;
  uint64_t mid_frame = 0;
  for (size_t k = 0; k < segs.size(); k++) {
    saved.push_back(walk);
    if (walk.valid && walk.pos == segs[k].data_begin) mid_frame++;
    const StreamOutcome got = Stream(log, segs[k], &cache, &walk);
    EXPECT_EQ(got.status.ToString(), cold[k].status.ToString()) << "walk " << k;
    EXPECT_EQ(got.events, cold[k].events) << "walk " << k;
    EXPECT_EQ(got.skipped, cold[k].skipped) << "walk " << k;
  }
  EXPECT_GT(mid_frame, 10u);  // many segments start inside a frame

  for (size_t b = 0; b < saved.size(); b++) {
    for (size_t m = 0; m < segs.size(); m++) {
      DecodeCursor resume = saved[b];
      const StreamOutcome got = Stream(log, segs[m], &cache, &resume);
      ASSERT_EQ(got.status.ToString(), cold[m].status.ToString())
          << "boundary " << b << ", segment " << m;
      ASSERT_EQ(got.events, cold[m].events) << "boundary " << b << ", segment " << m;
      ASSERT_EQ(got.skipped, cold[m].skipped) << "boundary " << b << ", segment " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, CursorResume,
    ::testing::Combine(::testing::Values(kTraceFormatV2, kTraceFormatV3),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint8_t, bool>>& info) {
      return std::string("V") + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Salvaged" : "Intact");
    });

// ------------------------------------ block decoder vs per-event reference

/// A random v2/v3 event covering every tag path: accesses with inline,
/// explicit and extended size codes, mutex events and, in v3, runs.
RawEvent RandomDeltaEvent(Rng& rng, uint8_t format) {
  const uint64_t pick = rng.Below(10);
  if (pick == 0) {
    const uint32_t lock = static_cast<uint32_t>(rng.Below(300));
    return rng.Chance(0.5) ? RawEvent::MutexAcquire(lock) : RawEvent::MutexRelease(lock);
  }
  static constexpr uint8_t kSizes[] = {1, 2, 4, 8, 16, 128, 3, 12, 200};
  const uint8_t size = kSizes[rng.Below(std::size(kSizes))];
  const uint8_t flags = static_cast<uint8_t>(rng.Chance(0.05) ? rng.Below(256) : rng.Below(4));
  const uint32_t pc = static_cast<uint32_t>(rng.Chance(0.1) ? rng.Next() : rng.Below(64));
  const uint64_t addr = rng.Chance(0.1) ? rng.Next() >> rng.Below(64)
                                        : 0x10000 + rng.Below(1 << 16) * 8;
  if (format >= kTraceFormatV3 && pick >= 7) {
    return RawEvent::Run(addr >> 8, 1 + rng.Below(64), 2 + rng.Below(100), size, flags, pc);
  }
  return RawEvent::Access(addr, size, flags, pc);
}

/// One frame of a differential log: its payload format, its (possibly
/// damaged) payload, and the event ends of the payload before the damage.
struct DiffFrame {
  uint8_t format = kTraceFormatV3;
  Bytes payload;
  std::vector<uint64_t> event_ends;
};

DiffFrame RandomDiffFrame(Rng& rng) {
  DiffFrame f;
  f.format = rng.Chance(0.5) ? kTraceFormatV2 : kTraceFormatV3;
  const uint64_t events = 1 + rng.Below(rng.Chance(0.3) ? 700 : 40);
  EventCodecState state;
  uint8_t buf[kMaxEventBytesV3];
  for (uint64_t i = 0; i < events; i++) {
    uint8_t* end = EncodeDeltaEvent(RandomDeltaEvent(rng, f.format), state, buf);
    f.payload.insert(f.payload.end(), buf, end);
    f.event_ends.push_back(f.payload.size());
  }
  switch (rng.Below(4)) {
    case 0:  // intact
      break;
    case 1:  // truncated
      f.payload.resize(1 + rng.Below(f.payload.size()));
      break;
    case 2:  // bit flips
      for (uint64_t k = 1 + rng.Below(3); k > 0; k--) {
        f.payload[rng.Below(f.payload.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
      }
      break;
    default:  // random bytes
      f.payload.resize(1 + rng.Below(64));
      for (uint8_t& b : f.payload) b = static_cast<uint8_t>(rng.Next());
  }
  return f;
}

/// What one range read produced.
struct RangeOutcome {
  Status status;
  std::vector<RawEvent> events;
};

void ExpectSameCursor(const DecodeCursor& got, const DecodeCursor& want,
                      const std::string& what) {
  EXPECT_EQ(got.valid, want.valid) << what;
  EXPECT_EQ(got.frame_begin, want.frame_begin) << what;
  EXPECT_EQ(got.pos, want.pos) << what;
  EXPECT_EQ(got.byte_offset, want.byte_offset) << what;
  EXPECT_EQ(got.state.prev_addr, want.state.prev_addr) << what;
}

// The block decoder behind StreamBlocks/StreamRange against the per-event
// decoder and range walk it replaced (tests/oracle/delta_decoder.h), on logs
// of random, truncated, bit-flipped and random-byte v2/v3 payloads, at
// random slice edges (event-aligned or not), with and without a decode
// cursor threaded through the calls: the same events, the same status and
// the same cursor after every call, in blocks of at most kDecodeBlockEvents.
TEST(BlockDecoder, MatchesPerEventReferenceOnFuzzedPayloads) {
  TempDir dir;
  const std::string path = dir.File("diff.log");
  Rng rng(20261021);
  uint64_t delivered = 0, failed = 0, full_blocks = 0, resumed = 0;
  for (int trial = 0; trial < 300 && !HasFailure(); trial++) {
    Bytes log;
    std::vector<oracle::ReferenceFrame> frames;
    std::vector<uint64_t> edges = {0};
    uint64_t logical = 0;
    for (uint64_t k = 1 + rng.Below(4); k > 0; k--) {
      const DiffFrame f = RandomDiffFrame(rng);
      ASSERT_TRUE(
          WriteFrame(*FindCompressor("raw"), f.payload.data(), f.payload.size(), &log,
                     f.format)
              .ok());
      for (const uint64_t end : f.event_ends) edges.push_back(logical + end);
      frames.push_back({logical, f.format, f.payload});
      logical += f.payload.size();
    }
    ASSERT_TRUE(WriteFile(path, log).ok());
    auto reader = LogReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ(reader.value().total_logical_bytes(), logical);

    // An edge: mostly a pristine event end, sometimes any byte or past the end.
    auto edge = [&] {
      return rng.Chance(0.8) ? edges[rng.Below(edges.size())] : rng.Below(logical + 8);
    };
    FrameCache cache;
    DecodeCursor got_cursor, want_cursor;
    uint64_t next_begin = 0;
    for (int call = 0; call < 40; call++) {
      const bool with_cursor = call >= 20;
      uint64_t begin = edge();
      if (with_cursor && rng.Chance(0.7)) begin = next_begin;  // mostly forward
      const uint64_t end = std::max(begin, edge());
      next_begin = end;
      const std::string what = "trial " + std::to_string(trial) + " call " +
                               std::to_string(call) + " [" + std::to_string(begin) +
                               ", " + std::to_string(end) + ")";

      RangeOutcome want, got, blocks;
      want.status = oracle::ReferenceStreamRange(
          frames, begin, end - begin, [&](const RawEvent& e) { want.events.push_back(e); },
          with_cursor ? &want_cursor : nullptr);
      DecodeCursor before = got_cursor;
      got.status = reader.value().StreamRange(
          begin, end - begin, [&](const RawEvent& e) { got.events.push_back(e); },
          rng.Chance(0.5) ? &cache : nullptr, nullptr, with_cursor ? &got_cursor : nullptr);
      // StreamBlocks from the same cursor position delivers the same events.
      blocks.status = reader.value().StreamBlocks(
          begin, end - begin,
          [&](std::span<const RawEvent> block) {
            EXPECT_GE(block.size(), 1u) << what;
            EXPECT_LE(block.size(), kDecodeBlockEvents) << what;
            full_blocks += block.size() == kDecodeBlockEvents;
            blocks.events.insert(blocks.events.end(), block.begin(), block.end());
          },
          &cache, nullptr, with_cursor ? &before : nullptr);

      EXPECT_EQ(got.status.ToString(), want.status.ToString()) << what;
      EXPECT_EQ(got.events, want.events) << what;
      EXPECT_EQ(blocks.status.ToString(), want.status.ToString()) << what;
      EXPECT_EQ(blocks.events, want.events) << what;
      if (with_cursor) {
        ExpectSameCursor(got_cursor, want_cursor, what);
        ExpectSameCursor(before, want_cursor, what + " (blocks)");
        resumed += got_cursor.valid && got_cursor.pos > got_cursor.frame_begin;
      }
      delivered += want.events.size();
      failed += !want.status.ok();
      if (HasFailure()) break;
    }
  }
  // The corpus reaches every outcome.
  EXPECT_GT(delivered, 10000u);
  EXPECT_GT(failed, 1000u);
  EXPECT_GT(full_blocks, 10u);
  EXPECT_GT(resumed, 500u);
}

// --------------------------------------------------- multi-worker pipeline

TEST(FlusherPool, MultiProducerStressKeepsPerFileFrameOrder) {
  // N producers x M files each, through a small queue so producers hit
  // backpressure, with a mid-run Drain. Every file must afterwards hold its
  // frames in exactly submission order.
  constexpr int kProducers = 8;
  constexpr int kFilesPerProducer = 3;
  constexpr int kFramesPerFile = 25;

  TempDir dir;
  MemoryScope mem{"stress"};
  FlusherConfig fc;
  fc.async = true;
  fc.workers = 3;
  fc.max_queued_jobs = 2;  // force backpressure
  fc.memory = &mem;
  Flusher flusher(fc);
  EXPECT_EQ(flusher.workers(), 3u);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (int seq = 0; seq < kFramesPerFile; seq++) {
        for (int f = 0; f < kFilesPerProducer; f++) {
          const std::string path = dir.File(std::string("p")
                                                .append(std::to_string(p))
                                                .append("_f")
                                                .append(std::to_string(f))
                                                .append(".log"));
          // Payload carries the sequence number; big enough to compress.
          // Acquired from the pool like the real writer path, so buffers
          // recycle through AppendFrame and stay charged to the scope.
          Bytes payload = flusher.pool().Acquire(256);
          payload.assign(256, static_cast<uint8_t>(seq));
          flusher.AppendFrame(path, std::move(payload), nullptr);
        }
        if (seq == kFramesPerFile / 2 && p == 0) flusher.Drain();
      }
    });
  }
  for (auto& t : producers) t.join();
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok()) << flusher.status().ToString();

  const FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.jobs_enqueued,
            uint64_t(kProducers) * kFilesPerProducer * kFramesPerFile);
  EXPECT_EQ(stats.jobs_completed, stats.jobs_enqueued);
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.worker_bytes_in.size(), 3u);
  uint64_t worker_total = 0;
  for (uint64_t b : stats.worker_bytes_in) worker_total += b;
  EXPECT_EQ(worker_total, stats.bytes_in);

  for (int p = 0; p < kProducers; p++) {
    for (int f = 0; f < kFilesPerProducer; f++) {
      const std::string path = dir.File(std::string("p")
                                            .append(std::to_string(p))
                                            .append("_f")
                                            .append(std::to_string(f))
                                            .append(".log"));
      auto data = ReadFileBytes(path);
      ASSERT_TRUE(data.ok());
      ByteReader r(data.value());
      for (int seq = 0; seq < kFramesPerFile; seq++) {
        FrameView view;
        ASSERT_TRUE(ReadFrame(r, &view).ok()) << path << " frame " << seq;
        ASSERT_EQ(view.data.size(), 256u);
        EXPECT_EQ(view.data[0], static_cast<uint8_t>(seq))
            << path << ": frame order violated";
      }
      EXPECT_TRUE(r.AtEnd());
    }
  }
  // All pooled/recycled buffer memory is released when pool + writers die.
  // (Checked after the flusher goes out of scope in the destructor test
  // below; here just confirm accounting stayed active.)
  EXPECT_GT(mem.peak(), 0u);
}

TEST(FlusherPool, BackpressureBoundsQueueAndCountsStalls) {
  TempDir dir;
  FlusherConfig fc;
  fc.async = true;
  fc.workers = 1;
  fc.max_queued_jobs = 2;
  Flusher flusher(fc);
  // Many large compress jobs through a depth-2 queue from one producer:
  // the producer must have been stalled at least once.
  for (int i = 0; i < 64; i++) {
    flusher.AppendFrame(dir.File("bp.log"), Bytes(64 * 1024, 0xab), nullptr);
  }
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok());
  const FlusherStats stats = flusher.stats();
  EXPECT_GT(stats.producer_blocks, 0u);
  EXPECT_GT(stats.blocked_nanos, 0u);
  EXPECT_EQ(stats.jobs_completed, 64u);
}

TEST(BufferPoolTest, RecyclesAndChargesScope) {
  MemoryScope mem{"pool-test"};
  BufferPool pool(/*max_free=*/1, &mem);
  Bytes a = pool.Acquire(100);
  Bytes b = pool.Acquire(200);
  EXPECT_GE(a.capacity(), 100u);
  EXPECT_EQ(pool.allocations(), 2u);
  const uint64_t both = mem.current();
  EXPECT_GE(both, 300u);

  pool.Release(std::move(a));  // kept on the free list, still charged
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(mem.current(), both);

  pool.Release(std::move(b));  // free list full: freed and un-charged
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_LT(mem.current(), both);

  Bytes c = pool.Acquire(50);  // recycled, no new allocation
  EXPECT_EQ(pool.recycles(), 1u);
  EXPECT_EQ(pool.allocations(), 2u);
  EXPECT_TRUE(c.empty());
  pool.Release(std::move(c));
}

TEST(BufferPoolTest, DestructorReleasesFreeListCharges) {
  MemoryScope mem{"pool-dtor"};
  {
    BufferPool pool(/*max_free=*/4, &mem);
    for (int i = 0; i < 3; i++) pool.Release(pool.Acquire(1024));
    EXPECT_GT(mem.current(), 0u);
  }
  EXPECT_EQ(mem.current(), 0u);
}

TEST(FrameCacheTest, LruEvictionStaysUnderByteCap) {
  FrameCache cache(/*max_bytes=*/100);
  int owner;  // any stable address works as the reader identity
  cache.Insert(&owner, 0, Bytes(60, 0));
  EXPECT_NE(cache.Lookup(&owner, 0), nullptr);
  cache.Insert(&owner, 60, Bytes(60, 1));  // 120 bytes: evicts LRU (offset 0)
  EXPECT_LE(cache.byte_size(), 100u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.Lookup(&owner, 0), nullptr);
  EXPECT_NE(cache.Lookup(&owner, 60), nullptr);

  // An over-cap frame still gets cached (the newest entry always survives).
  cache.Insert(&owner, 120, Bytes(500, 2));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.Lookup(&owner, 120), nullptr);

  // Lookup refreshes recency: with room for two, touching the older entry
  // makes the untouched one the eviction victim.
  FrameCache lru(/*max_bytes=*/120);
  lru.Insert(&owner, 0, Bytes(50, 0));
  lru.Insert(&owner, 50, Bytes(50, 1));
  ASSERT_NE(lru.Lookup(&owner, 0), nullptr);   // offset 0 is now MRU
  lru.Insert(&owner, 100, Bytes(50, 2));       // evicts offset 50
  EXPECT_NE(lru.Lookup(&owner, 0), nullptr);
  EXPECT_EQ(lru.Lookup(&owner, 50), nullptr);
  EXPECT_NE(lru.Lookup(&owner, 100), nullptr);
}

}  // namespace
}  // namespace sword::trace
