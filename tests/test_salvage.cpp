// Salvage-mode tests: the corruption matrix (truncate a 3-frame log at every
// byte; flip every bit position once) for every event format, properties of
// the one log walk behind strict open, salvage open and VerifyLog,
// salvage-mode store opening, meta plausibility validation, and
// degraded-but-honest offline analysis of damaged traces.
#include <gtest/gtest.h>

#include <csignal>
#include <tuple>
#include <vector>

#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword::offline {
namespace {

constexpr uint64_t kEventsPerFrame = 10;

trace::SalvagePolicy Salvage() {
  trace::SalvagePolicy p;
  p.enabled = true;
  return p;
}

trace::IntervalMeta Meta(uint32_t lane, uint32_t span, uint64_t phase = 0) {
  trace::IntervalMeta m;
  m.region = 0;
  m.parent_region = trace::IntervalMeta::kNoParent;
  m.phase = phase;
  osl::Label label = osl::Label::Initial().Fork(lane, span);
  for (uint64_t p = 0; p < phase; p++) label = label.AfterBarrier();
  m.label = label;
  m.level = 1;
  m.lane = lane;
  return m;
}

/// A deterministic 3-frame log (10 events per frame) plus ground truth.
struct MatrixLog {
  std::vector<trace::RawEvent> events;  // all 30, in stream order
  Bytes file;                           // pristine log bytes
  std::vector<uint64_t> frame_ends;     // file offset of each frame's end
};

/// Rewrites every data frame of `file` to carry `magic`, re-sealing its
/// payload checksum with the one `magic` names - how a log written before
/// the "SW3H" magic looks.
void ResealDataFrames(Bytes& file, uint32_t magic) {
  ByteReader r(file);
  while (!r.AtEnd()) {
    const size_t at = r.position();
    FrameHeader header;
    ASSERT_TRUE(ParseFrameHeader(r, &header).ok());
    ASSERT_TRUE(r.Skip(header.payload_size).ok());
    if (header.payload_format == 0) continue;  // a marker
    const size_t payload = at + header.header_size;
    const uint64_t checksum =
        FrameChecksum(magic, file.data() + payload, header.payload_size);
    for (size_t i = 0; i < 4; i++) file[at + i] = static_cast<uint8_t>(magic >> (8 * i));
    for (size_t i = 0; i < 8; i++) {
      file[payload - 8 + i] = static_cast<uint8_t>(checksum >> (8 * i));
    }
  }
}

/// A row of the corruption matrix: an event format, and the data-frame
/// magic its log carries (0: the one the writer emits).
struct MatrixFormat {
  uint8_t format;
  uint32_t magic = 0;
};

void PrintTo(const MatrixFormat& f, std::ostream* os) {
  *os << "format v" << int(f.format) << ", magic 0x" << std::hex << f.magic << std::dec;
}

MatrixLog BuildMatrixLog(uint8_t format, const std::string& dir, uint32_t magic = 0) {
  MatrixLog log;
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir + "/matrix.log";
  wc.meta_path = dir + "/matrix.meta";
  wc.buffer_bytes = 16 * kEventsPerFrame;  // 10 events per frame
  wc.flusher = &flusher;
  wc.format = format;
  wc.codec = FindCompressor("raw");
  trace::ThreadTraceWriter writer(0, wc);
  writer.BeginSegment(Meta(0, 2));
  for (uint32_t i = 0; i < 3 * kEventsPerFrame; i++) {
    // Low-valued bytes on purpose: the payload must not accidentally contain
    // a frame-magic byte sequence, or resynchronization offsets would depend
    // on the event data. v3 logs interleave coalesced run events so the
    // matrix also covers the v3-only payload shape.
    trace::RawEvent e =
        format >= trace::kTraceFormatV3 && i % 5 == 4
            ? trace::RawEvent::Run(0x2000 + i * 8, 8, 3, 8, i % 2, /*pc=*/i)
            : trace::RawEvent::Access(0x2000 + i * 8, 8, i % 2, /*pc=*/i);
    writer.Append(e);
    log.events.push_back(e);
  }
  writer.EndSegment();
  EXPECT_TRUE(writer.Finish().ok());

  auto bytes = ReadFileBytes(wc.log_path);
  EXPECT_TRUE(bytes.ok());
  log.file = bytes.value();
  if (magic != 0) ResealDataFrames(log.file, magic);
  ByteReader r(log.file);
  while (!r.AtEnd()) {
    FrameHeader header;
    if (!ParseFrameHeader(r, &header).ok() || !r.Skip(header.payload_size).ok()) {
      ADD_FAILURE() << "unparseable frame at " << r.position();
      break;
    }
    if (magic != 0) {
      EXPECT_EQ(header.magic, magic);
    }
    log.frame_ends.push_back(r.position());
  }
  EXPECT_EQ(log.frame_ends.size(), 3u);
  return log;
}

/// True if `sub` is an ordered subsequence of `all`.
bool IsSubsequence(const std::vector<trace::RawEvent>& sub,
                   const std::vector<trace::RawEvent>& all) {
  size_t j = 0;
  for (const auto& e : all) {
    if (j < sub.size() && sub[j] == e) j++;
  }
  return j == sub.size();
}

std::vector<trace::RawEvent> StreamAll(const trace::LogReader& reader,
                                       uint64_t* bytes_skipped = nullptr) {
  std::vector<trace::RawEvent> out;
  const Status s = reader.StreamRange(
      0, reader.total_logical_bytes(),
      [&](const trace::RawEvent& e) { out.push_back(e); }, nullptr,
      bytes_skipped);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

class CorruptionMatrix : public ::testing::TestWithParam<MatrixFormat> {
 protected:
  MatrixLog BuildLog(const std::string& dir) {
    return BuildMatrixLog(GetParam().format, dir, GetParam().magic);
  }
};

TEST_P(CorruptionMatrix, TruncationAtEveryByte) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("trunc.log");

  for (size_t len = 0; len < log.file.size(); len++) {
    ASSERT_TRUE(
        WriteFile(path, Bytes(log.file.begin(), log.file.begin() + len)).ok());
    size_t complete = 0;
    while (complete < log.frame_ends.size() && log.frame_ends[complete] <= len) {
      complete++;
    }
    const bool at_boundary =
        len == 0 || (complete > 0 && log.frame_ends[complete - 1] == len);

    // Strict: a file that does not end exactly on a frame boundary is
    // rejected wholesale.
    auto strict = trace::LogReader::Open(path);
    EXPECT_EQ(strict.ok(), at_boundary) << "format " << int(GetParam().format)
                                        << " truncated at " << len;

    // Salvage: always opens; recovers exactly the complete frames and
    // accounts for every remaining byte.
    auto salvaged = trace::LogReader::Open(path, Salvage());
    ASSERT_TRUE(salvaged.ok()) << "truncated at " << len;
    const trace::SalvageStats& ss = salvaged.value().salvage_stats();
    EXPECT_EQ(ss.frames_ok, complete) << "truncated at " << len;
    const uint64_t tail_begin = complete > 0 ? log.frame_ends[complete - 1] : 0;
    EXPECT_EQ(ss.truncated_tail_bytes + ss.bytes_skipped, len - tail_begin)
        << "truncated at " << len;
    EXPECT_EQ(ss.clean(), at_boundary);

    const auto events = StreamAll(salvaged.value());
    ASSERT_EQ(events.size(), complete * kEventsPerFrame) << "truncated at " << len;
    for (size_t i = 0; i < events.size(); i++) {
      ASSERT_EQ(events[i], log.events[i]) << "truncated at " << len;
    }
  }
}

TEST_P(CorruptionMatrix, BitFlipAtEveryByte) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("flip.log");

  for (size_t pos = 0; pos < log.file.size(); pos++) {
    Bytes damaged = log.file;
    damaged[pos] ^= 0x01;
    ASSERT_TRUE(WriteFile(path, damaged).ok());

    // Strict must never silently return wrong data: either the open fails,
    // or streaming fails, or - impossible for a checksummed format - the
    // data would have to come back intact.
    auto strict = trace::LogReader::Open(path);
    if (strict.ok()) {
      std::vector<trace::RawEvent> events;
      const Status s = strict.value().StreamRange(
          0, strict.value().total_logical_bytes(),
          [&](const trace::RawEvent& e) { events.push_back(e); });
      EXPECT_FALSE(s.ok()) << "flip at " << pos
                           << " undetected by the strict reader";
    }

    // Salvage: always opens, never crashes, reports the damage, and streams
    // only frames whose checksum still holds - a subsequence of the truth.
    auto salvaged = trace::LogReader::Open(path, Salvage());
    ASSERT_TRUE(salvaged.ok()) << "flip at " << pos;
    const trace::SalvageStats& ss = salvaged.value().salvage_stats();
    EXPECT_FALSE(ss.clean()) << "flip at " << pos << " went unnoticed";
    uint64_t skipped = 0;
    const auto events = StreamAll(salvaged.value(), &skipped);
    EXPECT_EQ(events.size(), ss.frames_ok * kEventsPerFrame) << "flip at " << pos;
    EXPECT_TRUE(IsSubsequence(events, log.events)) << "flip at " << pos;
  }
}

// Crash-marker rows: the fatal-signal sealer appends a fixed 13-byte "SWCR"
// marker wherever the process happened to be. A marker is honest evidence,
// not damage - the log stays clean when the marker is the only anomaly.

// Between frames: the normal seal position (the handler appends after the
// last complete frame). Both strict and salvage readers accept it, every
// event survives, and the log is still clean().
TEST_P(CorruptionMatrix, CrashMarkerBetweenFramesKeepsLogClean) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("seal.log");

  Bytes sealed(log.file.begin(),
               log.file.begin() + static_cast<long>(log.frame_ends[0]));
  WriteCrashMarkerFrame(&sealed, SIGSEGV);
  sealed.insert(sealed.end(),
                log.file.begin() + static_cast<long>(log.frame_ends[0]),
                log.file.end());
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  // Strict: a marker is a legal frame, not corruption.
  auto strict = trace::LogReader::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_TRUE(ss.clean());
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGSEGV);
  EXPECT_EQ(ss.frames_ok, 3u);

  // The marker occupies ZERO logical bytes: every event streams through at
  // its original offset.
  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), log.events.size());
  for (size_t i = 0; i < events.size(); i++) {
    ASSERT_EQ(events[i], log.events[i]);
  }
}

// Mid-frame: the process died while a frame append was in flight, so the
// marker lands on top of a torn frame. Salvage resynchronizes at the marker,
// accounts the torn bytes, and still reports the seal.
TEST_P(CorruptionMatrix, CrashMarkerAfterTornFrameStillReported) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("torn_seal.log");

  // Cut frame 2 in half, then seal.
  const uint64_t cut =
      log.frame_ends[0] + (log.frame_ends[1] - log.frame_ends[0]) / 2;
  Bytes sealed(log.file.begin(), log.file.begin() + static_cast<long>(cut));
  WriteCrashMarkerFrame(&sealed, SIGBUS);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGBUS);
  EXPECT_EQ(ss.frames_ok, 1u);
  EXPECT_FALSE(ss.clean());  // the torn frame is damage; the marker is not
  // Every byte of the torn frame is accounted one way or another.
  EXPECT_EQ(ss.bytes_skipped + ss.truncated_tail_bytes,
            cut - log.frame_ends[0]);

  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), kEventsPerFrame);
  for (size_t i = 0; i < events.size(); i++) {
    ASSERT_EQ(events[i], log.events[i]);
  }
}

// Before the first flush: the process died before ANY frame hit the disk.
// The sealed log is just one marker - zero events, but honest and clean.
TEST_P(CorruptionMatrix, CrashMarkerAloneIsACleanEmptyLog) {
  TempDir dir;
  const std::string path = dir.File("empty_seal.log");
  Bytes sealed;
  WriteCrashMarkerFrame(&sealed, SIGABRT);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_TRUE(ss.clean());
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGABRT);
  EXPECT_EQ(ss.frames_ok, 0u);
  EXPECT_EQ(salvaged.value().total_logical_bytes(), 0u);

  auto strict = trace::LogReader::Open(path);
  EXPECT_TRUE(strict.ok()) << strict.status().ToString();
}

TEST_P(CorruptionMatrix, VerifyLogReportsCrashMarkerRow) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("verify_seal.log");
  Bytes sealed = log.file;
  WriteCrashMarkerFrame(&sealed, SIGFPE);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  std::vector<trace::FrameRecord> records;
  auto stats = trace::LogReader::VerifyLog(
      path, [&](const trace::FrameRecord& f) { records.push_back(f); });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_TRUE(records[3].is_crash);
  EXPECT_EQ(records[3].crash_signo, SIGFPE);
  EXPECT_TRUE(records[3].status.ok());
  EXPECT_EQ(stats.value().crash_markers, 1u);
  EXPECT_EQ(stats.value().crash_signo, SIGFPE);
}

// --- properties of the one log walk ----------------------------------------

/// Writes every truncation and then every single-bit flip of `file` to
/// `path`, calling `check(what)` after each.
template <typename Check>
void ForEachCutAndFlip(const Bytes& file, const std::string& path, Check check) {
  for (size_t len = 0; len < file.size(); len++) {
    ASSERT_TRUE(WriteFile(path, Bytes(file.begin(), file.begin() + len)).ok());
    check("truncated at " + std::to_string(len));
  }
  for (size_t bit = 0; bit < file.size() * 8; bit++) {
    Bytes damaged = file;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    check("bit " + std::to_string(bit % 8) + " of byte " + std::to_string(bit / 8));
  }
}

auto StatsFields(const trace::SalvageStats& s) {
  return std::make_tuple(s.frames_ok, s.frames_corrupt, s.frames_unaddressable,
                         s.gap_frames, s.events_dropped_at_record,
                         s.bytes_dropped_at_record, s.resyncs, s.bytes_skipped,
                         s.truncated_tail_bytes, s.crash_markers, s.crash_signo);
}

/// Whenever strict Open accepts `path`, salvage Open indexes the same frames
/// over the same logical extent. Returns whether strict opened.
bool ExpectStrictAndSalvageAgree(const std::string& path, const std::string& what) {
  auto strict = trace::LogReader::Open(path);
  if (!strict.ok()) return false;
  auto salvaged = trace::LogReader::Open(path, Salvage());
  EXPECT_TRUE(salvaged.ok()) << what;
  if (!salvaged.ok()) return true;
  EXPECT_EQ(strict.value().frame_count(), salvaged.value().frame_count()) << what;
  EXPECT_EQ(strict.value().total_logical_bytes(),
            salvaged.value().total_logical_bytes())
      << what;
  return true;
}

// The walk's records tile the file - in order, contiguous, from byte 0 to
// EOF - under every cut and bit flip, and salvage Open reports exactly the
// stats VerifyLog does.
TEST_P(CorruptionMatrix, WalkRecordsTileTheFileAndMatchSalvageOpen) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("walk.log");
  ForEachCutAndFlip(log.file, path, [&](const std::string& what) {
    auto size = FileSize(path);
    ASSERT_TRUE(size.ok());
    std::vector<trace::FrameRecord> records;
    auto verified = trace::LogReader::VerifyLog(
        path, [&](const trace::FrameRecord& f) { records.push_back(f); });
    ASSERT_TRUE(verified.ok()) << what;
    uint64_t next = 0;
    for (size_t i = 0; i < records.size(); i++) {
      EXPECT_EQ(records[i].index, i) << what;
      EXPECT_EQ(records[i].file_offset, next) << what;
      EXPECT_GT(records[i].encoded_size, 0u) << what;
      next = records[i].file_offset + records[i].encoded_size;
    }
    EXPECT_EQ(next, size.value()) << what;

    auto salvaged = trace::LogReader::Open(path, Salvage());
    ASSERT_TRUE(salvaged.ok()) << what;
    EXPECT_EQ(StatsFields(salvaged.value().salvage_stats()),
              StatsFields(verified.value()))
        << what;
  });
}

TEST_P(CorruptionMatrix, StrictAndSalvageAgreeWheneverStrictOpens) {
  TempDir dir;
  const MatrixLog log = BuildLog(dir.path());
  const std::string path = dir.File("agree.log");
  uint64_t strict_opened = 0;
  ForEachCutAndFlip(log.file, path, [&](const std::string& what) {
    strict_opened += ExpectStrictAndSalvageAgree(path, what);
  });
  // The frame boundaries, and flips the checksum only catches on a read.
  EXPECT_GT(strict_opened, log.frame_ends.size() + 1);
}

// The v3 rows: the "SW3H" frames the writer emits, and the legacy "SW3F"
// frames (FNV checksum) of traces written before it, which readers keep.
INSTANTIATE_TEST_SUITE_P(Formats, CorruptionMatrix,
                         ::testing::Values(MatrixFormat{trace::kTraceFormatV1},
                                           MatrixFormat{trace::kTraceFormatV2},
                                           MatrixFormat{trace::kTraceFormatV3},
                                           MatrixFormat{trace::kTraceFormatV3,
                                                        kFrameMagicV3}),
                         [](const auto& info) {
                           std::string name("v");
                           name.append(std::to_string(info.param.format));
                           if (info.param.magic == kFrameMagicV3) name.append("_sw3f");
                           return name;
                         });

// --- targeted damage with exact expectations ------------------------------

TEST(SalvageReader, PayloadFlipLosesOnlyThatFrame) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(trace::kTraceFormatV1, dir.path());
  const std::string path = dir.File("t.log");
  // Flip a byte in the middle of frame 2's payload (raw codec: the payload
  // is the tail of the frame, so frame_ends[1] - 8 is inside it).
  Bytes damaged = log.file;
  damaged[log.frame_ends[1] - 8] ^= 0x10;
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_EQ(ss.frames_ok, 2u);
  EXPECT_EQ(ss.frames_corrupt, 1u);
  EXPECT_EQ(ss.frames_unaddressable, 0u);  // known-size hole: trust survives

  // Frames 1 and 3 stream at their original logical offsets; the hole in
  // the middle is skipped and accounted.
  uint64_t skipped = 0;
  const auto events = StreamAll(salvaged.value(), &skipped);
  EXPECT_EQ(skipped, kEventsPerFrame * 16u);
  ASSERT_EQ(events.size(), 2 * kEventsPerFrame);
  EXPECT_EQ(events[0], log.events[0]);
  EXPECT_EQ(events[kEventsPerFrame], log.events[2 * kEventsPerFrame]);
}

TEST(SalvageReader, MagicFlipCostsOffsetTrust) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(trace::kTraceFormatV1, dir.path());
  const std::string path = dir.File("t.log");
  Bytes damaged = log.file;
  damaged[log.frame_ends[0]] ^= 0x01;  // first byte of frame 2's magic
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  // Frame 1 is fine. The scan resynchronizes at frame 3's magic, but with
  // frame 2's header unparseable nothing vouches for frame 3's logical
  // offset - it is intact yet unaddressable.
  EXPECT_EQ(ss.frames_ok, 1u);
  EXPECT_GE(ss.resyncs, 1u);
  EXPECT_EQ(ss.frames_unaddressable, 1u);
  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), kEventsPerFrame);
  EXPECT_EQ(events[0], log.events[0]);
}

TEST(SalvageReader, VerifyLogListsEveryFrameWithStatus) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(trace::kTraceFormatV1, dir.path());
  const std::string path = dir.File("t.log");
  Bytes damaged = log.file;
  damaged[log.frame_ends[1] - 8] ^= 0x10;  // corrupt frame 2's payload
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  std::vector<trace::FrameRecord> records;
  auto stats = trace::LogReader::VerifyLog(
      path, [&](const trace::FrameRecord& f) { records.push_back(f); });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].status.ok());
  EXPECT_FALSE(records[1].status.ok());
  EXPECT_TRUE(records[2].status.ok());
  EXPECT_TRUE(records[2].offset_trusted);
  EXPECT_EQ(records[1].file_offset, log.frame_ends[0]);
  EXPECT_EQ(stats.value().frames_ok, 2u);
  EXPECT_EQ(stats.value().frames_corrupt, 1u);
}

// Frames larger than the walk's 64 KB read block: headers, checksums and
// resync scans cross block boundaries. Frame 0 is sized so that a scan from
// its second byte meets frame 1's magic straddling the first block's end.
TEST(SalvageReader, DamageAcrossReadBlocks) {
  const Compressor& raw = *FindCompressor("raw");
  const std::vector<size_t> payloads = {65513, 150000, 1000, 70001};
  Bytes log;
  std::vector<uint64_t> starts;
  for (const size_t n : payloads) {
    starts.push_back(log.size());
    const Bytes payload(n, 7);  // no frame magic inside
    ASSERT_TRUE(WriteFrame(raw, payload.data(), n, &log).ok());
  }
  starts.push_back(log.size());
  ASSERT_EQ(starts[1], 65535u);
  const uint64_t logical = 65513 + 150000 + 1000 + 70001;
  TempDir dir;
  const std::string path = dir.File("big.log");
  auto open = [&](const Bytes& file) {
    EXPECT_TRUE(WriteFile(path, file).ok());
    auto reader = trace::LogReader::Open(path, Salvage());
    EXPECT_TRUE(reader.ok());
    return reader.ok() ? reader.value().salvage_stats() : trace::SalvageStats{};
  };

  ASSERT_TRUE(WriteFile(path, log).ok());
  auto strict = trace::LogReader::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict.value().total_logical_bytes(), logical);
  EXPECT_TRUE(open(log).clean());

  for (size_t k = 0; k < payloads.size(); k++) {
    SCOPED_TRACE("frame " + std::to_string(k));
    const uint64_t size = starts[k + 1] - starts[k];
    Bytes damaged = log;
    damaged[starts[k + 1] - 1] ^= 0x01;  // the payload's last byte
    trace::SalvageStats ss = open(damaged);
    EXPECT_EQ(ss.frames_ok, payloads.size() - 1);
    EXPECT_EQ(ss.frames_corrupt, 1u);
    EXPECT_EQ(ss.resyncs + ss.bytes_skipped + ss.truncated_tail_bytes, 0u);

    damaged = log;
    damaged[starts[k]] ^= 0x01;  // the magic's first byte
    ss = open(damaged);
    EXPECT_EQ(ss.frames_ok, k);
    if (k + 1 < payloads.size()) {
      EXPECT_EQ(ss.resyncs, 1u);
      EXPECT_EQ(ss.bytes_skipped, size);
      EXPECT_EQ(ss.frames_unaddressable, payloads.size() - 1 - k);
    } else {
      EXPECT_EQ(ss.truncated_tail_bytes, size);
    }

    damaged.assign(log.begin(), log.begin() + static_cast<long>(starts[k] + size / 2));
    ss = open(damaged);
    EXPECT_EQ(ss.frames_ok, k);
    EXPECT_EQ(ss.truncated_tail_bytes, size / 2);
  }
}

// Strict Open rejects every defect the header alone proves, as salvage does.
// Both mutants opened strict before the two readers shared one walk.

TEST(StrictOpen, RejectsRawFrameWithFlippedRawSize) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(trace::kTraceFormatV1, dir.path());
  const std::string path = dir.File("t.log");
  // Frame 1's raw_size varint follows the magic and the length-prefixed
  // codec name "raw"; its low bit turns 160 into 161.
  const size_t raw_size_at = 4 + 1 + 3;
  Bytes damaged = log.file;
  ASSERT_EQ(damaged[raw_size_at], 0xa0);
  damaged[raw_size_at] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto strict = trace::LogReader::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("frame header at offset 0"),
            std::string::npos)
      << strict.status().ToString();

  // Salvage keeps the payload size as the hole's extent.
  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged.value().total_logical_bytes(), 3 * kEventsPerFrame * 16);
  EXPECT_EQ(salvaged.value().salvage_stats().frames_corrupt, 1u);
  EXPECT_EQ(salvaged.value().salvage_stats().frames_ok, 2u);
}

TEST(StrictOpen, RejectsUnknownCodec) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(trace::kTraceFormatV1, dir.path());
  const std::string path = dir.File("t.log");
  // Frame 2's codec name "raw" becomes "rav".
  const size_t name_at = log.frame_ends[0] + 4 + 1;
  Bytes damaged = log.file;
  ASSERT_EQ(damaged[name_at + 2], 'w');
  damaged[name_at + 2] = 'v';
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto strict = trace::LogReader::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("unknown codec"), std::string::npos)
      << strict.status().ToString();

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged.value().total_logical_bytes(), 3 * kEventsPerFrame * 16);
  EXPECT_EQ(salvaged.value().salvage_stats().frames_corrupt, 1u);
  EXPECT_EQ(salvaged.value().salvage_stats().frames_ok, 2u);
}

/// Overwrites or inserts one varint at a random spot (as test_trace's fuzz
/// targets do).
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

/// Reads the log a v3 writer leaves at `dir`/t0.log after `write`.
template <typename Write>
Bytes WriteV3Log(const TempDir& dir, uint64_t buffer_bytes, Write write) {
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t0.log");
  wc.meta_path = dir.File("t0.meta");
  wc.buffer_bytes = buffer_bytes;
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV3;
  trace::ThreadTraceWriter writer(0, wc);
  write(writer);
  EXPECT_TRUE(writer.Finish().ok());
  auto bytes = ReadFileBytes(wc.log_path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : Bytes{};
}

// The agreement property over the mutants of ReaderV3's fuzz target
// (test_trace.cpp): the same three seeds, the same mutation schedule.
TEST(WalkAgreement, FuzzedV3FramesStrictAndSalvageAgree) {
  std::vector<Bytes> seeds;
  {
    TempDir dir;
    seeds.push_back(WriteV3Log(dir, 512, [](trace::ThreadTraceWriter& writer) {
      Rng rng(99);
      for (uint32_t s = 0; s < 12; s++) {
        trace::IntervalMeta meta;
        meta.phase = s;
        meta.label = osl::Label::Initial().Fork(0, 2);
        writer.BeginSegment(meta);
        const int n = 1 + static_cast<int>(rng.Below(40));
        for (int i = 0; i < n; i++) {
          const uint32_t pc = static_cast<uint32_t>(rng.Below(6));
          switch (rng.Below(4)) {
            case 0: {
              const uint64_t base = 0x40000 + rng.Below(1 << 16) * 8;
              const uint64_t stride = 8 * (1 + rng.Below(3));
              const uint64_t count = 2 + rng.Below(12);
              for (uint64_t k = 0; k < count; k++) {
                writer.AppendAccess(base + k * stride, 8,
                                    static_cast<uint8_t>(rng.Below(2)), pc);
              }
              break;
            }
            case 1: {
              const bool acquire = rng.Chance(0.5);
              const auto lock = static_cast<uint32_t>(rng.Below(4));
              writer.Append(acquire ? trace::RawEvent::MutexAcquire(lock)
                                    : trace::RawEvent::MutexRelease(lock));
              break;
            }
            default:
              writer.AppendAccess(0x100000 + rng.Below(1 << 20),
                                  static_cast<uint8_t>(1u << rng.Below(4)),
                                  static_cast<uint8_t>(rng.Below(2)), pc);
          }
        }
        writer.EndSegment();
      }
    }));
    Bytes sealed = seeds.back();
    WriteCrashMarkerFrame(&sealed, 11);
    seeds.push_back(std::move(sealed));
  }
  {
    TempDir dir;
    seeds.push_back(WriteV3Log(dir, 1 << 16, [](trace::ThreadTraceWriter& writer) {
      trace::IntervalMeta meta;
      meta.label = osl::Label::Initial().Fork(0, 2);
      writer.BeginSegment(meta);
      for (uint64_t i = 0; i < 2000; i++) {
        writer.AppendAccess(0x8000 + (i % 50) * 8, 8, 1, 3);
      }
      writer.Append(trace::RawEvent::MutexAcquire(2));
      writer.AppendAccess(0x9000, 4, 0, 4);
      writer.Append(trace::RawEvent::MutexRelease(2));
      writer.EndSegment();
    }));
  }

  TempDir dir;
  const std::string path = dir.File("mutant.log");
  Rng rng(20261020);
  uint64_t strict_opened = 0;
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
    strict_opened += ExpectStrictAndSalvageAgree(path, "trial " + std::to_string(trial));
  }
  EXPECT_GT(strict_opened, 100u);
}

// --- store-level salvage and meta validation ------------------------------

/// Writes one thread's trace exactly like test_offline's SyntheticTrace.
void WriteThread(const std::string& dir, trace::Flusher& flusher, uint32_t tid,
                 uint8_t format, uint64_t buffer_bytes,
                 const std::vector<std::pair<trace::IntervalMeta,
                                             std::vector<trace::RawEvent>>>& segs) {
  trace::WriterConfig wc;
  wc.log_path = dir + "/sword_t" + std::to_string(tid) + ".log";
  wc.meta_path = dir + "/sword_t" + std::to_string(tid) + ".meta";
  wc.flusher = &flusher;
  wc.format = format;
  wc.buffer_bytes = buffer_bytes;
  trace::ThreadTraceWriter writer(tid, wc);
  for (const auto& [meta, events] : segs) {
    writer.BeginSegment(meta);
    for (const auto& e : events) writer.Append(e);
    writer.EndSegment();
  }
  ASSERT_TRUE(writer.Finish().ok());
}

uint64_t FirstFrameEnd(const std::string& log_path) {
  auto bytes = ReadFileBytes(log_path);
  EXPECT_TRUE(bytes.ok());
  ByteReader r(bytes.value());
  FrameHeader header;
  EXPECT_TRUE(ParseFrameHeader(r, &header).ok());
  EXPECT_TRUE(r.Skip(header.payload_size).ok());
  return r.position();
}

class SalvageAnalysis : public ::testing::TestWithParam<uint8_t> {};

// The acceptance scenario: a killed run truncated one thread's log; strict
// analysis must reject the trace, salvage analysis must still report the
// races recoverable from the surviving frames - with nonzero loss counters.
TEST_P(SalvageAnalysis, TruncatedRunStrictRejectsSalvageRecovers) {
  const uint8_t format = GetParam();
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  // Thread 0: one intact segment with the racing write.
  WriteThread(dir.path(), flusher, 0, format, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  // Thread 1: two segments, one frame each (10-event buffer); the racing
  // read lives in segment A, segment B's frame will be truncated away.
  std::vector<trace::RawEvent> seg_a{trace::RawEvent::Access(0x1000, 8, 0, 22)};
  for (uint32_t i = 1; i < 10; i++) {
    seg_a.push_back(trace::RawEvent::Access(0x9000 + i * 8, 8, 0, 23));
  }
  std::vector<trace::RawEvent> seg_b;
  for (uint32_t i = 0; i < 10; i++) {
    seg_b.push_back(trace::RawEvent::Access(0xa000 + i * 8, 8, 1, 24));
  }
  WriteThread(dir.path(), flusher, 1, format, 160,
              {{Meta(1, 2), seg_a}, {Meta(1, 2, 1), seg_b}});

  // The "crash": everything after thread 1's first frame never hit the disk.
  const std::string t1_log = dir.path() + "/sword_t1.log";
  ASSERT_TRUE(TruncateFile(t1_log, FirstFrameEnd(t1_log)).ok());

  // Strict mode rejects the trace: segment B's meta record now addresses
  // past the end of the log.
  auto strict = TraceStore::OpenDir(dir.path());
  EXPECT_FALSE(strict.ok());

  // Salvage mode analyzes what survived and accounts for what did not.
  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value().integrity().salvaged);

  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
  EXPECT_EQ(result.stats.events_missing, 10u);  // segment B, exactly
  EXPECT_GT(result.stats.bytes_skipped_read, 0u);
  EXPECT_TRUE(result.stats.integrity.salvaged);

  // The JSON report carries the integrity section (and keeps the pinned
  // "races-first" shape).
  const std::string json = RenderJson(result, [](uint32_t pc) {
    return "pc#" + std::to_string(pc);
  });
  EXPECT_EQ(json.rfind("{\"races\":[", 0), 0u);
  EXPECT_NE(json.find("\"integrity\":{\"salvaged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"events_missing\":10"), std::string::npos);
}

// Same crash, but the cut lands MID-frame: the log itself is damaged, not
// just short.
TEST_P(SalvageAnalysis, MidFrameTruncationStillAnalyzable) {
  const uint8_t format = GetParam();
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, format, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  std::vector<trace::RawEvent> seg_a{trace::RawEvent::Access(0x1000, 8, 0, 22)};
  for (uint32_t i = 1; i < 10; i++) {
    seg_a.push_back(trace::RawEvent::Access(0x9000 + i * 8, 8, 0, 23));
  }
  std::vector<trace::RawEvent> seg_b;
  for (uint32_t i = 0; i < 10; i++) {
    seg_b.push_back(trace::RawEvent::Access(0xa000 + i * 8, 8, 1, 24));
  }
  WriteThread(dir.path(), flusher, 1, format, 160,
              {{Meta(1, 2), seg_a}, {Meta(1, 2, 1), seg_b}});

  const std::string t1_log = dir.path() + "/sword_t1.log";
  ASSERT_TRUE(TruncateFile(t1_log, FirstFrameEnd(t1_log) + 7).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(store.value().integrity().clean());
  EXPECT_EQ(store.value().integrity().truncated_tail_bytes +
                store.value().integrity().bytes_skipped,
            7u);

  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
  EXPECT_EQ(result.stats.events_missing, 10u);
}

INSTANTIATE_TEST_SUITE_P(Formats, SalvageAnalysis,
                         ::testing::Values(trace::kTraceFormatV1,
                                           trace::kTraceFormatV2,
                                           trace::kTraceFormatV3),
                         [](const auto& info) {
                           return std::string("v").append(std::to_string(info.param));
                         });

TEST(MetaValidation, ImplausibleEventCountRejected) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV1, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});

  // Tamper: claim 5 events for a 16-byte v1 segment.
  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 1u);
  meta.intervals[0].event_count = 5;
  ASSERT_TRUE(WriteFile(meta_path, meta.Encode()).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().integrity().meta_records_rejected, 1u);
  EXPECT_EQ(store.value().TotalIntervals(), 0u);
}

TEST(MetaValidation, RecordBeyondLogRejectedStrictKeptInSalvage) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV1, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});

  // Tamper: a second record addressing data the log never received - the
  // exact shape a killed run leaves (checkpointed meta, unflushed events).
  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  trace::IntervalMeta ghost = Meta(0, 2, 1);
  ghost.data_begin = 16;
  ghost.data_size = 64;
  ghost.event_count = 4;
  meta.intervals.push_back(ghost);
  ASSERT_TRUE(WriteFile(meta_path, meta.Encode()).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  // Kept, not rejected: the reader clamps it at stream time and the
  // analysis reports its events as missing.
  EXPECT_EQ(store.value().integrity().meta_records_rejected, 0u);
  EXPECT_EQ(store.value().TotalIntervals(), 2u);
  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.events_missing, 4u);
}

TEST(MetaValidation, OverclaimingRecordReservesOnlyWhatItsLogHolds) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  // Descending accesses of one pc share a key, so thread 0's summary needs
  // its address index; pc 11 writes what pc 22 reads.
  std::vector<trace::RawEvent> events;
  for (uint32_t i = 0; i < 8; i++) {
    events.push_back(trace::RawEvent::Access(0x2000 - i * 64, 8, 1, 11));
  }
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV2, 2048,
              {{Meta(0, 2), events}});
  WriteThread(dir.path(), flusher, 1, trace::kTraceFormatV2, 2048,
              {{Meta(1, 2), {trace::RawEvent::Access(0x2000 - 3 * 64, 8, 0, 22)}}});

  // Tamper: thread 0's record claims a million events in a million bytes.
  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 1u);
  meta.intervals[0].event_count = 1 << 20;
  meta.intervals[0].data_size = 1 << 20;
  ASSERT_TRUE(WriteFile(meta_path, meta.Encode()).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());
  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().integrity().meta_records_rejected, 0u);

  // An index sized from the claim would allocate 2^21 8-byte slots (16 MiB)
  // and trip a 1 MiB cap; sized from the log's bytes it stays a few KiB.
  AnalysisConfig config;
  config.max_tree_bytes = 1 << 20;
  const AnalysisResult result = Analyze(store.value(), config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.buckets_memory_capped, 0u);
  EXPECT_LT(result.stats.peak_tree_bytes, 64u * 1024);
  EXPECT_EQ(result.stats.tree_nodes, 9u);
  EXPECT_EQ(result.stats.events_missing, (1u << 20) - 8);
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
}

TEST(MetaValidation, TornMetaTailRecoversCleanPrefix) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV1, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}},
               {Meta(0, 2, 1), {trace::RawEvent::Access(0x2000, 8, 1, 12)}}});

  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  // Tear the last few bytes off the second record.
  ASSERT_TRUE(TruncateFile(meta_path, bytes.value().size() - 3).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().integrity().meta_records_dropped, 1u);
  EXPECT_EQ(store.value().TotalIntervals(), 1u);
}

TEST(MetaValidation, MissingMetaCountedNotFatalInSalvage) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV1, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  WriteThread(dir.path(), flusher, 1, trace::kTraceFormatV1, 2048,
              {{Meta(1, 2), {trace::RawEvent::Access(0x1000, 8, 1, 22)}}});
  ASSERT_TRUE(RemoveFile(dir.path() + "/sword_t1.meta").ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().thread_count(), 2u);
  EXPECT_EQ(store.value().integrity().threads_missing_meta, 1u);
  // Thread 1's log is still open (sword-dump --verify can walk it); it just
  // contributes no intervals without its meta.
  EXPECT_EQ(store.value().TotalIntervals(), 1u);
}

TEST(SalvageReport, TextReportShowsIntegritySection) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, trace::kTraceFormatV1, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  const std::string log_path = dir.path() + "/sword_t0.log";
  const uint64_t size = FileSize(log_path).value();
  ASSERT_TRUE(TruncateFile(log_path, size - 3).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const AnalysisResult result = Analyze(store.value());
  const std::string text = RenderText(result, [](uint32_t pc) {
    return "pc#" + std::to_string(pc);
  });
  EXPECT_NE(text.find("trace integrity: DAMAGED (salvage mode)"),
            std::string::npos);
  EXPECT_NE(text.find("truncated tail byte(s)"), std::string::npos);
}

}  // namespace
}  // namespace sword::offline
