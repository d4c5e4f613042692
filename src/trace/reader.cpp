#include "trace/reader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/fsutil.h"
#include "compress/frame.h"

namespace sword::trace {

const Bytes* FrameCache::Lookup(const void* reader, uint64_t logical_begin) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->reader == reader && it->logical_begin == logical_begin) {
      entries_.splice(entries_.begin(), entries_, it);  // bump to MRU
      hits++;
      return &entries_.front().data;
    }
  }
  return nullptr;
}

const Bytes* FrameCache::Insert(const void* reader, uint64_t logical_begin, Bytes data) {
  bytes_ += data.size();
  entries_.push_front(Entry{reader, logical_begin, std::move(data)});
  misses++;
  // Evict LRU past the cap; the entry just inserted always survives so an
  // over-cap frame still gets served from the cache it was stored into.
  while (bytes_ > max_bytes_ && entries_.size() > 1) {
    bytes_ -= entries_.back().data.size();
    entries_.pop_back();
  }
  return &entries_.front().data;
}

namespace {

/// Matches a frame magic byte-by-byte (the on-disk encoding is little-endian
/// regardless of host order, see ByteWriter::PutU32).
bool MagicAt(const uint8_t* p, uint32_t magic) {
  return p[0] == (magic & 0xffu) && p[1] == ((magic >> 8) & 0xffu) &&
         p[2] == ((magic >> 16) & 0xffu) && p[3] == ((magic >> 24) & 0xffu);
}

bool AnyMagicAt(const uint8_t* p) {
  return MagicAt(p, kFrameMagic) || MagicAt(p, kFrameMagicV2) ||
         MagicAt(p, kFrameMagicV3) || MagicAt(p, kFrameMagicGap) ||
         MagicAt(p, kFrameMagicCrash);
}

/// Offset of the first frame magic at or after `from`, or `size` if none.
size_t FindNextMagic(const uint8_t* data, size_t size, size_t from) {
  for (size_t i = from; i + 4 <= size; ++i) {
    if (AnyMagicAt(data + i)) return i;
  }
  return size;
}

/// One frame or damaged region found by ScanLogBuffer, in file order.
struct ScannedFrame {
  uint64_t file_offset = 0;
  uint64_t encoded_size = 0;
  uint64_t raw_size = 0;
  uint8_t payload_format = 0;  // 0 for gaps and unidentifiable regions
  std::string codec;
  bool is_gap = false;
  uint64_t dropped_events = 0;
  bool is_crash = false;        // fatal-signal crash marker
  uint8_t crash_signo = 0;
  bool offset_trusted = false;  // logical_begin is meaningful
  bool size_known = false;      // raw_size can be trusted (even if corrupt)
  uint64_t logical_begin = 0;
  Status status;
};

/// Salvage scanner: walks the whole file, resynchronizing on damage, and
/// reports every frame and skipped region. This is THE definition of the
/// offset-trust rules (see docs/FORMAT.md):
///   - intact frame: trusted, advances the logical stream;
///   - checksum-mismatch frame whose claimed end lands on a valid next magic
///     (or exactly at EOF): a known-size hole - later offsets stay trusted;
///   - unparseable header / implausible claimed end: unknown-size hole -
///     trust is lost and every later frame is "unaddressable";
///   - gap frame: record-time drop marker, a trusted hole by construction.
void ScanLogBuffer(const uint8_t* data, size_t size,
                   std::vector<ScannedFrame>* frames, SalvageStats* stats) {
  size_t off = 0;
  bool trusted = true;
  uint64_t logical = 0;
  while (off < size) {
    ScannedFrame sf;
    sf.file_offset = off;
    sf.offset_trusted = trusted;
    sf.logical_begin = logical;

    if (size - off < 4 || !AnyMagicAt(data + off)) {
      const size_t next = FindNextMagic(data, size, off + 1);
      if (next == size) {
        stats->truncated_tail_bytes += size - off;
        sf.encoded_size = size - off;
        sf.status = Status::Corrupt("unrecognized bytes to end of file");
        frames->push_back(std::move(sf));
        break;
      }
      stats->resyncs++;
      stats->bytes_skipped += next - off;
      stats->frames_corrupt++;
      trusted = false;  // unknown how many logical bytes the hole held
      sf.encoded_size = next - off;
      sf.status = Status::Corrupt("unrecognized bytes; resynchronized");
      frames->push_back(std::move(sf));
      off = next;
      continue;
    }

    Status bad;  // why this spot failed to parse, for the resync record
    if (MagicAt(data + off, kFrameMagicCrash)) {
      // Fatal-signal crash marker: fixed 13 bytes, zero logical extent. A
      // marker mid-stream is expected evidence (the sealer appends it no
      // matter where a concurrent flush was torn); a checksum failure here
      // falls through to the normal resync path.
      ByteReader cr(data + off, size - off);
      FrameView view;
      Status s = ReadFrame(cr, &view);
      if (s.ok()) {
        sf.is_crash = true;
        sf.crash_signo = view.crash_signo;
        sf.size_known = true;
        sf.raw_size = 0;
        sf.encoded_size = view.frame_size;
        sf.status = Status::Ok();
        stats->crash_markers++;
        stats->crash_signo = view.crash_signo;
        frames->push_back(std::move(sf));
        off += view.frame_size;
        continue;
      }
      bad = s;
    } else if (MagicAt(data + off, kFrameMagicGap)) {
      ByteReader gr(data + off, size - off);
      FrameView view;
      Status s = ReadFrame(gr, &view);  // gap frames have no payload: cheap
      if (s.ok()) {
        sf.is_gap = true;
        sf.size_known = true;
        sf.raw_size = view.raw_size;
        sf.dropped_events = view.dropped_events;
        sf.encoded_size = view.frame_size;
        sf.status = Status::Ok();
        stats->gap_frames++;
        stats->bytes_dropped_at_record += view.raw_size;
        stats->events_dropped_at_record += view.dropped_events;
        if (trusted) logical += view.raw_size;
        frames->push_back(std::move(sf));
        off += view.frame_size;
        continue;
      }
      bad = s;
    } else {
      ByteReader r(data + off, size - off);
      uint32_t magic = 0;
      (void)r.GetU32(&magic);
      const uint8_t format =
          magic == kFrameMagic ? 1 : magic == kFrameMagicV2 ? 2 : 3;
      std::string codec;
      uint64_t raw_size = 0, payload_size = 0, checksum = 0;
      Status s = r.GetString(&codec);
      if (s.ok()) s = r.GetVarU64(&raw_size);
      if (s.ok()) s = r.GetVarU64(&payload_size);
      if (s.ok()) s = r.GetU64(&checksum);
      if (s.ok() && raw_size > kMaxFrameRawBytes) {
        s = Status::Corrupt("implausible frame raw size");
      }
      if (s.ok() && payload_size <= r.remaining()) {
        const uint64_t header_size = r.position();
        const uint64_t frame_size = header_size + payload_size;
        sf.payload_format = format;
        sf.codec = codec;
        sf.raw_size = raw_size;
        sf.encoded_size = frame_size;
        const bool checksum_ok =
            Fnv1a64(data + off + header_size, payload_size) == checksum;
        // The checksum covers only the payload, so a damaged raw_size field
        // would otherwise verify. The identity codec gives one free cross-
        // check: its raw size must equal its payload size.
        const bool raw_mismatch = codec == "raw" && raw_size != payload_size;
        if (checksum_ok && !raw_mismatch && FindCompressor(codec) != nullptr) {
          sf.size_known = true;
          sf.status = Status::Ok();
          if (trusted) {
            stats->frames_ok++;
            logical += raw_size;
          } else {
            stats->frames_unaddressable++;
          }
          frames->push_back(std::move(sf));
          off += frame_size;
          continue;
        }
        sf.status =
            !checksum_ok ? Status::Corrupt("frame checksum mismatch")
            : raw_mismatch
                ? Status::Corrupt("raw frame size disagrees with payload size")
                : Status::Corrupt("unknown codec: " + codec);
        // Known-size hole? Only if the header's claimed end is corroborated
        // by what actually sits there: the next frame's magic, or EOF.
        const uint64_t end = off + frame_size;
        const bool plausible_end =
            end == size || (end + 4 <= size && AnyMagicAt(data + end));
        if (plausible_end) {
          sf.size_known = true;
          // Identity codec: the payload IS the raw data, so when the two
          // size fields disagree (a damaged raw_size varint) the payload
          // size is the trustworthy logical extent of the hole.
          if (raw_mismatch) sf.raw_size = payload_size;
          stats->frames_corrupt++;
          if (trusted) logical += sf.raw_size;  // hole of known logical extent
          frames->push_back(std::move(sf));
          off = end;
          continue;
        }
        bad = sf.status;
      } else if (s.ok()) {
        bad = Status::Corrupt("frame payload overruns end of file");
      } else {
        bad = s;
      }
    }

    // Unparseable at a magic: resync from just past it so the scan cannot
    // rematch the same offset.
    const size_t next = FindNextMagic(data, size, off + 4);
    sf.raw_size = 0;
    sf.size_known = false;
    sf.is_gap = false;
    sf.is_crash = false;
    if (next == size) {
      // The file ends inside this frame: mid-frame truncation.
      stats->truncated_tail_bytes += size - off;
      sf.encoded_size = size - off;
      sf.status = Status::Corrupt("truncated frame: " + bad.ToString());
      frames->push_back(std::move(sf));
      break;
    }
    stats->resyncs++;
    stats->bytes_skipped += next - off;
    stats->frames_corrupt++;
    trusted = false;
    sf.encoded_size = next - off;
    sf.status = Status::Corrupt("resynchronized past: " + bad.ToString());
    frames->push_back(std::move(sf));
    off = next;
  }
}

}  // namespace

Result<LogReader> LogReader::Open(const std::string& path,
                                  const SalvagePolicy& policy) {
  if (policy.enabled) {
    // Salvage trades the header-only walk for a full read: resynchronization
    // and checksum verification need the actual bytes. Recovery of a damaged
    // trace is a cold path; the streaming guarantees still hold afterwards.
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    const Bytes& buf = bytes.value();

    LogReader reader;
    reader.path_ = path;
    reader.policy_ = policy;
    std::vector<ScannedFrame> scanned;
    ScanLogBuffer(buf.data(), buf.size(), &scanned, &reader.stats_);
    uint64_t logical = 0;
    for (const ScannedFrame& sf : scanned) {
      if (!sf.offset_trusted || !sf.size_known) continue;
      FrameState state = FrameState::kOk;
      if (sf.is_gap) {
        state = FrameState::kGap;
      } else if (sf.is_crash) {
        state = FrameState::kCrash;
      } else if (!sf.status.ok()) {
        state = FrameState::kCorrupt;
      }
      reader.frames_.push_back(FrameIndex{logical, sf.raw_size, sf.file_offset,
                                          sf.encoded_size, sf.payload_format,
                                          state});
      logical += sf.raw_size;
    }
    reader.total_logical_ = logical;
    return reader;
  }

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::Io("cannot open log: " + path);

  LogReader reader;
  reader.path_ = path;
  reader.policy_ = policy;

  // Header sizes are attacker-controlled until the payload checksum is
  // verified, so every claimed size is validated against the physical file
  // before it can size an allocation.
  std::fseek(f, 0, SEEK_END);
  const uint64_t file_size = static_cast<uint64_t>(std::ftell(f));

  // Walk frame headers without reading payloads. Headers are tiny; 64 bytes
  // always covers magic + codec name + three varints + checksum (and a whole
  // gap frame).
  uint64_t file_offset = 0;
  uint64_t logical = 0;
  while (true) {
    uint8_t header[64];
    if (std::fseek(f, static_cast<long>(file_offset), SEEK_SET) != 0) {
      std::fclose(f);
      return Status::Io("seek failed: " + path);
    }
    const size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;  // clean EOF

    ByteReader r(header, got);
    uint32_t magic;
    uint8_t format = 1;
    std::string codec;
    uint64_t raw_size, payload_size, checksum;
    Status s = r.GetU32(&magic);

    if (s.ok() && magic == kFrameMagicCrash) {
      // Crash markers are legal in strict mode too: they are the sealer's
      // honest record, occupy zero logical bytes, and never overlap an
      // interval read.
      ByteReader cr(header, got);
      FrameView view;
      s = ReadFrame(cr, &view);
      if (!s.ok()) {
        std::fclose(f);
        return Status::Corrupt("crash marker at offset " +
                               std::to_string(file_offset) + ": " + s.ToString());
      }
      reader.frames_.push_back(FrameIndex{logical, 0, file_offset,
                                          view.frame_size, 0, FrameState::kCrash});
      reader.stats_.crash_markers++;
      reader.stats_.crash_signo = view.crash_signo;
      file_offset += view.frame_size;
      continue;
    }

    if (s.ok() && magic == kFrameMagicGap) {
      // Gap frames fit in the header buffer; parse them wholesale. They are
      // legal in strict mode (the writer recorded the drop honestly) - the
      // error surfaces if an interval read actually touches the hole.
      ByteReader gr(header, got);
      FrameView view;
      s = ReadFrame(gr, &view);
      if (!s.ok()) {
        std::fclose(f);
        return Status::Corrupt("gap frame at offset " +
                               std::to_string(file_offset) + ": " + s.ToString());
      }
      reader.frames_.push_back(FrameIndex{logical, view.raw_size, file_offset,
                                          view.frame_size, 0, FrameState::kGap});
      reader.stats_.gap_frames++;
      reader.stats_.bytes_dropped_at_record += view.raw_size;
      reader.stats_.events_dropped_at_record += view.dropped_events;
      logical += view.raw_size;
      file_offset += view.frame_size;
      continue;
    }

    if (s.ok()) {
      if (magic == kFrameMagic) {
        format = 1;
      } else if (magic == kFrameMagicV2) {
        format = 2;
      } else if (magic == kFrameMagicV3) {
        format = 3;
      } else {
        s = Status::Corrupt("bad frame magic");
      }
    }
    if (s.ok()) s = r.GetString(&codec);
    if (s.ok()) s = r.GetVarU64(&raw_size);
    if (s.ok()) s = r.GetVarU64(&payload_size);
    if (s.ok()) s = r.GetU64(&checksum);
    if (s.ok() && raw_size > kMaxFrameRawBytes) {
      s = Status::Corrupt("implausible frame raw size");
    }
    // r.position() is the header size here; the payload must fit in what is
    // left of the file AFTER the header, or a file truncated inside the
    // final frame would slip through the walk.
    if (s.ok() && payload_size > file_size - file_offset - r.position()) {
      s = Status::Corrupt("frame payload overruns file");
    }
    if (!s.ok()) {
      std::fclose(f);
      return Status::Corrupt("frame header at offset " + std::to_string(file_offset) +
                             ": " + s.ToString());
    }
    const uint64_t header_size = r.position();
    const uint64_t frame_size = header_size + payload_size;
    reader.frames_.push_back(FrameIndex{logical, raw_size, file_offset,
                                        frame_size, format, FrameState::kOk});
    reader.stats_.frames_ok++;
    logical += raw_size;
    file_offset += frame_size;
  }
  std::fclose(f);
  reader.total_logical_ = logical;
  return reader;
}

uint64_t LogReader::CompressedBytesForRange(uint64_t begin, uint64_t size) const {
  if (size == 0) return 0;
  const uint64_t end = begin + size;
  auto it = std::upper_bound(frames_.begin(), frames_.end(), begin,
                             [](uint64_t v, const FrameIndex& fi) {
                               return v < fi.logical_begin;
                             });
  if (it != frames_.begin()) --it;
  uint64_t bytes = 0;
  for (; it != frames_.end() && it->logical_begin < end; ++it) {
    const uint64_t frame_hi = it->logical_begin + it->raw_size;
    if (frame_hi <= begin || it->state != FrameState::kOk) continue;
    bytes += it->file_size;
  }
  return bytes;
}

Status LogReader::StreamRange(uint64_t begin, uint64_t size,
                              FunctionRef<void(const RawEvent&)> fn,
                              FrameCache* cache,
                              uint64_t* bytes_skipped,
                              DecodeCursor* cursor) const {
  if (size == 0) return Status::Ok();
  uint64_t end = begin + size;
  if (end > total_logical_) {
    if (!policy_.enabled) return Status::Corrupt("range past end of log");
    // Salvage: the meta promised more bytes than the log still holds (the
    // tail died with the process). Serve what survived, count the rest.
    if (begin >= total_logical_) {
      if (bytes_skipped) *bytes_skipped += size;
      return Status::Ok();
    }
    if (bytes_skipped) *bytes_skipped += end - total_logical_;
    end = total_logical_;
  }

  // First frame whose logical range may overlap [begin, end).
  auto it = std::upper_bound(frames_.begin(), frames_.end(), begin,
                             [](uint64_t v, const FrameIndex& fi) {
                               return v < fi.logical_begin;
                             });
  if (it != frames_.begin()) --it;

  Bytes local;  // decompressed frame when no cache is supplied
  for (; it != frames_.end() && it->logical_begin < end; ++it) {
    const uint64_t frame_lo = it->logical_begin;
    const uint64_t frame_hi = frame_lo + it->raw_size;
    const uint64_t slice_lo = std::max(begin, frame_lo);
    const uint64_t slice_hi = std::min(end, frame_hi);
    if (slice_hi <= slice_lo) continue;  // zero-size frame or no overlap

    if (it->state != FrameState::kOk) {
      const char* what = it->state == FrameState::kGap
                             ? "events dropped at record time (gap frame)"
                             : "corrupt frame in range";
      if (!policy_.enabled) return Status::Corrupt(what);
      if (bytes_skipped) *bytes_skipped += slice_hi - slice_lo;
      continue;
    }

    // Decode this frame's overlap; in salvage mode a failure here (payload
    // unreadable, decode error) skips the frame's contribution instead of
    // aborting the walk.
    Status s = [&]() -> Status {
      const Bytes* frame_data = nullptr;
      if (cache) frame_data = cache->Lookup(this, it->logical_begin);
      if (!frame_data) {
        auto raw = ReadFileRange(path_, it->file_offset, it->file_size);
        if (!raw.ok()) return raw.status();
        ByteReader frame_reader(raw.value());
        FrameView view;
        SWORD_RETURN_IF_ERROR(ReadFrame(frame_reader, &view));
        if (view.raw_size != it->raw_size) {
          return Status::Corrupt("frame size changed under reader");
        }
        if (cache) {
          frame_data = cache->Insert(this, it->logical_begin, std::move(view.data));
        } else {
          local = std::move(view.data);
          frame_data = &local;
        }
      }

      if (it->payload_format == kTraceFormatV1) {
        // Fixed-size events: slice the overlap directly.
        if ((slice_lo - frame_lo) % kEventBytes != 0 ||
            (slice_hi - slice_lo) % kEventBytes != 0) {
          return Status::Invalid("range not event-aligned");
        }
        ByteReader events(frame_data->data() + (slice_lo - frame_lo),
                          slice_hi - slice_lo);
        while (!events.AtEnd()) {
          RawEvent e;
          SWORD_RETURN_IF_ERROR(DecodeEvent(events, &e));
          fn(e);
        }
      } else {
        // Variable-length delta events: the coder state is only valid from the
        // frame start, so decode from there and discard events before the
        // slice - unless a cursor from a previous call already holds valid
        // state at or before the slice, in which case resume there. Interval
        // boundaries always fall on event boundaries; anything else means the
        // meta and log disagree.
        uint64_t base = 0;
        EventCodecState state;
        uint64_t pos = frame_lo;
        if (cursor && cursor->valid && cursor->frame_begin == frame_lo &&
            cursor->pos <= slice_lo && cursor->byte_offset <= frame_data->size()) {
          base = cursor->byte_offset;
          state = cursor->state;
          pos = cursor->pos;
        }
        if (cursor) cursor->valid = false;  // re-validated on a clean finish
        ByteReader events(frame_data->data() + base, frame_data->size() - base);
        const bool v3 = it->payload_format >= kTraceFormatV3;
        while (pos < slice_hi && !events.AtEnd()) {
          RawEvent e;
          SWORD_RETURN_IF_ERROR(v3 ? DecodeEventV3(events, state, &e)
                                   : DecodeEventV2(events, state, &e));
          const uint64_t next = frame_lo + base + events.position();
          if (next <= slice_lo) {
            pos = next;
            continue;  // wholly before the range
          }
          if (pos < slice_lo || next > slice_hi) {
            return Status::Invalid("range not event-aligned");
          }
          fn(e);
          pos = next;
        }
        if (cursor) {
          cursor->frame_begin = frame_lo;
          cursor->pos = pos;
          cursor->byte_offset = base + events.position();
          cursor->state = state;
          cursor->valid = true;
        }
      }
      return Status::Ok();
    }();
    if (!s.ok()) {
      if (!policy_.enabled) return s;
      if (bytes_skipped) *bytes_skipped += slice_hi - slice_lo;
    }
  }
  return Status::Ok();
}

Status LogReader::ReadRange(uint64_t begin, uint64_t size,
                            std::vector<RawEvent>* out) const {
  out->clear();
  // Heuristic: exact for v1 (16 bytes/event); a safe floor for the denser v2.
  // Clamped so a corrupt index claiming a huge logical range cannot force an
  // enormous allocation before streaming even starts.
  out->reserve(std::min<uint64_t>(size / kEventBytes, 1u << 20));
  return StreamRange(begin, size, [&](const RawEvent& e) { out->push_back(e); });
}

Result<SalvageStats> LogReader::VerifyLog(
    const std::string& path, FunctionRef<void(const FrameRecord&)> fn) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const Bytes& buf = bytes.value();

  std::vector<ScannedFrame> scanned;
  SalvageStats stats;
  ScanLogBuffer(buf.data(), buf.size(), &scanned, &stats);
  uint64_t index = 0;
  for (const ScannedFrame& sf : scanned) {
    FrameRecord rec;
    rec.index = index++;
    rec.file_offset = sf.file_offset;
    rec.encoded_size = sf.encoded_size;
    rec.raw_size = sf.raw_size;
    rec.payload_format = sf.payload_format;
    rec.codec = sf.codec;
    rec.is_gap = sf.is_gap;
    rec.dropped_events = sf.dropped_events;
    rec.is_crash = sf.is_crash;
    rec.crash_signo = sf.crash_signo;
    rec.offset_trusted = sf.offset_trusted && sf.size_known;
    rec.logical_begin = sf.logical_begin;
    rec.status = sf.status;
    fn(rec);
  }
  return stats;
}

}  // namespace sword::trace
