#include "trace/reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <new>

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

/// One log file opened for the walk. Reads go through one block buffer that
/// is refilled a whole block at a time, so the header walk of a log of small
/// frames costs one read per block rather than one per frame, and salvage's
/// payload checksums and magic scans never hold more than a block.
class LogFile {
 public:
  static constexpr size_t kBlockBytes = 64 * 1024;

  ~LogFile() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Open(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return Status::Io("cannot open log: " + path);
    struct stat st;
    if (::fstat(fd_, &st) != 0) return Status::Io("cannot stat log: " + path);
    size_ = static_cast<uint64_t>(st.st_size);
    path_ = path;
    return Status::Ok();
  }

  uint64_t size() const { return size_; }

  /// The n <= kBlockBytes bytes at `offset`, which must lie in the file;
  /// valid until the next call.
  Result<const uint8_t*> Read(uint64_t offset, size_t n) {
    if (offset < block_offset_ || offset + n > block_offset_ + block_.size()) {
      block_.resize(static_cast<size_t>(std::min<uint64_t>(kBlockBytes, size_ - offset)));
      block_offset_ = offset;
      for (size_t done = 0; done < block_.size();) {
        const ssize_t got = ::pread(fd_, block_.data() + done, block_.size() - done,
                                    static_cast<off_t>(offset + done));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) {
          block_.clear();
          return Status::Io("read failed: " + path_);
        }
        done += static_cast<size_t>(got);
      }
    }
    return block_.data() + (offset - block_offset_);
  }

  /// True if a frame magic starts at `offset`.
  Result<bool> MagicAt(uint64_t offset) {
    if (offset + 4 > size_) return false;
    auto p = Read(offset, 4);
    if (!p.ok()) return p.status();
    return IsFrameMagic(p.value());
  }

  /// Offset of the first frame magic at or after `from`, or size() if none.
  /// Scans block by block; blocks overlap by three bytes, so no magic
  /// straddling a block boundary is missed.
  Result<uint64_t> FindNextMagic(uint64_t from) {
    while (from + 4 <= size_) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(kBlockBytes, size_ - from));
      auto p = Read(from, n);
      if (!p.ok()) return p.status();
      for (size_t i = 0; i + 4 <= n; ++i) {
        if (IsFrameMagic(p.value() + i)) return from + i;
      }
      from += n - 3;
    }
    return size_;
  }

  /// The checksum `magic` names (FrameHasher) of the n bytes at `offset`,
  /// a block at a time.
  Result<uint64_t> Checksum(uint32_t magic, uint64_t offset, uint64_t n) {
    FrameHasher h(magic);
    while (n > 0) {
      const size_t len = static_cast<size_t>(std::min<uint64_t>(kBlockBytes, n));
      auto p = Read(offset, len);
      if (!p.ok()) return p.status();
      h.Update(p.value(), len);
      offset += len;
      n -= len;
    }
    return h.Digest();
  }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
  Bytes block_;                // file bytes [block_offset_, + block_.size())
  uint64_t block_offset_ = 0;
};

/// THE log walk: every frame and damaged region of `path`, in file order,
/// through `fn`, with the running totals in `stats`. Each header is parsed
/// from a kMaxFrameHeaderBytes window by ParseFrameHeader.
///
/// Strict (`salvage` false) reads no payload and fails at the first defect:
/// a header ParseFrameHeader rejects, or a payload that overruns the file.
///
/// Salvage also verifies each payload checksum and applies the offset-trust
/// rules of docs/FORMAT.md instead of failing:
///   - intact frame: trusted, advances the logical stream;
///   - a frame that fails verification but whose claimed end lands on a
///     frame magic (or exactly at EOF): a known-size hole - later offsets
///     stay trusted;
///   - unparseable header / implausible claimed end: resynchronize at the
///     next magic; the hole's size is unknown, so trust is lost and every
///     later frame is "unaddressable";
///   - no further magic: the truncated tail;
///   - gap frame: record-time drop marker, a trusted hole by construction;
///   - crash marker: zero logical bytes.
Status WalkLog(const std::string& path, bool salvage, SalvageStats* stats,
               FunctionRef<void(const FrameRecord&)> fn) {
  LogFile file;
  SWORD_RETURN_IF_ERROR(file.Open(path));
  const uint64_t size = file.size();
  uint64_t off = 0;
  uint64_t logical = 0;
  uint64_t index = 0;
  bool trusted = true;
  while (off < size) {
    const size_t got =
        static_cast<size_t>(std::min<uint64_t>(kMaxFrameHeaderBytes, size - off));
    auto window = file.Read(off, got);
    if (!window.ok()) return window.status();
    ByteReader r(window.value(), got);
    FrameHeader h;
    Status s = ParseFrameHeader(r, &h);
    const bool at_magic = got >= 4 && IsFrameMagic(window.value());
    bool sized = h.header_size != 0;  // the claimed extent is readable
    if (sized && h.payload_size > size - off - h.header_size) {
      s = Status::Corrupt("frame payload overruns end of file");
      sized = false;
    }
    if (!salvage && !s.ok()) {
      return Status::Corrupt("frame header at offset " + std::to_string(off) + ": " +
                             s.ToString());
    }
    if (salvage && s.ok() && !h.is_gap && !h.is_crash) {
      auto sum = file.Checksum(h.magic, off + h.header_size, h.payload_size);
      if (!sum.ok()) return sum.status();
      if (sum.value() != h.checksum) s = Status::Corrupt("frame checksum mismatch");
    }

    FrameRecord rec;
    rec.index = index++;
    rec.file_offset = off;
    rec.logical_begin = logical;
    rec.status = s;
    bool known_size_hole = false;
    if (!s.ok() && sized) {
      const uint64_t end = off + h.frame_size();
      auto magic = file.MagicAt(end);
      if (!magic.ok()) return magic.status();
      known_size_hole = end == size || magic.value();
    }
    if (s.ok() || known_size_hole) {
      rec.encoded_size = h.frame_size();
      rec.raw_size = h.raw_size;
      rec.payload_format = h.payload_format;
      rec.codec = h.codec;
      rec.is_gap = h.is_gap;
      rec.dropped_events = h.dropped_events;
      rec.is_crash = h.is_crash;
      rec.crash_signo = h.crash_signo;
      rec.offset_trusted = trusted;
      if (h.is_crash) {
        stats->crash_markers++;
        stats->crash_signo = h.crash_signo;
      } else if (h.is_gap) {
        stats->gap_frames++;
        stats->bytes_dropped_at_record += h.raw_size;
        stats->events_dropped_at_record += h.dropped_events;
      } else if (!s.ok()) {
        stats->frames_corrupt++;
      } else if (trusted) {
        stats->frames_ok++;
      } else {
        stats->frames_unaddressable++;
      }
      if (trusted) logical += h.raw_size;
      fn(rec);
      off += h.frame_size();
      continue;
    }

    // Unparseable: resynchronize at the next magic, from just past this
    // one if there is one here, so the scan cannot rematch the same offset.
    auto next = file.FindNextMagic(off + (at_magic ? 4 : 1));
    if (!next.ok()) return next.status();
    rec.encoded_size = next.value() - off;
    if (sized) {  // the header parsed; only its claimed end did not hold
      rec.payload_format = h.payload_format;
      rec.codec = h.codec;
    }
    if (next.value() == size) {
      stats->truncated_tail_bytes += size - off;
      rec.status = at_magic ? Status::Corrupt("truncated frame: " + s.ToString())
                            : Status::Corrupt("unrecognized bytes to end of file");
      fn(rec);
      break;
    }
    stats->resyncs++;
    stats->bytes_skipped += next.value() - off;
    stats->frames_corrupt++;
    trusted = false;
    rec.status = at_magic ? Status::Corrupt("resynchronized past: " + s.ToString())
                          : Status::Corrupt("unrecognized bytes; resynchronized");
    fn(rec);
    off = next.value();
  }
  return Status::Ok();
}

}  // namespace

Result<LogReader> LogReader::Open(const std::string& path,
                                  const SalvagePolicy& policy) {
  LogReader reader;
  reader.path_ = path;
  reader.policy_ = policy;
  // Only frames at trusted logical offsets are indexed; trust, once lost,
  // never returns, so the index is a prefix of the walk.
  SWORD_RETURN_IF_ERROR(
      WalkLog(path, policy.enabled, &reader.stats_, [&](const FrameRecord& f) {
        if (!f.offset_trusted) return;
        const FrameState state = f.is_gap         ? FrameState::kGap
                                 : f.is_crash     ? FrameState::kCrash
                                 : !f.status.ok() ? FrameState::kCorrupt
                                                  : FrameState::kOk;
        reader.frames_.push_back(FrameIndex{f.logical_begin, f.raw_size, f.file_offset,
                                            f.encoded_size, f.payload_format, state});
        reader.total_logical_ = f.logical_begin + f.raw_size;
      }));
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

Status LogReader::StreamBlocks(uint64_t begin, uint64_t size,
                               FunctionRef<void(std::span<const RawEvent>)> fn,
                               FrameCache* cache, uint64_t* bytes_skipped,
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
  // The decoded block. Raw storage: RawEvent's member initializers would
  // otherwise cost a store per field of all kDecodeBlockEvents per call, and
  // the decoders write every field of every event they hand on.
  alignas(RawEvent) unsigned char storage[kDecodeBlockEvents * sizeof(RawEvent)];
  RawEvent* const block = std::launder(reinterpret_cast<RawEvent*>(storage));
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
        size_t n = 0;
        while (!events.AtEnd()) {
          const Status s = DecodeEvent(events, &block[n]);
          if (!s.ok()) {
            if (n > 0) fn({block, n});
            return s;
          }
          if (++n == kDecodeBlockEvents) {
            fn({block, n});
            n = 0;
          }
        }
        if (n > 0) fn({block, n});
      } else {
        // Variable-length delta events: the coder state is only valid from the
        // frame start, so decode from there and discard events before the
        // slice - unless a cursor from a previous call already holds valid
        // state at or before the slice, in which case resume there. Interval
        // boundaries always fall on event boundaries; anything else means the
        // meta and log disagree.
        const uint8_t* const data = frame_data->data();
        DeltaStream in{data, data + frame_data->size(), it->payload_format, {}};
        if (cursor && cursor->valid && cursor->frame_begin == frame_lo &&
            cursor->pos <= slice_lo && cursor->byte_offset <= frame_data->size() &&
            cursor->pos == frame_lo + cursor->byte_offset) {
          in.pos = data + cursor->byte_offset;
          in.state = cursor->state;
        }
        if (cursor) cursor->valid = false;  // re-validated on a clean finish
        const uint8_t* const lo = data + (slice_lo - frame_lo);
        const uint8_t* const hi = data + (slice_hi - frame_lo);
        size_t n;
        while (in.pos < lo) {  // the prefix: decoded for its state only
          SWORD_RETURN_IF_ERROR(DecodeDeltaBlock(in, lo, block, kDecodeBlockEvents, &n));
        }
        if (in.pos > lo) return Status::Invalid("range not event-aligned");
        while (in.pos < hi) {
          const Status s = DecodeDeltaBlock(in, hi, block, kDecodeBlockEvents, &n);
          // Only a block's last event can run past the slice's end.
          const bool straddles = in.pos > hi;
          if (n > (straddles ? 1u : 0u)) fn({block, straddles ? n - 1 : n});
          if (!s.ok()) return s;
          if (straddles) return Status::Invalid("range not event-aligned");
        }
        if (cursor) {
          cursor->frame_begin = frame_lo;
          cursor->byte_offset = static_cast<uint64_t>(in.pos - data);
          cursor->pos = frame_lo + cursor->byte_offset;
          cursor->state = in.state;
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

Status LogReader::StreamRange(uint64_t begin, uint64_t size,
                              FunctionRef<void(const RawEvent&)> fn,
                              FrameCache* cache, uint64_t* bytes_skipped,
                              DecodeCursor* cursor) const {
  return StreamBlocks(
      begin, size,
      [&](std::span<const RawEvent> events) {
        for (const RawEvent& e : events) fn(e);
      },
      cache, bytes_skipped, cursor);
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
  SalvageStats stats;
  SWORD_RETURN_IF_ERROR(WalkLog(path, /*salvage=*/true, &stats, fn));
  return stats;
}

}  // namespace sword::trace
