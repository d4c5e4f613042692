// sword-dump: inspect SWORD trace files.
//
//   sword-dump <trace-dir> [--events] [--thread N] [--limit K]
//   sword-dump <trace-dir> --segments
//   sword-dump <trace-dir> --verify
//
// Prints each thread's meta file as a Table-I-style listing (pid, ppid,
// bid, offset, span, level, data offsets, offset-span label) and, with
// --events, the decoded event stream per interval.
//
// --segments prints one line per barrier-interval segment: decoded event
// counts by kind, the canonical-stream fingerprint the analyzer's
// repeated-subtrace memoization keys on (equal hex = the analyzer shares
// one frozen set), and the segment's decompressed vs on-disk compressed
// byte sizes. This is the triage view for "why did dedup (not) fire" and
// "which segments dominate the log".
//
// --verify walks every sword_t*.log frame by frame, validating each header
// and payload checksum, and prints a per-frame table plus an OK/CORRUPT
// summary. It never needs the meta files and works on damaged logs - this
// is the triage tool for a trace a crashed or I/O-starved run left behind.
// Exit: 0 = every frame intact, 2 = damage found, 1 = usage error.
//
// A flag the tool does not read (a typo, or a retired option) is a usage
// error: exit 1 with "unknown flag --X".
#include <cstdio>
#include <span>

#include "common/args.h"
#include "common/fsutil.h"
#include "common/timer.h"
#include "offline/fingerprint.h"
#include "offline/tracestore.h"
#include "trace/reader.h"

using namespace sword;

namespace {

int VerifyDir(const std::string& dir) {
  bool any = false;
  bool damaged = false;
  for (uint32_t k = 0;; k++) {
    const std::string path = dir + "/sword_t" + std::to_string(k) + ".log";
    if (!FileExists(path)) break;
    any = true;
    std::printf("=== %s ===\n", path.c_str());
    std::printf("  %5s %10s %10s %10s %6s %-6s %s\n", "frame", "offset",
                "encoded", "raw", "fmt", "codec", "status");
    auto stats = trace::LogReader::VerifyLog(path, [](const trace::FrameRecord& f) {
      const char* state;
      if (f.is_crash) {
        state = "CRASH";
      } else if (f.is_gap) {
        state = "GAP";
      } else if (!f.status.ok()) {
        state = f.offset_trusted ? "CORRUPT" : "CORRUPT (unaddressable)";
      } else {
        state = f.offset_trusted ? "OK" : "OK (unaddressable)";
      }
      std::printf("  %5llu %10llu %10llu %10llu %6u %-6s %s",
                  static_cast<unsigned long long>(f.index),
                  static_cast<unsigned long long>(f.file_offset),
                  static_cast<unsigned long long>(f.encoded_size),
                  static_cast<unsigned long long>(f.raw_size), f.payload_format,
                  (f.is_gap || f.is_crash) ? "-" : f.codec.c_str(), state);
      if (f.is_crash) {
        std::printf(" (sealed by fatal signal %d)", int(f.crash_signo));
      } else if (f.is_gap) {
        std::printf(" (%llu event(s), %llu byte(s) dropped at record time)",
                    static_cast<unsigned long long>(f.dropped_events),
                    static_cast<unsigned long long>(f.raw_size));
      } else if (!f.status.ok()) {
        std::printf(" (%s)", f.status.ToString().c_str());
      }
      std::printf("\n");
    });
    if (!stats.ok()) {
      std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    const trace::SalvageStats& s = stats.value();
    std::printf("  %llu ok, %llu corrupt, %llu unaddressable, %llu gap(s); "
                "%llu resync(s), %llu byte(s) skipped, %llu truncated tail "
                "byte(s)\n",
                static_cast<unsigned long long>(s.frames_ok),
                static_cast<unsigned long long>(s.frames_corrupt),
                static_cast<unsigned long long>(s.frames_unaddressable),
                static_cast<unsigned long long>(s.gap_frames),
                static_cast<unsigned long long>(s.resyncs),
                static_cast<unsigned long long>(s.bytes_skipped),
                static_cast<unsigned long long>(s.truncated_tail_bytes));
    if (s.crash_markers > 0) {
      std::printf("  crash-sealed: %llu marker(s), fatal signal %d\n",
                  static_cast<unsigned long long>(s.crash_markers),
                  int(s.crash_signo));
    }
    if (!s.clean()) damaged = true;
  }
  if (!any) {
    std::fprintf(stderr, "error: no sword_t*.log traces found\n");
    return 1;
  }
  std::printf("verify: %s\n", damaged ? "CORRUPT" : "OK");
  return damaged ? 2 : 0;
}

/// One line per segment: event-kind counts, the dedup fingerprint of the
/// canonical decoded stream, and decompressed vs on-disk compressed sizes.
int DumpSegments(const offline::TraceStore& store, int64_t only_thread) {
  for (const auto& thread : store.threads()) {
    if (only_thread >= 0 && thread.tid != static_cast<uint32_t>(only_thread)) continue;
    std::printf("=== thread %u: %zu segment(s) ===\n", thread.tid,
                thread.meta.intervals.size());
    std::printf("  %4s %6s %8s %8s %6s %6s %10s %10s  %s\n", "seg", "region",
                "accesses", "runs", "mutex", "other", "raw", "ondisk",
                "fingerprint");
    uint32_t seg = 0;
    for (const auto& meta : thread.meta.intervals) {
      uint64_t accesses = 0;
      uint64_t runs = 0;
      uint64_t mutex_ops = 0;
      uint64_t other = 0;
      offline::SegmentFingerprint fp;
      fp.BeginSegment(meta.lockset);
      const Status s = thread.log->StreamBlocks(
          meta.data_begin, meta.data_size, [&](std::span<const trace::RawEvent> block) {
            fp.MixBlock(block);
            for (const trace::RawEvent& e : block) {
              switch (e.kind) {
                case trace::EventKind::kAccess:
                  accesses++;
                  break;
                case trace::EventKind::kAccessRun:
                  runs++;
                  break;
                case trace::EventKind::kMutexAcquire:
                case trace::EventKind::kMutexRelease:
                  mutex_ops++;
                  break;
                default:
                  other++;
              }
            }
          });
      if (!s.ok()) {
        std::fprintf(stderr, "  segment %u: stream error: %s\n", seg,
                     s.ToString().c_str());
        return 1;
      }
      std::printf("  %4u %6llu %8llu %8llu %6llu %6llu %10llu %10llu  %s\n", seg,
                  static_cast<unsigned long long>(meta.region),
                  static_cast<unsigned long long>(accesses),
                  static_cast<unsigned long long>(runs),
                  static_cast<unsigned long long>(mutex_ops),
                  static_cast<unsigned long long>(other),
                  static_cast<unsigned long long>(meta.data_size),
                  static_cast<unsigned long long>(thread.log->CompressedBytesForRange(
                      meta.data_begin, meta.data_size)),
                  fp.Hex().c_str());
      seg++;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool dump_events = args.GetBool("events");
  const bool verify = args.GetBool("verify");
  const bool segments = args.GetBool("segments");
  const int64_t only_thread = args.GetInt("thread", -1);
  const int64_t limit = args.GetInt("limit", 32);

  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: sword-dump <trace-dir> [--events] [--thread N] "
                 "[--limit K]\n"
                 "       sword-dump <trace-dir> --segments [--thread N]\n"
                 "       sword-dump <trace-dir> --verify\n");
    return 1;
  }
  for (const auto& flag : args.UnknownFlags()) {
    std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
    return 1;
  }

  if (verify) return VerifyDir(args.positional()[0]);

  auto store = offline::TraceStore::OpenDir(args.positional()[0]);
  if (!store.ok()) {
    std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
    return 1;
  }

  if (segments) return DumpSegments(store.value(), only_thread);

  for (const auto& thread : store.value().threads()) {
    if (only_thread >= 0 && thread.tid != static_cast<uint32_t>(only_thread)) continue;
    std::printf("=== thread %u: %zu interval(s), %s logical log, format v%u ===\n",
                thread.tid, thread.meta.intervals.size(),
                FormatBytes(thread.log->total_logical_bytes()).c_str(),
                thread.meta.log_format);
    for (const auto& meta : thread.meta.intervals) {
      std::printf("  %s\n", meta.ToString().c_str());
      if (!dump_events) continue;
      int64_t shown = 0;
      const Status s = thread.log->StreamRange(
          meta.data_begin, meta.data_size, [&](const trace::RawEvent& e) {
            if (shown++ >= limit) return;
            switch (e.kind) {
              case trace::EventKind::kAccess:
                std::printf("    %s%s size=%u pc=%u addr=0x%llx\n",
                            (e.flags & 1) ? "write" : "read",
                            (e.flags & 2) ? "(atomic)" : "", e.size, e.pc,
                            static_cast<unsigned long long>(e.addr));
                break;
              case trace::EventKind::kMutexAcquire:
                std::printf("    acquire mutex %llu\n",
                            static_cast<unsigned long long>(e.addr));
                break;
              case trace::EventKind::kMutexRelease:
                std::printf("    release mutex %llu\n",
                            static_cast<unsigned long long>(e.addr));
                break;
              case trace::EventKind::kAccessRun:
                std::printf("    %s%s run base=0x%llx stride=%llu count=%llu "
                            "size=%u pc=%u\n",
                            (e.flags & 1) ? "write" : "read",
                            (e.flags & 2) ? "(atomic)" : "",
                            static_cast<unsigned long long>(e.addr),
                            static_cast<unsigned long long>(e.stride),
                            static_cast<unsigned long long>(e.count), e.size,
                            e.pc);
                break;
            }
          });
      if (!s.ok()) {
        std::fprintf(stderr, "  (stream error: %s)\n", s.ToString().c_str());
      }
      if (shown > limit) {
        std::printf("    ... %lld more event(s)\n",
                    static_cast<long long>(shown - limit));
      }
    }
  }
  return 0;
}
