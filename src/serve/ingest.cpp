#include "serve/ingest.h"

#include <algorithm>

#include "trace/meta.h"

namespace sword::serve {

namespace {

/// Per-thread trace file names, matching the writer's sword_t<k>.{log,meta}
/// layout. Enumeration stops at the first thread index with neither file.
std::string LogPath(const std::string& dir, uint32_t tid) {
  return dir + "/sword_t" + std::to_string(tid) + ".log";
}
std::string MetaPath(const std::string& dir, uint32_t tid) {
  return dir + "/sword_t" + std::to_string(tid) + ".meta";
}

}  // namespace

// ------------------------------------------------------------- RunIngestor

const char* IngestStateName(IngestState s) {
  switch (s) {
    case IngestState::kGrowing: return "growing";
    case IngestState::kSettled: return "settled";
    case IngestState::kFailed: return "failed";
  }
  return "?";
}

RunIngestor::RunIngestor(std::string dir, const IngestConfig& config,
                         FileBackend* fs, ClockFn now)
    : dir_(std::move(dir)),
      config_(config),
      fs_(fs ? fs : &RealFileBackend()),
      now_(now ? std::move(now) : SteadyClock()) {}

Result<Bytes> RunIngestor::ReadWithRetry(const std::string& path) {
  // Transient failures within ONE Poll retry immediately up to the attempt
  // budget (cheap - the fault is EINTR-shaped); an exhausted budget arms the
  // cross-poll backoff so the next Poll waits out the bounded exponential
  // delay instead of hammering a struggling filesystem.
  Status last;
  for (uint32_t attempt = 0; attempt < config_.max_read_attempts; attempt++) {
    auto r = fs_->ReadWhole(path);
    stats_.reads++;
    if (r.ok()) return r;
    last = r.status();
    if (last.code() != ErrorCode::kUnavailable) break;  // hard: no retry
    stats_.read_retries++;
  }
  return last;
}

Result<uint64_t> RunIngestor::Fingerprint() {
  // fnv-style fold of (file count, sizes): any append or new thread file
  // changes it. Probing sizes is infallible-ish; a file that vanished
  // between Exists and Size just reads as absent this poll.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  uint64_t bytes = 0;
  for (uint32_t tid = 0;; tid++) {
    const std::string log = LogPath(dir_, tid);
    const std::string meta = MetaPath(dir_, tid);
    const bool has_log = fs_->Exists(log);
    const bool has_meta = fs_->Exists(meta);
    if (!has_log && !has_meta) break;
    if (has_log) {
      auto s = fs_->Size(log);
      const uint64_t n = s.ok() ? s.value() : 0;
      mix(n + 1);
      bytes += n;
    } else {
      mix(0);
    }
    if (has_meta) {
      auto s = fs_->Size(meta);
      const uint64_t n = s.ok() ? s.value() : 0;
      mix(n + 1);
      bytes += n;
    } else {
      mix(0);
    }
  }
  if (bytes > stats_.bytes_seen) stats_.bytes_seen = bytes;
  return h;
}

void RunIngestor::LiveProbe() {
  // Barrier-interval-granularity probe of a LIVE run: decode every present
  // meta through the salvage decoder. A torn checkpoint tail is the
  // expected shape of a mid-write snapshot and decodes to its clean prefix;
  // only a hard read failure counts against the run.
  stats_.live_probes++;
  uint64_t intervals = 0;
  for (uint32_t tid = 0;; tid++) {
    const std::string meta = MetaPath(dir_, tid);
    const bool has_meta = fs_->Exists(meta);
    if (!has_meta && !fs_->Exists(LogPath(dir_, tid))) break;
    if (!has_meta) continue;
    auto data = ReadWithRetry(meta);
    if (!data.ok()) {
      last_error_ = data.status();
      hard_failures_++;
      stats_.hard_failures++;
      if (hard_failures_ >= config_.max_hard_failures) {
        state_ = IngestState::kFailed;
        return;
      }
      // Arm the cross-poll backoff: leave the run growing, retry later.
      backoff_ns_ = backoff_ns_ == 0
                        ? config_.backoff_base_ns
                        : std::min<uint64_t>(backoff_ns_ * 2, config_.backoff_max_ns);
      next_attempt_ns_ = now_() + backoff_ns_;
      return;
    }
    trace::MetaFile mf;
    uint64_t dropped = 0;
    if (trace::MetaFile::Decode(data.value(), &mf, /*salvage=*/true, &dropped).ok()) {
      intervals += mf.intervals.size();
    }
    // An undecodable meta on a LIVE run is not failure - the writer may be
    // creating it. A record mid-append is a torn tail that salvage drops.
    // The settled-run analysis is where damage gets judged.
  }
  if (intervals > stats_.intervals_seen) stats_.intervals_seen = intervals;
  // Probes succeeded: the backoff (if any) has served its purpose.
  backoff_ns_ = 0;
  next_attempt_ns_ = 0;
}

IngestState RunIngestor::Poll() {
  if (state_ != IngestState::kGrowing) return state_;
  if (next_attempt_ns_ != 0 && now_() < next_attempt_ns_) {
    return state_;  // backing off; not due yet
  }
  stats_.polls++;

  // The explicit completion marker wins over quiesce detection: a writer
  // that knows it is done should not cost quiesce_polls of latency.
  if (fs_->Exists(dir_ + "/sword.done")) {
    state_ = IngestState::kSettled;
    return state_;
  }

  auto fp = Fingerprint();
  if (!fp.ok()) {
    last_error_ = fp.status();
    if (++hard_failures_ >= config_.max_hard_failures) {
      state_ = IngestState::kFailed;
    }
    return state_;
  }
  if (fp.value() == last_fingerprint_) {
    if (++unchanged_polls_ >= config_.quiesce_polls) {
      state_ = IngestState::kSettled;
    }
    return state_;
  }
  last_fingerprint_ = fp.value();
  unchanged_polls_ = 0;
  LiveProbe();
  return state_;
}

}  // namespace sword::serve
