#include "offline/analysis.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "itree/frozen_set.h"
#include "itree/mutexset.h"
#include "itree/streaming_builder.h"
#include "offline/checker_pool.h"
#include "offline/fingerprint.h"
#include "offline/journal.h"
#include "offline/racecheck.h"
#include "osl/label.h"
#include "trace/event.h"

namespace sword::offline {
namespace {

/// Stopwatch over the analyzer's injected clock. With the default
/// steady_clock hook this reads identically to common/timer.h's Timer; with
/// a test clock, elapsed-time stats become deterministic.
class EnvTimer {
 public:
  explicit EnvTimer(const std::function<uint64_t()>& now)
      : now_(&now), start_(now()) {}
  double ElapsedSeconds() const {
    return static_cast<double>((*now_)() - start_) * 1e-9;
  }

 private:
  const std::function<uint64_t()>* now_;
  uint64_t start_;
};

/// Serialized label bytes; used as an ordered map key for grouping.
std::string LabelKey(const osl::Label& label) {
  ByteWriter w;
  label.Serialize(w);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()),
                     w.buffer().size());
}

struct Group {
  uint32_t thread_idx;
  osl::Label label;
  std::vector<const trace::IntervalMeta*> segments;
  /// One resume point per segment: a copy of the decode cursor pass 1 held
  /// just before it streamed the segment. Pass 2 restores it, so a leader
  /// whose segment starts mid-frame re-enters the frame where pass 1 was
  /// instead of re-decoding the frame's delta-coded prefix.
  std::vector<trace::DecodeCursor> resume;
  /// Canonical-decoded-stream identity, folded by pass 1.
  SegmentFingerprint fingerprint;
  /// The group's immutable comparison form. Only fingerprint leaders build
  /// one: pass 2 streams the leader's segments into a builder local to the
  /// leader, freezes it and drops the builder.
  itree::FrozenIntervalSet frozen;
  /// What the checkers actually read: `&frozen` for leaders, a
  /// fingerprint-equal leader's `&frozen` for dedup followers, null for
  /// groups no concurrent pair names (those are never summarized).
  const itree::FrozenIntervalSet* frozen_view = nullptr;
};

/// Full-identity key: two reports with equal keys are indistinguishable, so
/// dropping the second is outcome-neutral for the global RaceReportSet.
std::tuple<uint64_t, uint64_t, uint64_t> ReportIdentity(const RaceReport& r) {
  return std::make_tuple(
      (static_cast<uint64_t>(r.pc1) << 32) | r.pc2, r.address,
      (static_cast<uint64_t>(r.size1) << 24) | (static_cast<uint64_t>(r.size2) << 16) |
          (static_cast<uint64_t>(r.write1) << 1) | static_cast<uint64_t>(r.write2));
}

/// The per-bucket wall-clock governor. One background thread sleeps until
/// the armed deadline; on expiry it sets `breach`, which the builders and
/// checkers poll (one relaxed load) to abandon the bucket promptly. Armed
/// once per bucket; disarmed when the bucket closes so an idle analyzer
/// never wakes it.
class BucketWatchdog {
 public:
  explicit BucketWatchdog(uint32_t deadline_ms)
      : deadline_ms_(deadline_ms), thread_([this] { Run(); }) {}

  ~BucketWatchdog() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
      armed_ = false;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Arm() {
    {
      std::lock_guard lock(mutex_);
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms_);
      armed_ = true;
      breach_.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  void Disarm() {
    std::lock_guard lock(mutex_);
    armed_ = false;
  }

  const std::atomic<bool>& breach() const { return breach_; }
  bool breached() const { return breach_.load(std::memory_order_relaxed); }

 private:
  void Run() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock);
        continue;
      }
      if (cv_.wait_until(lock, deadline_) == std::cv_status::timeout &&
          armed_ && !stop_) {
        breach_.store(true, std::memory_order_relaxed);
        armed_ = false;  // one breach per Arm(); next bucket re-arms
      }
    }
  }

  const uint32_t deadline_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::chrono::steady_clock::time_point deadline_{};
  bool armed_ = false;
  bool stop_ = false;
  std::atomic<bool> breach_{false};
  std::thread thread_;
};

/// Folds one bucket's record into the global stats - the SINGLE merge path
/// shared by freshly analyzed buckets and journal-replayed ones, which is
/// what makes a resumed run's stats equal a clean run's.
void ApplyBucketRecord(const JournalBucketRecord& rec, AnalysisStats& stats) {
  stats.trees_built += rec.trees_built;
  stats.tree_nodes += rec.tree_nodes;
  stats.raw_events += rec.raw_events;
  stats.label_pairs_checked += rec.label_pairs_checked;
  stats.concurrent_pairs += rec.concurrent_pairs;
  stats.node_pairs_ranged += rec.node_pairs_ranged;
  stats.fastpath_hits += rec.fastpath_hits;
  stats.dedup_hits += rec.dedup_hits;
  stats.dedup_bytes_saved += rec.dedup_bytes_saved;
  stats.duplicates_suppressed += rec.duplicates_suppressed;
  stats.segments_skipped += rec.segments_skipped;
  stats.events_missing += rec.events_missing;
  stats.bytes_skipped_read += rec.bytes_skipped_read;
  if (rec.flags & JournalBucketRecord::kDeadlineExceeded) {
    stats.buckets_deadline_exceeded++;
  }
  if (rec.flags & JournalBucketRecord::kMemoryCapped) stats.buckets_memory_capped++;
  if (rec.flags & JournalBucketRecord::kBucketSkipped) stats.buckets_skipped++;
  if (rec.tree_bytes > stats.peak_tree_bytes) {
    stats.peak_tree_bytes = rec.tree_bytes;
    stats.peak_tree_bucket = rec.ordinal;
  }
}

/// Pass 1: streams one segment's events to fold the group's fingerprint and
/// account for them. Every per-segment count is taken here, once: events
/// streamed, events the meta claimed but the log no longer holds, and bytes
/// the reader skipped. `cache` avoids re-decompressing a frame shared by many
/// small segments; `cursor` resumes the delta decoder where the worker's
/// previous segment on this log stopped.
Status FingerprintSegment(const TraceStore& store, Group& group,
                          const trace::IntervalMeta& meta, AnalysisStats& stats,
                          trace::FrameCache* cache, trace::DecodeCursor* cursor) {
  group.fingerprint.BeginSegment(meta.lockset);
  uint64_t events = 0;
  uint64_t bytes_skipped = 0;
  const Status s = store.threads()[group.thread_idx].log->StreamBlocks(
      meta.data_begin, meta.data_size,
      [&](std::span<const trace::RawEvent> block) {
        events += block.size();
        group.fingerprint.MixBlock(block);
      },
      cache, &bytes_skipped, cursor);
  stats.raw_events += events;
  stats.bytes_skipped_read += bytes_skipped;
  // Honest accounting for salvage runs: the meta claimed event_count events
  // for this segment; whatever did not stream (holes, truncation) is missing.
  if (s.ok() && meta.event_count > events) {
    stats.events_missing += meta.event_count - events;
  }
  return s;
}

/// Pass 2: streams one segment of a fingerprint leader into its summarizer,
/// recovering the lockset from mutex events (paper: "synchronization
/// recovery"). `cursor` is the segment's resume point. The stream is the one
/// pass 1 already counted and fingerprinted, so nothing is counted here.
Status SummarizeSegment(const TraceStore& store, const Group& group,
                      const trace::IntervalMeta& meta,
                      itree::StreamingSetBuilder& builder,
                      itree::MutexSetTable& mutexes, trace::FrameCache* cache,
                      trace::DecodeCursor* cursor) {
  std::vector<itree::MutexId> initial(meta.lockset.begin(), meta.lockset.end());
  itree::MutexSetId cur = mutexes.Intern(std::move(initial));
  return store.threads()[group.thread_idx].log->StreamBlocks(
      meta.data_begin, meta.data_size,
      [&](std::span<const trace::RawEvent> block) {
        for (const trace::RawEvent& e : block) {
          switch (e.kind) {
            case trace::EventKind::kMutexAcquire:
              cur = mutexes.WithMutex(cur, static_cast<itree::MutexId>(e.addr));
              break;
            case trace::EventKind::kMutexRelease:
              cur = mutexes.WithoutMutex(cur, static_cast<itree::MutexId>(e.addr));
              break;
            case trace::EventKind::kAccess: {
              itree::AccessKey key;
              key.pc = e.pc;
              key.flags = e.flags;
              key.size = e.size;
              key.mutexset = cur;
              builder.AddAccess(e.addr, key);
              break;
            }
            case trace::EventKind::kAccessRun: {
              itree::AccessKey key;
              key.pc = e.pc;
              key.flags = e.flags;
              key.size = e.size;
              key.mutexset = cur;
              // A writer-coalesced strided run materializes directly as a
              // symbolic strided interval - no per-element expansion
              // (AddRun's bulk path), but replay-identical to one.
              builder.AddRun(e.addr, e.stride, e.count, key);
              break;
            }
          }
        }
      },
      cache, nullptr, cursor);
}

/// The address-index reservation for one group: an upper bound on the
/// events its segments can decode. Each event takes at least one log byte,
/// so a segment holds at most min(event_count, data_size, log bytes left
/// after data_begin) of them - a bound a damaged meta cannot inflate past
/// the log it points into.
uint64_t IndexReservation(const TraceStore& store, const Group& group) {
  const uint64_t log_bytes =
      store.threads()[group.thread_idx].log->total_logical_bytes();
  uint64_t events = 0;
  for (const trace::IntervalMeta* meta : group.segments) {
    const uint64_t left = log_bytes > meta->data_begin ? log_bytes - meta->data_begin : 0;
    events += std::min({meta->EventCount(), meta->data_size, left});
  }
  return events;
}

}  // namespace

Analyzer::Analyzer(uint32_t threads, AnalyzerEnv env)
    : threads_(std::max<uint32_t>(1, threads)), env_(std::move(env)) {
  if (!env_.now_ns) {
    env_.now_ns = [] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
  }
  if (threads_ > 1) pool_.emplace(threads_);
}

AnalysisResult Analyzer::Analyze(const TraceStore& store,
                                 const AnalysisConfig& config) {
  // The pool is not reentrant; a long-lived caller (the serve daemon) may
  // issue Analyze from several places, so calls queue here.
  std::lock_guard analyze_lock(mutex_);
  AnalysisResult result;
  EnvTimer total_timer(env_.now_ns);
  itree::MutexSetTable mutexes;
  result.stats.integrity = store.integrity();
  // The store's opening discipline decides the analysis's failure policy:
  // a salvage store degrades per segment/bucket with accounting, a strict
  // store aborts on the first defect.
  const bool salvage = store.integrity().salvaged;

  // --- Checkpoint/resume plumbing. The header binds the journal to this
  // exact run: shard key, every result-affecting knob, and a fingerprint of
  // the trace. Resume against anything else is refused outright.
  JournalHeader journal_header;
  journal_header.shard_index = config.shard_index;
  journal_header.shard_count = config.shard_count;
  journal_header.salvage = salvage ? 1 : 0;
  journal_header.bucket_deadline_ms = config.bucket_deadline_ms;
  journal_header.max_tree_bytes = config.max_tree_bytes;
  journal_header.thread_count = static_cast<uint32_t>(store.thread_count());
  journal_header.total_intervals = store.TotalIntervals();
  journal_header.total_log_bytes = store.TotalLogBytes();

  std::map<uint64_t, JournalBucketRecord> replay;
  std::optional<JournalWriter> journal;
  if (!config.journal_path.empty()) {
    if (config.resume) {
      auto loaded = LoadJournal(config.journal_path);
      if (!loaded.ok()) {
        result.status = loaded.status();
        return result;
      }
      if (!(loaded.value().header == journal_header)) {
        result.status = Status::Invalid(
            "journal does not match this run (shard, analysis knobs, or "
            "trace changed): " + config.journal_path);
        return result;
      }
      result.stats.journal_records_dropped = loaded.value().records_dropped;
      for (auto& rec : loaded.value().records) {
        const uint64_t ordinal = rec.ordinal;
        replay.insert_or_assign(ordinal, std::move(rec));
      }
      auto writer = JournalWriter::Continue(config.journal_path,
                                            loaded.value().valid_bytes, env_.fs);
      if (!writer.ok()) {
        result.status = writer.status();
        return result;
      }
      journal.emplace(std::move(writer.value()));
    } else {
      auto writer =
          JournalWriter::Create(config.journal_path, journal_header, env_.fs);
      if (!writer.ok()) {
        result.status = writer.status();
        return result;
      }
      journal.emplace(std::move(writer.value()));
    }
  }

  // --- 1+2: bucket interval segments by top-level region (root pair offset).
  // Cross-bucket interval pairs are sequential by OSL case 2 on the root
  // pair, so they are pruned wholesale.
  std::map<uint32_t, std::vector<std::pair<uint32_t, const trace::IntervalMeta*>>>
      buckets;
  for (uint32_t t = 0; t < store.thread_count(); t++) {
    for (const auto& meta : store.threads()[t].meta.intervals) {
      result.stats.intervals++;
      if (meta.degradation_level > 0 || meta.degraded_dropped > 0) {
        result.stats.intervals_degraded++;
        result.stats.degraded_events_dropped += meta.degraded_dropped;
      }
      const auto& pairs = meta.label.pairs();
      if (pairs.empty()) {
        if (!salvage) {
          result.status = Status::Corrupt("interval with empty label");
          return result;
        }
        result.stats.integrity.meta_records_rejected++;
        if (result.first_error.ok()) {
          result.first_error = Status::Corrupt("interval with empty label");
        }
        continue;
      }
      buckets[pairs.front().offset].push_back({t, &meta});
    }
  }
  result.stats.buckets = buckets.size();
  uint64_t buckets_attempted = 0;

  // Frame caches live across buckets so consecutive buckets whose segments
  // share a frame (the common case: many tiny top-level regions per frame)
  // reuse the decompression. One bounded LRU cache per builder worker -
  // entries are keyed by (log reader, frame), so a single cache serves every
  // trace thread the worker touches while its byte cap keeps a long analysis
  // from retaining every frame it ever decompressed. Groups are dealt to
  // workers in contiguous (thread, log-position) spans, so a worker keeps
  // reading the same lanes' frames bucket after bucket.
  std::vector<trace::FrameCache> worker_caches(threads_);
  // Decode cursors, one per (worker, log reader), persisted across buckets
  // like the frame caches. Buckets iterate in root-offset order -
  // chronological, hence log order - and each group's segments are
  // log-ordered too, so the decoder almost always RESUMES where the previous
  // segment stopped instead of re-decoding the frame's delta-coded prefix
  // (quadratic when many small segments share a frame).
  std::vector<std::unordered_map<const void*, trace::DecodeCursor>>
      worker_cursors(threads_);

  // The persistent checker pool (an Analyzer member): buckets are often
  // tiny, and spawning + joining a std::thread batch per bucket (twice: once
  // to build, once to compare) used to cost more than the bucket itself.
  // The pool's workers idle between buckets - and now between whole Analyze
  // calls - and are fed per-bucket work lists; work stealing rebalances
  // skewed pair blocks.
  CheckerPool* pool = pool_ ? &*pool_ : nullptr;

  std::unique_ptr<BucketWatchdog> watchdog;
  if (config.bucket_deadline_ms > 0) {
    watchdog = std::make_unique<BucketWatchdog>(config.bucket_deadline_ms);
  }

  uint64_t bucket_ordinal = ~0ULL;
  for (auto& [root_offset, segments] : buckets) {
    (void)root_offset;
    bucket_ordinal++;
    if (config.shard_count > 1 &&
        bucket_ordinal % config.shard_count != config.shard_index) {
      continue;  // another shard's bucket
    }
    buckets_attempted++;

    // Resume fast path: a bucket whose record survived in the journal is
    // replayed, not re-analyzed. Its races go through the SAME Add
    // sequence (record order == the clean run's deterministic merge order)
    // and its stats through the same ApplyBucketRecord fold, so the final
    // report is bit-identical to an uninterrupted run.
    if (const auto it = replay.find(bucket_ordinal); it != replay.end()) {
      for (const RaceReport& race : it->second.races) {
        result.races.Add(race);
      }
      ApplyBucketRecord(it->second, result.stats);
      result.stats.buckets_resumed++;
      continue;
    }

    EnvTimer bucket_timer(env_.now_ns);
    JournalBucketRecord rec;
    rec.ordinal = bucket_ordinal;
    AnalysisStats bucket_stats;  // this bucket's additive deltas only

    // --- 3: group by (thread, label).
    EnvTimer build_timer(env_.now_ns);
    std::map<std::pair<uint32_t, std::string>, std::unique_ptr<Group>> group_map;
    for (auto& [thread_idx, meta] : segments) {
      auto key = std::make_pair(thread_idx, LabelKey(meta->label));
      auto [it, inserted] = group_map.try_emplace(std::move(key));
      if (inserted) {
        it->second = std::make_unique<Group>();
        it->second->thread_idx = thread_idx;
        it->second->label = meta->label;
      }
      it->second->segments.push_back(meta);
    }
    std::vector<Group*> groups;
    groups.reserve(group_map.size());
    for (auto& [key, group] : group_map) groups.push_back(group.get());
    if (watchdog) watchdog->Arm();

    // --- 4: concurrency judgment per label pair, before any decode, so only
    // the groups the compare phase will read get summarized. Concurrency is
    // judged purely on labels: one OS thread may have hosted two different
    // lanes back to back (worker reuse), and those lanes' intervals still
    // race in the OpenMP abstract machine even though this particular
    // schedule serialized them. Equal labels (the same logical execution
    // point) come out Sequential, so self-pairs prune themselves.
    EnvTimer judge_timer(env_.now_ns);
    std::vector<std::pair<Group*, Group*>> concurrent;
    concurrent.reserve(groups.size());
    for (size_t i = 0; i < groups.size(); i++) {
      for (size_t j = i + 1; j < groups.size(); j++) {
        if (osl::Concurrent(groups[i]->label, groups[j]->label)) {
          concurrent.push_back({groups[i], groups[j]});
        }
      }
    }
    const double judge_seconds = judge_timer.ElapsedSeconds();
    result.stats.compare_seconds += judge_seconds;

    // Both passes parallelize per GROUP without locks: each worker owns its
    // frame cache, decode cursors and (in pass 2) the builder of the group
    // it works on; log readers are stateless, and the mutex-set table is
    // thread-safe. (The paper calls this out as future work - "the tree
    // generation cannot be efficiently parallelized since it would require
    // the use of locks" - which the per-group decomposition sidesteps.)
    //
    // Dispatch order (pair enumeration keeps the deterministic `groups`
    // order): groups are walked in (thread, log-position) order so each
    // worker's decode cursor moves forward through its logs instead of
    // ping-ponging between labels, and are dealt in CONTIGUOUS spans so the
    // cursor chains across a worker's whole block; stealing only kicks in
    // when a worker runs dry.
    std::vector<Group*> build_order = groups;
    std::sort(build_order.begin(), build_order.end(),
              [](const Group* a, const Group* b) {
                if (a->thread_idx != b->thread_idx) {
                  return a->thread_idx < b->thread_idx;
                }
                return a->segments.front()->data_begin <
                       b->segments.front()->data_begin;
              });
    auto for_each_group = [&](const std::vector<Group*>& order, auto&& fn) {
      if (!pool || order.size() < 2) {
        for (Group* group : order) {
          fn(group, &bucket_stats, 0u);
          if (!result.status.ok()) break;
        }
        return;
      }
      const size_t block = (order.size() + pool->workers() - 1) / pool->workers();
      std::vector<AnalysisStats> stats(pool->workers());
      pool->ParallelFor(order.size(), block,
                        [&](size_t k, uint32_t w) { fn(order[k], &stats[w], w); });
      for (const auto& s : stats) {
        bucket_stats.trees_built += s.trees_built;
        bucket_stats.tree_nodes += s.tree_nodes;
        bucket_stats.raw_events += s.raw_events;
        bucket_stats.segments_skipped += s.segments_skipped;
        bucket_stats.events_missing += s.events_missing;
        bucket_stats.bytes_skipped_read += s.bytes_skipped_read;
      }
    };

    // The governors poll between segments in both passes: the deadline
    // watchdog, and the memory governor, for which workers sum the bytes of
    // CLOSED summaries into one atomic and add their own leader's live
    // footprint per segment, so the cap is enforced while the builders grow,
    // not after the damage is done.
    std::atomic<uint64_t> bucket_segments{0};
    std::atomic<uint64_t> bucket_segment_failures{0};
    std::atomic<uint64_t> closed_tree_bytes{0};
    std::atomic<uint64_t> open_tree_bytes{0};  // builders a governor stopped
    std::atomic<bool> memory_capped{false};
    auto governed = [&] {
      return memory_capped.load(std::memory_order_relaxed) ||
             (watchdog && watchdog->breached());
    };
    // A segment that fails poisons only itself in salvage mode (the group
    // keeps every segment that did stream); a strict store aborts the whole
    // analysis. Returns true when the analysis aborts.
    std::mutex status_mutex;
    auto segment_failed = [&](const Status& s, AnalysisStats* stats) {
      std::lock_guard lock(status_mutex);
      if (result.first_error.ok()) result.first_error = s;
      if (!salvage) {
        if (result.status.ok()) result.status = s;
        return true;
      }
      bucket_segment_failures.fetch_add(1, std::memory_order_relaxed);
      stats->segments_skipped++;
      return false;
    };

    // --- 5, pass 1: decode every group once, fold its fingerprint and take
    // every per-segment count. No builder is touched. Before each segment the
    // worker's decode cursor is saved as the segment's resume point.
    for_each_group(build_order, [&](Group* group, AnalysisStats* stats, uint32_t w) {
      trace::DecodeCursor* cursor =
          &worker_cursors[w][store.threads()[group->thread_idx].log.get()];
      group->resume.reserve(group->segments.size());
      for (const trace::IntervalMeta* meta : group->segments) {
        if (governed()) return;
        bucket_segments.fetch_add(1, std::memory_order_relaxed);
        group->resume.push_back(*cursor);
        const Status s =
            FingerprintSegment(store, *group, *meta, *stats, &worker_caches[w], cursor);
        if (!s.ok() && segment_failed(s, stats)) return;
      }
    });
    if (!result.status.ok()) {
      if (watchdog) watchdog->Disarm();
      return result;
    }

    // A bucket where not a single segment streamed has nothing to compare;
    // count it and move on (salvage only - strict never gets here damaged).
    const bool bucket_skipped =
        salvage && bucket_segments.load() > 0 &&
        bucket_segment_failures.load() == bucket_segments.load();

    // Partition: of the groups some concurrent pair names, the FIRST with a
    // given fingerprint (in the deterministic pair order) leads and is
    // summarized; fingerprint-equal followers summarize to an identical set
    // and alias the leader's (repeated-subtrace memoization). One sort of
    // (fingerprint, first appearance) pairs puts each fingerprint's groups
    // side by side, leader first, so who leads never depends on the schedule
    // or the thread count. Views are wired here; the leaders' sets are
    // filled by pass 2.
    bool shared_fingerprint = false;
    if (!bucket_skipped && !governed()) {
      std::vector<Group*> named;  // in first-appearance order
      std::vector<std::pair<SegmentFingerprint, size_t>> by_fingerprint;
      for (const auto& [first, second] : concurrent) {
        for (Group* g : {first, second}) {
          if (g->frozen_view) continue;
          g->frozen_view = &g->frozen;
          by_fingerprint.emplace_back(g->fingerprint, named.size());
          named.push_back(g);
        }
      }
      std::sort(by_fingerprint.begin(), by_fingerprint.end());
      for (size_t i = 1; i < by_fingerprint.size(); i++) {
        if (by_fingerprint[i].first == by_fingerprint[i - 1].first) {
          named[by_fingerprint[i].second]->frozen_view =
              named[by_fingerprint[i - 1].second]->frozen_view;
          shared_fingerprint = true;
        }
      }
    }
    std::vector<Group*> leaders;  // in dispatch order
    for (Group* g : build_order) {
      if (g->frozen_view == &g->frozen) leaders.push_back(g);
    }
    // Grouping, pass 1 and the partition are build time; the judgment
    // inside that span was charged to compare above.
    const double pass1_seconds = build_timer.ElapsedSeconds() - judge_seconds;

    // --- 6, pass 2: summarize and freeze the leaders only. Each segment
    // restarts from its resume point, so no frame prefix is decoded twice;
    // the builder lives only until its leader is frozen.
    EnvTimer pass2_timer(env_.now_ns);
    std::vector<std::pair<uint64_t, uint64_t>> phase_ns(threads_);  // {stream, freeze}
    for_each_group(leaders, [&](Group* group, AnalysisStats* stats, uint32_t w) {
      const uint64_t start_ns = env_.now_ns();
      itree::StreamingSetBuilder builder;
      builder.ReserveIndex(IndexReservation(store, *group));
      for (size_t k = 0; k < group->segments.size(); k++) {
        if (governed()) {
          open_tree_bytes.fetch_add(builder.MemoryBytes(), std::memory_order_relaxed);
          return;
        }
        trace::DecodeCursor cursor = group->resume[k];
        // Pass 1 streamed this range already: a salvage reader skips the
        // same holes without failing, a strict one succeeds again.
        Status s = SummarizeSegment(store, *group, *group->segments[k], builder,
                                    mutexes, &worker_caches[w], &cursor);
        if (s.ok() && builder.Overflowed()) {
          s = Status::Oom(std::string("interval summary exceeds ")
                              .append(std::to_string(itree::StreamingSetBuilder::kMaxNodes))
                              .append(" nodes"));
        }
        if (!s.ok() && segment_failed(s, stats)) return;
        if (config.max_tree_bytes > 0 &&
            closed_tree_bytes.load(std::memory_order_relaxed) + builder.MemoryBytes() >
                config.max_tree_bytes) {
          memory_capped.store(true, std::memory_order_relaxed);
          open_tree_bytes.fetch_add(builder.MemoryBytes(), std::memory_order_relaxed);
          return;
        }
      }
      // The leader is closed: only its nodes stay alive until Freeze.
      builder.DropIndex();
      closed_tree_bytes.fetch_add(builder.MemoryBytes(), std::memory_order_relaxed);
      stats->trees_built++;
      stats->tree_nodes += builder.NodeCount();
      const uint64_t freeze_ns = env_.now_ns();
      group->frozen = builder.Freeze();
      phase_ns[w].first += freeze_ns - start_ns;
      phase_ns[w].second += env_.now_ns() - freeze_ns;
    });
    if (!result.status.ok()) {
      if (watchdog) watchdog->Disarm();
      return result;
    }
    // Pass 2's wall clock splits between build and freeze in the proportion
    // its workers spent streaming and freezing (exact on one worker), so
    // build + freeze + compare never count a parallel second twice.
    {
      const double pass2_seconds = pass2_timer.ElapsedSeconds();
      double stream = 0, freeze = 0;
      for (const auto& [s, f] : phase_ns) {
        stream += static_cast<double>(s);
        freeze += static_cast<double>(f);
      }
      const double freeze_share =
          stream + freeze > 0 ? pass2_seconds * freeze / (stream + freeze) : 0;
      result.stats.build_seconds += pass1_seconds + pass2_seconds - freeze_share;
      result.stats.freeze_seconds += freeze_share;
    }

    // The bucket's summary footprint: the closed leaders plus any builder a
    // governor stopped (its bytes are real, and the peak should reflect what
    // the governor actually saw).
    const uint64_t bucket_tree_bytes = closed_tree_bytes.load() + open_tree_bytes.load();
    rec.tree_bytes = bucket_tree_bytes;

    if (bucket_skipped) {
      rec.flags |= JournalBucketRecord::kBucketSkipped;
    } else if (!governed()) {
      // --- 7: set comparison of every concurrent pair. A governed (capped
      // or expired) bucket skips this phase: its summaries are incomplete,
      // and comparing them proves nothing.
      EnvTimer compare_timer(env_.now_ns);
      bucket_stats.label_pairs_checked += groups.size() * (groups.size() - 1) / 2;
      bucket_stats.concurrent_pairs += concurrent.size();
      for (Group* g : groups) {
        if (g->frozen_view && g->frozen_view != &g->frozen) {
          bucket_stats.dedup_hits++;
          bucket_stats.dedup_bytes_saved += g->frozen_view->MemoryBytes();
        }
      }
      size_t pair_nodes_total = 0;  // sizes the compare phase's fan-out
      for (const auto& [first, second] : concurrent) {
        pair_nodes_total += first->frozen_view->size() + second->frozen_view->size();
      }

      CheckLimits limits;
      limits.cancel = watchdog ? &watchdog->breach() : nullptr;
      // Each pair collects its races privately; the merge below walks pairs
      // in index order, so the global report set's content and order do not
      // depend on the checker thread count or schedule. The journal (and
      // with it "resume == clean run") relies on exactly this determinism.
      std::vector<std::vector<RaceReport>> pair_races(concurrent.size());

      // Pair-check memoization: a pair whose ORDERED fingerprint
      // pair was already scheduled this bucket would re-derive the leader
      // pair's exact race list (identical streams, content-addressed mutex
      // ids, deterministic checker), so it skips the check and copies the
      // leader's results after the parallel phase - by reference, no overlap
      // work. Ordered because CheckPair(a, b) and CheckPair(b, a) may swap
      // pc1/pc2 in the reports. Computed sequentially: who memoizes whom
      // never depends on the checker schedule. Without a fingerprint shared
      // by two groups no ordered pair can repeat, so the map is skipped.
      constexpr size_t kNoMemo = ~size_t{0};
      std::vector<size_t> memo_src(concurrent.size(), kNoMemo);
      if (shared_fingerprint) {
        std::map<std::pair<SegmentFingerprint, SegmentFingerprint>, size_t>
            pair_by_fp;
        for (size_t k = 0; k < concurrent.size(); k++) {
          auto key = std::make_pair(concurrent[k].first->fingerprint,
                                    concurrent[k].second->fingerprint);
          auto [it, inserted] = pair_by_fp.try_emplace(std::move(key), k);
          if (!inserted) memo_src[k] = it->second;
        }
      }

      auto check_pair = [&](size_t k, CheckStats* stats) {
        if (memo_src[k] != kNoMemo) return;  // replayed from the leader below
        auto on_race = [&](const RaceReport& report) {
          pair_races[k].push_back(report);
        };
        CheckFrozenPair(*concurrent[k].first->frozen_view,
                        *concurrent[k].second->frozen_view, mutexes, on_race,
                        stats, limits);
      };

      // Tiny buckets run on the caller: waking the pool for a handful of
      // near-empty pairs costs more than the comparisons themselves.
      constexpr size_t kPoolMinPairNodes = 4096;
      if (!pool || concurrent.size() < 2 ||
          pair_nodes_total < kPoolMinPairNodes) {
        CheckStats stats;
        for (size_t k = 0; k < concurrent.size(); k++) check_pair(k, &stats);
        bucket_stats.node_pairs_ranged += stats.node_pairs_ranged;
        bucket_stats.fastpath_hits += stats.fastpath_hits;
        bucket_stats.duplicates_suppressed += stats.duplicates_suppressed;
      } else {
        // Pair blocks a few pairs wide: coarse enough to amortize the deque
        // traffic, fine enough that stealing can still rebalance a bucket
        // whose first blocks hold the big sets.
        std::vector<CheckStats> stats(pool->workers());
        const size_t block =
            std::max<size_t>(1, concurrent.size() / (size_t{4} * pool->workers()));
        pool->ParallelFor(concurrent.size(), block, [&](size_t k, uint32_t w) {
          check_pair(k, &stats[w]);
        });
        for (const auto& s : stats) {
          bucket_stats.node_pairs_ranged += s.node_pairs_ranged;
          bucket_stats.fastpath_hits += s.fastpath_hits;
          bucket_stats.duplicates_suppressed += s.duplicates_suppressed;
        }
      }

      // Replay memoized pairs by reference: the leader pair's list IS the
      // follower's (same streams, same checker). Copied after the parallel
      // barrier so the leader's list is complete.
      for (size_t k = 0; k < concurrent.size(); k++) {
        if (memo_src[k] == kNoMemo) continue;
        pair_races[k] = pair_races[memo_src[k]];
        bucket_stats.dedup_hits++;
      }

      // Deterministic merge: pair order, then report order within the pair
      // (the checkers emit each pair's reports in one canonical sorted
      // order). Reports identical to one already merged in this bucket are
      // dropped here - they cannot change the global set - and counted.
      // Only reports that changed the global set (a new code pair, or one
      // that replaced its pair's kept report) enter the journal record -
      // replaying them in order reproduces the set.
      std::set<std::tuple<uint64_t, uint64_t, uint64_t>> bucket_seen;
      for (const auto& races : pair_races) {
        for (const RaceReport& report : races) {
          if (!bucket_seen.insert(ReportIdentity(report)).second) {
            bucket_stats.duplicates_suppressed++;
            continue;
          }
          if (result.races.Add(report)) rec.races.push_back(report);
        }
      }
      result.stats.compare_seconds += compare_timer.ElapsedSeconds();
    }
    if (watchdog) {
      watchdog->Disarm();
      if (watchdog->breached()) rec.flags |= JournalBucketRecord::kDeadlineExceeded;
    }
    if (memory_capped.load()) rec.flags |= JournalBucketRecord::kMemoryCapped;

    // External memory accounting: the bucket's whole summarization footprint
    // (builders, plus every frozen set actually materialized -
    // dedup followers alias their leader's, so sharing shows up as a real
    // peak reduction). Charged and released here so an injected MemoryScope
    // records the per-bucket high-water mark; never affects the analysis.
    if (env_.mem) {
      uint64_t footprint = bucket_tree_bytes;
      for (Group* g : groups) {
        if (g->frozen_view == &g->frozen) footprint += g->frozen.MemoryBytes();
      }
      (void)env_.mem->Charge(footprint);
      env_.mem->Release(footprint);
    }

    rec.trees_built = bucket_stats.trees_built;
    rec.tree_nodes = bucket_stats.tree_nodes;
    rec.raw_events = bucket_stats.raw_events;
    rec.label_pairs_checked = bucket_stats.label_pairs_checked;
    rec.concurrent_pairs = bucket_stats.concurrent_pairs;
    rec.node_pairs_ranged = bucket_stats.node_pairs_ranged;
    rec.fastpath_hits = bucket_stats.fastpath_hits;
    rec.dedup_hits = bucket_stats.dedup_hits;
    rec.dedup_bytes_saved = bucket_stats.dedup_bytes_saved;
    rec.duplicates_suppressed = bucket_stats.duplicates_suppressed;
    rec.segments_skipped = bucket_stats.segments_skipped;
    rec.events_missing = bucket_stats.events_missing;
    rec.bytes_skipped_read = bucket_stats.bytes_skipped_read;
    ApplyBucketRecord(rec, result.stats);

    result.stats.max_bucket_seconds =
        std::max(result.stats.max_bucket_seconds, bucket_timer.ElapsedSeconds());

    // Checkpoint: the bucket is durable once its record lands. A failed
    // append costs nothing but resume granularity - the bucket would simply
    // be re-analyzed - so failures degrade (counted) instead of aborting.
    if (journal) {
      EnvTimer journal_timer(env_.now_ns);
      (void)journal->AppendBucket(rec);
      result.stats.journal_seconds += journal_timer.ElapsedSeconds();
    }
  }

  if (journal) {
    result.stats.journal_bytes = journal->bytes_appended();
    result.stats.journal_write_failures = journal->write_failures();
  }

  // Salvage policy: partial damage is reported through the stats while the
  // status stays Ok - but an analysis where EVERY attempted bucket failed
  // produced nothing, and pretending otherwise would be dishonest.
  if (salvage && result.status.ok() && buckets_attempted > 0 &&
      result.stats.buckets_skipped == buckets_attempted) {
    result.status = result.first_error.ok()
                        ? Status::Corrupt("no bucket survived salvage analysis")
                        : result.first_error;
  }

  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

AnalysisResult Analyze(const TraceStore& store, const AnalysisConfig& config) {
  Analyzer analyzer(config.threads);
  return analyzer.Analyze(store, config);
}

}  // namespace sword::offline
