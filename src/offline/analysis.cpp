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
  /// The summarizer: a flat creation-order node arena plus its indexes,
  /// which are dropped when the group's last segment is summarized;
  /// Freeze() sorts the nodes into the frozen set.
  itree::StreamingSetBuilder builder;
  /// Canonical-decoded-stream identity, folded during the build.
  SegmentFingerprint fingerprint;
  /// The group's immutable comparison form, built once after the summarizer
  /// closes (only for groups that appear in a concurrent pair). Comparisons
  /// run on this; the summarizer is never traversed again.
  itree::FrozenIntervalSet frozen;
  /// What the checkers actually read: `&frozen` for groups that froze their
  /// own summarizer, a fingerprint-equal leader's `&frozen` for dedup
  /// followers, null for groups no concurrent pair names.
  const itree::FrozenIntervalSet* frozen_view = nullptr;
  bool freeze_marked = false;
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

/// Streams one segment's events into the group's summarizer, recovering the
/// lockset from mutex events (paper: "synchronization recovery"). `cache`
/// avoids re-decompressing a frame shared by many small segments. The
/// group's fingerprint folds the segment's canonical decoded stream as a
/// side effect of the same pass.
Status BuildSegment(const TraceStore& store, Group& group,
                    const trace::IntervalMeta& meta, itree::MutexSetTable& mutexes,
                    AnalysisStats& stats, trace::FrameCache* cache,
                    trace::DecodeCursor* cursor) {
  std::vector<itree::MutexId> initial(meta.lockset.begin(), meta.lockset.end());
  itree::MutexSetId cur = mutexes.Intern(std::move(initial));
  group.fingerprint.BeginSegment(meta.lockset);

  const auto& thread = store.threads()[group.thread_idx];
  uint64_t events = 0;
  uint64_t bytes_skipped = 0;
  const Status s = thread.log->StreamRange(
      meta.data_begin, meta.data_size,
      [&](const trace::RawEvent& e) {
        events++;
        group.fingerprint.MixEvent(e);
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
            group.builder.AddAccess(e.addr, key);
            break;
          }
          case trace::EventKind::kAccessRun: {
            itree::AccessKey key;
            key.pc = e.pc;
            key.flags = e.flags;
            key.size = e.size;
            key.mutexset = cur;
            // A writer-coalesced strided run materializes directly as a
            // symbolic strided interval - no per-element expansion (AddRun's
            // bulk path), but replay-identical to one.
            group.builder.AddRun(e.addr, e.stride, e.count, key);
            break;
          }
        }
      },
      cache, &bytes_skipped, cursor);
  stats.raw_events += events;
  stats.bytes_skipped_read += bytes_skipped;
  if (group.builder.Overflowed()) {
    return Status::Oom(std::string("interval summary exceeds ")
                           .append(std::to_string(itree::StreamingSetBuilder::kMaxNodes))
                           .append(" nodes"));
  }
  // Honest accounting for salvage runs: the meta claimed event_count events
  // for this segment; whatever did not stream (holes, truncation) is missing.
  if (s.ok() && meta.event_count > events) {
    stats.events_missing += meta.event_count - events;
  }
  return s;
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

    // --- 3: group by (thread, label); stream logs into per-group builders.
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

    // Summarization parallelizes per GROUP without locks: each
    // (thread, label) builder is private to its worker, log readers are
    // stateless, and the mutex-set table is thread-safe. (The paper calls
    // this out as future work - "the tree generation cannot be efficiently
    // parallelized since it would require the use of locks" - which the
    // per-group decomposition sidesteps.)
    //
    // The memory governor runs synchronously inside the build: workers sum
    // the bytes of CLOSED builders into one atomic and add their own group's
    // live footprint per segment, so the cap is enforced while the builders
    // grow, not after the damage is done.
    std::atomic<uint64_t> bucket_segments{0};
    std::atomic<uint64_t> bucket_segment_failures{0};
    std::atomic<uint64_t> closed_tree_bytes{0};
    std::atomic<bool> memory_capped{false};
    if (watchdog) watchdog->Arm();
    {
      std::mutex status_mutex;
      auto build_group = [&](Group* group, AnalysisStats* stats,
                             trace::FrameCache* cache,
                             std::unordered_map<const void*, trace::DecodeCursor>*
                                 cursors) {
        trace::DecodeCursor* cursor =
            &(*cursors)[store.threads()[group->thread_idx].log.get()];
        // Small segments sharing a frame decode it once, not once per
        // segment, courtesy of the worker's LRU frame cache. A segment that
        // fails to stream poisons only itself in salvage mode (the group's
        // builder keeps every segment that did stream); a strict store aborts
        // the whole analysis, as before.
        group->builder.ReserveIndex(IndexReservation(store, *group));
        for (const trace::IntervalMeta* meta : group->segments) {
          if (memory_capped.load(std::memory_order_relaxed) ||
              (watchdog && watchdog->breached())) {
            return;  // governed bucket: stop feeding the builders
          }
          bucket_segments.fetch_add(1, std::memory_order_relaxed);
          const Status s = BuildSegment(store, *group, *meta, mutexes, *stats,
                                        cache, cursor);
          if (!s.ok()) {
            std::lock_guard lock(status_mutex);
            if (result.first_error.ok()) result.first_error = s;
            if (!salvage) {
              if (result.status.ok()) result.status = s;
              return;
            }
            bucket_segment_failures.fetch_add(1, std::memory_order_relaxed);
            stats->segments_skipped++;
          }
          if (config.max_tree_bytes > 0 &&
              closed_tree_bytes.load(std::memory_order_relaxed) +
                      group->builder.MemoryBytes() >
                  config.max_tree_bytes) {
            memory_capped.store(true, std::memory_order_relaxed);
            return;
          }
        }
        // The group is closed: only its nodes stay alive until Freeze.
        group->builder.DropIndex();
        closed_tree_bytes.fetch_add(group->builder.MemoryBytes(),
                                    std::memory_order_relaxed);
        stats->trees_built++;
        stats->tree_nodes += group->builder.NodeCount();
      };

      // Dispatch order for the build only (pair enumeration keeps the
      // deterministic `groups` order): groups are walked in (thread,
      // log-position) order so each worker's decode cursor moves forward
      // through its logs instead of ping-ponging between labels.
      std::vector<Group*> build_order = groups;
      std::sort(build_order.begin(), build_order.end(),
                [](const Group* a, const Group* b) {
                  if (a->thread_idx != b->thread_idx) {
                    return a->thread_idx < b->thread_idx;
                  }
                  return a->segments.front()->data_begin <
                         b->segments.front()->data_begin;
                });

      if (!pool || groups.size() < 2) {
        for (Group* group : build_order) {
          build_group(group, &bucket_stats, &worker_caches[0],
                      &worker_cursors[0]);
          if (!result.status.ok()) break;
        }
      } else {
        // Deal CONTIGUOUS log spans, so each worker's cursor chains across
        // its whole block; stealing only kicks in when a worker runs dry.
        const size_t block =
            (build_order.size() + pool->workers() - 1) / pool->workers();
        std::vector<AnalysisStats> stats(pool->workers());
        pool->ParallelFor(build_order.size(), block, [&](size_t k, uint32_t w) {
          build_group(build_order[k], &stats[w], &worker_caches[w],
                      &worker_cursors[w]);
        });
        for (const auto& s : stats) {
          bucket_stats.trees_built += s.trees_built;
          bucket_stats.tree_nodes += s.tree_nodes;
          bucket_stats.raw_events += s.raw_events;
          bucket_stats.segments_skipped += s.segments_skipped;
          bucket_stats.events_missing += s.events_missing;
          bucket_stats.bytes_skipped_read += s.bytes_skipped_read;
        }
      }
      if (!result.status.ok()) {
        if (watchdog) watchdog->Disarm();
        return result;
      }
    }
    result.stats.build_seconds += build_timer.ElapsedSeconds();

    // The bucket's full summary footprint: closed builders plus any group a
    // governor abort left open (its bytes are real, and the peak should
    // reflect what the governor actually saw).
    uint64_t bucket_tree_bytes = closed_tree_bytes.load();
    if (memory_capped.load() || (watchdog && watchdog->breached())) {
      bucket_tree_bytes = 0;
      for (Group* group : groups) {
        bucket_tree_bytes += group->builder.MemoryBytes();
      }
    }
    rec.tree_bytes = bucket_tree_bytes;

    // A bucket where not a single segment streamed has nothing to compare;
    // count it and move on (salvage only - strict never gets here damaged).
    const bool bucket_skipped =
        salvage && bucket_segments.load() > 0 &&
        bucket_segment_failures.load() == bucket_segments.load();

    if (bucket_skipped) {
      rec.flags |= JournalBucketRecord::kBucketSkipped;
    } else if (!memory_capped.load() && !(watchdog && watchdog->breached())) {
      // --- 4: concurrency judgment per label pair, then set comparison.
      // A governed (capped or expired) bucket skips this phase: its
      // summaries are incomplete, and comparing them proves nothing.
      EnvTimer compare_timer(env_.now_ns);
      std::vector<std::pair<Group*, Group*>> concurrent;
      concurrent.reserve(groups.size());
      // Concurrency is judged purely on labels: one OS thread may have hosted
      // two different lanes back to back (worker reuse), and those lanes'
      // intervals still race in the OpenMP abstract machine even though this
      // particular schedule serialized them. Equal labels (the same logical
      // execution point) come out Sequential, so self-pairs prune themselves.
      for (size_t i = 0; i < groups.size(); i++) {
        for (size_t j = i + 1; j < groups.size(); j++) {
          bucket_stats.label_pairs_checked++;
          if (osl::Concurrent(groups[i]->label, groups[j]->label)) {
            concurrent.push_back({groups[i], groups[j]});
          }
        }
      }
      bucket_stats.concurrent_pairs += concurrent.size();

      // Freeze step: every group named by a concurrent pair gets its
      // immutable flat comparison form (the builder's node sort, parallel
      // on the pool). Groups no concurrent pair names are never frozen.
      //
      // Repeated-subtrace memoization: groups whose canonical
      // decoded streams fingerprinted identically summarize to identical
      // frozen sets, so only the FIRST such group (the leader, in the
      // deterministic group order) freezes; followers alias its set. The
      // leader partition runs sequentially before the parallel freeze, so
      // who leads never depends on the schedule.
      EnvTimer freeze_timer(env_.now_ns);
      std::vector<Group*> to_freeze;
      size_t pair_nodes_total = 0;  // sizes the compare phase's fan-out
      for (const auto& [first, second] : concurrent) {
        pair_nodes_total +=
            first->builder.NodeCount() + second->builder.NodeCount();
        for (Group* g : {first, second}) {
          if (!g->freeze_marked) {
            g->freeze_marked = true;
            to_freeze.push_back(g);
          }
        }
      }
      std::vector<Group*> freeze_leaders;
      std::vector<std::pair<Group*, Group*>> freeze_shares;  // {follower, leader}
      {
        std::map<SegmentFingerprint, Group*> leader_by_fp;
        for (Group* g : to_freeze) {
          auto [it, inserted] = leader_by_fp.try_emplace(g->fingerprint, g);
          if (inserted) {
            freeze_leaders.push_back(g);
          } else {
            freeze_shares.push_back({g, it->second});
          }
        }
      }
      if (!freeze_leaders.empty()) {
        auto freeze_one = [&](Group* g) {
          g->frozen = g->builder.Freeze();
          g->frozen_view = &g->frozen;
        };
        if (pool && freeze_leaders.size() >= 2) {
          pool->ParallelFor(freeze_leaders.size(), 1, [&](size_t k, uint32_t) {
            freeze_one(freeze_leaders[k]);
          });
        } else {
          for (Group* g : freeze_leaders) freeze_one(g);
        }
        result.stats.freeze_seconds += freeze_timer.ElapsedSeconds();
      }
      for (auto& [follower, leader] : freeze_shares) {
        follower->frozen_view = &leader->frozen;
        bucket_stats.dedup_hits++;
        bucket_stats.dedup_bytes_saved += leader->frozen.MemoryBytes();
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
      if (!freeze_shares.empty()) {
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
