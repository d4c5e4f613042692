#include "serve/service.h"

#include <algorithm>
#include <exception>

#include "common/fsutil.h"
#include "offline/tracestore.h"

namespace sword::serve {
namespace {

std::string Basename(const std::string& path) {
  std::string p = path;
  while (p.size() > 1 && p.back() == '/') p.pop_back();
  const size_t slash = p.find_last_of('/');
  return slash == std::string::npos ? p : p.substr(slash + 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The same cheap trace fingerprint the journal header binds: enough to
/// notice a run was re-traced, cheap enough to compute on every finish.
uint64_t FingerprintOf(const offline::TraceStore& store) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(store.thread_count());
  mix(store.TotalIntervals());
  mix(store.TotalLogBytes());
  return h;
}

}  // namespace

const char* RunPhaseName(RunPhase p) {
  switch (p) {
    case RunPhase::kIngesting: return "ingesting";
    case RunPhase::kQueued: return "queued";
    case RunPhase::kDone: return "done";
    case RunPhase::kQuarantined: return "quarantined";
  }
  return "?";
}

const char* QuarantineReasonName(QuarantineReason r) {
  switch (r) {
    case QuarantineReason::kNone: return "none";
    case QuarantineReason::kIngestFailure: return "ingest-failure";
    case QuarantineReason::kOpenFailure: return "open-failure";
    case QuarantineReason::kAnalysisFailure: return "analysis-failure";
    case QuarantineReason::kAnalyzerCrash: return "analyzer-crash";
  }
  return "?";
}

AnalysisService::AnalysisService(ServiceConfig config, offline::AnalyzerEnv env,
                                 ClockFn now)
    : config_(std::move(config)),
      env_(std::move(env)),
      now_(now ? std::move(now) : SteadyClock()),
      analyzer_(config_.analysis_threads, env_),
      admission_(config_.admission) {}

std::string AnalysisService::JournalPathForRun(const std::string& name) const {
  return config_.state_dir + "/journal_" + name + ".journal";
}

Status AnalysisService::Recover() {
  std::lock_guard lock(mu_);
  SWORD_RETURN_IF_ERROR(MakeDirs(config_.state_dir));
  const std::string path = config_.state_dir + "/serve.ledger";
  uint64_t valid_bytes = 0;
  if (FileExists(path)) {
    auto loaded = LoadLedger(path);
    if (!loaded.ok()) {
      // A ledger whose HEADER is gone has nothing recoverable; every run
      // re-analyzes from its journal, which is slower but never wrong.
      (void)RemoveFile(path);
      stats_.ledger_dropped++;
    } else {
      valid_bytes = loaded.value().valid_bytes;
      stats_.ledger_dropped += loaded.value().records_dropped;
      for (auto& rec : loaded.value().records) {
        Run run;
        run.name = rec.verdict.run;
        run.dir = rec.dir;
        run.phase = rec.quarantine != 0 ? RunPhase::kQuarantined : RunPhase::kDone;
        run.quarantine = static_cast<QuarantineReason>(rec.quarantine);
        run.status = rec.verdict.status;
        run.verdict = std::move(rec.verdict);
        if (run.phase == RunPhase::kDone) aggregator_.AddRun(run.verdict);
        stats_.ledger_replayed++;
        // Latest record for a name wins (a re-traced run appends a fresh
        // record; the aggregator already replaced the verdict above).
        runs_.insert_or_assign(run.name, std::move(run));
      }
    }
  }
  // The ledger open is the daemon's first write; a transient blip here
  // (storage warming up, momentary contention) must not kill a service
  // whose whole job is absorbing transient I/O faults. Hard errors still
  // fail startup after the bounded retries.
  Status open_status;
  for (uint32_t attempt = 0; attempt < 3; ++attempt) {
    auto writer = LedgerWriter::Open(path, valid_bytes, env_.fs);
    if (writer.ok()) {
      ledger_ = std::make_unique<LedgerWriter>(std::move(writer.value()));
      return Status::Ok();
    }
    open_status = writer.status();
    stats_.ledger_append_failures++;
  }
  return open_status;
}

Status AnalysisService::AddRun(const std::string& trace_dir) {
  std::lock_guard lock(mu_);
  const std::string name = Basename(trace_dir);
  if (const auto it = runs_.find(name); it != runs_.end()) {
    // Idempotent re-registration (watch-dir rescans, restart re-adds): a
    // finished run just refreshes its directory; an active run is a no-op.
    if (it->second.dir.empty()) it->second.dir = trace_dir;
    return Status::Ok();
  }
  if (!admission_.AdmitNew()) {
    stats_.runs_refused++;
    admission_.NoteRunShed();
    return Status::Unavailable("admission: shedding new runs (level " +
                               std::string(AdmissionLevelName(
                                   admission_.level_ordinal())) +
                               ")");
  }
  Run run;
  run.name = name;
  run.dir = trace_dir;
  run.ingestor = std::make_unique<RunIngestor>(trace_dir, config_.ingest, env_.fs, now_);
  stats_.runs_added++;
  runs_.emplace(name, std::move(run));
  return Status::Ok();
}

void AnalysisService::Quarantine(Run& run, QuarantineReason reason, Status status) {
  run.phase = RunPhase::kQuarantined;
  run.quarantine = reason;
  run.status = std::move(status);
  stats_.runs_quarantined++;
  switch (reason) {
    case QuarantineReason::kIngestFailure: stats_.quarantined_ingest++; break;
    case QuarantineReason::kOpenFailure: stats_.quarantined_open++; break;
    case QuarantineReason::kAnalysisFailure: stats_.quarantined_analysis++; break;
    case QuarantineReason::kAnalyzerCrash: stats_.quarantined_crash++; break;
    case QuarantineReason::kNone: break;
  }
  run.verdict = RunVerdict{};
  run.verdict.run = run.name;
  run.verdict.status = run.status;
  RecordLedger(run);
}

void AnalysisService::FinishRun(Run& run, RunVerdict verdict) {
  run.verdict = std::move(verdict);
  run.phase = RunPhase::kDone;
  run.status = run.verdict.status;
  stats_.runs_done++;
  aggregator_.AddRun(run.verdict);
  RecordLedger(run);
}

void AnalysisService::RecordLedger(const Run& run) {
  if (!ledger_) {
    // Lazy open for callers that skipped Recover() (tests mostly).
    if (!MakeDirs(config_.state_dir).ok()) return;
    const std::string path = config_.state_dir + "/serve.ledger";
    uint64_t valid_bytes = 0;
    if (FileExists(path)) {
      if (auto loaded = LoadLedger(path); loaded.ok()) {
        valid_bytes = loaded.value().valid_bytes;
      } else {
        // As in Recover(): an unreadable header leaves nothing to continue,
        // and continuing at 0 bytes would append records with no header.
        (void)RemoveFile(path);
      }
    }
    auto writer = LedgerWriter::Open(path, valid_bytes, env_.fs);
    if (!writer.ok()) {
      stats_.ledger_append_failures++;
      return;
    }
    ledger_ = std::make_unique<LedgerWriter>(std::move(writer.value()));
  }
  LedgerRecord rec;
  rec.verdict = run.verdict;
  rec.dir = run.dir;
  rec.quarantine = static_cast<uint8_t>(run.quarantine);
  if (!ledger_->Append(rec).ok()) {
    // Counted, not fatal: the run's verdict survives in memory, and after a
    // restart the run simply re-analyzes from its journal.
    stats_.ledger_append_failures++;
  }
}

void AnalysisService::AnalyzeRun(Run& run) {
  const uint64_t t0 = now_();
  offline::StoreOptions store_options;
  store_options.salvage = config_.salvage;
  auto store = offline::TraceStore::OpenDir(run.dir, store_options);
  if (!store.ok()) {
    Quarantine(run, QuarantineReason::kOpenFailure, store.status());
    return;
  }

  offline::AnalysisConfig cfg;
  cfg.threads = config_.analysis_threads;
  cfg.bucket_deadline_ms = config_.bucket_deadline_ms;
  cfg.max_tree_bytes = config_.max_tree_bytes;
  cfg.journal_path = JournalPathForRun(run.name);
  cfg.resume = FileExists(cfg.journal_path);

  stats_.analyses++;
  run.attempts++;
  offline::AnalysisResult result;
  bool crashed = false;
  Status crash_status;
  try {
    result = analyzer_.Analyze(store.value(), cfg);
  } catch (const std::exception& e) {
    crashed = true;
    crash_status = Status::Internal(std::string("analyzer crash: ") + e.what());
  } catch (...) {
    crashed = true;
    crash_status = Status::Internal("analyzer crash");
  }
  if (crashed) {
    // Containment: one poisoned run must never take the daemon down. The
    // run is sealed off with a counted reason; the pool and every other run
    // carry on.
    Quarantine(run, QuarantineReason::kAnalyzerCrash, std::move(crash_status));
    return;
  }

  if (!result.status.ok()) {
    stats_.analysis_failures++;
    if (cfg.resume && !run.journal_reset) {
      // The journal is an optimization, never a reason to lose a run: a
      // torn/mismatched journal is dropped and the analysis retried fresh,
      // once, without consuming the run's attempt budget.
      run.journal_reset = true;
      stats_.journal_resets++;
      (void)RemoveFile(cfg.journal_path);
      run.attempts--;
      AnalyzeRun(run);
      return;
    }
    run.status = result.status;
    if (run.attempts >= config_.max_analysis_attempts) {
      Quarantine(run, QuarantineReason::kAnalysisFailure, result.status);
    }
    // Otherwise the run stays queued and a later tick retries it.
    return;
  }

  admission_.NoteAnalysisNanos(now_() - t0);
  RunVerdict verdict;
  verdict.run = run.name;
  verdict.fingerprint = FingerprintOf(store.value());
  verdict.status = result.status;
  verdict.salvaged = store.value().integrity().salvaged;
  verdict.races = result.races.reports();
  FinishRun(run, std::move(verdict));
}

bool AnalysisService::Tick() {
  std::lock_guard lock(mu_);
  stats_.ticks++;
  bool progress = false;

  // 1. Advance every growing run's ingestor.
  for (auto& [name, run] : runs_) {
    if (run.phase != RunPhase::kIngesting) continue;
    const uint64_t polls_before = run.ingestor->stats().polls;
    const IngestState state = run.ingestor->Poll();
    if (run.ingestor->stats().polls != polls_before) progress = true;
    if (state == IngestState::kSettled) {
      run.phase = RunPhase::kQueued;
      run.queued_at_ns = now_();
      progress = true;
    } else if (state == IngestState::kFailed) {
      Quarantine(run, QuarantineReason::kIngestFailure,
                 run.ingestor->last_error());
      progress = true;
    }
  }

  // 2. Evaluate admission on the fresh load picture.
  uint32_t ingesting = 0, queued = 0;
  uint64_t oldest_wait = 0;
  const uint64_t now = now_();
  for (auto& [name, run] : runs_) {
    if (run.phase == RunPhase::kIngesting) ingesting++;
    if (run.phase == RunPhase::kQueued) {
      queued++;
      if (now > run.queued_at_ns) {
        oldest_wait = std::max(oldest_wait, now - run.queued_at_ns);
      }
    }
  }
  admission_.Evaluate(ingesting + queued, queued, oldest_wait);

  // 3. At most one canonical analysis per tick, FIFO by settle time (name
  // breaks ties - map order - so scheduling is deterministic).
  if (queued > 0 && admission_.AdmitWork()) {
    Run* pick = nullptr;
    for (auto& [name, run] : runs_) {
      if (run.phase != RunPhase::kQueued) continue;
      if (!pick || run.queued_at_ns < pick->queued_at_ns) pick = &run;
    }
    AnalyzeRun(*pick);
    progress = true;
  }
  return progress;
}

bool AnalysisService::Idle() {
  std::lock_guard lock(mu_);
  for (const auto& [name, run] : runs_) {
    if (run.phase == RunPhase::kIngesting || run.phase == RunPhase::kQueued) {
      return false;
    }
  }
  return true;
}

uint32_t AnalysisService::Drain(uint32_t max_ticks) {
  uint32_t ticks = 0;
  while (ticks < max_ticks && !Idle()) {
    Tick();
    ticks++;
  }
  return ticks;
}

std::vector<RunSnapshot> AnalysisService::Runs() {
  std::lock_guard lock(mu_);
  std::vector<RunSnapshot> out;
  out.reserve(runs_.size());
  for (const auto& [name, run] : runs_) {
    RunSnapshot snap;
    snap.name = run.name;
    snap.dir = run.dir;
    snap.phase = run.phase;
    snap.quarantine = run.quarantine;
    snap.status = run.status.ToString();
    snap.races = run.verdict.races.size();
    snap.attempts = run.attempts;
    out.push_back(std::move(snap));
  }
  return out;
}

ServiceStats AnalysisService::Stats() {
  std::lock_guard lock(mu_);
  return stats_;
}

uint64_t AnalysisService::AdmissionPacked() {
  std::lock_guard lock(mu_);
  return admission_.PackedState();
}

std::string AnalysisService::AggregateJson() {
  std::lock_guard lock(mu_);
  return aggregator_.RenderJson();
}

uint64_t AnalysisService::SiteCount() {
  std::lock_guard lock(mu_);
  return aggregator_.site_count();
}

std::string AnalysisService::StatusJson() {
  std::lock_guard lock(mu_);
  std::string out = "{";
  out += "\"ticks\":" + std::to_string(stats_.ticks);
  out += ",\"admission\":{\"level\":\"";
  out += AdmissionLevelName(admission_.level_ordinal());
  out += "\",\"transitions\":" + std::to_string(admission_.transitions().size());
  out += ",\"runs_shed\":" + std::to_string(admission_.runs_shed()) + "}";
  out += ",\"stats\":{";
  out += "\"runs_added\":" + std::to_string(stats_.runs_added);
  out += ",\"runs_refused\":" + std::to_string(stats_.runs_refused);
  out += ",\"runs_done\":" + std::to_string(stats_.runs_done);
  out += ",\"runs_quarantined\":" + std::to_string(stats_.runs_quarantined);
  out += ",\"quarantined_ingest\":" + std::to_string(stats_.quarantined_ingest);
  out += ",\"quarantined_open\":" + std::to_string(stats_.quarantined_open);
  out += ",\"quarantined_analysis\":" + std::to_string(stats_.quarantined_analysis);
  out += ",\"quarantined_crash\":" + std::to_string(stats_.quarantined_crash);
  out += ",\"analyses\":" + std::to_string(stats_.analyses);
  out += ",\"analysis_failures\":" + std::to_string(stats_.analysis_failures);
  out += ",\"journal_resets\":" + std::to_string(stats_.journal_resets);
  out += ",\"ledger_replayed\":" + std::to_string(stats_.ledger_replayed);
  out += ",\"ledger_dropped\":" + std::to_string(stats_.ledger_dropped);
  out += ",\"ledger_append_failures\":" +
         std::to_string(stats_.ledger_append_failures);
  out += "}";
  out += ",\"runs\":[";
  bool first = true;
  for (const auto& [name, run] : runs_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(run.name) + "\"";
    out += ",\"phase\":\"";
    out += RunPhaseName(run.phase);
    out += "\",\"quarantine\":\"";
    out += QuarantineReasonName(run.quarantine);
    out += "\",\"races\":" + std::to_string(run.verdict.races.size());
    out += ",\"attempts\":" + std::to_string(run.attempts);
    out += ",\"status\":\"" + JsonEscape(run.status.ToString()) + "\"}";
  }
  out += "]";
  out += ",\"aggregate\":" + aggregator_.RenderJson();
  out += "}";
  return out;
}

}  // namespace sword::serve
