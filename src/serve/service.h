// AnalysisService: the serve daemon's single-threaded core.
//
// One Tick() is one scheduling step: poll every growing run's ingestor,
// promote settled runs to the analysis queue, evaluate admission, and run
// at most one canonical analysis. The control socket and signal handlers
// never touch service state directly - they call the public methods, which
// serialize on one mutex - so every decision the daemon makes happens in a
// deterministic order given the same inputs and clock. That is what lets
// the chaos tests assert byte-identical outcomes under seeded fault plans.
//
// Containment ladder (robustness is the headline):
//   - transient ingest read errors: retried with backoff inside RunIngestor;
//   - repeated hard ingest failures: the run is quarantined
//     (kIngestFailure), counted, recorded in the ledger, and the daemon
//     moves on;
//   - a journal that fails to resume (torn header, knob mismatch): deleted
//     and re-created once (journal_resets), because the journal is an
//     optimization, never a reason to lose a run;
//   - an analysis that fails: retried up to max_analysis_attempts, then
//     quarantined (kAnalysisFailure);
//   - an exception escaping the analyzer (checker crash): caught and
//     quarantined (kAnalyzerCrash) - one poisoned run never takes the
//     daemon down;
//   - daemon death (kill -9): Recover() replays the ledger, reproducing
//     every finished run's verdict byte-for-byte; unfinished runs
//     re-analyze from their per-run journals.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "offline/analysis.h"
#include "serve/admission.h"
#include "serve/aggregate.h"
#include "serve/clock.h"
#include "serve/ingest.h"
#include "serve/ledger.h"

namespace sword::serve {

enum class RunPhase : uint8_t {
  kIngesting = 0,   // growing; RunIngestor is watching it
  kQueued = 1,      // settled; awaiting an analysis slot
  kDone = 2,        // verdict recorded and aggregated
  kQuarantined = 3, // contained with a counted reason
};

const char* RunPhaseName(RunPhase p);

enum class QuarantineReason : uint8_t {
  kNone = 0,
  kIngestFailure = 1,   // hard read failures past the retry budget
  kOpenFailure = 2,     // trace store refused to open
  kAnalysisFailure = 3, // analysis failed max_analysis_attempts times
  kAnalyzerCrash = 4,   // exception escaped the analyzer
};

const char* QuarantineReasonName(QuarantineReason r);

struct ServiceConfig {
  /// Directory for the ledger and the per-run journals. Created if absent.
  std::string state_dir;
  IngestConfig ingest;
  AdmissionConfig admission;
  /// Checker threads for the shared analyzer pool.
  uint32_t analysis_threads = 2;
  /// Open run traces with the salvage policy (the production default: fleet
  /// traces come from runs that may have crashed or been killed).
  bool salvage = true;
  /// Analysis attempts per run before kAnalysisFailure.
  uint32_t max_analysis_attempts = 2;
  // Result-affecting analysis knobs, forwarded to AnalysisConfig.
  uint32_t bucket_deadline_ms = 0;
  uint64_t max_tree_bytes = 0;
};

struct ServiceStats {
  uint64_t ticks = 0;
  uint64_t runs_added = 0;
  uint64_t runs_refused = 0;      // shed by admission (counted, not silent)
  uint64_t runs_done = 0;
  uint64_t runs_quarantined = 0;
  uint64_t quarantined_ingest = 0;
  uint64_t quarantined_open = 0;
  uint64_t quarantined_analysis = 0;
  uint64_t quarantined_crash = 0;
  uint64_t analyses = 0;          // canonical analyses executed
  uint64_t analysis_failures = 0; // attempts that returned a bad status
  uint64_t journal_resets = 0;    // journals deleted after a failed resume
  uint64_t ledger_replayed = 0;   // runs restored by Recover()
  uint64_t ledger_dropped = 0;    // torn ledger records dropped on Recover()
  uint64_t ledger_append_failures = 0;
};

/// Point-in-time view of one run for status surfaces.
struct RunSnapshot {
  std::string name;
  std::string dir;
  RunPhase phase = RunPhase::kIngesting;
  QuarantineReason quarantine = QuarantineReason::kNone;
  std::string status;     // last status string ("ok" or the error)
  uint64_t races = 0;     // verdict race count (done runs)
  uint32_t attempts = 0;  // analysis attempts so far
};

class AnalysisService {
 public:
  /// `env.fs` (when set) is used for ledger AND journal writes; `io` for
  /// ingest reads; `now` for every timing decision. All default to the real
  /// thing.
  explicit AnalysisService(ServiceConfig config, offline::AnalyzerEnv env = {},
                           IngestIo* io = nullptr, ClockFn now = {});

  /// Replays the ledger from state_dir. Call once before the first Tick
  /// when restarting into an existing state directory; a fresh directory
  /// recovers zero runs. Also (re)opens the ledger for appending.
  Status Recover();

  /// Registers a trace directory as a run (name = basename). Refused with
  /// kUnavailable when admission is shedding new runs (counted), with
  /// kInvalidArgument when the name is already registered and finished with
  /// the same trace still in place.
  Status AddRun(const std::string& trace_dir);

  /// One scheduling step. Returns true if it made progress (a poll advanced
  /// a run, an analysis ran, a verdict landed).
  bool Tick();

  /// Ticks until no run is ingesting or queued. Returns ticks consumed.
  /// `max_ticks` bounds runaway loops in tests.
  uint32_t Drain(uint32_t max_ticks = 1'000'000);

  /// True when no run is ingesting or queued.
  bool Idle();

  std::vector<RunSnapshot> Runs();
  ServiceStats Stats();
  uint64_t AdmissionPacked();
  std::string AggregateJson();
  /// Distinct race sites in the cross-run aggregate (drives the exit code).
  uint64_t SiteCount();
  /// Full status snapshot: {"ticks":..,"admission":{..},"runs":[..],
  /// "stats":{..},"aggregate":{..}}.
  std::string StatusJson();

 private:
  struct Run {
    std::string name;
    std::string dir;
    std::unique_ptr<RunIngestor> ingestor;
    RunPhase phase = RunPhase::kIngesting;
    QuarantineReason quarantine = QuarantineReason::kNone;
    Status status;
    uint64_t queued_at_ns = 0;
    uint32_t attempts = 0;
    bool journal_reset = false;  // fresh-journal retry already spent
    RunVerdict verdict;
  };

  void Quarantine(Run& run, QuarantineReason reason, Status status);
  void FinishRun(Run& run, RunVerdict verdict);
  void RecordLedger(const Run& run);
  /// Runs (or re-runs) the canonical analysis for a queued run.
  void AnalyzeRun(Run& run);
  std::string JournalPathForRun(const std::string& name) const;

  ServiceConfig config_;
  offline::AnalyzerEnv env_;
  IngestIo* io_;
  ClockFn now_;

  std::mutex mu_;  // guards everything below
  offline::Analyzer analyzer_;
  AdmissionController admission_;
  ReportAggregator aggregator_;
  std::map<std::string, Run> runs_;  // by name: deterministic iteration
  std::unique_ptr<LedgerWriter> ledger_;
  ServiceStats stats_;
};

}  // namespace sword::serve
