// sword-serve: the fleet-scale analysis daemon.
//
//   sword-serve [trace-dir ...] --state-dir DIR [options]
//
// A long-lived service that watches many trace directories at once,
// incrementally ingests them while the traced applications are still
// running (torn tails read through the salvage decoder), schedules settled
// runs onto the shared analysis pool behind an admission controller, and
// aggregates race reports across runs. Verdicts are journaled to an
// append-only ledger under --state-dir, so a daemon killed at any moment
// restarts into the same aggregate, byte for byte.
//
// Modes:
//   --once        batch: register the given dirs (and one --watch scan),
//                 drain them all, print the aggregate, exit.
//   (default)     daemon: keep polling; rescan --watch for new run dirs;
//                 serve the control socket; exit on SIGTERM/SIGINT or a
//                 {"cmd":"shutdown"} request, draining in-flight work.
//
// Control socket (--socket PATH, line-delimited JSON, one object per line):
//   {"cmd":"status"}             full service snapshot
//   {"cmd":"aggregate"}          cross-run aggregated race sites
//   {"cmd":"runs"}               per-run phase/quarantine list
//   {"cmd":"add","dir":"/path"}  register a trace directory
//   {"cmd":"shutdown"}           drain and exit
//
// Exit-code contract (matches sword-offline):
//   0 = drained, no races in the aggregate
//   2 = drained, races found
//   4 = daemon-level failure (state dir, ledger, socket)
//   1 = usage error
#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/faultfs.h"
#include "common/fsutil.h"
#include "serve/control.h"
#include "serve/service.h"

using namespace sword;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitUsage = 1;
constexpr int kExitRaces = 2;
constexpr int kExitFailure = 4;

volatile sig_atomic_t g_signal_stop = 0;
void OnSignal(int) { g_signal_stop = 1; }

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sword-serve [trace-dir ...] --state-dir DIR [options]\n"
               "  --state-dir DIR  ledger + per-run journals (required)\n"
               "  --once           drain the given dirs and exit (batch mode)\n"
               "  --watch DIR      rescan DIR each cycle; every subdirectory\n"
               "                   is registered as a run\n"
               "  --socket PATH    serve the line-JSON control protocol on an\n"
               "                   AF_UNIX socket at PATH\n"
               "  --json           print the final status snapshot as JSON\n"
               "  --threads N      checker threads for the shared analyzer\n"
               "                   pool (default 2)\n"
               "  --no-salvage     open traces strictly (default: salvage,\n"
               "                   the fleet posture - runs may have crashed)\n"
               "  --poll-ms N      service tick cadence (default 50)\n"
               "  --max-inflight N admission: in-flight run cap (default 8)\n"
               "  --queue-limit N  admission: queue soft limit (default 16)\n"
               "  --queue-deadline-ms N  admission: max queued age (default\n"
               "                   30000)\n"
               "  --max-attempts N analysis attempts before quarantine\n"
               "                   (default 2)\n"
               "  --fault-plan S   chaos harness: deterministic fault spec\n"
               "                   (write ops hit journal/ledger appends, read\n"
               "                   ops hit ingest: transient=K;enospc@N;\n"
               "                   read_transient=K;read_fail@F+C;...)\n"
               "exit codes: 0 no races, 2 races found, 4 daemon failure,\n"
               "1 usage error\n");
}

/// Registers every subdirectory of `watch_dir` as a run. Refusals under
/// admission shedding are counted by the service; everything else is
/// idempotent.
void ScanWatchDir(serve::AnalysisService& service, const std::string& watch_dir) {
  DIR* d = ::opendir(watch_dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = watch_dir + "/" + name;
    DIR* sub = ::opendir(path.c_str());
    if (sub == nullptr) continue;  // not a directory (or unreadable): skip
    ::closedir(sub);
    (void)service.AddRun(path);
  }
  ::closedir(d);
}

std::string RunsJson(serve::AnalysisService& service) {
  std::string out = "{\"runs\":[";
  bool first = true;
  for (const auto& run : service.Runs()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + run.name + "\",\"phase\":\"";
    out += serve::RunPhaseName(run.phase);
    out += "\",\"quarantine\":\"";
    out += serve::QuarantineReasonName(run.quarantine);
    out += "\",\"races\":" + std::to_string(run.races);
    out += ",\"attempts\":" + std::to_string(run.attempts) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string state_dir = args.GetString("state-dir", "");
  const bool once = args.GetBool("once");
  const std::string watch_dir = args.GetString("watch", "");
  const std::string socket_path = args.GetString("socket", "");
  const bool json = args.GetBool("json");
  const int64_t threads = args.GetInt("threads", 2);
  const bool no_salvage = args.GetBool("no-salvage");
  const int64_t poll_ms = args.GetInt("poll-ms", 50);
  const int64_t max_inflight = args.GetInt("max-inflight", 8);
  const int64_t queue_limit = args.GetInt("queue-limit", 16);
  const int64_t queue_deadline_ms = args.GetInt("queue-deadline-ms", 30'000);
  const int64_t max_attempts = args.GetInt("max-attempts", 2);
  const std::string fault_spec = args.GetString("fault-plan", "");

  if (args.GetBool("help")) {
    PrintUsage();
    return kExitClean;
  }
  for (const auto& flag : args.UnknownFlags()) {
    std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
    PrintUsage();
    return kExitUsage;
  }
  if (state_dir.empty()) {
    std::fprintf(stderr, "error: --state-dir is required\n");
    PrintUsage();
    return kExitUsage;
  }
  if (threads < 1 || poll_ms < 1 || max_inflight < 1 || queue_limit < 1 ||
      max_attempts < 1 || queue_deadline_ms < 1) {
    std::fprintf(stderr, "error: numeric flags must be positive\n");
    return kExitUsage;
  }
  if (args.positional().empty() && watch_dir.empty() && socket_path.empty()) {
    std::fprintf(stderr,
                 "error: nothing to do - give trace dirs, --watch, or "
                 "--socket\n");
    PrintUsage();
    return kExitUsage;
  }

  // The chaos harness: one plan string drives BOTH fault surfaces - write
  // faults (journal/ledger appends) through a FaultFile backend, read faults
  // (ingest) through a FaultIngestIo. Deterministic, so any failing plan
  // replays exactly from its spec.
  testing::FaultFile fault_fs;
  serve::FaultIngestIo fault_io;
  offline::AnalyzerEnv env;
  serve::IngestIo* io = nullptr;
  if (!fault_spec.empty()) {
    auto plan = testing::ParseFaultPlan(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   plan.status().ToString().c_str());
      return kExitUsage;
    }
    plan.value().ApplyTo(fault_fs);
    fault_io.ApplyPlan(plan.value());
    env.fs = &fault_fs;
    io = &fault_io;
  }

  serve::ServiceConfig config;
  config.state_dir = state_dir;
  config.analysis_threads = static_cast<uint32_t>(threads);
  config.salvage = !no_salvage;
  config.max_analysis_attempts = static_cast<uint32_t>(max_attempts);
  config.admission.max_inflight = static_cast<uint32_t>(max_inflight);
  config.admission.queue_soft_limit = static_cast<uint32_t>(queue_limit);
  config.admission.queue_deadline_ns =
      static_cast<uint64_t>(queue_deadline_ms) * 1'000'000;

  serve::AnalysisService service(config, env, io);
  const Status recovered = service.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "error: recover %s: %s\n", state_dir.c_str(),
                 recovered.ToString().c_str());
    return kExitFailure;
  }

  for (const auto& dir : args.positional()) (void)service.AddRun(dir);
  if (!watch_dir.empty()) ScanWatchDir(service, watch_dir);

  std::atomic<bool> shutdown_requested{false};
  serve::ControlServer control(
      socket_path, [&](const std::string& line) -> std::string {
        const std::string cmd = serve::JsonField(line, "cmd");
        if (cmd == "status") return service.StatusJson();
        if (cmd == "aggregate") return service.AggregateJson();
        if (cmd == "runs") return RunsJson(service);
        if (cmd == "add") {
          const std::string dir = serve::JsonField(line, "dir");
          if (dir.empty()) {
            return "{\"ok\":false,\"error\":\"add needs a dir field\"}";
          }
          const Status s = service.AddRun(dir);
          if (!s.ok()) {
            return "{\"ok\":false,\"error\":\"" + s.ToString() + "\"}";
          }
          return "{\"ok\":true}";
        }
        if (cmd == "shutdown") {
          shutdown_requested.store(true, std::memory_order_release);
          return "{\"ok\":true,\"draining\":true}";
        }
        return "{\"ok\":false,\"error\":\"unknown cmd\"}";
      });
  if (!socket_path.empty()) {
    const Status started = control.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: control socket: %s\n",
                   started.ToString().c_str());
      return kExitFailure;
    }
  }

  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  if (once) {
    service.Drain();
  } else {
    uint64_t cycles = 0;
    while (g_signal_stop == 0 &&
           !shutdown_requested.load(std::memory_order_acquire)) {
      // Rescan the watch dir on a slower cadence than the tick (every ~20
      // ticks): readdir on a big fleet dir is not free.
      if (!watch_dir.empty() && cycles % 20 == 0) {
        ScanWatchDir(service, watch_dir);
      }
      cycles++;
      const bool progress = service.Tick();
      // Throttled admission stretches the cadence; an idle tick sleeps
      // regardless so a quiet daemon costs nothing.
      const uint8_t level = static_cast<uint8_t>(service.AdmissionPacked() & 0xff);
      uint64_t sleep_usec = static_cast<uint64_t>(poll_ms) * 1000;
      if (level >= 1) sleep_usec *= 2;
      if (progress) sleep_usec = std::min<uint64_t>(sleep_usec, 1000);
      ::usleep(static_cast<useconds_t>(sleep_usec));
    }
    // Drain: finish what is queued or mid-ingest, refuse nothing new (the
    // watch dir is no longer scanned). SIGTERM again aborts the drain.
    g_signal_stop = 0;
    while (!service.Idle() && g_signal_stop == 0) service.Tick();
  }

  control.Stop();

  if (json) {
    std::printf("%s\n", service.StatusJson().c_str());
  } else {
    const auto stats = service.Stats();
    std::printf(
        "sword-serve: %llu run(s) done, %llu quarantined, %llu race "
        "site(s) across the fleet\n",
        (unsigned long long)stats.runs_done,
        (unsigned long long)stats.runs_quarantined,
        (unsigned long long)service.SiteCount());
  }
  return service.SiteCount() > 0 ? kExitRaces : kExitClean;
}
