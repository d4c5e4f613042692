// Reproduces Figure 6: geometric-mean runtime and memory overhead of the
// OmpSCR microbenchmarks under baseline / archer / archer-low / sword
// (dynamic collection only, like the paper's Fig. 6 which excludes the
// offline phase). Claims: small runtime overheads for every tool; sword's
// collection cheaper than archer's online checking; sword memory constant
// at ~3.3 MB/thread while archer's follows the application.
//
// Flags: --quick (2-thread column only, for CI), --json FILE
// (machine-readable metrics for the perf-smoke regression gate; includes
// the tracing-side per-access cost and fast-path suppression counters).
#include <algorithm>
#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/fsutil.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"

using namespace sword;
using namespace sword::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("Figure 6 - OmpSCR geometric-mean overheads (dynamic phase)",
         "sword collection is cheaper than archer online checking; sword "
         "memory is a per-thread constant");

  const std::vector<uint32_t> thread_counts =
      quick ? std::vector<uint32_t>{2} : std::vector<uint32_t>{2, 4, 8};
  const auto tools = {harness::ToolKind::kBaseline, harness::ToolKind::kArcher,
                      harness::ToolKind::kArcherLow, harness::ToolKind::kSword};

  // Metrics captured at the first thread count for the JSON gate.
  double json_sword_slow = 0, json_archer_slow = 0;
  double json_per_access_ns = 0, json_accesses_per_sec = 0;
  uint64_t json_suppressed = 0, json_coalesced = 0;
  double handler_slowdown = 0;

  for (const uint32_t threads : thread_counts) {
    std::map<harness::ToolKind, std::vector<double>> runtimes;
    std::map<harness::ToolKind, std::vector<double>> memories;
    std::map<harness::ToolKind, double> seconds;  // suite total per tool
    trace::FlusherStats flush;  // sword flush-pipeline work across the suite
    // The workloads' instrumented access count, measured by sword's own
    // counters (logged + filter-suppressed + run-coalesced); it is a
    // property of the suite, so it also serves as the per-access
    // denominator for the other tools' columns.
    uint64_t accesses = 0, suppressed = 0, coalesced = 0;
    TextTable per_workload({"workload", "accesses", "sword ns/acc"});

    // The OmpSCR kernels are sub-millisecond at quick scale, so one run is
    // scheduler noise; take the best of a few repetitions (the counters are
    // deterministic across reps, only the wall time varies).
    const int reps = quick ? 5 : 1;
    for (const auto* w : workloads::WorkloadRegistry::Get().BySuite("ompscr")) {
      double baseline_time = 0;
      for (const auto tool : tools) {
        harness::RunConfig config;
        config.tool = tool;
        config.params.threads = threads;
        config.run_offline = false;  // Fig. 6 measures the dynamic phase
        auto r = BestOfReps(
            reps, [&] { return harness::RunWorkload(*w, config); },
            [](const harness::RunResult& x) { return x.dynamic_seconds; });
        if (tool == harness::ToolKind::kBaseline) {
          baseline_time = std::max(r.dynamic_seconds, 1e-6);
        }
        if (tool == harness::ToolKind::kSword) {
          const uint64_t n = r.events + r.events_suppressed + r.events_coalesced;
          per_workload.AddRow({w->name, std::to_string(n),
                               Fmt(r.dynamic_seconds * 1e9 /
                                   std::max<uint64_t>(1, n))});
          Accumulate(&flush, r.flusher);
          accesses += n;
          suppressed += r.events_suppressed;
          coalesced += r.events_coalesced;
        }
        seconds[tool] += r.dynamic_seconds;
        runtimes[tool].push_back(
            std::max(r.dynamic_seconds, 1e-6) / baseline_time);
        memories[tool].push_back(
            static_cast<double>(r.TotalMemoryBytes()) / (1 << 20));
      }
    }

    per_workload.Print();
    TextTable table({"tool (" + std::to_string(threads) + " threads)",
                     "geo-mean slowdown", "geo-mean total memory",
                     "per-access ns", "suppressed", "coalesced"});
    std::map<harness::ToolKind, double> slow, mem;
    for (const auto tool : tools) {
      slow[tool] = harness::GeometricMean(runtimes[tool]);
      mem[tool] = harness::GeometricMean(memories[tool]);
      const double ns =
          seconds[tool] * 1e9 / std::max<uint64_t>(1, accesses);
      const bool is_sword = tool == harness::ToolKind::kSword;
      table.AddRow({harness::ToolName(tool), FmtX(slow[tool]),
                    Fmt(mem[tool]) + " MB", Fmt(ns),
                    is_sword ? std::to_string(suppressed) : "-",
                    is_sword ? std::to_string(coalesced) : "-"});
    }
    table.Print();
    std::printf("sword flush pipeline: %s\n", FlusherSummary(flush).c_str());

    // The paper runs on 24 cores where the flusher thread is free; on a
    // single-core host it competes with the program, so "comparable"
    // (within ~1.6x) is the reproducible form of the claim. The per-access
    // costs (bench_micro_components) show the 30x primitive-level gap.
    Check(slow[harness::ToolKind::kSword] <= slow[harness::ToolKind::kArcher] * 1.6,
          "sword dynamic overhead comparable to archer (<= 1.6x) at " +
              std::to_string(threads) + " threads");
    Check(mem[harness::ToolKind::kSword] >=
              3.0 * threads / 1.05 / 1.05,  // ~3.3 MB/thread, small tolerance
          "sword memory ~3.3 MB x " + std::to_string(threads) + " threads");
    std::printf("\n");

    if (threads == thread_counts.front()) {
      json_sword_slow = slow[harness::ToolKind::kSword];
      json_archer_slow = slow[harness::ToolKind::kArcher];
      const double sword_s =
          std::max(seconds[harness::ToolKind::kSword], 1e-9);
      json_per_access_ns = sword_s * 1e9 / std::max<uint64_t>(1, accesses);
      json_accesses_per_sec = static_cast<double>(accesses) / sword_s;
      json_suppressed = suppressed;
      json_coalesced = coalesced;
    }
  }

  // Production-survivability claim (docs/RESILIENCE.md): arming the
  // fatal-signal sealing path must be free in steady state. crash_seal=true
  // adds the one-time sigaction install, a SealRegistry slot per writer,
  // and a seqlock-protected publish of the pre-sealed meta image at every
  // checkpoint; none of that touches the per-access path, so the sword arm
  // with sealing on must stay within 2% of the arm with sealing off. Each
  // PAIR times the suite once per arm: per workload, the best of a few reps
  // with the two arms interleaved rep by rep (which runs first alternates).
  // A pair gives one ratio of the arms' suite totals, and the gate decides
  // on the median ratio. The kernels are sub-millisecond: one best-of over
  // the whole bench let a single lucky or unlucky stretch decide a 2%
  // bound, and the median of many pairs does not move with one.
  {
    const uint32_t threads = thread_counts.front();
    const int pairs = quick ? 15 : 9;
    const int reps = 3;
    const auto suite = workloads::WorkloadRegistry::Get().BySuite("ompscr");
    std::vector<double> ratios;
    double with_s = 0, without_s = 0;
    for (int pair = 0; pair < pairs; pair++) {
      double with = 0, without = 0;
      for (size_t k = 0; k < suite.size(); k++) {
        harness::RunConfig config;
        config.tool = harness::ToolKind::kSword;
        config.params.threads = threads;
        config.run_offline = false;
        double best_with = 1e300, best_without = 1e300;
        for (int rep = 0; rep < reps; rep++) {
          const bool seal_first = (static_cast<size_t>(pair + rep) + k) % 2 == 1;
          for (const bool seal : {seal_first, !seal_first}) {
            config.sword.crash_seal = seal;
            double& best = seal ? best_with : best_without;
            best = std::min(best, harness::RunWorkload(*suite[k], config).dynamic_seconds);
          }
        }
        with += best_with;
        without += best_without;
      }
      ratios.push_back(std::max(with, 1e-9) / std::max(without, 1e-9));
      with_s += with;
      without_s += without;
    }
    std::sort(ratios.begin(), ratios.end());
    handler_slowdown = ratios[ratios.size() / 2];
    std::printf("seal handler installed: %s suite slowdown vs uninstalled, median "
                "of %d interleaved pairs (pair ratios %s..%s; totals %.0f us vs "
                "%.0f us)\n",
                FmtX(handler_slowdown, 3).c_str(), pairs, FmtX(ratios.front()).c_str(),
                FmtX(ratios.back()).c_str(), with_s * 1e6, without_s * 1e6);
    Check(handler_slowdown <= 1.02,
          "fatal-signal seal handler costs < 2% of the dynamic phase");
    std::printf("\n");
  }

  // Race-set identity and soundness sweep over both ground-truth suites at
  // 8 threads. format_identity_ok: the race REPORT SET of the default v3
  // trace (per-site coalesced runs) equals that of the v2 trace of the
  // same workload (one event per access, no runs). soundness_ok: no
  // workload reports fewer races than its manifest ground truth under the
  // default writer.
  bool format_identity_ok = true, soundness_ok = true;
  {
    // Canonical race-set key: the unordered code pair plus the unordered
    // pair of access attributes. The WITNESS is order-sensitive (a pair of
    // read-modify-write statements can be caught as read@A/write@B or
    // write@A/read@B depending on which conflict the checker meets first,
    // and the coalescer legally reorders sites within a segment), so the
    // invariant compared here is the set of racing code pairs, not the
    // orientation of the first witness.
    offline::Analyzer analyzer(8);
    const auto race_key = [](const offline::AnalysisResult& res) {
      std::vector<std::string> lines;
      for (const auto& r : res.races.reports()) {
        std::string attr1 = r.write1 ? "w" : "r";
        attr1 += std::to_string(r.size1);
        std::string attr2 = r.write2 ? "w" : "r";
        attr2 += std::to_string(r.size2);
        if (attr2 < attr1) std::swap(attr1, attr2);
        lines.push_back(std::to_string(std::min(r.pc1, r.pc2)) + "-" +
                        std::to_string(std::max(r.pc1, r.pc2)) + ":" + attr1 +
                        "," + attr2);
      }
      std::sort(lines.begin(), lines.end());
      std::string out;
      for (const auto& l : lines) {
        out += l;
        out += ";";
      }
      return out;
    };
    for (const char* suite : {"drb", "ompscr"}) {
      for (const auto* w : workloads::WorkloadRegistry::Get().BySuite(suite)) {
        uint64_t races_v3 = 0;
        std::string keys[2];
        const uint8_t formats[2] = {trace::kTraceFormatV2, trace::kTraceFormatV3};
        for (int arm = 0; arm < 2; arm++) {
          TempDir dir("f6-fmt");
          harness::RunConfig tc;
          tc.tool = harness::ToolKind::kSword;
          tc.params.threads = 8;
          tc.run_offline = false;
          tc.sword.out_dir = dir.path();
          tc.sword.trace_format = formats[arm];
          harness::RunWorkload(*w, tc);
          auto store = offline::TraceStore::OpenDir(dir.path());
          if (!store.ok()) {
            format_identity_ok = false;
            keys[arm] = "open-failed:" + std::to_string(arm);
            continue;
          }
          const auto res = analyzer.Analyze(store.value(), {});
          keys[arm] = race_key(res);
          if (formats[arm] == trace::kTraceFormatV3) races_v3 = res.races.size();
        }
        if (keys[0] != keys[1]) {
          std::fprintf(stderr, "v2/v3 race-set MISMATCH on %s/%s\n", suite,
                       w->name.c_str());
          format_identity_ok = false;
        }
        if (races_v3 < static_cast<uint64_t>(w->total_races)) {
          std::fprintf(stderr,
                       "SOUNDNESS failure on %s/%s: %llu < %llu ground-truth "
                       "race(s)\n",
                       suite, w->name.c_str(),
                       static_cast<unsigned long long>(races_v3),
                       static_cast<unsigned long long>(w->total_races));
          soundness_ok = false;
        }
      }
    }
    Check(format_identity_ok,
          "race sets identical for trace formats v2 and v3 (drb + ompscr)");
    Check(soundness_ok,
          "every workload reports its ground-truth races (drb + ompscr sweep)");
    std::printf("\n");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"fig6_ompscr_overhead\",\"quick\":"
        << (quick ? "true" : "false")
        << ",\"sword_slowdown\":" << json_sword_slow
        << ",\"archer_slowdown\":" << json_archer_slow
        << ",\"overhead_ok\":"
        << (json_sword_slow <= json_archer_slow * 1.6 ? "true" : "false")
        << ",\"sword_per_access_ns\":" << json_per_access_ns
        << ",\"sword_accesses_per_sec\":" << json_accesses_per_sec
        << ",\"events_suppressed\":" << json_suppressed
        << ",\"events_coalesced\":" << json_coalesced
        << ",\"handler_installed\":true"
        << ",\"handler_installed_slowdown\":" << handler_slowdown
        << ",\"handler_overhead_ok\":"
        << (handler_slowdown <= 1.02 ? "true" : "false")
        << ",\"format_identity_ok\":"
        << (format_identity_ok ? "true" : "false")
        << ",\"soundness_ok\":" << (soundness_ok ? "true" : "false") << "}\n";
  }
  return 0;
}
