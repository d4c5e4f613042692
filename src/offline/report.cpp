#include "offline/report.h"

#include <cstdio>

namespace sword::offline {
namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
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

}  // namespace

std::string RenderText(const AnalysisResult& result, const PcNamer& pc_namer) {
  std::string out;
  out += std::to_string(result.races.size()) + " data race(s)\n";
  for (const RaceReport& race : result.races.reports()) {
    out += "  " + race.ToString(pc_namer) + "\n";
  }
  const auto& s = result.stats;
  out += "analyzed " + std::to_string(s.intervals) + " interval(s) in " +
         std::to_string(s.buckets) + " region(s), " + std::to_string(s.raw_events) +
         " event(s) -> " + std::to_string(s.tree_nodes) + " tree node(s)\n";
  // Resource-governor outcomes are part of the answer's integrity: a capped
  // bucket means the report is sound but not exhaustive.
  // (Journal/resume accounting is deliberately NOT rendered here - a resumed
  // run's report must be bit-identical to an uninterrupted one.)
  if (s.buckets_deadline_exceeded > 0 || s.buckets_memory_capped > 0) {
    out += "resource governor: DEGRADED\n";
    out += "  " + std::to_string(s.buckets_deadline_exceeded) +
           " bucket(s) over deadline, " + std::to_string(s.buckets_memory_capped) +
           " memory-capped\n";
  }
  const auto& in = s.integrity;
  // A crash-sealed run and a degraded run each get a headline of their own:
  // neither is frame damage, but both change what the report's silence
  // means (the trace ends early / the event lists may be subsets).
  if (in.crash_sealed) {
    out += "crash-sealed run: fatal signal " + std::to_string(int(in.crash_signo)) +
           ", " + std::to_string(in.crash_markers) +
           " crash marker(s); everything recorded before the seal is trusted\n";
  }
  if (s.intervals_degraded > 0 || in.degraded_dropped > 0) {
    out += "degradation governor: ACTIVE\n";
    out += "  " + std::to_string(s.intervals_degraded) +
           " interval(s) at reduced fidelity, " +
           std::to_string(in.degraded_dropped) + " access(es) shed (" +
           std::to_string(in.degradation_transitions) +
           " level change(s)); races found are real, absence is not proof\n";
  }
  // Pre-filter elision (traces from versions that had one) is
  // informational, never damage: receipts keep the decoded stream
  // address-equivalent, so nothing is missing from analysis.
  if (in.elided_accesses > 0) {
    out += "static pre-filter: " + std::to_string(in.elided_accesses) +
           " access(es) elided at proven-safe sites (receipts in stream)\n";
  }
  if (in.elided_lost > 0) {
    out += "  WARNING: " + std::to_string(in.elided_lost) +
           " elided access(es) lost their receipts; treated as damage\n";
  }
  const bool damaged = !in.clean() || s.segments_skipped > 0 ||
                       s.buckets_skipped > 0 || s.events_missing > 0 ||
                       s.bytes_skipped_read > 0;
  if (damaged || in.salvaged) {
    out += "trace integrity: ";
    out += damaged ? "DAMAGED" : "clean";
    out += in.salvaged ? " (salvage mode)\n" : "\n";
  }
  if (damaged) {
    out += "  frames: " + std::to_string(in.frames_ok) + " ok, " +
           std::to_string(in.frames_corrupt) + " corrupt, " +
           std::to_string(in.frames_unaddressable) + " unaddressable, " +
           std::to_string(in.gap_frames) + " gap(s)\n";
    out += "  log damage: " + std::to_string(in.resyncs) + " resync(s), " +
           std::to_string(in.bytes_skipped) + " byte(s) skipped, " +
           std::to_string(in.truncated_tail_bytes) + " truncated tail byte(s)\n";
    out += "  dropped at record time: " +
           std::to_string(in.events_dropped_at_record) + " event(s), " +
           std::to_string(in.bytes_dropped_at_record) + " byte(s)\n";
    out += "  meta: " + std::to_string(in.meta_records_dropped) +
           " record(s) torn, " + std::to_string(in.meta_records_rejected) +
           " rejected, " + std::to_string(in.threads_missing_meta) +
           " thread(s) missing meta, " + std::to_string(in.threads_missing_log) +
           " missing log\n";
    out += "  analysis: " + std::to_string(s.segments_skipped) +
           " segment(s) skipped, " + std::to_string(s.buckets_skipped) +
           " bucket(s) skipped, " + std::to_string(s.events_missing) +
           " event(s) missing, " + std::to_string(s.bytes_skipped_read) +
           " byte(s) unread\n";
    if (!result.first_error.ok()) {
      out += "  first error: " + result.first_error.ToString() + "\n";
    }
  }
  return out;
}

std::string RenderJson(const AnalysisResult& result, const PcNamer& pc_namer) {
  std::string out = "{\"races\":[";
  bool first = true;
  for (const RaceReport& race : result.races.reports()) {
    if (!first) out += ",";
    first = false;
    out += "{";
    out += "\"pc1\":" + std::to_string(race.pc1);
    out += ",\"loc1\":\"" + JsonEscape(pc_namer(race.pc1)) + "\"";
    out += ",\"pc2\":" + std::to_string(race.pc2);
    out += ",\"loc2\":\"" + JsonEscape(pc_namer(race.pc2)) + "\"";
    out += ",\"address\":\"" + std::to_string(race.address) + "\"";
    out += ",\"write1\":" + std::string(race.write1 ? "true" : "false");
    out += ",\"write2\":" + std::string(race.write2 ? "true" : "false");
    out += ",\"size1\":" + std::to_string(int(race.size1));
    out += ",\"size2\":" + std::to_string(int(race.size2));
    out += "}";
  }
  out += "],\"stats\":{";
  const auto& s = result.stats;
  out += "\"intervals\":" + std::to_string(s.intervals);
  out += ",\"buckets\":" + std::to_string(s.buckets);
  out += ",\"trees_built\":" + std::to_string(s.trees_built);
  out += ",\"tree_nodes\":" + std::to_string(s.tree_nodes);
  out += ",\"raw_events\":" + std::to_string(s.raw_events);
  out += ",\"label_pairs_checked\":" + std::to_string(s.label_pairs_checked);
  out += ",\"concurrent_pairs\":" + std::to_string(s.concurrent_pairs);
  out += ",\"node_pairs_ranged\":" + std::to_string(s.node_pairs_ranged);
  out += ",\"fastpath_hits\":" + std::to_string(s.fastpath_hits);
  out += ",\"dedup_hits\":" + std::to_string(s.dedup_hits);
  out += ",\"dedup_bytes_saved\":" + std::to_string(s.dedup_bytes_saved);
  out += ",\"duplicates_suppressed\":" + std::to_string(s.duplicates_suppressed);
  out += ",\"intervals_degraded\":" + std::to_string(s.intervals_degraded);
  out += ",\"degraded_events_dropped\":" +
         std::to_string(s.degraded_events_dropped);
  out += ",\"buckets_deadline_exceeded\":" +
         std::to_string(s.buckets_deadline_exceeded);
  out += ",\"buckets_memory_capped\":" + std::to_string(s.buckets_memory_capped);
  out += ",\"peak_tree_bytes\":" + std::to_string(s.peak_tree_bytes);
  out += ",\"peak_tree_bucket\":" + std::to_string(s.peak_tree_bucket);
  out += ",\"total_seconds\":" + std::to_string(s.total_seconds);
  out += "}";
  out += ",\"journal\":{";
  out += "\"buckets_resumed\":" + std::to_string(s.buckets_resumed);
  out += ",\"records_dropped\":" + std::to_string(s.journal_records_dropped);
  out += ",\"bytes_appended\":" + std::to_string(s.journal_bytes);
  out += ",\"write_failures\":" + std::to_string(s.journal_write_failures);
  out += ",\"journal_seconds\":" + std::to_string(s.journal_seconds);
  out += "}";
  const auto& in = s.integrity;
  out += ",\"integrity\":{";
  out += "\"salvaged\":" + std::string(in.salvaged ? "true" : "false");
  out += ",\"frames_ok\":" + std::to_string(in.frames_ok);
  out += ",\"frames_corrupt\":" + std::to_string(in.frames_corrupt);
  out += ",\"frames_unaddressable\":" + std::to_string(in.frames_unaddressable);
  out += ",\"gap_frames\":" + std::to_string(in.gap_frames);
  out += ",\"events_dropped_at_record\":" +
         std::to_string(in.events_dropped_at_record);
  out += ",\"bytes_dropped_at_record\":" +
         std::to_string(in.bytes_dropped_at_record);
  out += ",\"resyncs\":" + std::to_string(in.resyncs);
  out += ",\"bytes_skipped\":" + std::to_string(in.bytes_skipped);
  out += ",\"truncated_tail_bytes\":" + std::to_string(in.truncated_tail_bytes);
  out += ",\"meta_records_dropped\":" + std::to_string(in.meta_records_dropped);
  out += ",\"meta_records_rejected\":" + std::to_string(in.meta_records_rejected);
  out += ",\"threads_missing_meta\":" + std::to_string(in.threads_missing_meta);
  out += ",\"threads_missing_log\":" + std::to_string(in.threads_missing_log);
  out += ",\"crash_sealed\":" + std::string(in.crash_sealed ? "true" : "false");
  out += ",\"crash_signo\":" + std::to_string(int(in.crash_signo));
  out += ",\"crash_markers\":" + std::to_string(in.crash_markers);
  out += ",\"degraded_dropped\":" + std::to_string(in.degraded_dropped);
  out += ",\"degradation_transitions\":" +
         std::to_string(in.degradation_transitions);
  out += ",\"elided_accesses\":" + std::to_string(in.elided_accesses);
  out += ",\"elided_lost\":" + std::to_string(in.elided_lost);
  out += ",\"segments_skipped\":" + std::to_string(s.segments_skipped);
  out += ",\"buckets_skipped\":" + std::to_string(s.buckets_skipped);
  out += ",\"events_missing\":" + std::to_string(s.events_missing);
  out += ",\"bytes_skipped_read\":" + std::to_string(s.bytes_skipped_read);
  out += ",\"first_error\":\"" +
         JsonEscape(result.first_error.ok() ? "" : result.first_error.ToString()) +
         "\"";
  out += "}}";
  return out;
}

}  // namespace sword::offline
