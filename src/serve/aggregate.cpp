#include "serve/aggregate.h"

#include <cstdio>

namespace sword::serve {

bool ReportAggregator::AddRun(const RunVerdict& verdict) {
  auto it = runs_.find(verdict.run);
  if (it != runs_.end()) {
    if (it->second.fingerprint == verdict.fingerprint) return false;  // dup
    // Re-traced run: the old verdict is stale in full. Derived sites must
    // be rebuilt because removal is not an incremental merge.
    it->second = verdict;
    Rebuild();
    return true;
  }
  runs_.emplace(verdict.run, verdict);
  MergeVerdict(verdict);
  return true;
}

void ReportAggregator::MergeVerdict(const RunVerdict& verdict) {
  // Within one run the report list is already deduped by code pair, so each
  // verdict contributes at most 1 to a pair's run count.
  for (const RaceReport& race : verdict.races) {
    const uint64_t key = race.Key();
    auto [it, inserted] = sites_.try_emplace(key);
    Site& site = it->second;
    // Order-free sample election: the lexicographically smallest run name
    // wins, so any merge order of the same verdict set converges on the
    // same sample.
    if (inserted || verdict.run < site.sample_run) {
      site.sample = race;
      site.sample_run = verdict.run;
    }
    site.runs++;
  }
}

void ReportAggregator::Rebuild() {
  sites_.clear();
  for (const auto& [name, verdict] : runs_) MergeVerdict(verdict);
}

std::vector<ReportAggregator::Site> ReportAggregator::Sites() const {
  std::vector<Site> out;
  out.reserve(sites_.size());
  for (const auto& [key, site] : sites_) out.push_back(site);
  return out;
}

uint64_t ReportAggregator::races_total() const {
  uint64_t n = 0;
  for (const auto& [name, verdict] : runs_) n += verdict.races.size();
  return n;
}

std::string ReportAggregator::RenderJson() const {
  // Pairs in key order; addresses as decimal strings (JSON numbers lose
  // 64-bit precision), matching offline/report.cpp's convention.
  std::string out = "{\"runs\":" + std::to_string(runs_.size());
  out += ",\"sites\":[";
  bool first = true;
  for (const auto& [key, site] : sites_) {
    if (!first) out += ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"pc1\":%u,\"pc2\":%u,\"address\":\"%llu\","
                  "\"size1\":%u,\"size2\":%u,\"write1\":%s,\"write2\":%s,"
                  "\"runs\":%llu,\"sample_run\":\"%s\"}",
                  site.sample.pc1, site.sample.pc2,
                  static_cast<unsigned long long>(site.sample.address),
                  unsigned(site.sample.size1), unsigned(site.sample.size2),
                  site.sample.write1 ? "true" : "false",
                  site.sample.write2 ? "true" : "false",
                  static_cast<unsigned long long>(site.runs),
                  site.sample_run.c_str());
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace sword::serve
