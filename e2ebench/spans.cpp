#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace e2e {

uint64_t SpanRecorder::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

SpanRecorder::Token SpanRecorder::Open(std::string_view name) {
  Token token;
  if (enabled_) {
    Span span;
    span.name = std::string(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.rep = rep_;
    token.index = static_cast<int32_t>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(token.index);
  }
  token.start_ns = NowNs();
  if (token.index >= 0) spans_[token.index].start_ns = token.start_ns;
  return token;
}

double SpanRecorder::Close(Token token) {
  const uint64_t end_ns = NowNs();
  if (token.index >= 0) {
    spans_[token.index].end_ns = end_ns;
    open_.pop_back();  // spans close in LIFO order
  }
  return static_cast<double>(end_ns - token.start_ns) * 1e-9;
}

void SpanRecorder::Count(std::string_view key, double value) {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].counts.emplace_back(std::string(key), value);
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = spans[i].start_ns;  // covered up to here
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) * 1e-9;
  }
  return self;
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i) out += ",\n";
    out += "{\"name\":\"";
    AppendEscaped(&out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof buf, "\"args\":{\"id\":%zu,\"parent\":%d,\"rep\":\"", i,
                  s.parent);
    out += buf;
    AppendEscaped(&out, s.rep);
    out += "\"";
    for (const auto& [key, value] : s.counts) {
      out += ",\"";
      AppendEscaped(&out, key);
      std::snprintf(buf, sizeof buf, "\":%.17g", value);
      out += buf;
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace e2e
