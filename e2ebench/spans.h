// In-memory spans around the benchmark's calls into each layer.
//
// Every timed call goes through SpanRecorder::Open/Close, which read the
// clock whether or not recording is on: the untraced run and the traced
// run time a layer with the same two clock reads, and only the traced run
// also stores the span (name, start, end, parent, rep id, counts). At exit
// the traced run writes the spans as Chrome trace-event JSON, which opens in
// ui.perfetto.dev. All layer calls run on the benchmark's main thread, so a
// stack of open spans gives each span its parent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span; -1 = root
  std::string rep;      // "setup-1", "rep-3", ...: the rep the span belongs to
  std::vector<std::pair<std::string, double>> counts;  // recorded at Close

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  struct Token {
    uint64_t start_ns = 0;
    int32_t index = -1;  // -1 when not recording
  };

  /// A disabled recorder times spans but stores none.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  static uint64_t NowNs();

  void set_rep(std::string rep) { rep_ = std::move(rep); }

  Token Open(std::string_view name);
  /// Ends the span and returns its duration in seconds.
  double Close(Token token);
  /// Attaches a count to the innermost open span (no-op when not recording).
  void Count(std::string_view key, double value);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::string rep_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
};

/// Times `fn` as a span named `name`; returns its duration in seconds.
template <typename Fn>
double Timed(SpanRecorder& recorder, std::string_view name, Fn&& fn) {
  const SpanRecorder::Token token = recorder.Open(name);
  fn();
  return recorder.Close(token);
}

/// Self time of every span, in seconds: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once). Indexed like `spans`.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// relative to the first span; parent, rep and counts under "args").
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace e2e
