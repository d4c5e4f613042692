// Tests of the benchmark's own arithmetic: quantiles and sample counts,
// self time of nested spans, phase residuals, and the base of each ratio.
// Expected quantiles are what Python's statistics.quantiles() returns for
// the same data. Exits 1 on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int g_checks = 0;

#define CHECK_NEAR(actual, expected)                                              \
  do {                                                                            \
    ++g_checks;                                                                   \
    const double a_ = (actual), e_ = (expected);                                  \
    if (std::fabs(a_ - e_) > 1e-9 * (1 + std::fabs(e_))) {                        \
      std::fprintf(stderr, "%s:%d: %s = %.17g, expected %.17g\n", __FILE__,       \
                   __LINE__, #actual, a_, e_);                                    \
      std::exit(1);                                                               \
    }                                                                             \
  } while (0)

#define CHECK(cond)                                                           \
  do {                                                                        \
    ++g_checks;                                                               \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

e2e::Span MakeSpan(const char* name, uint64_t start, uint64_t end, int32_t parent) {
  e2e::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestQuantilesMatchPython() {
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  CHECK_NEAR(e2e::Quantile({3, 1, 2}, 1, 4), 1.0);
  CHECK_NEAR(e2e::Quantile({3, 1, 2}, 2, 4), 2.0);
  CHECK_NEAR(e2e::Quantile({3, 1, 2}, 3, 4), 3.0);
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  CHECK_NEAR(e2e::Quantile(ten, 1, 4), 2.75);
  CHECK_NEAR(e2e::Quantile(ten, 3, 4), 8.25);
  // statistics.quantiles(range(1, 11), n=10)[8] == 9.9
  CHECK_NEAR(e2e::Quantile(ten, 9, 10), 9.9);
  CHECK_NEAR(e2e::Median({4, 1, 3, 2}), 2.5);
  CHECK_NEAR(e2e::Median({5, 1, 3}), 3.0);
  CHECK_NEAR(e2e::Median({}), 0.0);
  CHECK_NEAR(e2e::Quantile({7}, 1, 4), 7.0);
}

void TestSummaryCountsSamples() {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  const e2e::Summary s = e2e::Summarize(ten);
  CHECK(s.n == 10);
  CHECK_NEAR(s.median, 5.5);
  CHECK_NEAR(s.q1, 2.75);
  CHECK_NEAR(s.q3, 8.25);
  CHECK_NEAR(s.p90, 9.9);
  CHECK(s.above_p90 == 1);  // only 10 lies beyond 9.9
  CHECK_NEAR(s.Spread(), (8.25 - 2.75) / 5.5);
  CHECK_NEAR(e2e::Summarize({}).Spread(), 0.0);
}

void TestSelfTimeOfNestedSpans() {
  // root [0,100] > a [10,40] > a1 [20,30]; root > b [50,60]
  std::vector<e2e::Span> spans = {MakeSpan("root", 0, 100, -1), MakeSpan("a", 10, 40, 0),
                                  MakeSpan("a1", 20, 30, 1), MakeSpan("b", 50, 60, 0)};
  const std::vector<double> self = e2e::SelfSeconds(spans);
  CHECK_NEAR(self[0], 60e-9);  // a grandchild is not subtracted twice
  CHECK_NEAR(self[1], 20e-9);
  CHECK_NEAR(self[2], 10e-9);
  CHECK_NEAR(self[3], 10e-9);
  // Self times of a tree add up to the root's wall clock.
  CHECK_NEAR(self[0] + self[1] + self[2] + self[3], spans[0].Seconds());

  // Overlapping children count once, and a child poking out is clipped.
  std::vector<e2e::Span> overlap = {MakeSpan("root", 0, 100, -1), MakeSpan("x", 10, 40, 0),
                                    MakeSpan("y", 30, 50, 0), MakeSpan("z", 90, 120, 0)};
  CHECK_NEAR(e2e::SelfSeconds(overlap)[0], 50e-9);
}

void TestRecorderParentsAndDisabledTiming() {
  e2e::SpanRecorder rec(true);
  rec.set_rep("rep-0");
  const auto outer = rec.Open("phase");
  const double inner_s = e2e::Timed(rec, "layer", [] {});
  rec.Count("events", 42);
  const double outer_s = rec.Close(outer);
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[0].parent == -1);
  CHECK(rec.spans()[1].parent == 0);
  CHECK(rec.spans()[1].rep == "rep-0");
  CHECK(rec.spans()[0].counts.size() == 1);  // attached to the open phase
  CHECK(inner_s >= 0 && outer_s >= inner_s);

  // Disabled: still timed, nothing stored.
  e2e::SpanRecorder quiet(false);
  const double t = e2e::Timed(quiet, "quiet", [] {});
  CHECK(t >= 0);
  CHECK(quiet.spans().empty());

  const std::string json = e2e::ChromeTraceJson(rec.spans());
  CHECK(json.find("\"name\":\"layer\"") != std::string::npos);
  CHECK(json.find("\"parent\":0") != std::string::npos);
  CHECK(json.find("\"events\":42") != std::string::npos);
}

void TestResidualIsPhaseMinusChildren() {
  CHECK_NEAR(e2e::Residual(10.0, {2.0, 3.0, 4.0}), 1.0);
  CHECK_NEAR(e2e::Residual(5.0, {}), 5.0);
  // Layers plus residual reconstruct the phase wall clock.
  const std::vector<double> layers = {0.25, 0.5};
  CHECK_NEAR(layers[0] + layers[1] + e2e::Residual(1.0, layers), 1.0);
}

void TestRatioBases() {
  // 100 encoded events, 50 suppressed, 30 folded into runs, 20 elided:
  // the tool saw 200 accesses.
  const double accesses = e2e::AccessesSeen(100, 50, 30, 20);
  CHECK_NEAR(accesses, 200);
  // 1000 ns of tool cost over 200 accesses is 5 ns each, not 10 (the
  // logged-only base).
  CHECK_NEAR(e2e::NsPerAccess(1.2e-6, 0.2e-6, accesses), 5.0);
  CHECK_NEAR(e2e::Ratio(20, accesses), 0.1);  // elision ratio over all accesses
  CHECK_NEAR(e2e::Ratio(3, 0), 0.0);          // empty base
}

}  // namespace

int main() {
  TestQuantilesMatchPython();
  TestSummaryCountsSamples();
  TestSelfTimeOfNestedSpans();
  TestRecorderParentsAndDisabledTiming();
  TestResidualIsPhaseMinusChildren();
  TestRatioBases();
  std::printf("e2e_bench_test: %d checks passed\n", g_checks);
  return 0;
}
