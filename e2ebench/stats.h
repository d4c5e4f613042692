// Summary statistics for the end-to-end benchmark.
//
// Quantiles follow Python's statistics.quantiles(data, n=k) with its default
// "exclusive" method, so a quartile the benchmark prints is the same number
// a reader gets by feeding the per-run values to Python. Every ratio goes
// through Ratio(), which names its base and returns 0 on an empty base
// instead of dividing by zero.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

/// Median of `values` (mean of the two middle values for an even count).
/// 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The i-th of the k-1 cut points dividing `values` into k groups, computed
/// as statistics.quantiles(values, n=k)[i-1] (method "exclusive"). A sample
/// of one returns that value; an empty sample returns 0.
inline double Quantile(std::vector<double> values, size_t i, size_t k) {
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values[0];
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t m = n + 1;
  size_t j = i * m / k;
  j = std::clamp<size_t>(j, 1, n - 1);
  const double delta = static_cast<double>(i * m) - static_cast<double>(j * k);
  return (values[j - 1] * (static_cast<double>(k) - delta) + values[j] * delta) /
         static_cast<double>(k);
}

/// A metric's distribution over the samples of one run.
struct Summary {
  size_t n = 0;         // samples
  double median = 0;
  double q1 = 0;        // first quartile
  double q3 = 0;        // third quartile
  double p90 = 0;       // 90th percentile
  size_t above_p90 = 0; // samples strictly above p90

  /// Interquartile distance as a share of the median (0 when median is 0).
  double Spread() const { return median != 0 ? (q3 - q1) / median : 0.0; }
};

inline Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.median = Median(values);
  s.q1 = Quantile(values, 1, 4);
  s.q3 = Quantile(values, 3, 4);
  s.p90 = Quantile(values, 9, 10);
  s.above_p90 = static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > s.p90; }));
  return s;
}

/// part / base, or 0 when the base is 0.
inline double Ratio(double part, double base) { return base != 0 ? part / base : 0.0; }

/// Time no child accounts for: a phase's wall clock minus its children.
inline double Residual(double phase, const std::vector<double>& children) {
  double sum = 0;
  for (double c : children) sum += c;
  return phase - sum;
}

/// Accesses the online tool saw, the base of every per-access ratio:
/// encoded events plus those the duplicate filter suppressed, the coalescer
/// folded into runs (count - 1 per run) and the pre-filter elided.
inline double AccessesSeen(double logged, double suppressed, double coalesced,
                           double elided) {
  return logged + suppressed + coalesced + elided;
}

/// Tool cost per access seen, in ns: (traced run - untraced run) / accesses.
inline double NsPerAccess(double traced_run_s, double untraced_run_s,
                          double accesses) {
  return Ratio((traced_run_s - untraced_run_s) * 1e9, accesses);
}

}  // namespace e2e
