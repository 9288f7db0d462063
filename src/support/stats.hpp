// Streaming statistics used by the windowed critical-path and
// dependency-distance analyses. The mean is updated incrementally (the
// mean step of Welford's algorithm), so it stays accurate over millions of
// samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace riscmp {

/// Count, mean, minimum and maximum of a sample stream.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean over the strictly positive, finite entries of `values`;
/// used when averaging cross-benchmark ratios (the paper's "weighting each
/// benchmark equally"). Zero, negative, NaN, and infinite entries — possible
/// when a faulted cell leaves a totals[] slot at 0 — are skipped instead of
/// being fed to std::log, which would silently turn the headline geomean
/// into -inf/NaN. When `aggregated` is non-null it receives the number of
/// values actually averaged, so callers can warn about skipped entries.
inline double geometricMean(const std::vector<double>& values,
                            std::size_t* aggregated = nullptr) {
  double logSum = 0.0;
  std::size_t used = 0;
  for (const double v : values) {
    if (!std::isfinite(v) || v <= 0.0) continue;
    logSum += std::log(v);
    ++used;
  }
  if (aggregated != nullptr) *aggregated = used;
  return used == 0 ? 0.0 : std::exp(logSum / static_cast<double>(used));
}

}  // namespace riscmp
