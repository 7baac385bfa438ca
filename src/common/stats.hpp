// Streaming and batch statistics used by telemetry aggregation, feature
// engineering and the characterization analyses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace repro {

/// Welford online mean/variance with min/max tracking.
class RunningStats {
 public:
  /// Raw accumulator state, exposed for serialization.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  [[nodiscard]] State state() const noexcept {
    return {n_, mean_, m2_, min_, max_};
  }
  [[nodiscard]] static RunningStats from_state(const State& s) noexcept {
    RunningStats r;
    r.n_ = s.n;
    r.mean_ = s.mean;
    r.m2_ = s.m2;
    r.min_ = s.min;
    r.max_ = s.max;
    return r;
  }

  void add(double x) noexcept {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Population variance; 0 when fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p-th quantile (p in [0,1]) with linear interpolation; input need not be
/// sorted (a sorted copy is made). Returns 0 for empty input.
double quantile(std::span<const double> xs, double p);

/// In-place-sorted variant for repeated quantile queries.
double quantile_sorted(std::span<const double> sorted, double p);

/// Mean of a span; 0 when empty.
double mean_of(std::span<const double> xs);

/// Population standard deviation of a span; 0 when size < 2.
double stddev_of(std::span<const double> xs);

/// Average ranks (1-based, ties get the average rank), as used by Spearman.
std::vector<double> rank_data(std::span<const double> xs);

/// Pearson linear correlation coefficient; 0 when undefined.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation coefficient; 0 when undefined.
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Empirical CDF evaluated at the sample points: returns sorted values and
/// cumulative fractions, suitable for plotting or percentile lookup.
struct EmpiricalCdf {
  std::vector<double> values;     ///< ascending sample values
  std::vector<double> fractions;  ///< P(X <= values[i])

  /// Fraction of mass at or below x.
  [[nodiscard]] double at(double x) const;
};

EmpiricalCdf make_cdf(std::span<const double> xs);

}  // namespace repro
