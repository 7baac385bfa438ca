#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace repro {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

double quantile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, p);
}

double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (const double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

std::vector<double> rank_data(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Ties share the average of the 1-based ranks they span.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  REPRO_CHECK(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean_of(xs);
  const double my = mean_of(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  REPRO_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const std::vector<double> rx = rank_data(xs);
  const std::vector<double> ry = rank_data(ys);
  return pearson(rx, ry);
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(values.begin(), values.end(), x);
  if (it == values.begin()) return 0.0;
  return fractions[static_cast<std::size_t>(it - values.begin()) - 1];
}

EmpiricalCdf make_cdf(std::span<const double> xs) {
  EmpiricalCdf cdf;
  cdf.values.assign(xs.begin(), xs.end());
  std::sort(cdf.values.begin(), cdf.values.end());
  const auto n = static_cast<double>(cdf.values.size());
  cdf.fractions.resize(cdf.values.size());
  for (std::size_t i = 0; i < cdf.values.size(); ++i) {
    cdf.fractions[i] = static_cast<double>(i + 1) / n;
  }
  return cdf;
}

}  // namespace repro
