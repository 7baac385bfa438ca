// Fixed-bin histogram used for the SBE-free vs SBE-affected temperature and
// power distributions (paper Figs. 6 and 7) and other density plots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace repro {

class Histogram {
 public:
  /// Bins span [lo, hi) uniformly; out-of-range samples clamp to edge bins.
  Histogram(double lo, double hi, std::size_t bins);
  Histogram() : Histogram(0.0, 1.0, 1) {}

  /// Inline: the simulator bins two readings per node per minute. The
  /// expression is pinned (tests/common/histogram_test.cpp); an equal-
  /// looking reciprocal-width form rounds differently at bin edges.
  void add(double x, std::uint64_t weight = 1) noexcept {
    const double t = (x - lo_) / (hi_ - lo_);
    auto bin =
        static_cast<std::int64_t>(t * static_cast<double>(counts_.size()));
    bin = std::clamp<std::int64_t>(
        bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    counts_[static_cast<std::size_t>(bin)] += weight;
    total_ += weight;
  }
  void merge(const Histogram& other);
  void clear() noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] double bin_width() const noexcept;

  /// Probability mass of a bin (0 when the histogram is empty).
  [[nodiscard]] double probability(std::size_t bin) const;

  /// Mean / stddev estimated from bin centers.
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  /// Value below which fraction p of the mass lies (linear within a bin).
  [[nodiscard]] double quantile(double p) const;

  /// Multi-line ASCII rendering (one row per non-empty bin), for benches.
  [[nodiscard]] std::string render(std::size_t max_rows = 20,
                                   std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace repro
