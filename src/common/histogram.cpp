#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace repro {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  REPRO_CHECK_MSG(hi > lo && bins > 0, "invalid histogram range/bins");
}

void Histogram::merge(const Histogram& other) {
  REPRO_CHECK_MSG(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
                      other.hi_ == hi_,
                  "histogram shape mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

void Histogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

std::uint64_t Histogram::count(std::size_t bin) const {
  REPRO_CHECK(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  REPRO_CHECK(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width();
}

double Histogram::bin_width() const noexcept {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::probability(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double Histogram::mean() const noexcept {
  if (total_ == 0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    s += static_cast<double>(counts_[i]) * bin_center(i);
  }
  return s / static_cast<double>(total_);
}

double Histogram::stddev() const noexcept {
  if (total_ == 0) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double d = bin_center(i) - m;
    s += static_cast<double>(counts_[i]) * d * d;
  }
  return std::sqrt(s / static_cast<double>(total_));
}

double Histogram::quantile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (cum + c >= target && c > 0.0) {
      const double frac = (target - cum) / c;
      return lo_ + (static_cast<double>(i) + frac) * bin_width();
    }
    cum += c;
  }
  return hi_;
}

std::string Histogram::render(std::size_t max_rows,
                              std::size_t bar_width) const {
  std::ostringstream os;
  // Coarsen to at most max_rows rows by merging adjacent bins.
  const std::size_t group = std::max<std::size_t>(1, (counts_.size() + max_rows - 1) / max_rows);
  std::uint64_t peak = 0;
  std::vector<std::uint64_t> rows;
  for (std::size_t i = 0; i < counts_.size(); i += group) {
    std::uint64_t c = 0;
    for (std::size_t j = i; j < std::min(i + group, counts_.size()); ++j) c += counts_[j];
    rows.push_back(c);
    peak = std::max(peak, c);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double left = lo_ + static_cast<double>(r * group) * bin_width();
    const std::size_t len =
        peak == 0 ? 0
                  : static_cast<std::size_t>(
                        std::llround(static_cast<double>(rows[r]) /
                                     static_cast<double>(peak) *
                                     static_cast<double>(bar_width)));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%8.1f | ", left);
    os << buf << std::string(len, '#') << "  " << rows[r] << '\n';
  }
  return os.str();
}

}  // namespace repro
