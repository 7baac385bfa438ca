#include "telemetry/series.hpp"

#include <cmath>

namespace repro::telemetry {

RingSeries::RingSeries(std::size_t capacity) : buf_(capacity, 0.0f) {
  REPRO_CHECK(capacity > 0);
}

void RingSeries::clear() noexcept {
  head_ = 0;
  size_ = 0;
}

float RingSeries::at_age(std::size_t age) const {
  REPRO_CHECK(age < size_);
  // head_ + capacity - 1 - age is in [0, 2 * capacity): one conditional
  // subtraction replaces the modulo.
  std::size_t i = head_ + buf_.size() - 1 - age;
  if (i >= buf_.size()) i -= buf_.size();
  return buf_[i];
}

FourStats RingSeries::stats_last(std::size_t window) const noexcept {
  const std::size_t n = window < size_ ? window : size_;
  if (n == 0) return {};
  double sum = 0.0, sum2 = 0.0;
  double dsum = 0.0, dsum2 = 0.0;
  float prev = 0.0f;
  // Walk oldest-to-newest within the window so diffs are chronological.
  for (std::size_t i = 0; i < n; ++i) {
    const float v = at_age(n - 1 - i);
    sum += v;
    sum2 += static_cast<double>(v) * v;
    if (i > 0) {
      const double d = static_cast<double>(v) - prev;
      dsum += d;
      dsum2 += d * d;
    }
    prev = v;
  }
  FourStats s;
  const auto dn = static_cast<double>(n);
  const double mean = sum / dn;
  s.mean = static_cast<float>(mean);
  const double var = sum2 / dn - mean * mean;
  s.std = static_cast<float>(var > 0.0 ? std::sqrt(var) : 0.0);
  if (n > 1) {
    const auto dd = static_cast<double>(n - 1);
    const double dmean = dsum / dd;
    s.diff_mean = static_cast<float>(dmean);
    const double dvar = dsum2 / dd - dmean * dmean;
    s.diff_std = static_cast<float>(dvar > 0.0 ? std::sqrt(dvar) : 0.0);
  }
  return s;
}

FourStats WindowAccumulator::stats() const noexcept {
  if (n_ == 0) return {};
  FourStats s;
  const auto n = static_cast<double>(n_);
  const double mean = sum_ / n;
  s.mean = static_cast<float>(mean);
  const double var = sum2_ / n - mean * mean;
  s.std = static_cast<float>(var > 0.0 ? std::sqrt(var) : 0.0);
  if (dn_ > 0) {
    const auto dn = static_cast<double>(dn_);
    const double dmean = dsum_ / dn;
    s.diff_mean = static_cast<float>(dmean);
    const double dvar = dsum2_ / dn - dmean * dmean;
    s.diff_std = static_cast<float>(dvar > 0.0 ? std::sqrt(dvar) : 0.0);
  }
  return s;
}

}  // namespace repro::telemetry
