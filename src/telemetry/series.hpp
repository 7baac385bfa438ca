// Per-node telemetry series primitives.
//
// The paper's out-of-band telemetry samples GPU temperature, GPU power and
// CPU temperature roughly once a minute for every node. Feature engineering
// only ever looks BACK a bounded distance (the run itself, plus windows of
// up to 60 minutes before a run starts), so nodes keep a small ring buffer
// instead of the full multi-month series — this is what makes simulating
// months of a 1,600..19,200-node machine fit in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace repro::telemetry {

/// The paper's four-number summary of a series window:
/// mean and std of the values, and mean and std of consecutive differences.
struct FourStats {
  float mean = 0.0f;
  float std = 0.0f;
  float diff_mean = 0.0f;
  float diff_std = 0.0f;
};

/// Fixed-capacity ring buffer over the most recent samples of one channel.
class RingSeries {
 public:
  explicit RingSeries(std::size_t capacity = 64);

  // Conditional wrap instead of `%`: push runs once per telemetry sample
  // in the per-minute simulator loop, where an integer divide per sample
  // is measurable. Both forms are exact.
  void push(float v) noexcept {
    buf_[head_] = v;
    if (++head_ == buf_.size()) head_ = 0;
    if (size_ < buf_.size()) ++size_;
  }
  void clear() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  /// Number of valid samples currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Sample `age` steps ago (age = 0 is the most recent); requires age < size().
  [[nodiscard]] float at_age(std::size_t age) const;

  /// Four-stat summary over the last `window` samples (clamped to size()).
  /// Returns zeros when no samples are available.
  [[nodiscard]] FourStats stats_last(std::size_t window) const noexcept;

 private:
  std::vector<float> buf_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
};

/// Incremental four-stat accumulator for an open-ended window (e.g. "the
/// samples observed during this application run on this node").
class WindowAccumulator {
 public:
  void add(float v) noexcept {
    ++n_;
    sum_ += v;
    sum2_ += static_cast<double>(v) * v;
    if (n_ > 1) {
      const double d = static_cast<double>(v) - last_;
      dsum_ += d;
      dsum2_ += d * d;
      ++dn_;
    }
    last_ = v;
  }
  void reset() noexcept { *this = WindowAccumulator{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] FourStats stats() const noexcept;

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0, sum2_ = 0.0;
  double dsum_ = 0.0, dsum2_ = 0.0;
  std::size_t dn_ = 0;
  float last_ = 0.0f;
};

}  // namespace repro::telemetry
