// Lazy memo of TwoStage fits for the paper driver.
//
// Many figures and tables view the same fitted model: Fig 10 reads four of
// Table II's twelve DS1-DS3 fits, and the default DS1 GBDT feeds Figs
// 12-13, Tables IV-VI and the forecast ablation. fitted() trains each
// (split, config) pair once, on first request, with the predictor's own
// inner parallelism, and hands the same predictor to every later request.
// Fits are deterministic for any thread count, so a memoized predictor
// scores exactly as a freshly trained one would.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"

namespace repro::bench {

class FitMemo {
 public:
  FitMemo(const sim::Trace& trace, std::vector<core::SplitSpec> splits)
      : trace_(trace), splits_(std::move(splits)) {}

  [[nodiscard]] const std::vector<core::SplitSpec>& splits() const noexcept {
    return splits_;
  }

  /// The predictor trained with `config` on splits()[split].train.
  const core::TwoStagePredictor& fitted(std::size_t split,
                                        const core::TwoStageConfig& config) {
    REPRO_CHECK_MSG(split < splits_.size(), "split index out of range");
    for (const Fit& f : fits_) {
      if (f.split == split && f.predictor->config() == config) {
        return *f.predictor;
      }
    }
    auto predictor = std::make_unique<core::TwoStagePredictor>(config);
    predictor->train(trace_, splits_[split].train);
    fits_.push_back({split, std::move(predictor)});
    return *fits_.back().predictor;
  }

  /// fitted()'s predictor evaluated on the split's test window.
  ml::ClassMetrics evaluate(std::size_t split,
                            const core::TwoStageConfig& config) {
    return fitted(split, config).evaluate(trace_, splits_[split].test);
  }

 private:
  struct Fit {
    std::size_t split;
    std::unique_ptr<core::TwoStagePredictor> predictor;
  };

  const sim::Trace& trace_;
  std::vector<core::SplitSpec> splits_;
  std::vector<Fit> fits_;  // a full paper run holds a few dozen
};

}  // namespace repro::bench
