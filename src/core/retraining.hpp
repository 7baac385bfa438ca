// Periodic-retraining driver (Sec. VI-A: "model construction is relatively
// less frequent, i.e., once every two weeks"). Slides a training window
// over the trace, retrains TwoStage at each period boundary, and evaluates
// the fresh model on the following period — the deployment loop a facility
// like Titan would actually run.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/audit.hpp"
#include "core/two_stage.hpp"

namespace repro::core {

struct RetrainingConfig {
  TwoStageConfig predictor{};
  std::int64_t train_days = 45;    ///< look-back window for each retrain
  std::int64_t period_days = 14;   ///< retrain cadence == evaluation horizon
  std::int64_t warmup_days = 45;   ///< first retrain happens after warmup
};

struct RetrainingPeriod {
  Interval train;
  Interval test;
  ml::ClassMetrics metrics;
  double train_seconds = 0.0;
  std::size_t offender_nodes = 0;
  std::size_t test_samples = 0;
  /// Model-quality observability for the period (DESIGN.md §8), from its
  /// test window's evaluation and valid only with obs metrics on: the
  /// calibration (Brier / AUC / ECE) and train-vs-test feature drift.
  audit::QualityReport quality;
  audit::DriftSummary drift;
};

/// Runs the full loop over the trace; one entry per evaluation period.
std::vector<RetrainingPeriod> run_retraining(const sim::Trace& trace,
                                             const RetrainingConfig& config);

}  // namespace repro::core
