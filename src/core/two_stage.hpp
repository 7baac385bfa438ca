// The paper's primary contribution (Sec. VI-C2, Fig 9): the TwoStage
// prediction method.
//
//   Stage 1: has this node ever logged an SBE (up to training time)?
//            If not, predict SBE-free. This shrinks the training set,
//            removes most of the noise, and collapses the ~50:1 class
//            imbalance to roughly 2:1..4:1.
//   Stage 2: a machine-learning classifier (LR / GBDT / SVM / NN) over the
//            Sec. V features, trained only on offender-node samples,
//            decides the remaining cases.
//
// The deliberate cost: SBEs on previously error-free nodes are always
// missed; periodic retraining (see run_retraining) keeps that loss small.
//
// Model-quality audit (DESIGN.md §8) runs only in train() and
// evaluate_window(). predict and predict_proba do the same work with obs
// on or off and write no member, so threads may share a trained predictor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "audit/drift.hpp"
#include "core/sample_index.hpp"
#include "core/splits.hpp"
#include "features/features.hpp"
#include "ml/model.hpp"
#include "sim/trace.hpp"

namespace repro::core {

struct TwoStageConfig {
  ml::ModelKind model = ml::ModelKind::kGbdt;
  features::FeatureSpec features{};
  /// 0 = keep stage-2 training data as-is (the paper's choice, since stage
  /// 1 already rebalances); > 0 = additionally undersample negatives to
  /// this many per positive (ablation knob).
  double undersample_ratio = 0.0;
  float threshold = 0.5f;
  std::uint64_t seed = 1234;

  bool operator==(const TwoStageConfig&) const = default;
};

/// One evaluated window: every sample whose run ended inside it, in
/// samples_in() order. `quality` is valid only with obs metrics on;
/// `drift` (of the rows stage 2 scored) only when obs metrics were on for
/// train() too and stage 2 scored at least one row.
struct WindowEvaluation {
  std::vector<float> proba;
  ml::ClassMetrics metrics;
  audit::QualityReport quality;
  audit::DriftSummary drift;
};

class TwoStagePredictor {
 public:
  explicit TwoStagePredictor(const TwoStageConfig& config);

  /// Trains stage 1 (offender set from all history before
  /// train_window.end) and stage 2 (model on offender samples whose runs
  /// ended inside train_window).
  void train(const sim::Trace& trace, Interval train_window);

  /// P(SBE) per sample; stage-1 rejects get probability 0.
  [[nodiscard]] std::vector<float> predict_proba(
      const sim::Trace& trace, std::span<const std::size_t> idx) const;
  /// Thresholded predictions. With an active audit sink (REPRO_AUDIT),
  /// additionally writes one JSONL record per sample — score, decision,
  /// truth, top-k feature contributions — flushed in index order.
  [[nodiscard]] std::vector<ml::Label> predict(
      const sim::Trace& trace, std::span<const std::size_t> idx) const;

  /// Scores a test window once (writing the audit log like predict) and,
  /// with obs metrics on, assesses it: calibration, drift, `audit.*` gauges.
  [[nodiscard]] WindowEvaluation evaluate_window(const sim::Trace& trace,
                                                 Interval test_window) const;
  /// evaluate_window's metrics.
  [[nodiscard]] ml::ClassMetrics evaluate(const sim::Trace& trace,
                                          Interval test_window) const;

  [[nodiscard]] bool trained() const noexcept {
    return model_ != nullptr || degraded_;
  }
  /// True when the last train() found no offender-node samples in its
  /// window and fell back to all-negative predictions (stage 1 alone).
  /// A corrupted or heavily-quarantined trace must degrade, not crash.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] const std::vector<char>& offender_mask() const noexcept {
    return offender_mask_;
  }
  /// Wall-clock seconds of the last stage-2 model fit (Table III).
  [[nodiscard]] double train_seconds() const noexcept {
    return train_seconds_;
  }
  /// Stage-2 training-set size after filtering (and resampling, if any).
  [[nodiscard]] std::size_t stage2_training_size() const noexcept {
    return stage2_size_;
  }
  [[nodiscard]] const TwoStageConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ml::Model& model() const {
    REPRO_CHECK_MSG(model_ != nullptr, "model not trained");
    return *model_;
  }

 private:
  /// One scoring pass: P(SBE) per sample, plus the rows stage 2 scored —
  /// their positions in the index span (ascending) and their scaled
  /// feature rows — so the audit log explains them and the window
  /// evaluation measures their drift without extracting them again.
  struct Scored {
    std::vector<float> proba;
    std::vector<std::size_t> accepted;
    ml::Matrix features;
  };
  [[nodiscard]] Scored score(const sim::Trace& trace,
                             std::span<const std::size_t> idx) const;
  /// Thresholds a scoring pass and writes its audit log records.
  [[nodiscard]] std::vector<ml::Label> decide(
      const sim::Trace& trace, std::span<const std::size_t> idx,
      const Scored& scored) const;

  TwoStageConfig config_;
  std::unique_ptr<features::FeatureExtractor> extractor_;
  std::unique_ptr<ml::Model> model_;
  ml::StandardScaler scaler_;
  std::vector<char> offender_mask_;
  double train_seconds_ = 0.0;
  std::size_t stage2_size_ = 0;
  bool degraded_ = false;
  /// Fitted only when obs metrics were on for the last train().
  audit::DriftDetector drift_;
};

}  // namespace repro::core
