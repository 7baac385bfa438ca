#include "core/two_stage.hpp"

#include <algorithm>
#include <cstdio>

#include "audit/audit.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::core {

TwoStagePredictor::TwoStagePredictor(const TwoStageConfig& config)
    : config_(config) {}

void TwoStagePredictor::train(const sim::Trace& trace, Interval train_window) {
  OBS_SPAN("two_stage.train");
  // The drift reference belongs to one model: a retrain that does not
  // refit it (obs off, or degraded) must not leave the last model's behind.
  drift_ = {};
  extractor_ = std::make_unique<features::FeatureExtractor>(trace,
                                                            config_.features);
  std::vector<std::size_t> train_idx;
  std::size_t window_samples = 0;
  {
    // Stage 1: offender set = any SBE observed before the end of training,
    // then restrict to offender-node samples inside the training window.
    OBS_SPAN("two_stage.stage1");
    offender_mask_ = trace.sbe_log.offender_mask(0, train_window.end);
    const std::vector<std::size_t> window_idx = samples_in(trace, train_window);
    for (const std::size_t i : window_idx) {
      if (offender_mask_[static_cast<std::size_t>(trace.samples[i].node)]) {
        train_idx.push_back(i);
      }
    }
    window_samples = window_idx.size();
    OBS_COUNT_ADD("two_stage.train_samples_seen", window_idx.size());
    OBS_COUNT_ADD("two_stage.train_stage1_survivors", train_idx.size());
  }
  // An empty stage-2 training set is a data condition, not a programming
  // error: a corrupted or heavily-quarantined trace can leave the window
  // without a single offender-node sample. Degrade to stage 1 alone
  // (predict everything SBE-free) instead of crashing the pipeline.
  degraded_ = train_idx.empty();
  if (degraded_) {
    std::fprintf(stderr,
                 "[two_stage] no offender-node samples in training window "
                 "[%lld, %lld): degrading to all-negative predictions\n",
                 static_cast<long long>(train_window.begin),
                 static_cast<long long>(train_window.end));
    OBS_COUNT("two_stage.degraded_no_offenders");
    model_.reset();
    stage2_size_ = 0;
    train_seconds_ = 0.0;
    return;
  }
  ml::Dataset train_set = [&] {
    OBS_SPAN("two_stage.featurize");
    ml::Dataset built = extractor_->build(train_idx);
    if (config_.undersample_ratio > 0.0) {
      Rng rng(config_.seed ^ 0xBA1A4CEULL);
      built = ml::undersample_majority(built, config_.undersample_ratio, rng);
    }
    return built;
  }();
  stage2_size_ = train_set.size();

  scaler_.fit(train_set.X);
  scaler_.transform_inplace(train_set.X);

  // Model-quality observability (DESIGN.md §8): remember the scaled
  // training distribution so the window evaluation's drift has a
  // reference, and publish the stage-1 rebalancing gauges. Pure reads —
  // skipping them (obs off) cannot change anything downstream.
  if (obs::enabled()) {
    OBS_SPAN("audit.drift_fit");
    drift_.fit(train_set.X);
    if (window_samples > 0) {
      obs::gauge("audit.train_survivor_rate")
          .set(static_cast<double>(train_idx.size()) /
               static_cast<double>(window_samples));
    }
    obs::gauge("audit.train_positive_rate")
        .set(static_cast<double>(train_set.positives()) /
             static_cast<double>(train_set.size()));
  }

  model_ = ml::make_model(config_.model, config_.seed);
  // Table III's train_seconds: the fit wall-clock is always measured
  // (Policy::kAlways keeps the clock running even with tracing off, so
  // the reported field is byte-compatible with the old hand-rolled
  // steady_clock site this span replaced).
  static obs::Timer& fit_timer = obs::timer("two_stage.stage2_fit");
  const obs::Span fit_span(fit_timer, obs::Span::Policy::kAlways);
  model_->fit(train_set);
  train_seconds_ = fit_span.seconds();

  // Provenance header for the prediction audit log: one manifest line per
  // trained model, so the records that follow are attributable.
  if (audit::Sink* s = audit::sink()) {
    audit::Manifest m;
    m.model = std::string(ml::to_string(config_.model));
    m.seed = config_.seed;
    m.threshold = config_.threshold;
    m.feature_dim = extractor_->dim();
    m.feature_mask = config_.features.mask;
    m.forecast_current_run = config_.features.forecast_current_run;
    m.undersample_ratio = config_.undersample_ratio;
    m.threads = parallel_threads();
    m.train_begin = train_window.begin;
    m.train_end = train_window.end;
    m.stage2_training_size = stage2_size_;
    s->write_line(audit::to_json_line(m));
  }
}

std::vector<float> TwoStagePredictor::predict_proba(
    const sim::Trace& trace, std::span<const std::size_t> idx) const {
  return score(trace, idx).proba;
}

TwoStagePredictor::Scored TwoStagePredictor::score(
    const sim::Trace& trace, std::span<const std::size_t> idx) const {
  REPRO_CHECK_MSG(trained(), "predict before train");
  OBS_SPAN("two_stage.predict");
  Scored scored;
  scored.proba.assign(idx.size(), 0.0f);
  if (degraded_) {
    // Stage 2 never trained: stage 1 alone, i.e. everything SBE-free.
    OBS_COUNT_ADD("two_stage.predict_samples_seen", idx.size());
    return scored;
  }
  // Stage 1 filters to offender nodes; everything else is predicted
  // SBE-free (proba 0) without touching the model.
  std::vector<std::size_t>& accepted = scored.accepted;
  accepted.reserve(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const sim::RunNodeSample& s = trace.samples[idx[k]];
    if (offender_mask_[static_cast<std::size_t>(s.node)]) {
      accepted.push_back(k);
    }
  }
  OBS_COUNT_ADD("two_stage.predict_samples_seen", idx.size());
  OBS_COUNT_ADD("two_stage.predict_stage1_survivors", accepted.size());
  if (accepted.empty()) return scored;
  // Stage 2 is batched: extract + scale every accepted sample's feature
  // row (disjoint writes), then one predict_proba_many call so models with
  // fast batched inference get contiguous rows.
  ml::Matrix& features = scored.features;
  features = ml::Matrix(accepted.size(), extractor_->dim());
  parallel_for(accepted.size(), 128, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = features.row(i);
      extractor_->extract(trace.samples[idx[accepted[i]]], row);
      scaler_.transform_row(row);
    }
  });
  const std::vector<float> proba = model_->predict_proba_many(features);
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    scored.proba[accepted[i]] = proba[i];
  }
  return scored;
}

std::vector<ml::Label> TwoStagePredictor::predict(
    const sim::Trace& trace, std::span<const std::size_t> idx) const {
  return decide(trace, idx, score(trace, idx));
}

std::vector<ml::Label> TwoStagePredictor::decide(
    const sim::Trace& trace, std::span<const std::size_t> idx,
    const Scored& scored) const {
  const std::vector<float>& proba = scored.proba;
  std::vector<ml::Label> out(proba.size());
  for (std::size_t i = 0; i < proba.size(); ++i) {
    out[i] = proba[i] >= config_.threshold ? 1 : 0;
  }
  if (audit::Sink* s = audit::sink()) {
    OBS_SPAN("audit.log");
    OBS_COUNT_ADD("audit.records_written", idx.size());
    // Record lines build in parallel into an index-addressed buffer
    // (disjoint writes), then flush as one in-order batch — byte-identical
    // output for any REPRO_THREADS.
    std::vector<std::string> lines(idx.size());
    const std::size_t dim = extractor_->dim();
    const auto& names = extractor_->names();
    const std::vector<std::size_t>& accepted = scored.accepted;
    parallel_for(idx.size(), 256, [&](std::size_t begin, std::size_t end) {
      std::vector<double> contrib(dim);
      // Position in `scored` of this chunk's first stage-2 row.
      auto row = static_cast<std::size_t>(
          std::lower_bound(accepted.begin(), accepted.end(), begin) -
          accepted.begin());
      for (std::size_t k = begin; k < end; ++k) {
        const sim::RunNodeSample& smp = trace.samples[idx[k]];
        audit::PredictionRecord rec;
        rec.sample = idx[k];
        rec.run = smp.run;
        rec.app = smp.app;
        rec.node = smp.node;
        rec.score = proba[k];
        rec.threshold = config_.threshold;
        rec.decision = out[k] != 0;
        rec.truth = smp.sbe_affected();
        rec.stage1_accepted =
            offender_mask_[static_cast<std::size_t>(smp.node)] != 0;
        // Stage 2 scored exactly the stage-1 survivors, unless degraded.
        if (row < accepted.size() && accepted[row] == k) {
          if (model_->explain(scored.features.row(row++), contrib,
                              &rec.bias)) {
            rec.has_contrib = true;
            for (const auto& [f, v] : audit::top_k_contributions(contrib)) {
              rec.contrib.emplace_back(names[f], v);
            }
          }
        }
        lines[k] = audit::to_json_line(rec);
      }
    });
    s->write_lines(lines);
  }
  return out;
}

WindowEvaluation TwoStagePredictor::evaluate_window(
    const sim::Trace& trace, Interval test_window) const {
  OBS_SPAN("two_stage.evaluate");
  const std::vector<std::size_t> idx = samples_in(trace, test_window);
  Scored scored = score(trace, idx);
  WindowEvaluation eval;
  eval.metrics = evaluate_predictions(trace, idx, decide(trace, idx, scored));
  eval.proba = std::move(scored.proba);
  // The window's model-quality audit (DESIGN.md §8): pure reads of
  // (truth, proba) and of the rows stage 2 scored.
  if (!obs::enabled() || idx.empty()) return eval;
  eval.quality = audit::assess(labels_of(trace, idx), eval.proba);
  audit::publish(eval.quality);
  if (degraded_) return eval;
  obs::gauge("audit.survivor_rate")
      .set(static_cast<double>(scored.accepted.size()) /
           static_cast<double>(idx.size()));
  // Train-vs-serve drift over the rows stage 2 scored: a degraded period
  // points at the features that moved.
  if (!drift_.fitted() || scored.accepted.empty()) return eval;
  OBS_SPAN("audit.drift_compare");
  audit::DriftSummary& drift = eval.drift;
  drift = drift_.compare(scored.features);
  if (drift.valid) {
    const auto& names = extractor_->names();
    drift.psi_argmax_name = names[drift.psi_argmax];
    drift.ks_argmax_name = names[drift.ks_argmax];
    obs::gauge("audit.psi_max").set(drift.psi_max);
    obs::gauge("audit.psi_argmax_feature")
        .set(static_cast<double>(drift.psi_argmax));
    obs::gauge("audit.ks_max").set(drift.ks_max);
    obs::gauge("audit.ks_argmax_feature")
        .set(static_cast<double>(drift.ks_argmax));
    obs::gauge("audit.psi_drifted_features")
        .set(static_cast<double>(drift.psi_drifted));
  }
  return eval;
}

ml::ClassMetrics TwoStagePredictor::evaluate(const sim::Trace& trace,
                                             Interval test_window) const {
  return evaluate_window(trace, test_window).metrics;
}

}  // namespace repro::core
