#include "core/retraining.hpp"

#include "obs/obs.hpp"

namespace repro::core {

std::vector<RetrainingPeriod> run_retraining(const sim::Trace& trace,
                                             const RetrainingConfig& config) {
  REPRO_CHECK(config.train_days > 0 && config.period_days > 0);
  REPRO_CHECK(config.warmup_days >= config.train_days);
  std::vector<RetrainingPeriod> out;
  const std::int64_t total_days = trace.duration / kMinutesPerDay;

  for (std::int64_t at = config.warmup_days;
       at + config.period_days <= total_days; at += config.period_days) {
    OBS_SPAN("retraining.period");
    OBS_COUNT("retraining.periods");
    RetrainingPeriod period;
    period.train = {day_start(at - config.train_days), day_start(at)};
    period.test = {day_start(at), day_start(at + config.period_days)};

    TwoStagePredictor predictor(config.predictor);
    predictor.train(trace, period.train);
    period.train_seconds = predictor.train_seconds();
    for (const char c : predictor.offender_mask()) {
      period.offender_nodes += c ? 1 : 0;
    }
    // The last period's audit values remain on the audit.* gauges.
    WindowEvaluation eval = predictor.evaluate_window(trace, period.test);
    period.test_samples = eval.proba.size();
    period.metrics = eval.metrics;
    period.quality = std::move(eval.quality);
    period.drift = std::move(eval.drift);
    out.push_back(std::move(period));
  }
  return out;
}

}  // namespace repro::core
