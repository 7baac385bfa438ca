// Tier-1 bench smoke (ctest label: bench_smoke): one downsized Table III
// split through the full two-stage pipeline with the histogram GBDT
// engine. Not a timing benchmark — it exists so trainer regressions
// (crashes, metric collapses, empty stage-2 sets) fail the default test
// suite instead of waiting for a manual `paper table3` run. The FitMemo
// cases check the paper driver's memo of fits on the same trace.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/parallel.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "obs/obs.hpp"
#include "support/fit_memo.hpp"
#include "support/test_trace.hpp"

namespace repro::core {
namespace {

TEST(BenchSmoke, GbdtTrainsDownsizedTable3Split) {
  const sim::Trace& trace = repro::testing::shared_pipeline_trace();
  // The bench's 60/14/14-day sliding scheme scaled to the 40-day test
  // trace; one split is enough to exercise the whole train/predict path.
  const auto splits = SplitSpec::sliding(/*total_days=*/40, /*train_days=*/24,
                                         /*test_days=*/8, /*stride_days=*/8,
                                         /*count=*/1);
  ASSERT_EQ(splits.size(), 1u);

  TwoStageConfig config;
  config.model = ml::ModelKind::kGbdt;
  TwoStagePredictor predictor(config);
  predictor.train(trace, splits[0].train);
  ASSERT_TRUE(predictor.trained());
  EXPECT_GT(predictor.stage2_training_size(), 100u);
  EXPECT_GT(predictor.train_seconds(), 0.0);

  const auto metrics = predictor.evaluate(trace, splits[0].test);
  // Loose floors: the paper-shaped pipeline scores far above these on this
  // trace; the bounds only catch a trainer that stopped learning.
  EXPECT_GT(metrics.positive.f1, 0.3);
  EXPECT_GT(metrics.positive.recall, 0.3);
  EXPECT_GT(metrics.positive.precision, 0.3);
}

// The driver's split scheme, scaled to the 40-day pipeline trace.
std::vector<SplitSpec> smoke_splits() {
  return SplitSpec::sliding(/*total_days=*/40, /*train_days=*/24,
                            /*test_days=*/8, /*stride_days=*/8, /*count=*/1);
}

std::uint64_t train_calls() {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.key == "two_stage.train_calls") return m.count;
  }
  return 0;
}

TEST(FitMemo, TrainsEachSplitAndConfigOnce) {
  const sim::Trace& trace = repro::testing::shared_pipeline_trace();
  const bool obs_was_enabled = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  bench::FitMemo fits(trace, smoke_splits());

  const TwoStageConfig gbdt;
  const TwoStagePredictor& first = fits.fitted(0, gbdt);
  EXPECT_EQ(&fits.fitted(0, gbdt), &first);
  EXPECT_EQ(train_calls(), 1u);

  TwoStageConfig hist_only = gbdt;
  hist_only.features.mask = features::kGroupHist;
  EXPECT_NE(&fits.fitted(0, hist_only), &first);
  EXPECT_EQ(train_calls(), 2u);

  TwoStageConfig lr = gbdt;
  lr.model = ml::ModelKind::kLogisticRegression;
  const TwoStagePredictor& lr_fit = fits.fitted(0, lr);
  EXPECT_EQ(&fits.fitted(0, lr), &lr_fit);
  EXPECT_EQ(&fits.fitted(0, hist_only), &fits.fitted(0, hist_only));
  EXPECT_EQ(train_calls(), 3u);
  EXPECT_EQ(lr_fit.config().model, ml::ModelKind::kLogisticRegression);

  obs::set_enabled(obs_was_enabled);
  obs::reset();
}

TEST(FitMemo, MemoizedFitsMatchFreshFits) {
  // A memoized predictor, trained at 1 or 4 threads, scores bit for bit as
  // a fresh single-threaded TwoStagePredictor does.
  const sim::Trace& trace = repro::testing::shared_pipeline_trace();
  const auto splits = smoke_splits();
  const auto idx = samples_in(trace, splits[0].test);
  for (const ml::ModelKind model :
       {ml::ModelKind::kGbdt, ml::ModelKind::kLogisticRegression}) {
    TwoStageConfig config;
    config.model = model;
    set_parallel_threads(1);
    TwoStagePredictor fresh(config);
    fresh.train(trace, splits[0].train);
    const ml::ClassMetrics want = fresh.evaluate(trace, splits[0].test);
    const std::vector<float> want_proba = fresh.predict_proba(trace, idx);

    for (const std::size_t threads : {1, 4}) {
      set_parallel_threads(threads);
      bench::FitMemo fits(trace, splits);
      const ml::ClassMetrics got = fits.evaluate(0, config);
      const std::vector<float> got_proba =
          fits.fitted(0, config).predict_proba(trace, idx);
      const std::string label = std::string(ml::to_string(model)) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(got.confusion.tp, want.confusion.tp) << label;
      EXPECT_EQ(got.confusion.fp, want.confusion.fp) << label;
      EXPECT_EQ(got.confusion.fn, want.confusion.fn) << label;
      EXPECT_EQ(got.confusion.tn, want.confusion.tn) << label;
      EXPECT_EQ(got.positive.f1, want.positive.f1) << label;
      EXPECT_EQ(got.positive.precision, want.positive.precision) << label;
      EXPECT_EQ(got.positive.recall, want.positive.recall) << label;
      ASSERT_EQ(got_proba.size(), want_proba.size()) << label;
      for (std::size_t i = 0; i < want_proba.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got_proba[i]),
                  std::bit_cast<std::uint32_t>(want_proba[i]))
            << label << " sample " << i;
      }
    }
  }
  set_parallel_threads(1);
}

}  // namespace
}  // namespace repro::core
