// Audit layer (src/audit + ml/metrics quality statistics): hand-computed
// fixtures for Brier / ROC-AUC / reliability bins / PSI / KS, drift
// detection, model explanations, and the REPRO_AUDIT JSONL sink — including
// the two determinism guards (audit-on vs audit-off bit-identity, and
// thread-count invariance of the prediction log).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "audit/drift.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/retraining.hpp"
#include "core/sample_index.hpp"
#include "core/two_stage.hpp"
#include "ml/gbdt.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/metrics.hpp"
#include "obs/obs.hpp"
#include "support/test_trace.hpp"

namespace repro {
namespace {

using repro::testing::shared_tiny_trace;

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::reset();
    obs::set_enabled(false);
    audit::set_sink_path("");
    set_parallel_threads(1);
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool is_manifest_line(const std::string& line) {
  return line.find("\"type\":\"manifest\"") != std::string::npos;
}

double obs_value(const std::string& key) {
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.key == key) return m.value;
  }
  return 0.0;
}

// --- quality statistics vs hand computation ---------------------------------

TEST_F(AuditTest, BrierScoreMatchesHandComputation) {
  const std::vector<std::uint8_t> truth{1, 0, 1};
  const std::vector<float> proba{0.8f, 0.3f, 0.6f};
  // ((0.8-1)^2 + (0.3-0)^2 + (0.6-1)^2) / 3 = (0.04 + 0.09 + 0.16) / 3
  EXPECT_NEAR(ml::brier_score(truth, proba), 0.29 / 3.0, 1e-7);
  EXPECT_EQ(ml::brier_score({}, {}), 0.0);
}

TEST_F(AuditTest, RocAucMatchesHandComputation) {
  // Pairs: pos {0.35, 0.8} vs neg {0.1, 0.4}. Of the 4 (pos, neg) pairs,
  // 3 are correctly ordered (0.35 > 0.1, 0.8 > 0.1, 0.8 > 0.4) and 1 is
  // not (0.35 < 0.4): AUC = 3/4.
  const std::vector<std::uint8_t> truth{0, 0, 1, 1};
  const std::vector<float> proba{0.1f, 0.4f, 0.35f, 0.8f};
  EXPECT_NEAR(ml::roc_auc(truth, proba), 0.75, 1e-12);
}

TEST_F(AuditTest, RocAucEdgeCases) {
  const std::vector<std::uint8_t> truth{0, 0, 1, 1};
  // Perfect separation and perfect anti-separation.
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.1f, 0.2f, 0.8f, 0.9f}),
              1.0, 1e-12);
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.9f, 0.8f, 0.2f, 0.1f}),
              0.0, 1e-12);
  // All-tied scores carry no ranking information (midranks): 0.5.
  EXPECT_NEAR(ml::roc_auc(truth, std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f}),
              0.5, 1e-12);
  // Degenerate single-class truth: defined as 0.5.
  EXPECT_EQ(ml::roc_auc(std::vector<std::uint8_t>{1, 1},
                        std::vector<float>{0.1f, 0.9f}),
            0.5);
}

TEST_F(AuditTest, ReliabilityBinsAndEceMatchHandComputation) {
  const std::vector<std::uint8_t> truth{0, 1, 1};
  const std::vector<float> proba{0.05f, 0.15f, 0.95f};
  const auto bins = ml::reliability_bins(truth, proba, 10);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_NEAR(bins[0].mean_score, 0.05, 1e-7);
  EXPECT_EQ(bins[0].positive_rate, 0.0);
  EXPECT_EQ(bins[1].count, 1u);
  EXPECT_NEAR(bins[1].mean_score, 0.15, 1e-7);
  EXPECT_EQ(bins[1].positive_rate, 1.0);
  EXPECT_EQ(bins[9].count, 1u);
  for (const std::size_t b : {2, 3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(bins[b].count, 0u) << "bin " << b;
  }
  // ECE = (1*|0.05-0| + 1*|0.15-1| + 1*|0.95-1|) / 3 = 0.95 / 3.
  EXPECT_NEAR(ml::expected_calibration_error(bins), 0.95 / 3.0, 1e-6);
}

TEST_F(AuditTest, ReliabilityBinBoundaryLandsHigh) {
  // p = 1.0 must land in the last bin, not index out of range.
  const std::vector<std::uint8_t> truth{1};
  const std::vector<float> proba{1.0f};
  const auto bins = ml::reliability_bins(truth, proba, 10);
  EXPECT_EQ(bins[9].count, 1u);
}

TEST_F(AuditTest, PsiMatchesHandComputation) {
  const std::vector<double> expected{0.5, 0.5};
  const std::vector<double> actual{0.9, 0.1};
  // (0.9-0.5)ln(0.9/0.5) + (0.1-0.5)ln(0.1/0.5) = 0.4(ln 1.8 - ln 0.2)
  EXPECT_NEAR(ml::population_stability_index(expected, actual),
              0.4 * (std::log(1.8) - std::log(0.2)), 1e-12);
  EXPECT_EQ(ml::population_stability_index(expected, expected), 0.0);
  // Empty bins are eps-clamped, never NaN/Inf.
  const std::vector<double> with_zero{1.0, 0.0};
  EXPECT_TRUE(std::isfinite(
      ml::population_stability_index(expected, with_zero)));
}

TEST_F(AuditTest, KsMatchesHandComputation) {
  // F_a and F_b differ most just below 3: F_a = 2/4, F_b = 0.
  const std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b{3.0f, 4.0f, 5.0f, 6.0f};
  EXPECT_NEAR(ml::ks_statistic_sorted(a, b), 0.5, 1e-12);
  EXPECT_EQ(ml::ks_statistic_sorted(a, a), 0.0);
  EXPECT_EQ(ml::ks_statistic_sorted({}, b), 0.0);
  // Disjoint supports: the full mass separates.
  const std::vector<float> lo{0.0f, 1.0f};
  const std::vector<float> hi{10.0f, 11.0f};
  EXPECT_NEAR(ml::ks_statistic_sorted(lo, hi), 1.0, 1e-12);
}

TEST_F(AuditTest, AssessPublishesGauges) {
  obs::set_enabled(true);
  const std::vector<std::uint8_t> truth{0, 1, 1, 0};
  const std::vector<float> proba{0.2f, 0.9f, 0.7f, 0.4f};
  const audit::QualityReport q = audit::assess(truth, proba);
  ASSERT_TRUE(q.valid);
  EXPECT_NEAR(q.positive_rate, 0.5, 1e-12);
  audit::publish(q);
  bool saw_brier = false, saw_auc = false;
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.key == "audit.brier") { saw_brier = true; EXPECT_NEAR(m.value, q.brier, 1e-12); }
    if (m.key == "audit.auc") { saw_auc = true; EXPECT_NEAR(m.value, q.auc, 1e-12); }
  }
  EXPECT_TRUE(saw_brier);
  EXPECT_TRUE(saw_auc);
}

// --- drift detection --------------------------------------------------------

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix X(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X.at(r, c) = static_cast<float>(rng.uniform(-10.0, 10.0));
    }
  }
  return X;
}

TEST_F(AuditTest, DriftSelfCompareIsZero) {
  const ml::Matrix X = random_matrix(2'000, 3, 7);
  audit::DriftDetector drift;
  drift.fit(X);
  ASSERT_TRUE(drift.fitted());
  const audit::DriftSummary s = drift.compare(X);
  ASSERT_TRUE(s.valid);
  EXPECT_NEAR(s.psi_max, 0.0, 1e-12);
  EXPECT_NEAR(s.ks_max, 0.0, 1e-12);
  EXPECT_EQ(s.psi_drifted, 0u);
}

TEST_F(AuditTest, DriftFlagsTheShiftedFeature) {
  const ml::Matrix train = random_matrix(3'000, 3, 8);
  ml::Matrix test = random_matrix(3'000, 3, 9);
  for (std::size_t r = 0; r < test.rows(); ++r) test.at(r, 1) += 8.0f;
  audit::DriftDetector drift;
  drift.fit(train);
  const audit::DriftSummary s = drift.compare(test);
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.psi_argmax, 1u);
  EXPECT_EQ(s.ks_argmax, 1u);
  EXPECT_GT(s.psi_max, 0.25);  // "major shift" by the PSI rule of thumb
  EXPECT_GT(s.ks_max, 0.2);
  EXPECT_EQ(s.psi_drifted, 1u);  // exactly the shifted feature
  EXPECT_LT(s.per_feature[0].psi, 0.1);  // unshifted features stay quiet
  EXPECT_LT(s.per_feature[2].psi, 0.1);
}

TEST_F(AuditTest, DriftIsThreadCountInvariant) {
  const ml::Matrix train = random_matrix(4'000, 5, 10);
  ml::Matrix test = random_matrix(1'000, 5, 11);
  for (std::size_t r = 0; r < test.rows(); ++r) test.at(r, 3) += 2.0f;
  std::vector<audit::DriftSummary> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    audit::DriftDetector drift;
    drift.fit(train);
    runs.push_back(drift.compare(test));
  }
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(runs[0].per_feature[f].psi, runs[1].per_feature[f].psi);
    EXPECT_EQ(runs[0].per_feature[f].ks, runs[1].per_feature[f].ks);
  }
}

// --- model explanations -----------------------------------------------------

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

ml::Dataset rule_dataset(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Dataset d;
  d.X = random_matrix(rows, cols, seed);
  d.y.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    d.y.push_back(d.X.at(r, 0) + 0.5f * d.X.at(r, 1) > 0.0f ? 1 : 0);
  }
  return d;
}

TEST_F(AuditTest, GbdtExplainSumsToExactLogit) {
  const ml::Dataset d = rule_dataset(2'000, 4, 17);
  ml::GradientBoostedTrees::Params params;
  params.trees = 40;
  ml::GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  std::vector<double> contrib(4);
  for (std::size_t r = 0; r < 64; ++r) {
    const auto x = d.X.row(r);
    double bias = 0.0;
    ASSERT_TRUE(gbdt.explain(x, contrib, &bias));
    double score = bias;
    for (const double c : contrib) score += c;
    EXPECT_NEAR(sigmoid(score), static_cast<double>(gbdt.predict_proba(x)),
                1e-4)
        << "row " << r;
  }
}

TEST_F(AuditTest, LrExplainSumsToExactLogit) {
  const ml::Dataset d = rule_dataset(1'000, 3, 23);
  ml::LogisticRegression lr(5);
  lr.fit(d);
  std::vector<double> contrib(3);
  for (std::size_t r = 0; r < 64; ++r) {
    const auto x = d.X.row(r);
    double bias = 0.0;
    ASSERT_TRUE(lr.explain(x, contrib, &bias));
    double score = bias;
    for (std::size_t f = 0; f < 3; ++f) {
      EXPECT_NEAR(contrib[f],
                  static_cast<double>(lr.weights()[f]) *
                      static_cast<double>(x[f]),
                  1e-12);
      score += contrib[f];
    }
    EXPECT_NEAR(sigmoid(score), static_cast<double>(lr.predict_proba(x)),
                1e-5)
        << "row " << r;
  }
}

TEST_F(AuditTest, TopKContributionsDropZerosAndBreakTiesByIndex) {
  const std::vector<double> contrib{0.0, 3.0, -5.0, 1.0, 2.0, 2.0};
  const auto top = audit::top_k_contributions(contrib, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 2u);  // |-5| largest
  EXPECT_EQ(top[1].first, 1u);
  EXPECT_EQ(top[2].first, 4u);  // |2.0| tie: lower index wins
  // Fewer nonzero entries than k: all of them, no zero padding.
  const auto all = audit::top_k_contributions(contrib, 10);
  EXPECT_EQ(all.size(), 5u);
}

// --- audit-off bit-identity and the JSONL sink ------------------------------

core::RetrainingConfig tiny_retrain_config() {
  core::RetrainingConfig config;
  config.train_days = 15;
  config.period_days = 7;
  config.warmup_days = 15;
  return config;
}

TEST_F(AuditTest, AuditOnIsBitIdenticalToAuditOff) {
  const sim::Trace& trace = shared_tiny_trace();
  const auto config = tiny_retrain_config();

  obs::set_enabled(false);
  audit::set_sink_path("");
  const auto off = core::run_retraining(trace, config);

  obs::set_enabled(true);
  const std::string sink_path = "audit_test_identity.jsonl";
  audit::set_sink_path(sink_path);
  const auto on = core::run_retraining(trace, config);
  audit::set_sink_path("");
  std::remove(sink_path.c_str());

  ASSERT_EQ(off.size(), on.size());
  ASSERT_GE(off.size(), 2u);
  for (std::size_t p = 0; p < off.size(); ++p) {
    EXPECT_EQ(off[p].metrics.confusion.tp, on[p].metrics.confusion.tp);
    EXPECT_EQ(off[p].metrics.confusion.fp, on[p].metrics.confusion.fp);
    EXPECT_EQ(off[p].metrics.confusion.tn, on[p].metrics.confusion.tn);
    EXPECT_EQ(off[p].metrics.confusion.fn, on[p].metrics.confusion.fn);
    EXPECT_EQ(off[p].metrics.positive.f1, on[p].metrics.positive.f1);
    EXPECT_EQ(off[p].metrics.accuracy, on[p].metrics.accuracy);
    EXPECT_EQ(off[p].offender_nodes, on[p].offender_nodes);
    // The audit-on run additionally filled the per-period reports.
    EXPECT_FALSE(off[p].quality.valid);
    EXPECT_TRUE(on[p].quality.valid);
    EXPECT_TRUE(on[p].drift.valid);
    EXPECT_GE(on[p].quality.auc, 0.0);
    EXPECT_LE(on[p].quality.auc, 1.0);
    EXPECT_FALSE(on[p].drift.psi_argmax_name.empty());
  }
}

TEST_F(AuditTest, SinkWritesParseableJsonlWithExpectedCounts) {
  const sim::Trace& trace = shared_tiny_trace();
  const std::string sink_path = "audit_test_records.jsonl";
  audit::set_sink_path(sink_path);
  const auto periods = core::run_retraining(trace, tiny_retrain_config());
  audit::set_sink_path("");

  const auto lines = read_lines(sink_path);
  std::remove(sink_path.c_str());
  std::size_t manifests = 0, predictions = 0, with_contrib = 0;
  std::size_t stage1_rejected_with_contrib = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(json::parse(line)) << line;
    if (is_manifest_line(line)) {
      ++manifests;
      EXPECT_NE(line.find("\"model\":\"GBDT\""), std::string::npos);
      EXPECT_NE(line.find("\"feature_dim\":"), std::string::npos);
      EXPECT_NE(line.find("\"threads\":"), std::string::npos);
    } else {
      ++predictions;
      EXPECT_NE(line.find("\"type\":\"prediction\""), std::string::npos);
      EXPECT_NE(line.find("\"score\":"), std::string::npos);
      EXPECT_NE(line.find("\"truth\":"), std::string::npos);
      if (line.find("\"contrib\":") != std::string::npos) {
        ++with_contrib;
        if (line.find("\"stage1\":0") != std::string::npos) {
          ++stage1_rejected_with_contrib;
        }
      }
    }
  }
  std::size_t expected_records = 0;
  for (const auto& p : periods) expected_records += p.test_samples;
  EXPECT_EQ(manifests, periods.size());
  EXPECT_EQ(predictions, expected_records);
  EXPECT_GT(with_contrib, 0u);  // GBDT decomposes: accepted rows explain
  EXPECT_EQ(stage1_rejected_with_contrib, 0u);  // rejects log score only
}

TEST_F(AuditTest, SinkPredictionLinesAreThreadCountInvariant) {
  const sim::Trace& trace = shared_tiny_trace();
  const auto run = [&](std::size_t threads, const std::string& path) {
    set_parallel_threads(threads);
    audit::set_sink_path(path);
    (void)core::run_retraining(trace, tiny_retrain_config());
    audit::set_sink_path("");
    auto lines = read_lines(path);
    std::remove(path.c_str());
    // Manifest lines carry the effective thread count by design; the
    // prediction records must be byte-identical.
    std::erase_if(lines, is_manifest_line);
    return lines;
  };
  const auto at1 = run(1, "audit_test_t1.jsonl");
  const auto at4 = run(4, "audit_test_t4.jsonl");
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4);
}

TEST_F(AuditTest, SinkPredictionLinesArePinned) {
  // Pins the fixture pipeline's prediction records byte for byte: FNV-1a
  // over every prediction line (newline-terminated), at 1 and 4 threads.
  // Manifest lines record the thread count, so they stay out of the hash.
  const sim::Trace& trace = shared_tiny_trace();
  for (const std::size_t threads : {1, 4}) {
    set_parallel_threads(threads);
    const std::string path = "audit_test_pinned.jsonl";
    audit::set_sink_path(path);
    (void)core::run_retraining(trace, tiny_retrain_config());
    audit::set_sink_path("");
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t predictions = 0;
    for (const std::string& line : read_lines(path)) {
      if (is_manifest_line(line)) continue;
      ++predictions;
      for (const char c : line + '\n') {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
      }
    }
    std::remove(path.c_str());
    EXPECT_GT(predictions, 0u);
    EXPECT_EQ(hash, 0x6a66ee83748d2464ULL) << "threads " << threads;
  }
}

TEST_F(AuditTest, PeriodQualityAndDriftArePinned) {
  // Pins every retraining period's calibration and drift report exactly:
  // the audit statistics describe the whole evaluated window, so moving
  // where they are computed must not move a bit of them.
  struct Pinned {
    double brier, auc, ece, psi_max, ks_max;
    std::size_t psi_drifted;
    const char* psi_argmax_name;
  };
  const std::vector<Pinned> pinned{
      {0.014024524411138835, 0.98838585773296583, 0.010554156426877633,
       13.010442960447099, 0.99092483006229859, 5, "hist_global_before"},
      {0.015240337128912304, 0.98672525267538647, 0.012732239356125575,
       12.460178756518918, 0.99646017699115041, 7, "hist_global_before"},
  };
  obs::set_enabled(true);
  const auto periods =
      core::run_retraining(shared_tiny_trace(), tiny_retrain_config());
  ASSERT_EQ(periods.size(), pinned.size());
  for (std::size_t k = 0; k < periods.size(); ++k) {
    const core::RetrainingPeriod& p = periods[k];
    EXPECT_EQ(p.quality.brier, pinned[k].brier) << "period " << k;
    EXPECT_EQ(p.quality.auc, pinned[k].auc) << "period " << k;
    EXPECT_EQ(p.quality.ece, pinned[k].ece) << "period " << k;
    EXPECT_EQ(p.drift.psi_max, pinned[k].psi_max) << "period " << k;
    EXPECT_EQ(p.drift.ks_max, pinned[k].ks_max) << "period " << k;
    EXPECT_EQ(p.drift.psi_drifted, pinned[k].psi_drifted) << "period " << k;
    EXPECT_EQ(p.drift.psi_argmax_name, pinned[k].psi_argmax_name)
        << "period " << k;
  }
}

// --- audit work runs per evaluated window, never per serving call -----------

constexpr Interval kTrainDays{0, day_start(15)};
constexpr Interval kTestDays{day_start(15), day_start(22)};

TEST_F(AuditTest, DriftReferenceDoesNotOutliveItsModel) {
  const sim::Trace& trace = shared_tiny_trace();
  core::TwoStagePredictor predictor({});
  obs::set_enabled(true);
  predictor.train(trace, kTrainDays);
  ASSERT_TRUE(predictor.evaluate_window(trace, kTestDays).drift.valid);

  // A retrain with obs off fits no reference; the first model's must not
  // be compared against the second model's rows.
  obs::set_enabled(false);
  predictor.train(trace, {day_start(5), day_start(20)});
  obs::set_enabled(true);
  EXPECT_FALSE(predictor.evaluate_window(trace, kTestDays).drift.valid);

  // Neither does a degraded retrain (no offender-node sample in its
  // window), even with obs on.
  predictor.train(trace, kTrainDays);
  predictor.train(trace, {0, 1});
  ASSERT_TRUE(predictor.degraded());
  const core::WindowEvaluation eval =
      predictor.evaluate_window(trace, kTestDays);
  EXPECT_FALSE(eval.drift.valid);
  EXPECT_TRUE(eval.quality.valid);
}

TEST_F(AuditTest, ServingCallsComputeNoAuditStatistics) {
  const sim::Trace& trace = shared_tiny_trace();
  obs::set_enabled(true);
  core::TwoStagePredictor predictor({});
  predictor.train(trace, kTrainDays);
  const std::vector<std::size_t> idx = core::samples_in(trace, kTestDays);
  constexpr std::size_t kCalls = 50;
  ASSERT_GE(idx.size(), kCalls);
  const std::size_t batch = idx.size() / kCalls;
  for (std::size_t c = 0; c < kCalls; ++c) {
    const std::span<const std::size_t> rows(idx.data() + c * batch, batch);
    (void)predictor.predict(trace, rows);
  }
  EXPECT_EQ(obs_value("audit.drift_compare_calls"), 0.0);

  const core::WindowEvaluation eval =
      predictor.evaluate_window(trace, kTestDays);
  EXPECT_TRUE(eval.drift.valid);
  EXPECT_EQ(obs_value("audit.drift_compare_calls"), 1.0);
}

TEST_F(AuditTest, TrainedPredictorIsSafeToShareAcrossThreads) {
  const sim::Trace& trace = shared_tiny_trace();
  obs::set_enabled(true);
  set_parallel_threads(2);
  core::TwoStagePredictor predictor({});
  predictor.train(trace, kTrainDays);
  const std::vector<std::size_t> idx = core::samples_in(trace, kTestDays);
  const std::vector<float> serial = predictor.predict_proba(trace, idx);

  std::vector<float> got[2];
  std::thread a([&] { got[0] = predictor.predict_proba(trace, idx); });
  std::thread b([&] { got[1] = predictor.predict_proba(trace, idx); });
  a.join();
  b.join();
  EXPECT_EQ(got[0], serial);
  EXPECT_EQ(got[1], serial);
}

}  // namespace
}  // namespace repro
