#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

#include "common/parallel.hpp"
#include "ml/gbdt.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/neural_network.hpp"
#include "ml/svm.hpp"

namespace repro::ml {
namespace {

/// Linearly separable blobs: positives centered at (2,2), negatives (-2,-2).
Dataset linear_blobs(std::size_t n, std::uint64_t seed) {
  Dataset d;
  d.X = Matrix(n, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    const double cx = pos ? 2.0 : -2.0;
    d.X.at(i, 0) = static_cast<float>(rng.normal(cx, 1.0));
    d.X.at(i, 1) = static_cast<float>(rng.normal(cx, 1.0));
    d.y.push_back(pos ? 1 : 0);
  }
  return d;
}

/// XOR pattern: positives in quadrants I and III — not linearly separable.
Dataset xor_blobs(std::size_t n, std::uint64_t seed) {
  Dataset d;
  d.X = Matrix(n, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool qx = rng.bernoulli(0.5);
    const bool qy = rng.bernoulli(0.5);
    d.X.at(i, 0) = static_cast<float>(rng.normal(qx ? 2.0 : -2.0, 0.7));
    d.X.at(i, 1) = static_cast<float>(rng.normal(qy ? 2.0 : -2.0, 0.7));
    d.y.push_back(qx == qy ? 1 : 0);
  }
  return d;
}

double accuracy_on(const Model& model, const Dataset& d) {
  const auto pred = model.predict_batch(d.X);
  return evaluate(d.y, pred).accuracy;
}

class AllModelsTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllModelsTest, LearnsLinearlySeparableData) {
  const Dataset train = linear_blobs(1'500, 1);
  const Dataset test = linear_blobs(500, 2);
  auto model = make_model(GetParam(), /*seed=*/77);
  model->fit(train);
  EXPECT_GT(accuracy_on(*model, test), 0.93)
      << "model " << to_string(GetParam());
}

TEST_P(AllModelsTest, ProbabilitiesAreValid) {
  const Dataset train = linear_blobs(600, 3);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  for (std::size_t i = 0; i < 100; ++i) {
    const float p = model->predict_proba(train.X.row(i));
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    EXPECT_FALSE(std::isnan(p));
  }
}

TEST_P(AllModelsTest, BatchMatchesSinglePrediction) {
  const Dataset train = linear_blobs(600, 4);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  const auto batch = model->predict_proba_many(train.X);
  for (const std::size_t i : {0UL, 10UL, 99UL}) {
    EXPECT_FLOAT_EQ(batch[i], model->predict_proba(train.X.row(i)));
  }
}

TEST_P(AllModelsTest, DeterministicForSameSeed) {
  const Dataset train = linear_blobs(600, 5);
  auto a = make_model(GetParam(), 123);
  auto b = make_model(GetParam(), 123);
  a->fit(train);
  b->fit(train);
  for (const std::size_t i : {0UL, 7UL, 42UL}) {
    EXPECT_FLOAT_EQ(a->predict_proba(train.X.row(i)),
                    b->predict_proba(train.X.row(i)));
  }
}

TEST_P(AllModelsTest, RefitReplacesOldModel) {
  Dataset train = linear_blobs(600, 6);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  // Flip all labels and refit: predictions must flip too.
  for (auto& y : train.y) y = y ? 0 : 1;
  model->fit(train);
  EXPECT_GT(accuracy_on(*model, train), 0.9);
}

TEST_P(AllModelsTest, WidthMismatchThrows) {
  const Dataset train = linear_blobs(200, 7);
  auto model = make_model(GetParam(), 77);
  model->fit(train);
  const std::vector<float> wrong = {1.0f, 2.0f, 3.0f};
  EXPECT_THROW(model->predict_proba(wrong), CheckError);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllModelsTest,
                         ::testing::Values(ModelKind::kLogisticRegression,
                                           ModelKind::kGbdt, ModelKind::kSvm,
                                           ModelKind::kNeuralNetwork),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ModelComparison, NonlinearModelsBeatLrOnXor) {
  const Dataset train = xor_blobs(2'000, 8);
  const Dataset test = xor_blobs(600, 9);

  auto lr = make_model(ModelKind::kLogisticRegression, 1);
  lr->fit(train);
  const double lr_acc = accuracy_on(*lr, test);
  EXPECT_LT(lr_acc, 0.70);  // linear model cannot express XOR

  for (const ModelKind kind :
       {ModelKind::kGbdt, ModelKind::kSvm, ModelKind::kNeuralNetwork}) {
    auto model = make_model(kind, 1);
    model->fit(train);
    const double acc = accuracy_on(*model, test);
    EXPECT_GT(acc, 0.90) << to_string(kind);
    EXPECT_GT(acc, lr_acc + 0.15) << to_string(kind);
  }
}

TEST(StandardScaler, NormalizesColumns) {
  Matrix X(100, 2);
  Rng rng(10);
  for (std::size_t i = 0; i < 100; ++i) {
    X.at(i, 0) = static_cast<float>(rng.normal(50.0, 10.0));
    X.at(i, 1) = 3.0f;  // constant column
  }
  StandardScaler scaler;
  scaler.fit(X);
  Matrix t = X;
  scaler.transform_inplace(t);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    sum += t.at(i, 0);
    sum2 += static_cast<double>(t.at(i, 0)) * t.at(i, 0);
  }
  EXPECT_NEAR(sum / 100.0, 0.0, 1e-5);
  EXPECT_NEAR(sum2 / 100.0, 1.0, 1e-4);
  // Constant columns map to 0 (mean subtracted, unit fallback std).
  EXPECT_FLOAT_EQ(t.at(0, 1), 0.0f);
}

TEST(StandardScaler, RowWidthMismatchThrows) {
  Matrix X(10, 2, 1.0f);
  StandardScaler scaler;
  scaler.fit(X);
  std::vector<float> wrong = {1.0f};
  EXPECT_THROW(scaler.transform_row(wrong), CheckError);
}

TEST(ModelFactory, NamesMatchKinds) {
  EXPECT_EQ(make_model(ModelKind::kLogisticRegression)->name(), "LR");
  EXPECT_EQ(make_model(ModelKind::kGbdt)->name(), "GBDT");
  EXPECT_EQ(make_model(ModelKind::kSvm)->name(), "SVM");
  EXPECT_EQ(make_model(ModelKind::kNeuralNetwork)->name(), "NN");
}

TEST(Svm, SmoKeepsOnlySupportVectors) {
  const Dataset train = linear_blobs(800, 11);
  Svm svm(Svm::Params{}, 5);
  svm.fit(train);
  EXPECT_GT(svm.support_vector_count(), 0u);
  EXPECT_LT(svm.support_vector_count(), train.size());
}

// FNV-1a over the raw bytes of a trivially copyable value.
template <typename T>
void fnv_mix(std::uint64_t& h, const T& v) {
  const auto bytes = std::bit_cast<std::array<unsigned char, sizeof(T)>>(v);
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t hash_floats(std::span<const float> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : values) fnv_mix(h, std::bit_cast<std::uint32_t>(v));
  return h;
}

// Fixture for the SVM and NN pins: 2,400 rows x 10 columns with a
// nonlinear label, so both fits span several parallel chunks (SMO's
// 512-row decision-cache chunks, the NN's 32-sample batch chunks).
Dataset fit_pin_dataset() {
  constexpr std::size_t kRows = 2'400, kCols = 10;
  Dataset d;
  d.X = Matrix(kRows, kCols);
  Rng rng(91);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      d.X.at(r, c) = static_cast<float>(rng.normal(0.0, 1.0));
    }
    const double z = 1.5 * d.X.at(r, 0) * d.X.at(r, 1) + 0.8 * d.X.at(r, 2) -
                     0.6 * d.X.at(r, 7) * d.X.at(r, 7) - 0.5;
    d.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  return d;
}

TEST(Svm, FitIsPinned) {
  // Pins the SMO fit bit for bit at 1, 2 and 4 threads: support vectors,
  // dual coefficients, bias, Platt a/b and the predict_proba_many output.
  // max_smo_samples below the row count also pins the stratified subsample.
  const Dataset d = fit_pin_dataset();
  Svm::Params params;
  params.max_smo_samples = 1'200;
  for (const std::size_t threads : {1, 2, 4}) {
    set_parallel_threads(threads);
    Svm svm(params, 5);
    svm.fit(d);
    const Matrix& sv = svm.support_vectors();
    std::uint64_t model_hash = 0xcbf29ce484222325ULL;
    fnv_mix(model_hash, sv.rows());
    fnv_mix(model_hash, hash_floats(svm.dual_coefs()));
    for (std::size_t r = 0; r < sv.rows(); ++r) {
      fnv_mix(model_hash, hash_floats(sv.row(r)));
    }
    fnv_mix(model_hash, std::bit_cast<std::uint32_t>(svm.bias()));
    fnv_mix(model_hash, std::bit_cast<std::uint32_t>(svm.platt_a()));
    fnv_mix(model_hash, std::bit_cast<std::uint32_t>(svm.platt_b()));
    const std::uint64_t proba_hash = hash_floats(svm.predict_proba_many(d.X));
    EXPECT_EQ(sv.rows(), 798u) << "threads " << threads;
    EXPECT_EQ(model_hash, 0x5a497a31c5662a65ULL) << "threads " << threads;
    EXPECT_EQ(proba_hash, 0x2e2ae61dbe1f65daULL) << "threads " << threads;
  }
  set_parallel_threads(1);
}

TEST(NeuralNetwork, FitIsPinned) {
  // Pins the MLP fit bit for bit at 1, 2 and 4 threads: every layer's
  // weights and biases and the predict_proba_many output. Default
  // architecture and batch size; fewer epochs keep the test fast.
  const Dataset d = fit_pin_dataset();
  NeuralNetwork::Params params;
  params.epochs = 4;
  for (const std::size_t threads : {1, 2, 4}) {
    set_parallel_threads(threads);
    NeuralNetwork nn(params, 5);
    nn.fit(d);
    std::uint64_t model_hash = 0xcbf29ce484222325ULL;
    for (std::size_t l = 0; l < nn.layer_count(); ++l) {
      fnv_mix(model_hash, hash_floats(nn.weights(l)));
      fnv_mix(model_hash, hash_floats(nn.biases(l)));
    }
    const std::uint64_t proba_hash = hash_floats(nn.predict_proba_many(d.X));
    EXPECT_EQ(model_hash, 0x977bdbe1f3dfb340ULL) << "threads " << threads;
    EXPECT_EQ(proba_hash, 0xdb0f8b33284270e6ULL) << "threads " << threads;
  }
  set_parallel_threads(1);
}

TEST(LogisticRegression, RecoverableCoefficients) {
  // y ~ sigmoid(2*x0): the learned weight on x0 should dominate x1.
  Dataset d;
  d.X = Matrix(4'000, 2);
  Rng rng(14);
  for (std::size_t i = 0; i < 4'000; ++i) {
    d.X.at(i, 0) = static_cast<float>(rng.normal());
    d.X.at(i, 1) = static_cast<float>(rng.normal());
    const double p = 1.0 / (1.0 + std::exp(-2.0 * d.X.at(i, 0)));
    d.y.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  LogisticRegression lr(LogisticRegression::Params{.epochs = 30}, 5);
  lr.fit(d);
  EXPECT_GT(lr.weights()[0], 1.0f);
  EXPECT_LT(std::abs(lr.weights()[1]), 0.4f);
}

TEST(Models, EmptyTrainingSetThrows) {
  const Dataset empty;
  for (const ModelKind kind :
       {ModelKind::kLogisticRegression, ModelKind::kGbdt, ModelKind::kSvm,
        ModelKind::kNeuralNetwork}) {
    auto model = make_model(kind);
    EXPECT_THROW(model->fit(empty), CheckError) << to_string(kind);
  }
}

}  // namespace
}  // namespace repro::ml
