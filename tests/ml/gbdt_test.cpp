#include "ml/gbdt.hpp"
#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::ml {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix X(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X.at(r, c) = static_cast<float>(rng.uniform(-10.0, 10.0));
    }
  }
  return X;
}

TEST(FeatureBinner, CodesPartitionByEdges) {
  Matrix X = random_matrix(5'000, 3, 1);
  FeatureBinner binner;
  binner.fit(X, 64);
  for (std::size_t f = 0; f < 3; ++f) {
    ASSERT_GE(binner.bins(f), 2u);
    // Property: value <= upper_edge(c) iff code(value) <= c.
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
      const float v = static_cast<float>(rng.uniform(-12.0, 12.0));
      const std::uint8_t c = binner.code(f, v);
      if (c + 1u < binner.bins(f)) {
        EXPECT_LE(v, binner.upper_edge(f, c));
      }
      if (c > 0) {
        EXPECT_GT(v, binner.upper_edge(f, static_cast<std::uint8_t>(c - 1)));
      }
    }
  }
}

TEST(FeatureBinner, ConstantFeatureGetsOneBin) {
  Matrix X(100, 2, 5.0f);
  FeatureBinner binner;
  binner.fit(X, 64);
  EXPECT_EQ(binner.bins(0), 1u);
  EXPECT_EQ(binner.code(0, 5.0f), 0);
  EXPECT_EQ(binner.code(0, -100.0f), 0);
}

TEST(FeatureBinner, ConstantFeatureIsNeverSplitOn) {
  // Feature 0 is constant (1 bin, 0 edges): the tree has no edge to split
  // on, so all gain must land on the informative feature 1.
  Dataset d;
  d.X = Matrix(2'000, 2);
  Rng rng(21);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.X.at(i, 0) = 7.0f;
    d.X.at(i, 1) = static_cast<float>(rng.uniform(-5.0, 5.0));
    d.y.push_back(d.X.at(i, 1) > 0.5f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 15;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 6);
  gbdt.fit(d);
  const auto imp = gbdt.feature_importance();
  EXPECT_DOUBLE_EQ(imp[0], 0.0);
  EXPECT_GT(imp[1], 0.0);
}

TEST(FeatureBinner, AllDuplicateValuesCollapseToFewBins) {
  // Values drawn from {1, 2, 3} only: at most 2 edges survive dedup, and
  // every duplicate of a value maps to the same code.
  Matrix X(1'000, 1);
  Rng rng(13);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    X.at(r, 0) = static_cast<float>(1 + rng.uniform_index(3));
  }
  FeatureBinner binner;
  binner.fit(X, 64);
  EXPECT_LE(binner.bins(0), 3u);
  EXPECT_GE(binner.bins(0), 2u);
  const std::uint8_t c1 = binner.code(0, 1.0f);
  const std::uint8_t c2 = binner.code(0, 2.0f);
  const std::uint8_t c3 = binner.code(0, 3.0f);
  EXPECT_LT(c1, c3);
  EXPECT_LE(c1, c2);
  EXPECT_LE(c2, c3);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const float v = X.at(r, 0);
    EXPECT_EQ(binner.code(0, v), v == 1.0f ? c1 : (v == 2.0f ? c2 : c3));
  }
}

TEST(FeatureBinner, EdgeRoundTripMatchesTreePredictConvention) {
  // Tree::predict routes x[f] <= threshold to the left child, where
  // threshold == upper_edge(best_code). So a value equal to an edge must
  // code into that edge's bin, and anything strictly above must not.
  Matrix X = random_matrix(5'000, 1, 17);
  FeatureBinner binner;
  binner.fit(X, 32);
  ASSERT_GE(binner.bins(0), 2u);
  for (std::uint8_t c = 0; c + 1u < binner.bins(0); ++c) {
    const float edge = binner.upper_edge(0, c);
    EXPECT_EQ(binner.code(0, edge), c) << "edge " << edge;
    const float above = std::nextafter(edge, 1e30f);
    EXPECT_GT(binner.code(0, above), c) << "just above edge " << edge;
  }
}

TEST(FeatureBinner, TransformMatchesPerValueCodes) {
  Matrix X = random_matrix(200, 2, 3);
  FeatureBinner binner;
  binner.fit(X, 32);
  const auto codes = binner.transform(X);
  ASSERT_EQ(codes.size(), 400u);
  for (std::size_t r = 0; r < 200; ++r) {
    for (std::size_t f = 0; f < 2; ++f) {
      EXPECT_EQ(codes[r * 2 + f], binner.code(f, X.at(r, f)));
    }
  }
}

TEST(FeatureBinner, RejectsNonFiniteValues) {
  // NaN breaks the binner's sort and would route differently through
  // binned codes (code 0, left) than through Tree::predict (NaN <= t is
  // false, right), so both binning passes reject it by row and feature.
  Matrix X = random_matrix(300, 3, 29);
  FeatureBinner binner;
  binner.fit(X, 32);
  X.at(250, 2) = std::numeric_limits<float>::quiet_NaN();
  try {
    (void)binner.transform_columns(X);
    ADD_FAILURE() << "NaN accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("row 250, feature 2"),
              std::string::npos)
        << e.what();
  }
  X.at(250, 2) = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)binner.transform_columns(X), CheckError);
  EXPECT_THROW(binner.fit(X, 32), CheckError);
}

TEST(Gbdt, FitRejectsNonFiniteFeatures) {
  Dataset d;
  d.X = random_matrix(500, 2, 30);
  for (std::size_t r = 0; r < d.X.rows(); ++r) d.y.push_back(r % 2 ? 1 : 0);
  d.X.at(123, 1) = -std::numeric_limits<float>::infinity();
  GradientBoostedTrees gbdt(GradientBoostedTrees::Params{.trees = 2}, 5);
  EXPECT_THROW(gbdt.fit(d), CheckError);
  d.X.at(123, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(gbdt.fit(d), CheckError);
}

TEST(FeatureBinner, ColumnMajorTransformMatchesRowMajor) {
  // transform_columns must agree with transform code-for-code, and its
  // packed offsets must give every splittable feature exactly bins(f)
  // histogram slots while constant features get a zero-width slice.
  Matrix X = random_matrix(300, 3, 23);
  for (std::size_t r = 0; r < X.rows(); ++r) X.at(r, 1) = 4.0f;  // constant
  FeatureBinner binner;
  binner.fit(X, 32);
  ASSERT_EQ(binner.bins(1), 1u);
  const auto row_major = binner.transform(X);
  const BinnedColumns binned = binner.transform_columns(X);
  ASSERT_EQ(binned.rows, X.rows());
  ASSERT_EQ(binned.features, X.cols());
  ASSERT_EQ(binned.offsets.size(), X.cols() + 1);
  std::size_t expected_total = 0;
  for (std::size_t f = 0; f < X.cols(); ++f) {
    const std::size_t width = binned.offsets[f + 1] - binned.offsets[f];
    EXPECT_EQ(width, binner.bins(f) >= 2 ? binner.bins(f) : 0u) << "f=" << f;
    expected_total += width;
    const std::uint8_t* col = binned.column(f);
    for (std::size_t r = 0; r < X.rows(); ++r) {
      ASSERT_EQ(col[r], row_major[r * X.cols() + f]) << "r=" << r << " f=" << f;
    }
  }
  EXPECT_EQ(binned.total_bins(), expected_total);
}

// Naive O(n * d * bins) reference engine: same binning, loss, and split
// criterion as GradientBoostedTrees, but every node's histogram is built
// directly from its own rows — no histogram subtraction, no shared index
// buffer, no leaf-indexed score updates. Pins the optimised engine's tree
// structure and predictions to first principles.
class NaiveGbdt {
 public:
  explicit NaiveGbdt(const GradientBoostedTrees::Params& params)
      : params_(params) {}

  void fit(const Dataset& d) {
    const std::size_t n = d.size();
    const std::size_t dims = d.features();
    binner_.fit(d.X, params_.max_bins);
    const auto codes = binner_.transform(d.X);

    double wpos = 0.0, wtot = 0.0;
    for (const Label l : d.y) {
      const double w = l ? params_.pos_weight : 1.0;
      wpos += l ? w : 0.0;
      wtot += w;
    }
    const double prior = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
    base_score_ = static_cast<float>(std::log(prior / (1.0 - prior)));

    std::vector<float> score(n, base_score_), grad(n), hess(n);
    for (std::size_t t = 0; t < params_.trees; ++t) {
      for (std::size_t r = 0; r < n; ++r) {
        const float p = 1.0f / (1.0f + std::exp(-score[r]));
        const float w = d.y[r] ? static_cast<float>(params_.pos_weight) : 1.0f;
        grad[r] = w * (p - static_cast<float>(d.y[r]));
        hess[r] = w * p * (1.0f - p);
      }
      Tree tree = build_tree(codes, dims, grad, hess, n);
      for (std::size_t r = 0; r < n; ++r) {
        score[r] += predict_tree(tree, d.X.row(r));
      }
      trees_.push_back(std::move(tree));
    }
  }

  [[nodiscard]] float predict_proba(std::span<const float> x) const {
    float z = base_score_;
    for (const Tree& t : trees_) z += predict_tree(t, x);
    return 1.0f / (1.0f + std::exp(-z));
  }

  /// (feature, threshold) of every split node of tree t, in node order.
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> tree_splits(
      std::size_t t) const {
    std::vector<std::pair<std::int32_t, float>> out;
    for (const Node& n : trees_[t].nodes) {
      if (n.feature >= 0) out.emplace_back(n.feature, n.threshold);
    }
    return out;
  }

 private:
  struct Node {
    std::int32_t feature = -1;
    float threshold = 0.0f;
    std::int32_t left = -1, right = -1;
    float value = 0.0f;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  static float predict_tree(const Tree& tree, std::span<const float> x) {
    std::size_t i = 0;
    while (tree.nodes[i].feature >= 0) {
      const Node& nd = tree.nodes[i];
      i = static_cast<std::size_t>(
          x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                  : nd.right);
    }
    return tree.nodes[i].value;
  }

  Tree build_tree(const std::vector<std::uint8_t>& codes, std::size_t dims,
                  const std::vector<float>& grad,
                  const std::vector<float>& hess, std::size_t n) {
    const double lambda = params_.lambda;
    Tree tree;
    tree.nodes.push_back({});
    std::vector<std::pair<std::int32_t, std::vector<std::size_t>>> level(1);
    level[0].first = 0;
    level[0].second.resize(n);
    std::iota(level[0].second.begin(), level[0].second.end(), std::size_t{0});

    for (std::size_t depth = 0; !level.empty(); ++depth) {
      std::vector<std::pair<std::int32_t, std::vector<std::size_t>>> next;
      for (auto& [id, rows] : level) {
        double G = 0.0, H = 0.0;
        for (const std::size_t r : rows) {
          G += grad[r];
          H += hess[r];
        }
        std::int32_t best_f = -1;
        std::uint8_t best_code = 0;
        double best_gain = params_.gamma;
        if (depth < params_.max_depth) {
          const double parent_obj = G * G / (H + lambda);
          for (std::size_t f = 0; f < dims; ++f) {
            const std::size_t nbins = binner_.bins(f);
            if (nbins < 2) continue;
            std::vector<double> gs(nbins, 0.0), hs(nbins, 0.0);
            for (const std::size_t r : rows) {
              gs[codes[r * dims + f]] += grad[r];
              hs[codes[r * dims + f]] += hess[r];
            }
            double GL = 0.0, HL = 0.0;
            for (std::size_t c = 0; c + 1 < nbins; ++c) {
              GL += gs[c];
              HL += hs[c];
              const double HR = H - HL;
              if (HL < params_.min_child_hessian ||
                  HR < params_.min_child_hessian) {
                continue;
              }
              const double GR = G - GL;
              const double gain = 0.5 * (GL * GL / (HL + lambda) +
                                         GR * GR / (HR + lambda) - parent_obj);
              if (gain > best_gain) {
                best_gain = gain;
                best_f = static_cast<std::int32_t>(f);
                best_code = static_cast<std::uint8_t>(c);
              }
            }
          }
        }
        if (best_f < 0) {
          tree.nodes[static_cast<std::size_t>(id)].value =
              static_cast<float>(-G / (H + lambda) * params_.learning_rate);
          continue;
        }
        const auto left_id = static_cast<std::int32_t>(tree.nodes.size());
        Node& node = tree.nodes[static_cast<std::size_t>(id)];
        node.feature = best_f;
        node.threshold =
            binner_.upper_edge(static_cast<std::size_t>(best_f), best_code);
        node.left = left_id;
        node.right = left_id + 1;
        tree.nodes.push_back({});
        tree.nodes.push_back({});
        std::vector<std::size_t> lrows, rrows;
        for (const std::size_t r : rows) {
          (codes[r * dims + static_cast<std::size_t>(best_f)] <= best_code
               ? lrows
               : rrows)
              .push_back(r);
        }
        next.emplace_back(left_id, std::move(lrows));
        next.emplace_back(left_id + 1, std::move(rrows));
      }
      level = std::move(next);
    }
    return tree;
  }

  GradientBoostedTrees::Params params_;
  FeatureBinner binner_;
  std::vector<Tree> trees_;
  float base_score_ = 0.0f;
};

TEST(Gbdt, MatchesNaiveReferenceEngine) {
  // The optimised engine (column-major bins, histogram subtraction,
  // in-place partitioning) must grow the exact same trees as the naive
  // direct-histogram reference: identical (feature, threshold) splits in
  // node order, and matching predictions (leaf values may differ in the
  // last ulps because siblings derive G/H by subtraction).
  Dataset d;
  d.X = random_matrix(600, 4, 31);
  for (std::size_t r = 0; r < d.X.rows(); ++r) d.X.at(r, 3) = -2.5f;
  Rng rng(32);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    const bool hot = d.X.at(r, 0) > 2.0f || d.X.at(r, 2) < -4.0f;
    d.y.push_back(hot != (rng.uniform(0.0, 1.0) < 0.05) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 8;
  params.max_depth = 3;
  params.learning_rate = 0.3;
  params.subsample = 1.0;  // keep both engines on the same row set
  params.pos_weight = 2.0;
  params.max_bins = 16;

  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  NaiveGbdt naive(params);
  naive.fit(d);

  ASSERT_EQ(gbdt.tree_count(), params.trees);
  std::size_t total_splits = 0;
  for (std::size_t t = 0; t < params.trees; ++t) {
    const auto fast = gbdt.tree_splits(t);
    const auto ref = naive.tree_splits(t);
    ASSERT_EQ(fast.size(), ref.size()) << "tree " << t;
    for (std::size_t s = 0; s < fast.size(); ++s) {
      EXPECT_EQ(fast[s].first, ref[s].first) << "tree " << t << " split " << s;
      EXPECT_EQ(fast[s].second, ref[s].second)
          << "tree " << t << " split " << s;
      EXPECT_NE(fast[s].first, 3) << "split on constant feature";
    }
    total_splits += fast.size();
  }
  EXPECT_GT(total_splits, params.trees);  // the trees actually grew
  for (std::size_t r = 0; r < d.X.rows(); r += 7) {
    EXPECT_NEAR(gbdt.predict_proba(d.X.row(r)), naive.predict_proba(d.X.row(r)),
                1e-4f)
        << "row " << r;
  }
}

TEST(Gbdt, FitIsBitwiseInvariantAcrossThreadCounts) {
  // Engine-level determinism sweep: large enough that root histograms use
  // multiple chunks, subsampled so the out-of-subsample binned-traversal
  // path runs, deep enough that subtraction and in-place partitioning are
  // exercised on every level. Models must be bit-identical.
  Dataset d;
  d.X = random_matrix(10'000, 5, 41);
  Rng rng(42);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    const double z = 0.8 * d.X.at(r, 1) - 0.5 * d.X.at(r, 4);
    d.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 10;
  params.max_depth = 4;
  params.subsample = 0.7;

  std::vector<std::vector<float>> probs;
  std::vector<std::vector<std::pair<std::int32_t, float>>> splits;
  for (const std::size_t threads : {1, 2, 8}) {
    set_parallel_threads(threads);
    GradientBoostedTrees gbdt(params, 5);
    gbdt.fit(d);
    probs.push_back(gbdt.predict_proba_many(d.X));
    std::vector<std::pair<std::int32_t, float>> all;
    for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
      const auto s = gbdt.tree_splits(t);
      all.insert(all.end(), s.begin(), s.end());
    }
    splits.push_back(std::move(all));
  }
  set_parallel_threads(1);
  for (std::size_t i = 1; i < probs.size(); ++i) {
    ASSERT_EQ(splits[i], splits[0]) << "thread sweep " << i;
    ASSERT_EQ(probs[i].size(), probs[0].size());
    for (std::size_t r = 0; r < probs[0].size(); ++r) {
      ASSERT_EQ(probs[i][r], probs[0][r]) << "row " << r;  // bitwise
    }
  }
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

TEST(Gbdt, FitIsPinned) {
  // Pins a fitted model bit for bit against constants recorded from the
  // engine: every node's (feature, code, threshold, value, gain), the
  // predict_proba_many output and the histogram work counters. The data
  // is shaped to reach every histogram path: 12k rows so the root build
  // spans several row chunks; 21 columns, so the 20 splittable ones form
  // two full groups of 8 plus a remainder; a constant column (zero-width
  // histogram slice) in the middle of a group; a 2-valued column; and a
  // heavy-tailed count column with few distinct values.
  constexpr std::size_t kRows = 12'000, kCols = 21, kConstant = 5;
  Dataset d;
  d.X = Matrix(kRows, kCols);
  Rng rng(77);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      d.X.at(r, c) = static_cast<float>(rng.normal(0.0, 1.0 + 0.1 * c));
    }
    d.X.at(r, kConstant) = 3.0f;
    d.X.at(r, 1) = rng.bernoulli(0.3) ? 1.0f : 0.0f;
    d.X.at(r, 2) = std::floor(
        static_cast<float>(std::pow(rng.uniform(1e-3, 1.0), -1.2)) - 1.0f);
    const double z = 1.2 * d.X.at(r, 1) + 0.4 * std::log1p(d.X.at(r, 2)) +
                     0.7 * d.X.at(r, 9) - 0.5 * d.X.at(r, 17) - 1.5;
    d.y.push_back(rng.bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 12;
  params.max_depth = 6;
  params.subsample = 0.9;

  const bool obs_was_enabled = obs::enabled();
  for (const std::size_t threads : {1, 2, 4}) {
    set_parallel_threads(threads);
    obs::reset();
    obs::set_enabled(true);
    GradientBoostedTrees gbdt(params, 5);
    gbdt.fit(d);
    obs::set_enabled(obs_was_enabled);
    const std::uint64_t builds = obs::counter("gbdt.hist_builds").value();
    const std::uint64_t subtractions =
        obs::counter("gbdt.hist_subtractions").value();

    std::uint64_t model_hash = 0xcbf29ce484222325ULL;
    for (std::size_t t = 0; t < gbdt.tree_count(); ++t) {
      for (const auto& n : gbdt.tree_nodes(t)) {
        fnv_mix(model_hash, n.feature);
        fnv_mix(model_hash, n.code);
        fnv_mix(model_hash, std::bit_cast<std::uint32_t>(n.threshold));
        fnv_mix(model_hash, std::bit_cast<std::uint32_t>(n.value));
        fnv_mix(model_hash, std::bit_cast<std::uint64_t>(n.gain));
      }
    }
    std::uint64_t proba_hash = 0xcbf29ce484222325ULL;
    for (const float p : gbdt.predict_proba_many(d.X)) {
      fnv_mix(proba_hash, std::bit_cast<std::uint32_t>(p));
    }
    EXPECT_EQ(model_hash, 0xc395e6477a0e161eULL) << "threads " << threads;
    EXPECT_EQ(proba_hash, 0xe8ddfdbf1aa6b0a8ULL) << "threads " << threads;
    EXPECT_EQ(builds, 381u) << "threads " << threads;
    EXPECT_EQ(subtractions, 369u) << "threads " << threads;
  }
  set_parallel_threads(1);
  obs::reset();
}

TEST(Gbdt, PredictProbaManyMatchesPerRow) {
  Dataset d;
  d.X = random_matrix(1'500, 3, 51);
  for (std::size_t r = 0; r < d.X.rows(); ++r) {
    d.y.push_back(d.X.at(r, 0) + d.X.at(r, 2) > 1.0f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 25;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  const Matrix probe = random_matrix(700, 3, 52);
  const auto many = gbdt.predict_proba_many(probe);
  ASSERT_EQ(many.size(), probe.rows());
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    ASSERT_EQ(many[r], gbdt.predict_proba(probe.row(r))) << "row " << r;
  }
}

TEST(Gbdt, PerfectFitOnThresholdRule) {
  // y = x0 > 1.5 — a single split suffices.
  Dataset d;
  d.X = random_matrix(2'000, 2, 4);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.y.push_back(d.X.at(i, 0) > 1.5f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 20;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  const auto pred = gbdt.predict_batch(d.X);
  EXPECT_GT(evaluate(d.y, pred).accuracy, 0.99);
}

TEST(Gbdt, ImportanceConcentratesOnInformativeFeature) {
  Dataset d;
  d.X = random_matrix(3'000, 4, 6);
  Rng rng(7);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    const double p =
        1.0 / (1.0 + std::exp(-1.5 * static_cast<double>(d.X.at(i, 2))));
    d.y.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 40;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 8);
  gbdt.fit(d);
  const auto imp = gbdt.feature_importance();
  ASSERT_EQ(imp.size(), 4u);
  const double other = imp[0] + imp[1] + imp[3];
  EXPECT_GT(imp[2], 5.0 * other);
}

TEST(Gbdt, TreeCountMatchesParams) {
  Dataset d;
  d.X = random_matrix(500, 2, 9);
  for (std::size_t i = 0; i < 500; ++i) d.y.push_back(i % 3 == 0 ? 1 : 0);
  GradientBoostedTrees::Params params;
  params.trees = 13;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  EXPECT_EQ(gbdt.tree_count(), 13u);
}

TEST(Gbdt, PureNodeProducesNoSplits) {
  // All labels identical: trees should be single leaves near the prior.
  Dataset d;
  d.X = random_matrix(400, 3, 10);
  d.y.assign(400, 1);
  GradientBoostedTrees gbdt(GradientBoostedTrees::Params{.trees = 5}, 5);
  gbdt.fit(d);
  const float p = gbdt.predict_proba(d.X.row(0));
  EXPECT_GT(p, 0.95f);
  const auto imp = gbdt.feature_importance();
  EXPECT_DOUBLE_EQ(imp[0] + imp[1] + imp[2], 0.0);
}

TEST(Gbdt, PosWeightShiftsOperatingPointTowardRecall) {
  // Overlapping blobs with 10:1 imbalance: higher pos_weight must not
  // reduce recall.
  Dataset d;
  d.X = Matrix(4'400, 1);
  Rng rng(11);
  for (std::size_t i = 0; i < 4'400; ++i) {
    const bool pos = i < 400;
    d.X.at(i, 0) = static_cast<float>(rng.normal(pos ? 1.0 : 0.0, 1.0));
    d.y.push_back(pos ? 1 : 0);
  }
  auto recall_with = [&](double w) {
    GradientBoostedTrees::Params params;
    params.trees = 30;
    params.pos_weight = w;
    GradientBoostedTrees gbdt(params, 5);
    gbdt.fit(d);
    return evaluate(d.y, gbdt.predict_batch(d.X)).positive.recall;
  };
  EXPECT_GT(recall_with(8.0), recall_with(1.0) + 0.1);
}

TEST(Gbdt, SubsamplingStillLearns) {
  Dataset d;
  d.X = random_matrix(2'000, 2, 12);
  for (std::size_t i = 0; i < d.X.rows(); ++i) {
    d.y.push_back(d.X.at(i, 1) > 0.0f ? 1 : 0);
  }
  GradientBoostedTrees::Params params;
  params.trees = 30;
  params.subsample = 0.5;
  params.pos_weight = 1.0;
  GradientBoostedTrees gbdt(params, 5);
  gbdt.fit(d);
  EXPECT_GT(evaluate(d.y, gbdt.predict_batch(d.X)).accuracy, 0.97);
}

}  // namespace
}  // namespace repro::ml
