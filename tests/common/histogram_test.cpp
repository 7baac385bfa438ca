#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace repro {
namespace {

TEST(Histogram, BinsValuesIntoRightBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.5);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
}

// Pins the binning expression of Histogram::add for the simulator's two
// shapes (Figs 6-7): bin = clamp(int((x - lo) / (hi - lo) * bins)). The
// simulator bins float readings, and its trace hash depends on every one
// landing exactly here; an algebraically equal rewrite such as multiplying
// by a precomputed reciprocal bin width rounds differently near bin edges.
// Inputs: a dense float sweep over and beyond [lo, hi], plus each bin edge
// and its float neighbours.
TEST(Histogram, BinningMatchesPinnedExpressionNearEveryEdge) {
  struct Shape {
    double lo, hi;
    std::size_t bins;
  };
  for (const Shape& shape : {Shape{10.0, 70.0, 60}, Shape{0.0, 300.0, 75}}) {
    const double span = shape.hi - shape.lo;
    std::vector<float> xs;
    for (int i = -2000; i <= 202000; ++i) {
      xs.push_back(static_cast<float>(shape.lo + span * i / 200000.0));
    }
    for (std::size_t k = 0; k <= shape.bins; ++k) {
      float edge = static_cast<float>(
          shape.lo + span * static_cast<double>(k) /
                         static_cast<double>(shape.bins));
      for (int step = 0; step < 4; ++step) edge = std::nextafter(edge, -1e9f);
      for (int step = 0; step < 9; ++step) {
        xs.push_back(edge);
        edge = std::nextafter(edge, 1e9f);
      }
    }
    for (const float far : {-1e6f, -40.0f, 150.0f, 2000.0f, 1e6f}) {
      xs.push_back(far);
    }

    Histogram h(shape.lo, shape.hi, shape.bins);
    for (const float x : xs) {
      const auto raw = static_cast<std::int64_t>(
          (x - shape.lo) / span * static_cast<double>(shape.bins));
      const auto expected = static_cast<std::size_t>(std::clamp<std::int64_t>(
          raw, 0, static_cast<std::int64_t>(shape.bins) - 1));
      h.clear();
      h.add(x);
      ASSERT_EQ(h.count(expected), 1u)
          << "x=" << x << " shape [" << shape.lo << ", " << shape.hi << ") x "
          << shape.bins;
    }
  }
}

TEST(Histogram, WeightsAccumulate) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 10);
  EXPECT_EQ(h.count(0), 10u);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_DOUBLE_EQ(h.probability(0), 1.0);
}

TEST(Histogram, MeanAndStddevApproximateSamples) {
  Histogram h(0.0, 100.0, 200);
  Rng rng(1);
  for (int i = 0; i < 50'000; ++i) h.add(rng.normal(40.0, 5.0));
  EXPECT_NEAR(h.mean(), 40.0, 0.3);
  EXPECT_NEAR(h.stddev(), 5.0, 0.3);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.6);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 0.2);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 0.2);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(1.0);
  b.add(1.0);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(Histogram, MergeShapeMismatchThrows) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 20);
  EXPECT_THROW(a.merge(b), CheckError);
  Histogram c(0.0, 5.0, 10);
  EXPECT_THROW(a.merge(c), CheckError);
}

TEST(Histogram, ClearResets) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), CheckError);
  EXPECT_THROW(Histogram(2.0, 1.0, 10), CheckError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckError);
}

TEST(Histogram, RenderProducesBars) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) h.add(5.0);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("50"), std::string::npos);
}

TEST(Histogram, EmptyQuantileAndProbability) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.probability(3), 0.0);
}

}  // namespace
}  // namespace repro
