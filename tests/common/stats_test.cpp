#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace repro {
namespace {

TEST(RunningStats, HandComputedValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats whole, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
}

TEST(Quantile, UnsortedInputAndEmpty) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(MeanStd, OfSpan) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 5.0);
  EXPECT_NEAR(stddev_of(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev_of(std::vector<double>{1.0}), 0.0);
}

TEST(RankData, AveragesTies) {
  const std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
  const auto ranks = rank_data(xs);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Pearson, PerfectAndInverse) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> down = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> c = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(xs, c), 0.0);
}

TEST(Spearman, InvariantToMonotoneTransforms) {
  Rng rng(2);
  std::vector<double> xs(200), ys(200), ys_exp(200);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.normal();
    ys[i] = 2.0 * xs[i] + rng.normal() * 0.3;
    ys_exp[i] = std::exp(ys[i]);  // monotone transform preserves ranks
  }
  EXPECT_NEAR(spearman(xs, ys), spearman(xs, ys_exp), 1e-12);
  EXPECT_GT(spearman(xs, ys), 0.8);
}

TEST(Spearman, SizeMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(spearman(a, b), CheckError);
}

TEST(EmpiricalCdf, StepFunction) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 2.0};
  const EmpiricalCdf cdf = make_cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_TRUE(std::is_sorted(cdf.values.begin(), cdf.values.end()));
}

// Property: RunningStats matches a naive two-pass computation on random data.
class RunningStatsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RunningStatsPropertyTest, MatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs(1 + GetParam() * 37 % 500);
  for (auto& x : xs) x = rng.uniform(-100.0, 100.0);
  RunningStats s;
  for (const double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), mean_of(xs), 1e-9);
  EXPECT_NEAR(s.stddev(), stddev_of(xs), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsPropertyTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace repro
