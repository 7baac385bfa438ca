#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace repro {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  const Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c1_again = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  Rng c1b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += c1b.next_u64() == c2.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(8);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, FastNormalMoments) {
  Rng rng(10);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.fast_normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, ScaledNormal) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(12);
  std::vector<double> xs(20'001);
  for (auto& x : xs) x = rng.lognormal(std::log(3.0), 0.5);
  std::nth_element(xs.begin(), xs.begin() + 10'000, xs.end());
  EXPECT_NEAR(xs[10'000], 3.0, 0.2);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanMatches) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 17);
  double sum = 0.0;
  constexpr int kN = 30'000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(rng.poisson(mean));
  }
  EXPECT_NEAR(sum / kN, mean, std::max(0.05, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.0, 0.1, 1.0, 5.0, 31.0, 50.0));

TEST(Rng, ZipfSamplerFavorsLowRanks) {
  ZipfSampler sampler(100, 1.2);
  Rng rng(14);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[sampler(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[50]);
  // pmf is normalized and decreasing.
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) total += sampler.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(sampler.pmf(0), sampler.pmf(1));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(16);
  for (const std::size_t k : {0UL, 1UL, 10UL, 99UL, 100UL}) {
    const auto s = rng.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (const auto v : s) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(17);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), CheckError);
}

TEST(Hash, Hash64IsDeterministicAndSpreads) {
  EXPECT_EQ(hash64(123), hash64(123));
  EXPECT_NE(hash64(123), hash64(124));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

}  // namespace
}  // namespace repro
