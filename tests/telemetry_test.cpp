#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "telemetry/series.hpp"
#include "telemetry/store.hpp"
#include "telemetry/thermal_model.hpp"

namespace repro::telemetry {
namespace {

// --- RingSeries ------------------------------------------------------------

TEST(RingSeries, AtAge) {
  RingSeries s(4);
  s.push(1.0f);
  s.push(2.0f);
  s.push(3.0f);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FLOAT_EQ(s.at_age(0), 3.0f);
  EXPECT_FLOAT_EQ(s.at_age(2), 1.0f);
}

TEST(RingSeries, WrapsAroundCapacity) {
  RingSeries s(3);
  for (float v = 1.0f; v <= 5.0f; v += 1.0f) s.push(v);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FLOAT_EQ(s.at_age(0), 5.0f);
  EXPECT_FLOAT_EQ(s.at_age(2), 3.0f);
}

TEST(RingSeries, StatsLastMatchesNaive) {
  Rng rng(3);
  RingSeries s(64);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.uniform(10.0, 50.0));
    s.push(v);
    values.push_back(v);
  }
  for (const std::size_t w : {1UL, 5UL, 15UL, 30UL, 60UL}) {
    const FourStats got = s.stats_last(w);
    const std::vector<double> window(values.end() - static_cast<long>(w),
                                     values.end());
    EXPECT_NEAR(got.mean, mean_of(window), 1e-3) << "w=" << w;
    EXPECT_NEAR(got.std, stddev_of(window), 1e-3) << "w=" << w;
    std::vector<double> diffs;
    for (std::size_t i = 1; i < window.size(); ++i) {
      diffs.push_back(window[i] - window[i - 1]);
    }
    if (!diffs.empty()) {
      EXPECT_NEAR(got.diff_mean, mean_of(diffs), 1e-3) << "w=" << w;
      EXPECT_NEAR(got.diff_std, stddev_of(diffs), 1e-3) << "w=" << w;
    }
  }
}

TEST(RingSeries, StatsWithFewerSamplesThanWindow) {
  RingSeries s(64);
  s.push(10.0f);
  const FourStats one = s.stats_last(60);
  EXPECT_FLOAT_EQ(one.mean, 10.0f);
  EXPECT_FLOAT_EQ(one.std, 0.0f);
  EXPECT_FLOAT_EQ(one.diff_mean, 0.0f);
  const FourStats empty = RingSeries(8).stats_last(10);
  EXPECT_FLOAT_EQ(empty.mean, 0.0f);
}

TEST(WindowAccumulator, MatchesRingSeries) {
  Rng rng(4);
  WindowAccumulator acc;
  RingSeries ring(256);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal(40.0, 6.0));
    acc.add(v);
    ring.push(v);
  }
  const FourStats a = acc.stats();
  const FourStats b = ring.stats_last(200);
  EXPECT_NEAR(a.mean, b.mean, 1e-3);
  EXPECT_NEAR(a.std, b.std, 1e-3);
  EXPECT_NEAR(a.diff_mean, b.diff_mean, 1e-3);
  EXPECT_NEAR(a.diff_std, b.diff_std, 1e-3);
}

// --- TelemetryStore ----------------------------------------------------------

TEST(TelemetryStore, RecordsAndQueries) {
  TelemetryStore store(4);
  for (int t = 0; t < 10; ++t) {
    store.record(0, {.gpu_temp = static_cast<float>(30 + t),
                     .gpu_power = 100.0f,
                     .cpu_temp = 35.0f});
  }
  EXPECT_FLOAT_EQ(store.history_at(0, Channel::kGpuTemp, 0), 39.0f);
  const FourStats s = store.window_stats(0, Channel::kGpuTemp, 5);
  EXPECT_FLOAT_EQ(s.mean, 37.0f);  // 35..39
  EXPECT_FLOAT_EQ(s.diff_mean, 1.0f);
  EXPECT_EQ(store.cumulative(0, Channel::kGpuTemp).count(), 10u);
  EXPECT_EQ(store.cumulative(1, Channel::kGpuTemp).count(), 0u);
}

TEST(TelemetryStore, RequiresMinimumHistory) {
  EXPECT_THROW(TelemetryStore(4, 30), CheckError);
  EXPECT_NO_THROW(TelemetryStore(4, 61));
}

// --- ThermalModel ------------------------------------------------------------

class ThermalModelTest : public ::testing::Test {
 protected:
  topo::Topology topo_{topo::SystemConfig::tiny()};
  ThermalParams params_{};
  const std::size_t nodes_ = static_cast<std::size_t>(topo_.total_nodes());
};

TEST_F(ThermalModelTest, IdleMachineStaysNearAmbient) {
  ThermalModel model(topo_, params_, Rng(5));
  const std::vector<float> idle(
      static_cast<std::size_t>(topo_.total_nodes()), 0.0f);
  for (Minute t = 0; t < 120; ++t) model.advance(0, nodes_, t, idle);
  for (std::int32_t n = 0; n < topo_.total_nodes(); ++n) {
    const auto& r = model.readings()[static_cast<std::size_t>(n)];
    const double expected = model.ambient_of(n) + params_.idle_offset_c;
    EXPECT_NEAR(r.gpu_temp, expected, 4.0) << "node " << n;
    EXPECT_NEAR(r.gpu_power, params_.idle_power_w, 15.0);
  }
}

TEST_F(ThermalModelTest, LoadedNodeHeatsUpAndDrawsPower) {
  ThermalModel model(topo_, params_, Rng(6));
  std::vector<float> util(static_cast<std::size_t>(topo_.total_nodes()), 0.0f);
  for (Minute t = 0; t < 60; ++t) model.advance(0, nodes_, t, util);
  const float idle_temp = model.readings()[0].gpu_temp;
  util[0] = 1.0f;
  for (Minute t = 60; t < 180; ++t) model.advance(0, nodes_, t, util);
  const auto& r = model.readings()[0];
  EXPECT_GT(r.gpu_temp, idle_temp + 10.0f);
  EXPECT_GT(r.gpu_power, 150.0f);
  EXPECT_GT(r.cpu_temp, model.ambient_of(0) + params_.cpu_idle_offset_c + 5.0);
}

TEST_F(ThermalModelTest, NeighborLoadWarmsIdleNode) {
  ThermalModel model(topo_, params_, Rng(7));
  std::vector<float> util(static_cast<std::size_t>(topo_.total_nodes()), 0.0f);
  for (Minute t = 0; t < 60; ++t) model.advance(0, nodes_, t, util);
  const float before = model.readings()[0].gpu_temp;
  // Load node 0's slot peers (nodes 1..3) but not node 0.
  util[1] = util[2] = util[3] = 1.0f;
  for (Minute t = 60; t < 240; ++t) model.advance(0, nodes_, t, util);
  EXPECT_GT(model.readings()[0].gpu_temp, before + 1.5f);
}

TEST_F(ThermalModelTest, HotCornersHaveHigherAmbient) {
  const topo::Topology big(topo::SystemConfig::titan_scaled());
  ThermalModel model(big, params_, Rng(8));
  // Upper-left corner cabinet (x=0, y=7) vs grid-center cabinet.
  const auto corner = big.id_of({.cab_x = 0, .cab_y = 7});
  const auto center = big.id_of({.cab_x = 12, .cab_y = 4});
  EXPECT_GT(model.ambient_of(corner), model.ambient_of(center) + 2.0);
  const auto corner2 = big.id_of({.cab_x = 24, .cab_y = 0});
  EXPECT_GT(model.ambient_of(corner2), model.ambient_of(center) + 2.0);
}

TEST_F(ThermalModelTest, DeterministicForSameSeed) {
  ThermalModel a(topo_, params_, Rng(9));
  ThermalModel b(topo_, params_, Rng(9));
  std::vector<float> util(static_cast<std::size_t>(topo_.total_nodes()), 0.5f);
  for (Minute t = 0; t < 30; ++t) {
    a.advance(0, nodes_, t, util);
    b.advance(0, nodes_, t, util);
  }
  for (std::size_t n = 0; n < util.size(); ++n) {
    EXPECT_FLOAT_EQ(a.readings()[n].gpu_temp, b.readings()[n].gpu_temp);
    EXPECT_FLOAT_EQ(a.readings()[n].gpu_power, b.readings()[n].gpu_power);
  }
}

TEST_F(ThermalModelTest, RejectsWrongUtilizationSize) {
  ThermalModel model(topo_, params_, Rng(10));
  std::vector<float> wrong(3, 0.0f);
  EXPECT_THROW(model.advance(0, nodes_, 0, wrong), CheckError);
}

}  // namespace
}  // namespace repro::telemetry
