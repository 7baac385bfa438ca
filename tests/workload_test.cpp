#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/application.hpp"
#include "workload/scheduler.hpp"

namespace repro::workload {
namespace {

TEST(AppCatalog, GeneratesRequestedPopulation) {
  CatalogParams params;
  params.num_apps = 50;
  const AppCatalog catalog = AppCatalog::generate(params, Rng(1));
  EXPECT_EQ(catalog.size(), 50u);
  for (std::size_t a = 0; a < catalog.size(); ++a) {
    const auto& spec = catalog.spec(static_cast<AppId>(a));
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.median_runtime_min, 0.0);
    EXPECT_GE(spec.util_mean, 0.15);
    EXPECT_LE(spec.util_mean, 1.0);
    EXPECT_GE(spec.min_nodes, 1);
    EXPECT_GE(spec.max_nodes, spec.min_nodes);
    EXPECT_LE(spec.max_nodes, params.max_nodes_cap);
    EXPECT_GT(spec.mem_mean_gb, 0.0);
    EXPECT_LE(spec.mem_mean_gb, 6.0);  // K20X has 6 GB
  }
}

TEST(AppCatalog, PopularityIsZipf) {
  CatalogParams params;
  params.num_apps = 100;
  const AppCatalog catalog = AppCatalog::generate(params, Rng(2));
  EXPECT_GT(catalog.popularity(0), catalog.popularity(10));
  EXPECT_GT(catalog.popularity(10), catalog.popularity(90));
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20'000; ++i) ++counts[static_cast<std::size_t>(catalog.sample(rng))];
  EXPECT_GT(counts[0], counts[50] * 3);
}

TEST(AppCatalog, DeterministicForSeed) {
  CatalogParams params;
  const AppCatalog a = AppCatalog::generate(params, Rng(7));
  const AppCatalog b = AppCatalog::generate(params, Rng(7));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.spec(static_cast<AppId>(i)).median_runtime_min,
              b.spec(static_cast<AppId>(i)).median_runtime_min);
  }
}

TEST(ApRun, UtilizationOnlyDuringRun) {
  ApRun run;
  run.start = 100;
  run.end = 200;
  run.util_level = 0.8;
  EXPECT_FLOAT_EQ(run.utilization_at(99), 0.0f);
  EXPECT_FLOAT_EQ(run.utilization_at(200), 0.0f);
  const float u = run.utilization_at(150);
  EXPECT_GT(u, 0.5f);
  EXPECT_LE(u, 1.0f);
}

TEST(ApRun, DerivedQuantities) {
  ApRun run;
  run.start = 0;
  run.end = 120;  // 2 hours
  run.nodes = {0, 1, 2, 3};
  run.util_level = 0.5;
  run.mem_per_node_gb = 2.0;
  EXPECT_EQ(run.runtime_min(), 120);
  EXPECT_DOUBLE_EQ(run.gpu_core_hours(), 4.0 * 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(run.total_mem_gb(), 8.0);
}

class SchedulerTest : public ::testing::Test {
 protected:
  topo::Topology topo_{topo::SystemConfig::tiny()};
  AppCatalog catalog_ = AppCatalog::generate(
      {.num_apps = 20, .max_nodes_cap = 8}, Rng(4));
  SchedulerParams params_{.jobs_per_hour = 30.0};
};

TEST_F(SchedulerTest, NoDoubleAllocation) {
  Scheduler sched(topo_, catalog_, params_, Rng(5));
  for (Minute t = 0; t < 2'000; ++t) {
    sched.step(t);
    std::set<topo::NodeId> allocated;
    for (const ApRun& run : sched.active_runs()) {
      for (const topo::NodeId n : run.nodes) {
        EXPECT_TRUE(allocated.insert(n).second)
            << "node " << n << " allocated twice at t=" << t;
      }
    }
  }
}

TEST_F(SchedulerTest, CompletionsHappenAtEndMinute) {
  Scheduler sched(topo_, catalog_, params_, Rng(6));
  for (Minute t = 0; t < 3'000; ++t) {
    const auto completed = sched.step(t);
    for (const ApRun& run : completed) {
      EXPECT_EQ(run.end, t);
      EXPECT_GT(run.end, run.start);
      EXPECT_FALSE(run.nodes.empty());
      EXPECT_TRUE(std::is_sorted(run.nodes.begin(), run.nodes.end()));
    }
  }
}

TEST_F(SchedulerTest, UtilizationMatchesActiveRuns) {
  // Every active run keeps its nodes busy (utilization > 0), so a node
  // with zero utilization is exactly a node in no run.
  Scheduler sched(topo_, catalog_, params_, Rng(7));
  for (Minute t = 0; t < 500; ++t) {
    sched.step(t);
    for (const ApRun& run : sched.active_runs()) {
      EXPECT_GT(run.utilization_at(t), 0.0f) << "run " << run.id;
    }
  }
}

TEST_F(SchedulerTest, OccupancyBounded) {
  Scheduler sched(topo_, catalog_, params_, Rng(8));
  for (Minute t = 0; t < 5'000; ++t) {
    sched.step(t);
    EXPECT_GE(sched.occupancy(), 0.0);
    EXPECT_LE(sched.occupancy(), 1.0);
  }
  // A busy machine should actually get used.
  EXPECT_GT(sched.occupancy(), 0.2);
  EXPECT_GT(sched.runs_started(), 50);
}

TEST_F(SchedulerTest, DeterministicForSeed) {
  Scheduler a(topo_, catalog_, params_, Rng(9));
  Scheduler b(topo_, catalog_, params_, Rng(9));
  for (Minute t = 0; t < 1'000; ++t) {
    const auto ca = a.step(t);
    const auto cb = b.step(t);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].id, cb[i].id);
      EXPECT_EQ(ca[i].nodes, cb[i].nodes);
      EXPECT_EQ(ca[i].app, cb[i].app);
    }
  }
}

TEST_F(SchedulerTest, RunsRespectAppNodeRange) {
  Scheduler sched(topo_, catalog_, params_, Rng(10));
  for (Minute t = 0; t < 2'000; ++t) {
    for (const ApRun& run : sched.step(t)) {
      const auto& spec = catalog_.spec(run.app);
      EXPECT_GE(static_cast<std::int32_t>(run.nodes.size()), 1);
      EXPECT_LE(static_cast<std::int32_t>(run.nodes.size()), spec.max_nodes);
      EXPECT_GE(run.util_level, 0.05);
      EXPECT_LE(run.util_level, 1.0);
    }
  }
}

}  // namespace
}  // namespace repro::workload
