#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace repro::topo {
namespace {

TEST(SystemConfig, TitanDimensions) {
  const SystemConfig titan = SystemConfig::titan();
  EXPECT_EQ(titan.cabinets(), 200);
  EXPECT_EQ(titan.nodes_per_cabinet(), 96);
  EXPECT_EQ(titan.total_nodes(), 19'200);  // 18,688 populated on Titan
}

TEST(SystemConfig, ScaledKeepsFloorGrid) {
  const SystemConfig scaled = SystemConfig::titan_scaled();
  EXPECT_EQ(scaled.grid_x, 25);
  EXPECT_EQ(scaled.grid_y, 8);
  EXPECT_EQ(scaled.total_nodes(), 1'600);
}

class TopologyBijectionTest : public ::testing::TestWithParam<SystemConfig> {};

TEST_P(TopologyBijectionTest, IdAddressRoundTrip) {
  const Topology topo(GetParam());
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress addr = topo.address_of(id);
    EXPECT_EQ(topo.id_of(addr), id);
  }
}

TEST_P(TopologyBijectionTest, AddressesAreUnique) {
  const Topology topo(GetParam());
  std::set<std::tuple<int, int, int, int, int>> seen;
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress a = topo.address_of(id);
    EXPECT_TRUE(
        seen.insert({a.cab_x, a.cab_y, a.cage, a.slot, a.node}).second);
  }
}

TEST_P(TopologyBijectionTest, CoordinatesInRange) {
  const SystemConfig cfg = GetParam();
  const Topology topo(cfg);
  for (NodeId id = 0; id < topo.total_nodes(); ++id) {
    const NodeAddress a = topo.address_of(id);
    EXPECT_GE(a.cab_x, 0);
    EXPECT_LT(a.cab_x, cfg.grid_x);
    EXPECT_GE(a.cab_y, 0);
    EXPECT_LT(a.cab_y, cfg.grid_y);
    EXPECT_LT(a.cage, cfg.cages_per_cabinet);
    EXPECT_LT(a.slot, cfg.slots_per_cage);
    EXPECT_LT(a.node, cfg.nodes_per_slot);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TopologyBijectionTest,
                         ::testing::Values(SystemConfig::tiny(),
                                           SystemConfig::titan_scaled(),
                                           SystemConfig{.grid_x = 3,
                                                        .grid_y = 5,
                                                        .cages_per_cabinet = 2,
                                                        .slots_per_cage = 3,
                                                        .nodes_per_slot = 2}));

TEST(Topology, CageNeighborsShareCage) {
  const SystemConfig cfg = SystemConfig::titan();
  const Topology topo(cfg);
  const NodeId id = 1234;
  const auto neighbors = topo.cage_neighbors(id);
  EXPECT_EQ(neighbors.size(),
            static_cast<std::size_t>(cfg.slots_per_cage * cfg.nodes_per_slot) -
                1);
  const NodeAddress a = topo.address_of(id);
  for (const NodeId n : neighbors) {
    const NodeAddress b = topo.address_of(n);
    EXPECT_EQ(a.cage, b.cage);
    EXPECT_EQ(a.cab_x, b.cab_x);
    EXPECT_EQ(a.cab_y, b.cab_y);
  }
}

TEST(Topology, OutOfRangeThrows) {
  const Topology topo(SystemConfig::tiny());
  EXPECT_THROW((void)topo.address_of(-1), CheckError);
  EXPECT_THROW((void)topo.address_of(topo.total_nodes()), CheckError);
  EXPECT_THROW((void)topo.cabinet_of(topo.total_nodes()), CheckError);
  EXPECT_THROW((void)topo.id_of({.cab_x = 99}), CheckError);
}

TEST(Topology, InvalidConfigThrows) {
  SystemConfig bad;
  bad.grid_x = 0;
  EXPECT_THROW(Topology{bad}, CheckError);
}

}  // namespace
}  // namespace repro::topo
