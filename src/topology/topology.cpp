#include "topology/topology.hpp"

namespace repro::topo {

Topology::Topology(SystemConfig config) : config_(config) {
  REPRO_CHECK_MSG(config_.valid(), "invalid SystemConfig");
}

NodeAddress Topology::address_of(NodeId id) const {
  REPRO_CHECK_MSG(id >= 0 && id < total_nodes(), "node id out of range: " << id);
  const auto& c = config_;
  NodeAddress a;
  a.node = id % c.nodes_per_slot;
  std::int32_t rest = id / c.nodes_per_slot;
  a.slot = rest % c.slots_per_cage;
  rest /= c.slots_per_cage;
  a.cage = rest % c.cages_per_cabinet;
  rest /= c.cages_per_cabinet;
  a.cab_x = rest % c.grid_x;
  a.cab_y = rest / c.grid_x;
  return a;
}

NodeId Topology::id_of(const NodeAddress& a) const {
  const auto& c = config_;
  REPRO_CHECK_MSG(a.cab_x >= 0 && a.cab_x < c.grid_x && a.cab_y >= 0 &&
                      a.cab_y < c.grid_y && a.cage >= 0 &&
                      a.cage < c.cages_per_cabinet && a.slot >= 0 &&
                      a.slot < c.slots_per_cage && a.node >= 0 &&
                      a.node < c.nodes_per_slot,
                  "node address out of range");
  std::int32_t id = a.cab_y * c.grid_x + a.cab_x;
  id = id * c.cages_per_cabinet + a.cage;
  id = id * c.slots_per_cage + a.slot;
  id = id * c.nodes_per_slot + a.node;
  return id;
}

CabinetId Topology::cabinet_of(NodeId id) const {
  REPRO_CHECK_MSG(id >= 0 && id < total_nodes(), "node id out of range: " << id);
  return id / config_.nodes_per_cabinet();
}

std::vector<NodeId> Topology::cage_neighbors(NodeId id) const {
  REPRO_CHECK_MSG(id >= 0 && id < total_nodes(), "node id out of range: " << id);
  const std::int32_t cage_size =
      config_.slots_per_cage * config_.nodes_per_slot;
  const NodeId base = id - id % cage_size;
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(cage_size) - 1);
  for (std::int32_t i = 0; i < cage_size; ++i) {
    const NodeId n = base + i;
    if (n != id) out.push_back(n);
  }
  return out;
}

}  // namespace repro::topo
