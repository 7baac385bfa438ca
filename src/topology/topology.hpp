// Titan machine topology.
//
// The paper's system (Sec. II): a node = 1 AMD Opteron CPU + 1 NVIDIA K20X
// GPU; 4 nodes form a slot; 8 slots form a cage; 3 cages form a cabinet;
// 200 cabinets are arranged as a 25 x 8 floor grid (18,688 GPUs populated).
//
// All spatial features and characterization grids are expressed through
// this module: NodeId <-> NodeAddress is a bijection, and neighbor queries
// (same slot / same cage / same cabinet) drive the spatial feature set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace repro::topo {

/// Dense node identifier in [0, total_nodes).
using NodeId = std::int32_t;
/// Dense cabinet identifier in [0, cabinets).
using CabinetId = std::int32_t;

/// Fully-resolved physical location of a node.
struct NodeAddress {
  std::int32_t cab_x = 0;  ///< cabinet column on the floor grid
  std::int32_t cab_y = 0;  ///< cabinet row on the floor grid
  std::int32_t cage = 0;   ///< cage within the cabinet
  std::int32_t slot = 0;   ///< slot within the cage
  std::int32_t node = 0;   ///< node within the slot

  bool operator==(const NodeAddress&) const = default;
};

/// Machine shape. Defaults describe Titan; scaled_*() factories give small
/// replicas with the same 25x8-style floor plan for fast tests/benches.
struct SystemConfig {
  std::int32_t grid_x = 25;            ///< cabinet columns
  std::int32_t grid_y = 8;             ///< cabinet rows
  std::int32_t cages_per_cabinet = 3;
  std::int32_t slots_per_cage = 8;
  std::int32_t nodes_per_slot = 4;

  /// Full Titan: 200 cabinets, 19,200 node positions.
  [[nodiscard]] static SystemConfig titan() noexcept { return {}; }

  /// Keeps the 25x8 cabinet grid (needed by the figure reproductions) but
  /// shrinks each cabinet to 1 cage x 2 slots x 4 nodes = 8 nodes,
  /// for a 1,600-node machine that simulates quickly.
  [[nodiscard]] static SystemConfig titan_scaled() noexcept {
    return {.grid_x = 25, .grid_y = 8, .cages_per_cabinet = 1,
            .slots_per_cage = 2, .nodes_per_slot = 4};
  }

  /// Tiny machine for unit tests: 4x2 cabinets x 1 cage x 2 slots x 4 nodes.
  [[nodiscard]] static SystemConfig tiny() noexcept {
    return {.grid_x = 4, .grid_y = 2, .cages_per_cabinet = 1,
            .slots_per_cage = 2, .nodes_per_slot = 4};
  }

  [[nodiscard]] constexpr std::int32_t cabinets() const noexcept {
    return grid_x * grid_y;
  }
  [[nodiscard]] constexpr std::int32_t nodes_per_cabinet() const noexcept {
    return cages_per_cabinet * slots_per_cage * nodes_per_slot;
  }
  [[nodiscard]] constexpr std::int32_t total_nodes() const noexcept {
    return cabinets() * nodes_per_cabinet();
  }

  [[nodiscard]] constexpr bool valid() const noexcept {
    return grid_x > 0 && grid_y > 0 && cages_per_cabinet > 0 &&
           slots_per_cage > 0 && nodes_per_slot > 0;
  }

  bool operator==(const SystemConfig&) const = default;
};

/// Address algebra over a SystemConfig.
class Topology {
 public:
  explicit Topology(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::int32_t total_nodes() const noexcept {
    return config_.total_nodes();
  }

  /// NodeId -> physical address. Requires 0 <= id < total_nodes().
  [[nodiscard]] NodeAddress address_of(NodeId id) const;

  /// Physical address -> NodeId. Requires each coordinate in range.
  [[nodiscard]] NodeId id_of(const NodeAddress& addr) const;

  /// Cabinet containing the node.
  [[nodiscard]] CabinetId cabinet_of(NodeId id) const;

  /// All nodes in the node's cage, excluding the node itself.
  [[nodiscard]] std::vector<NodeId> cage_neighbors(NodeId id) const;

 private:
  SystemConfig config_;
};

}  // namespace repro::topo
